"""Plan and log files pass through memory without whole-file copies: the
peaks that ``tracemalloc`` traces while a 4,320-trial plan is saved and
loaded, and while its 4,320-record log is loaded."""

from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

import pytest

from effattr import SyntheticBackend, full_factorial, load_model_file, load_space_file, new_log, run
from effattr.design import load_plan, plan_from_json, save_plan
from effattr.runner import RunLog

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def traced_peak(call, *args):
    """The peak, in bytes, of what ``call(*args)`` allocates while it runs,
    as ``tracemalloc`` traces it."""
    gc.collect()
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A full factorial of the complete bundled space at r=3 (4,320 trials),
    saved, and its synthetic run log."""
    space = load_space_file(SCENARIOS / "cpu_space_complete.json")
    plan = full_factorial(space, 3, seed=7)
    root = tmp_path_factory.mktemp("memory")
    plan_path, log_path = root / "plan.json", root / "log.jsonl"
    save_plan(plan, plan_path)
    backend = SyntheticBackend(load_model_file(SCENARIOS / "smt_model.json"))
    log = new_log(plan, backend, log_path)
    run(plan, backend, log)
    log.close()
    return plan, plan_path, log_path


def test_save_plan_holds_no_copy_of_the_text(files, tmp_path):
    plan, plan_path, _ = files
    peak = traced_peak(save_plan, plan, tmp_path / "plan.json")
    assert peak < plan_path.stat().st_size / 10


def test_load_plan_lets_the_text_go_before_the_trials_are_built(files):
    _, plan_path, _ = files

    def holding_the_text(path):  # the loader that kept its text to the end
        return plan_from_json(Path(path).read_text(encoding="utf-8"))

    load_plan(plan_path), holding_the_text(plan_path)  # warm both paths
    saved = traced_peak(holding_the_text, plan_path) - traced_peak(load_plan, plan_path)
    # The call itself allocates a few dozen bytes more than the text's
    # object frees beyond its characters; 1 % of the text covers them.
    assert saved >= 0.99 * plan_path.stat().st_size


def test_run_log_load_peaks_below_four_times_the_log(files):
    _, _, log_path = files
    assert traced_peak(RunLog.load, log_path) < 4 * log_path.stat().st_size
