"""Tests of the benchmark itself: oracles catch corrupted outputs, traced
counts repeat exactly, tracing leaves effattr unmodified, and the command
refuses to run outside a checkout.

Run from the repository root: ``python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

SCENARIOS = ROOT / "scenarios"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(*argv: str) -> None:
    rc, _, err = wl.cli_call(list(argv))
    assert rc == 0, err


def _bump(text: str, field: str) -> str:
    """Change every occurrence of one numeric ``key=value`` field by a small amount."""
    value = wl._parse_fields(text)[field]
    return text.replace(f"{field}={value}", f"{field}={float(value) * (1 + 1e-6)!r}")


def test_space_oracle_flags_wrong_count_and_invalid_plan(tmp_path):
    doc = wl.make_space(random.Random(3), 8, 4)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    _cli("space", "size", str(path), "--out", str(tmp_path / "size.txt"))
    out = (tmp_path / "size.txt").read_text()
    expected = wl.space_size_text(doc)
    assert out == expected
    dc = int(out.splitlines()[1].split(": ")[1])
    assert wl.expect_text(expected)(out.replace(f"DC cardinality: {dc}", f"DC cardinality: {dc + 1}"))

    _cli("plan", "paired", "--space", str(path), "--plan-out", str(tmp_path / "plan.json"),
         "--n", "10", "--cui-a", "a", "--cui-ref", "b", "--seed", "1", "--out", str(tmp_path / "o"))
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert wl.check_paired_plan(doc, plan, 10, 1) == []
    excluded = {**plan["trials"][0]["assignment"], **doc["exclusions"][0]}
    bad = {**plan, "trials": [{**plan["trials"][0], "assignment": excluded}] + plan["trials"][1:]}
    assert wl.check_paired_plan(doc, bad, 10, 1)
    flipped = {**plan["trials"][1], "assignment": {**plan["trials"][1]["assignment"], "cui": "a"}}
    assert wl.check_paired_plan(doc, {**plan, "trials": [plan["trials"][0], flipped] + plan["trials"][2:]}, 10, 1)


def test_brute_force_count_honours_exclusions():
    doc = {
        "factors": [
            {"name": "c", "role": "CUI", "levels": [{"label": "x"}, {"label": "y"}]},
            {"name": "d", "role": "DC", "levels": [{"label": "p"}, {"label": "q"}, {"label": "r"}]},
        ],
        "exclusions": [{"d": "p"}, {"c": "x", "d": "q"}],
    }
    assert wl.space_size_text(doc) == "CUI cardinality: 2\nDC cardinality: 2\ntotal cardinality: 3\n"


@pytest.fixture(scope="module")
def paired_run(tmp_path_factory):
    t = tmp_path_factory.mktemp("paired")
    _cli("plan", "paired", "--space", str(SCENARIOS / "cpu_space.json"), "--plan-out", str(t / "p.json"),
         "--n", "20", "--r", "3", "--cui-a", "smt_off", "--cui-ref", "smt_on", "--stratify", "workload",
         "--seed", "5", "--out", str(t / "o"))
    _cli("run", "--plan", str(t / "p.json"), "--log", str(t / "l.jsonl"),
         "--backend", f"synthetic:{SCENARIOS / 'smt_model.json'}", "--out", str(t / "o"))
    _cli("analyze", "effect", "--plan", str(t / "p.json"), "--log", str(t / "l.jsonl"), "--raw",
         "--out", str(t / "effect.txt"))
    return json.loads((t / "p.json").read_text()), (t / "l.jsonl").read_text(), (t / "effect.txt").read_text()


def test_effect_oracle_flags_corrupted_delta_and_log(paired_run):
    plan, log, out = paired_run
    assert wl.check_effect(plan, log, out) == []
    assert wl.check_effect(plan, log, _bump(out, "delta_e"))
    lines = log.splitlines()
    rec = json.loads(lines[1])
    rec["value"] += 1.0
    assert wl.check_effect(plan, "\n".join([lines[0], json.dumps(rec)] + lines[2:]), out)


def test_anova_oracle_flags_corrupted_sum_of_squares(tmp_path):
    space = {
        "factors": [
            {"name": "c", "role": "CUI", "levels": [{"label": "x"}, {"label": "y"}]},
            {"name": "d", "role": "DC", "levels": [{"label": "p"}, {"label": "q"}, {"label": "r"}]},
        ]
    }
    model = {"baseline": 10.0, "noise_sd": 1.0,
             "main_effects": [{"factor": "c", "level": "y", "effect": 2.0}]}
    (tmp_path / "s.json").write_text(json.dumps(space))
    (tmp_path / "m.json").write_text(json.dumps(model))
    _cli("plan", "full", "--space", str(tmp_path / "s.json"), "--plan-out", str(tmp_path / "p.json"),
         "--r", "3", "--out", str(tmp_path / "o"))
    _cli("run", "--plan", str(tmp_path / "p.json"), "--log", str(tmp_path / "l.jsonl"),
         "--backend", f"synthetic:{tmp_path / 'm.json'}", "--out", str(tmp_path / "o"))
    _cli("analyze", "anova", "--plan", str(tmp_path / "p.json"), "--log", str(tmp_path / "l.jsonl"),
         "--raw", "--format", "csv", "--out", str(tmp_path / "a.csv"))
    log, out = (tmp_path / "l.jsonl").read_text(), (tmp_path / "a.csv").read_text()
    assert wl.check_anova(log, out) == []
    header, first, *rest = out.splitlines()
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) * 1.01)
    assert wl.check_anova(log, "\n".join([header, ",".join(cells)] + rest) + "\n")


def test_meta_oracle_flags_corrupted_truth_and_cost(tmp_path):
    doc = json.loads((SCENARIOS / "smt_scenario.json").read_text())
    doc["iterations"] = 2
    (tmp_path / "sc.json").write_text(json.dumps(doc))
    _cli("meta", "--scenario", str(tmp_path / "sc.json"), "--raw", "--out", str(tmp_path / "m.csv"))
    out = (tmp_path / "m.csv").read_text()
    truth = wl.oracle_ground_truth(doc)
    assert wl.check_meta_csv(doc, truth, out) == []
    header, first, *rest = out.splitlines()
    cells = first.split(",")
    wrong_truth = cells[:5] + [repr(float(cells[5]) + 1e-6)]
    wrong_cost = [cells[0], str(int(cells[1]) + 1)] + cells[2:]
    for row in (wrong_truth, wrong_cost):
        assert wl.check_meta_csv(doc, truth, "\n".join([header, ",".join(row)] + rest) + "\n")


def test_digest_check_flags_any_change():
    text = "method,cost\nx,1\n"
    recorded = {"out": wl.sha256_text(text)}
    assert wl.check_digest("out", text, recorded) == []
    assert wl.check_digest("out", text.replace("1", "2"), recorded)


def test_recorded_digests_match_at_default_seed(tmp_path):
    digests = json.loads((ROOT / "bench" / "digests.json").read_text())
    tally = wl.Tally()
    for cls in (wl.MetaSmt, wl.CliFiles):
        d = tmp_path / cls.name
        d.mkdir()
        cls(ROOT, d, wl.DEFAULT_SEED, digests).round(0, tally)
    assert tally.failed == 0, tally.problems


def test_instrument_restores_every_binding():
    from effattr import design, meta, runner, space

    before = (meta.paired_plan, design.paired_plan, runner.RunLog.load, space.ConfigSpace.enumerate_configs)
    with instrument(Tracer()):
        assert meta.paired_plan is design.paired_plan is not before[0]
    after = (meta.paired_plan, design.paired_plan, runner.RunLog.load, space.ConfigSpace.enumerate_configs)
    assert after == before


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.self_time("outer") == pytest.approx(outer.duration - inner.duration)
    assert inner.parent is outer


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(wl.MetaSmt, "iterations", 2)
    monkeypatch.setattr(wl.CliFiles, "trace_rounds", 1)
    results = []
    for attempt in range(2):
        d = tmp_path / str(attempt)
        d.mkdir()
        workload = wl.WORKLOADS[name](ROOT, d, 11, {})
        metrics, tally, _ = run.trace(ROOT, workload, {}, d / "trace.jsonl")
        assert tally.failed == 0, tally.problems
        results.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")})
    assert results[0] == results[1]
    assert any(results[0].values())
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_timed_run_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(wl.MetaSmt, "iterations", 2)
    monkeypatch.setattr(wl.MetaSmt, "min_ops", 1)
    metrics, tally, detail = run.measure(ROOT, wl.MetaSmt(ROOT, tmp_path, 3, {}), 0.0)
    assert tally.failed == 0, tally.problems
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())
    assert detail["rounds"] == 1


def test_median_latency_is_taken_within_each_kind():
    # Pooled, the slow outlier of kind "a" would move the median to 2.2; the
    # median of the kinds' medians is the middle kind's own median.
    by_kind = {"a": [1.0, 1.1, 9.0], "b": [2.0, 2.1, 2.2], "c": [5.0, 5.5, 6.0]}
    assert run.kind_median(by_kind) == 2.1
    assert run.percentile([float(x) for x in range(1, 101)], 90) == 90.9


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_minimum_run_leaves_ten_samples_beyond_the_tail(name):
    cls = wl.WORKLOADS[name]
    assert cls.min_ops * (100 - cls.tail_pct) // 100 >= 10


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "meta_smt", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
