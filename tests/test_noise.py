"""One noise path: ``model.gauss_noise`` and the draws meta-evaluation reuses.

``gauss_noise(seed, sd)`` must equal ``random.Random(seed).gauss(0.0, sd)``
bit for bit; that expression stays here as the oracle. Each thread reseeds
one generator per draw, so a draw must not depend on the draw before it or
on other threads drawing at once. The meta table's replicate seeds, derived
from one text per (seed, configuration id), must equal ``derive_seed``'s.
The meta table keeps one iteration's draws and ``accuracy_cost`` runs
iteration-major, so estimates must not depend on the order in which method
rows and seeds are visited. ``tests/test_runner.py`` checks that a noisy run
log does not depend on the runner's parallelism, on the bundled SMT model
too.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from effattr import (
    SyntheticBackend,
    full_factorial,
    load_model_file,
    load_scenario,
    load_space_file,
    new_log,
    run,
)
from effattr._util import derive_seed, derive_seeds
from effattr.meta import AccuracyRow, _one_iteration, accuracy_cost
from effattr.model import gauss_noise

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SDS = (0.8, 1e-300, 1e300)
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def oracle(seed: int, sd: float) -> float:
    return random.Random(seed).gauss(0.0, sd)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("sd", SDS)
def test_gauss_noise_equals_oracle_at_edge_seeds(seed, sd):
    assert gauss_noise(seed, sd) == oracle(seed, sd)


def test_gauss_noise_equals_oracle_on_derived_seeds():
    # 100,000 per-trial seeds as the runner and the meta table derive them;
    # each seed is checked once, the three sds taking turns.
    for i in range(100_000):
        seed = derive_seed(i // 3, f"cfg{i % 97}", i % 3)
        sd = SDS[i % 3]
        got, want = gauss_noise(seed, sd), oracle(seed, sd)
        assert got == want, (seed, sd, got, want)


def test_a_draw_after_a_draw_at_another_seed_equals_oracle():
    # Each thread reseeds one generator per draw: no state of the draw
    # before may reach the next, whatever seed or sd it had.
    previous = [(1, 0.8), (2**64 - 1, 1e300), (5, 0.8), (5, 0.8)]
    for (before, sd_before), (seed, sd) in zip(previous, previous[1:] + [(0, 1e-300)]):
        gauss_noise(before, sd_before)
        assert gauss_noise(seed, sd) == oracle(seed, sd)


def test_threads_drawing_interleaved_equal_oracle():
    n_threads, draws = 4, 3_000
    results: dict[int, list[tuple[float, float]]] = {}
    start = threading.Barrier(n_threads)

    def draw(t: int) -> None:
        start.wait(timeout=60)
        got = []
        for i in range(draws):
            seed = derive_seed(t, f"cfg{i % 97}", i)
            got.append((gauss_noise(seed, SDS[i % 3]), oracle(seed, SDS[i % 3])))
        results[t] = got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between draws, often mid-draw
    try:
        threads = [threading.Thread(target=draw, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(range(n_threads))
    for t, pairs in results.items():
        assert [got for got, _ in pairs] == [want for _, want in pairs], t


@given(
    st.integers(-(2**64), 2**64 - 1) | st.sampled_from(EDGE_SEEDS) | st.sampled_from((-1, -(2**63))),
    st.text() | st.sampled_from(("", "\x1f", "a\x1fb", "\x1f\x1f", "é\x1f中", "ü")),
    st.integers(0, 6),
    st.integers(0, 4),
)
@example(-1, "\x1f", 3, 2)
@example(2**64 - 1, "é\x1fcfg", 1, 3)
def test_seeds_from_one_prefix_equal_derive_seed(seed, cid, start, count):
    reps = range(start, start + count)
    want = [derive_seed(seed, cid, rep) for rep in reps]
    assert derive_seeds((seed, cid), reps) == want
    # derive_seed itself, spelled out: the first 8 bytes, big-endian, of the
    # SHA-256 of the parts' texts joined by the unit separator.
    texts = [f"{seed}\x1f{cid}\x1f{rep}".encode("utf-8") for rep in reps]
    assert want == [int.from_bytes(hashlib.sha256(text).digest()[:8], "big") for text in texts]


def smt_scenario(mixed_r: bool = False):
    """The bundled SMT scenario at 5 iterations; with ``mixed_r`` its rows
    take r = 2, 3, 1, 2, 3, so rows share only a prefix of a draw's replicates."""
    doc = json.loads((SCENARIOS / "smt_scenario.json").read_text(encoding="utf-8"))
    doc["iterations"] = 5
    if mixed_r:
        doc["methods"] = [{**m, "r": (2, 3, 1, 2, 3)[k]} for k, m in enumerate(doc["methods"])]
    return load_scenario(doc)


SEEDS = [derive_seed(7, "iter", j) for j in range(3)]


def estimates(calls):
    """``{(method name, seed): estimate}`` over ``calls`` on a fresh scenario."""
    sc = smt_scenario(mixed_r=True)
    by_name = {m.name: m for m in sc.methods}
    return {(name, seed): _one_iteration(sc, by_name[name], seed) for name, seed in calls}


def test_estimates_do_not_depend_on_visiting_order():
    names = [m.name for m in smt_scenario().methods]
    declared = [(n, s) for s in SEEDS for n in names]
    reversed_rows = [(n, s) for s in SEEDS for n in reversed(names)]
    # every call changes the seed, so no draw of one call is kept for the next
    interleaved = [(n, s) for n in names for s in SEEDS]
    expected = estimates(declared)
    assert estimates(reversed_rows) == expected
    assert estimates(interleaved) == expected
    # a row alone, with nothing drawn before it at its seed
    for name, seed in declared:
        assert estimates([(name, seed)])[name, seed] == expected[name, seed]


def test_accuracy_cost_equals_method_major_reference():
    sc = smt_scenario()
    truth = sc.truth
    expected = []
    for method in sc.methods:
        covered, widths, cost = 0, 0.0, 0
        for j in range(sc.iterations):
            estimate, cost = _one_iteration(sc, method, derive_seed(sc.master_seed, "iter", j))
            covered += estimate.covers(truth)
            widths += estimate.width
        expected.append(
            AccuracyRow(method.name, cost, covered / sc.iterations, widths / sc.iterations, sc.iterations)
        )
    assert accuracy_cost(smt_scenario()) == expected


def test_runner_noise_equals_oracle():
    space = load_space_file(SCENARIOS / "cpu_space.json")
    model = load_model_file(SCENARIOS / "smt_model.json")
    plan = full_factorial(space, r=2, seed=3)
    backend = SyntheticBackend(model)
    log = new_log(plan, backend)
    run(plan, backend, log, parallelism=4)
    for trial in plan.trials:
        want = model.response(trial.config) + oracle(trial.seed, model.noise_sd)
        assert log.ok_value(trial.config.id, trial.replicate) == want
