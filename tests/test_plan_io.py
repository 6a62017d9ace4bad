"""Plan files: the writer's bytes equal the ``indent=1`` JSON oracle, loading
shares one configuration per distinct assignment, and planning hashes only
the configurations a plan uses."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effattr.space as space_module
from effattr import (
    Configuration,
    PlanError,
    SyntheticBackend,
    SyntheticModel,
    factorial_2kr,
    full_factorial,
    load_space,
    load_space_file,
    new_log,
    paired_plan,
    rct_plan,
    run,
    simple_random_sample,
    stratified_sample,
)
from effattr._util import digest
from effattr.cli import main
from effattr.design import DesignPlan, Trial, plan_digest, plan_from_json, plan_to_json, save_plan
from conftest import space_doc


def oracle(plan) -> str:
    return json.dumps(plan.to_dict(), sort_keys=True, indent=1)


SPACE = space_doc(dc_counts=(5, 4, 2), exclusions=({"w": "w0", "t": "t1"},))
SPLIT = {
    "cpu": {"low": ["ht_on"], "high": ["ht_off"]},
    "w": {"low": ["w0", "w1"], "high": ["w2", "w3", "w4"]},
    "t": {"low": ["t0", "t1"], "high": ["t2", "t3"]},
    "d": {"low": ["d0"], "high": ["d1"]},
}
BUILDERS = {
    "full": lambda s, r: full_factorial(s, r, seed=7),
    "2kr": lambda s, r: factorial_2kr(s, SPLIT, r, seed=7),
    "2kr-stratified": lambda s, r: factorial_2kr(
        s, {k: v for k, v in SPLIT.items() if k != "w"}, r, seed=7, stratify="w"
    ),
    "rct": lambda s, r: rct_plan(s, "ht_on", "ht_off", n=8, r=r, seed=7),
    "paired": lambda s, r: paired_plan(
        s, "ht_off", "ht_on", simple_random_sample(s, ("DC",), 6, seed=7), r, seed=7
    ),
    "paired-stratified": lambda s, r: paired_plan(
        s, "ht_off", "ht_on", stratified_sample(s, "w", 6, seed=7), r, seed=7, stratum="w"
    ),
    "paired-empty": lambda s, r: paired_plan(s, "ht_off", "ht_on", [], r, seed=7),
}


def assert_round_trip(plan, text):
    loaded = plan_from_json(text)
    assert loaded.to_dict() == plan.to_dict()
    assert plan_to_json(loaded) == text
    # The streamed digest against the canonical JSON of the whole plan.
    assert plan_digest(plan) == digest(plan.to_dict())
    assert plan_digest(loaded) == digest(loaded.to_dict()) == plan_digest(plan)
    # One Configuration object per distinct assignment, shared by its trials.
    shared = {}
    for t in loaded.trials:
        key = json.dumps(t.config.assignment, sort_keys=True)
        assert shared.setdefault(key, t.config) is t.config
    assert len({id(t.config) for t in loaded.trials}) == len(shared)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED_SPLIT = {
    "smt": {"low": ["smt_on"], "high": ["smt_off"]},
    "workload": {"low": ["fluid_sim", "stencil", "fft", "nbody", "graph_bfs"],
                 "high": ["sort", "compress", "raytrace", "linsolve", "montecarlo"]},
    "dataset": {"low": ["small"], "high": ["medium", "large"]},
    "opt_level": {"low": ["O1"], "high": ["O2", "O3"]},
    "threads": {"low": ["t1", "t2", "t4", "t8"], "high": ["t12", "t16", "t24", "t32"]},
}
BUNDLED_BUILDERS = {
    "full": lambda s, r: full_factorial(s, r, seed=7),
    "2kr": lambda s, r: factorial_2kr(s, BUNDLED_SPLIT, r, seed=7),
    "2kr-stratified": lambda s, r: factorial_2kr(
        s, {k: v for k, v in BUNDLED_SPLIT.items() if k != "workload"}, r, seed=7, stratify="workload"
    ),
    "rct": lambda s, r: rct_plan(s, "smt_on", "smt_off", n=10, r=r, seed=7),
    "paired": lambda s, r: paired_plan(
        s, "smt_off", "smt_on", simple_random_sample(s, ("DC",), 10, seed=7), r, seed=7
    ),
    "paired-stratified": lambda s, r: paired_plan(
        s, "smt_off", "smt_on", stratified_sample(s, "workload", 10, seed=7), r, seed=7, stratum="workload"
    ),
    "paired-empty": lambda s, r: paired_plan(s, "smt_off", "smt_on", [], r, seed=7),
}


def shuffled(plan):
    """The plan loaded back, its trials in a seeded random order."""
    loaded = plan_from_json(plan_to_json(plan))
    return loaded._replace(trials=tuple(random.Random(7).sample(loaded.trials, len(loaded.trials))))


WRITER_INPUTS = {
    **{f"{b}-{r}": lambda r=r, b=b: BUILDERS[b](load_space(SPACE), r) for b in BUILDERS for r in (1, 3)},
    **{
        f"{name}-{b}-{r}": lambda name=name, b=b, r=r: BUNDLED_BUILDERS[b](load_space_file(SCENARIOS / name), r)
        for name in ("cpu_space.json", "cpu_space_complete.json")
        for b in BUNDLED_BUILDERS
        for r in (1, 3)
    },
    # More units than the writer keeps texts for, out of order.
    "full-r3-loaded-shuffled": lambda: shuffled(full_factorial(load_space(SPACE), 3, seed=7)),
    "cpu_space_complete.json-paired-r2-loaded-shuffled": lambda: shuffled(
        BUNDLED_BUILDERS["paired"](load_space_file(SCENARIOS / "cpu_space_complete.json"), 2)
    ),
    "full-no-trials": lambda: full_factorial(load_space(SPACE), 2, seed=7)._replace(trials=()),
}


@pytest.mark.parametrize("case", sorted(WRITER_INPUTS))
def test_writer_equals_oracle_and_round_trips(case, tmp_path):
    plan = WRITER_INPUTS[case]()
    text = plan_to_json(plan)
    assert text == oracle(plan)
    save_plan(plan, tmp_path / "plan.json")
    assert (tmp_path / "plan.json").read_bytes() == text.encode("utf-8")
    assert_round_trip(plan, text)


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", ["cpu_space.json", "cpu_space_complete.json"])
def test_every_method_round_trips_on_the_bundled_spaces(name, seed):
    space = load_space_file(SCENARIOS / name)
    dc = stratified_sample(space, "workload", 10, seed)
    for r in (1, 3):
        for plan in (
            full_factorial(space, r, seed=seed),
            factorial_2kr(space, BUNDLED_SPLIT, r, seed=seed),
            rct_plan(space, "smt_on", "smt_off", n=10, r=r, seed=seed),
            paired_plan(space, "smt_off", "smt_on", dc, r, seed=seed),
        ):
            assert_round_trip(plan, plan_to_json(plan))


# Quotes, backslashes, control characters (the unit separator among them),
# non-ASCII and a character outside the BMP, which ASCII JSON writes as a
# surrogate pair. No newline and no '=': a space rejects them in names, and
# newlines in labels.
_TEXT = st.text(
    alphabet=st.sampled_from(['"', "\\", "\t", "\x00", "\x1f", "\x7f", "a", "/", " ", "é", "中", "\U0001f600"]),
    min_size=1,
    max_size=4,
)


@st.composite
def odd_spaces(draw):
    names = draw(st.lists(_TEXT, min_size=2, max_size=4, unique=True))
    factors = []
    for i, name in enumerate(names):
        labels = draw(st.lists(_TEXT, min_size=2 if i == 0 else 1, max_size=3, unique=True))
        factors.append(
            {
                "name": name,
                "role": "CUI" if i == 0 else "DC",
                "levels": [{"label": lab, "value": lab} for lab in labels],
            }
        )
    return factors


@settings(max_examples=60, deadline=None)
@given(odd_spaces(), st.integers(1, 3), st.integers(0, 2**32))
def test_writer_equals_oracle_on_odd_names_and_labels(factors, r, seed):
    space = load_space({"factors": factors})
    cui = [lv["label"] for lv in factors[0]["levels"]]
    dc = simple_random_sample(space, ("DC",), min(3, space.cartesian_size(("DC",))), seed)
    for plan in (
        full_factorial(space, r, seed=seed),
        paired_plan(space, cui[0], cui[1], dc, r, seed=seed),
        rct_plan(space, cui[1], cui[0], n=2 * (len(dc) // 2), r=r, seed=seed),
    ):
        text = plan_to_json(plan)
        assert text == oracle(plan)
        assert_round_trip(plan, text)


def test_equal_labels_of_different_types_are_encoded_apart():
    # True == 1 == 1.0 as dict keys, yet JSON spells them true, 1 and 1.0;
    # every factor takes each of them, and "1", in one configuration or another.
    labels = [True, 1, 1.0, "1"]
    configs = [Configuration({f: labels[(i + j) % 4] for j, f in enumerate("abcd")}) for i in range(4)]
    plan = DesignPlan("full_factorial", tuple(Trial(c, 0, seed=i) for i, c in enumerate(configs)), 1, 7, "0" * 64)
    assert plan_to_json(plan) == oracle(plan)
    assert plan_digest(plan) == digest(plan.to_dict())


def test_one_configuration_in_units_of_different_group_arm_and_pair_id_is_encoded_per_unit():
    shared = Configuration({"cpu": "ht_on", "w": "wé0"})
    units = [("pair", "p0", "a"), ("pair", "p0", "ref"), ("pair", "p1", "a"), ("control", None, None)]
    trials = tuple(Trial(shared, rep, g, pid, arm, seed=rep) for g, pid, arm in units for rep in range(2))
    plan = DesignPlan("paired", trials, 2, 7, "0" * 64)
    assert plan_to_json(plan) == oracle(plan)
    assert plan_digest(plan) == digest(plan.to_dict())


def test_a_trial_with_an_empty_assignment_is_encoded():
    configs = [Configuration({}), Configuration({"cpu": "ht_off"}), Configuration({})]
    plan = DesignPlan("full_factorial", tuple(Trial(c, 0, seed=i) for i, c in enumerate(configs)), 1, 7, "0" * 64)
    assert plan_to_json(plan) == oracle(plan)
    assert plan_digest(plan) == digest(plan.to_dict())


@pytest.mark.parametrize("name", ["full", "paired", "rct"])
def test_trials_in_shuffled_order_are_encoded(name):
    plan = BUILDERS[name](load_space(SPACE), 3)
    trials = list(plan.trials)
    random.Random(11).shuffle(trials)
    shuffled = DesignPlan(plan.method, tuple(trials), plan.r, plan.master_seed, plan.space_digest, plan.metadata)
    assert plan_to_json(shuffled) == oracle(shuffled)
    assert plan_digest(shuffled) == digest(shuffled.to_dict())
    assert plan_digest(shuffled) != plan_digest(plan)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda trials: trials.pop(0), "trials[1]: its unit has 2 of the replicates 0..2"),
        (lambda trials: trials.insert(1, trials[0]), "trials[1]: repeats trials[0], replicate 0 of the same unit"),
        (lambda trials: trials.append(trials[1]), "trials[36]: repeats trials[1], replicate 0 of the same unit"),
        (lambda trials: trials.__delitem__(slice(-2, None)), "trials[30]: its unit has 2 of the replicates 0..2"),
        (lambda trials: trials[0].update(pair_id="other"), "trials[0]: its unit has 1 of the replicates 0..2"),
    ],
)
def test_loader_rejects_a_unit_without_each_replicate_once(edit, message):
    # Paired, r 3: the trials go pair by pair, replicates in order, arms adjacent.
    doc = json.loads(plan_to_json(BUILDERS["paired"](load_space(SPACE), 3)))
    edit(doc["trials"])
    with pytest.raises(PlanError) as caught:
        plan_from_json(json.dumps(doc))
    assert str(caught.value) == f"malformed plan document: {message}"


def test_loader_accepts_a_unit_with_its_replicates_in_any_order():
    plan = BUILDERS["full"](load_space(SPACE), 3)
    doc = json.loads(plan_to_json(plan))
    doc["trials"].reverse()
    assert plan_from_json(json.dumps(doc)).to_dict()["trials"] == plan.to_dict()["trials"][::-1]


@pytest.mark.parametrize(
    "field, value",
    [("assignment", {"cpu": 1}), ("assignment", {"cpu": ["ht_on"]}), ("assignment", ["cpu"]),
     ("group", None), ("arm", 5), ("pair_id", ["p"])],
)
def test_loader_rejects_what_the_writer_cannot_write(field, value):
    doc = json.loads(plan_to_json(BUILDERS["paired"](load_space(SPACE), 1)))
    doc["trials"][1][field] = value
    with pytest.raises(PlanError, match="malformed plan document"):
        plan_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("trials", 1, "replicate"), 0.9, "trials[1].replicate: must be an integer, got 0.9"),
        (("trials", 1, "replicate"), 10**30, f"trials[1].replicate: must be in 0..0, got {10**30}"),
        (("trials", 1, "replicate"), -1, "trials[1].replicate: must be in 0..0, got -1"),
        (("trials", 1, "seed"), True, "trials[1].seed: must be an integer, got True"),
        (("r",), "1", "r: must be an integer, got '1'"),
        (("r",), 0, "r: must be >= 1, got 0"),
        (("r",), -1, "r: must be >= 1, got -1"),
        (("master_seed",), 7.9, "master_seed: must be an integer, got 7.9"),
        (("method",), 5, "method: must be text, got 5"),
        (("trials", 1, "assignment", "cpu"), ["ht_on"], "trials[1].assignment.cpu: must be text, got ['ht_on']"),
        (("metadata", "cui_a"), 1, "metadata.cui_a: must be text, got 1"),
    ],
)
def test_loader_names_the_mistyped_field_instead_of_coercing_it(path, value, message, tmp_path, capsys):
    # Each of the first nine once loaded: replicate 0, 10**30 and -1, seed 1, r 1,
    # r 0, r -1, master seed 7, method 5.
    doc = json.loads(plan_to_json(BUILDERS["paired"](load_space(SPACE), 1)))
    *outer, key = path
    target = doc
    for part in outer:
        target = target[part]
    target[key] = value
    with pytest.raises(PlanError) as caught:
        plan_from_json(json.dumps(doc))
    assert str(caught.value) == f"malformed plan document: {message}"
    plan_path, model_path = tmp_path / "plan.json", tmp_path / "model.json"
    plan_path.write_text(json.dumps(doc))
    model_path.write_text("{}")
    code = main(["run", "--plan", str(plan_path), "--log", str(tmp_path / "log.jsonl"), "--backend", f"synthetic:{model_path}"])
    assert code == 1
    assert capsys.readouterr().err == f"error: malformed plan document: {message}\n"


def test_loader_rejects_a_paired_plan_of_one_cui_level(tmp_path, capsys):
    # Both arms of every pair set cpu=ht_on, as a file written by hand, or by
    # a paired_plan without its two-level rule, holds them.
    space = load_space(SPACE)
    plan = BUILDERS["paired"](space, 2)
    self_paired = plan._replace(
        trials=tuple(t._replace(config=t.config.extended({"cpu": "ht_on"})) for t in plan.trials),
        metadata={**plan.metadata, "cui_a": "ht_on"},
    )
    message = "malformed plan document: metadata: a paired plan needs two different CUI levels, got cui_a='ht_on' and cui_ref='ht_on'"
    with pytest.raises(PlanError) as caught:
        plan_from_json(plan_to_json(self_paired))
    assert str(caught.value) == message
    with pytest.raises(PlanError) as caught:
        paired_plan(space, "ht_on", "ht_on", [], 1)
    assert message.endswith(str(caught.value))
    # Neither ``run`` nor ``analyze effect`` reads such a file; the log is
    # one that such a plan, run in memory, writes.
    plan_path, model_path, log_path = tmp_path / "plan.json", tmp_path / "model.json", tmp_path / "log.jsonl"
    plan_path.write_text(plan_to_json(self_paired))
    model_path.write_text("{}")
    backend = SyntheticBackend(SyntheticModel())
    log = new_log(self_paired, backend, log_path)
    run(self_paired, backend, log)
    log.close()
    for argv in (
        ["run", "--plan", plan_path, "--log", tmp_path / "new.jsonl", "--backend", f"synthetic:{model_path}"],
        ["analyze", "effect", "--plan", plan_path, "--log", log_path],
    ):
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "new.jsonl").exists()


def test_paired_planning_hashes_only_the_configurations_it_uses(tmp_path, monkeypatch):
    # Shaped like the benchmark's exclusion-heavy spaces: a two-level CUI,
    # twelve two-level DC factors, pairwise exclusions at one corner of the
    # DC grid and a few six-factor ones.
    rng = random.Random(3)
    names = [f"f{i:02d}" for i in range(12)]
    corner = {n: rng.choice(("lo", "hi")) for n in names}
    flip = {"lo": "hi", "hi": "lo"}
    pairs = rng.sample([(a, b) for i, a in enumerate(names) for b in names[i + 1 :]], 10)
    exclusions = [{f: corner[f] for f in pair} for pair in pairs]
    for _ in range(2):
        chosen = rng.sample(names, 6)
        exclusions.append({f: flip[corner[f]] if i < 3 else corner[f] for i, f in enumerate(chosen)})
    two = [{"label": "lo"}, {"label": "hi"}]
    doc = {
        "factors": [{"name": "cui", "role": "CUI", "levels": [{"label": "a"}, {"label": "b"}]}]
        + [{"name": n, "role": "DC", "levels": two} for n in names],
        "exclusions": exclusions,
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    n = 48
    assert load_space(doc).cartesian_size(("DC",)) > 10 * n

    calls = []
    real = space_module.assignment_id
    monkeypatch.setattr(space_module, "assignment_id", lambda a: calls.append(1) or real(a))
    argv = ["plan", "paired", "--space", path, "--plan-out", tmp_path / "plan.json", "--n", n,
            "--cui-a", "a", "--cui-ref", "b", "--seed", "7", "--out", tmp_path / "out.txt"]
    assert main([str(a) for a in argv]) == 0
    # n drawn DC configurations (their ids are the pair ids) and 2n arms.
    assert len(calls) <= 3 * n
