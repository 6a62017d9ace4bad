"""Records are named tuples: value equality, ``repr``, ``pickle`` and
``deepcopy`` over their declared fields, and ``_replace`` through the
constructor, so that it re-runs every check and re-derives every
derived field."""

from __future__ import annotations

import copy
import json
import pickle
from pathlib import Path

import pytest

from effattr import (
    ConfigSpace,
    Configuration,
    Level,
    ModelError,
    ScenarioError,
    SpaceError,
    SyntheticBackend,
    SyntheticModel,
    anova,
    full_factorial,
    load_scenario,
    load_space,
    load_space_file,
    new_log,
    one_sample_ttest,
    paired_diffs,
    paired_plan,
    pitfall_demo,
    run,
    select_best_cui,
    simple_random_sample,
    variability,
)
from effattr._util import assignment_id
from effattr.meta import accuracy_cost
from conftest import space_doc

SPACE_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "cpu_space.json"


@pytest.fixture(scope="module")
def records():
    """One instance of each record class, by class name, each built as the pipeline builds it."""
    doc = space_doc(dc_counts=(3, 2), exclusions=[{"w": "w0", "t": "t0"}])
    space = load_space(json.dumps(doc))
    model = SyntheticModel(
        baseline=10.0, main_effects={("cpu", "ht_off"): 2.0}, interactions=(((("cpu", "ht_off"), ("w", "w1")), 5.0),),
        noise_sd=0.5, unit="seconds",
    )
    dc = simple_random_sample(space, ("DC",), 4, seed=3)
    plan = paired_plan(space, "ht_off", "ht_on", dc, r=2, seed=3)
    backend = SyntheticBackend(model)
    log = new_log(plan, backend)
    report = run(plan, backend, log)
    diffs = paired_diffs(log, plan)
    complete = load_space(json.dumps(space_doc(dc_counts=(3, 2))))
    full = full_factorial(complete, r=2, seed=3)
    full_log = new_log(full, backend)
    run(full, backend, full_log)
    table = anova(full_log, full)
    scenario = load_scenario({
        "space": doc, "model": {"baseline": 10.0, "noise_sd": 0.5, "main_effects": [
            {"factor": "cpu", "level": "ht_off", "effect": 2.0}]},
        "cui_a": "ht_off", "cui_ref": "ht_on", "iterations": 3, "master_seed": 5,
        "methods": [{"kind": "paired", "n": 3, "r": 2}, {"kind": "rct", "n": 4, "r": 2}],
    })
    built = [
        space.factors[0].levels[0], space.factors[1], dc[0], space, plan, model, log.header, report, diffs,
        one_sample_ttest(diffs), table.rows[0], table.error_row, table, scenario.methods[0], scenario,
        accuracy_cost(scenario)[0], pitfall_demo(scenario, dc[0]), select_best_cui(space, dc, model=model),
        variability([1.0, 2.0, 4.0]),
    ]
    return {type(x).__name__: x for x in built}


RECORDS = (
    "Level", "Factor", "Configuration", "ConfigSpace", "DesignPlan", "SyntheticModel", "LogHeader", "RunReport",
    "DiffSample", "EffectEstimate", "AnovaRow", "ErrorRow", "AnovaTable", "MethodSpec", "Scenario", "AccuracyRow",
    "PitfallReport", "SelectionResult", "VariabilityReport",
)


def test_every_record_class_is_covered(records):
    assert sorted(records) == sorted(RECORDS)
    assert all(isinstance(x, tuple) and hasattr(x, "_fields") for x in records.values())


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_a_record_survives_pickle_and_deepcopy(records, name, how):
    x = records[name]
    y = pickle.loads(pickle.dumps(x)) if how == "pickle" else copy.deepcopy(x)
    assert type(y) is type(x)
    assert y == x
    assert repr(y) == repr(x)


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda s, m, sc: s.factors[0].levels[0]._replace(weight=-1), SpaceError),
        (lambda s, m, sc: s.factors[0]._replace(levels=s.factors[0].levels * 2), SpaceError),
        (lambda s, m, sc: s._replace(factors=s.factors + (s.factors[0]._replace(name="cpu2"),)), SpaceError),
        (lambda s, m, sc: m._replace(noise_sd=-0.5), ModelError),
        (lambda s, m, sc: sc._replace(alpha=1.5), ScenarioError),
    ],
    ids=["level-weight", "factor-repeated-label", "space-two-cui-factors", "model-noise-sd", "scenario-alpha"],
)
def test_replace_reruns_the_constructors_check(records, edit, error):
    with pytest.raises(error):
        edit(records["ConfigSpace"], records["SyntheticModel"], records["Scenario"])


def test_replace_of_a_level_checks_as_the_constructor_does():
    with pytest.raises(SpaceError, match="weight must be >= 0"):
        Level("x", "x")._replace(weight=-1)
    assert Level("x", "x")._replace(weight=2.0) == Level("x", "x", 2.0)


def test_replace_of_a_configuration_rederives_its_id():
    config = Configuration({"cpu": "ht_on", "w": "w1"})
    edited = config._replace(assignment={"cpu": "ht_off", "w": "w1"})
    assert edited.id == assignment_id({"cpu": "ht_off", "w": "w1"}) != config.id
    assert edited == Configuration({"w": "w1", "cpu": "ht_off"})


def test_replace_of_a_model_and_a_space_rederives_their_caches(records):
    model = records["SyntheticModel"]
    config = Configuration({"cpu": "ht_off", "w": "w1", "t": "t1"})
    assert model._replace(baseline=0.0).response(config) == model.response(config) - 10.0
    space = records["ConfigSpace"]
    assert space._replace(exclusions=()).cartesian_size() == space.cartesian_size() + 2


def test_spaces_stay_equal_once_one_has_built_a_walk_and_its_digest():
    a, b = load_space_file(SPACE_FILE), load_space_file(SPACE_FILE)
    a.pool(("DC",))
    a.space_digest
    assert a == b and repr(a) == repr(b)
    assert b.space_digest == a.space_digest
    assert ConfigSpace(a.factors, a.exclusions) == a


def test_a_default_is_never_shared_between_records(records):
    plan, model = records["DesignPlan"], SyntheticModel()
    assert type(plan)(*plan[:5]).metadata is not type(plan)(*plan[:5]).metadata
    assert model.main_effects is not SyntheticModel().main_effects
    assert pickle.loads(pickle.dumps(type(plan)(*plan[:5]))).metadata == {}
