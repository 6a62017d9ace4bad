"""The plan-free meta iteration against the plan -> run -> analyze pipeline.

``meta._one_iteration`` reads the scenario's table instead of building a
plan and a run log. For every method kind it must return the estimate (and
cost) that planning, running and analyzing the same method gives, and raise
the same exception type where that pipeline fails.
"""

from __future__ import annotations

import json
import re

import pytest

from effattr import (
    PlanError,
    SyntheticBackend,
    SyntheticModel,
    ate,
    factorial_2kr,
    load_space,
    new_log,
    paired_effect,
    paired_plan,
    rct_plan,
    run,
    simple_random_sample,
    stratified_sample,
)
from effattr._util import derive_seed
from effattr.meta import (
    MethodSpec,
    Scenario,
    ScenarioError,
    _default_split,
    _factorial_estimate,
    _one_iteration,
)
from conftest import space_doc

SEEDS = [derive_seed(5, "iter", j) for j in range(6)]

MODEL = {
    "baseline": 40.0,
    "unit": "ms",
    "main_effects": [
        {"factor": "cpu", "level": "ht_off", "effect": 0.1},
        {"factor": "w", "level": "w1", "effect": 0.2},
        {"factor": "t", "level": "t2", "effect": 0.3},
        {"factor": "d", "level": "d1", "effect": -1.7},
        {"factor": "w", "level": "w3", "effect": 9.25},
    ],
    "interactions": [
        {"terms": {"cpu": "ht_off", "w": "w2"}, "effect": 0.9},
        {"terms": {"cpu": "ht_off", "t": "t0", "d": "d0"}, "effect": -2.5},
    ],
}


def space_json(cui_levels=("ht_on", "ht_off"), exclusions=()):
    doc = space_doc(cui_levels=cui_levels, dc_counts=(4, 3, 2), exclusions=exclusions)
    for i, level in enumerate(doc["factors"][1]["levels"]):
        level["weight"] = float(1 + i % 3)
    return json.dumps(doc)


PLAIN = space_json()
# A third CUI level with its own exclusion, plus DC-only exclusions.
EXCLUDED = space_json(
    cui_levels=("ht_on", "ht_off", "smt"),
    exclusions=({"w": "w3", "t": "t0"}, {"cpu": "smt", "t": "t1"}, {"w": "w0", "d": "d1", "t": "t1"}),
)

SPLIT = {
    "cpu": {"low": ["ht_on"], "high": ["ht_off"]},
    "w": {"low": ["w0", "w1"], "high": ["w2", "w3"]},
    "t": {"low": ["t0"], "high": ["t1", "t2"]},
    "d": {"low": ["d0"], "high": ["d1"]},
}
SPLIT_3 = {**SPLIT, "cpu": {"low": ["ht_on"], "high": ["ht_off", "smt"]}}
STRATUM_SPLIT = {k: v for k, v in SPLIT_3.items() if k != "w"}
# Every stratum of EXCLUDED keeps a valid draw for every cell of this split.
STRATUM_SPLIT_OK = {**STRATUM_SPLIT, "t": {"low": ["t0", "t1"], "high": ["t2"]}}

PAIRED_STRATIFIED = MethodSpec(kind="paired", n=8, r=2, stratify="w")
PAIRED = MethodSpec(kind="paired", n=7, r=3)
RCT = MethodSpec(kind="rct", n=10, r=2)


def scenario(space_text, noise_sd, aggregate="median", cui_a="ht_off", cui_ref="ht_on"):
    """A fresh space and model each call, so the two paths share no caches."""
    model = SyntheticModel.from_dict({**MODEL, "noise_sd": noise_sd})
    return Scenario(
        space=load_space(space_text),
        model=model,
        cui_a=cui_a,
        cui_ref=cui_ref,
        alpha=0.05,
        iterations=1,
        aggregate=aggregate,
    )


def reference(scenario: Scenario, method: MethodSpec, seed: int):
    """Plan, run on the synthetic backend, and analyze the run log."""
    space, backend = scenario.space, SyntheticBackend(scenario.model)
    if method.kind == "paired":
        if method.stratify:
            dc = stratified_sample(space, method.stratify, method.n, seed)
        else:
            dc = simple_random_sample(space, ("DC",), method.n, seed)
        plan = paired_plan(
            space, scenario.cui_a, scenario.cui_ref, dc, method.r, seed=seed, stratum=method.stratify
        )
    elif method.kind == "rct":
        plan = rct_plan(space, scenario.cui_ref, scenario.cui_a, method.n, method.r, seed)
    else:
        split = dict(method.split) if method.split else _default_split(scenario, method)
        plan = factorial_2kr(space, split, method.r, seed, stratify=method.stratify)
    log = new_log(plan, backend)
    run(plan, backend, log)
    if method.kind == "paired":
        est = paired_effect(log, plan, alpha=scenario.alpha, aggregate=scenario.aggregate)
    elif method.kind == "rct":
        est = ate(log, plan, alpha=scenario.alpha, aggregate=scenario.aggregate)
    else:
        est = _factorial_estimate(scenario, plan, log)
    return est, plan.cost


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type is what must agree
        return type(exc)


def assert_same(make_scenario, method, seed):
    expected = outcome(reference, make_scenario(), method, seed)
    got = outcome(_one_iteration, make_scenario(), method, seed)
    assert got == expected
    assert repr(got) == repr(expected)  # bit for bit, signed zeros included
    return expected


CASES = [
    (PLAIN, PAIRED_STRATIFIED),
    (PLAIN, PAIRED),
    (PLAIN, RCT),
    (PLAIN, MethodSpec(kind="factorial_2kr", r=2, split=SPLIT)),
    (PLAIN, MethodSpec(kind="factorial_2kr", r=3)),
    (PLAIN, MethodSpec(kind="factorial_2kr", r=2, stratify="w")),
    (EXCLUDED, PAIRED_STRATIFIED),
    (EXCLUDED, PAIRED),
    (EXCLUDED, RCT),
    (EXCLUDED, MethodSpec(kind="factorial_2kr", r=2, split=SPLIT_3)),
    (EXCLUDED, MethodSpec(kind="factorial_2kr", r=3, split=STRATUM_SPLIT_OK, stratify="w")),
]


@pytest.mark.parametrize("noise_sd", [0.0, 0.8])
@pytest.mark.parametrize("space_text,method", CASES)
def test_estimate_equals_reference(space_text, method, noise_sd):
    for seed in SEEDS:
        result = assert_same(lambda: scenario(space_text, noise_sd), method, seed)
        assert isinstance(result, tuple), f"reference failed: {result}"


@pytest.mark.parametrize("method", [PAIRED_STRATIFIED, RCT, MethodSpec(kind="factorial_2kr", r=2)])
def test_mean_aggregate_equals_reference(method):
    for seed in SEEDS:
        assert_same(lambda: scenario(PLAIN, 0.5, aggregate="mean"), method, seed)


@pytest.mark.parametrize(
    "space_text,method",
    [
        # infeasible sample sizes
        (PLAIN, MethodSpec(kind="paired", n=9999, r=1)),
        (PLAIN, MethodSpec(kind="rct", n=9998, r=1)),
        (PLAIN, MethodSpec(kind="rct", n=7, r=1)),
        (PLAIN, MethodSpec(kind="paired", n=2, r=1, stratify="w")),
        # a stratum allocation larger than its valid members (w3 keeps 2)
        (
            space_json(exclusions=({"w": "w3", "t": "t0"}, {"w": "w3", "t": "t1"})),
            MethodSpec(kind="paired", n=12, r=1, stratify="w"),
        ),
        # the investigated level is excluded next to every w1 configuration
        (space_json(exclusions=({"cpu": "ht_off", "w": "w1"},)), PAIRED_STRATIFIED),
        (space_json(exclusions=({"cpu": "ht_on", "w": "w1"},)), PAIRED_STRATIFIED),
        (space_json(exclusions=({"cpu": "ht_off", "d": "d0"}, {"cpu": "ht_off", "d": "d1"})), RCT),
        # 2^k r without a replication error term, or with an impossible cell
        (PLAIN, MethodSpec(kind="factorial_2kr", r=1)),
        (PLAIN, MethodSpec(kind="factorial_2kr", r=0)),
        (EXCLUDED, MethodSpec(kind="factorial_2kr", r=2, split=STRATUM_SPLIT, stratify="w")),
        # the default split needs a two-level CUI
        (EXCLUDED, MethodSpec(kind="factorial_2kr", r=2)),
        (PLAIN, MethodSpec(kind="paired", n=4, r=0)),
        (PLAIN, MethodSpec(kind="paired", n=1, r=1)),
        (PLAIN, MethodSpec(kind="rct", n=2, r=1)),
    ],
)
@pytest.mark.parametrize("noise_sd", [0.0, 0.8])
def test_error_type_equals_reference(space_text, method, noise_sd):
    for seed in SEEDS:
        result = assert_same(lambda: scenario(space_text, noise_sd), method, seed)
        assert isinstance(result, type) and issubclass(result, Exception)


@pytest.mark.parametrize(
    "exclusions",
    [
        ({"cpu": "ht_off", "w": "w1"},),
        ({"cpu": "ht_on", "w": "w1"},),
        # both sides excluded, next to different strata: the first pair decides
        ({"cpu": "ht_on", "w": "w1"}, {"cpu": "ht_off", "w": "w2"}),
        ({"cpu": "ht_off", "w": "w0"}, {"cpu": "ht_on", "w": "w3"}),
    ],
)
def test_pairing_error_equals_the_plans(exclusions):
    # The first pair with an excluded completion is named, side a before
    # side b, in the words of ``paired_plan``.
    for seed in SEEDS:
        messages = []
        for fn in (reference, _one_iteration):
            with pytest.raises(PlanError) as caught:
                fn(scenario(space_json(exclusions=exclusions), 0.8), PAIRED_STRATIFIED, seed)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("pairing error on side ")


@pytest.mark.parametrize(
    "exclusion,group",
    [
        ({"cpu": "ht_on", "w": "w1"}, "control"),  # the control arm runs cui_ref
        ({"cpu": "ht_off", "w": "w1"}, "treatment"),  # the treatment arm runs cui_a
    ],
)
def test_rct_exclusion_error_equals_the_plans(exclusion, group):
    # An arm row whose CUI level is excluded is named in the words of
    # ``rct_plan``, by both paths and at every seed where the plan fails.
    failed = 0
    for seed in SEEDS:
        outcomes = []
        for fn in (reference, _one_iteration):
            try:
                fn(scenario(space_json(exclusions=(exclusion,)), 0.8), RCT, seed)
                outcomes.append(None)
            except PlanError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            failed += 1
            label = exclusion["cpu"]
            assert re.fullmatch(rf"{group} completion with cpu='{label}' is excluded for dc \w+", outcomes[0])
    assert failed


def test_bad_aggregate_rejected_at_construction():
    # Neither path can run: the scenario itself refuses the aggregate.
    with pytest.raises(ScenarioError, match="aggregate"):
        scenario(PLAIN, 0.3, aggregate="mode")


def test_table_is_built_once_and_filled_through_the_model():
    sc = scenario(EXCLUDED, 0.8)
    calls = []
    evaluate = sc.model._evaluate
    sc.model._evaluate = lambda a: calls.append(tuple(sorted(a.items()))) or evaluate(a)  # type: ignore[method-assign]
    table = sc.table
    # one evaluation per valid completion of each level under study
    assert len(calls) == sum(c is not None for lv in ("ht_off", "ht_on") for c in table.column(lv))
    for seed in SEEDS:
        _one_iteration(sc, PAIRED_STRATIFIED, seed)
        _one_iteration(sc, RCT, seed)
    assert sc.table is table
    assert len(calls) == len(set(calls))
