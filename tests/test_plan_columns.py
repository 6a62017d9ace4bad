"""Plans are read by column: ``_util.read_rows`` finds the same first bad row
as ``read`` would, and ``plan_from_dict`` raises exactly what a per-trial
loop raises, kept here as the oracle, whatever edits a plan file takes."""

from __future__ import annotations

import copy
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effattr import PlanError, full_factorial, load_space, paired_plan, rct_plan, simple_random_sample
from effattr._util import Kind, read, read_rows
from effattr.design import DesignPlan, Trial, factorial_2kr, plan_from_dict, plan_to_json
from effattr.space import Configuration
from conftest import space_doc

# -- read_rows against read ----------------------------------------------------

TABLE = {
    "i": Kind("integer"),
    "t": Kind("text|null", None),
    "n": Kind("number"),
    "d": Kind("number", 0.5),
    "x": Kind("number|null", None, finite=False),
    "o": Kind("object", {}),
}
VALUES = st.sampled_from([0, 1, -7, 10**400, 0.5, math.inf, -math.inf, math.nan, True, None, "x", "", [], {}])
ROWS = st.lists(
    st.one_of(
        st.dictionaries(st.sampled_from(sorted(TABLE) + ["other"]), VALUES, max_size=7),
        st.fixed_dictionaries({k: VALUES.filter(lambda v, kind=kind: type(v) in kind.types) for k, kind in TABLE.items()}),
        VALUES,
    ),
    max_size=8,
)


@settings(max_examples=400, deadline=None)
@given(ROWS)
def test_read_rows_stops_at_the_first_row_that_read_rejects(rows):
    columns, bad = read_rows(rows, TABLE)
    assert len(columns) == len(TABLE)
    assert all(len(column) == bad for column in columns)
    for i, row in enumerate(rows):
        try:
            values = read(row, TABLE, ValueError)
        except ValueError:
            assert bad == i
            break
        assert [column[i] for column in columns] == values
    else:
        assert bad == len(rows)


# -- plan_from_dict against a per-trial loop -----------------------------------

FIELDS = ("assignment", "replicate", "group", "pair_id", "arm", "seed")
_T = {
    "assignment": Kind("object"), "replicate": Kind("integer"), "group": Kind("text"),
    "pair_id": Kind("text|null", None), "arm": Kind("text|null", None), "seed": Kind("integer"),
}
_P = {
    "method": Kind("text"), "trials": Kind("array"), "r": Kind("integer"), "master_seed": Kind("integer"),
    "space_digest": Kind("text"), "metadata": Kind("object", {}),
}
# The group, pair id and arm each method writes, and how a message names them.
RULES = {
    "full_factorial": ((("single",), "'single'"), ((None,), "null"), ((None,), "null")),
    "factorial_2kr": ((("single",), "'single'"), ((None,), "null"), ((None,), "null")),
    "rct": ((("control", "treatment"), "'control' or 'treatment'"), ((None,), "null"), ((None,), "null")),
    "paired": ((("pair",), "'pair'"), (str, "text"), (("a", "ref"), "'a' or 'ref'")),
}


def malformed(message):
    return PlanError(f"malformed plan document: {message}")


def oracle(doc):
    """``plan_from_dict`` as one loop over the trials: each trial's fields are
    read, then its group, pair id and arm checked against the method, its
    replicate range, its labels once per distinct assignment and its unit."""
    method, raw_trials, r, master_seed, space_digest, metadata = read(doc, _P, malformed)
    if r < 1:
        raise malformed(f"r: must be >= 1, got {r}")
    if method not in RULES:
        raise malformed(f"method: must be one of 'full_factorial', 'factorial_2kr', 'rct', 'paired', got {method!r}")
    configs, trial_at, trials = {}, {}, []
    for i, t in enumerate(raw_trials):
        assignment, replicate, group, pair_id, arm, seed = read(t, _T, malformed, ("trials", i))
        for name, value, (allowed, what) in zip(("group", "pair_id", "arm"), (group, pair_id, arm), RULES[method]):
            if value is None if allowed is str else value not in allowed:
                raise malformed(f"trials[{i}].{name}: must be {what} for method {method!r}, got {value!r}")
        if not 0 <= replicate < r:
            raise malformed(f"trials[{i}].replicate: must be in 0..{r - 1}, got {replicate}")
        key = tuple(assignment.items())
        try:
            config = configs.get(key)
        except TypeError:
            config = None
        if config is None:
            read({"assignment": assignment}, {"assignment": Kind("object", each=Kind("text"))}, malformed, ("trials", i))
            config = configs[key] = Configuration(assignment)
        at = trial_at.setdefault(((config.id, group, pair_id, arm), replicate), i)
        if at != i:
            raise malformed(f"trials[{i}]: repeats trials[{at}], replicate {replicate} of the same unit")
        trials.append(Trial(config, replicate, group, pair_id, arm, seed))
    sizes = Counter(unit for unit, _ in trial_at)
    if len(trial_at) != r * len(sizes):
        short, first = next((unit, i) for (unit, _), i in trial_at.items() if sizes[unit] < r)
        raise malformed(f"trials[{first}]: its unit has {sizes[short]} of the replicates 0..{r - 1}")
    return DesignPlan(method, tuple(trials), r, master_seed, space_digest, dict(metadata))


SPACE = load_space(space_doc(dc_counts=(3, 2), exclusions=({"w": "w0", "t": "t1"},)))
PLANS = [
    json.loads(plan_to_json(plan))
    for plan in (
        full_factorial(SPACE, 2, seed=7),
        factorial_2kr(SPACE, {"cpu": {"low": ["ht_on"], "high": ["ht_off"]}, "w": {"low": ["w0", "w1"], "high": ["w2"]},
                              "t": {"low": ["t0"], "high": ["t1"]}}, 2, seed=7),
        rct_plan(SPACE, "ht_on", "ht_off", n=4, r=2, seed=7),
        paired_plan(SPACE, "ht_off", "ht_on", simple_random_sample(SPACE, ("DC",), 3, seed=7), 2, seed=7),
    )
]
EDIT_KINDS = ("mistyped field", "missing field", "non-object row", "bad replicate", "repeated unit", "non-text label")
EDIT_VALUES = [5, 0.5, True, None, "x", "pair", "a", [], {}, ["w0"]]
EDITS = st.lists(
    st.tuples(st.sampled_from(EDIT_KINDS), st.integers(0, 99), st.integers(0, 99), st.sampled_from(EDIT_VALUES)),
    max_size=3,
)


def edited(doc, edits):
    doc = copy.deepcopy(doc)
    trials = doc["trials"]
    for kind, at, which, value in edits:
        if not trials:
            break
        i = at % len(trials)
        t = trials[i]
        if kind == "repeated unit":
            trials.insert(which % (len(trials) + 1), copy.deepcopy(t))
        elif kind == "non-object row":
            trials[i] = value if type(value) is not dict else [value]
        elif type(t) is not dict:
            continue
        elif kind == "mistyped field":
            t[FIELDS[which % len(FIELDS)]] = value
        elif kind == "missing field":
            t.pop(FIELDS[which % len(FIELDS)], None)
        elif kind == "bad replicate":
            t["replicate"] = (doc["r"], -1, 10**30)[which % 3]
        elif type(t.get("assignment")) is dict and t["assignment"]:
            names = sorted(t["assignment"])
            t["assignment"][names[which % len(names)]] = value if type(value) is not str else [value]
    return doc


def outcome(load, doc):
    try:
        return "loads", load(doc).to_dict()
    except PlanError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(PLANS))), EDITS)
def test_plan_from_dict_raises_what_the_per_trial_loop_raises(plan, edits):
    doc = edited(PLANS[plan], edits)
    assert outcome(plan_from_dict, doc) == outcome(oracle, doc)


def test_every_unedited_plan_loads():
    for doc in PLANS:
        assert outcome(plan_from_dict, doc) == outcome(oracle, doc) == ("loads", doc)


def test_an_earlier_trial_error_wins_over_a_later_mistyped_field():
    doc = copy.deepcopy(PLANS[0])
    doc["trials"][3]["replicate"] = 2
    doc["trials"][9]["group"] = 5
    assert outcome(plan_from_dict, doc) == ("error", "malformed plan document: trials[3].replicate: must be in 0..1, got 2")


@pytest.mark.parametrize(
    "plan, field, value, message",
    [
        (3, "arm", "b", "trials[1].arm: must be 'a' or 'ref' for method 'paired', got 'b'"),
        (3, "arm", None, "trials[1].arm: must be 'a' or 'ref' for method 'paired', got None"),
        (3, "pair_id", None, "trials[1].pair_id: must be text for method 'paired', got None"),
        (3, "group", "single", "trials[1].group: must be 'pair' for method 'paired', got 'single'"),
        (2, "group", "pair", "trials[1].group: must be 'control' or 'treatment' for method 'rct', got 'pair'"),
        (2, "arm", "a", "trials[1].arm: must be null for method 'rct', got 'a'"),
        (2, "pair_id", "p", "trials[1].pair_id: must be null for method 'rct', got 'p'"),
        (0, "group", "control", "trials[1].group: must be 'single' for method 'full_factorial', got 'control'"),
        (1, "arm", "ref", "trials[1].arm: must be null for method 'factorial_2kr', got 'ref'"),
    ],
)
def test_a_value_the_method_never_writes_is_named(plan, field, value, message):
    doc = copy.deepcopy(PLANS[plan])
    doc["trials"][1][field] = value
    assert outcome(plan_from_dict, doc) == outcome(oracle, doc) == ("error", f"malformed plan document: {message}")


def test_an_unknown_method_is_named():
    doc = dict(PLANS[0], method="fractional")
    message = "method: must be one of 'full_factorial', 'factorial_2kr', 'rct', 'paired', got 'fractional'"
    assert outcome(plan_from_dict, doc) == ("error", f"malformed plan document: {message}")
