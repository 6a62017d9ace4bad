"""Synthetic model responses: exact, cached, independent of key order."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, strategies as st

from effattr import Configuration, ModelError, SyntheticModel, load_model, load_space
from effattr.meta import Scenario
from effattr.space import ROLE_DC


def test_key_order_does_not_change_the_bits():
    mains = {("a", "x"): 0.1, ("b", "y"): 0.2, ("c", "z"): 0.3}
    forward = SyntheticModel(main_effects=mains).response(Configuration({"a": "x", "b": "y", "c": "z"}))
    backward = SyntheticModel(main_effects=mains).response(Configuration({"c": "z", "b": "y", "a": "x"}))
    assert forward.hex() == backward.hex()


@given(
    st.lists(
        st.tuples(st.sampled_from("xyz"), st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=1,
        max_size=7,
    ),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.randoms(use_true_random=False),
)
def test_permuted_assignments_give_bit_equal_responses(levels, baseline, rng):
    names = [f"f{i}" for i in range(len(levels))]
    mains = {(name, label): effect for name, (label, effect) in zip(names, levels)}
    interactions = (((("f0", levels[0][0]),), 0.7),)
    assignment = {name: label for name, (label, _) in zip(names, levels)}
    permuted = list(assignment.items())
    rng.shuffle(permuted)
    # Fresh models, so neither answer comes from the other's cache.
    a = SyntheticModel(baseline, mains, interactions).response(Configuration(assignment))
    b = SyntheticModel(baseline, mains, interactions).response(Configuration(dict(permuted)))
    assert a.hex() == b.hex()


LABELS = st.sampled_from(("x", "y", "z"))
# Terms may name one factor twice, and name "d", which no assignment holds.
TERMS = st.lists(st.tuples(st.sampled_from("abcd"), LABELS), min_size=1, max_size=4).map(tuple)


@given(
    st.dictionaries(st.sampled_from("abc"), LABELS),
    st.lists(st.tuples(TERMS, st.sampled_from((1.0, 0.5, -2.0))), max_size=4).map(tuple),
)
def test_interaction_terms_match_as_in_the_per_term_form(assignment, interactions):
    # The per-term form the model once used is the oracle for matching an
    # interaction's terms as a subset of the assignment's items.
    want = 0.0
    for terms, effect in interactions:
        if all(assignment.get(f) == lab for f, lab in terms):
            want += effect
    got = SyntheticModel(interactions=interactions)._evaluate(assignment)
    assert got.hex() == want.hex()


def test_completions_match_responses():
    space = load_space(
        {
            "factors": [
                {"name": "cpu", "role": "CUI", "levels": [{"label": "on"}, {"label": "off"}]},
                {"name": "w", "role": "DC", "levels": [{"label": "w0"}, {"label": "w1"}]},
            ],
            "exclusions": [{"cpu": "off", "w": "w1"}],
        }
    )
    effects = {("cpu", "off"): 0.5, ("w", "w1"): 2.0}
    pool = space.pool((ROLE_DC,))
    dcs = [pool.config(i) for i in range(len(pool.rows))]
    # The meta table's columns are the model's responses to the completions.
    table = Scenario(space, SyntheticModel(1.0, effects, noise_sd=0.5), "on", "off").table
    column = table.column("off")
    on = table.column("on")
    assert column[1] is None
    assert column[0] == (dcs[0].extended({"cpu": "off"}).id, 1.5)
    assert on == tuple((c.extended({"cpu": "on"}).id, 1.0 + 2.0 * i) for i, c in enumerate(dcs))
    # Without noise no trial seed reads the ids, so none is hashed.
    assert Scenario(space, SyntheticModel(1.0, effects), "on", "off").table.column("on") == ((None, 1.0), (None, 3.0))


MODEL = {
    "baseline": 10,
    "noise_sd": 0.5,
    "main_effects": [{"factor": "cpu", "level": "off", "effect": 2}],
    "interactions": [{"terms": {"cpu": "off", "w": "w1"}, "effect": -1.5}],
}


@pytest.mark.parametrize(
    "change,key",
    [
        ({"baseline": math.nan}, "baseline"),
        ({"baseline": math.inf}, "baseline"),
        ({"baseline": True}, "baseline"),
        ({"baseline": "10"}, "baseline"),
        ({"noise_sd": "0.5"}, "noise_sd"),
        ({"noise_sd": None}, "noise_sd"),
        ({"noise_sd": -math.inf}, "noise_sd"),
        ({"unit": 5}, "unit: must be text, got 5"),
        ({"unit": None}, "unit: must be text, got None"),
        ({"main_effects": 3}, "main_effects"),
        ({"main_effects": {"factor": "cpu"}}, "main_effects"),
        ({"interactions": "none"}, "interactions"),
        ({"main_effects": [{"factor": "cpu", "level": "off", "effect": False}]}, "main_effects[0].effect"),
        ({"main_effects": [{"factor": "cpu", "level": "off", "effect": "2"}]}, "main_effects[0].effect"),
        ({"main_effects": [{"factor": "cpu", "level": "off", "effect": math.nan}]}, "main_effects[0].effect"),
        ({"main_effects": [{"factor": 1, "level": "off", "effect": 2}]}, "main_effects[0].factor: must be text, got 1"),
        ({"main_effects": [{"factor": "cpu", "level": None, "effect": 2}]}, "main_effects[0].level: must be text, got None"),
        ({"interactions": [{"terms": {"cpu": 1}, "effect": 1.0}]}, "interactions[0].terms"),
        ({"interactions": [{"terms": {"cpu": "off"}, "effect": math.inf}]}, "interactions[0].effect"),
        ({"interactions": [{"terms": {"cpu": "off"}, "effect": None}]}, "interactions[0].effect"),
    ],
)
def test_wrong_types_and_non_finite_numbers_rejected(change, key):
    with pytest.raises(ModelError, match=f"^{re.escape(key)}"):
        load_model({**MODEL, **change})


def test_integers_load_as_floats():
    model = load_model(MODEL)
    assert model.baseline == 10.0 and type(model.baseline) is float
    assert model.main_effects == {("cpu", "off"): 2.0}
    assert model.interactions == (((("cpu", "off"), ("w", "w1")), -1.5),)
