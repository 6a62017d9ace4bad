"""Space model: loading, counting, enumeration, pairing."""

from __future__ import annotations

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effattr import (
    Configuration,
    PlanError,
    Scenario,
    ScenarioError,
    SpaceError,
    SyntheticModel,
    load_space,
    rct_plan,
    select_best_cui,
)
from effattr.design import rct_arms
from effattr.stats import sample_mean
from effattr._util import assignment_id
from effattr.space import Level
from conftest import colliding_doc, space_doc


class TestLoadSpace:
    def test_paper_scale_dc_cardinality(self, paper_scale_space):
        assert paper_scale_space.cartesian_size(roles=("DC",)) == 18_000

    def test_degenerate_single_factor_single_level(self):
        doc = {"factors": [{"name": "cpu", "role": "CUI", "levels": [{"label": "a", "value": "a"}]}]}
        space = load_space(json.dumps(doc))
        assert space.cartesian_size() == 1

    def test_exclusions_covering_everything_rejected(self):
        doc = space_doc(cui_levels=("on", "off"), dc_counts=(2,))
        doc["exclusions"] = [{"w": "w0"}, {"w": "w1"}]
        with pytest.raises(SpaceError, match="empty space"):
            load_space(json.dumps(doc))

    def test_duplicate_factor_names_rejected(self):
        doc = space_doc()
        doc["factors"].append(dict(doc["factors"][1]))
        with pytest.raises(SpaceError, match="duplicate factor names"):
            load_space(json.dumps(doc))

    def test_duplicate_level_labels_rejected(self):
        doc = space_doc()
        doc["factors"][1]["levels"].append({"label": "w0", "value": "again"})
        with pytest.raises(SpaceError, match=r"factors\[1\].*duplicate level label"):
            load_space(json.dumps(doc))

    def test_zero_weight_factor_rejected(self):
        doc = space_doc()
        for lv in doc["factors"][1]["levels"]:
            lv["weight"] = 0.0
        with pytest.raises(SpaceError, match="weight > 0"):
            load_space(json.dumps(doc))

    def test_missing_cui_rejected(self):
        doc = space_doc()
        doc["factors"][0]["role"] = "DC"
        with pytest.raises(SpaceError, match="exactly one factor must have role CUI"):
            load_space(json.dumps(doc))

    def test_exclusion_referencing_unknown_names_rejected(self):
        doc = space_doc(exclusions=({"nope": "w0"},))
        with pytest.raises(SpaceError, match=r"exclusions\[0\].*unknown factor"):
            load_space(json.dumps(doc))
        doc = space_doc(exclusions=({"w": "nope"},))
        with pytest.raises(SpaceError, match=r"exclusions\[0\].w.*unknown level"):
            load_space(json.dumps(doc))

    def test_weights_normalized_at_load(self):
        doc = space_doc(dc_counts=(2,))
        doc["factors"][1]["levels"][0]["weight"] = 3.0
        doc["factors"][1]["levels"][1]["weight"] = 1.0
        space = load_space(json.dumps(doc))
        assert space.factor("w").normalized_weights() == {"w0": 0.75, "w1": 0.25}

    def test_bad_json_rejected(self):
        with pytest.raises(SpaceError, match="not valid JSON"):
            load_space("{nope")

    @pytest.mark.parametrize(
        "weight",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e400", "int-10^400"],
    )
    def test_non_finite_weight_rejected(self, weight):
        doc = space_doc(dc_counts=(2,))
        text = json.dumps(doc).replace('"label": "w0"', f'"label": "w0", "weight": {weight}')
        with pytest.raises(SpaceError, match=r"factors\[1\]\.levels\[0\]\.weight: must be finite"):
            load_space(text)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            # "no" once made the factor a stratum through bool().
            (("factors", 1, "stratum"), "no", "factors[1].stratum: must be true or false, got 'no'"),
            (("factors", 1, "stratum"), 0, "factors[1].stratum: must be true or false, got 0"),
            (("factors", 1, "levels", 0, "weight"), True, "factors[1].levels[0].weight: must be a number, got True"),
            (("factors", 1, "levels", 0, "value"), None, "factors[1].levels[0].value: must be text, got None"),
            (("factors", 1, "name"), 5, "factors[1].name: must be text, got 5"),
            (("factors", 1, "levels"), {}, "factors[1].levels: must be an array, got {}"),
            (("factors", 0), "cpu", "factors[0]: must be an object, got 'cpu'"),
            (("exclusions",), [{"w": 1}], "exclusions[0].w: must be text, got 1"),
        ],
    )
    def test_wrongly_typed_field_names_its_path(self, path, value, message):
        doc = space_doc()
        *outer, key = path
        target = doc
        for part in outer:
            target = target[part]
        target[key] = value
        with pytest.raises(SpaceError) as caught:
            load_space(json.dumps(doc))
        assert str(caught.value) == message

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_level_weight_rejected(self, weight):
        with pytest.raises(SpaceError, match="weight must be finite"):
            Level(label="x", value="x", weight=weight)

    def test_label_and_name_that_make_ids_collide_rejected(self):
        # "a=p\nb=q\nb=r" is the id text of both (a=p, b="q\nb=r") and
        # (a="p\nb=q", b=r): four trials of a full factorial had three ids.
        assert assignment_id({"a": "p", "b": "q\nb=r"}) == assignment_id({"a": "p\nb=q", "b": "r"})
        doc = colliding_doc()
        with pytest.raises(SpaceError, match=r"factors\[1\]\.levels\[1\]: .*must not contain a newline"):
            load_space(json.dumps(doc))
        doc["factors"][1]["levels"][1]["label"] = "p b=q"
        doc["factors"][2]["levels"][0]["label"] = "q b=r"
        load_space(json.dumps(doc))  # '=' in a label stays valid

    @pytest.mark.parametrize("name", ["a=b", "a\nb", "="])
    def test_factor_name_with_equals_or_newline_rejected(self, name):
        doc = space_doc()
        doc["factors"][1]["name"] = name
        with pytest.raises(SpaceError, match=r"factors\[1\]: .*must not contain '=' or a newline"):
            load_space(json.dumps(doc))


class TestCartesianSize:
    def test_product_rule(self):
        space = load_space(json.dumps(space_doc(dc_counts=(2, 3))))
        assert space.cartesian_size(roles=("DC",)) == 6

    def test_excluded_thread_levels(self):
        # 64-level thread factor with 4 single-level exclusions: effective 60.
        doc = space_doc(dc_counts=(10, 64, 1, 3, 10))
        doc["exclusions"] = [{"t": f"t{i}"} for i in (50, 52, 58, 60)]
        space = load_space(json.dumps(doc))
        assert space.cartesian_size(roles=("DC",)) == 10 * 60 * 1 * 3 * 10

    def test_roles_product_invariant_without_cross_role_exclusions(self):
        doc = space_doc(dc_counts=(3, 4), exclusions=({"w": "w0", "t": "t1"},))
        space = load_space(json.dumps(doc))
        assert space.cartesian_size() == space.cartesian_size(roles=("CUI",)) * space.cartesian_size(
            roles=("DC",)
        )

    def test_cross_role_exclusion_breaks_product(self):
        doc = space_doc(dc_counts=(3,), exclusions=({"cpu": "ht_off", "w": "w0"},))
        space = load_space(json.dumps(doc))
        assert space.cartesian_size() == 2 * 3 - 1

    def test_empty_roles_rejected(self, small_space):
        with pytest.raises(SpaceError, match="roles must be nonempty"):
            small_space.cartesian_size(roles=())


class TestEnumerate:
    def test_lexicographic_order(self):
        space = load_space(json.dumps(space_doc(dc_counts=(2, 3))))
        configs = list(space.enumerate_configs(roles=("DC",)))
        assert [c.assignment for c in configs] == [
            {"w": w, "t": t} for w in ("w0", "w1") for t in ("t0", "t1", "t2")
        ]

    def test_exclusion_removes_cell(self):
        doc = space_doc(dc_counts=(2, 2), exclusions=({"w": "w0", "t": "t0"},))
        space = load_space(json.dumps(doc))
        assert len(list(space.enumerate_configs(roles=("DC",)))) == 3

    def test_paper_scale_stream_length(self, paper_scale_space):
        stream = paper_scale_space.enumerate_configs(roles=("DC",))
        assert sum(1 for _ in stream) == 18_000

    def test_budget_guard(self, paper_scale_space):
        with pytest.raises(SpaceError, match="budget exceeded"):
            list(paper_scale_space.enumerate_configs(roles=("DC",), budget=100))

    def test_roles_may_be_a_generator(self, small_space):
        expected = [c.id for c in small_space.enumerate_configs(("DC",))]
        assert [c.id for c in small_space.enumerate_configs(r for r in ["DC"])] == expected

    def test_pool_roles_may_be_a_generator(self, small_space):
        assert small_space.pool(r for r in ["DC"]) is small_space.pool(("DC",))


@st.composite
def random_spaces(draw):
    n_dc = draw(st.integers(min_value=1, max_value=3))
    counts = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(n_dc))
    doc = space_doc(dc_counts=counts)
    names = ["cpu"] + ["w", "t", "d"][:n_dc]
    sizes = {"cpu": 2, **{n: c for n, c in zip(["w", "t", "d"], counts)}}
    n_excl = draw(st.integers(min_value=0, max_value=3))
    exclusions = []
    for _ in range(n_excl):
        chosen = draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True)
        )
        excl = {}
        for fname in chosen:
            idx = draw(st.integers(min_value=0, max_value=sizes[fname] - 1))
            excl[fname] = "ht_on" if (fname == "cpu" and idx == 0) else (
                "ht_off" if fname == "cpu" else f"{fname}{idx}"
            )
        exclusions.append(excl)
    doc["exclusions"] = exclusions
    return doc


@settings(max_examples=80, deadline=None)
@given(random_spaces())
def test_enumerate_matches_brute_force(doc):
    try:
        space = load_space(json.dumps(doc))
    except SpaceError:
        return  # exclusions may void the space; rejection is the contract
    labels = {f["name"]: [lv["label"] for lv in f["levels"]] for f in doc["factors"]}
    names = list(labels)
    brute = [
        dict(zip(names, combo))
        for combo in itertools.product(*(labels[n] for n in names))
        if not any(all(dict(zip(names, combo)).get(f) == v for f, v in e.items()) for e in doc["exclusions"])
    ]
    configs = list(space.enumerate_configs())
    assert len(configs) == space.cartesian_size() == len(brute)
    ids = [c.id for c in configs]
    assert len(set(ids)) == len(ids)
    assert all(space.is_valid(c.assignment) for c in configs)


def test_exclusion_counting_stress_vs_brute_force():
    # many overlapping partial exclusions exercise the inclusion-exclusion
    rng = random.Random(31)
    checked = 0
    while checked < 120:
        counts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        doc = space_doc(dc_counts=counts)
        names = [f["name"] for f in doc["factors"]]
        labels = {f["name"]: [lv["label"] for lv in f["levels"]] for f in doc["factors"]}
        exclusions = []
        for _ in range(rng.randint(0, 8)):
            chosen = rng.sample(names, rng.randint(1, len(names)))
            exclusions.append({f: rng.choice(labels[f]) for f in chosen})
        doc["exclusions"] = exclusions
        try:
            space = load_space(json.dumps(doc))
        except SpaceError:
            continue
        brute = sum(
            1
            for combo in itertools.product(*(labels[n] for n in names))
            if not any(
                all(dict(zip(names, combo)).get(f) == v for f, v in e.items())
                for e in exclusions
            )
        )
        assert space.cartesian_size() == brute
        checked += 1


class TestPairWith:
    def test_pair_differs_only_in_cui(self, small_space):
        dc = Configuration({"w": "w1", "t": "t2"})
        a, b = small_space.pair_with(dc, "ht_off", "ht_on")
        assert a.assignment["cpu"] == "ht_off" and b.assignment["cpu"] == "ht_on"
        diff = {k for k in a.assignment if a.assignment[k] != b.assignment[k]}
        assert diff == {"cpu"}

    def test_self_pair(self, small_space):
        dc = Configuration({"w": "w0", "t": "t0"})
        a, b = small_space.pair_with(dc, "ht_on", "ht_on")
        assert a.id == b.id

    def test_exclusion_hitting_one_arm(self):
        doc = space_doc(dc_counts=(2,), exclusions=({"cpu": "ht_off", "w": "w0"},))
        space = load_space(json.dumps(doc))
        dc = Configuration({"w": "w0"})
        with pytest.raises(SpaceError, match="side a.*excluded"):
            space.pair_with(dc, "ht_off", "ht_on")

    def test_incomplete_dc_rejected(self, small_space):
        with pytest.raises(SpaceError, match="missing factors"):
            small_space.pair_with(Configuration({"w": "w0"}), "ht_on", "ht_off")

    @staticmethod
    def reference_pair_with(space, dc_config, cui_level_a, cui_level_b):
        """``pair_with`` by its definition: each side's whole assignment
        checked against every exclusion."""
        cui = space.cui_factor
        for lab in (cui_level_a, cui_level_b):
            cui.level(lab)
        dc_names = {f.name for f in space.factors if f.role == "DC"}
        missing = dc_names - set(dc_config.assignment)
        if missing:
            raise SpaceError(f"dc configuration missing factors: {sorted(missing)}")
        sides = []
        for level, side in ((cui_level_a, "a"), (cui_level_b, "b")):
            assignment = {**dc_config.assignment, cui.name: level}
            if not space.is_valid(assignment):
                raise SpaceError(f"pairing error on side {side}: completion with {cui.name}={level!r} is excluded")
            sides.append(Configuration(assignment))
        return tuple(sides)

    LABELS = {"cpu": ["c0", "c1", "c2"], "w": ["w0", "w1"], "t": ["t0", "t1", "t2"]}

    DRAWS = {
        "exclusions": st.lists(
            st.fixed_dictionaries({}, optional={name: st.sampled_from(labels) for name, labels in LABELS.items()}),
            max_size=5,
        ),
        "dc": st.fixed_dictionaries(
            {"w": st.sampled_from(LABELS["w"]), "t": st.sampled_from(LABELS["t"] + ["x"])},
            optional={"cpu": st.sampled_from(LABELS["cpu"]), "extra": st.just("e")},
        ),
        "levels": st.tuples(st.sampled_from(LABELS["cpu"] + ["nosuch"]), st.sampled_from(LABELS["cpu"])),
    }

    @settings(max_examples=300, deadline=None)
    @given(**DRAWS)
    def test_pairs_and_errors_match_the_reference(self, exclusions, dc, levels):
        doc = space_doc(cui_levels=self.LABELS["cpu"], dc_counts=(2, 3), exclusions=[e for e in exclusions if e])
        try:
            space = load_space(doc)
        except SpaceError:
            return  # the exclusions void the space
        dc_config = Configuration(dc)

        def outcome(pair_with):
            try:
                return [(list(c.assignment.items()), c.id) for c in pair_with(dc_config, *levels)]
            except SpaceError as exc:
                return str(exc)

        expected = outcome(lambda *args: self.reference_pair_with(space, *args))
        assert outcome(space.pair_with) == expected

    @settings(max_examples=200, deadline=None)
    @given(**DRAWS, seed=st.integers(0, 2**32))
    def test_every_completion_site_matches_is_valid(self, exclusions, dc, levels, seed):
        """``completion``, and the rct, meta-table and best-CUI sites that go
        through it, against their definition: the whole completed assignment
        checked by ``is_valid``, results and messages alike."""
        doc = space_doc(cui_levels=self.LABELS["cpu"], dc_counts=(2, 3), exclusions=[e for e in exclusions if e])
        try:
            space = load_space(doc)
        except SpaceError:
            return  # the exclusions void the space
        cui, pool = space.cui_factor.name, space.pool(("DC",))

        def completed(dc_assignment, level):
            assignment = {**dc_assignment, cui: level}
            return assignment if space.is_valid(assignment) else None

        def items(assignment):  # key order included
            return None if assignment is None else list(assignment.items())

        def outcome(build, error):
            try:
                return build()
            except error as exc:
                return str(exc)

        for level in (*self.LABELS["cpu"], "nosuch"):
            assert items(space.completion(dc, level)) == items(completed(dc, level))

        rows = [dict(zip(pool.names, row)) for row in pool.rows]
        table = Scenario(space, SyntheticModel(), self.LABELS["cpu"][0], self.LABELS["cpu"][1]).table
        for level in self.LABELS["cpu"]:
            nones = [entry is None for entry in table.column(level)]
            assert nones == [completed(row, level) is None for row in rows]

        n = len(rows) // 2 * 2
        if n and "nosuch" not in levels:
            def reference_rct():
                configs = []
                for group, level, arm in rct_arms(space, *levels, n, seed):
                    for i in arm:
                        assignment = completed(rows[i], level)
                        if assignment is None:
                            raise PlanError(
                                f"{group} completion with {cui}={level!r} is excluded for dc {pool.config(i).id}"
                            )
                        configs.append(list(assignment.items()))
                return configs

            plan = outcome(lambda: rct_plan(space, *levels, n, 1, seed), PlanError)
            actual = plan if isinstance(plan, str) else [list(t.config.assignment.items()) for t in plan.trials]
            assert actual == outcome(reference_rct, PlanError)

        model = SyntheticModel(main_effects={(cui, self.LABELS["cpu"][1]): 1.0, ("w", "w1"): 2.0})
        sample = [Configuration(dc), *(pool.config(i) for i in range(len(rows)))]

        def reference_best():
            means = {}
            for level in self.LABELS["cpu"]:
                values = []
                for c in sample:
                    assignment = completed(c.assignment, level)
                    if assignment is None:
                        raise ScenarioError(f"completion {cui}={level!r} is excluded for dc {c.id}")
                    values.append(model.response(Configuration(assignment)))
                means[level] = sample_mean(values)
            return means

        actual = outcome(lambda: select_best_cui(space, sample, model=model).means, ScenarioError)
        assert actual == outcome(reference_best, ScenarioError)


def test_configuration_id_order_invariant():
    a = Configuration({"w": "w0", "t": "t1", "cpu": "on"})
    b = Configuration({"cpu": "on", "t": "t1", "w": "w0"})
    assert a.id == b.id
    assert a.id != Configuration({"w": "w1", "t": "t1", "cpu": "on"}).id


def test_configuration_id_is_not_an_init_parameter():
    with pytest.raises(TypeError):
        Configuration({"a": "x"}, id="bogus")


def brute_force(doc, roles):
    """Valid assignments over ``roles`` by filtering the full product."""
    factors = [f for f in doc["factors"] if f["role"] in roles]
    names = [f["name"] for f in factors]
    relevant = [e for e in doc["exclusions"] if set(e) <= set(names)]
    out = []
    for combo in itertools.product(*([lv["label"] for lv in f["levels"]] for f in factors)):
        assignment = dict(zip(names, combo))
        if not any(all(assignment[f] == v for f, v in e.items()) for e in relevant):
            out.append(assignment)
    return out


@st.composite
def exclusion_heavy_spaces(draw):
    counts = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=5))
    doc = space_doc(dc_counts=counts)
    doc["factors"] = draw(st.permutations(doc["factors"]))
    labels = {f["name"]: [lv["label"] for lv in f["levels"]] for f in doc["factors"]}
    # Drawing the first level half of the time makes exclusions that share
    # labels, so many subsets of them are compatible.
    label = lambda name: st.one_of(st.just(labels[name][0]), st.sampled_from(labels[name]))
    exclusion = st.lists(
        st.sampled_from(sorted(labels)), min_size=1, max_size=min(3, len(labels)), unique=True
    ).flatmap(lambda chosen: st.fixed_dictionaries({name: label(name) for name in chosen}))
    doc["exclusions"] = draw(st.lists(exclusion, max_size=20))
    return doc


@st.composite
def dead_end_spaces(draw):
    """Spaces whose exclusions all end at the last factor: each drawn prefix
    is excluded with every level of it, so it is valid up to the last factor
    and then leads nowhere."""
    doc = space_doc(dc_counts=draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)))
    *head, last = doc["factors"] = draw(st.permutations(doc["factors"]))
    labels = {f["name"]: [lv["label"] for lv in f["levels"]] for f in head}
    prefix = st.lists(st.sampled_from(sorted(labels)), min_size=1, unique=True).flatmap(
        lambda chosen: st.fixed_dictionaries({name: st.sampled_from(labels[name]) for name in chosen})
    )
    doc["exclusions"] = [
        {**p, last["name"]: lv["label"]} for p in draw(st.lists(prefix, min_size=1, max_size=4)) for lv in last["levels"]
    ]
    return doc


@settings(max_examples=150, deadline=None)
@given(st.one_of(exclusion_heavy_spaces(), dead_end_spaces()))
def test_walk_matches_brute_force_for_every_role_set(doc):
    try:
        space = load_space(json.dumps(doc))
    except SpaceError:
        assert not brute_force(doc, ("CUI", "DC"))
        return
    for roles in (("CUI", "DC"), ("CUI",), ("DC",)):
        expected = [Configuration(a).id for a in brute_force(doc, roles)]
        assert space.cartesian_size(roles) == len(expected)
        assert [c.id for c in space.enumerate_configs(roles)] == expected
        # Every prefix the pool expands ends in a distinct configuration.
        walk = space._walk(roles)
        assert all(len(rows) <= walk.count for rows, _ in walk.expand())


@st.composite
def weighted_spaces(draw):
    """``exclusion_heavy_spaces`` with uneven level weights, zeros among them."""
    doc = draw(exclusion_heavy_spaces())
    weight = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))
    for f in doc["factors"]:
        for lv in f["levels"]:
            lv["weight"] = draw(weight)
        if not any(lv["weight"] for lv in f["levels"]):
            f["levels"][0]["weight"] = draw(st.floats(min_value=1e-3, max_value=1e3))
    return doc


@settings(max_examples=150, deadline=None)
@given(weighted_spaces())
def test_pool_weights_are_the_product_of_level_weights_in_factor_order(doc):
    try:
        space = load_space(json.dumps(doc))
    except SpaceError:
        return
    for roles in (("CUI", "DC"), ("CUI",), ("DC",)):
        pool = space.pool(roles)
        assert pool.rows == tuple(tuple(a.values()) for a in brute_force(doc, roles))
        level_weights = [space.factor(name).normalized_weights() for name in pool.names]
        # Bit for bit: a float's repr round-trips exactly.
        oracle = [repr(math.prod(map(dict.__getitem__, level_weights, row))) for row in pool.rows]
        assert list(map(repr, pool.weights)) == oracle


def test_forty_compatible_exclusions_count_without_blowup():
    # Every subset of these pair exclusions is compatible: inclusion-exclusion
    # over them would need 2^40 terms.
    rng = random.Random(3)
    doc = space_doc(dc_counts=())
    names = [f"f{i:02d}" for i in range(12)]
    doc["factors"] += [
        {"name": n, "role": "DC", "levels": [{"label": "lo"}, {"label": "hi"}]} for n in names
    ]
    corner = {n: rng.choice(("lo", "hi")) for n in names}
    pairs = rng.sample(list(itertools.combinations(names, 2)), 40)
    doc["exclusions"] = [{f: corner[f] for f in pair} for pair in pairs]
    space = load_space(json.dumps(doc))
    expected = brute_force(doc, ("DC",))
    assert space.cartesian_size(("DC",)) == len(expected) == 56
    assert space.cartesian_size() == 2 * 56
    assert [c.assignment for c in space.enumerate_configs(("DC",))] == expected


def test_walk_built_once_per_role_set(small_space, monkeypatch):
    import effattr.space as space_module

    built = []
    real = space_module._Walk
    monkeypatch.setattr(space_module, "_Walk", lambda *a: built.append(a) or real(*a))
    for roles in (("DC",), ["DC"], ("CUI", "DC"), ("DC", "CUI")):
        small_space.cartesian_size(roles)
        list(small_space.enumerate_configs(roles))
    assert len(built) == 1  # the full role set's walk was built when the space was


def test_budget_checked_before_first_yield(paper_scale_space):
    stream = paper_scale_space.enumerate_configs(roles=("DC",), budget=17_999)
    with pytest.raises(SpaceError, match="budget exceeded"):
        next(stream)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_valid_matches_the_per_factor_oracle(data):
    doc = data.draw(exclusion_heavy_spaces())
    try:
        space = load_space(json.dumps(doc))
    except SpaceError:
        return
    labels = {f["name"]: [lv["label"] for lv in f["levels"]] for f in doc["factors"]}
    # Often start from an exclusion, so that matches are common; then any
    # subset of the factors with a listed or unlisted label, and keys that
    # are no factor of the space.
    assignment = dict(data.draw(st.sampled_from([{}, *space.exclusions])))
    for name in data.draw(st.lists(st.sampled_from(sorted(labels)), unique=True)):
        assignment[name] = data.draw(st.sampled_from([*labels[name], "unlisted"]))
    for name in data.draw(st.lists(st.sampled_from(sorted(labels)), unique=True)):
        assignment.pop(name, None)
    assignment.update(data.draw(st.dictionaries(st.sampled_from(["extra", "w0"]), st.sampled_from(["w0", "x"]))))
    oracle = not any(all(assignment.get(f) == lab for f, lab in e.items()) for e in space.exclusions)
    assert space.is_valid(assignment) == oracle
