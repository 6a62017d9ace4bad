"""Design plans: counts, determinism, sampling properties, pairing layout."""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import pytest

from effattr import (
    Configuration,
    PlanError,
    factorial_2kr,
    full_factorial,
    load_plan,
    load_space,
    paired_plan,
    plan_digest,
    rct_plan,
    save_plan,
    simple_random_sample,
    stratified_sample,
)
from effattr._util import digest
from effattr.design import _weighted_indices, plan_from_json, plan_to_json
from effattr.space import DEFAULT_ENUMERATION_BUDGET, SpaceError
from conftest import space_doc


class TestFullFactorial:
    def test_paper_scale_trial_count(self):
        # 3 CUI levels x 18,000 DC configurations, r=3.
        space = load_space(json.dumps(space_doc(cui_levels=("a", "b", "c"), dc_counts=(10, 10, 1, 3, 60))))
        plan = full_factorial(space, r=3)
        assert len(plan.trials) == 162_000
        assert plan.cost == 54_000

    def test_cardinality_one(self):
        space = load_space(
            json.dumps({"factors": [{"name": "cpu", "role": "CUI", "levels": [{"label": "x", "value": "x"}]}]})
        )
        assert len(full_factorial(space, r=1).trials) == 1

    def test_exclusion_reduces_trials(self):
        doc = space_doc(dc_counts=(2,), exclusions=({"cpu": "ht_on", "w": "w0"},))
        plan = full_factorial(load_space(json.dumps(doc)), r=2)
        assert len(plan.trials) == (4 - 1) * 2

    def test_budget(self, paper_scale_space):
        with pytest.raises(PlanError, match="budget exceeded"):
            full_factorial(paper_scale_space, r=3, budget=1000)


class TestFactorial2kr:
    def make_split(self, space, cui=("ht_on", "ht_off")):
        split = {"cpu": {"low": [cui[0]], "high": [cui[1]]}}
        for f in space.factors:
            if f.role == "DC" and len(f.levels) > 1:
                labels = list(f.labels())
                half = len(labels) // 2
                split[f.name] = {"low": labels[:half], "high": labels[half:]}
        return split

    def test_k5_counts(self):
        space = load_space(json.dumps(space_doc(dc_counts=(10, 10, 3, 60))))
        plan = factorial_2kr(space, self.make_split(space), r=3, seed=11)
        assert plan.metadata["k"] == 5
        assert plan.n_configs == 32
        assert len(plan.trials) == 96

    def test_single_level_factors_pinned_k0(self):
        doc = {
            "factors": [
                {"name": "cpu", "role": "CUI", "levels": [{"label": "only", "value": "v"}]},
                {"name": "w", "role": "DC", "levels": [{"label": "w0", "value": "w0"}]},
            ]
        }
        plan = factorial_2kr(load_space(json.dumps(doc)), split={}, r=1, seed=0)
        assert len(plan.trials) == 1
        assert plan.trials[0].config.assignment == {"cpu": "only", "w": "w0"}

    def test_per_stratum_variant_counts(self):
        # 10 workloads, each with its own 2^4 design over the other factors.
        space = load_space(json.dumps(space_doc(dc_counts=(10, 10, 3, 60))))
        split = self.make_split(space)
        del split["w"]
        plan = factorial_2kr(space, split, r=3, seed=11, stratify="w")
        assert plan.n_configs == 160
        assert len(plan.trials) == 480

    def test_determinism(self):
        space = load_space(json.dumps(space_doc(dc_counts=(4, 6))))
        split = self.make_split(space)
        a = factorial_2kr(space, split, r=2, seed=5)
        b = factorial_2kr(space, split, r=2, seed=5)
        assert plan_to_json(a) == plan_to_json(b)
        c = factorial_2kr(space, split, r=2, seed=6)
        assert plan_to_json(a) != plan_to_json(c)

    def test_multi_level_factor_without_split_rejected(self):
        space = load_space(json.dumps(space_doc(dc_counts=(4, 6))))
        with pytest.raises(PlanError, match="no split"):
            factorial_2kr(space, {"cpu": {"low": ["ht_on"], "high": ["ht_off"]}}, r=1, seed=0)

    def test_split_must_partition(self):
        space = load_space(json.dumps(space_doc(dc_counts=(3,))))
        base = {"cpu": {"low": ["ht_on"], "high": ["ht_off"]}}
        with pytest.raises(PlanError, match="cover all levels"):
            factorial_2kr(space, {**base, "w": {"low": ["w0"], "high": ["w1"]}}, r=1, seed=0)
        with pytest.raises(PlanError, match="overlap"):
            factorial_2kr(
                space, {**base, "w": {"low": ["w0", "w1"], "high": ["w1", "w2"]}}, r=1, seed=0
            )

    def test_unsatisfiable_cell(self):
        doc = space_doc(dc_counts=(2,), exclusions=({"cpu": "ht_on", "w": "w0"},))
        space = load_space(json.dumps(doc))
        split = {"cpu": {"low": ["ht_on"], "high": ["ht_off"]}, "w": {"low": ["w0"], "high": ["w1"]}}
        with pytest.raises(PlanError, match="no valid draw"):
            factorial_2kr(space, split, r=1, seed=0)


class TestSimpleRandomSample:
    def test_exhaustive_sample_is_permutation(self, small_space):
        size = small_space.cartesian_size(roles=("DC",))
        sample = simple_random_sample(small_space, ("DC",), size, seed=3)
        assert len(sample) == size
        assert len({c.id for c in sample}) == size

    def test_empty(self, small_space):
        assert simple_random_sample(small_space, ("DC",), 0, seed=3) == []

    def test_determinism_and_distinctness(self, paper_scale_space):
        a = simple_random_sample(paper_scale_space, ("DC",), 20, seed=42)
        b = simple_random_sample(paper_scale_space, ("DC",), 20, seed=42)
        assert [c.id for c in a] == [c.id for c in b]
        assert len({c.id for c in a}) == 20
        c = simple_random_sample(paper_scale_space, ("DC",), 20, seed=43)
        assert [x.id for x in a] != [x.id for x in c]

    def test_oversized_rejected(self, small_space):
        with pytest.raises(PlanError, match="exceeds space size"):
            simple_random_sample(small_space, ("DC",), 21, seed=0)

    def test_uniform_weights_make_subsets_equiprobable(self):
        space = load_space(json.dumps(space_doc(dc_counts=(4,))))
        counts = Counter()
        trials = 3000
        for seed in range(trials):
            sample = simple_random_sample(space, ("DC",), 2, seed=seed)
            counts[frozenset(c.assignment["w"] for c in sample)] += 1
        assert len(counts) == 6
        expected = trials / 6
        assert all(abs(v - expected) < 0.15 * expected for v in counts.values())

    def test_weighted_first_draw_frequencies(self):
        doc = space_doc(dc_counts=(4,))
        for lv, w in zip(doc["factors"][1]["levels"], (4, 2, 1, 1)):
            lv["weight"] = w
        space = load_space(json.dumps(doc))
        first = Counter(
            simple_random_sample(space, ("DC",), 1, seed=s)[0].assignment["w"]
            for s in range(4000)
        )
        shares = [first[f"w{i}"] / 4000 for i in range(4)]
        for share, want in zip(shares, (0.5, 0.25, 0.125, 0.125)):
            assert abs(share - want) < 0.03

    def test_zero_weight_levels_never_drawn(self):
        doc = space_doc(dc_counts=(3,))
        doc["factors"][1]["levels"][1]["weight"] = 0.0
        space = load_space(json.dumps(doc))
        sample = simple_random_sample(space, ("DC",), 2, seed=1)
        assert all(c.assignment["w"] != "w1" for c in sample)
        with pytest.raises(PlanError, match="positive weight"):
            simple_random_sample(space, ("DC",), 3, seed=1)


class _ZeroDraws(random.Random):
    """A stream that returns 0.0 at the given draw numbers."""

    def __init__(self, seed, zeros):
        super().__init__(seed)
        self.zeros, self.k = set(zeros), 0

    def random(self):
        self.k += 1
        return 0.0 if self.k in self.zeros else super().random()


def sequential_keys_sample(weights, n, rng):
    """Exponential keys drawn one weight at a time, a zero u redrawn on the spot."""
    keyed = []
    for idx, w in enumerate(weights):
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        keyed.append((math.log(u) / w if w > 0 else -math.inf, idx))
    keyed.sort(key=lambda t: (-t[0], t[1]))
    return [idx for _, idx in keyed[:n]]


class TestSamplingCore:
    @pytest.mark.parametrize("zeros", [(), (1,), (3, 4), (7, 30), (30,)])
    def test_matches_sequential_draws(self, zeros):
        weights = [0.5, 0.0, 1.0, 2.0, 0.25, 1.0, 0.0] * 4 + [1.0, 1.0]
        for n in (1, 5, 12, 22):
            got = _weighted_indices(weights, n, _ZeroDraws(9, zeros))
            assert got == sequential_keys_sample(weights, n, _ZeroDraws(9, zeros))

    def test_pool_cached_and_budget_checked_per_call(self, small_space):
        pool = small_space.pool(("DC",))
        assert small_space.pool(["DC"]) is pool
        configs = [pool.config(i) for i in range(len(pool.rows))]
        assert [c.id for c in configs] == [c.id for c in small_space.enumerate_configs(("DC",))]
        assert all(pool.config(i) is c for i, c in enumerate(configs))
        # 2,000,000 DC configurations: the walk counts them without expanding them.
        big = load_space(json.dumps(space_doc(dc_counts=(10, 10, 10, 10, 10, 20))))
        assert big.cartesian_size(("DC",)) == 2_000_000 > DEFAULT_ENUMERATION_BUDGET
        for _ in range(2):
            with pytest.raises(SpaceError, match="budget"):
                big.pool(("DC",))


class TestStratifiedSample:
    def test_equal_allocation(self):
        space = load_space(json.dumps(space_doc(dc_counts=(10, 10, 1, 3, 60))))
        sample = stratified_sample(space, "w", 640, seed=9)
        counts = Counter(c.assignment["w"] for c in sample)
        assert all(v == 64 for v in counts.values())

    def test_one_per_stratum(self, small_space):
        sample = stratified_sample(small_space, "w", 5, seed=2)
        counts = Counter(c.assignment["w"] for c in sample)
        assert sorted(counts.values()) == [1] * 5

    def test_remainder_rule(self):
        space = load_space(json.dumps(space_doc(dc_counts=(10, 8))))
        counts = Counter(
            c.assignment["w"] for c in stratified_sample(space, "w", 25, seed=7)
        )
        assert sorted(counts.values()) == [2] * 5 + [3] * 5

    def test_balance_invariant(self, small_space):
        for n in range(5, 20):
            sample = stratified_sample(small_space, "w", n, seed=n)
            counts = Counter(c.assignment["w"] for c in sample)
            assert max(counts.values()) - min(counts.values()) <= 1
            assert len({c.id for c in sample}) == n  # without replacement

    def test_stratum_too_small(self, small_space):
        # each of the 5 workload strata holds only 4 DC configurations
        with pytest.raises(PlanError, match="allocation"):
            stratified_sample(small_space, "w", 21, seed=0)

    def test_below_strata_count_rejected(self, small_space):
        with pytest.raises(PlanError, match="below the number of strata"):
            stratified_sample(small_space, "w", 4, seed=0)

    def test_non_stratum_factor_rejected(self, small_space):
        with pytest.raises(PlanError, match="not marked as a stratum"):
            stratified_sample(small_space, "t", 8, seed=0)


class TestRctPlan:
    def test_one_to_one_split(self, small_space):
        plan = rct_plan(small_space, "ht_on", "ht_off", n=10, r=2, seed=4)
        groups = Counter(t.group for t in plan.trials)
        assert groups == {"control": 10, "treatment": 10}
        control_dc = {
            tuple(sorted((k, v) for k, v in t.config.assignment.items() if k != "cpu"))
            for t in plan.trials
            if t.group == "control"
        }
        treatment_dc = {
            tuple(sorted((k, v) for k, v in t.config.assignment.items() if k != "cpu"))
            for t in plan.trials
            if t.group == "treatment"
        }
        assert not control_dc & treatment_dc

    def test_minimal(self, small_space):
        plan = rct_plan(small_space, "ht_on", "ht_off", n=2, r=1, seed=1)
        assert len(plan.trials) == 2

    def test_trial_count_scales(self):
        space = load_space(json.dumps(space_doc(dc_counts=(10, 10, 1, 3, 60))))
        plan = rct_plan(space, "ht_on", "ht_off", n=14_000, r=3, seed=0)
        assert len(plan.trials) == 42_000
        assert plan.cost == 14_000

    def test_odd_n_rejected(self, small_space):
        with pytest.raises(PlanError, match="even"):
            rct_plan(small_space, "ht_on", "ht_off", n=9, r=1, seed=0)

    def test_insufficient_space(self, small_space):
        with pytest.raises(PlanError, match="exceeds space size"):
            rct_plan(small_space, "ht_on", "ht_off", n=22, r=1, seed=0)


class TestPairedPlan:
    def test_counts_and_cost(self):
        space = load_space(json.dumps(space_doc(dc_counts=(10, 10, 1, 3, 60))))
        dc = stratified_sample(space, "w", 640, seed=1)
        plan = paired_plan(space, "ht_off", "ht_on", dc, r=3)
        assert plan.n_configs == 1280
        assert len(plan.trials) == 3840
        assert plan.cost == 640

    def test_empty_sample(self, small_space):
        assert paired_plan(small_space, "ht_off", "ht_on", [], r=3).trials == ()

    def test_self_pairing_is_rejected(self, small_space):
        dc = simple_random_sample(small_space, ("DC",), 4, seed=0)
        with pytest.raises(PlanError) as err:
            paired_plan(small_space, "ht_on", "ht_on", dc, r=1)
        assert str(err.value) == "a paired plan needs two different CUI levels, got cui_a='ht_on' and cui_ref='ht_on'"

    def test_arms_adjacent_and_pairwise_consistent(self, small_space):
        dc = simple_random_sample(small_space, ("DC",), 6, seed=8)
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=2)
        for i in range(0, len(plan.trials), 2):
            first, second = plan.trials[i], plan.trials[i + 1]
            assert (first.arm, second.arm) == ("a", "ref")
            assert first.pair_id == second.pair_id
            assert first.replicate == second.replicate
            diff = {
                k
                for k in first.config.assignment
                if first.config.assignment[k] != second.config.assignment[k]
            }
            assert diff == {"cpu"}

    def test_pair_ids_once_per_replicate_per_arm(self, small_space):
        dc = simple_random_sample(small_space, ("DC",), 5, seed=8)
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=3)
        counts = Counter((t.pair_id, t.replicate, t.arm) for t in plan.trials)
        assert set(counts.values()) == {1}

    def test_excluded_arm_propagates(self):
        doc = space_doc(dc_counts=(2,), exclusions=({"cpu": "ht_off", "w": "w0"},))
        space = load_space(json.dumps(doc))
        with pytest.raises(PlanError, match="side a"):
            paired_plan(space, "ht_off", "ht_on", [Configuration({"w": "w0"})], r=1)


class TestPlanSerialization:
    def test_round_trip(self, small_space, tmp_path):
        dc = simple_random_sample(small_space, ("DC",), 4, seed=3)
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=2, seed=77)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.to_dict() == plan.to_dict()
        assert plan_digest(loaded) == plan_digest(plan)

    def test_cached_digests_match_fresh(self, small_space, tmp_path):
        dc = simple_random_sample(small_space, ("DC",), 4, seed=3)
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=2, seed=77)
        assert small_space.space_digest == digest(small_space.to_dict())
        assert plan_digest(plan) == digest(plan.to_dict())
        assert plan_digest(plan) is plan_digest(plan)  # serialized once
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert plan_digest(loaded) == digest(loaded.to_dict()) == plan_digest(plan)

    def test_malformed_rejected(self):
        with pytest.raises(PlanError, match="not valid JSON"):
            plan_from_json("{bad")
        with pytest.raises(PlanError, match="malformed plan"):
            plan_from_json(json.dumps({"method": "paired"}))

    def test_seeds_derive_from_master(self, small_space):
        dc = simple_random_sample(small_space, ("DC",), 3, seed=3)
        a = paired_plan(small_space, "ht_off", "ht_on", dc, r=2, seed=10)
        b = paired_plan(small_space, "ht_off", "ht_on", dc, r=2, seed=10)
        assert [t.seed for t in a.trials] == [t.seed for t in b.trials]
        c = paired_plan(small_space, "ht_off", "ht_on", dc, r=2, seed=11)
        assert [t.seed for t in a.trials] != [t.seed for t in c.trials]
