"""Inference core: scalar statistics, t tests, paired effects, ATE."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effattr import (
    DiffSample,
    StatsError,
    SyntheticBackend,
    SyntheticModel,
    ate,
    confidence_interval,
    new_log,
    one_sample_ttest,
    paired_effect,
    paired_plan,
    rct_plan,
    sample_mean,
    sample_std,
    simple_random_sample,
    t_statistic,
)
from effattr.special import betainc_inv
from effattr.stats import f_quantile, t_quantile


class TestScalars:
    def test_mean_basic(self):
        assert sample_mean([1, 2, 3]) == 2

    def test_mean_constant(self):
        assert sample_mean([7.5] * 9) == 7.5

    def test_mean_law_of_large_numbers(self):
        rng = random.Random(5)
        draws = [rng.gauss(5, 1) for _ in range(1000)]
        assert abs(sample_mean(draws) - 5) < 0.1

    def test_mean_empty_rejected(self):
        with pytest.raises(StatsError):
            sample_mean([])

    def test_std_basic(self):
        assert sample_std([1, 2, 3]) == pytest.approx(1.0)

    def test_std_constant(self):
        assert sample_std([4.0, 4.0, 4.0]) == 0.0

    def test_std_hand_computed(self):
        # mean 0.4, sum of squared deviations 3.2, /4, sqrt
        assert sample_std([0, 0, 0, 0, 2]) == pytest.approx(0.8944271909999159)

    def test_std_needs_two(self):
        with pytest.raises(StatsError):
            sample_std([1.0])

    def test_t_statistic_arithmetic(self):
        assert t_statistic(2, 0, 1, 9) == pytest.approx(6.0)

    def test_t_statistic_zero_at_null(self):
        assert t_statistic(3.0, 3.0, 2.0, 5) == 0.0

    def test_t_statistic_table2_magnitudes(self):
        assert t_statistic(3.92, 3.96, 40.0, 640) == pytest.approx(-0.025298221281347)

    def test_t_statistic_degenerate_rejected(self):
        with pytest.raises(StatsError, match="degenerate"):
            t_statistic(1.0, 0.0, 0.0, 10)


def _t_side_quantile(tail: float, df: float) -> float:
    """The t quantile inverted on the t side, I_u(1/2, df/2) = 1 - 2 * tail."""
    u = betainc_inv(0.5, df / 2.0, 1.0 - 2.0 * tail)
    if 1.0 - u < 1e-3:
        v = betainc_inv(df / 2.0, 0.5, 2.0 * tail)
        return math.sqrt(df * (1.0 - v) / v)
    return math.sqrt(df * u / (1.0 - u))


def test_t_quantile_is_the_root_of_the_f_quantile_bit_for_bit():
    # t(df)^2 = F(1, df), so the t quantile is taken from f_quantile; it must
    # equal the t-side inversion exactly, on both sides of the tail switch.
    tails = (1e-7, 1e-5, 1e-3, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.4, 0.4999)
    dfs = (1, 1.5, 2, 3, 4.5, 7, 10, 19, 30, 63, 100, 1e3, 1e4, 1e5)
    bad = [(tail, df) for tail in tails for df in dfs if t_quantile(tail, df) != _t_side_quantile(tail, df)]
    assert bad == []
    assert t_quantile(0.025, 9) == math.sqrt(f_quantile(0.05, 1, 9))


class TestOneSampleTTest:
    def test_all_zero_diffs(self):
        est = one_sample_ttest(DiffSample(diffs=(0.0,) * 6), mu0=0.0)
        assert est.delta_e == 0.0
        assert est.verdict == "fail_to_reject"
        assert est.ci == (0.0, 0.0)

    def test_zero_variance_reject_on_exact_inequality(self):
        est = one_sample_ttest(DiffSample(diffs=(1.0, 1.0, 1.0, 1.0)), mu0=0.0)
        assert est.verdict == "reject"
        assert est.t_value == math.inf

    def test_accepts_truth_near_inferred_effect(self):
        # 640 draws around 3.92 tested against 3.96: comfortably accepted
        rng = random.Random(42)
        diffs = tuple(rng.gauss(3.92, 1.0) for _ in range(640))
        est = one_sample_ttest(DiffSample(diffs=diffs), mu0=3.96, alpha=0.01)
        assert est.verdict == "fail_to_reject"

    def test_needs_two(self):
        with pytest.raises(StatsError):
            one_sample_ttest(DiffSample(diffs=(1.0,)))

    def test_alpha_domain(self):
        with pytest.raises(StatsError):
            one_sample_ttest(DiffSample(diffs=(1.0, 2.0)), alpha=1.5)


class TestConfidenceInterval:
    def test_constant_sample_degenerate(self):
        assert confidence_interval(DiffSample(diffs=(2.5,) * 4)) == (2.5, 2.5)

    def test_symmetric_about_mean(self):
        diffs = (1.0, 2.0, 3.0, 4.0)
        lo, hi = confidence_interval(DiffSample(diffs=diffs), alpha=0.05)
        assert (lo + hi) / 2 == pytest.approx(2.5)

    def test_ci_identity(self):
        rng = random.Random(3)
        diffs = tuple(rng.gauss(0, 2) for _ in range(25))
        est = one_sample_ttest(DiffSample(diffs=diffs), mu0=0.0, alpha=0.05)
        half = est.t_critical * est.s / math.sqrt(est.n)
        assert est.ci[0] == pytest.approx(est.delta_e - half, abs=1e-12)
        assert est.ci[1] == pytest.approx(est.delta_e + half, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    data=st.lists(st.floats(-50, 50), min_size=2, max_size=40),
    mu0=st.floats(-60, 60),
    alpha=st.sampled_from([0.01, 0.05, 0.2]),
)
# Equal values whose mean rounds one ulp low: the upper end lands on mu0.
@example(data=[21.339358626052608] * 3, mu0=21.339358626052608, alpha=0.2)
def test_interval_test_duality(data, mu0, alpha):
    # mu0 inside the interval exactly when the test fails to reject
    est = one_sample_ttest(DiffSample(diffs=tuple(data)), mu0=mu0, alpha=alpha)
    assert est.covers(mu0) == (est.verdict == "fail_to_reject")


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.floats(-40, 40), min_size=3, max_size=25),
    lam=st.floats(0.01, 100.0),
)
def test_scale_equivariance(data, lam):
    base = one_sample_ttest(DiffSample(diffs=tuple(data)), mu0=0.0, alpha=0.05)
    scaled = one_sample_ttest(
        DiffSample(diffs=tuple(lam * x for x in data)), mu0=0.0, alpha=0.05
    )
    assert scaled.delta_e == pytest.approx(lam * base.delta_e, rel=1e-9, abs=1e-12)
    assert scaled.s == pytest.approx(lam * base.s, rel=1e-9, abs=1e-12)
    assert scaled.ci[0] == pytest.approx(lam * base.ci[0], rel=1e-9, abs=1e-9)
    assert scaled.ci[1] == pytest.approx(lam * base.ci[1], rel=1e-9, abs=1e-9)
    if base.s > 1e-6 * max(abs(x) for x in data + [1.0]):
        assert scaled.t_value == pytest.approx(base.t_value, rel=1e-6, abs=1e-9)
        assert scaled.verdict == base.verdict


def run_paired(space, model, cui_a, cui_ref, dc, r=2, seed=0, **kwargs):
    plan = paired_plan(space, cui_a, cui_ref, dc, r=r, seed=seed)
    backend = SyntheticBackend(model)
    log = new_log(plan, backend)
    from effattr import run

    run(plan, backend, log)
    return paired_effect(log, plan, **kwargs), plan, log


class TestPairedEffect:
    def test_self_pairing_is_exactly_zero(self, small_space, plain_model):
        # paired_plan and plan_from_dict reject one CUI level on both arms, so
        # the plan is built in memory: both arms of every pair set cpu=ht_on.
        dc = simple_random_sample(small_space, ("DC",), 6, seed=1)
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=2)
        plan = dataclasses.replace(
            plan,
            trials=tuple(t._replace(config=t.config.extended({"cpu": "ht_on"})) for t in plan.trials),
            metadata={**plan.metadata, "cui_a": "ht_on"},
        )
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        from effattr import run

        run(plan, backend, log)
        est = paired_effect(log, plan)
        assert est.delta_e == 0.0
        assert est.verdict == "fail_to_reject"

    def test_pure_main_effect_exact_for_any_sample(self, small_space, plain_model):
        for seed in (1, 2, 3):
            dc = simple_random_sample(small_space, ("DC",), 5, seed=seed)
            est, _, _ = run_paired(small_space, plain_model, "ht_off", "ht_on", dc)
            assert est.delta_e == 2.0

    def test_interaction_matches_weight_averaged_closed_form(self, small_space, interaction_model):
        dc = list(small_space.enumerate_configs(roles=("DC",)))
        est, _, _ = run_paired(small_space, interaction_model, "ht_off", "ht_on", dc)
        expected = interaction_model.closed_form_delta(small_space, "ht_off", "ht_on")
        assert expected == pytest.approx(2.0 + 5.0 / 5, abs=1e-15)  # hand: main + 1/5 weight
        assert est.delta_e == pytest.approx(expected, rel=1e-13)

    def test_weighted_average(self, small_space, interaction_model):
        dc = list(small_space.enumerate_configs(roles=("DC",)))[:4]
        est, plan, log = run_paired(small_space, interaction_model, "ht_off", "ht_on", dc)
        weights = [1.0, 2.0, 3.0, 4.0]
        weighted = paired_effect(log, plan, average_kind="weighted", weights=weights)
        from effattr import paired_diffs

        diffs = paired_diffs(log, plan).diffs
        expected = sum(w * d for w, d in zip(weights, diffs)) / sum(weights)
        assert weighted.delta_e == pytest.approx(expected)
        assert weighted.average_kind == "weighted"
        # inference fields still come from the plain t test on the diffs
        assert weighted.ci == est.ci

    def test_weighted_requires_weights(self, small_space, plain_model):
        dc = simple_random_sample(small_space, ("DC",), 4, seed=2)
        _, plan, log = run_paired(small_space, plain_model, "ht_off", "ht_on", dc)
        with pytest.raises(StatsError, match="weights"):
            paired_effect(log, plan, average_kind="weighted")
        with pytest.raises(StatsError, match="nonnegative"):
            paired_effect(log, plan, average_kind="weighted", weights=[-1.0] * 4)
        with pytest.raises(StatsError, match="all be zero"):
            paired_effect(log, plan, average_kind="weighted", weights=[0.0] * 4)

    def test_geometric_average(self, small_space, plain_model):
        dc = simple_random_sample(small_space, ("DC",), 4, seed=2)
        _, plan, log = run_paired(small_space, plain_model, "ht_off", "ht_on", dc)
        est = paired_effect(log, plan, average_kind="geometric")
        assert est.delta_e == pytest.approx(2.0)  # all diffs exactly 2

    def test_geometric_rejects_nonpositive_diffs(self, small_space):
        model = SyntheticModel(baseline=10.0, main_effects={("cpu", "ht_off"): 0.0})
        dc = simple_random_sample(small_space, ("DC",), 4, seed=2)
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=1)
        backend = SyntheticBackend(model)
        log = new_log(plan, backend)
        from effattr import run

        run(plan, backend, log)
        with pytest.raises(StatsError, match="geometric"):
            paired_effect(log, plan, average_kind="geometric")

    def test_pairing_cancels_dc_main_effects(self, small_space, interaction_model):
        # shifting every response of one DC level (both arms) leaves diffs unchanged
        from effattr import paired_diffs

        dc = list(small_space.enumerate_configs(roles=("DC",)))
        _, plan, log = run_paired(small_space, interaction_model, "ht_off", "ht_on", dc)
        base = paired_diffs(log, plan).diffs

        shifted_model = SyntheticModel(
            baseline=interaction_model.baseline,
            main_effects={**interaction_model.main_effects, ("w", "w2"): 123.45},
            interactions=interaction_model.interactions,
            noise_sd=0.0,
        )
        _, plan2, log2 = run_paired(small_space, shifted_model, "ht_off", "ht_on", dc)
        assert paired_diffs(log2, plan2).diffs == base

    def test_incomplete_log_rejected(self, small_space, plain_model):
        dc = simple_random_sample(small_space, ("DC",), 4, seed=2)
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=1)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        from effattr import run

        run(plan, backend, log)
        log._records.pop(next(iter(log._records)))
        with pytest.raises(StatsError, match="incomplete log"):
            paired_effect(log, plan)

    def test_unit_propagates(self, small_space, plain_model):
        dc = simple_random_sample(small_space, ("DC",), 4, seed=2)
        est, _, _ = run_paired(small_space, plain_model, "ht_off", "ht_on", dc)
        assert est.unit == "seconds"


def run_rct(space, model, n, r=2, seed=0, alpha=0.01):
    plan = rct_plan(space, "ht_on", "ht_off", n=n, r=r, seed=seed)
    backend = SyntheticBackend(model)
    log = new_log(plan, backend)
    from effattr import run

    run(plan, backend, log)
    return ate(log, plan, alpha=alpha), plan


class TestAte:
    def test_no_effect_zero_noise(self, small_space):
        model = SyntheticModel(baseline=5.0)
        est, _ = run_rct(small_space, model, n=8)
        assert est.delta_e == 0.0
        assert est.verdict == "fail_to_reject"

    def test_pure_effect_exact_for_any_assignment(self, small_space, plain_model):
        for seed in (1, 2, 3):
            est, _ = run_rct(small_space, plain_model, n=10, seed=seed)
            assert est.delta_e == 2.0

    def test_welch_interval_is_calibrated_under_dc_variance(self, small_space):
        # Monte-Carlo oracle over 150 seeded samplings: the Welch interval on
        # configuration-level values keeps near-nominal coverage even when DC
        # main effects dominate the variance, because the arm spread it
        # estimates is the same spread that drives the estimator error.
        model = SyntheticModel(
            baseline=100.0,
            main_effects={
                ("cpu", "ht_off"): 3.96,
                **{("w", f"w{i}"): 40.0 * i for i in range(5)},
                **{("t", f"t{i}"): 15.0 * i for i in range(4)},
            },
            noise_sd=1.0,
        )
        covered = 0
        iterations = 150
        for seed in range(iterations):
            est, _ = run_rct(small_space, model, n=12, r=2, seed=seed, alpha=0.01)
            if est.covers(3.96):
                covered += 1
        assert covered / iterations > 0.9

    def test_empty_arm_rejected(self, small_space, plain_model):
        plan = rct_plan(small_space, "ht_on", "ht_off", n=2, r=2, seed=0)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        from effattr import run

        run(plan, backend, log)
        with pytest.raises(StatsError, match="at least 2"):
            ate(log, plan)

    def test_ci_identity_with_welch_df(self, small_space):
        model = SyntheticModel(
            baseline=10.0,
            main_effects={("w", "w1"): 4.0, ("cpu", "ht_off"): 1.0},
            noise_sd=0.5,
        )
        est, _ = run_rct(small_space, model, n=12, seed=9)
        half = est.t_critical * est.s / math.sqrt(est.n)
        assert est.ci[0] == pytest.approx(est.delta_e - half, rel=1e-12)
        assert est.ci[1] == pytest.approx(est.delta_e + half, rel=1e-12)
        assert est.df < est.n - 2 + 1e-9  # Welch df never exceeds the pooled df
