"""Meta-evaluation: ground truth, coverage accuracy, selection, pitfall."""

from __future__ import annotations

import json
import math

import pytest

from effattr import (
    Configuration,
    ScenarioError,
    SyntheticBackend,
    SyntheticModel,
    accuracy_cost,
    full_factorial,
    ground_truth,
    load_scenario,
    load_space,
    new_log,
    paired_effect,
    paired_plan,
    pitfall_demo,
    run,
    select_best_cui,
    simple_random_sample,
    variability,
)
from effattr.cli import main
from effattr.meta import MethodSpec, Scenario
from conftest import space_doc


def make_scenario(space, model, methods=(), iterations=10, alpha=0.01, seed=1, **kw):
    return Scenario(
        space=space,
        model=model,
        cui_a="ht_off",
        cui_ref="ht_on",
        alpha=alpha,
        iterations=iterations,
        master_seed=seed,
        methods=tuple(methods),
        **kw,
    )


class TestGroundTruth:
    def test_no_effect(self, small_space):
        model = SyntheticModel(baseline=9.0)
        assert ground_truth(make_scenario(small_space, model)) == 0.0

    def test_pure_main_effect(self, small_space, plain_model):
        assert ground_truth(make_scenario(small_space, plain_model)) == 2.0

    def test_interaction_weight_average(self):
        # +5 on 1 of 10 equally weighted workloads, +2 main: 2 + 5/10
        space = load_space(json.dumps(space_doc(dc_counts=(10, 3))))
        model = SyntheticModel(
            baseline=0.0,
            main_effects={("cpu", "ht_off"): 2.0},
            interactions=(((("cpu", "ht_off"), ("w", "w1")), 5.0),),
        )
        assert ground_truth(make_scenario(space, model)) == pytest.approx(2.5, abs=1e-15)

    def test_nonuniform_weights(self):
        doc = space_doc(dc_counts=(2,))
        doc["factors"][1]["levels"][0]["weight"] = 3.0
        space = load_space(json.dumps(doc))
        model = SyntheticModel(
            interactions=(((("cpu", "ht_off"), ("w", "w0")), 8.0),),
        )
        assert ground_truth(make_scenario(space, model)) == pytest.approx(8.0 * 0.75)

    def test_matches_full_enumeration_paired_effect(self, small_space, interaction_model):
        truth = ground_truth(make_scenario(small_space, interaction_model))
        dc = list(small_space.enumerate_configs(roles=("DC",)))
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=1)
        backend = SyntheticBackend(interaction_model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        est = paired_effect(log, plan)
        assert est.delta_e == pytest.approx(truth, rel=1e-13)

    def test_exclusions_fall_back_to_weighted_enumeration(self):
        doc = space_doc(dc_counts=(4,), exclusions=({"w": "w3"},))
        space = load_space(json.dumps(doc))
        model = SyntheticModel(
            main_effects={("cpu", "ht_off"): 1.0},
            interactions=(((("cpu", "ht_off"), ("w", "w0")), 6.0),),
        )
        # valid workloads are w0..w2, so the interaction weight is 1/3
        assert ground_truth(make_scenario(space, model)) == pytest.approx(1.0 + 2.0)


class TestAccuracyCost:
    def test_zero_noise_paired_is_exact(self, small_space, plain_model):
        scenario = make_scenario(
            small_space,
            plain_model,
            methods=[MethodSpec(kind="paired", n=6, r=1, stratify="w")],
            iterations=12,
        )
        rows = accuracy_cost(scenario)
        assert rows[0].accuracy == 1.0
        assert rows[0].mean_ci_width == 0.0
        assert rows[0].cost == 6

    def test_nominal_coverage_band(self):
        # scaled-down calibration check; the acceptance suite runs the full one
        space = load_space(json.dumps(space_doc(dc_counts=(10, 12))))
        model = SyntheticModel(
            baseline=50.0,
            main_effects={("cpu", "ht_off"): 3.0, **{("w", f"w{i}"): 7.0 * i for i in range(10)}},
            noise_sd=1.0,
        )
        scenario = make_scenario(
            space,
            model,
            methods=[MethodSpec(kind="paired", n=50, r=1, stratify="w")],
            iterations=300,
            alpha=0.05,
            seed=7,
        )
        accuracy = accuracy_cost(scenario)[0].accuracy
        assert 0.90 <= accuracy <= 0.99

    def test_deterministic_given_seed(self, small_space, interaction_model):
        model = SyntheticModel(
            baseline=interaction_model.baseline,
            main_effects=interaction_model.main_effects,
            interactions=interaction_model.interactions,
            noise_sd=0.5,
        )
        methods = [MethodSpec(kind="paired", n=8, r=2, stratify="w"), MethodSpec(kind="rct", n=8, r=2)]
        a = accuracy_cost(make_scenario(small_space, model, methods=methods, iterations=15))
        b = accuracy_cost(make_scenario(small_space, model, methods=methods, iterations=15))
        assert a == b

    def test_ci_width_shrinks_like_inverse_sqrt_n(self):
        space = load_space(json.dumps(space_doc(dc_counts=(10, 40))))
        model = SyntheticModel(baseline=10.0, main_effects={("cpu", "ht_off"): 1.0}, noise_sd=2.0)
        sizes = [50, 100, 200, 400]
        widths = []
        for n in sizes:
            scenario = make_scenario(
                space,
                model,
                methods=[MethodSpec(kind="paired", n=n, r=1, stratify="w")],
                iterations=40,
                seed=11,
            )
            widths.append(accuracy_cost(scenario)[0].mean_ci_width)
        slope = (math.log(widths[-1]) - math.log(widths[0])) / (
            math.log(sizes[-1]) - math.log(sizes[0])
        )
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_accuracy_nondecreasing_with_cost(self):
        # with CUI interactions, small paired samples undercover slightly and
        # climb toward nominal as the sample grows
        space = load_space(json.dumps(space_doc(dc_counts=(10, 16))))
        model = SyntheticModel(
            baseline=100.0,
            main_effects={("cpu", "ht_off"): 2.0, **{("w", f"w{i}"): 25.0 * i for i in range(10)}},
            interactions=tuple(
                ((("cpu", "ht_off"), ("t", f"t{i}")), 3.0 * i) for i in range(16)
            ),
            noise_sd=0.5,
        )
        methods = [
            MethodSpec(kind="paired", n=n, r=1, stratify="w", label=f"paired-{n}")
            for n in (10, 40, 160)
        ]
        rows = accuracy_cost(
            make_scenario(space, model, methods=methods, iterations=250, seed=13)
        )
        accuracies = [row.accuracy for row in rows]
        assert accuracies == sorted(accuracies)
        assert accuracies[-1] >= 0.98

    def test_factorial_method_runs(self, small_space):
        model = SyntheticModel(
            baseline=10.0, main_effects={("cpu", "ht_off"): 2.0}, noise_sd=0.3
        )
        scenario = make_scenario(
            small_space,
            model,
            methods=[MethodSpec(kind="factorial_2kr", r=3)],
            iterations=10,
        )
        row = accuracy_cost(scenario)[0]
        assert row.cost == 8  # 2^3 cells: cpu, w, t
        assert 0.0 <= row.accuracy <= 1.0

    def test_infeasible_sample_size(self, small_space, plain_model):
        scenario = make_scenario(
            small_space, plain_model, methods=[MethodSpec(kind="paired", n=9999, r=1)]
        )
        with pytest.raises(ScenarioError, match="exceeds space size"):
            accuracy_cost(scenario)

    def test_two_bad_rows_report_the_earliest_iteration(self):
        # Stratum w1 keeps one valid configuration, so the stratified row fails
        # whenever the seeded remainder draw gives w1 a second member; the
        # oversized row fails at every iteration.
        doc = space_doc(dc_counts=(2, 3), exclusions=({"w": "w1", "t": "t0"}, {"w": "w1", "t": "t1"}))
        space = load_space(json.dumps(doc))
        model = SyntheticModel(baseline=10.0, main_effects={("cpu", "ht_off"): 2.0}, noise_sd=0.5)
        sometimes = MethodSpec(kind="paired", n=3, r=1, stratify="w", label="sometimes")
        always = MethodSpec(kind="paired", n=99, r=1, label="always")

        def error(seed, methods):
            scenario = make_scenario(space, model, methods=methods, iterations=4, seed=seed)
            with pytest.raises(ScenarioError) as info:
                accuracy_cost(scenario)
            return str(info.value)

        # At master seed 0 the stratified row first fails at iteration 2, so a
        # row-by-row loop would have named it; iterations run first, and the
        # oversized row fails at iteration 0.
        assert "method sometimes: stratum 'w1'" in error(0, [sometimes])
        assert "method always: sample size 99" in error(0, [sometimes, always])
        # At master seed 1 both rows fail at iteration 0: the declared order decides.
        assert "method sometimes:" in error(1, [sometimes, always])
        assert "method always:" in error(1, [always, sometimes])

    def test_paired_beats_rct_under_dc_dominant_variance(self):
        # The headline ordering, scaled down; acceptance runs the full
        # version. Pairing cancels the DC main effects exactly, so the
        # noise-free paired estimate degenerates onto the truth; the RCT
        # interval has to straddle the full DC spread.
        space = load_space(json.dumps(space_doc(dc_counts=(10, 12))))
        model = SyntheticModel(
            baseline=200.0,
            main_effects={
                ("cpu", "ht_off"): 4.0,
                **{("w", f"w{i}"): [0, 1, 2, 4, 8, 16, 150, 320, 700, 1500][i] for i in range(10)},
                **{("t", f"t{i}"): 3.0 * i for i in range(12)},
            },
            noise_sd=0.0,
        )
        methods = [
            MethodSpec(kind="paired", n=20, r=2, stratify="w"),
            MethodSpec(kind="rct", n=20, r=2),
        ]
        rows = accuracy_cost(make_scenario(space, model, methods=methods, iterations=150, seed=3))
        paired_row, rct_row = rows
        assert paired_row.accuracy == 1.0
        assert paired_row.accuracy >= rct_row.accuracy
        assert paired_row.mean_ci_width < rct_row.mean_ci_width


class TestSelectBestCui:
    def test_argmin_on_model(self, small_space):
        model = SyntheticModel(
            baseline=5.0, main_effects={("cpu", "ht_off"): -2.0}
        )  # ht_off mean 3, ht_on mean 5
        dc = simple_random_sample(small_space, ("DC",), 6, seed=0)
        result = select_best_cui(small_space, dc, direction="min", model=model)
        assert result.level == "ht_off"
        assert not result.tied

    def test_tie_flagged_first_level_wins(self, small_space):
        model = SyntheticModel(baseline=5.0)
        dc = simple_random_sample(small_space, ("DC",), 4, seed=0)
        result = select_best_cui(small_space, dc, direction="min", model=model)
        assert result.level == "ht_on"  # first declared level
        assert result.tied

    def test_scale_invariance(self, small_space):
        dc = simple_random_sample(small_space, ("DC",), 6, seed=1)
        base = SyntheticModel(
            baseline=5.0,
            main_effects={("cpu", "ht_off"): -2.0, ("w", "w1"): 1.0},
        )
        for lam in (0.5, 3.0, 100.0):
            scaled = SyntheticModel(
                baseline=5.0 * lam,
                main_effects={k: v * lam for k, v in base.main_effects.items()},
            )
            assert (
                select_best_cui(small_space, dc, direction="min", model=scaled).level
                == select_best_cui(small_space, dc, direction="min", model=base).level
            )

    def test_maximize_direction(self, small_space):
        model = SyntheticModel(baseline=5.0, main_effects={("cpu", "ht_off"): -2.0})
        dc = simple_random_sample(small_space, ("DC",), 4, seed=0)
        assert select_best_cui(small_space, dc, direction="max", model=model).level == "ht_on"

    def test_log_path_and_incomplete_coverage(self, small_space, plain_model):
        dc = simple_random_sample(small_space, ("DC",), 4, seed=0)
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=1)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        result = select_best_cui(small_space, dc, direction="min", log=log)
        assert result.level == "ht_on"  # ht_off costs +2
        missing_dc = [c for c in small_space.enumerate_configs(roles=("DC",)) if c not in dc][:1]
        with pytest.raises(ScenarioError, match="incomplete coverage"):
            select_best_cui(small_space, dc + missing_dc, direction="min", log=log)

    def test_exactly_one_source_required(self, small_space, plain_model):
        dc = simple_random_sample(small_space, ("DC",), 2, seed=0)
        with pytest.raises(ScenarioError, match="exactly one"):
            select_best_cui(small_space, dc, model=plain_model, log="nope")  # type: ignore[arg-type]
        with pytest.raises(ScenarioError, match="exactly one"):
            select_best_cui(small_space, dc)


class TestPitfallDemo:
    def test_no_interactions_no_flag(self, small_space, plain_model):
        scenario = make_scenario(small_space, plain_model)
        fixed = Configuration({"w": "w0", "t": "t0"})
        report = pitfall_demo(scenario, fixed)
        assert report.fixed_estimate == report.ground_truth == 2.0
        assert not report.sign_flip

    def test_planted_sign_reversal_flagged(self):
        space = load_space(json.dumps(space_doc(dc_counts=(10, 3))))
        model = SyntheticModel(
            baseline=100.0,
            main_effects={("cpu", "ht_off"): 4.0},
            interactions=(((("cpu", "ht_off"), ("w", "w0")), -44.0),),
        )
        scenario = make_scenario(space, model)
        truth = ground_truth(scenario)
        assert truth == pytest.approx(4.0 - 4.4)  # population effect is negative
        report = pitfall_demo(scenario, Configuration({"w": "w1", "t": "t0"}))
        assert report.fixed_estimate == pytest.approx(4.0)  # fixed context misses it
        assert report.sign_flip

    def test_negative_control_never_flags(self, small_space, plain_model):
        scenario = make_scenario(small_space, plain_model)
        for i, dc in enumerate(small_space.enumerate_configs(roles=("DC",))):
            assert not pitfall_demo(scenario, dc).sign_flip


class TestVariability:
    def test_both_normalizations(self):
        report = variability([10.0, 12.0, 20.0])
        assert report.range_over_min == pytest.approx(1.0)
        assert report.range_over_mean == pytest.approx(10.0 / 14.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ScenarioError):
            variability([0.0, 1.0])


class TestScenarioLoading:
    def doc(self, iterations=5):
        return {
            "space": space_doc(dc_counts=(3, 2)),
            "model": {"baseline": 1.0, "noise_sd": 0.0, "main_effects": [], "interactions": []},
            "cui_a": "ht_off",
            "cui_ref": "ht_on",
            "alpha": 0.05,
            "iterations": iterations,
            "master_seed": 3,
            "methods": [{"kind": "paired", "n": 4, "r": 1, "stratify": "w"}],
        }

    def test_round_trip(self):
        scenario = load_scenario(json.dumps(self.doc()))
        assert scenario.iterations == 5
        assert scenario.methods[0].kind == "paired"
        rows = accuracy_cost(scenario)
        assert rows[0].accuracy == 1.0

    def test_zero_iterations_rejected(self):
        with pytest.raises(ScenarioError, match="iterations"):
            load_scenario(json.dumps(self.doc(iterations=0)))

    def test_unknown_method_kind_rejected(self):
        doc = self.doc()
        doc["methods"][0]["kind"] = "latin_hypercube"
        with pytest.raises(ScenarioError, match="unknown method kind"):
            load_scenario(json.dumps(doc))

    def test_one_cui_level_on_both_sides_rejected_for_a_paired_row(self):
        doc = self.doc()
        doc["cui_a"] = "ht_on"
        with pytest.raises(ScenarioError) as err:
            load_scenario(json.dumps(doc))
        assert str(err.value) == "a paired method needs two different CUI levels, got cui_a='ht_on' and cui_ref='ht_on'"

    def test_one_cui_level_on_both_sides_allowed_for_rct(self):
        # An A/A rct is a calibration check: its interval should cover 0.
        doc = self.doc(iterations=3)
        doc["cui_a"] = "ht_on"
        doc["methods"] = [{"kind": "rct", "n": 6}]
        (row,) = accuracy_cost(load_scenario(json.dumps(doc)))
        assert row.accuracy == 1.0

    def test_unknown_cui_level_rejected(self):
        doc = self.doc()
        doc["cui_a"] = "missing"
        with pytest.raises(ScenarioError, match="no level"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("iterations",), None, "iterations: must be an integer, got None"),
            (("master_seed",), "seven", "master_seed: must be an integer, got 'seven'"),
            (("alpha",), [0.05], r"alpha: must be a number, got \[0.05\]"),
            (("iterations",), float("inf"), "iterations: must be an integer, got inf"),
            (("methods", 0, "n"), None, r"methods\[0\]\.n: must be an integer, got None"),
            (("methods", 0, "r"), {}, r"methods\[0\]\.r: must be an integer, got \{\}"),
            (("alpha",), "0.05", "alpha: must be a number, got '0.05'"),
            (("iterations",), True, "iterations: must be an integer, got True"),
            (("master_seed",), 7.9, "master_seed: must be an integer, got 7.9"),
            (("alpha",), float("nan"), "alpha: must be finite, got nan"),
            (("methods", 0, "kind"), 5, r"methods\[0\]\.kind: must be text, got 5"),
            (("methods", 0, "stratify"), ["w"], r"methods\[0\]\.stratify: must be text or null, got \['w'\]"),
            (("methods", 0, "label"), 5, r"methods\[0\]\.label: must be text or null, got 5"),
            (("methods", 0, "split"), 5, r"methods\[0\]\.split: must be an object or null, got 5"),
        ],
        ids=[
            "iterations-null", "master_seed-text", "alpha-list", "iterations-inf", "n-null", "r-object",
            "alpha-text", "iterations-bool", "master_seed-float", "alpha-nan",
            "kind-number", "stratify-list", "label-number", "split-number",
        ],
    )
    def test_wrongly_typed_number_names_its_key(self, path, value, message, tmp_path, capsys):
        doc = self.doc()
        *outer, key = path
        target = doc
        for part in outer:
            target = target[part]
        target[key] = value
        with pytest.raises(ScenarioError, match=message):
            load_scenario(doc)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        assert main(["meta", "--scenario", str(scenario_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and key in err

    def test_unknown_aggregate_rejected(self):
        doc = self.doc()
        doc["aggregate"] = "mode"
        with pytest.raises(ScenarioError, match="aggregate.*'mode'"):
            load_scenario(json.dumps(doc))
