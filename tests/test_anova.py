"""Balanced n-way ANOVA: hand cases, structure, and oracle equivalence."""

from __future__ import annotations

import copy
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effattr import (
    AnovaTable,
    Measurement,
    StatsError,
    SyntheticBackend,
    SyntheticModel,
    anova,
    full_factorial,
    load_model_file,
    load_space,
    load_space_file,
    new_log,
    run,
)
from effattr._util import assignment_id
from effattr.cli import main
from effattr._sums import array_sum, effects, spread
from effattr.stats import AnovaRow, ErrorRow, f_quantile
from effattr.runner import Backend
from conftest import space_doc

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TableBackend(Backend):
    """Deterministic lookup backend for hand-constructed response tables."""

    name = "table"
    unit = "units"

    def __init__(self, fn):
        self.fn = fn

    def measure(self, trial):
        return Measurement(
            config_id=trial.config.id,
            replicate=trial.replicate,
            value=float(self.fn(trial.config.assignment, trial.replicate)),
            backend=self.name,
            wall_time=0.0,
        )


def run_anova(space, fn, r, alpha=0.01):
    plan = full_factorial(space, r=r, seed=0)
    backend = TableBackend(fn)
    log = new_log(plan, backend)
    run(plan, backend, log)
    return anova(log, plan, alpha=alpha)


def one_factor_space(levels):
    doc = {
        "factors": [
            {
                "name": "g",
                "role": "CUI",
                "levels": [{"label": lab, "value": lab} for lab in levels],
            }
        ]
    }
    return load_space(json.dumps(doc))


def two_factor_space(la, lb):
    doc = space_doc(cui_levels=tuple(f"a{i}" for i in range(la)), dc_counts=(lb,))
    return load_space(json.dumps(doc))


class TestHandCases:
    def test_one_factor_two_levels(self):
        # cells {A: (1, 1), B: (3, 3)}: grand mean 2, factor ss 4, error ss 0
        space = one_factor_space(["A", "B"])
        table = run_anova(space, lambda a, rep: 1.0 if a["g"] == "A" else 3.0, r=2)
        row = table.rows[0]
        assert row.ss == pytest.approx(4.0)
        assert row.df == 1
        assert table.error_row.ss == 0.0
        assert table.error_row.df == 2
        assert row.pct == pytest.approx(100.0)
        assert row.f_computed == math.inf and row.significant

    def test_constant_responses(self):
        space = two_factor_space(2, 3)
        table = run_anova(space, lambda a, rep: 0.1, r=2)
        assert table.total_ss == 0.0
        for row in table.rows:
            assert row.ss == 0.0
            assert row.pct == 0.0
            assert row.f_computed == 0.0
            assert not row.significant
        assert table.error_row.pct == 0.0

    def test_textbook_two_factor(self):
        # responses depend additively on both factors plus a replicate offset
        space = two_factor_space(2, 2)
        effects = {"a0": 0.0, "a1": 6.0, "w0": 0.0, "w1": 2.0}

        def fn(a, rep):
            return effects[a["cpu"]] + effects[a["w"]] + (0.5 if rep else -0.5)

        table = run_anova(space, fn, r=2, alpha=0.05)
        by_label = {row.label: row for row in table.rows}
        assert by_label["cpu"].ss == pytest.approx(72.0)  # r*L_w*2*(3^2)
        assert by_label["w"].ss == pytest.approx(8.0)
        assert by_label["cpu*w"].ss == pytest.approx(0.0)
        assert table.error_row.ss == pytest.approx(8 * 0.25)


class TestStructure:
    def test_five_factor_row_count(self):
        space = load_space(json.dumps(space_doc(dc_counts=(2, 2, 2, 2))))
        rng = random.Random(0)
        table = run_anova(space, lambda a, rep: rng.random(), r=2)
        assert len(table.rows) == 31
        orders = [len(row.component) for row in table.rows]
        assert orders == [1] * 5 + [2] * 10 + [3] * 10 + [4] * 5 + [5]

    def test_component_plus_error_equals_total(self):
        space = load_space(json.dumps(space_doc(dc_counts=(3, 4))))
        rng = random.Random(7)
        table = run_anova(space, lambda a, rep: rng.gauss(10, 3), r=3)
        total = sum(row.ss for row in table.rows) + table.error_row.ss
        assert total == pytest.approx(table.total_ss, rel=1e-9)
        pct = sum(row.pct for row in table.rows) + table.error_row.pct
        assert pct == pytest.approx(100.0, abs=1e-6)

    def test_degrees_of_freedom(self):
        space = load_space(json.dumps(space_doc(dc_counts=(3,))))
        table = run_anova(space, lambda a, rep: random.random(), r=2)
        by_label = {row.label: row for row in table.rows}
        assert by_label["cpu"].df == 1
        assert by_label["w"].df == 2
        assert by_label["cpu*w"].df == 2
        assert table.error_row.df == 6 * 1

    def test_r1_rejected(self, small_space, plain_model):
        plan = full_factorial(small_space, r=1, seed=0)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        with pytest.raises(StatsError, match="error term"):
            anova(log, plan)

    def test_unbalanced_rejected(self, small_space, plain_model):
        plan = full_factorial(small_space, r=2, seed=0)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        log._records.pop(next(iter(log._records)))
        with pytest.raises(StatsError, match="unbalanced"):
            anova(log, plan)

    @pytest.mark.parametrize("order", ["reversed", "replicate_major"])
    def test_trial_order_leaves_the_table(self, small_space, order):
        plan = full_factorial(small_space, r=3, seed=0)
        backend = SyntheticBackend(SyntheticModel(baseline=10.0, noise_sd=1.0))
        log = new_log(plan, backend)
        run(plan, backend, log)
        trials = plan.trials[::-1] if order == "reversed" else sorted(plan.trials, key=lambda t: t.replicate)
        assert repr(anova(log, plan._replace(trials=tuple(trials)))) == repr(anova(log, plan))

    def test_unbalanced_named_in_any_trial_order(self, small_space, plain_model):
        plan = full_factorial(small_space, r=2, seed=0)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        gone = plan.trials[5]
        del log._records[(gone.config.id, gone.replicate)]
        for trials in (plan.trials, plan.trials[::-1]):
            with pytest.raises(StatsError, match=f"missing ok measurement for {gone.config.id}/{gone.replicate}"):
                anova(log, plan._replace(trials=trials))

    def test_space_exclusions_named_for_an_incomplete_grid(self):
        space = load_space_file(SCENARIOS / "cpu_space.json")
        plan = full_factorial(space, r=2, seed=0)
        backend = SyntheticBackend(load_model_file(SCENARIOS / "smt_model.json"))
        log = new_log(plan, backend)
        run(plan, backend, log)
        assert log.failed_count() == 0 and len(log) == len(plan.trials)
        with pytest.raises(StatsError, match="exclusions leave the grid incomplete") as err:
            anova(log, plan)
        assert "2808 trials, 1440 level combinations x r 2 need 2880" in str(err.value)

    def test_wrong_plan_method_rejected(self, small_space, plain_model):
        from effattr import paired_plan, simple_random_sample

        dc = simple_random_sample(small_space, ("DC",), 2, seed=0)
        plan = paired_plan(small_space, "ht_on", "ht_off", dc, r=2)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        with pytest.raises(StatsError, match="full_factorial"):
            anova(log, plan)


def _rename_factor(doc):
    doc["metadata"]["factors"][0]["name"] = "renamed"


def _rename_label(doc):
    doc["metadata"]["factors"][0]["labels"][0] = "renamed"


def _set_replicate(value):
    def edit(doc):
        doc["trials"][0]["replicate"] = value

    return edit


def _trimmed_cpu_space(exclusions):
    """``cpu_space.json`` with three levels of ``workload`` and of ``threads``:
    126 valid configurations under its two exclusions, 162 without them."""
    doc = json.loads((SCENARIOS / "cpu_space.json").read_text())
    keep = {"workload": ("fluid_sim", "stencil", "fft"), "threads": ("t1", "t12", "t24")}
    for f in doc["factors"]:
        if f["name"] in keep:
            f["levels"] = [level for level in f["levels"] if level["label"] in keep[f["name"]]]
    if not exclusions:
        doc["exclusions"] = []
    return doc


def _edit_factors(rng, factors):
    """One random edit of a plan's ``metadata.factors``, in place; its name."""
    f = rng.choice(factors) if factors else {"name": "new", "labels": []}
    every_label = [lab for g in factors for lab in g["labels"]] + ["renamed"]
    edits = {
        "copy a factor": lambda: factors.insert(
            rng.randrange(len(factors) + 1),
            {"name": f["name"], "labels": rng.sample(f["labels"], rng.randrange(len(f["labels"]) + 1))},
        ),
        "repeat a label": lambda: f["labels"] and f["labels"].insert(
            rng.randrange(len(f["labels"]) + 1), rng.choice(f["labels"])
        ),
        "drop a label": lambda: f["labels"] and f["labels"].pop(rng.randrange(len(f["labels"]))),
        "drop every label": lambda: f["labels"].clear(),
        "drop a factor": lambda: factors and factors.remove(f),
        "rename a factor": lambda: f.update(name=rng.choice([g["name"] for g in factors] + ["renamed"])),
        "relabel": lambda: f["labels"] and f["labels"].__setitem__(
            rng.randrange(len(f["labels"])), rng.choice(every_label)
        ),
        "shuffle labels": lambda: rng.shuffle(f["labels"]),
        "shuffle factors": lambda: rng.shuffle(factors),
        "add a label": lambda: f["labels"].append(rng.choice(every_label)),
    }
    name = rng.choice(sorted(edits))
    edits[name]()
    return name


class TestLoadedPlanChecks:
    """A loaded full plan whose trials do not fit its own structure exits 1."""

    @pytest.mark.parametrize("edit", [_rename_factor, _rename_label], ids=["factor-name", "label"])
    def test_mismatched_plan_is_a_domain_error(self, tmp_path, capsys, edit):
        plan_path, log_path = tmp_path / "full.json", tmp_path / "full.jsonl"
        argv = ["plan", "full", "--space", SCENARIOS / "cpu_space_complete.json", "--plan-out", plan_path, "--r", "2"]
        assert main([str(a) for a in argv]) == 0
        doc = json.loads(plan_path.read_text())
        factors = doc["metadata"]["factors"]
        first = doc["trials"][0]
        original = {"name": factors[0]["name"], "label": factors[0]["labels"][0]}
        edit(doc)
        plan_path.write_text(json.dumps(doc))
        backend = f"synthetic:{SCENARIOS / 'smt_model.json'}"
        assert main(["run", "--plan", str(plan_path), "--log", str(log_path), "--backend", backend]) == 0
        capsys.readouterr()
        assert main(["analyze", "anova", "--plan", str(plan_path), "--log", str(log_path)]) == 1
        out, err = capsys.readouterr()
        config = f"anova: configuration {assignment_id(first['assignment'])}"
        expected = {
            _rename_factor: (
                f"{config} sets factors {sorted(first['assignment'])}, "
                f"but the plan's metadata.factors names {sorted(f['name'] for f in factors)}"
            ),
            _rename_label: (
                f"{config} sets {original['name']}={original['label']!r}, "
                "a label that the plan's metadata.factors does not list"
            ),
        }[edit]
        assert (out, err) == ("", f"error: {expected}\n")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda factors: factors.insert(1, {"name": "smt", "labels": ["smt_on"]}),
                "metadata.factors[1].name: 'smt' repeats metadata.factors[0].name",
            ),
            (
                lambda factors: factors[2]["labels"].insert(1, "small"),
                "metadata.factors[2].labels[1]: 'small' repeats labels[0]",
            ),
        ],
        ids=["factor-twice", "label-twice"],
    )
    def test_repeated_factor_or_label_is_rejected_at_load(self, tmp_path, capsys, edit, message):
        plan_path, log_path = tmp_path / "full.json", tmp_path / "full.jsonl"
        argv = ["plan", "full", "--space", SCENARIOS / "cpu_space_complete.json", "--plan-out", plan_path]
        assert main([str(a) for a in argv + ["--r", 3, "--seed", 7]]) == 0
        doc = json.loads(plan_path.read_text())
        edit(doc["metadata"]["factors"])
        plan_path.write_text(json.dumps(doc))
        backend = f"synthetic:{SCENARIOS / 'smt_model.json'}"
        expected = ("", f"error: malformed plan document: {message}\n")
        capsys.readouterr()
        assert main(["run", "--plan", str(plan_path), "--log", str(log_path), "--backend", backend]) == 1
        assert capsys.readouterr() == expected
        assert main(["analyze", "anova", "--plan", str(plan_path), "--log", str(log_path)]) == 1
        assert capsys.readouterr() == expected

    def test_edited_factor_metadata_never_escapes(self, tmp_path, capsys):
        """300 seeded edits of ``metadata.factors``, each run and analyzed
        through ``main``: every step exits 0 or 1, with any error on stderr."""
        rng = random.Random(20)
        backend = f"synthetic:{SCENARIOS / 'smt_model.json'}"
        plans = {}
        for exclusions in (True, False):
            space_path, plan_path = tmp_path / "space.json", tmp_path / "full.json"
            space_path.write_text(json.dumps(_trimmed_cpu_space(exclusions)))
            argv = ["plan", "full", "--space", str(space_path), "--plan-out", str(plan_path), "--r", "2"]
            assert main(argv + ["--seed", "7"]) == 0
            plans[exclusions] = json.loads(plan_path.read_text())
        escapes, exits = [], Counter()
        for i in range(300):
            doc = copy.deepcopy(plans[i % 2 == 0])
            edits = [_edit_factors(rng, doc["metadata"]["factors"]) for _ in range(rng.randint(1, 3))]
            plan_path, log_path = tmp_path / f"plan{i}.json", tmp_path / f"log{i}.jsonl"
            plan_path.write_text(json.dumps(doc))
            try:
                code = main(["run", "--plan", str(plan_path), "--log", str(log_path), "--backend", backend])
                if code == 0:
                    code = main(["analyze", "anova", "--plan", str(plan_path), "--log", str(log_path)])
            except BaseException as err:  # an escape of any kind is what the fuzz looks for
                escapes.append((i, edits, repr(err)))
                continue
            out, err = capsys.readouterr()
            assert code in (0, 1) and (code == 0) == (err == ""), (i, edits, code, err)
            exits[code] += 1
        assert escapes == []
        assert exits[0] and exits[1]  # some edits leave a table, and some are refused

    @pytest.mark.parametrize("replicate", [10**30, -1, 2], ids=["replicate-huge", "replicate-negative", "replicate-r"])
    def test_replicate_outside_the_plan_is_rejected_at_load(self, tmp_path, capsys, replicate):
        plan_path, log_path = tmp_path / "full.json", tmp_path / "full.jsonl"
        argv = ["plan", "full", "--space", SCENARIOS / "cpu_space_complete.json", "--plan-out", plan_path, "--r", "2"]
        assert main([str(a) for a in argv]) == 0
        doc = json.loads(plan_path.read_text())
        _set_replicate(replicate)(doc)
        plan_path.write_text(json.dumps(doc))
        backend = f"synthetic:{SCENARIOS / 'smt_model.json'}"
        expected = f"error: malformed plan document: trials[0].replicate: must be in 0..1, got {replicate}\n"
        capsys.readouterr()
        assert main(["run", "--plan", str(plan_path), "--log", str(log_path), "--backend", backend]) == 1
        assert capsys.readouterr() == ("", expected)
        assert not log_path.exists()
        assert main(["analyze", "anova", "--plan", str(plan_path), "--log", str(log_path)]) == 1
        assert capsys.readouterr() == ("", expected)

    def test_anova_still_checks_replicates_of_a_plan_built_in_memory(self):
        space = two_factor_space(2, 2)
        plan = full_factorial(space, r=2, seed=0)
        backend = TableBackend(lambda a, rep: rep)
        log = new_log(plan, backend)
        run(plan, backend, log)
        first = plan.trials[0]
        edited = plan._replace(trials=(first._replace(replicate=2),) + plan.trials[1:])
        with pytest.raises(StatsError) as err:
            anova(log, edited)
        assert str(err.value) == f"anova: trial {first.config.id}/2 has a replicate outside 0..1"

    def test_factor_named_twice_in_memory_is_a_stats_error(self):
        # Files are checked at load; a plan built in memory meets the same
        # rule, in the same words, when anova reads its factors.
        plan = full_factorial(load_space_file(SCENARIOS / "cpu_space_complete.json"), r=2, seed=0)
        backend = SyntheticBackend(load_model_file(SCENARIOS / "smt_model.json"))
        log = new_log(plan, backend)
        run(plan, backend, log)
        factors = list(plan.metadata["factors"])
        factors.insert(1, {"name": "smt", "labels": ["smt_on"]})
        edited = plan._replace(metadata={**plan.metadata, "factors": factors})
        with pytest.raises(StatsError) as err:
            anova(log, edited)
        assert str(err.value) == "anova: metadata.factors[1].name: 'smt' repeats metadata.factors[0].name"

    def test_label_set_by_no_trial_is_named(self, tmp_path, capsys):
        # The space has no exclusions: the grid is incomplete only because
        # metadata.factors lists a label that no trial uses.
        plan_path, log_path = tmp_path / "full.json", tmp_path / "full.jsonl"
        argv = ["plan", "full", "--space", SCENARIOS / "cpu_space_complete.json", "--plan-out", plan_path, "--r", "2"]
        assert main([str(a) for a in argv]) == 0
        doc = json.loads(plan_path.read_text())
        factor = doc["metadata"]["factors"][2]
        factor["labels"].append("unused")
        plan_path.write_text(json.dumps(doc))
        backend = f"synthetic:{SCENARIOS / 'smt_model.json'}"
        assert main(["run", "--plan", str(plan_path), "--log", str(log_path), "--backend", backend]) == 0
        capsys.readouterr()
        assert main(["analyze", "anova", "--plan", str(plan_path), "--log", str(log_path)]) == 1
        j = len(factor["labels"]) - 1
        expected = f"error: anova: metadata.factors[2].labels[{j}]: no trial sets {factor['name']}='unused'\n"
        assert capsys.readouterr() == ("", expected)


def oracle_two_factor(y):
    """Brute-force two-way decomposition from marginal means (independent path)."""
    la, lb, r = y.shape
    grand = y.mean()
    ya = y.mean(axis=(1, 2))
    yb = y.mean(axis=(0, 2))
    yab = y.mean(axis=2)
    ss_a = r * lb * ((ya - grand) ** 2).sum()
    ss_b = r * la * ((yb - grand) ** 2).sum()
    ss_ab = r * ((yab - ya[:, None] - yb[None, :] + grand) ** 2).sum()
    ss_err = ((y - yab[..., None]) ** 2).sum()
    return ss_a, ss_b, ss_ab, ss_err


class TestOracleEquivalence:
    def test_random_two_factor_designs(self):
        rng = random.Random(99)
        for trial in range(50):
            la = rng.randint(2, 4)
            lb = rng.randint(2, 4)
            r = rng.randint(2, 3)
            space = two_factor_space(la, lb)
            y = np.array(
                [[[rng.gauss(0, 5) for _ in range(r)] for _ in range(lb)] for _ in range(la)]
            )
            idx = {f"a{i}": i for i in range(la)}
            idx.update({f"w{j}": j for j in range(lb)})

            def fn(a, rep, y=y, idx=idx):
                return y[idx[a["cpu"]], idx[a["w"]], rep]

            table = run_anova(space, fn, r=r)
            ss_a, ss_b, ss_ab, ss_err = oracle_two_factor(y)
            by_label = {row.label: row for row in table.rows}
            assert by_label["cpu"].ss == pytest.approx(ss_a, rel=1e-9, abs=1e-9)
            assert by_label["w"].ss == pytest.approx(ss_b, rel=1e-9, abs=1e-9)
            assert by_label["cpu*w"].ss == pytest.approx(ss_ab, rel=1e-9, abs=1e-9)
            assert table.error_row.ss == pytest.approx(ss_err, rel=1e-9, abs=1e-9)


class TestPlantedEffects:
    def test_recovers_main_effect_shares(self):
        # zero-interaction model with known per-factor variance contributions
        space = load_space(json.dumps(space_doc(cui_levels=("c0", "c1", "c2"), dc_counts=(4, 5))))
        rng = random.Random(11)
        mains = {}
        for factor in space.factors:
            for lab in factor.labels():
                mains[(factor.name, lab)] = rng.uniform(-6, 6)
        model = SyntheticModel(baseline=50.0, main_effects=mains, noise_sd=0.05)
        plan = full_factorial(space, r=3, seed=5)
        backend = SyntheticBackend(model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        table = anova(log, plan, alpha=0.01)

        def analytic_var(factor):
            effects = [mains[(factor.name, lab)] for lab in factor.labels()]
            mean = sum(effects) / len(effects)
            return sum((e - mean) ** 2 for e in effects) / len(effects)

        variances = {f.name: analytic_var(f) for f in space.factors}
        total = sum(variances.values())
        by_label = {row.label: row for row in table.rows}
        for name, var in variances.items():
            assert by_label[name].pct == pytest.approx(100 * var / total, abs=2.0)
            assert by_label[name].significant


# -- numpy's summation order -------------------------------------------------------


def numpy_anova(log, plan, alpha=0.01):
    """``anova`` as it was computed with numpy: the oracle of its bytes."""
    import itertools

    r = plan.r
    names = [f["name"] for f in plan.metadata["factors"]]
    labels = [list(f["labels"]) for f in plan.metadata["factors"]]
    k = len(names)
    shape = tuple(len(labs) for labs in labels) + (r,)
    n_cells = math.prod(shape[:-1])
    y = np.full(shape, np.nan)
    for trial in plan.trials:
        cell = tuple(labs.index(trial.config.assignment[name]) for name, labs in zip(names, labels))
        y[cell + (trial.replicate,)] = log.ok_value(trial.config.id, trial.replicate)
    assert not np.isnan(y).any()

    grand = y.mean()
    cell_means = y.mean(axis=-1)
    total_ss = float(((y - grand) ** 2).sum())
    error_ss = float(((y - cell_means[..., None]) ** 2).sum())
    error_df = n_cells * (r - 1)
    max_abs = float(np.abs(y).max()) if y.size else 0.0
    floor = y.size * (16 * np.finfo(float).eps * max(1.0, max_abs)) ** 2
    marginals = {}
    for order in range(0, k + 1):
        for subset in itertools.combinations(range(k), order):
            axes = tuple(i for i in range(k) if i not in subset)
            marginals[frozenset(subset)] = cell_means.mean(axis=axes, keepdims=True) if axes else cell_means
    error_ms = error_ss / error_df
    rows = []
    for order in range(1, k + 1):
        for subset in itertools.combinations(range(k), order):
            effect = np.zeros_like(marginals[frozenset(subset)])
            for t_order in range(0, order + 1):
                sign = (-1) ** (order - t_order)
                for t_subset in itertools.combinations(subset, t_order):
                    effect = effect + sign * marginals[frozenset(t_subset)]
            outside = math.prod(shape[i] for i in range(k) if i not in subset)
            ss = float(r * outside * (effect**2).sum())
            df = math.prod(shape[i] - 1 for i in subset)
            f_crit = f_quantile(alpha, df, error_df)
            if ss <= floor:
                ss, f_comp, significant = 0.0, 0.0, False
            elif error_ms <= floor / max(error_df, 1):
                f_comp, significant = math.inf, True
            else:
                f_comp = (ss / df) / error_ms
                significant = f_comp > f_crit
            rows.append(AnovaRow(tuple(names[i] for i in subset), ss, df, 0.0, f_comp, f_crit, significant))
    if total_ss <= floor:
        total_ss = error_ss = 0.0

    def pct_of(ss):
        return 100.0 * ss / total_ss if total_ss > 0 else 0.0

    rows = [row._replace(pct=pct_of(row.ss)) for row in rows]
    return AnovaTable(tuple(rows), ErrorRow(error_ss, error_df, pct_of(error_ss)), total_ss, alpha)


def _bits(xs):
    return [float(x).hex() for x in xs]


@st.composite
def reductions(draw):
    """A C-order array of mixed magnitudes with some signed zeros, and the axes to sum."""
    if draw(st.booleans()):
        dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    else:  # a long axis: runs of more than 128 values, split in halves
        dims = draw(st.lists(st.integers(1, 4), min_size=0, max_size=2))
        dims.insert(draw(st.integers(0, len(dims))), draw(st.integers(100, 1000)))
    axes = sorted(draw(st.sets(st.integers(0, len(dims) - 1), min_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(dims) * 10.0 ** rng.integers(-12, 13, size=dims)
    x[rng.random(dims) < 0.05] = -0.0
    x[rng.random(dims) < 0.02] = 0.0
    return x, axes


def _mixed(rng, shape):
    """Values of mixed magnitudes and signs; a few, or most, are zeros of either sign."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 13, size=shape)
    zero = rng.random(shape) < rng.choice([0.15, 0.9])
    x[zero] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)[zero]
    return x


class TestNumpyOrder:
    @settings(max_examples=200, deadline=None)
    @given(reductions())
    def test_sum_is_numpy_sum_bit_for_bit(self, case):
        x, axes = case
        expected = np.sum(x, axis=tuple(axes), keepdims=True).ravel().tolist()
        assert _bits(array_sum(x.ravel().tolist(), x.shape, axes)) == _bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=6),
        kept_bits=st.integers(0, 2**6 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spread_is_broadcast_to(self, dims, kept_bits, seed):
        kept = [i for i in range(len(dims)) if kept_bits >> i & 1]
        x = _mixed(np.random.default_rng(seed), [d if i in kept else 1 for i, d in enumerate(dims)])
        expected = np.broadcast_to(x, dims).ravel().tolist()
        assert _bits(spread(x.ravel().tolist(), dims, kept)) == _bits(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        factor_bits=st.integers(0, 2**5 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_effects_are_numpy_effects(self, dims, factor_bits, seed):
        import itertools

        factors = [i for i in range(len(dims)) if factor_bits >> i & 1]
        rng = np.random.default_rng(seed)
        marginals = {}  # any values, by subset, with numpy's keepdims shape
        for order in range(len(factors) + 1):
            for subset in itertools.combinations(factors, order):
                marginals[subset] = _mixed(rng, [d if i in subset else 1 for i, d in enumerate(dims)])
        flat = {subset: m.ravel().tolist() for subset, m in marginals.items()}
        expected = []
        for order in range(1, len(factors) + 1):
            for subset in itertools.combinations(factors, order):
                effect = np.zeros_like(marginals[subset])
                for t_order in range(order + 1):
                    sign = (-1) ** (order - t_order)
                    for t_subset in itertools.combinations(subset, t_order):
                        effect = effect + sign * marginals[t_subset]
                expected.append((subset, _bits(effect.ravel().tolist())))
        assert [(subset, _bits(cells)) for subset, cells in effects(flat, dims, factors)] == expected

    @settings(max_examples=40, deadline=None)
    @given(
        levels=st.lists(st.integers(2, 4), min_size=1, max_size=6).filter(lambda ls: math.prod(ls) <= 400),
        r=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-9, 1.0, 1e9]),
        constant=st.booleans(),
    )
    @example(levels=[3, 2, 3, 2, 2, 4], r=2, seed=3, scale=1.0, constant=False)  # 6 factors, the most supported
    def test_table_is_numpy_table(self, levels, r, seed, scale, constant):
        cui = tuple(f"c{i}" for i in range(levels[0]))
        space = load_space(json.dumps(space_doc(cui_levels=cui, dc_counts=tuple(levels[1:]))))
        rng = random.Random(seed)
        fn = (lambda a, rep: 0.1 * scale) if constant else (lambda a, rep: rng.gauss(100.0, 5.0) * scale)
        plan = full_factorial(space, r=r, seed=0)
        backend = TableBackend(fn)
        log = new_log(plan, backend)
        run(plan, backend, log)
        assert repr(anova(log, plan)) == repr(numpy_anova(log, plan))

    def test_grid_follows_the_order_of_metadata_labels(self):
        space = load_space(json.dumps(space_doc(dc_counts=(3, 2))))
        rng = random.Random(2)
        plan = full_factorial(space, r=2, seed=0)
        backend = TableBackend(lambda a, rep: rng.gauss(50.0, 5.0))
        log = new_log(plan, backend)
        run(plan, backend, log)
        factors = copy.deepcopy(plan.metadata["factors"])
        factors[1]["labels"].reverse()  # trials stay in the order of the space's labels
        relabeled = plan._replace(metadata={**plan.metadata, "factors": factors})
        assert repr(anova(log, relabeled)) == repr(numpy_anova(log, relabeled))

    def test_benchmark_grid_is_numpy_table(self):
        plan = full_factorial(load_space_file(SCENARIOS / "cpu_space_complete.json"), r=3, seed=7)
        backend = SyntheticBackend(load_model_file(SCENARIOS / "smt_model.json"))
        log = new_log(plan, backend)
        run(plan, backend, log)
        assert repr(anova(log, plan, alpha=0.05)) == repr(numpy_anova(log, plan, alpha=0.05))


class TestSingleLevelFactor:
    def test_rows_are_those_without_the_factor(self):
        full = space_doc(dc_counts=(3, 1, 2))
        without = copy.deepcopy(full)
        del without["factors"][2]  # "t", with the one level t0
        rng = random.Random(5)
        values = {}

        def fn(a, rep):
            return values.setdefault((a["cpu"], a["w"], a["d"], rep), rng.gauss(20.0, 4.0))

        with_t = run_anova(load_space(json.dumps(full)), fn, r=2)
        without_t = run_anova(load_space(json.dumps(without)), fn, r=2)
        assert [row.label for row in with_t.rows] == ["cpu", "w", "d", "cpu*w", "cpu*d", "w*d", "cpu*w*d"]
        assert repr(with_t) == repr(without_t)

    def test_cli_analyzes_a_space_with_a_single_level_factor(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "cpu_space_complete.json").read_text())
        dataset = next(f for f in doc["factors"] if f["name"] == "dataset")
        dataset["levels"] = dataset["levels"][:1]
        space, plan, log = tmp_path / "space.json", tmp_path / "full.json", tmp_path / "full.jsonl"
        space.write_text(json.dumps(doc))
        backend = f"synthetic:{SCENARIOS / 'smt_model.json'}"
        assert main(["plan", "full", "--space", str(space), "--plan-out", str(plan), "--r", "2"]) == 0
        assert main(["run", "--plan", str(plan), "--log", str(log), "--backend", backend]) == 0
        capsys.readouterr()
        assert main(["analyze", "anova", "--plan", str(plan), "--log", str(log), "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        components = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert err == "" and len(components) == 15 + 1
        assert not any("dataset" in c for c in components)
