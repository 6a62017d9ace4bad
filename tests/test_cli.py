"""Command-line surface: outputs, exit codes, determinism, round trips."""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from effattr import (
    ModelError,
    PlanError,
    RunError,
    ScenarioError,
    SpaceError,
    StatsError,
    cli,
    design,
    load_plan,
    load_space_file,
    runner,
)
from effattr.cli import main
from conftest import colliding_doc, ended, running, space_doc

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def ws(tmp_path):
    """Workspace with a paper-scale space, a small space, and a model."""
    paths = {}
    paths["big_space"] = tmp_path / "big_space.json"
    paths["big_space"].write_text(json.dumps(space_doc(dc_counts=(10, 10, 1, 3, 60))))
    paths["space"] = tmp_path / "space.json"
    paths["space"].write_text(json.dumps(space_doc(dc_counts=(5, 4))))
    paths["model"] = tmp_path / "model.json"
    paths["model"].write_text(
        json.dumps(
            {
                "baseline": 10.0,
                "noise_sd": 0.0,
                "unit": "seconds",
                "main_effects": [{"factor": "cpu", "level": "ht_off", "effect": 2.0}],
                "interactions": [],
            }
        )
    )
    paths["dir"] = tmp_path
    return paths


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpaceCommand:
    def test_size_reports_dc_cardinality(self, ws, capsys):
        code, out, _ = run_cli(capsys, "space", "size", ws["big_space"])
        assert code == 0
        assert "DC cardinality: 18000" in out

    def test_labels_with_colliding_ids_are_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "collide.json"
        bad.write_text(json.dumps(colliding_doc()))
        code, _, err = run_cli(capsys, "space", "validate", bad)
        assert code == 1
        assert "factors[1].levels[1]" in err and "newline" in err

    def test_missing_cui_is_domain_error(self, ws, capsys, tmp_path):
        doc = space_doc(dc_counts=(2,))
        doc["factors"][0]["role"] = "DC"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "space", "validate", bad)
        assert code == 1
        assert "CUI" in err

    def test_nonexistent_path_is_io_error(self, ws, capsys):
        code, _, err = run_cli(capsys, "space", "size", ws["dir"] / "nope.json")
        assert code == 2

    def test_too_deeply_nested_document_is_domain_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_cli(capsys, "space", "validate", deep)
        assert code == 1 and out == ""
        assert err.startswith("error: space document is not valid JSON: ") and "recursion" in err


class TestPlanCommand:
    def test_paired_counts_line(self, ws, capsys):
        plan_path = ws["dir"] / "paired.json"
        code, out, _ = run_cli(
            capsys,
            "plan", "paired",
            "--space", ws["big_space"],
            "--plan-out", plan_path,
            "--n", "640", "--r", "3",
            "--cui-a", "ht_off", "--cui-ref", "ht_on",
            "--stratify", "w", "--seed", "5",
        )
        assert code == 0
        assert out.strip() == "configs=1280 trials=3840 cost=640"

    def test_rct_odd_n_rejected(self, ws, capsys):
        code, _, err = run_cli(
            capsys,
            "plan", "rct",
            "--space", ws["space"],
            "--plan-out", ws["dir"] / "rct.json",
            "--n", "9", "--control", "ht_on", "--treatment", "ht_off",
        )
        assert code == 1
        assert "even" in err

    def test_2kr_counts_line(self, ws, capsys):
        split = {
            "cpu": {"low": ["ht_on"], "high": ["ht_off"]},
            "w": {"low": ["w0", "w1"], "high": ["w2", "w3", "w4"]},
            "t": {"low": ["t0", "t1"], "high": ["t2", "t3"]},
        }
        # five factors total in the big space: cpu, w(10), t(10), d(1 via k), o(3), m(60)
        big_split = {
            "cpu": {"low": ["ht_on"], "high": ["ht_off"]},
            "w": {"low": [f"w{i}" for i in range(5)], "high": [f"w{i}" for i in range(5, 10)]},
            "t": {"low": [f"t{i}" for i in range(5)], "high": [f"t{i}" for i in range(5, 10)]},
            "o": {"low": ["o0"], "high": ["o1", "o2"]},
            "m": {"low": [f"m{i}" for i in range(30)], "high": [f"m{i}" for i in range(30, 60)]},
        }
        code, out, _ = run_cli(
            capsys,
            "plan", "2kr",
            "--space", ws["big_space"],
            "--plan-out", ws["dir"] / "2kr.json",
            "--r", "3", "--seed", "2",
            "--split", json.dumps(big_split),
        )
        assert code == 0
        assert out.startswith("configs=32 trials=96")

    @pytest.mark.parametrize(
        "split, message",
        [
            ({"cpu": 5}, "split.cpu: must be an object, got 5"),
            ({"cpu": {"low": 5, "high": ["ht_off"]}}, "split.cpu.low: must be an array, got 5"),
            ({"cpu": {"low": ["ht_on"], "high": [None]}}, "split.cpu.high[0]: must be text, got None"),
            ({"cpu": {"low": ["ht_on"]}}, "split.cpu: missing field 'high'"),
            (["cpu"], "split: must be an object, got ['cpu']"),
        ],
    )
    def test_mistyped_split_names_its_key(self, ws, capsys, split, message):
        code, out, err = run_cli(
            capsys, "plan", "2kr", "--space", ws["space"], "--plan-out", ws["dir"] / "2kr.json", "--split", json.dumps(split)
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_plan_run_round_trip(self, ws, capsys):
        plan_path = ws["dir"] / "rt.json"
        code, _, _ = run_cli(
            capsys,
            "plan", "paired",
            "--space", ws["space"],
            "--plan-out", plan_path,
            "--n", "4", "--r", "2",
            "--cui-a", "ht_off", "--cui-ref", "ht_on", "--seed", "1",
        )
        assert code == 0
        log_path = ws["dir"] / "rt.jsonl"
        code, out, _ = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", f"synthetic:{ws['model']}",
        )
        assert code == 0
        plan = load_plan(plan_path)
        logged = {
            (rec["config_id"], rec["replicate"])
            for rec in map(json.loads, log_path.read_text().splitlines()[1:])
        }
        assert logged == {(t.config.id, t.replicate) for t in plan.trials}


# Paired plans with r 2 list their trials pair by pair, replicates in order,
# arms adjacent: trial 0 is the first pair's arm a at replicate 0. Dropping it
# once moved delta_e from 7.611048 to 7.661716 on the bundled space.
UNIT_EDITS = [
    (lambda trials: trials.pop(0), "trials[1]: its unit has 1 of the replicates 0..1"),
    (lambda trials: trials.insert(1, trials[0]), "trials[1]: repeats trials[0], replicate 0 of the same unit"),
]


def edit_plan(plan_path, edit):
    doc = json.loads(plan_path.read_text())
    edit(doc["trials"])
    plan_path.write_text(json.dumps(doc))


def test_an_interrupt_exits_130_without_a_traceback(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_run", interrupted)
    assert run_cli(capsys, "run", "--plan", "p.json", "--log", "l.jsonl", "--backend", "synthetic:m.json") == (
        130, "", "interrupted\n"
    )


def test_sigterm_or_sighup_exits_128_plus_the_signal(monkeypatch, capsys):
    for sig in (signal.SIGTERM, signal.SIGHUP):
        def terminated(args):
            cli._terminate(sig, None)

        monkeypatch.setattr(cli, "cmd_run", terminated)
        assert run_cli(capsys, "run", "--plan", "p.json", "--log", "l.jsonl", "--backend", "synthetic:m.json") == (
            128 + sig, "", "interrupted\n"
        )


class TestRunCommand:
    def plan(self, ws, capsys, r="2"):
        plan_path = ws["dir"] / "plan.json"
        run_cli(
            capsys,
            "plan", "paired", "--space", ws["space"], "--plan-out", plan_path,
            "--n", "4", "--r", r, "--cui-a", "ht_off", "--cui-ref", "ht_on", "--seed", "3",
        )
        return plan_path

    def test_fresh_then_resume(self, ws, capsys):
        plan_path = self.plan(ws, capsys)
        log_path = ws["dir"] / "log.jsonl"
        code, out, _ = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", f"synthetic:{ws['model']}",
        )
        assert code == 0 and "16 new trials" in out
        code, out, _ = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", f"synthetic:{ws['model']}",
        )
        assert code == 0
        assert "0 new trials" in out

    def test_an_interrupted_run_keeps_its_records_and_resumes(self, ws, capsys, monkeypatch):
        plan_path = self.plan(ws, capsys)
        log_path = ws["dir"] / "log.jsonl"
        backend = f"synthetic:{ws['model']}"
        measure, calls = runner.SyntheticBackend.measure, []

        def interrupted_at_the_sixth(self, trial):
            calls.append(trial)
            if len(calls) == 6:
                raise KeyboardInterrupt
            return measure(self, trial)

        monkeypatch.setattr(runner.SyntheticBackend, "measure", interrupted_at_the_sixth)
        assert run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", backend)[::2] == (
            130, "interrupted\n"
        )
        assert len(log_path.read_text().splitlines()) == 1 + 5
        monkeypatch.setattr(runner.SyntheticBackend, "measure", measure)
        code, out, _ = run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", backend)
        assert code == 0 and "11 new trials" in out

    def test_resume_after_torn_last_record(self, ws, capsys):
        plan_path = self.plan(ws, capsys)
        whole, cut = ws["dir"] / "whole.jsonl", ws["dir"] / "cut.jsonl"
        backend = f"synthetic:{ws['model']}"
        for log_path in (whole, cut):
            run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", backend)
        cut.write_bytes(cut.read_bytes()[:-20])
        code, out, err = run_cli(capsys, "run", "--plan", plan_path, "--log", cut, "--backend", backend)
        assert code == 0 and "1 new trials" in out
        assert "dropped a torn last record" in err
        keys = [(r["config_id"], r["replicate"]) for r in map(json.loads, cut.read_text().splitlines()[1:])]
        assert len(keys) == len(set(keys)) == 16
        assert cut.read_bytes() == whole.read_bytes()
        reports = [
            run_cli(capsys, "analyze", "effect", "--log", log_path, "--plan", plan_path, "--raw")
            for log_path in (whole, cut)
        ]
        assert reports[0] == reports[1] and reports[0][0] == 0

    def test_external_space_must_match_the_plan(self, tmp_path, capsys):
        plan_path, log_path = tmp_path / "plan.json", tmp_path / "log.jsonl"
        code, _, _ = run_cli(
            capsys, "plan", "full", "--space", SCENARIOS / "cpu_space.json",
            "--plan-out", plan_path, "--r", "1", "--seed", "1",
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", "external:echo 1", "--space", SCENARIOS / "cpu_space_complete.json",
        )
        planned = load_plan(plan_path).space_digest[:12]
        given = load_space_file(SCENARIOS / "cpu_space_complete.json").space_digest[:12]
        assert code == 1
        assert "space/plan mismatch" in err and planned in err and given in err
        assert not log_path.exists()

    def test_synthetic_space_must_match_the_plan(self, ws, tmp_path, capsys):
        plan_path, log_path = tmp_path / "plan.json", tmp_path / "log.jsonl"
        code, _, _ = run_cli(
            capsys, "plan", "full", "--space", SCENARIOS / "cpu_space.json",
            "--plan-out", plan_path, "--r", "1", "--seed", "1",
        )
        assert code == 0
        backend = f"synthetic:{ws['model']}"
        code, _, err = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", backend, "--space", SCENARIOS / "cpu_space_complete.json",
        )
        planned = load_plan(plan_path).space_digest[:12]
        given = load_space_file(SCENARIOS / "cpu_space_complete.json").space_digest[:12]
        assert code == 1
        assert f"error: space/plan mismatch: --space has digest {given}, the plan was built on space {planned}" in err
        assert not log_path.exists()
        code, out, _ = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", backend, "--space", SCENARIOS / "cpu_space.json",
        )
        assert code == 0 and out == "1404 new trials, 0 failed\n"

    def test_analyze_rejects_a_log_of_another_plan(self, ws, capsys):
        plans = {seed: ws["dir"] / f"full{seed}.json" for seed in (1, 2)}
        for seed, plan_path in plans.items():
            code, _, _ = run_cli(
                capsys, "plan", "full", "--space", ws["space"], "--plan-out", plan_path,
                "--r", "2", "--seed", seed,
            )
            assert code == 0
        log_path = ws["dir"] / "full1.jsonl"
        code, _, _ = run_cli(capsys, "run", "--plan", plans[1], "--log", log_path, "--backend", f"synthetic:{ws['model']}")
        assert code == 0
        code, _, _ = run_cli(capsys, "analyze", "anova", "--log", log_path, "--plan", plans[1])
        assert code == 0
        code, out, err = run_cli(capsys, "analyze", "anova", "--log", log_path, "--plan", plans[2])
        assert code == 1 and out == ""
        assert "error: log/plan mismatch: log was created for plan" in err

    def test_too_deeply_nested_log_line_is_domain_error(self, ws, capsys):
        plan_path, log_path = ws["dir"] / "full.json", ws["dir"] / "full.jsonl"
        run_cli(capsys, "plan", "full", "--space", ws["space"], "--plan-out", plan_path, "--r", "2")
        run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", f"synthetic:{ws['model']}")
        line = len(log_path.read_text().splitlines()) + 1
        with open(log_path, "a") as fh:
            fh.write("[" * 200_000 + "]" * 200_000 + "\n")
        code, out, err = run_cli(capsys, "analyze", "anova", "--log", log_path, "--plan", plan_path)
        assert code == 1 and out == ""
        assert err.startswith(f"error: run log {log_path}:{line}: malformed record: ") and "recursion" in err

    def test_failing_external_command_gives_partial_code(self, ws, capsys):
        plan_path = self.plan(ws, capsys)
        log_path = ws["dir"] / "fail.jsonl"
        code, out, err = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", "external:exit 3", "--space", ws["space"],
        )
        assert code == 3
        assert "16 failed" in out
        records = [json.loads(line) for line in log_path.read_text().splitlines()[1:]]
        assert all(r["status"] == "failed" for r in records)

    @pytest.mark.parametrize("output", ["nan", "inf", "-inf"])
    def test_non_finite_external_output_is_a_failed_measurement(self, ws, capsys, output):
        plan_path = self.plan(ws, capsys)
        log_path = ws["dir"] / "nonfinite.jsonl"
        code, out, _ = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", f"external:echo {output}", "--space", ws["space"],
        )
        assert code == 3
        assert out == "16 new trials, 16 failed\n"
        records = [json.loads(line) for line in log_path.read_text().splitlines()[1:]]
        assert len(records) == 16
        assert all(r["status"] == "failed" and r["value"] is None for r in records)
        assert {r["reason"] for r in records} == {f"non-finite output {output!r}"}

    def test_external_success_parses_values(self, ws, capsys):
        plan_path = self.plan(ws, capsys)
        log_path = ws["dir"] / "ok.jsonl"
        code, out, _ = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", "external:echo 4.5", "--space", ws["space"],
        )
        assert code == 0
        records = [json.loads(line) for line in log_path.read_text().splitlines()[1:]]
        assert all(r["value"] == 4.5 for r in records)

    def test_a_stray_byte_before_the_last_line_of_output_is_ignored(self, ws, capsys):
        # It once ended the run: error: 'utf-8' codec can't decode byte 0xff, and a header-only log.
        plan_path, log_path = self.plan(ws, capsys), ws["dir"] / "byte.jsonl"
        code, out, err = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", "external:printf '\\377\\n'; echo 1.0", "--space", ws["space"],
        )
        assert (code, out, err) == (0, "16 new trials, 0 failed\n", "")
        records = [json.loads(line) for line in log_path.read_text().splitlines()[1:]]
        assert len(records) == 16 and all(r["status"] == "ok" and r["value"] == 1.0 for r in records)

    def test_a_stray_byte_on_the_last_line_of_output_fails_that_trial_only(self, ws, capsys):
        plan_path, log_path = self.plan(ws, capsys), ws["dir"] / "byte.jsonl"
        code, out, err = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", "external:echo 1.0; if [ {cpu} = ht_on ]; then printf '\\377\\n'; fi", "--space", ws["space"],
        )
        assert (code, out, err) == (3, "16 new trials, 8 failed\n", f"8 failed trial(s) present in {log_path}\n")
        records = [json.loads(line) for line in log_path.read_text().splitlines()[1:]]
        failed = [r for r in records if r["status"] == "failed"]
        assert len(records) == 16 and len(failed) == 8
        assert {r["reason"] for r in failed} == {"unparseable output '�'"}
        assert all(r["value"] == 1.0 for r in records if r["status"] == "ok")

    @pytest.mark.parametrize("template", ["echo {cpu.foo}", "echo {cpu[a]}", "echo {}", "echo {cpu:d}"])
    def test_a_template_that_cannot_be_formatted_is_a_domain_error(self, ws, capsys, template):
        # {cpu.foo} once escaped as an AttributeError traceback, {cpu[a]} as a TypeError.
        plan_path, log_path = self.plan(ws, capsys), ws["dir"] / "template.jsonl"
        code, out, err = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", f"external:{template}", "--space", ws["space"],
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: command template {template!r}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "model,key",
        [('{"main_effects": 3}', "main_effects"), ('{"baseline": NaN}', "baseline")],
    )
    def test_bad_model_exits_before_the_log_is_created(self, ws, capsys, model, key):
        plan_path = self.plan(ws, capsys)
        bad, log_path = ws["dir"] / "bad_model.json", ws["dir"] / "bad.jsonl"
        bad.write_text(model)
        code, out, err = run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", f"synthetic:{bad}")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {key}: must be ")
        assert not log_path.exists()


    @pytest.mark.parametrize("option, value", [("--unit", "ms"), ("--timeout", "0.000001")])
    def test_external_only_options_are_rejected_with_a_synthetic_backend(self, ws, capsys, option, value):
        # Each once ran with exit 0, and the log said "unit": "seconds".
        plan_path, log_path = self.plan(ws, capsys), ws["dir"] / "log.jsonl"
        code, out, err = run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", f"synthetic:{ws['model']}", option, value
        )
        assert (code, out, err) == (1, "", f"error: {option} applies only to the external backend\n")
        assert not log_path.exists()

    @pytest.mark.parametrize("edit, message", UNIT_EDITS)
    def test_a_plan_with_a_broken_unit_is_rejected_before_the_log(self, ws, capsys, edit, message):
        plan_path, log_path = self.plan(ws, capsys), ws["dir"] / "log.jsonl"
        edit_plan(plan_path, edit)
        code, out, err = run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", f"synthetic:{ws['model']}")
        assert (code, out, err) == (1, "", f"error: malformed plan document: {message}\n")
        assert not log_path.exists()


class TestAnalyzeCommand:
    def run_pipeline(self, ws, capsys):
        plan_path = ws["dir"] / "an_plan.json"
        log_path = ws["dir"] / "an_log.jsonl"
        run_cli(
            capsys,
            "plan", "paired", "--space", ws["space"], "--plan-out", plan_path,
            "--n", "4", "--r", "2", "--cui-a", "ht_off", "--cui-ref", "ht_on", "--seed", "3",
        )
        run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", f"synthetic:{ws['model']}",
        )
        return plan_path, log_path

    def test_self_paired_plan_is_rejected(self, ws, capsys):
        plan_path = ws["dir"] / "self_plan.json"
        code, out, err = run_cli(
            capsys,
            "plan", "paired", "--space", ws["space"], "--plan-out", plan_path,
            "--n", "4", "--r", "2", "--cui-a", "ht_on", "--cui-ref", "ht_on", "--seed", "3",
        )
        assert (code, out) == (1, "")
        assert err == "error: a paired plan needs two different CUI levels, got cui_a='ht_on' and cui_ref='ht_on'\n"
        assert not plan_path.exists()

    def test_csv_is_pure_and_stable(self, ws, capsys):
        plan_path, log_path = self.run_pipeline(ws, capsys)
        code, out1, _ = run_cli(
            capsys, "analyze", "effect", "--log", log_path, "--plan", plan_path, "--format", "csv"
        )
        code, out2, _ = run_cli(
            capsys, "analyze", "effect", "--log", log_path, "--plan", plan_path, "--format", "csv"
        )
        assert code == 0 and out1 == out2
        lines = out1.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("delta_e,")
        assert lines[1].split(",")[0] == "2.000000"

    @pytest.mark.parametrize(
        "weights, message",
        [
            (["1", "2", "3", "4"], "--weights[0]: must be a number, got '1'"),
            ([1, 2, True, float("nan")], "--weights[2]: must be a number, got True"),
            ([1, 2, 3, float("nan")], "--weights[3]: must be finite, got nan"),
            ({"w": 1}, "--weights: must be an array, got {'w': 1}"),
        ],
    )
    def test_mistyped_weights_name_their_index(self, ws, capsys, weights, message):
        # [1, 2, true, NaN] once printed delta_e=nan and exited 0.
        plan_path, log_path = self.run_pipeline(ws, capsys)
        weights_path = ws["dir"] / "weights.json"
        weights_path.write_text(json.dumps(weights))
        code, out, err = run_cli(
            capsys, "analyze", "effect", "--average", "weighted", "--weights", weights_path,
            "--log", log_path, "--plan", plan_path,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("average", [[], ["--average", "arithmetic"], ["--average", "geometric"]])
    def test_weights_without_a_weighted_average_are_rejected(self, ws, capsys, average):
        plan_path, log_path = self.run_pipeline(ws, capsys)
        weights_path = ws["dir"] / "weights.json"
        weights_path.write_text(json.dumps([1, 2, 3, 4]))
        code, out, err = run_cli(
            capsys, "analyze", "effect", *average, "--weights", weights_path, "--log", log_path, "--plan", plan_path,
        )
        assert (code, out, err) == (1, "", "error: --weights applies only with --average weighted\n")

    @pytest.mark.parametrize("option, value", [("--average", "weighted"), ("--average", "arithmetic"), ("--weights", "w.json")])
    def test_paired_only_options_are_rejected_on_an_rct_plan(self, ws, capsys, option, value):
        plan_path, log_path = ws["dir"] / "rct.json", ws["dir"] / "rct.jsonl"
        assert run_cli(
            capsys, "plan", "rct", "--space", ws["space"], "--plan-out", plan_path,
            "--n", "4", "--r", "2", "--control", "ht_on", "--treatment", "ht_off",
        )[0] == 0
        assert run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", f"synthetic:{ws['model']}")[0] == 0
        analyze = ("analyze", "effect", "--log", log_path, "--plan", plan_path)
        assert run_cli(capsys, *analyze)[0] == 0
        code, out, err = run_cli(capsys, *analyze, option, value)
        assert (code, out, err) == (1, "", f"error: {option} does not apply to an rct plan\n")

    @pytest.mark.parametrize("edit, message", UNIT_EDITS)
    def test_a_plan_with_a_broken_unit_is_rejected(self, ws, capsys, edit, message):
        plan_path, log_path = self.run_pipeline(ws, capsys)
        logged = log_path.read_bytes()
        edit_plan(plan_path, edit)
        code, out, err = run_cli(capsys, "analyze", "effect", "--log", log_path, "--plan", plan_path)
        assert (code, out, err) == (1, "", f"error: malformed plan document: {message}\n")
        assert log_path.read_bytes() == logged

    @pytest.mark.parametrize("edit, counts", [("drop_ref", "1 in arm 'a' and 0"), ("repeat_pair_id", "2 in arm 'a' and 2")])
    def test_a_pair_without_one_configuration_per_arm_exits_1(self, tmp_path, capsys, edit, counts):
        # Both edits keep every unit whole, so the plan loads and runs. The
        # first once escaped as a KeyError; the second analyzed 9 of 10 pairs.
        plan_path, log_path = tmp_path / "plan.json", tmp_path / "log.jsonl"
        assert run_cli(
            capsys, "plan", "paired", "--space", SCENARIOS / "cpu_space.json", "--plan-out", plan_path,
            "--n", "10", "--r", "2", "--cui-a", "smt_on", "--cui-ref", "smt_off", "--seed", "7",
        )[0] == 0
        doc = json.loads(plan_path.read_text())
        first, second = list(dict.fromkeys(t["pair_id"] for t in doc["trials"]))[:2]
        if edit == "drop_ref":
            doc["trials"] = [t for t in doc["trials"] if (t["pair_id"], t["arm"]) != (first, "ref")]
        else:
            doc["trials"] = [dict(t, pair_id=first) if t["pair_id"] == second else t for t in doc["trials"]]
        plan_path.write_text(json.dumps(doc))
        backend = f"synthetic:{SCENARIOS / 'smt_model.json'}"
        assert run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", backend)[0] == 0
        code, out, err = run_cli(capsys, "analyze", "effect", "--log", log_path, "--plan", plan_path)
        message = f"pair {first!r}: each arm needs exactly one configuration, got {counts} in arm 'ref'"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_bad_alpha_rejected(self, ws, capsys):
        plan_path, log_path = self.run_pipeline(ws, capsys)
        code, _, err = run_cli(
            capsys, "analyze", "effect", "--log", log_path, "--plan", plan_path, "--alpha", "1.5"
        )
        assert code == 1
        assert "alpha" in err

    def test_anova_csv_row_structure(self, ws, capsys, tmp_path):
        # five factors, all binary: 31 component rows + 1 error row + header
        space_path = tmp_path / "anova_space.json"
        space_path.write_text(json.dumps(space_doc(dc_counts=(2, 2, 2, 2))))
        plan_path = tmp_path / "ff.json"
        log_path = tmp_path / "ff.jsonl"
        run_cli(capsys, "plan", "full", "--space", space_path, "--plan-out", plan_path, "--r", "2")
        run_cli(
            capsys, "run", "--plan", plan_path, "--log", log_path,
            "--backend", f"synthetic:{ws['model']}",
        )
        code, out, _ = run_cli(
            capsys, "analyze", "anova", "--log", log_path, "--plan", plan_path, "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 31 + 1
        assert lines[-1].startswith("errors,")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda head: head.pop("space_digest"), "missing field 'space_digest'"),
            (lambda head: head.update(plan_digest=5), "plan_digest: must be text, got 5"),
        ],
    )
    def test_bad_log_header_exits_1(self, ws, capsys, tmp_path, edit, message):
        space_path = tmp_path / "anova_space.json"
        space_path.write_text(json.dumps(space_doc(dc_counts=(2,))))
        plan_path, log_path = tmp_path / "ff.json", tmp_path / "ff.jsonl"
        run_cli(capsys, "plan", "full", "--space", space_path, "--plan-out", plan_path, "--r", "2")
        run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", f"synthetic:{ws['model']}")
        head, *records = log_path.read_text().splitlines(keepends=True)
        head = json.loads(head)
        edit(head)
        log_path.write_text(json.dumps(head) + "\n" + "".join(records))
        code, out, err = run_cli(capsys, "analyze", "anova", "--log", log_path, "--plan", plan_path)
        assert code == 1 and out == ""
        assert err == f"error: run log {log_path}: bad header line: {message}\n"


class TestMetaCommand:
    def scenario_path(self, ws):
        scenario = {
            "space": space_doc(dc_counts=(5, 4)),
            "model": json.loads(ws["model"].read_text()),
            "cui_a": "ht_off",
            "cui_ref": "ht_on",
            "alpha": 0.05,
            "iterations": 25,
            "master_seed": 11,
            "methods": [
                {"kind": "paired", "n": 6, "r": 1, "stratify": "w"},
                {"kind": "rct", "n": 6, "r": 2},
            ],
        }
        path = ws["dir"] / "scenario.json"
        path.write_text(json.dumps(scenario))
        return path

    def test_zero_noise_paired_accuracy_one(self, ws, capsys):
        code, out, err = run_cli(capsys, "meta", "--scenario", self.scenario_path(ws))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,cost,accuracy,mean_ci_width,iterations,ground_truth"
        paired_line = lines[1].split(",")
        assert paired_line[0] == "paired-6"
        assert paired_line[2] == "1.000000"
        assert "ground truth" in err

    def test_byte_identical_given_seed(self, ws, capsys):
        path = self.scenario_path(ws)
        _, out1, _ = run_cli(capsys, "meta", "--scenario", path, "--format", "csv")
        _, out2, _ = run_cli(capsys, "meta", "--scenario", path, "--format", "csv")
        assert out1.encode() == out2.encode()

    def test_zero_iterations_rejected(self, ws, capsys):
        doc = json.loads(self.scenario_path(ws).read_text())
        doc["iterations"] = 0
        bad = ws["dir"] / "bad_scenario.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "meta", "--scenario", bad)
        assert code == 1
        assert "iterations" in err

    def test_out_flag_writes_file(self, ws, capsys):
        path = self.scenario_path(ws)
        out_file = ws["dir"] / "table.csv"
        code, out, _ = run_cli(capsys, "meta", "--scenario", path, "--out", out_file)
        assert code == 0
        assert out == ""
        assert out_file.read_text().startswith("method,")


@pytest.mark.parametrize(
    "error,code,prefix",
    [
        (SpaceError, 1, "error"),
        (PlanError, 1, "error"),
        (RunError, 1, "error"),
        (StatsError, 1, "error"),
        (ScenarioError, 1, "error"),
        (ModelError, 1, "error"),
        (ValueError, 1, "error"),
        (OSError, 2, "io error"),
    ],
)
def test_exit_code_of_an_error_raised_by_a_subcommand(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_space", fail)
    assert run_cli(capsys, "space", "size", "any.json") == (code, "", f"{prefix}: boom\n")


def test_other_errors_are_not_mapped_to_exit_codes(monkeypatch):
    def fail(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_space", fail)
    with pytest.raises(KeyError):
        main(["space", "size", "any.json"])


def test_import_leaves_numpy_unloaded(ws):
    # effattr needs no numpy: not to import, and not for an ANOVA either.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    plan, log = ws["dir"] / "full.json", ws["dir"] / "full.jsonl"
    steps = [
        ["plan", "full", "--space", ws["space"], "--plan-out", plan, "--r", "2"],
        ["run", "--plan", plan, "--log", log, "--backend", f"synthetic:{ws['model']}"],
        ["analyze", "anova", "--plan", plan, "--log", log, "--out", ws["dir"] / "table.md"],
    ]
    code = (
        "import sys, effattr, effattr.cli; print('numpy' in sys.modules); "
        f"print([effattr.cli.main(argv) for argv in {[[str(a) for a in step] for step in steps]!r}], "
        "'numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "[0, 0, 0] False")
    assert (ws["dir"] / "table.md").read_text().startswith("| component |")


def accepted_options() -> dict[tuple[str, str | None], set[str]]:
    """The long options each (subcommand, method/action/kind) accepts, ``--help`` aside."""

    def options(parser):
        return {o for a in parser._actions for o in a.option_strings if o.startswith("--") and o != "--help"}

    accepted = {}
    (commands,) = [a.choices for a in cli.build_parser()._actions if a.choices]
    for command, parser in commands.items():
        # plan and analyze branch to a parser per method or kind, space to an action of its own parser
        (branch,) = [a.choices for a in parser._actions if a.choices and not a.option_strings] or [[None]]
        for name in branch:
            accepted[command, name] = options(branch[name] if isinstance(branch, dict) else parser)
    return accepted


_PLAN = {"--space", "--plan-out", "--r", "--seed", "--out"}
_ANALYZE = {"--log", "--plan", "--alpha", "--format", "--raw", "--out"}


def test_each_subcommand_takes_only_the_options_it_reads():
    expected = {
        ("space", "validate"): {"--out"},
        ("space", "size"): {"--out"},
        ("plan", "full"): _PLAN | {"--budget"},
        ("plan", "2kr"): _PLAN | {"--split", "--stratify"},
        ("plan", "rct"): _PLAN | {"--n", "--control", "--treatment"},
        ("plan", "paired"): _PLAN | {"--n", "--cui-a", "--cui-ref", "--stratify"},
        ("analyze", "effect"): _ANALYZE | {"--average", "--weights", "--mu0", "--aggregate"},
        ("analyze", "anova"): _ANALYZE,
    }
    accepted = accepted_options()
    run = accepted.pop(("run", None), None)
    meta = accepted.pop(("meta", None), None)
    assert accepted == expected
    assert run == {"--plan", "--log", "--backend", "--space", "--parallelism", "--retry", "--unit", "--timeout", "--out"}
    assert meta == {"--scenario", "--format", "--raw", "--out"}
    assert sum(map(len, expected.values())) + len(run) + len(meta) == 61


@pytest.mark.parametrize(
    "argv, message",
    [
        (["meta", "--scenario", "s.json", "--alpha", "0.5"], "unrecognized arguments: --alpha 0.5"),
        (["run", "--plan", "p.json", "--log", "l.jsonl", "--backend", "synthetic:m.json", "--seed", "5"],
         "unrecognized arguments: --seed 5"),
        (["plan", "rct", "--space", "s.json", "--plan-out", "p.json", "--n", "4", "--control", "a", "--treatment", "b",
          "--stratify", "w"], "unrecognized arguments: --stratify w"),
        (["plan", "full", "--space", "s.json", "--plan-out", "p.json", "--n", "4"], "unrecognized arguments: --n 4"),
        (["analyze", "anova", "--plan", "p.json", "--log", "l.jsonl", "--mu0", "1"], "unrecognized arguments: --mu0 1"),
        (["analyze", "ttest", "--plan", "p.json", "--log", "l.jsonl"], "invalid choice: 'ttest'"),
    ],
)
def test_an_option_the_subcommand_does_not_read_exits_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "paired", "--space", "s.json", "--plan-out", "p.json", "--n", "4", "--cui-a", "a", "--cui-ref", "b",
         "--cui-r", "b"],
        ["plan", "paired", "--space", "s.json", "--plan-out", "p.json", "--n", "4", "--cui-a", "a", "--cui-ref", "b",
         "--se", "1"],
        ["plan", "paired", "--space", "s.json", "--plan-out", "p.json", "--n", "4", "--cui-a", "a", "--cui-ref", "b",
         "--st", "workload"],
        ["analyze", "effect", "--plan", "p.json", "--log", "l.jsonl", "--ave", "geometric"],
        ["analyze", "effect", "--plan", "p.json", "--log", "l.jsonl", "--al", "0.05"],
    ],
)
def test_an_abbreviated_option_exits_1(capsys, argv):
    # Each once ran as if spelled in full.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


class TestParserReuse:
    """Repeated ``main`` calls in one process share one parser, never a namespace."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Each namespace a subcommand receives, recorded before it runs."""
        seen = []
        for name in ("cmd_plan", "cmd_analyze"):

            def record(args, real=getattr(cli, name)):
                seen.append(vars(args).copy())
                return real(args)

            monkeypatch.setattr(cli, name, record)
        return seen

    def test_an_option_set_in_one_call_is_unset_in_the_next(self, ws, capsys, seen):
        paired = ws["dir"] / "paired.json"
        full = ws["dir"] / "full.json"
        assert run_cli(
            capsys, "plan", "paired", "--space", ws["space"], "--plan-out", paired,
            "--n", 5, "--cui-a", "ht_off", "--cui-ref", "ht_on",
        )[0] == 0
        assert run_cli(capsys, "plan", "full", "--space", ws["space"], "--plan-out", full)[0] == 0
        assert [(s["method"], s.get("n"), s.get("cui_a")) for s in seen] == [("paired", 5, "ht_off"), ("full", None, None)]
        assert load_plan(full).method == "full_factorial"
        # Without --n, rct still asks for it.
        code, _, err = run_cli(
            capsys, "plan", "rct", "--space", ws["space"], "--plan-out", ws["dir"] / "rct.json",
            "--control", "ht_on", "--treatment", "ht_off",
        )
        assert code == 1 and "the following arguments are required: --n" in err

    def test_raw_does_not_carry_over_to_the_next_call(self, ws, capsys, seen):
        plan_path, log_path = ws["dir"] / "paired.json", ws["dir"] / "paired.jsonl"
        assert run_cli(
            capsys, "plan", "paired", "--space", ws["space"], "--plan-out", plan_path,
            "--n", 5, "--cui-a", "ht_off", "--cui-ref", "ht_on",
        )[0] == 0
        assert run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", f"synthetic:{ws['model']}")[0] == 0
        analyze = ("analyze", "effect", "--plan", plan_path, "--log", log_path)
        raw, plain = run_cli(capsys, *analyze, "--raw"), run_cli(capsys, *analyze)
        assert [s["raw"] for s in seen[1:]] == [True, False]
        assert raw[1].startswith("delta_e=2.0 verdict=")
        assert plain[1].startswith("delta_e=2.000000 verdict=")

    def test_a_subcommand_replaced_after_a_call_is_the_one_called(self, ws, capsys, monkeypatch):
        assert run_cli(capsys, "space", "size", ws["space"])[0] == 0
        monkeypatch.setattr(cli, "cmd_space", lambda args: 3)
        assert run_cli(capsys, "space", "size", ws["space"]) == (3, "", "")
        assert cli.build_parser() is cli.build_parser()

    def test_import_does_not_build_the_parser(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import effattr.cli as cli; print(cli.build_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "0"


class TestPlanValuesOfTheMethod:
    """A plan's group, pair id and arm must be values its method writes."""

    def plan(self, capsys, tmp_path, *argv):
        plan_path = tmp_path / "plan.json"
        assert run_cli(capsys, "plan", *argv, "--plan-out", plan_path, "--r", "2", "--seed", "7")[0] == 0
        return plan_path, json.loads(plan_path.read_text())

    def test_a_unit_of_arm_b_is_rejected(self, tmp_path, capsys):
        # It once ran, and analyze effect exited 0 with the unedited delta_e.
        plan_path, doc = self.plan(
            capsys, tmp_path, "paired", "--space", SCENARIOS / "cpu_space.json", "--n", "10",
            "--cui-a", "smt_on", "--cui-ref", "smt_off",
        )
        log_path, backend = tmp_path / "log.jsonl", f"synthetic:{SCENARIOS / 'smt_model.json'}"
        assert run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", backend)[0] == 0
        logged = log_path.read_bytes()
        # The first pair's `a` unit, both replicates, with another dataset and arm "b".
        first_a = [t for t in doc["trials"] if t["arm"] == "a"][:2]
        dataset = next(d for d in ("small", "medium") if d != first_a[0]["assignment"]["dataset"])
        doc["trials"] += [dict(t, arm="b", assignment=dict(t["assignment"], dataset=dataset)) for t in first_a]
        plan_path.write_text(json.dumps(doc))
        message = "error: malformed plan document: trials[40].arm: must be 'a' or 'ref' for method 'paired', got 'b'\n"
        assert run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", backend) == (1, "", message)
        assert run_cli(capsys, "analyze", "effect", "--log", log_path, "--plan", plan_path) == (1, "", message)
        assert log_path.read_bytes() == logged

    @pytest.mark.parametrize(
        "argv, group, message",
        [
            (("rct", "--n", "4", "--control", "ht_on", "--treatment", "ht_off"), "pair",
             "trials[1].group: must be 'control' or 'treatment' for method 'rct', got 'pair'"),
            (("full",), "control", "trials[1].group: must be 'single' for method 'full_factorial', got 'control'"),
        ],
    )
    def test_a_group_the_method_never_writes_is_rejected(self, ws, tmp_path, capsys, argv, group, message):
        plan_path, doc = self.plan(capsys, tmp_path, argv[0], "--space", ws["space"], *argv[1:])
        doc["trials"][1]["group"] = group
        plan_path.write_text(json.dumps(doc))
        argv = ("run", "--plan", plan_path, "--log", tmp_path / "log.jsonl", "--backend", f"synthetic:{ws['model']}")
        assert run_cli(capsys, *argv) == (1, "", f"error: malformed plan document: {message}\n")


class TestCyclicGcPause:
    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (lambda ws: ("space", "size", ws["space"]), 0),
            (lambda ws: ("plan", "rct", "--space", ws["space"], "--plan-out", ws["dir"] / "p.json", "--n", "3",
                         "--control", "ht_on", "--treatment", "ht_off"), 1),
            (lambda ws: ("space", "nosuch"), 1),
        ],
        ids=["success", "domain-error", "argparse-error"],
    )
    def test_main_leaves_the_gc_as_it_found_it(self, ws, capsys, argv, code, enabled):
        (gc.enable if enabled else gc.disable)()
        assert run_cli(capsys, *argv(ws))[0] == code
        assert gc.isenabled() is enabled

    def test_an_escaping_error_leaves_the_gc_enabled(self, monkeypatch):
        gc.enable()
        monkeypatch.setattr(cli, "cmd_space", lambda args: {}["bug"])
        with pytest.raises(KeyError):
            main(["space", "size", "any.json"])
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("loader", ["load_plan", "plan_from_json", "RunLog.load"])
    def test_loaders_pause_the_gc_and_leave_it_as_they_found_it(self, ws, capsys, monkeypatch, loader, enabled):
        plan_path, log_path = ws["dir"] / "full.json", ws["dir"] / "full.jsonl"
        run_cli(capsys, "plan", "full", "--space", ws["space"], "--plan-out", plan_path, "--r", "2")
        run_cli(capsys, "run", "--plan", plan_path, "--log", log_path, "--backend", f"synthetic:{ws['model']}")
        bad = ws["dir"] / "bad.txt"
        bad.write_text("{not json\n")
        load, good, error = {
            "load_plan": (design.load_plan, plan_path, PlanError),
            "plan_from_json": (design.plan_from_json, plan_path.read_text(), PlanError),
            "RunLog.load": (runner.RunLog.load, log_path, RunError),
        }[loader]
        seen, real = [], design.plan_from_dict
        monkeypatch.setattr(design, "plan_from_dict", lambda doc: seen.append(gc.isenabled()) or real(doc))
        (gc.enable if enabled else gc.disable)()
        load(good)
        assert gc.isenabled() is enabled
        with pytest.raises(error):
            load(bad if loader != "plan_from_json" else bad.read_text())
        assert gc.isenabled() is enabled
        assert seen == ([] if loader == "RunLog.load" else [False])

    def test_a_command_runs_with_the_gc_paused(self, monkeypatch, capsys):
        gc.enable()
        seen = []
        monkeypatch.setattr(cli, "cmd_space", lambda args: seen.append(gc.isenabled()) or 0)
        assert run_cli(capsys, "space", "size", "any.json") == (0, "", "")
        assert seen == [False]
        assert gc.isenabled()


def cli_process(*argv, **popen):
    """``python -m effattr`` with ``argv``, importing this checkout's source."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "effattr", *map(str, argv)], env=env, **popen)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
@pytest.mark.parametrize(
    "sig, code, parallelism, retry",
    [(signal.SIGINT, 130, 2, 0), (signal.SIGINT, 130, 2, 2), (signal.SIGTERM, 143, 2, 2), (signal.SIGHUP, 129, 1, 0)],
    ids=["ctrl-c-threads", "ctrl-c-threads-retry", "sigterm-threads-retry", "sighup"],
)
def test_a_signal_to_the_run_ends_its_commands(tmp_path, capsys, sig, code, parallelism, retry):
    """A signal to the run's process group, as a terminal sends Ctrl-C or a
    hangup: the commands in flight, also in the pool's threads, end with the
    run, and no retry starts another."""
    space = SCENARIOS / "cpu_space.json"
    plan, pids = tmp_path / "plan.json", tmp_path / "pids"
    assert run_cli(capsys, "plan", "rct", "--space", space, "--plan-out", plan, "--n", "2",
                   "--control", "smt_on", "--treatment", "smt_off")[0] == 0
    proc = cli_process("run", "--plan", plan, "--log", tmp_path / "log.jsonl", "--space", space,
                       "--parallelism", parallelism, "--retry", retry,
                       "--backend", f"external:sleep 30 & echo $! >> {pids}; wait",
                       stderr=subprocess.PIPE, text=True, start_new_session=True)
    started = []
    try:
        deadline = time.monotonic() + 30
        while len(started) < parallelism and time.monotonic() < deadline:
            time.sleep(0.05)
            started = pids.read_text().split() if pids.exists() else []
        os.killpg(proc.pid, sig)
        _, err = proc.communicate(timeout=20)
        assert (proc.returncode, err) == (code, "interrupted\n")
        assert len(started) == parallelism and ended(map(int, started))
        assert len(pids.read_text().split()) == parallelism  # no command started after the signal
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        for pid in map(int, pids.read_text().split() if pids.exists() else ()):
            if running(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM])
def test_a_killed_external_run_keeps_every_finished_trial(tmp_path, capsys, sig):
    """A signal in the middle of a run of external commands: the log holds
    each trial finished before it as a whole record, and the resumed run
    completes it to what an uninterrupted run analyses to."""
    space = SCENARIOS / "cpu_space.json"
    plan = tmp_path / "plan.json"
    assert run_cli(capsys, "plan", "paired", "--space", space, "--plan-out", plan, "--n", "10", "--r", "2",
                   "--seed", "7", "--cui-a", "smt_on", "--cui-ref", "smt_off")[0] == 0
    backend = "external:sleep 0.05; echo {threads}.{smt}"
    whole, killed = tmp_path / "whole.jsonl", tmp_path / "killed.jsonl"
    assert run_cli(capsys, "run", "--plan", plan, "--log", whole, "--backend", backend, "--space", space,
                   "--parallelism", "4")[0] == 0
    proc = cli_process("run", "--plan", plan, "--log", killed, "--backend", backend, "--space", space,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and (not killed.exists() or killed.read_text().count("\n") < 11):
            time.sleep(0.02)
        finished = killed.read_text().count("\n") - 1  # records on disk before the kill
    finally:
        proc.send_signal(sig)
        proc.wait()
    data = killed.read_text()
    records = [json.loads(line) for line in data.splitlines()[1:]]
    assert 10 <= finished <= len(records) < 40
    assert data.endswith("\n")  # whole records only
    assert run_cli(capsys, "run", "--plan", plan, "--log", killed, "--backend", backend, "--space", space)[0] == 0
    keys = [(r["config_id"], r["replicate"]) for r in map(json.loads, killed.read_text().splitlines()[1:])]
    assert len(keys) == len(set(keys)) == 40
    effects = [run_cli(capsys, "analyze", "effect", "--plan", plan, "--log", log, "--raw") for log in (whole, killed)]
    assert effects[0][0] == 0 and effects[0] == effects[1]
