"""Runner: backends, log durability, idempotent resume, aggregation."""

from __future__ import annotations

import io
import json
import math
import os
import re
import shlex
import signal
import statistics
import threading
import time
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effattr import (
    Backend,
    Configuration,
    ExternalBackend,
    LogHeader,
    Measurement,
    RunError,
    RunLog,
    SyntheticBackend,
    SyntheticModel,
    aggregate,
    collapse,
    full_factorial,
    load_model_file,
    load_space,
    load_space_file,
    new_log,
    paired_plan,
    plan_digest,
    run,
    simple_random_sample,
)
from effattr import runner
from effattr._util import read
from effattr.design import Trial
from effattr.runner import _RECORD, _record_json
from conftest import ended, running, space_doc

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def group_of(proc_dir):
    """The process group of the process at ``/proc/<pid>``, or None once it
    has been reaped."""
    try:
        return int((proc_dir / "stat").read_text().rsplit(")", 1)[1].split()[2])
    except (FileNotFoundError, ProcessLookupError):
        return None


def make_trial(assignment, replicate=0, seed=123):
    return Trial(config=Configuration(assignment), replicate=replicate, seed=seed)


class TestSyntheticBackend:
    def test_exact_model_evaluation(self, plain_model):
        backend = SyntheticBackend(plain_model)
        m = backend.measure(make_trial({"cpu": "ht_off", "w": "w0", "t": "t0"}))
        assert m.value == 12.0
        m = backend.measure(make_trial({"cpu": "ht_on", "w": "w0", "t": "t0"}))
        assert m.value == 10.0

    def test_interaction_hand_sum(self, interaction_model):
        backend = SyntheticBackend(interaction_model)
        m = backend.measure(make_trial({"cpu": "ht_off", "w": "w1", "t": "t0"}))
        assert m.value == 17.0

    def test_noise_is_seeded_per_trial(self):
        model = SyntheticModel(baseline=1.0, noise_sd=0.5)
        backend = SyntheticBackend(model)
        t1 = make_trial({"w": "w0"}, replicate=0, seed=1)
        t2 = make_trial({"w": "w0"}, replicate=1, seed=2)
        assert backend.measure(t1).value == backend.measure(t1).value
        assert backend.measure(t1).value != backend.measure(t2).value


class TestRun:
    def test_idempotent_resume(self, small_space, plain_model, tmp_path):
        dc = simple_random_sample(small_space, ("DC",), 4, seed=1)
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=2, seed=1)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend, path=tmp_path / "run.jsonl")
        first = run(plan, backend, log)
        assert first.executed == 16 and first.skipped == 0
        again = run(plan, backend, log)
        assert again.executed == 0 and again.skipped == 16
        log.close()

    @pytest.mark.parametrize("bundled", [False, True], ids=["small", "smt"])
    def test_byte_identical_logs_across_parallelism(self, small_space, tmp_path, bundled):
        if bundled:
            space = load_space_file(SCENARIOS / "cpu_space.json")
            model = load_model_file(SCENARIOS / "smt_model.json")
        else:
            space = small_space
            model = SyntheticModel(baseline=3.0, main_effects={("cpu", "ht_off"): 1.0}, noise_sd=0.7)
        plan = full_factorial(space, r=3, seed=9)
        backend = SyntheticBackend(model)
        paths = []
        for i, workers in enumerate((1, 4)):
            path = tmp_path / f"log{i}.jsonl"
            log = new_log(plan, backend, path=path)
            run(plan, backend, log, parallelism=workers)
            log.close()
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_plan_digest_mismatch_rejected(self, small_space, plain_model):
        backend = SyntheticBackend(plain_model)
        plan_a = full_factorial(small_space, r=1, seed=1)
        plan_b = full_factorial(small_space, r=2, seed=1)
        log = new_log(plan_a, backend)
        with pytest.raises(RunError, match="log/plan mismatch"):
            run(plan_b, backend, log)

    def test_space_digest_mismatch_rejected(self, small_space, plain_model):
        plan = full_factorial(small_space, r=1, seed=1)
        log = RunLog(LogHeader(space_digest="0" * 64, plan_digest=plan_digest(plan), backend="synthetic", unit="s"))
        with pytest.raises(RunError, match="log/plan mismatch: log was created on space 000000000000"):
            run(plan, SyntheticBackend(plain_model), log)

    def test_resume_from_file(self, small_space, plain_model, tmp_path):
        dc = simple_random_sample(small_space, ("DC",), 3, seed=2)
        plan = paired_plan(small_space, "ht_off", "ht_on", dc, r=1, seed=2)
        backend = SyntheticBackend(plain_model)
        path = tmp_path / "resume.jsonl"
        log = new_log(plan, backend, path=path)
        run(plan, backend, log)
        log.close()
        reloaded = RunLog.load(path)
        report = run(plan, backend, reloaded)
        reloaded.close()
        assert report.executed == 0


class TestThreads:
    def test_waiting_backend_measures_trials_concurrently(self, small_space):
        barrier = threading.Barrier(2, timeout=10)

        class Waiting(Backend):
            name = "waiting"
            unit = "seconds"

            def measure(self, trial):
                barrier.wait()  # breaks unless two trials are being measured at once
                time.sleep(0.001 * (trial.seed % 3))  # finish out of plan order
                return Measurement(
                    config_id=trial.config.id,
                    replicate=trial.replicate,
                    value=float(trial.seed % 97),
                    backend=self.name,
                    wall_time=0.0,
                )

        plan = full_factorial(small_space, r=1, seed=3)
        assert len(plan.trials) % 2 == 0
        backend = Waiting()
        log = new_log(plan, backend)
        report = run(plan, backend, log, parallelism=2)
        assert report.executed == len(plan.trials) and report.failed == 0
        assert [(m.config_id, m.replicate) for m in log.records] == [
            (t.config.id, t.replicate) for t in plan.trials
        ]

    def test_synthetic_backend_measures_on_the_calling_thread(self, small_space, plain_model):
        threads = set()

        class Recording(SyntheticBackend):
            def measure(self, trial):
                threads.add(threading.get_ident())
                return super().measure(trial)

        plan = full_factorial(small_space, r=2, seed=3)
        backend = Recording(plain_model)
        log = new_log(plan, backend)
        assert run(plan, backend, log, parallelism=4).executed == len(plan.trials)
        assert threads == {threading.get_ident()}


class TestRecordTypes:
    """Trials and measurements are immutable records with fixed fields."""

    def test_fields_defaults_equality_and_immutability(self):
        config = Configuration({"cpu": "ht_on"})
        trial = Trial(config=config, replicate=2)
        assert Trial._fields == ("config", "replicate", "group", "pair_id", "arm", "seed")
        assert (trial.group, trial.pair_id, trial.arm, trial.seed) == ("single", None, None, 0)
        assert trial == Trial(config, 2, "single", None, None, 0)
        assert trial != Trial(config, 2, seed=1)
        m = Measurement(config_id="c", replicate=0, value=1.5, backend="synthetic", wall_time=0.0)
        assert Measurement._fields == ("config_id", "replicate", "value", "backend", "wall_time", "status", "reason")
        assert (m.status, m.reason) == ("ok", None)
        assert m == Measurement("c", 0, 1.5, "synthetic", 0.0, "ok", None)
        assert m != Measurement("c", 1, 1.5, "synthetic", 0.0)
        assert m.to_dict() == dict(zip(Measurement._fields, ("c", 0, 1.5, "synthetic", 0.0, "ok", None)))
        assert list(m.to_dict()) == list(Measurement._fields)
        for record, name in ((trial, "seed"), (m, "value"), (m, "anything")):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)

    @pytest.mark.parametrize(
        "value, status, message",
        [
            (None, "ok", "measurement c/3: value must be finite"),
            (math.nan, "ok", "measurement c/3: value must be finite"),
            (-math.inf, "ok", "measurement c/3: value must be finite"),
            (1.0, "done", "measurement status must be ok or failed, got 'done'"),
        ],
    )
    def test_measurement_checks_keep_their_messages(self, value, status, message):
        with pytest.raises(RunError) as caught:
            Measurement(config_id="c", replicate=3, value=value, backend="x", wall_time=0.0, status=status)
        assert str(caught.value) == message
        valid = Measurement(config_id="c", replicate=3, value=1.0, backend="x", wall_time=0.0)
        with pytest.raises(RunError) as caught:
            valid._replace(value=value, status=status)
        assert str(caught.value) == message


class TestRecordTemplate:
    """Every log record is the canonical ``json.dumps`` of its measurement."""

    REASONS = ['say "hi"', "back\\slash", "tab\there\x00\x1f\x7f", "two\nlines\r", "naïve – 日本 \U0001F600", ""]
    MEASUREMENTS = [
        *(
            Measurement(config_id="c", replicate=rep, value=value, backend="synthetic", wall_time=wall)
            for rep, value, wall in [
                (0, 3, 0), (1, -0.0, 0.0), (2, 5e-324, 1.5e-7), (3, 1e308, 2.0), (2**70, -1e308, 0.1), (5, 12.0, 7),
            ]
        ),
        *(
            Measurement(config_id=f'id "{i}" é', replicate=i, value=None, backend="external",
                        wall_time=0.25, status="failed", reason=reason)
            for i, reason in enumerate(REASONS)
        ),
        Measurement(config_id="n", replicate=0, value=math.nan, backend="x", wall_time=-0.0, status="failed"),
        Measurement(config_id="i", replicate=0, value=-math.inf, backend="x", wall_time=math.inf, status="failed"),
    ]

    def test_file_records_equal_canonical_json(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = RunLog(LogHeader(space_digest="s", plan_digest="p", backend="synthetic", unit="u"), path=path)
        for m in self.MEASUREMENTS:
            log.append(m)
        log.close()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1:] == [json.dumps(m.to_dict(), sort_keys=True) + "\n" for m in self.MEASUREMENTS]
        loaded = RunLog.load(path)
        loaded.close()
        assert len(loaded) == len(self.MEASUREMENTS)

    @given(
        config_id=st.text(),
        replicate=st.integers(min_value=0, max_value=2**80),
        value=st.one_of(st.none(), st.floats(), st.integers(-(2**70), 2**70)),
        wall_time=st.one_of(st.floats(), st.integers(0, 10**6)),
        reason=st.one_of(st.none(), st.text()),
    )
    def test_failed_records_equal_canonical_json(self, config_id, replicate, value, wall_time, reason):
        m = Measurement(config_id=config_id, replicate=replicate, value=value, backend="external",
                        wall_time=wall_time, status="failed", reason=reason)
        assert _record_json(m) == json.dumps(m.to_dict(), sort_keys=True) + "\n"

    @given(value=st.floats(allow_nan=False, allow_infinity=False), wall_time=st.floats(min_value=0.0))
    def test_ok_records_equal_canonical_json(self, value, wall_time):
        m = Measurement(config_id="c", replicate=1, value=value, backend="synthetic", wall_time=wall_time)
        assert _record_json(m) == json.dumps(m.to_dict(), sort_keys=True) + "\n"


class TestAggregate:
    def test_median_order_statistic(self):
        assert aggregate([1, 2, 100], "median") == 2

    def test_mean(self):
        assert aggregate([1, 2, 100], "mean") == pytest.approx(34.333333333333336)

    def test_even_median(self):
        assert aggregate([1, 2, 3, 100], "median") == 2.5

    def test_empty_rejected(self):
        with pytest.raises(RunError, match="empty"):
            aggregate([], "median")

    def test_unknown_method_rejected(self):
        with pytest.raises(RunError, match="unknown aggregation"):
            aggregate([1.0], "mode")

    # Replicate values: signed zeros and magnitudes from 1e-300 to 1e300.
    VALUES = st.lists(
        st.sampled_from((0.0, -0.0))
        | st.builds(math.copysign, st.floats(1e-300, 1e300), st.sampled_from((1.0, -1.0))),
        min_size=1,
        max_size=7,
    )

    @given(VALUES)
    @example([5e-324, 5e-324])  # halved one by one, each rounds to 0.0
    def test_equals_statistics_bit_for_bit(self, values):
        # ``statistics`` is the oracle; ``runner`` takes the same float steps.
        for method, oracle in (("median", statistics.median), ("mean", statistics.fmean)):
            got, want = aggregate(iter(values), method), oracle(values)
            assert (type(got), got.hex()) == (type(want), want.hex()), (method, values)


class TestCollapse:
    def test_full_replicates(self, small_space, plain_model):
        plan = full_factorial(small_space, r=3, seed=0)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        collapsed = collapse(log, "median")
        assert len(collapsed) == small_space.cartesian_size()
        assert log.failed_count() == 0

    def test_zero_noise_matches_model_for_any_method(self, small_space, interaction_model):
        plan = full_factorial(small_space, r=3, seed=0)
        backend = SyntheticBackend(interaction_model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        by_id = {c.id: c for c in small_space.enumerate_configs()}
        for method in ("mean", "median"):
            collapsed = collapse(log, method)
            for cid, value in collapsed.items():
                assert value == interaction_model.response(by_id[cid])

    def test_failed_replicate_excluded_and_counted(self, small_space, plain_model):
        plan = full_factorial(small_space, r=3, seed=0)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        target = plan.trials[0]
        log._records[(target.config.id, 0)] = type(log.records[0])(
            config_id=target.config.id,
            replicate=0,
            value=None,
            backend="synthetic",
            wall_time=0.0,
            status="failed",
            reason="injected",
        )
        collapsed = collapse(log, "mean")
        assert log.failed_count() == 1
        assert collapsed[target.config.id] == plain_model.response(target.config)

    def test_config_with_no_ok_measurement_rejected(self, small_space, plain_model):
        plan = full_factorial(small_space, r=1, seed=0)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        run(plan, backend, log)
        cid = plan.trials[0].config.id
        log._records[(cid, 0)] = type(log.records[0])(
            config_id=cid,
            replicate=0,
            value=None,
            backend="synthetic",
            wall_time=0.0,
            status="failed",
            reason="injected",
        )
        with pytest.raises(RunError, match="zero ok measurements"):
            collapse(log, "mean")


class TestExternalBackend:
    def make_space(self):
        return load_space(json.dumps(space_doc(dc_counts=(2, 2))))

    def test_command_renders_level_values_and_parses_last_line(self, tmp_path):
        space = self.make_space()
        backend = ExternalBackend("echo 'starting'; echo '3.25'", space, unit="seconds")
        plan = full_factorial(space, r=1, seed=0)
        log = new_log(plan, backend, path=tmp_path / "x.jsonl")
        report = run(plan, backend, log)
        log.close()
        assert report.failed == 0
        assert all(m.value == 3.25 for m in log.records)
        assert log.header.unit == "seconds"

    def test_placeholder_substitution(self):
        space = self.make_space()
        backend = ExternalBackend("echo {w}", space)
        trial = make_trial({"cpu": "ht_on", "w": "w1", "t": "t0"})
        assert backend.render(trial) == "echo w1"

    def test_nonzero_exit_records_failed(self):
        space = self.make_space()
        backend = ExternalBackend("exit 7", space)
        m = backend.measure(make_trial({"cpu": "ht_on", "w": "w0", "t": "t0"}))
        assert m.status == "failed" and "exit 7" in m.reason

    def test_unparseable_output_records_failed(self):
        space = self.make_space()
        backend = ExternalBackend("echo not-a-number", space)
        m = backend.measure(make_trial({"cpu": "ht_on", "w": "w0", "t": "t0"}))
        assert m.status == "failed" and "unparseable" in m.reason

    def test_retry_recovers_flaky_command(self, tmp_path):
        space = self.make_space()
        flag = tmp_path / "flag"
        # fails on the first attempt, succeeds once the flag file exists
        cmd = f"if [ -f {flag} ]; then echo 1.0; else touch {flag}; exit 1; fi"
        backend = ExternalBackend(cmd, space)
        trial = make_trial({"cpu": "ht_on", "w": "w0", "t": "t0"})
        plan = full_factorial(self.make_space(), r=1, seed=0)
        assert backend.measure(trial).status == "failed"
        assert backend.measure(trial).status == "ok"

    def test_wall_time_is_elapsed_seconds(self):
        space = self.make_space()
        trial = make_trial({"cpu": "ht_on", "w": "w0", "t": "t0"})
        for cmd in ("sleep 0.2; echo 1.0", "sleep 0.2; exit 3"):
            m = ExternalBackend(cmd, space).measure(trial)
            assert 0.1 <= m.wall_time < 30, (cmd, m)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    def test_timeout_ends_the_commands_children(self, tmp_path):
        pid_file = tmp_path / "pid"
        cmd = f"sleep 30 & echo $! > {pid_file}; wait"
        pid = None
        try:
            m = ExternalBackend(cmd, self.make_space(), timeout=0.5).measure(
                make_trial({"cpu": "ht_on", "w": "w0", "t": "t0"})
            )
            assert (m.status, m.reason) == ("failed", f"timeout after 0.5s: {shlex.quote(cmd)}")
            pid = int(pid_file.read_text())
            assert ended([pid])
        finally:
            if pid is not None and running(pid):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    def test_a_command_is_measured_to_its_own_exit_and_its_group_ended(self, tmp_path):
        # The background child holds the command's stdout for 5 s.
        cmd = f"sleep 5 & echo $! > {tmp_path / 'child'}; echo $$ > {tmp_path / 'group'}; echo 1.5"
        child = None
        try:
            start = time.monotonic()
            m = ExternalBackend(cmd, self.make_space()).measure(make_trial({"cpu": "ht_on", "w": "w0", "t": "t0"}))
            elapsed = time.monotonic() - start
            child, group = (int((tmp_path / name).read_text()) for name in ("child", "group"))
            assert (m.status, m.value) == ("ok", 1.5)
            assert m.wall_time <= elapsed < 2.5
            assert ended([child], seconds=2)  # the child would sleep on for 5 s
            members = [p.name for p in Path("/proc").iterdir() if p.name.isdigit() and group_of(p) == group]
            assert not [pid for pid in members if running(pid)]
        finally:
            if child is not None and running(child):
                os.kill(child, signal.SIGKILL)

    def test_a_failure_keeps_the_tail_of_stderr(self, tmp_path):
        # 603 bytes; the last 512 begin inside a two-byte character.
        data = ("é" * 300 + "end").encode("utf-8")
        (tmp_path / "err").write_bytes(data)
        trial = make_trial({"cpu": "ht_on", "w": "w0", "t": "t0"})
        m = ExternalBackend(f"echo 1.0; cat {tmp_path / 'err'} >&2; exit 3", self.make_space()).measure(trial)
        assert (m.status, m.reason) == ("failed", "exit 3: " + data[-512:].decode("utf-8", errors="replace"))
        assert m.reason.startswith("exit 3: \ufffdé") and m.reason.endswith("éend")
        assert ExternalBackend("echo 1.0; exit 3", self.make_space()).measure(trial).reason == "exit 3"

    def test_a_stopped_backend_starts_no_command(self, tmp_path):
        flag = tmp_path / "flag"
        backend = ExternalBackend(f"touch {flag}; echo 1.0", self.make_space())
        backend.stop()
        m = backend.measure(make_trial({"cpu": "ht_on", "w": "w0", "t": "t0"}))
        assert (m.status, m.reason, flag.exists()) == ("failed", "stopped", False)

    def test_unknown_placeholder_rejected(self):
        space = self.make_space()
        backend = ExternalBackend("echo {missing}", space)
        with pytest.raises(RunError, match="unknown factor"):
            backend.render(make_trial({"cpu": "ht_on", "w": "w0", "t": "t0"}))


class TestRunLogFile:
    def test_load_round_trip(self, small_space, plain_model, tmp_path):
        plan = full_factorial(small_space, r=2, seed=4)
        backend = SyntheticBackend(plain_model)
        path = tmp_path / "log.jsonl"
        log = new_log(plan, backend, path=path)
        run(plan, backend, log)
        log.close()
        loaded = RunLog.load(path)
        loaded.close()
        assert loaded.header == log.header
        assert {(m.config_id, m.replicate): m.value for m in loaded.records} == {
            (m.config_id, m.replicate): m.value for m in log.records
        }

    def test_duplicate_key_rejected(self, small_space, plain_model):
        plan = full_factorial(small_space, r=1, seed=0)
        backend = SyntheticBackend(plain_model)
        log = new_log(plan, backend)
        m = backend.measure(plan.trials[0])
        log.append(m)
        with pytest.raises(RunError, match="duplicate measurement"):
            log.append(m)

    def finished_log(self, space, model, path):
        plan = full_factorial(space, r=1, seed=0)
        log = new_log(plan, SyntheticBackend(model), path=path)
        run(plan, SyntheticBackend(model), log)
        log.close()
        return plan, path.read_bytes()

    def test_torn_last_record_dropped_then_cut_on_append(self, small_space, plain_model, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        plan, data = self.finished_log(small_space, plain_model, path)
        path.write_bytes(data[:-20])
        loaded = RunLog.load(path)
        assert len(loaded) == len(plan.trials) - 1
        assert "dropped a torn last record" in capsys.readouterr().err
        assert path.read_bytes() == data[:-20]  # reading alone changes nothing
        report = run(plan, SyntheticBackend(plain_model), loaded)
        loaded.close()
        assert report.executed == 1
        assert path.read_bytes() == data

    def test_last_record_missing_only_its_newline_kept(self, small_space, plain_model, tmp_path):
        path = tmp_path / "log.jsonl"
        plan, data = self.finished_log(small_space, plain_model, path)
        path.write_bytes(data[:-1])
        loaded = RunLog.load(path)
        assert len(loaded) == len(plan.trials)
        extra = Measurement(config_id="extra", replicate=1, value=1.0, backend="synthetic", wall_time=0.0)
        loaded.append(extra)
        loaded.close()
        assert path.read_bytes() == data + (json.dumps(extra.to_dict(), sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("where", ["middle", "last"])
    def test_malformed_record_with_newline_rejected(self, small_space, plain_model, tmp_path, where):
        path = tmp_path / "log.jsonl"
        lines = self.finished_log(small_space, plain_model, path)[1].splitlines(keepends=True)
        at = 2 if where == "middle" else len(lines) - 1
        lines[at] = lines[at][:-20] + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(RunError, match="malformed record"):
            RunLog.load(path)

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("replicate", "one"), ("replicate", "1.5"), ("replicate", 1.7), ("replicate", True), ("replicate", None),
            ("wall_time", "fast"), ("wall_time", False), ("wall_time", None),
            ("value", True), ("value", "1.5"), ("value", [1.5]),
            ("config_id", 5), ("backend", None), ("status", 1), ("reason", 3),
        ],
    )
    def test_mistyped_field_is_a_malformed_record(self, small_space, plain_model, tmp_path, field, bad):
        path = tmp_path / "log.jsonl"
        lines = self.finished_log(small_space, plain_model, path)[1].splitlines(keepends=True)
        rec = json.loads(lines[2])
        rec[field] = bad
        lines[2] = (json.dumps(rec) + "\n").encode()
        path.write_bytes(b"".join(lines))
        with pytest.raises(RunError, match=re.escape(f"run log {path}:3: malformed record: {field}: must be ")):
            RunLog.load(path)

    def test_torn_last_record_with_a_non_numeric_field_dropped(self, small_space, plain_model, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        plan, data = self.finished_log(small_space, plain_model, path)
        lines = data.splitlines(keepends=True)
        rec = json.loads(lines[-1])
        rec["wall_time"] = "zero"
        path.write_bytes(b"".join(lines[:-1]) + json.dumps(rec).encode())
        loaded = RunLog.load(path)
        assert len(loaded) == len(plan.trials) - 1
        assert "dropped a torn last record" in capsys.readouterr().err
        run(plan, SyntheticBackend(plain_model), loaded)
        loaded.close()
        assert path.read_bytes() == data

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(RunError, match="bad header"):
            RunLog.load(bad)


class TestLinesThatAreNotUtf8:
    """A log line that is not UTF-8 is a malformed record, or a torn one
    when it is the last line and has no newline."""

    HEADER = b'{"backend": "synthetic", "kind": "runlog", "plan_digest": "p", "space_digest": "s", "unit": "seconds"}'

    @staticmethod
    def record(config_id):
        """A record line whose configuration id has the bytes ``config_id``."""
        return _record_json(Measurement("@", 0, 1.5, "synthetic", 0.0)).encode().replace(b"@", config_id)

    def test_a_whole_line_is_a_malformed_record_named_by_its_line(self, tmp_path):
        # It once raised a bare UnicodeDecodeError, with a position in the file but no path or line.
        path = tmp_path / "log.jsonl"
        path.write_bytes(self.HEADER + b"\n" + self.record(b"c0") + self.record(b"c\xff") + self.record(b"c2"))
        message = f"run log {path}:3: malformed record: 'utf-8' codec can't decode byte 0xff in position 40: "
        with pytest.raises(RunError, match=re.escape(message)):
            RunLog.load(path)

    @pytest.mark.parametrize("ending", [b"\n", b""])
    def test_a_header_that_is_not_utf8_is_a_bad_header_line(self, tmp_path, ending):
        path = tmp_path / "log.jsonl"
        path.write_bytes(self.HEADER[:-1] + b', "x": "\xff"}' + ending)
        with pytest.raises(RunError, match=re.escape(f"run log {path}: bad header line: 'utf-8' codec can't decode")):
            RunLog.load(path)

    @pytest.mark.parametrize(
        "before, message",
        [
            (b'{"config_id": 3}\n', "run log {path}:2: malformed record: "),
            (record(b"c0"), "duplicate measurement for ('c0', 0)"),
        ],
        ids=["malformed record", "duplicate key"],
    )
    def test_the_lines_before_it_are_read_first(self, tmp_path, before, message):
        path = tmp_path / "log.jsonl"
        path.write_bytes(self.HEADER + b"\n" + before + self.record(b"c0") + self.record(b"c\xff"))
        with pytest.raises(RunError, match=re.escape(message.format(path=path))):
            RunLog.load(path)

    def test_a_last_line_without_its_newline_is_a_torn_record(self, tmp_path, capsys):
        # It was once read as a record of configuration "c\ufffd", and after a
        # resume appended its newline the log could not be loaded at all.
        path = tmp_path / "log.jsonl"
        kept = self.HEADER + b"\n" + self.record(b"c0")
        path.write_bytes(kept + self.record(b"c\xff")[:-1])
        log = RunLog.load(path)
        assert [m.config_id for m in log.records] == ["c0"]
        assert capsys.readouterr().err == f"warning: run log {path}:3: dropped a torn last record\n"
        log.append(Measurement("c1", 0, 1.5, "synthetic", 0.0))
        log.close()
        assert path.read_bytes() == kept + self.record(b"c1")
        assert [m.config_id for m in RunLog.load(path).records] == ["c0", "c1"]


class TestRunLogTypes:
    HEADER = {"kind": "runlog", "space_digest": "s", "plan_digest": "p", "backend": "synthetic", "unit": "seconds"}
    RECORD = {
        "config_id": "c0", "replicate": 0, "value": 1.5, "backend": "synthetic",
        "wall_time": 0.0, "status": "ok", "reason": None,
    }

    def write(self, path, head, *records):
        path.write_text("".join(json.dumps(doc) + "\n" for doc in (head, *records)))
        return path

    def test_record_that_once_loaded_as_a_coerced_triple_rejected(self, tmp_path):
        # It loaded as (5, 1, True): replicate truncated, a bool as the value.
        bad = {**self.RECORD, "config_id": 5, "replicate": 1.7, "value": True}
        path = self.write(tmp_path / "log.jsonl", self.HEADER, self.RECORD, bad)
        with pytest.raises(RunError, match=re.escape(f"run log {path}:3: malformed record")):
            RunLog.load(path)

    @pytest.mark.parametrize("field", sorted(RECORD.keys() - {"reason"}))
    def test_missing_field_is_a_malformed_record(self, tmp_path, field):
        rec = {k: v for k, v in self.RECORD.items() if k != field}
        path = self.write(tmp_path / "log.jsonl", self.HEADER, rec)
        with pytest.raises(RunError, match=re.escape(f"run log {path}:2: malformed record: missing field {field!r}")):
            RunLog.load(path)

    def test_integers_are_numbers_and_reason_may_be_absent(self, tmp_path):
        rec = {k: v for k, v in self.RECORD.items() if k != "reason"}
        path = self.write(tmp_path / "log.jsonl", self.HEADER, {**rec, "value": 2, "wall_time": 1})
        loaded = RunLog.load(path)
        loaded.close()
        assert loaded.records == [Measurement("c0", 0, 2, "synthetic", 1)]

    def test_records_read_at_once_as_line_by_line(self, tmp_path):
        # Blank lines, whitespace around a record, a failed record and an
        # integer value: what the line-by-line reading of them gives.
        failed = {**self.RECORD, "config_id": "c1", "value": None, "status": "failed", "reason": "boom"}
        text = "".join(json.dumps(doc) + "\n" for doc in (self.HEADER, self.RECORD))
        text += "\n \r\n\t" + json.dumps(failed) + "  \n"
        text += json.dumps({**self.RECORD, "replicate": 1, "value": 3}) + "\n"
        path = tmp_path / "log.jsonl"
        path.write_text(text)
        loaded = RunLog.load(path)
        loaded.close()
        assert loaded.records == [
            Measurement("c0", 0, 1.5, "synthetic", 0.0),
            Measurement("c1", 0, None, "synthetic", 0.0, "failed", "boom"),
            Measurement("c0", 1, 3, "synthetic", 0.0),
        ]

    def test_a_line_of_other_blank_is_skipped(self, tmp_path):
        path = self.write(tmp_path / "log.jsonl", self.HEADER, self.RECORD)
        path.write_text(path.read_text() + "\u2003\n")
        loaded = RunLog.load(path)
        loaded.close()
        assert loaded.records == [Measurement("c0", 0, 1.5, "synthetic", 0.0)]

    def test_a_record_only_the_row_reader_accepts_is_named(self, tmp_path, monkeypatch):
        # Were the column reader to stop at a good record, the load would
        # otherwise keep only the records before it.
        path = self.write(tmp_path / "log.jsonl", self.HEADER, self.RECORD, {**self.RECORD, "replicate": 1})
        read_records = runner._read_records
        monkeypatch.setattr(runner, "_read_records", lambda texts: read_records(texts)[:1])
        with pytest.raises(RunError, match=re.escape(f"run log {path}:3: record read by row but not by column")):
            RunLog.load(path)

    @pytest.mark.parametrize(
        "line,message",
        [
            (json.dumps(RECORD), "duplicate measurement for ('c0', 0)"),
            (json.dumps({**RECORD, "replicate": 1}) + " " + json.dumps(RECORD), ":3: malformed record: Extra data"),
            (json.dumps({**RECORD, "status": "pending"}), ":3: malformed record: measurement status must be"),
            (json.dumps({**RECORD, "value": float("nan")}), ":3: malformed record: measurement c0/0: value must be"),
        ],
    )
    def test_a_bad_record_among_good_ones_named_as_line_by_line(self, tmp_path, line, message):
        path = self.write(tmp_path / "log.jsonl", self.HEADER, self.RECORD)
        path.write_text(path.read_text() + line + "\n" + json.dumps({**self.RECORD, "replicate": 5}) + "\n")
        with pytest.raises(RunError, match=re.escape(message)):
            RunLog.load(path)

    @pytest.mark.parametrize("field", ["space_digest", "plan_digest", "backend", "unit"])
    @pytest.mark.parametrize("bad", [5, None, True, "absent"])
    def test_mistyped_or_missing_header_field_rejected(self, tmp_path, field, bad):
        head = {**self.HEADER, field: bad}
        if bad == "absent":
            del head[field]
        path = self.write(tmp_path / "log.jsonl", head)
        with pytest.raises(RunError, match=re.escape(f"run log {path}: bad header line: ") + ".*" + field):
            RunLog.load(path)

    @pytest.mark.parametrize("head", [["runlog"], "runlog", {"kind": "plan"}])
    def test_header_that_is_not_a_runlog_object_rejected(self, tmp_path, head):
        path = self.write(tmp_path / "log.jsonl", head)
        with pytest.raises(RunError, match="first line is not a runlog header"):
            RunLog.load(path)


def load_line_by_line(data, path):
    """``RunLog.load``'s records as a reading of one line at a time gives
    them: (records, the file's bytes before the next appended record, the
    warning), or the error's text. The reference for the column reader."""
    complete = data.rfind(b"\n") + 1
    lines = data[:complete].decode("utf-8").splitlines()
    torn = data[complete:].decode("utf-8", errors="replace")
    if torn:
        lines.append(torn)
    records = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            m = Measurement(*read(json.loads(line), _RECORD, ValueError))
        except (ValueError, RecursionError) as exc:
            if torn and i == len(lines):
                warning = f"warning: run log {path}:{i}: dropped a torn last record\n"
                return list(records.values()), data[:complete], warning
            return f"run log {path}:{i}: malformed record: {exc}"
        key = (m.config_id, m.replicate)
        if key in records:
            return f"duplicate measurement for {key}"
        records[key] = m
    return list(records.values()), data + (b"\n" if torn else b""), ""


def _edit(line, **fields):
    rec = json.loads(line)
    rec.update(fields)
    return json.dumps({k: v for k, v in rec.items() if v is not _edit})


# Each fault rewrites the record lines ``lines`` at position ``j``; ``cut``
# picks where a torn record ends.
LOG_FAULTS = {
    "none": lambda lines, j, cut: lines,
    "bad JSON": lambda lines, j, cut: [*lines[:j], lines[j][: cut % len(lines[j])], *lines[j + 1:]],
    "too deep": lambda lines, j, cut: [*lines[:j], "[" * 100_000, *lines[j + 1:]],
    "data after the value": lambda lines, j, cut: [*lines[:j], lines[j] + " " + lines[j], *lines[j + 1:]],
    "mistyped field": lambda lines, j, cut: [*lines[:j], _edit(lines[j], replicate="one"), *lines[j + 1:]],
    "missing field": lambda lines, j, cut: [*lines[:j], _edit(lines[j], status=_edit), *lines[j + 1:]],
    "non-finite ok value": lambda lines, j, cut: [
        *lines[:j], _edit(lines[j], status="ok", value=float("inf")), *lines[j + 1:]
    ],
    "unknown status": lambda lines, j, cut: [*lines[:j], _edit(lines[j], status="pending"), *lines[j + 1:]],
    "duplicate key": lambda lines, j, cut: [*lines[: j + 1], lines[cut % (j + 1)], *lines[j + 1:]],
    "blank line": lambda lines, j, cut: [*lines[:j], ["", "  ", "\t\r"][cut % 3], *lines[j:]],
    "Unicode-space line": lambda lines, j, cut: [*lines[:j], ["\u2003", "\u00a0 \u3000", "\x0b"][cut % 3], *lines[j:]],
    "Unicode space before a record": lambda lines, j, cut: [*lines[:j], "\u00a0" + lines[j], *lines[j + 1:]],
}


class TestOneRecordReader:
    """``RunLog.load`` reads records once, by column; a line-by-line reading
    is its reference, over logs with one fault at any line."""

    GOOD = [
        Measurement(f"c{i % 3}", i // 3, None, "external", 0.25, "failed", "exit 1")
        if i % 4 == 3 else Measurement(f"c{i % 3}", i // 3, [1.5, 2, -0.0][i % 3] * i, "synthetic", 0.0)
        for i in range(8)
    ]

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(1, len(GOOD)),
        fault=st.sampled_from(sorted(LOG_FAULTS)),
        at=st.integers(0, len(GOOD) - 1),
        cut=st.integers(1, 200),
        ending=st.sampled_from(["newline", "none", "torn", "torn with newline"]),
    )
    def test_records_errors_and_resumed_bytes_match_the_line_by_line_reading(
        self, tmp_path_factory, n, fault, at, cut, ending
    ):
        lines = LOG_FAULTS[fault]([_record_json(m)[:-1] for m in self.GOOD[:n]], at % n, cut)
        if ending.startswith("torn"):  # the last record cut short
            lines[-1] = lines[-1][: 1 + cut % max(1, len(lines[-1]) - 1)]
        header = json.dumps(TestRunLogTypes.HEADER, sort_keys=True)
        text = "\n".join([header, *lines]) + ("" if ending in ("none", "torn") else "\n")
        path = tmp_path_factory.mktemp("reader") / "log.jsonl"
        data = text.encode("utf-8")
        path.write_bytes(data)
        expected = load_line_by_line(data, path)
        stderr = io.StringIO()
        try:
            with redirect_stderr(stderr):
                log = RunLog.load(path)
        except RunError as exc:
            assert str(exc) == expected
            return
        assert not isinstance(expected, str), expected
        records, before, warning = expected
        assert (log.records, stderr.getvalue()) == (records, warning)
        assert path.read_bytes() == data  # reading alone changes nothing
        extra = Measurement("new", 0, 2.5, "synthetic", 0.0)
        log.append(extra)
        log.close()
        assert path.read_bytes() == before + _record_json(extra).encode()


def load_whole(path):
    """``RunLog.load`` as one column pass over the whole list of lines:
    (records, warning, ``_reopen``), or the error's text. The reference for
    the reader that goes chunk by chunk."""
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    lines = data[:complete].decode("utf-8").splitlines()
    torn = data[complete:].decode("utf-8", errors="replace")
    if torn:
        lines.append(torn)
    at = [i for i in range(1, len(lines)) if lines[i].strip()]
    records = runner._read_records([lines[i].strip(runner._JSON_SPACE) for i in at])
    keyed = {}
    for m in records:
        key = (m.config_id, m.replicate)
        if key in keyed:
            return f"duplicate measurement for {key}"
        keyed[key] = m
    if len(records) < len(at):
        i = at[len(records)]
        try:
            Measurement(*read(json.loads(lines[i]), _RECORD, ValueError))
        except (ValueError, RecursionError) as exc:
            if torn and i == len(lines) - 1:
                warning = f"warning: run log {path}:{i + 1}: dropped a torn last record\n"
                return list(keyed.values()), warning, (complete, "")
            return f"run log {path}:{i + 1}: malformed record: {exc}"
        return "the row reader accepts the record"
    return list(keyed.values()), "", (None, "\n" if torn else "")


def chunk_edge_cases():
    """(records, fault, record index) for logs sized around the chunk of
    ``RunLog.load``, with the fault on the first or last line of a chunk."""
    c = runner._LOAD_CHUNK
    cases = []
    for n in (c - 1, c, c + 1, 2 * c + 1):
        edges = sorted({j for k in range(0, n, c) for j in (k, k + c - 1)} & set(range(n)) | {n - 1})
        cases += [(n, fault, j) for fault in ("malformed", "duplicate key") for j in edges]
        cases += [(n, fault, n - 1) for fault in ("torn last record", "no last newline")]
    return cases


class TestChunkEdges:
    @staticmethod
    def good(i):
        if i % 5 == 4:
            return Measurement(f"c{i % 7}", i // 7, None, "external", 0.5, "failed", "exit 1")
        return Measurement(f"c{i % 7}", i // 7, i * 0.25, "synthetic", 0.0)

    @pytest.mark.parametrize("n,fault,j", chunk_edge_cases())
    def test_the_chunked_reader_equals_the_whole_list_reading(self, tmp_path, n, fault, j):
        lines = [_record_json(self.good(i))[:-1] for i in range(n)]
        if fault == "malformed":
            lines[j] = lines[j][: len(lines[j]) // 2]
        elif fault == "duplicate key":
            twin = self.good(j - 1 if j else 1)
            lines[j] = _record_json(self.good(j)._replace(config_id=twin.config_id, replicate=twin.replicate))[:-1]
        elif fault == "torn last record":
            lines[j] = lines[j][: len(lines[j]) // 2]
        header = json.dumps(TestRunLogTypes.HEADER, sort_keys=True)
        ending = "" if fault in ("torn last record", "no last newline") else "\n"
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join([header, *lines]) + ending)
        expected = load_whole(path)
        stderr = io.StringIO()
        try:
            with redirect_stderr(stderr):
                log = RunLog.load(path)
        except RunError as exc:
            assert str(exc) == expected
            return
        assert (log.records, stderr.getvalue(), log._reopen) == expected
        assert fault in ("torn last record", "no last newline")
