"""Plan execution against synthetic or external backends, with durable run logs.

Logs are append-only JSON lines keyed by (configuration id, replicate);
re-running a completed plan appends nothing, so interrupted runs resume
for free, and a last record torn by the interruption is dropped on load.
Synthetic measurements are seeded per trial, making logs independent of
execution order and parallelism. Threads overlap backends that wait
outside the interpreter (external commands); synthetic trials run in the
calling thread, where threads would only contend for the interpreter.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterable, NamedTuple

from ._util import AGGREGATE_METHODS, Kind, gc_paused, json_scalar, read, read_rows
from .design import DesignPlan, Trial, plan_digest
from .model import SyntheticModel, gauss_noise
from .space import ConfigSpace

if TYPE_CHECKING:
    import subprocess


class RunError(ValueError):
    """Raised for log/plan mismatches and malformed run logs."""


class _MeasurementFields(NamedTuple):
    config_id: str
    replicate: int
    value: float | None
    backend: str
    wall_time: float
    status: str
    reason: str | None


class Measurement(_MeasurementFields):
    """One trial's outcome: a finite value when ok, the reason when failed."""

    __slots__ = ()

    def __new__(
        cls,
        config_id: str,
        replicate: int,
        value: float | None,
        backend: str,
        wall_time: float,
        status: str = "ok",
        reason: str | None = None,
    ) -> "Measurement":
        if status == "ok":
            if value is None or not (value == value and abs(value) != math.inf):
                raise RunError(f"measurement {config_id}/{replicate}: value must be finite")
        elif status != "failed":
            raise RunError(f"measurement status must be ok or failed, got {status!r}")
        return tuple.__new__(cls, (config_id, replicate, value, backend, wall_time, status, reason))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "Measurement":  # so that ``_replace`` checks too
        return cls(*iterable)

    def to_dict(self) -> dict[str, Any]:
        return self._asdict()


# One log record, ``json.dumps(m.to_dict(), sort_keys=True)`` plus its newline.
_RECORD_JSON = (
    '{"backend": %s, "config_id": %s, "reason": %s, "replicate": %s, '
    '"status": %s, "value": %s, "wall_time": %s}\n'
)


def _record_json(m: Measurement) -> str:
    j = json_scalar
    return _RECORD_JSON % (
        j(m.backend), j(m.config_id), j(m.reason), j(m.replicate), j(m.status), j(m.value), j(m.wall_time)
    )


# The kinds of the header's and each record's fields, in the order of
# ``LogHeader``'s and ``Measurement``'s fields. A failed record may carry a
# non-finite value or time, and a resumed run reads back every record the
# writer wrote, so those two are the only numbers that need not be finite.
_HEADER = {
    "space_digest": Kind("text"), "plan_digest": Kind("text"), "backend": Kind("text"), "unit": Kind("text"),
}
_RECORD = {
    "config_id": Kind("text"), "replicate": Kind("integer"), "value": Kind("number|null", finite=False),
    "backend": Kind("text"), "wall_time": Kind("number", finite=False), "status": Kind("text"),
    "reason": Kind("text|null", None),
}


@dataclass(frozen=True)
class LogHeader:
    space_digest: str
    plan_digest: str
    backend: str
    unit: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "runlog",
            "space_digest": self.space_digest,
            "plan_digest": self.plan_digest,
            "backend": self.backend,
            "unit": self.unit,
        }


# Record lines per column pass of ``RunLog.load``.
_LOAD_CHUNK = 1024
_scan = json.JSONDecoder().scan_once  # ``json.loads`` of a document with no whitespace around it
_JSON_SPACE = " \t\n\r"


def _read_records(texts: list[str]) -> list[Measurement]:
    """The measurements of the record texts ``texts``, read by column, up to
    the first text that is not one good record: it does not scan as JSON,
    has more after its value, or has a bad field or value."""
    scanned = []
    with suppress(StopIteration, ValueError, RecursionError):  # no value at the start, bad or too deep JSON
        for text in texts:
            value, end = _scan(text, 0)
            if end < len(text):  # more after the value
                break
            scanned.append(value)
    columns, _ = read_rows(scanned, _RECORD)
    del scanned  # the records' dicts, before the measurements are built: peak memory
    records: list[Measurement] = []
    with suppress(RunError):  # a value or status that ``Measurement`` rejects
        for m in map(Measurement, *columns):
            records.append(m)
    return records


class RunLog:
    """Header plus append-only measurements, optionally bound to a JSONL file."""

    def __init__(self, header: LogHeader, path: str | Path | None = None):
        self.header = header
        self.path = Path(path) if path is not None else None
        self._records: dict[tuple[str, int], Measurement] = {}
        self._fh: IO[str] | None = None
        # A loaded log reopens its file on the first new record: (length to
        # cut a torn last record back to, or None; text to write first).
        self._reopen: tuple[int | None, str] | None = None
        if self.path is not None:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._fh.write(json.dumps(self.header.to_dict(), sort_keys=True) + "\n")
            self.flush()

    @classmethod
    @gc_paused()
    def load(cls, path: str | Path) -> "RunLog":
        """Read a log file; it is reopened for appending on the first new record.

        A last record torn by an interrupted append (no newline, does not
        parse or is not UTF-8) is dropped with a warning on stderr, and cut
        off the file before anything is appended; any other malformed
        record, one with a missing or mistyped field or a line that is not
        UTF-8 among them, raises ``RunError`` naming its line. Reading
        alone never changes the file. External command output, unlike a
        log, is decoded with bad bytes replaced (``ExternalBackend``).
        """
        path = Path(path)
        data = path.read_bytes()
        # A last line without its newline is an append that was cut short.
        complete = data.rfind(b"\n") + 1
        end = complete
        try:
            text = str(memoryview(data)[:end], "utf-8")  # decoded in place, not from a copy
        except UnicodeDecodeError as exc:  # the lines before the first that is not UTF-8 are read
            end = data.rfind(b"\n", 0, exc.start) + 1
            text = str(memoryview(data)[:end], "utf-8")
        last = data[end:].partition(b"\n")[0]  # the torn last line, or the first that is not UTF-8
        torn = end == complete and last != b""
        del data  # then the text, once split: peak memory
        lines = text.splitlines()
        del text
        fault = None  # the first malformed record, as (line number, error)
        if last:
            try:
                lines.append(str(last, "utf-8"))
            except UnicodeDecodeError as exc:
                fault = len(lines) + 1, exc
        n = len(lines) + (fault is not None)
        if not n:
            raise RunError(f"run log {path} is empty")
        try:
            if not lines:  # the header is the line that is not UTF-8
                raise fault[1]  # type: ignore[index]
            head = json.loads(lines[0])
        except (ValueError, RecursionError) as exc:
            raise RunError(f"run log {path}: bad header line: {exc}") from exc
        if type(head) is not dict or head.get("kind") != "runlog":
            raise RunError(f"run log {path}: first line is not a runlog header")
        header = LogHeader(
            *read(head, _HEADER, lambda message: RunError(f"run log {path}: bad header line: {message}"))
        )
        log = cls(header)
        log.path = path
        # The records are read by column, a chunk of ``_LOAD_CHUNK`` lines at a
        # time, up to the first bad one; the first fault in line order is a
        # duplicate key among them, or else that bad line, which the row
        # reader words unless it is a torn last record. A chunk's lines are
        # let go as it is taken, and only its dicts are alive: peak memory.
        for start in range(1, len(lines), _LOAD_CHUNK):
            chunk = lines[start : start + _LOAD_CHUNK]
            lines[start : start + _LOAD_CHUNK] = repeat(None, len(chunk))
            at = [j for j, line in enumerate(chunk) if line.strip()]  # blank lines are skipped
            records = _read_records([chunk[j].strip(_JSON_SPACE) for j in at])
            for m in records:
                log._add(m)
            if len(records) < len(at):
                j = at[len(records)]
                number = start + j + 1
                try:
                    Measurement(*read(json.loads(chunk[j]), _RECORD, ValueError))
                except (ValueError, RecursionError) as exc:  # bad or too deep JSON, a bad field, a bad value
                    fault = number, exc
                    break
                raise RunError(f"run log {path}:{number}: record read by row but not by column")  # readers at odds
        if fault is not None:
            number, exc = fault
            if torn and number == n:
                print(f"warning: run log {path}:{number}: dropped a torn last record", file=sys.stderr)
                log._reopen = (complete, "")
                return log
            raise RunError(f"run log {path}:{number}: malformed record: {exc}") from exc
        # A whole last record that lost only its newline gets it back.
        log._reopen = (None, "\n" if torn else "")
        return log

    def _add(self, m: Measurement) -> None:
        key = (m.config_id, m.replicate)
        if key in self._records:
            raise RunError(f"duplicate measurement for {key}")
        self._records[key] = m

    def append(self, m: Measurement, flush: bool = False) -> None:
        """Add ``m`` to the log and its file; with ``flush``, the record is
        handed to the OS at once (a write, not an fsync)."""
        self._add(m)
        if self._reopen is not None and self.path is not None:
            cut, prefix = self._reopen
            self._reopen = None
            if cut is not None:
                os.truncate(self.path, cut)
            self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(prefix)
        if self._fh is not None:
            self._fh.write(_record_json(m))
            if flush:
                self._fh.flush()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None
        self._reopen = None

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[Measurement]:
        return list(self._records.values())

    def ok_values(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for m in self._records.values():
            if m.status == "ok":
                out.setdefault(m.config_id, []).append(m.value)  # type: ignore[arg-type]
        return out

    def ok_value(self, config_id: str, replicate: int) -> float | None:
        """The value measured for (config_id, replicate), or None if none is ok."""
        m = self._records.get((config_id, replicate))
        return m.value if m is not None and m.status == "ok" else None

    def failed_count(self) -> int:
        return sum(1 for m in self._records.values() if m.status == "failed")


def new_log(plan: DesignPlan, backend: "Backend", path: str | Path | None = None) -> RunLog:
    header = LogHeader(
        space_digest=plan.space_digest,
        plan_digest=plan_digest(plan),
        backend=backend.name,
        unit=backend.unit,
    )
    return RunLog(header, path=path)


# -- backends --------------------------------------------------------------


class Backend:
    name: str
    unit: str
    # True when a measurement mostly waits outside the interpreter (a
    # subprocess, I/O), so that ``run`` overlaps trials in threads.
    waits: bool = True

    def measure(self, trial: Trial) -> Measurement:  # pragma: no cover - interface
        raise NotImplementedError

    def stop(self) -> None:
        """End the measurements still in flight and start no more; ``run``
        calls it when it is interrupted."""


class SyntheticBackend(Backend):
    """Pure model evaluation plus per-trial seeded Gaussian noise.

    Wall time is recorded as 0.0: there is no meaningful clock for a pure
    function, and a constant keeps equally-seeded logs byte-identical.
    """

    name = "synthetic"
    waits = False

    def __init__(self, model: SyntheticModel):
        self.model = model
        self.unit = model.unit

    def measure(self, trial: Trial) -> Measurement:
        value = self.model.response(trial.config)
        if self.model.noise_sd > 0:
            value += gauss_noise(trial.seed, self.model.noise_sd)
        return Measurement(
            config_id=trial.config.id,
            replicate=trial.replicate,
            value=value,
            backend=self.name,
            wall_time=0.0,
        )


# The bytes of a failed command's stderr kept in its failure reason, at most.
_STDERR_TAIL = 512


class ExternalBackend(Backend):
    """Run a shell command template; the measurement is the last stdout line.

    Placeholders ``{factor}`` are substituted with the level's opaque value
    payload. Output is decoded as UTF-8, bad bytes replaced. Nonzero exit,
    or output that is unparseable or not finite (``nan``, ``inf``), yields
    a failed measurement; a nonzero exit's reason ends in the last
    ``_STDERR_TAIL`` bytes of stderr. Wall time is the
    seconds until the command itself exits, for failed runs too; what it
    leaves running in the background is then ended.
    """

    name = "external"

    def __init__(self, template: str, space: ConfigSpace, unit: str = "seconds", timeout: float | None = None):
        self.template = template
        self.space = space
        self.unit = unit
        self.timeout = timeout
        self._groups: set[int] = set()  # the process groups of the commands in flight
        self._stopped = False
        self._lock = threading.Lock()  # over both: ``stop`` ends every command started

    def render(self, trial: Trial) -> str:
        values = {
            fname: self.space.factor(fname).level(label).value
            for fname, label in trial.config.assignment.items()
        }
        try:
            return self.template.format(**values)
        except KeyError as exc:
            raise RunError(f"command template references unknown factor: {exc}") from exc
        except (IndexError, AttributeError, TypeError, ValueError) as exc:  # ``{}``, ``{f.x}``, ``{f[x]}``, ``{f:y}``
            raise RunError(f"command template {self.template!r}: {exc}") from exc

    def measure(self, trial: Trial) -> Measurement:
        import shlex  # this backend alone needs these four
        import subprocess
        import tempfile
        import time

        cmd = self.render(trial)
        # The output goes to files, not pipes, so that a child the command
        # leaves running in the background cannot keep the measurement open.
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            start = time.perf_counter()
            # In a session of its own, the command's whole process group can be
            # ended, its children too, once it exits or times out, or where the
            # run is interrupted.
            with self._lock:
                if self._stopped:  # a retry, or a trial of the pool, after an interrupt
                    return self._failed(trial, 0.0, "stopped")
                proc = subprocess.Popen(cmd, shell=True, stdout=out, stderr=err, start_new_session=True)
                self._groups.add(proc.pid)
            try:
                exited = _exited(proc, self.timeout)
                wall = time.perf_counter() - start
            finally:
                with self._lock:
                    self._groups.discard(proc.pid)
                _kill_group(proc.pid)
                proc.wait()
            if not exited:
                return self._failed(trial, wall, f"timeout after {self.timeout}s: {shlex.quote(cmd)}")
            if proc.returncode != 0:
                err.seek(max(0, err.seek(0, os.SEEK_END) - _STDERR_TAIL))
                tail = err.read().decode("utf-8", errors="replace")
                return self._failed(trial, wall, f"exit {proc.returncode}" + (f": {tail}" if tail else ""))
            out.seek(0)
            stdout = out.read().decode("utf-8", errors="replace")
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        if not lines:
            return self._failed(trial, wall, "no output")
        try:
            value = float(lines[-1].strip())
        except ValueError:
            return self._failed(trial, wall, f"unparseable output {lines[-1].strip()!r}")
        if not math.isfinite(value):
            return self._failed(trial, wall, f"non-finite output {lines[-1].strip()!r}")
        return Measurement(
            config_id=trial.config.id,
            replicate=trial.replicate,
            value=value,
            backend=self.name,
            wall_time=wall,
        )

    def stop(self) -> None:
        # Interrupted in the calling thread, ``run`` ends the commands that
        # other threads wait for: a signal to the run's process group reaches
        # none of the commands' own sessions.
        with self._lock:
            self._stopped = True
            for group in self._groups:
                _kill_group(group)

    def _failed(self, trial: Trial, wall: float, reason: str) -> Measurement:
        return Measurement(
            config_id=trial.config.id,
            replicate=trial.replicate,
            value=None,
            backend=self.name,
            wall_time=wall,
            status="failed",
            reason=reason,
        )


def _exited(proc: subprocess.Popen, timeout: float | None) -> bool:
    """Whether ``proc`` exits within ``timeout`` seconds (None: no limit).
    A thread waits for it, so the wait ends as the process does, where a
    polled ``Popen.wait(timeout)`` could overrun by its poll interval."""
    waiter = threading.Thread(target=proc.wait, daemon=True)
    waiter.start()
    waiter.join(timeout)
    return not waiter.is_alive()


def _kill_group(group: int) -> None:
    import signal

    with suppress(ProcessLookupError):  # the group has ended
        os.killpg(group, signal.SIGKILL)


# -- execution ---------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    executed: int
    skipped: int
    failed: int


def check_log(log: RunLog, plan: DesignPlan) -> None:
    """Raise ``RunError`` unless the log's header names this plan and its space."""
    expected = plan_digest(plan)
    if log.header.plan_digest != expected:
        raise RunError(
            f"log/plan mismatch: log was created for plan {log.header.plan_digest[:12]}, "
            f"got plan {expected[:12]}"
        )
    if log.header.space_digest != plan.space_digest:
        raise RunError(
            f"log/plan mismatch: log was created on space {log.header.space_digest[:12]}, "
            f"the plan on space {plan.space_digest[:12]}"
        )


def run(
    plan: DesignPlan,
    backend: Backend,
    log: RunLog,
    parallelism: int = 1,
    retry: int = 0,
) -> RunReport:
    """Execute every trial not already in the log; append in plan order.

    With ``parallelism`` > 1, up to that many trials of a waiting backend
    (``Backend.waits``) run at once in threads; other backends measure in
    the calling thread. ``retry`` re-attempts failed measurements within
    this invocation before recording; failures already recorded in the
    log are never retried. Each record of a waiting backend reaches the OS
    before the next is appended; the log is fsynced at the end.
    """
    check_log(log, plan)
    todo: list[Trial] = []
    seen: set[tuple[str, int]] = set()
    for trial in plan.trials:
        key = (trial.config.id, trial.replicate)
        if key in seen or key in log:
            continue
        seen.add(key)
        todo.append(trial)
    skipped = len(plan.trials) - len(todo)

    def attempt(trial: Trial) -> Measurement:
        m = backend.measure(trial)
        for _ in range(retry):
            if m.status == "ok":
                break
            m = backend.measure(trial)
        return m

    failed = 0
    threaded = parallelism > 1 and backend.waits
    if threaded:
        from concurrent.futures import ThreadPoolExecutor  # imports ``logging``: only threaded runs pay for it
    with ThreadPoolExecutor(max_workers=parallelism) if threaded else nullcontext() as pool:
        try:
            for m in (pool.map if threaded else map)(attempt, todo):
                if m.status == "failed":
                    failed += 1
                log.append(m, flush=backend.waits)  # a killed run keeps every record measured at length
        except BaseException:  # the pool's threads would otherwise wait for their measurements
            backend.stop()
            raise
    log.flush()
    return RunReport(executed=len(todo), skipped=skipped, failed=failed)


# -- aggregation -------------------------------------------------------------


def aggregate(values: Iterable[float], method: str = "median") -> float:
    """Collapse replicate measurements to one number: ``statistics.median``
    or ``statistics.fmean``, in their float operations."""
    vals = sorted(values) if method == "median" else list(values)
    n = len(vals)
    if not n:
        raise RunError("aggregate: empty input")
    if method == "median":
        i = n // 2
        return vals[i] if n % 2 else (vals[i - 1] + vals[i]) / 2
    if method == "mean":
        return math.fsum(vals) / n
    raise RunError(f"unknown aggregation method {method!r}")


def collapse(log: RunLog, method: str = "median") -> dict[str, float]:
    """Each configuration's aggregate over its ok replicates, failed ones
    excluded; a configuration with no ok replicate raises."""
    ok = log.ok_values()
    dead = sorted({m.config_id for m in log.records if m.status != "ok"} - ok.keys())
    if dead:
        raise RunError(f"configurations with zero ok measurements: {dead}")
    return {cid: aggregate(vals, method) for cid, vals in ok.items()}
