"""Outside-in layer tracing for the effattr benchmark.

The tracer wraps chosen functions of the effattr modules from the outside:
every module binding of a wrapped function (``from .x import f`` copies
included) is replaced for the duration of a ``with instrument(tracer):``
block and restored afterwards. Spans and counters live in memory; the
benchmark writes them out when it ends.

A span records name, start, end, parent span, thread and the operation it
belongs to. A layer's self time is its span's duration minus the time of
child spans opened in the same thread. Very hot helpers (the SHA-256 seed
and id derivations) are counted, not timed, so their cost stays inside the
caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "op", "child_s")

    def __init__(self, name: str, parent: "Span | None", op: int):
        self.name = name
        self.start = _now()
        self.end = self.start
        self.parent = parent
        self.thread = threading.get_ident()
        self.op = op
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory spans and counters; safe to use from the runner's threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.distinct: dict[str, set[str]] = {}
        self.op = 0  # set by the benchmark before each operation
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        stack = self.stack()
        return stack[-1].name if stack else None

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def see(self, key: str, ident: str) -> None:
        with self._lock:
            self.distinct.setdefault(key, set()).add(ident)

    def open(self, name: str) -> Span:
        stack = self.stack()
        span = Span(name, stack[-1] if stack else None, self.op)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        self.stack().pop()
        self.finish(span, _now())

    def finish(self, span: Span, end: float) -> None:
        span.end = end
        if span.parent is not None and span.parent.thread == span.thread:
            span.parent.child_s += span.duration
        self.spans.append(span)

    # -- summaries -------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def self_time(self, *names: str) -> float:
        return sum(s.self_s for s in self.spans if s.name in names)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """A header line with the counters, then one JSON array per span."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header, "counters": dict(self.counters)}) + "\n")
            for i, s in enumerate(self.spans):
                parent = index.get(id(s.parent)) if s.parent is not None else None
                row = [i, s.name, round(s.start, 7), round(s.end, 7), parent, s.thread, s.op]
                fh.write(json.dumps(row) + "\n")


# -- wrappers ------------------------------------------------------------------


def _timed(tracer: Tracer, name: str, fn: Callable, after: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _timed_generator(tracer: Tracer, name: str, fn: Callable, after: Callable | None) -> Callable:
    """One span holding the time spent inside the generator, not its consumer."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator:
        gen = fn(*args, **kwargs)
        span: Span | None = None
        inner = 0.0
        items = 0
        try:
            while True:
                if span is None:
                    span = tracer.open(name)
                else:
                    tracer.stack().append(span)
                t0 = _now()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    inner += _now() - t0
                    tracer.stack().pop()
                items += 1
                yield item
        finally:
            gen.close()
            if span is not None:
                tracer.finish(span, span.start + inner)
            tracer.count(name + ".items", items)

    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable, after: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.count(name)
        result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


_WRAPPERS = {"span": _timed, "gen": _timed_generator, "count": _counted}


def _plan_trials(tracer: Tracer, args: tuple, plan: Any) -> None:
    tracer.count("design.trials_planned", len(plan.trials))


def _run_report(tracer: Tracer, args: tuple, report: Any) -> None:
    tracer.count("runner.trials_executed", report.executed)
    tracer.count("runner.trials_skipped", report.skipped)
    tracer.count("runner.trials_failed", report.failed)


def _log_bytes(tracer: Tracer, args: tuple, log: Any) -> None:
    tracer.count("runner.log_bytes", os.path.getsize(args[1]))  # args: (cls, path)


def _response_id(tracer: Tracer, args: tuple, value: Any) -> None:
    tracer.see("model.response", args[1].id)  # args: (model, config)


def _json_bytes(tracer: Tracer, args: tuple, text: str) -> None:
    # digest() serializes through canonical_json; only plan digests count.
    if tracer.current() == "design.plan_digest":
        tracer.count("design.digest_bytes", len(text))


# (module, attribute path, span or counter name, kind, hook run on the result)
TARGETS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("space", "load_space", "space.load_space", "span", None),
    ("space", "ConfigSpace.cartesian_size", "space.cartesian_size", "span", None),
    ("space", "ConfigSpace.enumerate_configs", "space.enumerate_configs", "gen", None),
    ("design", "simple_random_sample", "design.sample", "span", None),
    ("design", "stratified_sample", "design.sample", "span", None),
    ("design", "paired_plan", "design.plan", "span", _plan_trials),
    ("design", "rct_plan", "design.plan", "span", _plan_trials),
    ("design", "factorial_2kr", "design.plan", "span", _plan_trials),
    ("design", "full_factorial", "design.plan", "span", _plan_trials),
    ("design", "plan_digest", "design.plan_digest", "span", None),
    ("design", "save_plan", "design.plan_io", "span", None),
    ("design", "load_plan", "design.plan_io", "span", None),
    ("runner", "run", "runner.run", "span", _run_report),
    ("runner", "RunLog.load", "runner.log_load", "span", _log_bytes),
    ("runner", "collapse", "runner.collapse", "span", None),
    ("model", "SyntheticModel.response", "model.response", "span", _response_id),
    ("stats", "paired_effect", "stats.infer", "span", None),
    ("stats", "ate", "stats.infer", "span", None),
    ("meta", "_factorial_estimate", "stats.infer", "span", None),
    ("stats", "anova", "stats.anova", "span", None),
    ("special", "betainc_inv", "special.betainc_inv", "span", None),
    ("meta", "_one_iteration", "meta.iteration", "span", None),
    ("cli", "cmd_space", "cli.space", "span", None),
    ("cli", "cmd_plan", "cli.plan", "span", None),
    ("cli", "cmd_run", "cli.run", "span", None),
    ("cli", "cmd_analyze", "cli.analyze", "span", None),
    ("cli", "cmd_meta", "cli.meta", "span", None),
    ("_util", "derive_seed", "util.derive_seed", "count", None),
    ("_util", "assignment_id", "util.assignment_id", "count", None),
    ("_util", "digest", "util.digest", "count", None),
    ("_util", "canonical_json", "util.canonical_json", "count", _json_bytes),
)


class instrument:
    """Install the tracer's wrappers into the loaded effattr modules.

    Restores every replaced binding on exit, so untraced runs in the same
    process see the unmodified package.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        modules = [m for n, m in sys.modules.items() if n == "effattr" or n.startswith("effattr.")]
        for module_name, path, name, kind, after in TARGETS:
            owner: Any = sys.modules[f"effattr.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = _WRAPPERS[kind](self.tracer, name, func, after)
            if inspect.isclass(owner):
                self._set(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, wrapper)
        return self.tracer

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._undo.append((owner, key, inspect.getattr_static(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc: object) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
