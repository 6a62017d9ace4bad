"""effattr benchmark: one workload per invocation, run from a checkout's root.

    python3 bench/run.py --workload meta_smt --seed 7 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no tracing:
set-up time in fresh interpreters, then a closed loop of rounds for at
least ``--seconds`` seconds after one warm-up round. With ``--trace 1`` it
runs a fixed number of rounds twice, untraced and then traced, and reports
the per-layer metrics; for a given seed their counts repeat exactly.

The last line of standard output is the result JSON; the line before it
is a record with the environment and details. Every output is checked by
the oracles in ``workloads.py``; a failed check is a failed operation.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from tracer import Tracer, instrument
from workloads import DEFAULT_SEED, WORKLOADS, Tally, Workload

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 9  # fresh interpreters per run, spread over the run; set-up time is their median
MAX_MEASURE_S = 120.0  # a timed loop stops here even below its minimum op count
REQUIRED = ("src/effattr/__init__.py", "src/effattr/cli.py", "scenarios/smt_scenario.json")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, args: argparse.Namespace) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),  # not imported: keeps peak RSS the program's
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def spawn(root: Path, code: str, *flags: str) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``code`` in a fresh interpreter and wait for it; (wall seconds, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], cwd=root, capture_output=True, text=True, timeout=120
    )
    return time.perf_counter() - t0, proc


def time_setup(root: Path, workload: Workload, tally: Tally) -> float:
    """One set-up in a fresh interpreter; a failed one is a failed operation."""
    seconds, proc = spawn(root, workload.setup_code())
    tally.attempted += 1
    if proc.returncode != 0:
        tally.fail(1, f"set-up exited {proc.returncode}: {proc.stderr[-300:]}")
    return seconds


def import_seconds(root: Path) -> tuple[float, float]:
    """Median cumulative import time of effattr (with its cli) and of numpy."""
    code = f"import sys; sys.path.insert(0, {str(root / 'src')!r}); import effattr, effattr.cli"
    totals, numpys = [], []
    for _ in range(SETUP_REPEATS):
        _, proc = spawn(root, code, "-X", "importtime")
        cumulative: dict[str, int] = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        totals.append((cumulative.get("effattr", 0) + cumulative.get("effattr.cli", 0)) / 1e6)
        numpys.append(cumulative.get("numpy", 0) / 1e6)
    return statistics.median(totals), statistics.median(numpys)


def percentile(latencies: list[float], pct: int) -> float:
    return statistics.quantiles(latencies, n=100)[pct - 1] if len(latencies) > 1 else latencies[0]


def kind_median(by_kind: dict[str, list[float]]) -> float:
    """Median over operation kinds of each kind's median latency.

    A round mixes kinds of unequal cost, so the pooled median can fall in
    the gap between two kinds and jump between them from run to run; the
    median of the kinds' medians stays inside one kind's own distribution.
    """
    return statistics.median(statistics.median(v) for v in by_kind.values())


def measure(root: Path, workload: Workload, seconds: float) -> tuple[dict[str, Any], Tally, dict[str, Any]]:
    """End-to-end metrics with tracing off.

    The set-ups run between rounds, spread evenly over the run, so their
    median is not taken from one moment of the machine's load.
    """
    total = Tally()
    setups = [time_setup(root, workload, total)]
    workload.round(0, total)  # warm-up: checked, not timed
    timed = Tally()
    start = time.perf_counter()
    k = 1
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and timed.attempted >= workload.min_ops):
            break
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(time_setup(root, workload, total))
        workload.round(k, timed)
        k += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(root, workload, total))
    setup = statistics.median(setups)
    total.merge(timed)
    pooled = [x for v in timed.latencies.values() for x in v]
    pct = workload.tail_pct
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": ((timed.attempted - timed.failed) / timed.timed_s, "ops/s"),
        "op_p50_ms": (kind_median(timed.latencies) * 1e3, "ms"),
        "op_tail_ms": (percentile(pooled, pct) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "success_ratio": ((total.attempted - total.failed) / total.attempted, "ratio"),
    }
    detail = {
        "rounds": k - 1,
        "timed_ops": timed.attempted,
        "timed_s": timed.timed_s,
        "tail_percentile": f"p{pct}",
        "tail_samples_beyond": len(pooled) * (100 - pct) // 100,
        "p99_ms": percentile(pooled, 99) * 1e3 if len(pooled) >= 1000 else None,
        "pooled_p50_ms": statistics.median(pooled) * 1e3,
        "kind_p50_ms": {kind: statistics.median(v) * 1e3 for kind, v in timed.latencies.items()},
        "fail_ratio": total.failed / total.attempted,
    }
    return metrics, total, detail


def _reset_caches() -> None:
    """Empty the quantile caches so both passes of a traced run do equal work."""
    from effattr import stats

    for fn in (stats.t_quantile, stats.f_quantile):
        getattr(fn, "cache_clear", lambda: None)()


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    t, c = tracer, tracer.counters
    responses = t.calls("model.response")
    distinct = len(t.distinct.get("model.response", ()))
    return {
        "space.load_s": (t.total("space.load_space"), "s"),
        "space.cartesian_size_s": (t.total("space.cartesian_size"), "s"),
        "space.cartesian_size_calls": (t.calls("space.cartesian_size"), "count"),
        "space.enumerate_s": (t.total("space.enumerate_configs"), "s"),
        "space.configs_enumerated": (c["space.enumerate_configs.items"], "count"),
        "design.sample_s": (t.total("design.sample"), "s"),
        "design.plan_s": (t.self_time("design.plan"), "s"),
        "design.trials_planned": (c["design.trials_planned"], "count"),
        "design.digest_s": (t.total("design.plan_digest"), "s"),
        "design.digest_calls": (t.calls("design.plan_digest"), "count"),
        "design.digest_bytes": (c["design.digest_bytes"], "bytes"),
        "design.plan_io_s": (t.total("design.plan_io"), "s"),
        "runner.run_s": (t.self_time("runner.run"), "s"),
        "runner.trials_executed": (c["runner.trials_executed"], "count"),
        "runner.trials_skipped": (c["runner.trials_skipped"], "count"),
        "runner.trials_failed": (c["runner.trials_failed"], "count"),
        "runner.log_load_s": (t.total("runner.log_load"), "s"),
        "runner.log_bytes": (c["runner.log_bytes"], "bytes"),
        "runner.collapse_s": (t.total("runner.collapse"), "s"),
        "model.response_s": (t.total("model.response"), "s"),
        "model.response_calls": (responses, "count"),
        "model.cache_hit_ratio": (1.0 - distinct / responses if responses else 0.0, "ratio"),
        "stats.infer_s": (t.total("stats.infer"), "s"),
        "stats.anova_s": (t.total("stats.anova"), "s"),
        "special.betainc_inv_calls": (t.calls("special.betainc_inv"), "count"),
        "special.betainc_inv_s": (t.total("special.betainc_inv"), "s"),
        "meta.iteration_self_s": (t.self_time("meta.iteration"), "s"),
        "meta.estimates": (t.calls("meta.iteration"), "count"),
        "util.derive_seed_calls": (c["util.derive_seed"], "count"),
        "util.assignment_id_calls": (c["util.assignment_id"], "count"),
        "util.digest_calls": (c["util.digest"], "count"),
        "cli.space_s": (t.total("cli.space"), "s"),
        "cli.plan_s": (t.total("cli.plan"), "s"),
        "cli.run_s": (t.total("cli.run"), "s"),
        "cli.analyze_s": (t.total("cli.analyze"), "s"),
        "cli.meta_s": (t.total("cli.meta"), "s"),
    }


def trace(
    root: Path, workload: Workload, env: dict[str, Any], out: Path
) -> tuple[dict[str, Any], Tally, dict[str, Any]]:
    """Per-layer metrics: the same rounds untraced, then traced; spans go to ``out``."""
    from effattr import stats

    import_s, import_numpy_s = import_seconds(root)
    total = Tally()
    workload.round(0, total)  # warm-up: checked, not timed
    rounds = range(1, 1 + workload.trace_rounds)
    passes = {}
    for traced in (False, True):
        _reset_caches()
        tracer = Tracer()
        tally = Tally(tracer if traced else None)
        with instrument(tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            for k in rounds:
                workload.round(k, tally)
            passes[traced] = time.perf_counter() - t0
        total.merge(tally)
    info = getattr(stats.t_quantile, "cache_info", None)
    metrics = layer_metrics(tracer)
    metrics["stats.t_quantile_misses"] = (info().misses if info else 0, "count")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.import_numpy_s"] = (import_numpy_s, "s")
    metrics["trace.overhead_ratio"] = (passes[True] / passes[False] - 1.0, "ratio")
    tracer.write(out, env)
    detail = {"rounds": workload.trace_rounds, "untraced_s": passes[False], "traced_s": passes[True],
              "spans": len(tracer.spans), "trace_file": str(out)}
    return metrics, total, detail


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"bench: run from the root of an effattr checkout ({missing[0]} is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = environment(root, args)
    import effattr.cli  # noqa: F401  (the package under test, from this checkout)

    digests = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = WORKLOADS[args.workload](root, tmp, args.seed, digests)
        if args.trace:
            out = root / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, tally, detail = trace(root, workload, env, out)
        else:
            metrics, tally, detail = measure(root, workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for problem in tally.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    detail["output_digests"] = workload.output_digests
    print(json.dumps({"record": {"env": env, "detail": detail, "problems": tally.problems}}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
