"""Command-line surface: validate spaces, emit plans, execute runs, analyze
logs, and run methodology meta-evaluations.

Exit codes: 0 success, 1 validation/domain error, 2 I/O error, 3 partial
run (failed trials remain), 130 interrupted (Ctrl-C; a run keeps the
records it appended and ends the commands it started). The ``effattr``
command treats SIGTERM and SIGHUP as Ctrl-C and exits 143 and 129 on them.
Machine-readable data goes to stdout (or ``--out``); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import signal
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import design, meta, runner, stats
from ._util import Kind, gc_paused, parse_json, read
from .model import load_model_file
from .space import ROLE_CUI, ROLE_DC, load_space_file

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_PARTIAL = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C


class Terminated(KeyboardInterrupt):
    """SIGTERM or SIGHUP, raised in the main thread as Ctrl-C raises
    ``KeyboardInterrupt``, so that a run ends the same way."""

    def __init__(self, signum: int):
        super().__init__(signum)
        self.exit_code = 128 + signum


def _fmt(x: float, raw: bool = False) -> str:
    if raw:
        return repr(x)
    if x != x or math.isinf(x):
        return str(x)
    return f"{x:.6f}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


# -- report rendering --------------------------------------------------------


def _table(header: Sequence[str], rows: Iterable[Sequence[str]], fmt: str) -> str:
    """A CSV table, or a markdown one where ``fmt`` is "markdown"."""
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
        lines += ["| " + " | ".join(r) + " |" for r in rows]
    else:
        lines = [",".join(header)] + [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def _estimate_fields(est: stats.EffectEstimate, raw: bool) -> list[tuple[str, str]]:
    return [
        ("delta_e", _fmt(est.delta_e, raw)),
        ("n", str(est.n)),
        ("s", _fmt(est.s, raw)),
        ("df", _fmt(est.df, raw)),
        ("t_value", _fmt(est.t_value, raw)),
        ("t_critical", _fmt(est.t_critical, raw)),
        ("ci_lower", _fmt(est.ci[0], raw)),
        ("ci_upper", _fmt(est.ci[1], raw)),
        ("alpha", _fmt(est.alpha, raw)),
        ("mu0", _fmt(est.mu0, raw)),
        ("verdict", est.verdict),
        ("average_kind", est.average_kind),
        ("unit", est.unit),
    ]


def render_estimate(est: stats.EffectEstimate, fmt: str, raw: bool = False) -> str:
    fields = _estimate_fields(est, raw)
    if fmt == "csv":
        return _table([k for k, _ in fields], [[v for _, v in fields]], fmt)
    if fmt == "markdown":
        return _table(["field", "value"], fields, fmt)
    summary = f"delta_e={_fmt(est.delta_e, raw)} verdict={est.verdict}"
    detail = "\n".join(f"{k}={v}" for k, v in fields[1:])
    return f"{summary}\n{detail}\n"


def render_anova(table: stats.AnovaTable, fmt: str, raw: bool = False) -> str:
    header = ["component", "ss", "df", "pct", "f_computed", "f_critical", "significant"]
    rows = [
        [
            row.label,
            _fmt(row.ss, raw),
            str(row.df),
            _fmt(row.pct, raw),
            _fmt(row.f_computed, raw),
            _fmt(row.f_critical, raw),
            "true" if row.significant else "false",
        ]
        for row in table.rows
    ]
    err = table.error_row
    rows.append(["errors", _fmt(err.ss, raw), str(err.df), _fmt(err.pct, raw), "", "", ""])
    return _table(header, rows, fmt)


def render_accuracy(rows: Sequence[meta.AccuracyRow], truth: float, fmt: str, raw: bool = False) -> str:
    header = ["method", "cost", "accuracy", "mean_ci_width", "iterations", "ground_truth"]
    data = [
        [
            r.method,
            str(r.cost),
            _fmt(r.accuracy, raw),
            _fmt(r.mean_ci_width, raw),
            str(r.iterations),
            _fmt(truth, raw),
        ]
        for r in rows
    ]
    return _table(header, data, fmt)


# -- subcommands ---------------------------------------------------------------


def cmd_space(args: argparse.Namespace) -> int:
    space = load_space_file(args.space)
    if args.action == "validate":
        _emit(
            f"valid: factors={len(space.factors)} "
            f"total cardinality: {space.cartesian_size()}\n",
            args.out,
        )
        return EXIT_OK
    lines = [
        f"CUI cardinality: {space.cartesian_size(roles=(ROLE_CUI,))}",
        f"DC cardinality: {space.cartesian_size(roles=(ROLE_DC,))}",
        f"total cardinality: {space.cartesian_size()}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    space = load_space_file(args.space)
    if args.method == "full":
        plan = design.full_factorial(space, r=args.r, seed=args.seed, budget=args.budget)
    elif args.method == "2kr":
        split = parse_json(args.split, design.PlanError, "--split")
        plan = design.factorial_2kr(space, split, r=args.r, seed=args.seed, stratify=args.stratify)
    elif args.method == "rct":
        plan = design.rct_plan(
            space, args.control, args.treatment, n=args.n, r=args.r, seed=args.seed
        )
    else:
        if args.stratify:
            dc = design.stratified_sample(space, args.stratify, args.n, args.seed)
        else:
            dc = design.simple_random_sample(space, (ROLE_DC,), args.n, args.seed)
        plan = design.paired_plan(
            space, args.cui_a, args.cui_ref, dc, r=args.r, seed=args.seed, stratum=args.stratify
        )
    design.save_plan(plan, args.plan_out)
    _emit(f"configs={plan.n_configs} trials={len(plan.trials)} cost={plan.cost}\n", args.out)
    return EXIT_OK


def _make_backend(args: argparse.Namespace, plan: design.DesignPlan) -> runner.Backend:
    space = None
    if args.space:
        space = load_space_file(args.space)
        if space.space_digest != plan.space_digest:
            raise runner.RunError(
                f"space/plan mismatch: --space has digest {space.space_digest[:12]}, "
                f"the plan was built on space {plan.space_digest[:12]}"
            )
    spec = args.backend
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise runner.RunError(f"backend spec must be 'synthetic:<model.json>' or 'external:<template>', got {spec!r}")
    if kind == "synthetic":
        for option, value in (("--unit", args.unit), ("--timeout", args.timeout)):
            if value is not None:
                raise runner.RunError(f"{option} applies only to the external backend")
        return runner.SyntheticBackend(load_model_file(rest))
    if kind == "external":
        if space is None:
            raise runner.RunError("external backend requires --space to resolve level values")
        unit = "seconds" if args.unit is None else args.unit
        return runner.ExternalBackend(rest, space, unit=unit, timeout=args.timeout)
    raise runner.RunError(f"unknown backend kind {kind!r}")


def cmd_run(args: argparse.Namespace) -> int:
    plan = design.load_plan(args.plan)
    backend = _make_backend(args, plan)
    log_path = Path(args.log)
    if log_path.exists():
        log = runner.RunLog.load(log_path)
    else:
        log = runner.new_log(plan, backend, path=log_path)
    try:
        report = runner.run(plan, backend, log, parallelism=args.parallelism, retry=args.retry)
        remaining = log.failed_count()
    finally:
        log.close()
    _emit(f"{report.executed} new trials, {report.failed} failed\n", args.out)
    if remaining:
        _diag(f"{remaining} failed trial(s) present in {log_path}")
        return EXIT_PARTIAL
    return EXIT_OK


_WEIGHTS = {"--weights": Kind("array", each=Kind("number"))}


def cmd_analyze(args: argparse.Namespace) -> int:
    plan = design.load_plan(args.plan)
    log = runner.RunLog.load(args.log)
    log.close()
    runner.check_log(log, plan)
    if args.what == "anova":
        table = stats.anova(log, plan, alpha=args.alpha)
        _emit(render_anova(table, args.format, raw=args.raw), args.out)
        return EXIT_OK
    if plan.method == "paired":
        weights = None
        if args.weights is not None:
            if args.average != "weighted":
                raise stats.StatsError("--weights applies only with --average weighted")
            doc = parse_json(Path(args.weights).read_text(encoding="utf-8"), stats.StatsError, "--weights")
            weights = read({"--weights": doc}, _WEIGHTS, stats.StatsError)[0]
        est = stats.paired_effect(
            log,
            plan,
            average_kind=args.average or "arithmetic",
            weights=weights,
            mu0=args.mu0,
            alpha=args.alpha,
            aggregate=args.aggregate,
        )
    elif plan.method == "rct":
        for option, value in (("--average", args.average), ("--weights", args.weights)):
            if value is not None:
                raise stats.StatsError(f"{option} does not apply to an rct plan")
        est = stats.ate(log, plan, alpha=args.alpha, mu0=args.mu0, aggregate=args.aggregate)
    else:
        raise stats.StatsError(
            f"effect analysis supports paired and rct plans, got {plan.method!r}"
        )
    _emit(render_estimate(est, args.format, raw=args.raw), args.out)
    return EXIT_OK


def cmd_meta(args: argparse.Namespace) -> int:
    scenario = meta.load_scenario_file(args.scenario)
    truth = meta.ground_truth(scenario)
    rows = meta.accuracy_cost(scenario)
    _diag(f"ground truth: {truth!r}")
    for row in rows:
        _diag(f"{row.method}: mean ci width {row.mean_ci_width!r}")
    _emit(render_accuracy(rows, truth, args.format, raw=args.raw), args.out)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser that takes options only as spelled in full; ``add_parser``
    makes its subparsers of the same class."""

    def __init__(self, **kwargs: Any):
        super().__init__(allow_abbrev=False, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: each parse returns a fresh
    namespace, and ``main`` looks the subcommand up by name on every call.
    Each subcommand, plan method and analysis kind takes exactly the options
    its ``cmd_*`` branch reads."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write data to this path instead of stdout")

    def report(p: argparse.ArgumentParser, formats: tuple[str, ...], default: str) -> None:
        p.add_argument("--format", choices=formats, default=default, help=f"default {default}")
        p.add_argument("--raw", action="store_true", help="full float precision instead of 6 decimals")

    parser = _Parser(prog="effattr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", parents=[out], help="validate a space or report cardinalities")
    p_space.add_argument("action", choices=("validate", "size"))
    p_space.add_argument("space")

    plan_opts = argparse.ArgumentParser(add_help=False, parents=[out])
    plan_opts.add_argument("--space", required=True)
    plan_opts.add_argument("--plan-out", required=True, help="path for the plan document")
    plan_opts.add_argument("--r", type=int, default=1, help="replicates per configuration")
    plan_opts.add_argument("--seed", type=int, default=0, help="master seed for all randomized steps")
    methods = sub.add_parser("plan", help="emit a design plan").add_subparsers(dest="method", required=True)
    p = methods.add_parser("full", parents=[plan_opts], help="full factorial over the space")
    p.add_argument("--budget", type=int, default=design.DEFAULT_TRIAL_BUDGET, help="most trials the plan may have")
    p = methods.add_parser("2kr", parents=[plan_opts], help="2^k r factorial over low/high blocks")
    p.add_argument("--split", required=True, help="low/high blocks as JSON")
    p.add_argument("--stratify", default=None, help="stratum factor name")
    p = methods.add_parser("rct", parents=[plan_opts], help="randomized controlled trial")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--control", required=True, help="control CUI level")
    p.add_argument("--treatment", required=True, help="treatment CUI level")
    p = methods.add_parser("paired", parents=[plan_opts], help="paired comparison of two CUI levels")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--cui-a", required=True, help="investigated CUI level")
    p.add_argument("--cui-ref", required=True, help="reference CUI level")
    p.add_argument("--stratify", default=None, help="stratum factor name")

    p_run = sub.add_parser("run", parents=[out], help="execute a plan against a backend")
    p_run.add_argument("--plan", required=True)
    p_run.add_argument("--log", required=True)
    p_run.add_argument("--backend", required=True, help="synthetic:<model.json> or external:<template>")
    p_run.add_argument(
        "--space", default=None, help="space document, checked against the plan (required by the external backend)"
    )
    p_run.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="trials at once in threads, which overlap external commands; synthetic trials run in the calling thread",
    )
    p_run.add_argument("--retry", type=int, default=0, help="in-run retries for failed trials")
    p_run.add_argument("--unit", default=None, help="measurement unit (external backend; default seconds)")
    p_run.add_argument("--timeout", type=float, default=None, help="per-trial timeout in seconds (external backend)")

    analysis_opts = argparse.ArgumentParser(add_help=False, parents=[out])
    analysis_opts.add_argument("--log", required=True)
    analysis_opts.add_argument("--plan", required=True)
    analysis_opts.add_argument("--alpha", type=float, default=0.01, help="significance level")
    kinds = sub.add_parser("analyze", help="analyze a run log").add_subparsers(dest="what", required=True)
    p = kinds.add_parser("effect", parents=[analysis_opts], help="effect of a paired or rct plan")
    report(p, ("csv", "markdown", "plain"), "plain")
    p.add_argument("--average", choices=stats.AVERAGE_KINDS, default=None, help="paired plans only; default arithmetic")
    p.add_argument("--weights", default=None, help="JSON array of per-pair weights (--average weighted)")
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--aggregate", choices=runner.AGGREGATE_METHODS, default="median")
    p = kinds.add_parser("anova", parents=[analysis_opts], help="n-way ANOVA of a full plan")
    report(p, ("csv", "markdown"), "markdown")

    p_meta = sub.add_parser("meta", parents=[out], help="accuracy/cost meta-evaluation")
    p_meta.add_argument("--scenario", required=True)
    report(p_meta, ("csv", "markdown"), "csv")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_DOMAIN
        return EXIT_OK if code == 0 else EXIT_DOMAIN
    try:
        with gc_paused():
            return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:  # the base of every domain error: SpaceError, PlanError, ...
        _diag(f"error: {exc}")
        return EXIT_DOMAIN
    except OSError as exc:
        _diag(f"io error: {exc}")
        return EXIT_IO
    except KeyboardInterrupt as exc:  # ``cmd_run`` has closed its log, every record appended kept
        _diag("interrupted")
        return getattr(exc, "exit_code", EXIT_INTERRUPTED)


def _terminate(signum: int, frame: object) -> None:
    raise Terminated(signum)


def entry() -> None:  # pragma: no cover - console script shim
    # Only the command takes these signals over: ``main`` also runs inside other programs.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _terminate)
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
