"""Command-line surface: validate spaces, emit plans, execute runs, analyze
logs, and run methodology meta-evaluations.

Exit codes: 0 success, 1 validation/domain error, 2 I/O error, 3 partial
run (failed trials remain). Machine-readable data goes to stdout (or
``--out``); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

from . import design, meta, runner, stats
from ._util import Kind, parse_json, read
from .model import load_model_file
from .space import ROLE_CUI, ROLE_DC, load_space_file

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_PARTIAL = 3


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
    return _table(header, rows, "csv" if fmt == "csv" else "markdown")


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
        if not args.split:
            raise design.PlanError("2kr planning requires --split")
        split = parse_json(args.split, design.PlanError, "--split")
        plan = design.factorial_2kr(space, split, r=args.r, seed=args.seed, stratify=args.stratify)
    elif args.method == "rct":
        if args.n is None or not args.control or not args.treatment:
            raise design.PlanError("rct planning requires --n, --control and --treatment")
        plan = design.rct_plan(
            space, args.control, args.treatment, n=args.n, r=args.r, seed=args.seed
        )
    elif args.method == "paired":
        if args.n is None or not args.cui_a or not args.cui_ref:
            raise design.PlanError("paired planning requires --n, --cui-a and --cui-ref")
        if args.stratify:
            dc = design.stratified_sample(space, args.stratify, args.n, args.seed)
        else:
            dc = design.simple_random_sample(space, (ROLE_DC,), args.n, args.seed)
        plan = design.paired_plan(
            space, args.cui_a, args.cui_ref, dc, r=args.r, seed=args.seed, stratum=args.stratify
        )
    else:  # pragma: no cover - argparse restricts choices
        raise design.PlanError(f"unknown method {args.method!r}")
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
        return runner.SyntheticBackend(load_model_file(rest))
    if kind == "external":
        if space is None:
            raise runner.RunError("external backend requires --space to resolve level values")
        return runner.ExternalBackend(rest, space, unit=args.unit, timeout=args.timeout)
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
    fmt = args.format or "plain"
    if args.what == "anova":
        table = stats.anova(log, plan, alpha=args.alpha)
        _emit(render_anova(table, fmt, raw=args.raw), args.out)
        return EXIT_OK
    weights = None
    if args.weights:
        doc = parse_json(Path(args.weights).read_text(encoding="utf-8"), stats.StatsError, "--weights")
        weights = read({"--weights": doc}, _WEIGHTS, stats.StatsError)[0]
    if args.what == "ttest":
        sample = stats.paired_diffs(log, plan, aggregate=args.aggregate)
        est = stats.one_sample_ttest(sample, mu0=args.mu0, alpha=args.alpha)
    elif plan.method == "paired":
        est = stats.paired_effect(
            log,
            plan,
            average_kind=args.average,
            weights=weights,
            mu0=args.mu0,
            alpha=args.alpha,
            aggregate=args.aggregate,
        )
    elif plan.method == "rct":
        est = stats.ate(log, plan, alpha=args.alpha, mu0=args.mu0, aggregate=args.aggregate)
    else:
        raise stats.StatsError(
            f"effect analysis supports paired and rct plans, got {plan.method!r}"
        )
    _emit(render_estimate(est, fmt, raw=args.raw), args.out)
    return EXIT_OK


def cmd_meta(args: argparse.Namespace) -> int:
    scenario = meta.load_scenario_file(args.scenario)
    truth = meta.ground_truth(scenario)
    rows = meta.accuracy_cost(scenario)
    _diag(f"ground truth: {truth!r}")
    for row in rows:
        _diag(f"{row.method}: mean ci width {row.mean_ci_width!r}")
    fmt = args.format or "csv"
    _emit(render_accuracy(rows, truth, fmt, raw=args.raw), args.out)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: each parse returns a fresh
    namespace, and ``main`` looks the subcommand up by name on every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed for all randomized steps")
    common.add_argument("--alpha", type=float, default=0.01, help="significance level")
    common.add_argument("--format", choices=("csv", "markdown", "plain"), default=None)
    common.add_argument("--out", default=None, help="write data to this path instead of stdout")
    common.add_argument("--raw", action="store_true", help="full float precision instead of 6 decimals")

    parser = argparse.ArgumentParser(prog="effattr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", parents=[common], help="validate a space or report cardinalities")
    p_space.add_argument("action", choices=("validate", "size"))
    p_space.add_argument("space")

    p_plan = sub.add_parser("plan", parents=[common], help="emit a design plan")
    p_plan.add_argument("method", choices=("full", "2kr", "rct", "paired"))
    p_plan.add_argument("--space", required=True)
    p_plan.add_argument("--plan-out", required=True, help="path for the plan document")
    p_plan.add_argument("--r", type=int, default=1, help="replicates per configuration")
    p_plan.add_argument("--n", type=int, default=None, help="sample size (rct, paired)")
    p_plan.add_argument(
        "--budget",
        type=int,
        default=design.DEFAULT_TRIAL_BUDGET,
        help="most trials a full plan may have (plan full only; the other methods ignore it)",
    )
    p_plan.add_argument("--split", default=None, help="2kr low/high blocks as JSON")
    p_plan.add_argument("--stratify", default=None, help="stratum factor name")
    p_plan.add_argument("--control", default=None, help="rct control CUI level")
    p_plan.add_argument("--treatment", default=None, help="rct treatment CUI level")
    p_plan.add_argument("--cui-a", default=None, help="paired investigated CUI level")
    p_plan.add_argument("--cui-ref", default=None, help="paired reference CUI level")

    p_run = sub.add_parser("run", parents=[common], help="execute a plan against a backend")
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
    p_run.add_argument("--unit", default="seconds", help="measurement unit (external backend)")
    p_run.add_argument("--timeout", type=float, default=None, help="per-trial timeout in seconds")

    p_an = sub.add_parser("analyze", parents=[common], help="analyze a run log")
    p_an.add_argument("what", choices=("effect", "ttest", "anova"))
    p_an.add_argument("--log", required=True)
    p_an.add_argument("--plan", required=True)
    p_an.add_argument("--average", choices=stats.AVERAGE_KINDS, default="arithmetic")
    p_an.add_argument("--weights", default=None, help="JSON array of per-pair weights")
    p_an.add_argument("--mu0", type=float, default=0.0)
    p_an.add_argument("--aggregate", choices=runner.AGGREGATE_METHODS, default="median")

    p_meta = sub.add_parser("meta", parents=[common], help="accuracy/cost meta-evaluation")
    p_meta.add_argument("--scenario", required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_DOMAIN
        return EXIT_OK if code == 0 else EXIT_DOMAIN
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:  # the base of every domain error: SpaceError, PlanError, ...
        _diag(f"error: {exc}")
        return EXIT_DOMAIN
    except OSError as exc:
        _diag(f"io error: {exc}")
        return EXIT_IO


def entry() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
