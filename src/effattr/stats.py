"""Inference core: paired effect estimation, t tests and intervals, the
average treatment effect for randomized plans, and balanced n-way ANOVA
with all interaction orders.

Zero-variance samples are legal inputs (exact synthetic measurements
produce them constantly): the t statistic is undefined there, so the
verdict is ruled by exact equality and the interval degenerates to a
point.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache
from itertools import repeat
from operator import itemgetter, mul, sub, truediv
from typing import Callable, Hashable, NamedTuple, Sequence

from ._util import AVERAGE_KINDS  # noqa: F401  the averages ``paired_effect`` takes, importable here
from .design import ARM_A, ARM_REF, DesignPlan, GROUP_CONTROL, GROUP_TREATMENT, Trial, read_factors
from .runner import RunLog, collapse
from .space import Configuration
from .special import betainc_inv

VERDICT_REJECT = "reject"
VERDICT_FAIL_TO_REJECT = "fail_to_reject"

_ANOVA_MAX_FACTORS = 6

# Below this distance from 1, a quantile's beta variate is inverted on its
# complementary side (see f_quantile).
_TAIL_SIDE = 1e-3


class StatsError(ValueError):
    """Raised for domain violations in statistical operations."""


# -- scalar statistics -----------------------------------------------------


def _finite(stage: str, compute: Callable[[], float]) -> float:
    """``compute()``, refused with a ``StatsError`` naming ``stage`` where it
    overflows (raises ``OverflowError`` or ends infinite or NaN)."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    raise StatsError(f"{stage} overflows")


def sample_mean(xs: Sequence[float]) -> float:
    if len(xs) == 0:
        raise StatsError("sample_mean: empty sample")
    return _finite("sample_mean: the sum", lambda: math.fsum(xs) / len(xs))


def sample_std(xs: Sequence[float]) -> float:
    """Unbiased (n - 1 denominator) sample standard deviation."""
    n = len(xs)
    if n < 2:
        raise StatsError("sample_std: needs at least 2 observations")
    m = sample_mean(xs)
    return _finite(
        "sample_std: the sum of squared deviations", lambda: math.sqrt(math.fsum((x - m) ** 2 for x in xs) / (n - 1))
    )


def t_statistic(mean: float, mu0: float, s: float, n: int) -> float:
    if n < 2:
        raise StatsError("t_statistic: needs n >= 2")
    if s <= 0:
        raise StatsError("t_statistic: degenerate sample (s = 0); rule by exact equality instead")
    return (mean - mu0) / (s / math.sqrt(n))


@lru_cache(maxsize=4096)
def t_quantile(alpha_tail: float, df: float) -> float:
    """Upper-tail Student-t quantile: P(T > t) = alpha_tail."""
    if not 0.0 < alpha_tail < 0.5:
        raise StatsError(f"t_quantile: tail probability must be in (0, 0.5), got {alpha_tail}")
    if df < 1:
        raise StatsError(f"t_quantile: df must be >= 1, got {df}")
    # T^2 ~ F(1, df), so P(T > t) = tail exactly when P(F > t^2) = 2 * tail.
    return math.sqrt(f_quantile(2.0 * alpha_tail, 1, df))


@lru_cache(maxsize=4096)
def f_quantile(alpha: float, df1: float, df2: float) -> float:
    """Upper-tail F quantile: P(F > f) = alpha."""
    if not 0.0 < alpha < 1.0:
        raise StatsError(f"f_quantile: alpha must be in (0, 1), got {alpha}")
    if df1 < 1 or df2 < 1:
        raise StatsError(f"f_quantile: degrees of freedom must be >= 1, got ({df1}, {df2})")
    # w = df1 f / (df2 + df1 f) satisfies I_w(df1/2, df2/2) = 1 - alpha; inverting
    # on the w side keeps full precision for large df2. Near w = 1, 1 - w cancels,
    # so it is taken from the complementary inverse I_{1-w}(df2/2, df1/2) = alpha.
    w = betainc_inv(df1 / 2.0, df2 / 2.0, 1.0 - alpha)
    if 1.0 - w < _TAIL_SIDE:
        v = betainc_inv(df2 / 2.0, df1 / 2.0, alpha)
        return df2 * (1.0 - v) / (df1 * v)
    return df2 * w / (df1 * (1.0 - w))


# -- effect estimates --------------------------------------------------------


class DiffSample(NamedTuple):
    """Per-pair differences between a CUI level and the reference level."""

    diffs: tuple[float, ...]
    unit: str = "units"


class EffectEstimate(NamedTuple):
    """An effect difference with its test and interval.

    ``s`` is scaled so that ``s / sqrt(n)`` is the standard error of the
    estimate, which keeps ``ci = delta_e -/+ t_critical * s / sqrt(n)``
    exact for both the one-sample and the two-sample (Welch) cases.
    """

    delta_e: float
    n: int
    s: float
    alpha: float
    mu0: float
    t_value: float
    t_critical: float
    df: float
    ci: tuple[float, float]
    verdict: str
    average_kind: str = "arithmetic"
    unit: str = "units"

    def covers(self, mu: float) -> bool:
        """Interval membership matching the test duality exactly.

        Open interval in the regular case; a degenerate point interval
        covers only its own point.
        """
        return _inside(self.ci, mu)

    @property
    def width(self) -> float:
        return self.ci[1] - self.ci[0]


def _inside(ci: tuple[float, float], mu: float) -> bool:
    lo, hi = ci
    return mu == lo if lo == hi else lo < mu < hi


def _estimate(
    delta: float,
    se: float,
    df: float,
    n: int,
    alpha: float,
    mu0: float,
    unit: str,
    s: float | None = None,
) -> EffectEstimate:
    """Test and interval for ``delta`` with standard error ``se`` on ``df``.

    A zero standard error gives a point interval, so the verdict is ruled
    by exact equality. The verdict is read off the interval rather than
    |t| >= t_crit: the two agree in exact arithmetic, and this way they
    also agree where rounding puts an endpoint on mu0. ``s`` defaults to
    ``se * sqrt(n)``; the one-sample test passes its sample deviation and
    keeps its half-width as t * s / sqrt(n). An estimate or a standard
    error that is not finite is refused.
    """
    if not (math.isfinite(delta) and math.isfinite(se)):
        raise StatsError(f"the effect estimate is not finite: delta_e={delta!r}, standard error={se!r}")
    t_crit = t_quantile(alpha / 2.0, df)
    if se == 0.0:
        t_val = 0.0 if delta == mu0 else math.copysign(math.inf, delta - mu0)
        ci = (delta, delta)
    else:
        t_val = (delta - mu0) / se
        half = t_crit * se if s is None else t_crit * s / math.sqrt(n)
        ci = (delta - half, delta + half)
    verdict = VERDICT_FAIL_TO_REJECT if _inside(ci, mu0) else VERDICT_REJECT
    return EffectEstimate(
        delta_e=delta,
        n=n,
        s=se * math.sqrt(n) if s is None else s,
        alpha=alpha,
        mu0=mu0,
        t_value=t_val,
        t_critical=t_crit,
        df=df,
        ci=ci,
        verdict=verdict,
        unit=unit,
    )


def one_sample_ttest(diffs: DiffSample, mu0: float = 0.0, alpha: float = 0.01) -> EffectEstimate:
    """Two-sided one-sample t test of the mean difference against mu0."""
    xs = diffs.diffs
    n = len(xs)
    if n < 2:
        raise StatsError("t test: needs at least 2 observations")
    if not 0.0 < alpha < 1.0:
        raise StatsError(f"t test: alpha must be in (0, 1), got {alpha}")
    s = sample_std(xs)
    return _estimate(sample_mean(xs), s / math.sqrt(n), n - 1, n, alpha, mu0, diffs.unit, s=s)


def confidence_interval(diffs: DiffSample, alpha: float = 0.01) -> tuple[float, float]:
    """1 - alpha confidence interval for the mean difference."""
    return one_sample_ttest(diffs, mu0=0.0, alpha=alpha).ci


# -- paired effect -----------------------------------------------------------


def _plan_values(
    log: RunLog, plan: DesignPlan, aggregate: str, key: Callable[[Trial], Hashable]
) -> dict[Hashable, list[float]]:
    """Collapsed values of each key's distinct configurations, in plan order."""
    collapsed = collapse(log, aggregate)
    ids: dict[Hashable, dict[str, None]] = {}
    for trial in plan.trials:
        ids.setdefault(key(trial), {})[trial.config.id] = None
    missing = sorted({cid for cids in ids.values() for cid in cids if cid not in collapsed})
    if missing:
        raise StatsError(f"incomplete log: no ok measurements for configurations {missing[:5]}")
    return {k: [collapsed[cid] for cid in cids] for k, cids in ids.items()}


def _pair_arm(trial: Trial) -> tuple[str, str]:
    if trial.pair_id is None or trial.arm is None:
        raise StatsError("paired plan contains a trial without pair metadata")
    return trial.pair_id, trial.arm


def paired_diffs(log: RunLog, plan: DesignPlan, aggregate: str = "median") -> DiffSample:
    """Collapse replicates and take per-pair differences in plan order."""
    if plan.method != "paired":
        raise StatsError(f"paired analysis requires a paired plan, got {plan.method!r}")
    values = _plan_values(log, plan, aggregate, _pair_arm)
    diffs = []
    for pid in dict.fromkeys(pid for pid, _ in values):
        a, ref = values.get((pid, ARM_A), ()), values.get((pid, ARM_REF), ())
        if len(a) != 1 or len(ref) != 1:
            raise StatsError(
                f"pair {pid!r}: each arm needs exactly one configuration, got {len(a)} in arm "
                f"{ARM_A!r} and {len(ref)} in arm {ARM_REF!r}"
            )
        diffs.append(_finite(f"pair {pid!r}: the difference", lambda: a[0] - ref[0]))
    return DiffSample(diffs=tuple(diffs), unit=log.header.unit)


def _average(diffs: Sequence[float], kind: str, weights: Sequence[float] | None) -> float:
    if kind == "arithmetic":
        return sample_mean(diffs)
    if kind == "weighted":
        if weights is None:
            raise StatsError("weighted average requires explicit weights")
        if len(weights) != len(diffs):
            raise StatsError(f"weights length {len(weights)} != diffs length {len(diffs)}")
        if any(w < 0 for w in weights):
            raise StatsError("weights must be nonnegative")
        total = _finite("weighted average: the sum of weights", lambda: math.fsum(weights))
        if total <= 0:
            raise StatsError("weights must not all be zero")
        return _finite("weighted average: the weighted sum", lambda: math.fsum(map(mul, weights, diffs)) / total)
    if kind == "geometric":
        if any(d <= 0 for d in diffs):
            raise StatsError("geometric average requires all diffs > 0")
        return _finite("geometric average", lambda: math.exp(sample_mean([math.log(d) for d in diffs])))
    raise StatsError(f"unknown average kind {kind!r}")


def paired_effect(
    log: RunLog,
    plan: DesignPlan,
    average_kind: str = "arithmetic",
    weights: Sequence[float] | None = None,
    mu0: float = 0.0,
    alpha: float = 0.01,
    aggregate: str = "median",
) -> EffectEstimate:
    """Effect difference from a paired plan: average of per-pair diffs.

    The test and interval always come from the one-sample t test on the
    raw diffs; ``average_kind`` only selects how ``delta_e`` is averaged.
    """
    sample = paired_diffs(log, plan, aggregate)
    estimate = one_sample_ttest(sample, mu0=mu0, alpha=alpha)
    if average_kind != "arithmetic":
        estimate = estimate._replace(
            delta_e=_average(sample.diffs, average_kind, weights),
            average_kind=average_kind,
        )
    return estimate


# -- average treatment effect -------------------------------------------------


def ate(
    log: RunLog,
    plan: DesignPlan,
    alpha: float = 0.01,
    mu0: float = 0.0,
    aggregate: str = "median",
) -> EffectEstimate:
    """mean(treatment) - mean(control) with a Welch two-sample interval."""
    if plan.method != "rct":
        raise StatsError(f"ate requires an rct plan, got {plan.method!r}")
    values = _plan_values(log, plan, aggregate, lambda trial: trial.group)
    xc, xt = (values.get(g, []) for g in (GROUP_CONTROL, GROUP_TREATMENT))
    return welch_estimate(xc, xt, alpha=alpha, mu0=mu0, unit=log.header.unit)


def welch_estimate(
    xc: Sequence[float],
    xt: Sequence[float],
    alpha: float = 0.01,
    mu0: float = 0.0,
    unit: str = "units",
) -> EffectEstimate:
    """The value-level core of ``ate``: control and treatment values per configuration."""
    if not 0.0 < alpha < 1.0:
        raise StatsError(f"ate: alpha must be in (0, 1), got {alpha}")
    for group, xs in ((GROUP_CONTROL, xc), (GROUP_TREATMENT, xt)):
        if len(xs) < 2:
            raise StatsError(f"ate: {group} arm needs at least 2 configurations, has {len(xs)}")
    n1, n2 = len(xc), len(xt)
    delta = sample_mean(xt) - sample_mean(xc)
    v1 = sample_std(xc) ** 2 / n1  # at most the sum of squares that ``sample_std`` checked
    v2 = sample_std(xt) ** 2 / n2
    se = math.sqrt(v1 + v2)
    if se == 0.0:
        df = float(n1 + n2 - 2)
    else:
        df = _finite(
            "ate: the Welch degrees of freedom", lambda: (v1 + v2) ** 2 / (v1**2 / (n1 - 1) + v2**2 / (n2 - 1))
        )
    return _estimate(delta, se, df, n1 + n2, alpha, mu0, unit)


# -- 2^k r contrast -----------------------------------------------------------


def factorial_contrast(
    high: Sequence[Sequence[float]],
    low: Sequence[Sequence[float]],
    r: int,
    alpha: float = 0.01,
    unit: str = "units",
) -> EffectEstimate:
    """CUI contrast of a 2^k r design with its replication-based error.

    ``high`` and ``low`` hold the r replicate values of each cell on either
    side of the CUI split. delta = mean(high cells) - mean(low cells); the
    standard error comes from the pooled within-cell replicate variance.
    """
    if r < 2:
        raise StatsError("factorial_2kr accuracy requires r >= 2 for a replication error term")
    n_high, n_low = len(high), len(low)
    if n_high == 0 or n_low == 0:
        raise StatsError("factorial_2kr accuracy: a contrast side has no cells")
    delta = sample_mean([v for cell in high for v in cell]) - sample_mean(
        [v for cell in low for v in cell]
    )
    within = _finite(
        "factorial_2kr accuracy: the within-cell sum of squares",
        lambda: math.fsum((v - sample_mean(cell)) ** 2 for side in (high, low) for cell in side for v in cell),
    )
    df = (n_high + n_low) * (r - 1)
    se = math.sqrt(within / df * (1.0 / (n_high * r) + 1.0 / (n_low * r)))
    return _estimate(delta, se, df, (n_high + n_low) * r, alpha, 0.0, unit)


# -- n-way ANOVA ---------------------------------------------------------------


class AnovaRow(NamedTuple):
    component: tuple[str, ...]
    ss: float
    df: int
    pct: float
    f_computed: float
    f_critical: float
    significant: bool

    @property
    def label(self) -> str:
        return "*".join(self.component)


class ErrorRow(NamedTuple):
    ss: float
    df: int
    pct: float


class AnovaTable(NamedTuple):
    rows: tuple[AnovaRow, ...]
    error_row: ErrorRow
    total_ss: float
    alpha: float


def _no_cell(config: Configuration, names: list[str], labels: list[list[str]]) -> StatsError:
    """Why the configuration has no cell in the grid of ``metadata.factors``."""
    assignment = config.assignment
    if assignment.keys() != set(names):
        return StatsError(
            f"anova: configuration {config.id} sets factors {sorted(assignment)}, "
            f"but the plan's metadata.factors names {sorted(names)}"
        )
    name, label = next((n, assignment[n]) for n, labs in zip(names, labels) if assignment[n] not in labs)
    return StatsError(
        f"anova: configuration {config.id} sets {name}={label!r}, "
        f"a label that the plan's metadata.factors does not list"
    )


def _measurements(log: RunLog, plan: DesignPlan, names: list[str], labels: list[list[str]]) -> list[float]:
    """The ok measurement of each trial, in C order over the factor grid and
    then the replicate; the first trial without one is named."""
    r, k = plan.r, len(names)
    cells = list(itertools.product(*labels))
    start_of = dict(zip(cells, itertools.count(0, r)))  # by label tuple
    ys: list[float | None] = [None] * (len(cells) * r)
    starts: dict[int, int] = {}  # by Configuration object, which replicates share
    ok_value = log.ok_value
    for config, rep in map(itemgetter(0, 1), plan.trials):
        start = starts.get(id(config))
        if start is None:
            assignment = config.assignment
            start = start_of.get(tuple(map(assignment.get, names))) if len(assignment) == k else None
            if start is None:
                raise _no_cell(config, names, labels)
            starts[id(config)] = start
        if not 0 <= rep < r:
            raise StatsError(f"anova: trial {config.id}/{rep} has a replicate outside 0..{r - 1}")
        value = ok_value(config.id, rep)
        if value is None:
            raise StatsError(f"anova: unbalanced design; missing ok measurement for {config.id}/{rep}")
        ys[start + rep] = value
    if None in ys:
        raise StatsError("anova: unbalanced design; some cells have no measurement")
    return list(map(float, ys))  # type: ignore[arg-type]


def anova(log: RunLog, plan: DesignPlan, alpha: float = 0.01) -> AnovaTable:
    """Balanced complete-factorial decomposition with every interaction order.

    Requires the full-factorial plan's replication (r >= 2) so the error
    term exists; any missing or failed measurement makes the design
    unbalanced and is rejected. A component of a single-level factor has
    no degrees of freedom (and a zero sum of squares), so it has no row.
    """
    if plan.method != "full_factorial":
        raise StatsError(f"anova requires a full_factorial plan, got {plan.method!r}")
    if not 0.0 < alpha < 1.0:
        raise StatsError(f"anova: alpha must be in (0, 1), got {alpha}")
    r = plan.r
    if r < 2:
        raise StatsError("anova: r = 1 leaves no error term; use r >= 2")
    factors = plan.metadata.get("factors")
    if not factors:
        raise StatsError("anova: plan carries no factor structure")
    names, labels = read_factors(factors, lambda message: StatsError(f"anova: {message}"))
    k = len(names)
    if k > _ANOVA_MAX_FACTORS:
        raise StatsError(f"anova: at most {_ANOVA_MAX_FACTORS} factors supported, got {k}")
    dims = [len(labs) for labs in labels]
    n_cells = math.prod(dims)
    if len(plan.trials) < n_cells * r:
        used = {(name, t.config.assignment.get(name)) for t in plan.trials for name in names}
        for i, (name, labs) in enumerate(zip(names, labels)):
            for j, label in enumerate(labs):
                if (name, label) not in used:
                    raise StatsError(f"anova: metadata.factors[{i}].labels[{j}]: no trial sets {name}={label!r}")
        raise StatsError(
            f"anova: the space's exclusions leave the grid incomplete; the plan has "
            f"{len(plan.trials)} trials, {n_cells} level combinations x r {r} need {n_cells * r}"
        )
    from . import _sums  # only ANOVA needs it (see its docstring)

    ys = _measurements(log, plan, names, labels)
    n = len(ys)
    # A single-level factor's components have 0 degrees of freedom (and a
    # zero sum of squares by construction): they get no row, and the other
    # rows are those of the same data without that factor.
    live = [i for i in range(k) if dims[i] > 1]

    grand = _sums.pairwise(ys, 0, n) / n
    cell_means = list(map(truediv, _sums.array_sum(ys, dims + [r], (k,)), repeat(r)))
    total_ss = 0.0 + _sums.pairwise(_sums.squares(map(sub, ys, repeat(grand))), 0, n)
    spread_means = _sums.spread(cell_means, dims + [r], range(k))
    error_ss = 0.0 + _sums.pairwise(_sums.squares(map(sub, ys, spread_means)), 0, n)
    error_df = n_cells * (r - 1)

    # Rounding floor: sums of squares at or below accumulated float noise
    # are treated as exactly zero (constant-response designs).
    floor = n * (16 * sys.float_info.epsilon * max(1.0, max(map(abs, ys)))) ** 2

    marginals = _sums.marginal_means(cell_means, dims, live)
    error_ms = error_ss / error_df
    if total_ss <= floor:
        total_ss = 0.0
        error_ss = 0.0

    def pct_of(ss: float) -> float:
        return 100.0 * ss / total_ss if total_ss > 0 else 0.0

    rows = []
    for subset, effect in _sums.effects(marginals, dims, live):
        outside = math.prod(dims[i] for i in range(k) if i not in subset)
        ss = r * outside * (0.0 + _sums.pairwise(_sums.squares(effect), 0, len(effect)))
        df = math.prod(dims[i] - 1 for i in subset)
        f_crit = f_quantile(alpha, df, error_df)
        if ss <= floor:
            ss = 0.0
            f_comp = 0.0
            significant = False
        elif error_ms <= floor / max(error_df, 1):
            f_comp = math.inf
            significant = True
        else:
            f_comp = (ss / df) / error_ms
            significant = f_comp > f_crit
        rows.append(
            AnovaRow(
                component=tuple(names[i] for i in subset),
                ss=ss,
                df=df,
                pct=pct_of(ss),
                f_computed=f_comp,
                f_critical=f_crit,
                significant=significant,
            )
        )
    return AnovaTable(
        rows=tuple(rows),
        error_row=ErrorRow(ss=error_ss, df=error_df, pct=pct_of(error_ss)),
        total_ss=total_ss,
        alpha=alpha,
    )
