"""Meta-evaluation: how well does each methodology recover a known effect?

A scenario bundles a space, a synthetic model with a computable true
effect, and a list of method rows. For each row the sampling, synthetic
run and inference of the method are repeated over seeded iterations; the
fraction of confidence intervals that contain the true effect is the
accuracy, and the configuration count is the cost. Iterations read a
per-scenario table rather than building plans and run logs, and give the
estimates the plan -> run -> analyze pipeline would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping, Sequence

from ._util import Kind, assignment_id, derive_seed, derive_seeds, parse_json, read
from .design import (
    DesignPlan,
    PlanError,
    draw_2kr,
    paired_plan,  # noqa: F401  bench/test_bench.py checks its tracing through meta
    rct_arms,
    rct_excluded,
    require_replicates,
    sample_indices,
    stratified_indices,
)
from .model import ModelError, SyntheticModel, gauss_noise, load_model
from .runner import AGGREGATE_METHODS, RunLog, aggregate, collapse
from .space import ConfigSpace, Configuration, ROLE_DC, SpaceError, load_space
from .stats import (
    DiffSample,
    EffectEstimate,
    StatsError,
    factorial_contrast,
    one_sample_ttest,
    sample_mean,
    welch_estimate,
)

METHOD_KINDS = ("paired", "rct", "factorial_2kr")


class ScenarioError(ValueError):
    """Raised for malformed or infeasible scenario documents."""


@dataclass(frozen=True)
class MethodSpec:
    kind: str
    n: int = 0
    r: int = 1
    stratify: str | None = None
    split: Mapping[str, Any] | None = None
    label: str | None = None

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        return f"{self.kind}-{self.n}" if self.n else self.kind


@dataclass(frozen=True)
class Scenario:
    space: ConfigSpace
    model: SyntheticModel
    cui_a: str
    cui_ref: str
    alpha: float = 0.01
    iterations: int = 10_000
    master_seed: int = 0
    methods: tuple[MethodSpec, ...] = ()
    direction: str = "min"
    aggregate: str = "median"

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ScenarioError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.alpha < 1.0:
            raise ScenarioError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.direction not in ("min", "max"):
            raise ScenarioError(f"direction must be 'min' or 'max', got {self.direction!r}")
        if self.aggregate not in AGGREGATE_METHODS:
            raise ScenarioError(f"aggregate must be 'median' or 'mean', got {self.aggregate!r}")
        cui = self.space.cui_factor
        try:
            for lab in (self.cui_a, self.cui_ref):
                cui.level(lab)
        except SpaceError as exc:
            raise ScenarioError(str(exc)) from exc
        names: dict[str, int] = {}  # a row's name, as reports print it: the first row of that name
        for i, m in enumerate(self.methods):
            if m.kind not in METHOD_KINDS:
                raise ScenarioError(f"unknown method kind {m.kind!r}")
            first = names.setdefault(m.name, i)
            if first != i:
                raise ScenarioError(f"methods[{i}]: name {m.name!r} repeats methods[{first}]")
        # An rct run on one level is an A/A calibration check; a pair of one level is empty.
        if self.cui_a == self.cui_ref and any(m.kind == "paired" for m in self.methods):
            raise ScenarioError(
                f"a paired method needs two different CUI levels, got cui_a={self.cui_a!r} and cui_ref={self.cui_ref!r}"
            )

    @cached_property
    def truth(self) -> float:
        """Noise-free true effect difference under the declared DC weights."""
        return self.model.closed_form_delta(self.space, self.cui_a, self.cui_ref)

    @cached_property
    def table(self) -> "ScenarioTable":
        return ScenarioTable(self)


class ScenarioTable:
    """What the meta iterations read instead of plans and logs.

    The space's DC pool (label rows in enumeration order, product weights,
    stratum membership) and, per CUI level, each row's completion as (id,
    noise-free response), or None where the completion is excluded; the id
    only seeds noise and is None without it. Columns for the two levels
    under study are filled on construction; other levels (a 2^k r split may
    draw them) on first use.
    """

    def __init__(self, scenario: "Scenario"):
        self.space, self.model = scenario.space, scenario.model
        self.pool = self.space.pool((ROLE_DC,))
        self.index = {row: i for i, row in enumerate(self.pool.rows)}
        self._columns: dict[str, tuple[tuple[str | None, float] | None, ...]] = {}
        for level in (scenario.cui_a, scenario.cui_ref):
            self.column(level)
        for m in scenario.methods:
            if m.kind == "paired" and m.stratify in self.pool.names:
                self.pool.strata(m.stratify)
        self._seed: int | None = None
        self._draws: dict[str | None, list[float]] = {}

    def column(self, cui_level: str) -> tuple[tuple[str | None, float] | None, ...]:
        """The pool rows completed with ``cui_level``, each as described
        above, evaluated through ``model._evaluate`` on first use and kept."""
        if cui_level not in self._columns:
            space, model, pool = self.space, self.model, self.pool
            column: list[tuple[str | None, float] | None] = []
            for row in pool.rows:
                assignment = space.completion(dict(zip(pool.names, row)), cui_level)
                cid = assignment_id(assignment) if assignment is not None and model.noise_sd else None
                column.append(None if assignment is None else (cid, model._evaluate(assignment)))
            self._columns[cui_level] = tuple(column)
        return self._columns[cui_level]

    def replicates(self, completion: tuple[str | None, float], r: int, seed: int) -> list[float]:
        """The r values a synthetic run logs for one configuration.

        Same per-trial seed and noise draw as ``SyntheticBackend.measure``:
        replicate ``rep`` is seeded by ``derive_seed(seed, cid, rep)``, and
        the replicates still missing take their seeds from one text of
        (seed, cid). Without noise the seeds are unused and not derived.
        Method rows of one iteration share its seed and often draw the same
        configurations (top-n draws nest), so the current seed's values are
        kept, per completion id in replicate order, and dropped when the
        seed changes.
        """
        cid, response = completion
        sd = self.model.noise_sd
        if sd == 0:
            return [response] * r
        if seed != self._seed:
            self._seed = seed
            self._draws.clear()
        values = self._draws.setdefault(cid, [])
        if len(values) < r:
            values += [response + gauss_noise(s, sd) for s in derive_seeds((seed, cid), range(len(values), r))]
        return values[:r]


@dataclass(frozen=True)
class AccuracyRow:
    method: str
    cost: int
    accuracy: float
    mean_ci_width: float
    iterations: int


@dataclass(frozen=True)
class PitfallReport:
    """Single fixed-configuration estimate vs. the population effect."""

    fixed_estimate: float
    ground_truth: float
    sign_flip: bool
    cui_a: str
    cui_ref: str


@dataclass(frozen=True)
class SelectionResult:
    level: str
    tied: bool
    means: Mapping[str, float]
    direction: str


@dataclass(frozen=True)
class VariabilityReport:
    """Spread of a set of overall-effect readings under two conventions.

    Both normalizations are reported because neither is canonical: range
    over the minimum and range over the mean.
    """

    minimum: float
    maximum: float
    mean: float
    range_over_min: float
    range_over_mean: float


# -- scenario loading --------------------------------------------------------


# The kinds of a scenario's fields and of each method row's, in the order of
# ``Scenario``'s and ``MethodSpec``'s fields.
_SCENARIO = {
    "space": Kind("object"), "model": Kind("object"), "cui_a": Kind("text"), "cui_ref": Kind("text"),
    "alpha": Kind("number", 0.01), "iterations": Kind("integer", 10_000), "master_seed": Kind("integer", 0),
    "methods": Kind("array", ()), "direction": Kind("text", "min"), "aggregate": Kind("text", "median"),
}
_METHOD = {
    "kind": Kind("text"), "n": Kind("integer", 0), "r": Kind("integer", 1),
    "stratify": Kind("text|null", None), "split": Kind("object|null", None), "label": Kind("text|null", None),
}


def load_scenario(document: str | Mapping[str, Any]) -> Scenario:
    document = parse_json(document, ScenarioError, "scenario document")
    space, model, cui_a, cui_ref, alpha, iterations, master_seed, methods, direction, aggregate = read(
        document, _SCENARIO, ScenarioError
    )
    try:
        space, model = load_space(space), load_model(model)
    except (SpaceError, ModelError) as exc:
        raise ScenarioError(str(exc)) from exc
    methods = tuple(MethodSpec(*read(m, _METHOD, ScenarioError, ("methods", i))) for i, m in enumerate(methods))
    return Scenario(
        space, model, cui_a, cui_ref, float(alpha), iterations, master_seed, methods, direction, aggregate
    )


def load_scenario_file(path: str | Path) -> Scenario:
    return load_scenario(Path(path).read_text(encoding="utf-8"))


# -- ground truth --------------------------------------------------------------


def ground_truth(scenario: Scenario) -> float:
    """Noise-free true effect difference under the declared DC weights.

    Computed in closed form, independently of the meta table, once per
    scenario.
    """
    return scenario.truth


# -- accuracy vs cost ----------------------------------------------------------


def _default_split(scenario: Scenario, method: MethodSpec) -> dict[str, Any]:
    """Derive a split when the scenario does not carry one.

    The CUI factor goes reference-low / investigated-high; every other
    multi-level factor splits by declared level order. Only usable when the
    CUI has exactly the two levels under study.
    """
    split: dict[str, Any] = {}
    cui = scenario.space.cui_factor
    for factor in scenario.space.factors:
        if factor.name == method.stratify or len(factor.levels) == 1:
            continue
        labels = list(factor.labels())
        if factor.name == cui.name:
            if set(labels) != {scenario.cui_a, scenario.cui_ref}:
                raise ScenarioError(
                    "factorial_2kr needs an explicit split when the CUI factor has "
                    "levels beyond the two under study"
                )
            split[factor.name] = {"low": [scenario.cui_ref], "high": [scenario.cui_a]}
        else:
            half = len(labels) // 2
            split[factor.name] = {"low": labels[:half], "high": labels[half:]}
    return split


def _factorial_estimate(
    scenario: Scenario, plan: DesignPlan, log: RunLog
) -> EffectEstimate:
    """CUI contrast of a run 2^k r plan; see ``stats.factorial_contrast``."""
    cui = scenario.space.cui_factor.name
    high = set(plan.metadata["split"].get(cui, {}).get("high", ()))
    is_high = {t.config.id: t.config.assignment[cui] in high for t in plan.trials}
    if log.failed_count():
        raise ScenarioError("factorial_2kr accuracy: log contains failed measurements")
    by_config = log.ok_values()
    return factorial_contrast(
        [v for cid, v in by_config.items() if is_high[cid]],
        [v for cid, v in by_config.items() if not is_high[cid]],
        plan.r,
        alpha=scenario.alpha,
        unit=log.header.unit,
    )


def _paired_iteration(scenario: Scenario, method: MethodSpec, seed: int) -> EffectEstimate:
    space, table = scenario.space, scenario.table
    if method.stratify:
        idx = stratified_indices(space, method.stratify, method.n, seed)
    else:
        idx = sample_indices(space, (ROLE_DC,), method.n, seed)
    require_replicates(method.r)
    col_a, col_ref = table.column(scenario.cui_a), table.column(scenario.cui_ref)
    side_a, side_ref = [col_a[i] for i in idx], [col_ref[i] for i in idx]
    if None in side_a or None in side_ref:
        # The first pair with an excluded side; ``space.completions`` names it.
        i = next(i for i, a, ref in zip(idx, side_a, side_ref) if a is None or ref is None)
        try:
            space.completions(dict(zip(table.pool.names, table.pool.rows[i])), scenario.cui_a, scenario.cui_ref)
        except SpaceError as exc:
            raise PlanError(str(exc)) from exc
    replicates, r, how = table.replicates, method.r, scenario.aggregate
    diffs = tuple(
        aggregate(replicates(a, r, seed), how) - aggregate(replicates(ref, r, seed), how)
        for a, ref in zip(side_a, side_ref)
    )
    return one_sample_ttest(DiffSample(diffs, unit=scenario.model.unit), alpha=scenario.alpha)


def _rct_iteration(scenario: Scenario, method: MethodSpec, seed: int) -> EffectEstimate:
    space, table = scenario.space, scenario.table
    require_replicates(method.r)
    arms = []
    for group, lab, idx in rct_arms(space, scenario.cui_ref, scenario.cui_a, method.n, seed):
        col = table.column(lab)
        arm = [col[i] for i in idx]
        if None in arm:
            raise rct_excluded(group, space.cui_factor.name, lab, table.pool.config(idx[arm.index(None)]))
        arms.append([aggregate(table.replicates(c, method.r, seed), scenario.aggregate) for c in arm])
    return welch_estimate(*arms, alpha=scenario.alpha, unit=scenario.model.unit)


def _factorial_iteration(
    scenario: Scenario, method: MethodSpec, seed: int
) -> tuple[EffectEstimate, int]:
    space, table = scenario.space, scenario.table
    split = dict(method.split) if method.split else _default_split(scenario, method)
    require_replicates(method.r)
    blocks, cells = draw_2kr(space, split, seed, method.stratify)
    cui = space.cui_factor.name
    high_labels = blocks[cui][1] if cui in blocks else ()
    high: list[list[float]] = []
    low: list[list[float]] = []
    for assignment in cells:
        i = table.index[tuple(assignment[f] for f in table.pool.names)]
        completion = table.column(assignment[cui])[i]
        assert completion is not None  # draw_2kr keeps valid assignments only
        side = high if assignment[cui] in high_labels else low
        side.append(table.replicates(completion, method.r, seed))
    estimate = factorial_contrast(
        high, low, method.r, alpha=scenario.alpha, unit=scenario.model.unit
    )
    return estimate, len(cells)


def _one_iteration(
    scenario: Scenario, method: MethodSpec, seed: int
) -> tuple[EffectEstimate, int]:
    """One estimate of ``method`` at ``seed`` and the method's cost.

    Reads the scenario's table instead of building a plan, a run log and
    their digests, and draws the same samples, per-trial seeds and noise:
    the estimate equals planning, running and analyzing the method.
    """
    if method.kind == "paired":
        return _paired_iteration(scenario, method, seed), method.n
    if method.kind == "rct":
        return _rct_iteration(scenario, method, seed), method.n
    if method.kind == "factorial_2kr":
        return _factorial_iteration(scenario, method, seed)
    raise ScenarioError(f"unknown method kind {method.kind!r}")


def accuracy_cost(scenario: Scenario) -> list[AccuracyRow]:
    """Coverage frequency of the true effect per method row.

    Iteration j of every method row shares the seed derived from
    (master seed, j), so rows are comparable across methods and runs.
    Iterations run in order, each over every row, so rows of one iteration
    reuse each other's noise draws; each row's widths are still summed in
    iteration order. A failure names the row that fails at the earliest
    iteration, the earlier declared row first.
    """
    truth = scenario.truth
    methods = scenario.methods
    if methods:
        scenario.table  # built here, once, rather than inside the first estimate
    covered = [0] * len(methods)
    widths = [0.0] * len(methods)
    costs = [0] * len(methods)
    for j in range(scenario.iterations):
        seed = derive_seed(scenario.master_seed, "iter", j)
        for k, method in enumerate(methods):
            try:
                estimate, costs[k] = _one_iteration(scenario, method, seed)
            except (PlanError, StatsError) as exc:
                raise ScenarioError(f"method {method.name}: {exc}") from exc
            if estimate.covers(truth):
                covered[k] += 1
            widths[k] += estimate.width
    return [
        AccuracyRow(
            method=method.name,
            cost=cost,
            accuracy=hits / scenario.iterations,
            mean_ci_width=width / scenario.iterations,
            iterations=scenario.iterations,
        )
        for method, cost, hits, width in zip(methods, costs, covered, widths)
    ]


# -- best CUI selection ---------------------------------------------------------


def select_best_cui(
    space: ConfigSpace,
    dc_sample: Sequence[Configuration],
    direction: str = "min",
    model: SyntheticModel | None = None,
    log: RunLog | None = None,
    aggregate: str = "median",
) -> SelectionResult:
    """Pick the CUI level whose average overall effect is best over the sample.

    Exactly one of ``model`` (noise-free responses) or ``log`` (measured
    values) supplies the effects. Ties go to the earliest declared level
    and are flagged.
    """
    if direction not in ("min", "max"):
        raise ScenarioError(f"direction must be 'min' or 'max', got {direction!r}")
    if (model is None) == (log is None):
        raise ScenarioError("provide exactly one of model or log")
    if not dc_sample:
        raise ScenarioError("dc_sample must be nonempty")
    cui = space.cui_factor
    collapsed = collapse(log, aggregate) if log is not None else None
    means: dict[str, float] = {}
    for level in cui.labels():
        values = []
        for dc in dc_sample:
            assignment = space.completion(dc.assignment, level)
            if assignment is None:
                raise ScenarioError(f"completion {cui.name}={level!r} is excluded for dc {dc.id}")
            cfg = Configuration(assignment)
            if model is not None:
                values.append(model.response(cfg))
            else:
                assert collapsed is not None
                if cfg.id not in collapsed:
                    raise ScenarioError(
                        f"incomplete coverage: CUI level {level!r} has no measurement for dc {dc.id}"
                    )
                values.append(collapsed[cfg.id])
        means[level] = sample_mean(values)
    better = min if direction == "min" else max
    best_value = better(means.values())
    winners = [lab for lab in cui.labels() if means[lab] == best_value]
    return SelectionResult(
        level=winners[0], tied=len(winners) > 1, means=means, direction=direction
    )


# -- fixed-configuration pitfall -------------------------------------------------


def pitfall_demo(scenario: Scenario, fixed_dc: Configuration) -> PitfallReport:
    """Compare the single-configuration estimate against the true effect.

    Flags a sign disagreement: the failure mode of benchmarking a component
    under one fixed context when interactions are present.
    """
    side_a, side_ref = scenario.space.pair_with(fixed_dc, scenario.cui_a, scenario.cui_ref)
    fixed = scenario.model.response(side_a) - scenario.model.response(side_ref)
    truth = ground_truth(scenario)
    return PitfallReport(
        fixed_estimate=fixed,
        ground_truth=truth,
        sign_flip=fixed * truth < 0,
        cui_a=scenario.cui_a,
        cui_ref=scenario.cui_ref,
    )


# -- variability -----------------------------------------------------------------


def variability(values: Sequence[float]) -> VariabilityReport:
    """Range-based spread of repeated overall-effect readings."""
    if not values:
        raise ScenarioError("variability: empty input")
    lo, hi = min(values), max(values)
    mean = sample_mean(values)
    if lo <= 0:
        raise ScenarioError("variability: range_over_min needs strictly positive values")
    if mean == 0:
        raise ScenarioError("variability: range_over_mean undefined for zero mean")
    return VariabilityReport(
        minimum=lo,
        maximum=hi,
        mean=mean,
        range_over_min=(hi - lo) / lo,
        range_over_mean=(hi - lo) / mean,
    )
