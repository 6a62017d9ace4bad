"""Design plans: which configurations to run, replicates, pairing and grouping.

Four strategies are provided: full factorial, 2^k r factorial (with an
optional per-stratum variant), randomized control/treatment assignment,
and paired plans that apply each design-context configuration to both
levels of the factor under investigation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._util import (
    DEFAULT_TRIAL_BUDGET,
    Kind,
    canonical_json,
    derive_seed,
    gc_paused,
    json_scalar,
    parse_json,
    read,
    read_rows,
)
from .space import ConfigSpace, Configuration, ROLE_DC, SpaceError

GROUP_SINGLE = "single"
GROUP_CONTROL = "control"
GROUP_TREATMENT = "treatment"
GROUP_PAIR = "pair"

ARM_A = "a"
ARM_REF = "ref"

_2KR_MAX_REDRAWS = 32


class PlanError(ValueError):
    """Raised when a design plan cannot be constructed as requested."""


class Trial(NamedTuple):
    """One scheduled measurement: a configuration at a replicate index."""

    config: Configuration
    replicate: int
    group: str = GROUP_SINGLE
    pair_id: str | None = None
    arm: str | None = None
    seed: int = 0


class _DesignPlanFields(NamedTuple):
    method: str
    trials: tuple[Trial, ...]
    r: int
    master_seed: int
    space_digest: str
    metadata: Mapping[str, Any]


class DesignPlan(_DesignPlanFields):
    """Immutable, reproducible plan: identical inputs give identical plans."""

    def __new__(
        cls, method: str, trials: tuple[Trial, ...], r: int, master_seed: int, space_digest: str,
        metadata: Mapping[str, Any] | None = None,
    ) -> "DesignPlan":
        metadata = {} if metadata is None else metadata
        return tuple.__new__(cls, (method, trials, r, master_seed, space_digest, metadata))

    @property
    def n_configs(self) -> int:
        """Configuration slots in the plan (arm configs counted per use)."""
        return len(self.trials) // self.r if self.r else 0

    @property
    def cost(self) -> int:
        """The methodology's cost metric: configuration count as reported."""
        return self.metadata.get("cost", self.n_configs)

    def to_dict(self) -> dict[str, Any]:
        return {
            **self._asdict(),
            "metadata": dict(self.metadata),
            "trials": [
                {
                    "assignment": dict(t.config.assignment),
                    "replicate": t.replicate,
                    "group": t.group,
                    "pair_id": t.pair_id,
                    "arm": t.arm,
                    "seed": t.seed,
                }
                for t in self.trials
            ],
        }

    @cached_property
    def plan_digest(self) -> str:
        """``digest(self.to_dict())``, streamed into one SHA-256.

        The head is the canonical JSON of the plan without its trials, cut
        before the empty list ("trials" sorts after every other key); then
        each trial's compact text, one update per trial.
        """
        head = canonical_json(self._replace(trials=()).to_dict())
        texts = _trial_texts(self.trials, _COMPACT)
        h = hashlib.sha256((head[: -len("]}")] + next(texts, ",")[1:]).encode("ascii"))  # the first one bare
        for text in texts:
            h.update(text.encode("ascii"))
        h.update(b"]}")
        return h.hexdigest()


# The two forms of a trial's JSON text, keys sorted, led by the separator
# that comes before it in a list (the list's first element drops the ","):
# its template up to the replicate (arm, assignment, group, pair id), the
# template of its replicate and seed, one assignment entry (name, label),
# and a nonempty assignment around its entries joined by "," (an empty one
# is "{}" in both forms).
_COMPACT = (',{"arm":%s,"assignment":%s,"group":%s,"pair_id":%s,"replicate":', '%d,"seed":%d}', "%s:%s", "{%s}")
_INDENT_1 = (  # an element of the "trials" list of ``indent=1`` JSON, at depth 2
    ',\n  {\n   "arm": %s,\n   "assignment": %s,\n   "group": %s,\n   "pair_id": %s,\n   "replicate": ',
    '%d,\n   "seed": %d\n  }',
    "\n    %s: %s",
    "{%s\n   }",
)


_PREFIXES = 64  # unit texts that ``_trial_texts`` keeps at once
_WRITE_BATCH = 64  # chunks of a plan's text per write of ``save_plan``


def _trial_texts(trials: Iterable[Trial], form: tuple[str, str, str, str]) -> Iterator[str]:
    """Each trial's JSON text in ``form``, as ``json.dumps`` spells it, led
    by its separator.

    A unit's text up to the replicate is built once for all its replicates
    that come within ``_PREFIXES`` units of each other (a builder writes
    them one after another), and each (factor, text label) entry once.
    Other labels are encoded every time: ``True``, ``1`` and ``1.0`` are
    equal keys that encode differently.
    """
    head, tail, entry, block = form
    j = json_scalar
    prefixes: dict[tuple[int, str | None, str, str | None], str] = {}
    entries: dict[tuple[str, str], str] = {}
    for t in trials:
        unit = (id(t.config), t.arm, t.group, t.pair_id)  # the trials keep each config alive
        prefix = prefixes.get(unit)
        if prefix is None:
            if len(prefixes) == _PREFIXES:  # the texts kept stay small beside the plan's
                prefixes.clear()
            texts = []
            for kv in sorted(t.config.assignment.items()):
                text = entries.get(kv)
                if text is None:
                    text = entry % (j(kv[0]), j(kv[1]))
                    if type(kv[0]) is str and type(kv[1]) is str:
                        entries[kv] = text
                texts.append(text)
            assignment = block % ",".join(texts) if texts else "{}"
            prefix = prefixes[unit] = head % (j(t.arm), assignment, j(t.group), j(t.pair_id))
        yield prefix + tail % (t.replicate, t.seed)


def plan_digest(plan: DesignPlan) -> str:
    """Digest of the plan's canonical form; computed once per plan object."""
    return plan.plan_digest


def _plan_json_chunks(plan: DesignPlan) -> Iterator[str]:
    """The text of ``json.dumps(plan.to_dict(), sort_keys=True, indent=1)``
    in chunks, about a trial's text each: everything but the trials goes
    through ``json.dumps``, the trials are their ``indent=1`` texts."""
    head = json.dumps(plan._replace(trials=()).to_dict(), sort_keys=True, indent=1)
    if not plan.trials:
        return iter((head,))
    # The head ends in '"trials": []\n}': "trials" sorts after every other key.
    texts = _trial_texts(plan.trials, _INDENT_1)
    return chain((head[: -len("]\n}")] + next(texts)[1:],), texts, ("\n ]\n}",))


def plan_to_json(plan: DesignPlan) -> str:
    """The bytes of ``json.dumps(plan.to_dict(), sort_keys=True, indent=1)``."""
    return "".join(_plan_json_chunks(plan))


# The kinds of a plan's fields and of each trial's, in the order of
# ``DesignPlan``'s and ``Trial``'s fields.
_PLAN = {
    "method": Kind("text"), "trials": Kind("array"), "r": Kind("integer"), "master_seed": Kind("integer"),
    "space_digest": Kind("text"), "metadata": Kind("object", {}),
}
_TRIAL = {
    "assignment": Kind("object"), "replicate": Kind("integer"), "group": Kind("text"),
    "pair_id": Kind("text|null", None), "arm": Kind("text|null", None), "seed": Kind("integer"),
}
_ASSIGNMENT = {"assignment": Kind("object", each=Kind("text"))}
# The group, pair id and arm that each method writes in every trial: the
# values allowed, or ``str`` for any text.
_WRITES: dict[str, tuple[Any, Any, Any]] = {
    "full_factorial": ((GROUP_SINGLE,), (None,), (None,)),
    "factorial_2kr": ((GROUP_SINGLE,), (None,), (None,)),
    "rct": ((GROUP_CONTROL, GROUP_TREATMENT), (None,), (None,)),
    "paired": ((GROUP_PAIR,), str, (ARM_A, ARM_REF)),
}
# The metadata entries that analyses read; the rest is carried as written.
_METADATA = {
    "factors": Kind("array", ()), "cost": Kind("integer", None),
    "cui_a": Kind("text", None), "cui_ref": Kind("text", None),
}
_METADATA_FACTOR = {"name": Kind("text"), "labels": Kind("array", each=Kind("text"))}


def _self_paired(cui_a: str, cui_ref: str) -> str:
    return f"a paired plan needs two different CUI levels, got cui_a={cui_a!r} and cui_ref={cui_ref!r}"


def _malformed(message: str) -> PlanError:
    return PlanError(f"malformed plan document: {message}")


def _unwritten(method: str, fields: Sequence[list[str | None]]) -> tuple[int, str] | None:
    """The first value of the group, pair id and arm ``fields`` (columns of
    the trials) that ``method`` never writes, as (trial index, message);
    None where there is none."""
    first = None
    for name, values, allowed in zip(("group", "pair_id", "arm"), fields, _WRITES[method]):
        found = set(values)
        wrong = found & {None} if allowed is str else found - set(allowed)
        if wrong:
            i = next(i for i, v in enumerate(values) if v in wrong)
            if first is None or i < first[0]:
                what = "text" if allowed is str else " or ".join("null" if v is None else repr(v) for v in allowed)
                first = (i, f"trials[{i}].{name}: must be {what} for method {method!r}, got {values[i]!r}")
    return first


def read_factors(factors: Iterable[Any], error: Callable[[str], Exception]) -> tuple[list[str], list[list[str]]]:
    """The names and the label lists of ``metadata.factors``, once every
    entry is read and no name, and no label of one factor, repeats."""
    names: dict[str, int] = {}  # each factor's index, by name
    labels = []
    for i, f in enumerate(factors):
        name, labs = read(f, _METADATA_FACTOR, error, ("metadata", "factors", i))
        if names.setdefault(name, i) != i:
            raise error(f"metadata.factors[{i}].name: {name!r} repeats metadata.factors[{names[name]}].name")
        at: dict[str, int] = {}  # each label's index, by label
        for j, label in enumerate(labs):
            if at.setdefault(label, j) != j:
                raise error(f"metadata.factors[{i}].labels[{j}]: {label!r} repeats labels[{at[label]}]")
        labels.append(list(labs))
    return list(names), labels


def plan_from_dict(doc: Mapping[str, Any]) -> DesignPlan:
    method, raw_trials, r, master_seed, space_digest, metadata = read(doc, _PLAN, _malformed)
    if r < 1:  # the rule of ``require_replicates``
        raise _malformed(f"r: must be >= 1, got {r}")
    if method not in _WRITES:
        raise _malformed(f"method: must be one of {', '.join(map(repr, _WRITES))}, got {method!r}")
    factors, _, cui_a, cui_ref = read(metadata, _METADATA, _malformed, ("metadata",))
    if method == "paired" and cui_a is not None and cui_a == cui_ref:
        raise _malformed(f"metadata: {_self_paired(cui_a, cui_ref)}")
    read_factors(factors, _malformed)
    # The loop checks each trial before the first mistyped one or the first
    # value the method never writes, in order, so the earliest error wins.
    columns, bad = read_rows(raw_trials, _TRIAL)
    unwritten = _unwritten(method, columns[2:5])  # group, pair id, arm
    stop = bad if unwritten is None else unwritten[0]
    # One Configuration, and one id, per distinct assignment.
    configs: dict[tuple[tuple[str, str], ...], Configuration] = {}
    # Each trial is one replicate of its unit (configuration, group, pair id,
    # arm), by which it is kept here; every unit needs replicates 0..r-1.
    trial_at: dict[tuple[tuple[str, str, str | None, str | None], int], int] = {}
    trials = []
    for i, assignment, replicate, group, pair_id, arm, seed in zip(range(stop), *columns):
        if not 0 <= replicate < r:
            raise _malformed(f"trials[{i}].replicate: must be in 0..{r - 1}, got {replicate}")
        key = tuple(assignment.items())
        try:
            config = configs.get(key)
        except TypeError:  # an unhashable label, which the read below names
            config = None
        if config is None:
            if not set(map(type, assignment.values())) <= {str}:
                read({"assignment": assignment}, _ASSIGNMENT, _malformed, ("trials", i))
            config = configs[key] = Configuration(assignment)
        at = trial_at.setdefault(((config.id, group, pair_id, arm), replicate), i)
        if at != i:
            raise _malformed(f"trials[{i}]: repeats trials[{at}], replicate {replicate} of the same unit")
        trials.append(Trial(config, replicate, group, pair_id, arm, seed))
    del columns  # before the trials are copied into the plan: peak memory
    if unwritten is not None:
        raise _malformed(unwritten[1])
    if bad < len(raw_trials):
        read(raw_trials[bad], _TRIAL, _malformed, ("trials", bad))  # raises
    # No replicate repeats or lies outside 0..r-1, so every unit is whole iff
    # there are r trials per unit.
    sizes = Counter(unit for unit, _ in trial_at)
    if len(trial_at) != r * len(sizes):
        short, first = next((unit, i) for (unit, _), i in trial_at.items() if sizes[unit] < r)
        raise _malformed(f"trials[{first}]: its unit has {sizes[short]} of the replicates 0..{r - 1}")
    return DesignPlan(method, tuple(trials), r, master_seed, space_digest, dict(metadata))


@gc_paused()
def plan_from_json(text: str) -> DesignPlan:
    return plan_from_dict(parse_json(text, PlanError, "plan document"))


def save_plan(plan: DesignPlan, path: str | Path) -> None:
    """Write ``plan_to_json(plan)`` ``_WRITE_BATCH`` chunks at a time, never
    the whole text at once."""
    chunks = _plan_json_chunks(plan)
    with open(path, "w", encoding="utf-8") as fh:  # one batch alive at a time
        fh.writelines(iter(lambda: "".join(islice(chunks, _WRITE_BATCH)), ""))


@gc_paused()
def load_plan(path: str | Path) -> DesignPlan:
    # The text is let go once parsed, before the trials are built: peak memory.
    return plan_from_dict(parse_json(Path(path).read_text(encoding="utf-8"), PlanError, "plan document"))


def require_replicates(r: int) -> None:
    if r < 1:
        raise PlanError("replicate count r must be >= 1")


def _plan(
    method: str,
    space: ConfigSpace,
    units: Iterable[Sequence[tuple[Configuration, str, str | None, str | None]]],
    r: int,
    seed: int,
    metadata: Mapping[str, Any],
) -> DesignPlan:
    """Expand units into trials: unit by unit, replicates in order, and a
    unit's (configuration, group, pair id, arm) arms adjacent within each
    replicate.

    Trial seeds are keyed by configuration id and replicate, so
    reproducibility is schedule-independent.
    """
    trials = tuple(
        Trial(cfg, rep, group, pair_id, arm, derive_seed(seed, cfg.id, rep))
        for unit in units
        for rep in range(r)
        for cfg, group, pair_id, arm in unit
    )
    return DesignPlan(
        method=method,
        trials=trials,
        r=r,
        master_seed=seed,
        space_digest=space.space_digest,
        metadata=metadata,
    )


# -- full factorial -------------------------------------------------------


def full_factorial(
    space: ConfigSpace,
    r: int,
    seed: int = 0,
    budget: int = DEFAULT_TRIAL_BUDGET,
) -> DesignPlan:
    """One trial per (valid configuration, replicate) over all factors."""
    require_replicates(r)
    n_configs = space.cartesian_size()
    if n_configs * r > budget:
        raise PlanError(f"budget exceeded: {n_configs * r} trials > budget {budget}")
    units = [[(cfg, GROUP_SINGLE, None, None)] for cfg in space.enumerate_configs(budget=budget)]
    metadata = {
        "cost": n_configs,
        "factors": [{"name": f.name, "labels": list(f.labels())} for f in space.factors],
    }
    return _plan("full_factorial", space, units, r, seed, metadata)


# -- 2^k r factorial ------------------------------------------------------


_SPLIT = {"split": Kind("object")}
_BLOCKS = {"low": Kind("array", each=Kind("text")), "high": Kind("array", each=Kind("text"))}


def validate_split(space: ConfigSpace, split: Mapping[str, Any], stratify: str | None) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    """``split``, an object of factor name -> {"low": [labels], "high": [labels]},
    as (low, high) label tuples per factor, once every rule holds."""
    normalized: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    for fname, blocks in read({"split": split}, _SPLIT, PlanError)[0].items():
        factor = space.factor(fname)
        if fname == stratify:
            raise PlanError(f"factor {fname!r} cannot be both split and stratified")
        low_t, high_t = map(tuple, read(blocks, _BLOCKS, PlanError, ("split", fname)))
        labels = set(factor.labels())
        if not low_t or not high_t:
            raise PlanError(f"split for {fname!r}: both blocks must be nonempty")
        if set(low_t) & set(high_t):
            raise PlanError(f"split for {fname!r}: blocks overlap")
        if set(low_t) | set(high_t) != labels:
            raise PlanError(f"split for {fname!r}: blocks must cover all levels")
        normalized[fname] = (low_t, high_t)
    for factor in space.factors:
        if factor.name in normalized or factor.name == stratify:
            continue
        if len(factor.levels) > 1:
            raise PlanError(
                f"factor {factor.name!r} has {len(factor.levels)} levels but no split; "
                "only single-level factors may be omitted"
            )
    return normalized


def draw_2kr(
    space: ConfigSpace, split: Mapping[str, Any], seed: int, stratify: str | None = None
) -> tuple[dict[str, tuple[tuple[str, ...], tuple[str, ...]]], list[dict[str, str]]]:
    """``split`` checked by ``validate_split``, as (low, high) label blocks per
    factor, and the chosen total assignment of every 2^k cell, strata outermost.
    Each cell draws one level per split factor from its block, redrawing
    excluded combinations."""
    blocks = validate_split(space, split, stratify)
    split_factors = [f for f in space.factors if f.name in blocks]
    pinned = {
        f.name: f.labels()[0]
        for f in space.factors
        if f.name not in blocks and f.name != stratify and len(f.levels) == 1
    }
    k = len(split_factors)
    strata: list[tuple[str | None, dict[str, str]]]
    if stratify is None:
        strata = [(None, {})]
    else:
        sfactor = space.factor(stratify)
        strata = [(lab, {stratify: lab}) for lab in sfactor.labels()]
    cells = []
    for stratum_label, stratum_assignment in strata:
        for cell_index in range(2**k):
            for attempt in range(_2KR_MAX_REDRAWS):
                rng = random.Random(derive_seed(seed, "2kr", stratum_label, cell_index, attempt))
                assignment = dict(pinned)
                assignment.update(stratum_assignment)
                for bit, factor in enumerate(split_factors):
                    interval = blocks[factor.name][(cell_index >> bit) & 1]
                    assignment[factor.name] = rng.choice(interval)
                if space.is_valid(assignment):
                    cells.append(assignment)
                    break
            else:
                where = f" (stratum {stratum_label!r})" if stratum_label else ""
                raise PlanError(
                    f"2^k cell {cell_index}{where}: no valid draw after {_2KR_MAX_REDRAWS} retries"
                )
    return blocks, cells


def factorial_2kr(
    space: ConfigSpace,
    split: Mapping[str, Any],
    r: int,
    seed: int,
    stratify: str | None = None,
) -> DesignPlan:
    """2^k cells with one level drawn per factor interval, r replicates each.

    With ``stratify`` set, a full 2^k sub-design is built for every level of
    that factor (the per-stratum variant), giving levels x 2^k cells.
    """
    require_replicates(r)
    blocks, cells = draw_2kr(space, split, seed, stratify)
    metadata = {
        "cost": len(cells),
        "k": len(blocks),
        "cells": len(cells),
        "stratify": stratify,
        "split": {fname: {"low": list(lo), "high": list(hi)} for fname, (lo, hi) in blocks.items()},
    }
    units = [[(Configuration(assignment), GROUP_SINGLE, None, None)] for assignment in cells]
    return _plan("factorial_2kr", space, units, r, seed, metadata)


# -- sampling -------------------------------------------------------------
#
# The index-level cores draw positions into ``space.pool(roles)``; the
# public samplers map them to configurations, and meta-evaluation uses the
# positions directly.


def _weighted_indices(weights: Sequence[float], n: int, rng: random.Random) -> list[int]:
    # Exponential-keys (log u / w) selection: distribution-identical to
    # sequential weighted draws without replacement; uniform weights reduce
    # to an equiprobable subset. One u per weight, in order; a zero u is
    # redrawn, which shifts the later draws by one.
    if n == 0:
        return []
    rand = rng.random
    us = [rand() for _ in weights]
    while 0.0 in us:
        del us[us.index(0.0)]
        us.append(rand())
    positive = sum(1 for w in weights if w > 0)
    if n > positive:
        raise PlanError(
            f"cannot sample {n} configurations: only {positive} have positive weight"
        )
    log, inf = math.log, math.inf
    keys = [log(u) / w if w > 0 else -inf for u, w in zip(us, weights)]
    # Largest key first, ties in position order (the sort is stable).
    return sorted(range(len(keys)), key=keys.__getitem__, reverse=True)[:n]


def sample_indices(space: ConfigSpace, roles: Iterable[str], n: int, seed: int) -> list[int]:
    """Positions in ``space.pool(roles)`` of a simple random sample."""
    if n < 0:
        raise PlanError("sample size must be >= 0")
    pool = space.pool(roles)
    if n > len(pool.rows):
        raise PlanError(f"sample size {n} exceeds space size {len(pool.rows)}")
    rng = random.Random(derive_seed(seed, "srs"))
    return _weighted_indices(pool.weights, n, rng)


def simple_random_sample(space: ConfigSpace, roles: Iterable[str], n: int, seed: int) -> list[Configuration]:
    """n distinct valid configurations drawn without replacement.

    Level weights (normalized per factor) act as sequential draw weights;
    uniform weights make every size-n subset equiprobable.
    """
    roles = tuple(roles)
    idx = sample_indices(space, roles, n, seed)
    pool = space.pool(roles)
    return [pool.config(i) for i in idx]


def stratified_indices(space: ConfigSpace, stratum_factor: str, n: int, seed: int) -> list[int]:
    """Positions in ``space.pool((ROLE_DC,))`` of a stratified sample."""
    factor = space.factor(stratum_factor)
    if not factor.stratum:
        raise PlanError(f"factor {stratum_factor!r} is not marked as a stratum")
    if factor.role != ROLE_DC:
        raise PlanError(f"stratum factor {stratum_factor!r} must have role DC")
    labels = factor.labels()
    if n < len(labels):
        raise PlanError(f"sample size {n} is below the number of strata {len(labels)}")
    base, rem = divmod(n, len(labels))
    rng = random.Random(derive_seed(seed, "strata"))
    extra = set(rng.sample(range(len(labels)), rem))
    strata = space.pool((ROLE_DC,)).strata(stratum_factor)
    out: list[int] = []
    for i, lab in enumerate(labels):
        alloc = base + (1 if i in extra else 0)
        members, member_weights = strata.get(lab, ((), ()))
        if alloc > len(members):
            raise PlanError(
                f"stratum {lab!r}: allocation {alloc} exceeds its {len(members)} valid configurations"
            )
        stratum_rng = random.Random(derive_seed(seed, "stratum", lab))
        out.extend(members[j] for j in _weighted_indices(member_weights, alloc, stratum_rng))
    return out


def stratified_sample(space: ConfigSpace, stratum_factor: str, n: int, seed: int) -> list[Configuration]:
    """DC-role sample with near-equal allocation across the stratum's levels.

    Allocations differ by at most one; remainder strata are chosen by a
    seeded draw. Within a stratum, draws are simple random without
    replacement.
    """
    idx = stratified_indices(space, stratum_factor, n, seed)
    pool = space.pool((ROLE_DC,))
    return [pool.config(i) for i in idx]


# -- randomized control/treatment -----------------------------------------


def rct_arms(
    space: ConfigSpace, cui_control: str, cui_treatment: str, n: int, seed: int
) -> tuple[tuple[str, str, list[int]], tuple[str, str, list[int]]]:
    """The control and treatment arms, each (group, CUI label, positions in
    ``space.pool((ROLE_DC,))``): n DC rows sampled, shuffled and halved."""
    cui = space.cui_factor
    for lab in (cui_control, cui_treatment):
        cui.level(lab)
    if n % 2 != 0:
        raise PlanError(f"rct sample size must be even, got {n}")
    sample = sample_indices(space, (ROLE_DC,), n, seed=derive_seed(seed, "rct-sample"))
    rng = random.Random(derive_seed(seed, "rct-shuffle"))
    rng.shuffle(sample)
    half = n // 2
    return (GROUP_CONTROL, cui_control, sample[:half]), (GROUP_TREATMENT, cui_treatment, sample[half:])


def rct_excluded(group: str, cui: str, label: str, dc: Configuration) -> PlanError:
    return PlanError(f"{group} completion with {cui}={label!r} is excluded for dc {dc.id}")


def rct_plan(
    space: ConfigSpace, cui_control: str, cui_treatment: str, n: int, r: int, seed: int
) -> DesignPlan:
    """Split n sampled DC configurations 1:1 into control and treatment arms."""
    require_replicates(r)
    arms = rct_arms(space, cui_control, cui_treatment, n, seed)
    pool = space.pool((ROLE_DC,))
    units = []
    for group, cui_label, arm in arms:
        for i in arm:
            assignment = space.completion(dict(zip(pool.names, pool.rows[i])), cui_label)
            if assignment is None:
                raise rct_excluded(group, space.cui_factor.name, cui_label, pool.config(i))
            units.append([(Configuration(assignment), group, None, None)])
    metadata = {"cost": n, "n": n, "cui_control": cui_control, "cui_treatment": cui_treatment}
    return _plan("rct", space, units, r, seed, metadata)


# -- paired ---------------------------------------------------------------


def paired_plan(
    space: ConfigSpace,
    cui_a: str,
    cui_ref: str,
    dc_sample: Sequence[Configuration],
    r: int,
    seed: int = 0,
    stratum: str | None = None,
) -> DesignPlan:
    """Apply every DC configuration to both CUI levels, arms adjacent in order.

    ``stratum`` records how the sample was stratified; it is audit metadata
    only (the sample itself is taken by the caller).
    """
    require_replicates(r)
    if cui_a == cui_ref:
        raise PlanError(_self_paired(cui_a, cui_ref))
    if len({dc.id for dc in dc_sample}) != len(dc_sample):
        raise PlanError("dc_sample contains duplicate configurations; pair ids must be unique")
    units = []
    for dc in dc_sample:
        try:
            side_a, side_ref = space.pair_with(dc, cui_a, cui_ref)
        except SpaceError as exc:
            raise PlanError(str(exc)) from exc
        units.append([(side_a, GROUP_PAIR, dc.id, ARM_A), (side_ref, GROUP_PAIR, dc.id, ARM_REF)])
    metadata = {
        "cost": len(dc_sample),
        "n_pairs": len(dc_sample),
        "cui_a": cui_a,
        "cui_ref": cui_ref,
        "stratum": stratum,
    }
    return _plan("paired", space, units, r, seed, metadata)
