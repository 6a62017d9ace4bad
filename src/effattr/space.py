"""Configuration space model: factors, levels, validity exclusions, enumeration.

A space declares one factor under investigation (role ``CUI``) plus the
design-context factors (role ``DC``). Exclusions are partial assignments;
a configuration is invalid if it extends any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ._util import Kind, assignment_id, digest, parse_json, read

ROLE_CUI = "CUI"
ROLE_DC = "DC"
ALL_ROLES = (ROLE_CUI, ROLE_DC)

DEFAULT_ENUMERATION_BUDGET = 1_000_000


class SpaceError(ValueError):
    """Raised for schema violations and invalid space definitions."""


@dataclass(frozen=True)
class Level:
    """One discrete setting of a factor.

    ``value`` is an opaque payload handed to runners (flag text, a path,
    a thread count rendered as text); the space model never interprets it.
    """

    label: str
    value: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.label:
            raise SpaceError("level label must be nonempty")
        if "\n" in self.label:
            raise SpaceError(f"level {self.label!r}: label must not contain a newline")
        if not math.isfinite(self.weight):
            raise SpaceError(f"level {self.label!r}: weight must be finite")
        if self.weight < 0:
            raise SpaceError(f"level {self.label!r}: weight must be >= 0")


@dataclass(frozen=True)
class Factor:
    """A named factor with ordered levels and a CUI/DC role."""

    name: str
    role: str
    levels: tuple[Level, ...]
    stratum: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SpaceError("factor name must be nonempty")
        # Configuration ids hash "name=label" lines (``assignment_id``); with
        # no '=' or newline in names and no newline in labels (``Level``),
        # that text, and so the id, has one reading.
        if "=" in self.name or "\n" in self.name:
            raise SpaceError(f"factor {self.name!r}: name must not contain '=' or a newline")
        if self.role not in ALL_ROLES:
            raise SpaceError(f"factor {self.name!r}: role must be CUI or DC, got {self.role!r}")
        if not self.levels:
            raise SpaceError(f"factor {self.name!r}: needs at least one level")
        seen: set[str] = set()
        for lv in self.levels:
            if lv.label in seen:
                raise SpaceError(f"factor {self.name!r}: duplicate level label {lv.label!r}")
            seen.add(lv.label)
        total = sum(lv.weight for lv in self.levels)
        if total <= 0:
            raise SpaceError(f"factor {self.name!r}: at least one level must have weight > 0")

    def labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels)

    def level(self, label: str) -> Level:
        for lv in self.levels:
            if lv.label == label:
                return lv
        raise SpaceError(f"factor {self.name!r}: no level {label!r}")

    def normalized_weights(self) -> dict[str, float]:
        """Level weights rescaled to sum to 1."""
        total = sum(lv.weight for lv in self.levels)
        return {lv.label: lv.weight / total for lv in self.levels}


@dataclass(frozen=True)
class Configuration:
    """A total assignment over some set of factors, with a canonical id."""

    assignment: Mapping[str, str]
    id: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        assignment = dict(self.assignment)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "id", assignment_id(assignment))

    def extended(self, more: Mapping[str, str]) -> "Configuration":
        merged = dict(self.assignment)
        merged.update(more)
        return Configuration(merged)


class ConfigPool:
    """Valid configurations over one role set, in enumeration order, as label rows.

    ``rows[i]`` holds the labels of ``names``; ``weights[i]`` is the product
    of their normalized level weights. Sampling works on positions; a
    position's ``Configuration``, with its SHA-256 id, is built on request.
    """

    def __init__(
        self, names: tuple[str, ...], rows: tuple[tuple[str, ...], ...], weights: tuple[float, ...]
    ):
        self.names, self.rows, self.weights = names, rows, weights
        self._configs: dict[int, Configuration] = {}
        self._strata: dict[str, dict[str, tuple[tuple[int, ...], tuple[float, ...]]]] = {}

    def config(self, i: int) -> Configuration:
        """The configuration at position ``i``, built on first request and kept."""
        if i not in self._configs:
            self._configs[i] = Configuration(dict(zip(self.names, self.rows[i])))
        return self._configs[i]

    def strata(self, factor: str) -> dict[str, tuple[tuple[int, ...], tuple[float, ...]]]:
        """Positions and weights of the members of each level of ``factor``, by label."""
        if factor not in self._strata:
            column = self.names.index(factor)
            members: dict[str, list[int]] = {}
            for i, row in enumerate(self.rows):
                members.setdefault(row[column], []).append(i)
            self._strata[factor] = {
                label: (tuple(idx), tuple(self.weights[i] for i in idx))
                for label, idx in members.items()
            }
        return self._strata[factor]


def _check_budget(size: int, budget: int) -> None:
    if size > budget:
        raise SpaceError(f"enumeration budget exceeded: {size} configurations > budget {budget}")


class _Walk:
    """The valid configurations over ``factors``, counted in one forward pass.

    Factors are assigned in declared order and levels in level order. The
    state after a prefix is the bit set of exclusions that have started (one
    of their factors is assigned) and still match it; a prefix that completes
    an exclusion is pruned. ``layers[d]`` maps each state reachable at depth
    ``d`` to the number of valid prefixes that reach it, so the cost is
    bounded by the number of distinct states, which never exceeds the grid
    of the factors that the exclusions mention, whatever their number.
    """

    def __init__(self, factors: Sequence[Factor], exclusions: Sequence[Mapping[str, str]]):
        self.names = tuple(f.name for f in factors)
        depth_of = {name: d for d, name in enumerate(self.names)}
        # A level that an exclusion of one factor names is never assigned.
        dropped = {item for excl in exclusions if len(excl) == 1 for item in excl.items()}
        # Per depth and kept level: [label, bits it keeps, bits it completes,
        # bits it starts, normalized weight].
        self.moves = [
            [[lv.label, -1, 0, 0, w] for lv, w in zip(f.levels, f.normalized_weights().values())
             if (f.name, lv.label) not in dropped]
            for f in factors
        ]
        for i, excl in enumerate(e for e in exclusions if len(e) > 1):
            bit = 1 << i
            depths = sorted(depth_of[name] for name in excl)
            for name, label in excl.items():
                d = depth_of[name]
                for move in self.moves[d]:
                    if move[0] != label:
                        move[1] &= ~bit
                    elif d == depths[-1]:
                        move[2] |= bit
                    elif d == depths[0]:
                        move[3] |= bit
        layer = {0: 1}
        self.layers = [layer]
        for level_moves in self.moves:
            reached: dict[int, int] = {}
            for state, n in layer.items():
                for _, keep, completes, starts, _ in level_moves:
                    if not completes & state:
                        nxt = (state & keep) | starts
                        reached[nxt] = reached.get(nxt, 0) + n
            layer = reached
            self.layers.append(layer)
        self.count: int = sum(layer.values())

    def expand(self) -> Iterator[tuple[list[tuple[str, ...]], list[float]]]:
        """The valid prefixes and their weights, depth by depth, in walk order.

        A backward pass first keeps only the edges into states that can
        still be completed, so no dead prefix is expanded. Weights are
        multiplied in factor order from 1, as ``math.prod`` does: samples
        depend on their exact bits.
        """
        edges: list[dict[int, list[tuple[str, float, int]]]] = []
        live = self.layers[-1]
        for layer, level_moves in zip(reversed(self.layers[:-1]), reversed(self.moves)):
            out = {}
            for state in layer:
                into = [(label, weight, nxt) for label, keep, completes, starts, weight in level_moves
                        if not completes & state and (nxt := (state & keep) | starts) in live]
                if into:
                    out[state] = into
            edges.append(out)
            live = out
        rows, weights, states = ([()], [1], [0]) if self.count else ([], [], [])
        yield rows, weights
        for out in reversed(edges):
            children = [out[state] for state in states]
            rows = [(*row, label) for row, into in zip(rows, children) for label, _, _ in into]
            weights = [w * weight for w, into in zip(weights, children) for _, weight, _ in into]
            states = [nxt for into in children for _, _, nxt in into]
            yield rows, weights

    @cached_property
    def pool(self) -> ConfigPool:
        """The last layer of ``expand`` as pool rows, built on first use."""
        for rows, weights in self.expand():
            pass
        return ConfigPool(self.names, tuple(rows), tuple(weights))


@dataclass(frozen=True)
class ConfigSpace:
    """Validated, immutable configuration space."""

    factors: tuple[Factor, ...]
    exclusions: tuple[Mapping[str, str], ...] = ()
    _walks: dict[tuple[str, ...], _Walk] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    cui_factor: Factor = field(init=False, repr=False, compare=False)
    # The exclusions as (factor, label) sets, in declaration order.
    _excluded: tuple[frozenset[tuple[str, str]], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [f.name for f in self.factors]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpaceError(f"duplicate factor names: {dupes}")
        cui = [f for f in self.factors if f.role == ROLE_CUI]
        if len(cui) != 1:
            raise SpaceError(f"exactly one factor must have role CUI, found {len(cui)}")
        object.__setattr__(self, "cui_factor", cui[0])
        by_name = {f.name: f for f in self.factors}
        for i, excl in enumerate(self.exclusions):
            if not excl:
                raise SpaceError(f"exclusions[{i}]: empty exclusion would void the space")
            for fname, label in excl.items():
                if fname not in by_name:
                    raise SpaceError(f"exclusions[{i}]: unknown factor {fname!r}")
                if label not in by_name[fname].labels():
                    raise SpaceError(f"exclusions[{i}].{fname}: unknown level {label!r}")
        object.__setattr__(self, "_excluded", tuple(frozenset(e.items()) for e in self.exclusions))
        if self.cartesian_size() < 1:
            raise SpaceError("empty space: exclusions cover every configuration")

    # -- lookup ---------------------------------------------------------

    def factor(self, name: str) -> Factor:
        for f in self.factors:
            if f.name == name:
                return f
        raise SpaceError(f"no factor named {name!r}")

    def factors_for(self, roles: Iterable[str]) -> tuple[Factor, ...]:
        roleset = set(roles)
        bad = roleset - set(ALL_ROLES)
        if bad:
            raise SpaceError(f"unknown roles: {sorted(bad)}")
        if not roleset:
            raise SpaceError("roles must be nonempty")
        return tuple(f for f in self.factors if f.role in roleset)

    def is_valid(self, assignment: Mapping[str, str]) -> bool:
        # An assignment extends an exclusion iff it holds every excluded
        # (factor, label) pair; absent factors never match.
        items = assignment.items()
        return not any(items >= e for e in self._excluded)

    # -- counting -------------------------------------------------------

    def cartesian_size(self, roles: Iterable[str] = ALL_ROLES) -> int:
        """Number of valid configurations over the selected roles."""
        return self._walk(roles).count

    # -- enumeration ----------------------------------------------------

    def enumerate_configs(
        self,
        roles: Iterable[str] = ALL_ROLES,
        budget: int = DEFAULT_ENUMERATION_BUDGET,
    ) -> Iterator[Configuration]:
        """Valid configurations in lexicographic (factor order, level order) order."""
        walk = self._walk(roles)
        _check_budget(walk.count, budget)
        for labels in walk.pool.rows:
            yield Configuration(dict(zip(walk.names, labels)))

    def _walk(self, roles: Iterable[str]) -> _Walk:
        """The walk over ``roles``, built on first use for a role set and kept."""
        factors = self.factors_for(roles)
        key = tuple(sorted({f.role for f in factors}))
        walk = self._walks.get(key)
        if walk is None:
            names = {f.name for f in factors}
            # Only exclusions entirely within the selected roles can match a
            # configuration restricted to those roles.
            walk = self._walks[key] = _Walk(factors, [e for e in self.exclusions if set(e) <= names])
        return walk

    def pool(self, roles: Iterable[str] = ALL_ROLES) -> ConfigPool:
        """The valid configurations over ``roles`` with their product weights.

        Expanded from the walk on first use for a role set and kept with the
        walk; ``DEFAULT_ENUMERATION_BUDGET`` is checked on every call, before that.
        """
        walk = self._walk(roles)
        _check_budget(walk.count, DEFAULT_ENUMERATION_BUDGET)
        return walk.pool

    # -- pairing --------------------------------------------------------

    def completion(self, dc_assignment: Mapping[str, str], cui_level: str) -> dict[str, str] | None:
        """``dc_assignment`` completed with ``cui_level``, or None where
        ``is_valid`` rejects the completed assignment."""
        assignment = {**dc_assignment, self.cui_factor.name: cui_level}
        return assignment if self.is_valid(assignment) else None

    def pair_with(
        self, dc_config: Configuration, cui_level_a: str, cui_level_b: str
    ) -> tuple[Configuration, Configuration]:
        """Complete a DC configuration with two CUI levels, checking validity."""
        cui = self.cui_factor
        for lab in (cui_level_a, cui_level_b):
            cui.level(lab)  # raises on unknown label
        missing = [f.name for f in self.factors if f.role == ROLE_DC and f.name not in dc_config.assignment]
        if missing:
            raise SpaceError(f"dc configuration missing factors: {sorted(missing)}")
        side_a, side_b = self.completions(dc_config.assignment, cui_level_a, cui_level_b)
        return Configuration(side_a), Configuration(side_b)

    def completions(
        self, dc_assignment: Mapping[str, str], cui_level_a: str, cui_level_b: str
    ) -> tuple[dict[str, str], dict[str, str]]:
        """``dc_assignment`` completed with each CUI level, sides a and b;
        raises for the first side that is excluded."""
        sides = self.completion(dc_assignment, cui_level_a), self.completion(dc_assignment, cui_level_b)
        for completed, level, side in zip(sides, (cui_level_a, cui_level_b), "ab"):
            if completed is None:
                cui = self.cui_factor.name
                raise SpaceError(f"pairing error on side {side}: completion with {cui}={level!r} is excluded")
        return sides  # type: ignore[return-value]

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "factors": [
                {
                    "name": f.name,
                    "role": f.role,
                    "stratum": f.stratum,
                    "levels": [
                        {"label": lv.label, "value": lv.value, "weight": lv.weight}
                        for lv in f.levels
                    ],
                }
                for f in self.factors
            ],
            "exclusions": [dict(e) for e in self.exclusions],
        }

    @cached_property
    def space_digest(self) -> str:
        return digest(self.to_dict())


# -- loading -------------------------------------------------------------


_SPACE = {"factors": Kind("array"), "exclusions": Kind("array", (), each=Kind("object", each=Kind("text")))}
_FACTOR = {"name": Kind("text"), "role": Kind("text"), "levels": Kind("array"), "stratum": Kind("bool", False)}
_LEVEL = {"label": Kind("text"), "value": Kind("text", None), "weight": Kind("number", 1.0)}


def load_space(document: str | Mapping[str, Any]) -> ConfigSpace:
    """Parse and validate a space document (JSON text or an already-parsed dict)."""
    document = parse_json(document, SpaceError, "space document")
    raw_factors, exclusions = read(document, _SPACE, SpaceError)
    unknown = set(document) - set(_SPACE)
    if unknown:
        raise SpaceError(f"space document: unknown keys {sorted(unknown)}")
    factors = []
    for i, rf in enumerate(raw_factors):
        name, role, raw_levels, stratum = read(rf, _FACTOR, SpaceError, ("factors", i))
        levels = []
        for j, rl in enumerate(raw_levels):
            label, value, weight = read(rl, _LEVEL, SpaceError, ("factors", i, "levels", j))
            try:
                levels.append(Level(label=label, value=label if value is None else value, weight=float(weight)))
            except SpaceError as exc:
                raise SpaceError(f"factors[{i}].levels[{j}]: {exc}") from exc
        try:
            factors.append(Factor(name=name, role=role, levels=tuple(levels), stratum=stratum))
        except SpaceError as exc:
            raise SpaceError(f"factors[{i}]: {exc}") from exc
    return ConfigSpace(factors=tuple(factors), exclusions=tuple(map(dict, exclusions)))


def load_space_file(path: str | Path) -> ConfigSpace:
    return load_space(Path(path).read_text(encoding="utf-8"))
