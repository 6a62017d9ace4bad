"""Synthetic response model: additive main effects, interactions, Gaussian noise.

Serves as the measurement backend for studies where the true effect must be
known: the noise-free effect difference between two CUI levels under the
declared DC level weights is available in closed form.
"""

from __future__ import annotations

import _random
import threading
from dataclasses import dataclass, field
from math import cos, log, sqrt, tau
from pathlib import Path
from typing import Any, Mapping

from ._util import Kind, parse_json, read
from .space import ConfigSpace, Configuration, ROLE_DC, SpaceError


class ModelError(ValueError):
    """Raised for malformed model documents."""


_generators = threading.local()  # one (seed, random) pair of bound methods per thread


def gauss_noise(seed: int, sd: float) -> float:
    """``random.Random(seed).gauss(0.0, sd)``, bit for bit, at less cost.

    Each thread keeps one C generator and reseeds it for every draw:
    seeding MT19937 once, where ``random.Random(seed)`` seeds it twice,
    and building no generator per draw. The first draw of ``gauss`` is
    then computed inline with the same float operations. Every synthetic
    noise draw goes through here; no generator is shared between threads,
    so it is safe in threads.
    """
    try:
        reseed, rnd = _generators.methods
    except AttributeError:
        generator = _random.Random()
        reseed, rnd = _generators.methods = generator.seed, generator.random
    reseed(seed)
    x2pi = rnd() * tau
    g2rad = sqrt(-2.0 * log(1.0 - rnd()))
    return 0.0 + cos(x2pi) * g2rad * sd


@dataclass
class SyntheticModel:
    """response = baseline + sum(main effects) + sum(interaction effects) + noise.

    Effects for unnamed (factor, level) pairs default to 0. An interaction
    applies when every one of its terms is present in the configuration.
    Instances are immutable by convention; the response cache is the only
    mutable state and is safe under the GIL.
    """

    baseline: float = 0.0
    main_effects: Mapping[tuple[str, str], float] = field(default_factory=dict)
    interactions: tuple[tuple[tuple[tuple[str, str], ...], float], ...] = ()
    noise_sd: float = 0.0
    unit: str = "units"
    _cache: dict[str, float] = field(default_factory=dict, repr=False, compare=False)
    # Each interaction's terms as a set of (factor, label) items, for ``_evaluate``.
    _term_sets: tuple[tuple[frozenset[tuple[str, str]], float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.noise_sd < 0:
            raise ModelError("noise_sd must be >= 0")
        self.main_effects = dict(self.main_effects)
        self._term_sets = tuple((frozenset(terms), effect) for terms, effect in self.interactions)

    def response(self, config: Configuration) -> float:
        """Exact noise-free response for a total configuration, cached per id."""
        cached = self._cache.get(config.id)
        if cached is None:
            cached = self._cache[config.id] = self._evaluate(config.assignment)
        return cached

    def _evaluate(self, assignment: Mapping[str, str]) -> float:
        value = self.baseline
        # Summed in factor-name order, so the bits do not depend on the
        # order in which the assignment was built.
        for fname, label in sorted(assignment.items()):
            value += self.main_effects.get((fname, label), 0.0)
        items = assignment.items()
        for terms, effect in self._term_sets:
            if items >= terms:  # every (factor, label) term is in the assignment
                value += effect
        return value

    def closed_form_delta(self, space: ConfigSpace, cui_a: str, cui_ref: str) -> float:
        """Noise-free effect difference a - ref averaged over the DC weights.

        Without exclusions this is a direct coefficient sum: the main-effect
        difference plus each CUI-involving interaction weighted by the
        product of its DC levels' normalized weights. With exclusions the
        product distribution no longer factorizes, so the space's DC pool
        (its label rows and product weights) is weight-averaged instead;
        both paths stay independent of the plan/run/collapse pipeline and of
        the response cache.
        """
        cui = space.cui_factor
        for lab in (cui_a, cui_ref):
            cui.level(lab)
        if not space.exclusions:
            weights = {f.name: f.normalized_weights() for f in space.factors if f.role == ROLE_DC}
            delta = self.main_effects.get((cui.name, cui_a), 0.0) - self.main_effects.get(
                (cui.name, cui_ref), 0.0
            )
            for terms, effect in self.interactions:
                terms_map = dict(terms)
                if len(terms_map) != len(terms):
                    continue  # repeated factor: can never match a configuration
                cui_label = terms_map.pop(cui.name, None)
                if cui_label not in (cui_a, cui_ref):
                    continue  # absent or a third level: cancels or never differs
                prob = 1.0
                for fname, label in terms_map.items():
                    prob *= weights[fname].get(label, 0.0)
                delta += effect * prob if cui_label == cui_a else -effect * prob
            return delta
        total_w = 0.0
        acc = 0.0
        pool = space.pool((ROLE_DC,))
        for row, w in zip(pool.rows, pool.weights):
            dc = dict(zip(pool.names, row))
            side_a, side_ref = space.completions(dc, cui_a, cui_ref)
            acc += w * (self._evaluate(side_a) - self._evaluate(side_ref))
            total_w += w
        if total_w <= 0:
            raise SpaceError("DC space carries no weight")
        return acc / total_w

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "SyntheticModel":
        baseline, noise_sd, unit, raw_mains, raw_interactions = read(doc, _MODEL, ModelError)
        mains: dict[tuple[str, str], float] = {}
        for i, rec in enumerate(raw_mains):
            factor, level, effect = read(rec, _MAIN_EFFECT, ModelError, ("main_effects", i))
            if (factor, level) in mains:
                raise ModelError(f"main_effects[{i}]: duplicate entry for {(factor, level)}")
            mains[factor, level] = float(effect)
        interactions = []
        for i, rec in enumerate(raw_interactions):
            terms, effect = read(rec, _INTERACTION, ModelError, ("interactions", i))
            if not terms:
                raise ModelError(f"interactions[{i}].terms: must be a nonempty object")
            interactions.append((tuple(sorted(terms.items())), float(effect)))
        return cls(
            baseline=float(baseline),
            main_effects=mains,
            interactions=tuple(interactions),
            noise_sd=float(noise_sd),
            unit=unit,
        )


_MODEL = {
    "baseline": Kind("number", 0.0), "noise_sd": Kind("number", 0.0), "unit": Kind("text", "units"),
    "main_effects": Kind("array", ()), "interactions": Kind("array", ()),
}
_MAIN_EFFECT = {"factor": Kind("text"), "level": Kind("text"), "effect": Kind("number")}
_INTERACTION = {"terms": Kind("object", each=Kind("text")), "effect": Kind("number")}


def load_model(document: str | Mapping[str, Any]) -> SyntheticModel:
    return SyntheticModel.from_dict(parse_json(document, ModelError, "model document"))


def load_model_file(path: str | Path) -> SyntheticModel:
    return load_model(Path(path).read_text(encoding="utf-8"))
