"""Canonical serialization, digests, and seed derivation shared across modules."""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _json_str  # the C encoder where built
from typing import Any

# Unit separator between ``derive_seed`` parts. Labels may contain it, but
# each call site passes a fixed number of parts of which at most one is free
# text (a label), so the joined text still has one reading per call site.
_SEP = "\x1f"


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and no whitespace so digests are stable."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def json_scalar(x: Any) -> str:
    """``json.dumps(x)``, with the types plans and logs usually hold encoded directly."""
    kind = type(x)
    if kind is str:
        return _json_str(x)
    if kind is float and x - x == 0.0:  # finite; json.dumps spells the rest NaN/Infinity
        return float.__repr__(x)
    if kind is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    return json.dumps(x)


def digest(obj: Any) -> str:
    """Hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def assignment_id(assignment: dict[str, str]) -> str:
    """Canonical configuration id: hash of sorted name=label pairs.

    Independent of insertion order, stable across runs and platforms.
    """
    joined = "\n".join(f"{name}={label}" for name, label in sorted(assignment.items()))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:32]


def derive_seed(*parts: object) -> int:
    """Deterministic 64-bit seed from an arbitrary tuple of parts."""
    raw = hashlib.sha256(_SEP.join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "big")
