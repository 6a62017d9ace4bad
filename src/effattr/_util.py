"""Canonical serialization, digests, seed derivation, the document field
reader and the checked-record base shared across modules."""

from __future__ import annotations

import gc
import hashlib
import json
import struct
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _json_str  # the C encoder where built
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

# Unit separator between ``derive_seed`` parts. Labels may contain it, but
# each call site passes a fixed number of parts of which at most one is free
# text (a label), so the joined text still has one reading per call site.
_SEP = "\x1f"

# Choices that the CLI's parser offers, kept here so that building it runs no layer.
DEFAULT_TRIAL_BUDGET = 1_000_000  # most trials ``design.full_factorial`` builds by default
AVERAGE_KINDS = ("arithmetic", "weighted", "geometric")  # ``stats.paired_effect``'s averages
AGGREGATE_METHODS = ("mean", "median")  # ``runner.aggregate``'s methods


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, and restore its previous state on
    leaving, also on error. A command's or a loader's objects seldom form
    cycles, so collections over them cost time and free almost nothing.
    Works as a decorator too: ``@gc_paused()``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Checked:
    """The first base of a named-tuple record whose ``__new__`` checks or
    derives from its fields (``class Level(Checked, _LevelFields)``):
    ``_make``, and so ``_replace``, build through that ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Any:
        return cls(*iterable)


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
    joined = "\n".join([f"{name}={label}" for name, label in sorted(assignment.items())])
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:32]


# A seed is the first 8 bytes of the SHA-256 digest of its parts, big-endian.
_seed_of = struct.Struct(">Q").unpack_from


def derive_seed(*parts: object) -> int:
    """Deterministic 64-bit seed from an arbitrary tuple of parts."""
    return _seed_of(hashlib.sha256(_SEP.join(map(str, parts)).encode("utf-8")).digest())[0]


def derive_seeds(parts: Sequence[object], lasts: Iterable[object]) -> list[int]:
    """``[derive_seed(*parts, last) for last in lasts]``, with the text of
    ``parts`` joined once, by ``derive_seed``'s rule, rather than per seed."""
    head = _SEP.join(map(str, (*parts, "")))  # ends in the separator before ``last``
    sha256, seed_of = hashlib.sha256, _seed_of
    return [seed_of(sha256((head + str(last)).encode("utf-8")).digest())[0] for last in lasts]


# -- document fields -----------------------------------------------------------
#
# One rule for every input document and the CLI's JSON options: a field
# holds exactly its JSON type, compared by ``type`` so that a bool is never
# a number, and a number is finite.

_JSON_KINDS = {  # name: (Python types, name in messages)
    "text": ((str,), "text"), "integer": ((int,), "an integer"), "number": ((int, float), "a number"),
    "bool": ((bool,), "true or false"), "null": ((type(None),), "null"),
    "array": ((list,), "an array"), "object": ((dict,), "an object"),
}
_MAX = sys.float_info.max
_REQUIRED, _ABSENT = object(), object()


class Kind:
    """What a field may hold: JSON kinds joined by ``|`` ("text|null"), a
    default where it may be absent, the kind of ``each`` element or value of
    an array or object, and ``finite=False`` where a number may be NaN or
    infinite."""

    __slots__ = ("types", "name", "finite", "default", "each")

    def __init__(self, kinds: str, default: Any = _REQUIRED, each: "Kind | None" = None, finite: bool = True):
        names = kinds.split("|")
        self.types = tuple(t for n in names for t in _JSON_KINDS[n][0])
        self.name = " or ".join(_JSON_KINDS[n][1] for n in names)
        self.finite, self.default, self.each = finite and "number" in names, default, each


def parse_json(document: Any, error: Callable[[str], Exception], what: str) -> Any:
    """``document`` parsed where it is JSON text, else as it is; ``error``
    names ``what`` where the text does not parse or nests too deeply to."""
    if not isinstance(document, str):
        return document
    try:
        return json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def _path(parts: tuple[Any, ...]) -> str:
    """``("factors", 1, "name")`` as ``factors[1].name``."""
    text = ""
    for part in parts:
        text += f"[{part}]" if type(part) is int else f".{part}" if text else str(part)
    return text or "top level"


def read(
    doc: Any, table: Mapping[Any, Kind], error: Callable[[str], Exception], path: tuple[Any, ...] = ()
) -> list[Any]:
    """The fields of object ``doc`` (at ``path``) named in ``table``, in table order.

    The one place that decides a document field's type. A field that breaks
    the rule raises ``error("<path>: must be <kind>, got <value!r>")``; an
    absent one takes its default or, if required, is a ``missing field``.
    Other keys are ignored. Elements of a field with an ``each`` kind are
    read as the fields of an object keyed by position or key.
    """
    if type(doc) is not dict:
        raise error(f"{_path(path)}: must be an object, got {doc!r}")
    values = []
    for key, kind in table.items():
        value = doc.get(key, _ABSENT)
        t = type(value)
        if t not in kind.types:
            if value is not _ABSENT:
                raise error(f"{_path((*path, key))}: must be {kind.name}, got {value!r}")
            if kind.default is _REQUIRED:
                raise error(f"{_path(path)}: missing field {key!r}" if path else f"missing field {key!r}")
            value = kind.default
        elif kind.finite and (t is float or t is int) and not -_MAX <= value <= _MAX:
            raise error(f"{_path((*path, key))}: must be finite, got {value!r}")
        elif kind.each is not None:
            items = value if t is dict else dict(enumerate(value))
            read(items, dict.fromkeys(items, kind.each), error, (*path, key))
        values.append(value)
    return values


def read_rows(rows: Sequence[Any], table: Mapping[Any, Kind]) -> tuple[list[list[Any]], int]:
    """``read`` over each object of ``rows``, by column: one column per table
    entry, holding the rows before the first one that ``read`` rejects, and
    that row's index (``len(rows)`` if none). A column's types are checked
    as a set; only a finite number kind scans its values. The caller calls
    ``read`` on the first bad row, which words the error. No ``each`` kinds.
    """
    bad = len(rows)
    if not set(map(type, rows)) <= {dict}:
        bad = next(i for i, row in enumerate(rows) if type(row) is not dict)
    columns = []
    for key, kind in table.items():
        assert kind.each is None, "read_rows reads no element kinds"
        column = list(map(dict.get, rows[:bad], repeat(key), repeat(_ABSENT)))
        types = set(map(type, column))
        if kind.finite and not types.isdisjoint((int, float)):
            infinite = (i for i, v in enumerate(column) if type(v) in (int, float) and not -_MAX <= v <= _MAX)
            bad = next(infinite, bad)
        if not types.issubset(kind.types):  # a mistyped or an absent field
            for i, value in enumerate(column[:bad]):
                if type(value) not in kind.types:
                    if value is not _ABSENT or kind.default is _REQUIRED:
                        bad = i
                        break
                    column[i] = kind.default
        columns.append(column)
    return [column[:bad] for column in columns], bad
