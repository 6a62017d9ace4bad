"""One field-type rule for every input document, checked through ``cli.main``.

Every field of the bundled space, model and scenario (cut to 2 iterations),
of a saved plan and of a run log takes, in turn, a value of each JSON type
other than its own. Where the field does not accept that kind, the command
must exit 1 with a message that names the key. Where it does (an integer
for a number, null for an optional text), it exits 0, or exits 1 naming the
key when a value rule still rejects the value (alpha = 3). No exception
may escape ``main``.

A field is a key of an object or an element of an array. Arrays stand for
all their elements by the first one that has a given key, and the keys of
objects that map factor names (assignments, exclusions, terms, splits) by
their first key, so each distinct field is swapped once.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from effattr.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SWAPS = {
    "text": "x",
    "integer": 3,
    "float": 0.5,
    "nan": math.nan,
    "bool": True,
    "null": None,
    "array": [],
    "object": {},
}
# The swap kinds each declared kind accepts. "number*" may also be NaN.
ACCEPTS = {
    "text": {"text"},
    "integer": {"integer"},
    "number": {"integer", "float"},
    "number*": {"integer", "float", "nan"},
    "bool": {"bool"},
    "array": {"array"},
    "object": {"object"},
}

SPACE = {
    "factors": "array",
    "factors[*]": "object",
    "factors[*].name": "text",
    "factors[*].role": "text",
    "factors[*].stratum": "bool",
    "factors[*].levels": "array",
    "factors[*].levels[*]": "object",
    "factors[*].levels[*].label": "text",
    "factors[*].levels[*].value": "text",
    "factors[*].levels[*].weight": "number",
    "exclusions": "array",
    "exclusions[*]": "object",
    "exclusions[*].?": "text",
}
MODEL = {
    "baseline": "number",
    "noise_sd": "number",
    "unit": "text",
    "main_effects": "array",
    "main_effects[*]": "object",
    "main_effects[*].factor": "text",
    "main_effects[*].level": "text",
    "main_effects[*].effect": "number",
    "interactions": "array",
    "interactions[*]": "object",
    "interactions[*].terms": "object",
    "interactions[*].terms.?": "text",
    "interactions[*].effect": "number",
}
SCENARIO = {
    "space": "object",
    "model": "object",
    "cui_a": "text",
    "cui_ref": "text",
    "alpha": "number",
    "iterations": "integer",
    "master_seed": "integer",
    "direction": "text",
    "aggregate": "text",
    "methods": "array",
    "methods[*]": "object",
    "methods[*].kind": "text",
    "methods[*].n": "integer",
    "methods[*].r": "integer",
    "methods[*].stratify": "text|null",
    "methods[*].label": "text|null",
    "methods[*].split": "object|null",
    "methods[*].split.?": "object",
    "methods[*].split.?.low": "array",
    "methods[*].split.?.high": "array",
    "methods[*].split.?.low[*]": "text",
    "methods[*].split.?.high[*]": "text",
}
PLAN = {
    "method": "text",
    "r": "integer",
    "master_seed": "integer",
    "space_digest": "text",
    "metadata": "object",
    "metadata.cost": "integer",
    "metadata.cui_a": "text",
    "metadata.cui_ref": "text",
    "trials": "array",
    "trials[*]": "object",
    "trials[*].assignment": "object",
    "trials[*].assignment.?": "text",
    "trials[*].replicate": "integer",
    "trials[*].group": "text",
    "trials[*].pair_id": "text|null",
    "trials[*].arm": "text|null",
    "trials[*].seed": "integer",
}
# The header's "kind" is a tag whose one value is "runlog", not a typed field.
LOG = {
    "header.space_digest": "text",
    "header.plan_digest": "text",
    "header.backend": "text",
    "header.unit": "text",
    "record.config_id": "text",
    "record.replicate": "integer",
    "record.value": "number*|null",
    "record.backend": "text",
    "record.wall_time": "number*",
    "record.status": "text",
    "record.reason": "text|null",
}
# Objects whose keys are factor names rather than field names.
NAME_KEYED = {"exclusions[*]", "interactions[*].terms", "trials[*].assignment", "methods[*].split"}


def fields(doc, table, path=(), pattern="", seen=None):
    """(path, key pattern) of the first occurrence of each field pattern of ``doc`` in ``table``."""
    seen = set() if seen is None else seen
    for key, value in enumerate(doc) if isinstance(doc, list) else doc.items():
        if isinstance(doc, list):
            child = f"{pattern}[*]"
        else:
            child = f"{pattern}.{'?' if pattern in NAME_KEYED else key}".lstrip(".")
        if child in table and child not in seen:
            seen.add(child)
            yield (*path, key), child
        if isinstance(value, (list, dict)):
            yield from fields(value, table, (*path, key), child, seen)


def kind_of(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, float):
        return "float" if math.isfinite(value) else "nan"
    return {str: "text", int: "integer", list: "array", dict: "object"}[type(value)]


def swapped(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    return doc


def cases(doc, table):
    for path, pattern in fields(doc, table):
        target = doc
        for part in path:
            target = target[part]
        accepted = set().union(*(ACCEPTS.get(k, {k}) for k in table[pattern].split("|")))
        for name, value in SWAPS.items():
            if name != kind_of(target):
                yield path, pattern, value, name in accepted


def check_swaps(tmp_path, capsys, doc, table, command, write=lambda path, doc: path.write_text(json.dumps(doc))):
    """Run ``command(path, i)`` on the i-th swap of ``doc``, written to ``path``."""
    count, patterns = 0, set()
    for path, pattern, value, accepted in cases(doc, table):
        count += 1
        patterns.add(pattern)
        target = tmp_path / f"swap{count}.json"
        write(target, swapped(doc, path, value))
        code = main([str(a) for a in command(target, count)])
        out, err = capsys.readouterr()
        key = path[-1]
        needle = f"[{key}]" if isinstance(key, int) else key
        where = f"{'.'.join(map(str, path))} = {value!r}"
        if accepted:
            assert code == 0 or code == 1 and needle in err, f"{where}: exit {code}: {err}"
        else:
            assert code == 1, f"{where}: exit {code}, not rejected"
            assert err.startswith("error: ") and needle in err, f"{where}: {err}"
    assert patterns == set(table), "every declared field is present in the document"


@pytest.fixture
def plan(tmp_path, capsys):
    """A small stratified paired plan on the bundled space, with its log."""
    plan_path, log_path = tmp_path / "plan.json", tmp_path / "log.jsonl"
    space, model = SCENARIOS / "cpu_space.json", SCENARIOS / "smt_model.json"
    assert main([
        "plan", "paired", "--space", str(space), "--plan-out", str(plan_path), "--n", "10",
        "--cui-a", "smt_off", "--cui-ref", "smt_on", "--stratify", "workload", "--seed", "3",
    ]) == 0
    assert main(["run", "--plan", str(plan_path), "--log", str(log_path), "--backend", f"synthetic:{model}"]) == 0
    capsys.readouterr()
    return plan_path, log_path


def test_space(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "cpu_space.json").read_text())
    check_swaps(tmp_path, capsys, doc, SPACE, lambda path, _: ["space", "validate", path])


def test_model(tmp_path, capsys, plan):
    doc = json.loads((SCENARIOS / "smt_model.json").read_text())
    check_swaps(
        tmp_path, capsys, doc, MODEL,
        lambda path, i: ["run", "--plan", plan[0], "--log", tmp_path / f"log{i}.jsonl", "--backend", f"synthetic:{path}"],
    )


def test_scenario(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "smt_scenario.json").read_text())
    doc["iterations"] = 2
    check_swaps(tmp_path, capsys, doc, SCENARIO, lambda path, _: ["meta", "--scenario", path])


def test_plan(tmp_path, capsys, plan):
    doc = json.loads(plan[0].read_text())
    model = SCENARIOS / "smt_model.json"
    check_swaps(
        tmp_path, capsys, doc, PLAN,
        lambda path, i: ["run", "--plan", path, "--log", tmp_path / f"log{i}.jsonl", "--backend", f"synthetic:{model}"],
    )


def test_log(tmp_path, capsys, plan):
    head, record, *rest = plan[1].read_text().splitlines(keepends=True)
    doc = {"header": json.loads(head), "record": json.loads(record)}

    def write(path, doc):
        path.write_text(json.dumps(doc["header"]) + "\n" + json.dumps(doc["record"]) + "\n" + "".join(rest))

    check_swaps(
        tmp_path, capsys, doc, LOG, lambda path, _: ["analyze", "effect", "--log", path, "--plan", plan[0]], write
    )
