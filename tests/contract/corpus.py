"""The determinism contract as a corpus of artifacts and their SHA-256 digests.

Builds plans of every method on both bundled spaces, their synthetic run
logs, every analysis of them in each format, ``space size``/``validate``
and ``meta --raw`` on a reduced-iteration copy of the SMT scenario, all
through ``effattr.cli.main``, and compares each artifact's digest with
``manifest.json``. Needs no pytest:

    PYTHONPATH=src python tests/contract/corpus.py          # check
    PYTHONPATH=src python tests/contract/corpus.py --add    # add new entries

A command that fails leaves its exit code and stderr as its artifact.
``--add`` writes the digests of artifacts that the manifest does not hold
yet and never rewrites an entry: an entry that has to change is a break of
the contract. Exits 0 when every entry matches, 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
SCENARIOS = HERE.parent.parent / "scenarios"

SEEDS = (7, 11)
SPACES = ("cpu_space", "cpu_space_complete")
META_ITERATIONS = 6
SPLIT = {
    "smt": {"low": ["smt_on"], "high": ["smt_off"]},
    "workload": {"low": ["fluid_sim", "stencil", "fft", "nbody", "graph_bfs"],
                 "high": ["sort", "compress", "raytrace", "linsolve", "montecarlo"]},
    "dataset": {"low": ["small"], "high": ["medium", "large"]},
    "opt_level": {"low": ["O1"], "high": ["O2", "O3"]},
    "threads": {"low": ["t1", "t2", "t4", "t8"], "high": ["t12", "t16", "t24", "t32"]},
}
_PAIR = ["--cui-a", "smt_off", "--cui-ref", "smt_on"]
# Plan name: (method, options); each is planned on both spaces at every seed.
PLANS = {
    "paired": ("paired", ["--n", "12", "--r", "2", *_PAIR]),
    "paired-strat": ("paired", ["--n", "12", "--r", "2", *_PAIR, "--stratify", "workload"]),
    "rct": ("rct", ["--n", "10", "--r", "2", "--control", "smt_on", "--treatment", "smt_off"]),
    "2kr": ("2kr", ["--r", "2", "--split", json.dumps(SPLIT)]),
    "2kr-strat": ("2kr", ["--r", "2", "--split", json.dumps({k: v for k, v in SPLIT.items() if k != "workload"}),
                          "--stratify", "workload"]),
    "full": ("full", ["--r", "2"]),
}
# Analysis name: options, for ``analyze effect`` of the paired and rct plans.
EFFECTS = {
    **{f"{fmt}{'-raw' * raw}": ["--format", fmt] + ["--raw"] * raw
       for fmt in ("plain", "csv", "markdown") for raw in (False, True)},
    "mean-raw": ["--aggregate", "mean", "--raw"],
}
PAIRED_ONLY = {"geometric-raw": ["--average", "geometric", "--raw"]}
ANOVAS = {f"{fmt}{'-raw' * raw}": ["--format", fmt] + ["--raw"] * raw for fmt in ("csv", "markdown") for raw in (False, True)}


def commands(work: Path) -> Iterator[tuple[list[str], list[str]]]:
    """Each command's ``effattr`` arguments, after the names of the artifacts
    it writes: its output (``--out``) first, then the files it writes in ``work``."""
    model = f"synthetic:{SCENARIOS / 'smt_model.json'}"
    for space_name in SPACES:
        space = str(SCENARIOS / f"{space_name}.json")
        for action in ("size", "validate"):
            yield [f"{space_name}.{action}.txt"], ["space", action, space]
        for seed in SEEDS:
            for plan_name, (method, options) in PLANS.items():
                stem = f"{space_name}.{plan_name}.s{seed}"
                plan, log = f"{stem}.plan.json", f"{stem}.log.jsonl"
                yield [f"{stem}.plan.txt", plan], ["plan", method, "--space", space, "--plan-out", str(work / plan),
                                                   "--seed", str(seed), *options]
                yield [f"{stem}.run.txt", log], ["run", "--plan", str(work / plan), "--log", str(work / log),
                                                 "--backend", model]
                files = ["--plan", str(work / plan), "--log", str(work / log)]
                if method in ("paired", "rct"):
                    analyses = {**EFFECTS, **(PAIRED_ONLY if method == "paired" else {})}
                    for name, options in analyses.items():
                        yield [f"{stem}.effect.{name}.txt"], ["analyze", "effect", *files, *options]
                elif method == "full":  # the space with exclusions is refused
                    for name, options in ANOVAS.items():
                        yield [f"{stem}.anova.{name}.txt"], ["analyze", "anova", *files, *options]
    scenario = json.loads((SCENARIOS / "smt_scenario.json").read_text(encoding="utf-8"))
    scenario["iterations"] = META_ITERATIONS
    (work / "smt_scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    for fmt in ("csv", "markdown"):
        yield [f"meta.{fmt}-raw.txt"], ["meta", "--scenario", str(work / "smt_scenario.json"), "--format", fmt, "--raw"]


def build(work: Path) -> dict[str, tuple[str, str]]:
    """Build the corpus in ``work``: each artifact's SHA-256 and the command that made it."""
    from effattr.cli import main

    out: dict[str, tuple[str, str]] = {}
    for names, argv in commands(work):
        command = " ".join(["effattr", *argv]).replace(f"{work}/", "").replace(f"{SCENARIOS}/", "scenarios/")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--out", str(work / names[0])])
        if code != 0:  # the refusal is the artifact
            (work / names[0]).write_text(f"exit {code}\n{err.getvalue()}".replace(f"{work}/", ""), encoding="utf-8")
        for name in names:
            out[name] = hashlib.sha256((work / name).read_bytes()).hexdigest(), command
    return out


def check(built: dict[str, tuple[str, str]], manifest: dict[str, dict[str, str]]) -> list[str]:
    """One line per manifest entry that the corpus does not reproduce."""
    problems = []
    for name, entry in manifest.items():
        if name not in built:
            problems.append(f"{name}: not built (made by: {entry['command']})")
        elif built[name][0] != entry["sha256"]:
            problems.append(f"{name}: digest {built[name][0][:12]} != {entry['sha256'][:12]} (made by: {built[name][1]})")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--add", action="store_true", help="add the digests of artifacts not in the manifest")
    args = parser.parse_args(argv)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        built = build(Path(tmp))
    problems = check(built, manifest)
    for line in problems:
        print(f"mismatch: {line}")
    new = {name: {"sha256": d, "command": c} for name, (d, c) in built.items() if name not in manifest}
    if args.add and new:
        MANIFEST.write_text(json.dumps({**manifest, **new}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"python {sys.version.split()[0]}: {len(built)} artifacts, {len(manifest) - len(problems)} of "
          f"{len(manifest)} entries match, {len(new)} new{' (added)' if args.add and new else ''}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
