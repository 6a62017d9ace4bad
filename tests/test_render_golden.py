"""Byte goldens for every report renderer, driven through ``cli.main``.

The inputs are built by the CLI itself at fixed seeds, so a golden pins the
rendered bytes together with the plan, run and analysis behind them. The
files under ``tests/golden/`` are regenerated only when an output change is
intended: ``PYTHONPATH=src python tests/test_render_golden.py`` rewrites
them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from effattr.cli import main
from conftest import space_doc

GOLDEN = Path(__file__).resolve().parent / "golden"

MODEL = {
    "baseline": 10.0,
    "noise_sd": 0.5,
    "unit": "seconds",
    "main_effects": [
        {"factor": "cpu", "level": "ht_off", "effect": 2.0},
        {"factor": "w", "level": "w1", "effect": -0.75},
    ],
    "interactions": [{"terms": {"cpu": "ht_off", "t": "t1"}, "effect": 1.25}],
}

# golden file -> (command, extra arguments)
CASES = {
    "effect.csv": ("effect", ["--format", "csv"]),
    "effect.md": ("effect", ["--format", "markdown"]),
    "effect.txt": ("effect", []),
    "effect_raw.csv": ("effect", ["--format", "csv", "--raw"]),
    "anova.csv": ("anova", ["--format", "csv"]),
    "anova.md": ("anova", ["--format", "markdown"]),
    "anova_raw.md": ("anova", ["--raw"]),
    "meta.csv": ("meta", ["--format", "csv"]),
    "meta.md": ("meta", ["--format", "markdown"]),
}


def _cli(*argv: object) -> None:
    code = main([str(a) for a in argv])
    assert code == 0, argv


def build_inputs(tmp: Path) -> dict[str, list[object]]:
    """Write plans, logs and a scenario under ``tmp``; return each command's base argv."""
    space, anova_space, model = tmp / "space.json", tmp / "anova_space.json", tmp / "model.json"
    space.write_text(json.dumps(space_doc(dc_counts=(5, 4))))
    anova_space.write_text(json.dumps(space_doc(dc_counts=(2, 3))))
    model.write_text(json.dumps(MODEL))
    paired, full = tmp / "paired.json", tmp / "full.json"
    _cli("plan", "paired", "--space", space, "--plan-out", paired, "--n", "6", "--r", "2",
         "--cui-a", "ht_off", "--cui-ref", "ht_on", "--seed", "3")
    _cli("plan", "full", "--space", anova_space, "--plan-out", full, "--r", "2", "--seed", "4")
    for plan in (paired, full):
        _cli("run", "--plan", plan, "--log", plan.with_suffix(".jsonl"), "--backend", f"synthetic:{model}")
    scenario = tmp / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "space": space_doc(dc_counts=(5, 4)),
                "model": MODEL,
                "cui_a": "ht_off",
                "cui_ref": "ht_on",
                "alpha": 0.05,
                "iterations": 8,
                "master_seed": 11,
                "methods": [
                    {"kind": "paired", "n": 6, "r": 1, "stratify": "w"},
                    {"kind": "rct", "n": 6, "r": 2},
                ],
            }
        )
    )
    return {
        "effect": ["analyze", "effect", "--plan", paired, "--log", paired.with_suffix(".jsonl")],
        "anova": ["analyze", "anova", "--plan", full, "--log", full.with_suffix(".jsonl")],
        "meta": ["meta", "--scenario", scenario],
    }


@pytest.fixture(scope="module")
def base_argv(tmp_path_factory):
    return build_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, base_argv, capsys):
    command, extra = CASES[name]
    code = main([str(a) for a in base_argv[command] + extra])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        argvs = build_inputs(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for name, (command, extra) in CASES.items():
            out_file = GOLDEN / name
            if main([str(a) for a in argvs[command] + extra + ["--out", out_file]]) != 0:
                sys.exit(f"{name}: command failed")
