"""Byte identity of ``effattr meta --raw`` against the benchmark's recorded digest.

Rebuilds the benchmark's round-0 ``meta_smt`` input (the bundled SMT
scenario with 10 iterations and master seed 7) and compares the SHA-256 of
the CSV with ``bench/digests.json``, which this test only reads.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from effattr.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_meta_smt_csv_matches_recorded_digest(tmp_path, capsys):
    doc = json.loads((ROOT / "scenarios" / "smt_scenario.json").read_text(encoding="utf-8"))
    doc.update(iterations=10, master_seed=7)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "meta.csv"
    assert main(["meta", "--scenario", str(scenario), "--raw", "--out", str(out)]) == 0
    capsys.readouterr()
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
    got = hashlib.sha256(out.read_text(encoding="utf-8").encode("utf-8")).hexdigest()
    assert got == recorded["meta_smt.csv"]
