"""The determinism contract: the corpus of ``tests/contract`` rebuilds to
the digests in its manifest on the running interpreter."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location("corpus", Path(__file__).parent / "contract" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def test_the_corpus_rebuilds_to_its_manifest(tmp_path):
    manifest = json.loads(corpus.MANIFEST.read_text(encoding="utf-8"))
    built = corpus.build(tmp_path)
    assert corpus.check(built, manifest) == []
    assert built.keys() == manifest.keys()
