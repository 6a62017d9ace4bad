"""Shared fixtures: small spaces and models used across the suite."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from effattr import SyntheticModel, load_space


def space_doc(
    cui_levels=("ht_on", "ht_off"),
    dc_counts=(5, 4),
    exclusions=(),
    stratum_factor="w",
):
    """Build a space document: one CUI factor plus letter-named DC factors."""
    names = ["w", "t", "d", "o", "m", "k"]
    factors = [
        {
            "name": "cpu",
            "role": "CUI",
            "levels": [{"label": lab, "value": lab} for lab in cui_levels],
        }
    ]
    for name, count in zip(names, dc_counts):
        factors.append(
            {
                "name": name,
                "role": "DC",
                "stratum": name == stratum_factor,
                "levels": [{"label": f"{name}{i}", "value": f"{name}{i}"} for i in range(count)],
            }
        )
    return {"factors": factors, "exclusions": [dict(e) for e in exclusions]}


def colliding_doc():
    """DC factors a (labels p, "p\\nb=q") and b (labels "q\\nb=r", r)."""
    doc = space_doc(dc_counts=())
    doc["factors"] += [
        {"name": "a", "role": "DC", "levels": [{"label": "p"}, {"label": "p\nb=q"}]},
        {"name": "b", "role": "DC", "levels": [{"label": "q\nb=r"}, {"label": "r"}]},
    ]
    return doc


def running(pid):
    """Whether process ``pid`` runs; a zombie has ended, only its parent has yet to reap it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def ended(pids, seconds=10):
    """Whether every process of ``pids`` ends within ``seconds``, polled."""
    pids = list(pids)
    deadline = time.monotonic() + seconds
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(map(running, pids))


@pytest.fixture
def small_space():
    """2-level CUI x (5 x 4) DC grid, workload factor is the stratum."""
    return load_space(json.dumps(space_doc()))


@pytest.fixture
def paper_scale_space():
    """DC level counts [10, 10, 1, 3, 60]: the 18,000-configuration layout."""
    return load_space(json.dumps(space_doc(dc_counts=(10, 10, 1, 3, 60))))


@pytest.fixture
def plain_model():
    """Zero-noise model: +2.0 on the investigated CUI level, no interactions."""
    return SyntheticModel(
        baseline=10.0,
        main_effects={("cpu", "ht_off"): 2.0},
        noise_sd=0.0,
        unit="seconds",
    )


@pytest.fixture
def interaction_model():
    """+2.0 CUI main effect plus +5.0 when paired with workload w1."""
    return SyntheticModel(
        baseline=10.0,
        main_effects={("cpu", "ht_off"): 2.0},
        interactions=(((("cpu", "ht_off"), ("w", "w1")), 5.0),),
        noise_sd=0.0,
        unit="seconds",
    )
