"""The package surface: the names ``effattr`` re-exports, loaded lazily."""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import effattr

# What ``effattr`` re-exports, by the layer module that defines it.
EXPORTS = {
    "space": [
        "ConfigSpace", "Configuration", "Factor", "Level", "ROLE_CUI", "ROLE_DC", "SpaceError", "load_space",
        "load_space_file",
    ],
    "design": [
        "DesignPlan", "PlanError", "Trial", "factorial_2kr", "full_factorial", "load_plan", "paired_plan",
        "plan_digest", "rct_plan", "save_plan", "simple_random_sample", "stratified_sample",
    ],
    "model": ["ModelError", "SyntheticModel", "load_model", "load_model_file"],
    "runner": [
        "Backend", "ExternalBackend", "LogHeader", "Measurement", "RunError", "RunLog", "RunReport",
        "SyntheticBackend", "aggregate", "check_log", "collapse", "new_log", "run",
    ],
    "stats": [
        "AnovaRow", "AnovaTable", "DiffSample", "EffectEstimate", "StatsError", "anova", "ate",
        "confidence_interval", "f_quantile", "one_sample_ttest", "paired_diffs", "paired_effect", "sample_mean",
        "sample_std", "t_quantile", "t_statistic",
    ],
    "meta": [
        "AccuracyRow", "MethodSpec", "PitfallReport", "Scenario", "ScenarioError", "SelectionResult",
        "accuracy_cost", "ground_truth", "load_scenario", "load_scenario_file", "pitfall_demo", "select_best_cui",
        "variability",
    ],
}
SUBMODULES = ["design", "meta", "model", "runner", "space", "special", "stats"]
REEXPORTED = [name for names in EXPORTS.values() for name in names]


def test_star_import_binds_each_name_and_submodule():
    namespace: dict = {}
    exec("from effattr import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 74
    assert sorted(namespace) == sorted(REEXPORTED + SUBMODULES)
    assert all(isinstance(namespace[name], types.ModuleType) for name in SUBMODULES)


@pytest.mark.parametrize("layer", EXPORTS)
def test_each_name_is_its_layers_object(layer):
    module = getattr(effattr, layer)
    assert module is sys.modules[f"effattr.{layer}"]
    for name in EXPORTS[layer]:
        assert getattr(effattr, name) is getattr(module, name), name


def test_dir_lists_the_surface():
    assert set(REEXPORTED + SUBMODULES) <= set(dir(effattr))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'effattr' has no attribute 'nosuch'$"):
        effattr.nosuch  # noqa: B018
    assert not hasattr(effattr, "nosuch")


def test_an_attribute_set_before_a_layer_runs_survives_its_load():
    # In a fresh process ``meta`` has not run yet: a value set on it first
    # is put back after the module's own code has run.
    code = (
        "import sys, types, effattr\n"
        "assert type(sys.modules['effattr.meta']) is not types.ModuleType\n"
        "effattr.meta.METHOD_KINDS = ('paired',)\n"
        "effattr.meta.extra = 1\n"
        "assert type(sys.modules['effattr.meta']) is not types.ModuleType\n"
        "assert effattr.meta.Scenario.__name__ == 'Scenario'\n"
        "assert type(sys.modules['effattr.meta']) is types.ModuleType\n"
        "print(effattr.meta.METHOD_KINDS, effattr.meta.extra)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "('paired',) 1\n", "")
