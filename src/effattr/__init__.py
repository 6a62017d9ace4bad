"""effattr: attribute a system's overall measured effect to one component.

Pipeline: declare a configuration space, plan paired (or factorial / RCT)
experiments over it, execute them against a backend, and infer the
component's effect difference with calibrated uncertainty. A meta layer
compares the methodologies on synthetic scenarios with a known true effect.

The six layer modules load lazily (``importlib.util.LazyLoader``): each is
in ``sys.modules`` and bound here from the start, but runs on the first
access to one of its attributes, so a process runs only the layers it uses.
The names below are re-exported on first access (PEP 562). In CPython
3.10, 3.11 and 3.12.1 a lazy module takes no lock on that first access
(3.13 does), so two threads must not make one at once. effattr's own
threads never do: ``runner.run`` has run ``runner``, ``design``, ``model``
and ``space`` before it starts one.
"""

import importlib.util
import sys
from types import ModuleType

_EXPORTS = {  # layer module: the names re-exported from it
    "space": (
        "ConfigSpace", "Configuration", "Factor", "Level", "ROLE_CUI", "ROLE_DC", "SpaceError", "load_space",
        "load_space_file",
    ),
    "design": (
        "DesignPlan", "PlanError", "Trial", "factorial_2kr", "full_factorial", "load_plan", "paired_plan",
        "plan_digest", "rct_plan", "save_plan", "simple_random_sample", "stratified_sample",
    ),
    "model": ("ModelError", "SyntheticModel", "load_model", "load_model_file"),
    "runner": (
        "Backend", "ExternalBackend", "LogHeader", "Measurement", "RunError", "RunLog", "RunReport",
        "SyntheticBackend", "aggregate", "check_log", "collapse", "new_log", "run",
    ),
    "stats": (
        "AnovaRow", "AnovaTable", "DiffSample", "EffectEstimate", "StatsError", "anova", "ate",
        "confidence_interval", "f_quantile", "one_sample_ttest", "paired_diffs", "paired_effect", "sample_mean",
        "sample_std", "t_quantile", "t_statistic",
    ),
    "meta": (
        "AccuracyRow", "MethodSpec", "PitfallReport", "Scenario", "ScenarioError", "SelectionResult",
        "accuracy_cost", "ground_truth", "load_scenario", "load_scenario_file", "pitfall_demo", "select_best_cui",
        "variability",
    ),
}
_ORIGIN = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, "special", *_ORIGIN]
__version__ = "0.1.0"


def _lazy(layer: str) -> ModuleType:
    """The layer's module, in ``sys.modules`` at once, to run on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


space, design, model, runner, stats, meta = map(_lazy, _EXPORTS)


def __getattr__(name: str) -> object:
    if name in _ORIGIN:
        value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
        return value
    if name == "special":  # imported the usual way, by ``stats`` or here
        return importlib.import_module(f"{__name__}.special")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
