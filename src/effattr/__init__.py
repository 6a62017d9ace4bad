"""effattr: attribute a system's overall measured effect to one component.

Pipeline: declare a configuration space, plan paired (or factorial / RCT)
experiments over it, execute them against a backend, and infer the
component's effect difference with calibrated uncertainty. A meta layer
compares the methodologies on synthetic scenarios with a known true effect.
"""

from .space import (
    ConfigSpace,
    Configuration,
    Factor,
    Level,
    ROLE_CUI,
    ROLE_DC,
    SpaceError,
    load_space,
    load_space_file,
)
from .design import (
    DesignPlan,
    PlanError,
    Trial,
    factorial_2kr,
    full_factorial,
    load_plan,
    paired_plan,
    plan_digest,
    rct_plan,
    save_plan,
    simple_random_sample,
    stratified_sample,
)
from .model import ModelError, SyntheticModel, load_model, load_model_file
from .runner import (
    Backend,
    ExternalBackend,
    LogHeader,
    Measurement,
    RunError,
    RunLog,
    RunReport,
    SyntheticBackend,
    aggregate,
    check_log,
    collapse,
    new_log,
    run,
)
from .stats import (
    AnovaRow,
    AnovaTable,
    DiffSample,
    EffectEstimate,
    StatsError,
    anova,
    ate,
    confidence_interval,
    f_quantile,
    one_sample_ttest,
    paired_diffs,
    paired_effect,
    sample_mean,
    sample_std,
    t_quantile,
    t_statistic,
)
from .meta import (
    AccuracyRow,
    MethodSpec,
    PitfallReport,
    Scenario,
    ScenarioError,
    SelectionResult,
    accuracy_cost,
    ground_truth,
    load_scenario,
    load_scenario_file,
    pitfall_demo,
    select_best_cui,
    variability,
)

__version__ = "0.1.0"
