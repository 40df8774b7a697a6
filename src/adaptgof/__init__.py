"""Adaptive-grouping goodness-of-fit testing for binary regression models.

The package fits a logistic "model under assessment", searches training data
for a partition of the covariate space that exposes its weaknesses, and
evaluates a grouped chi-squared statistic on held-out rows; splitting is
repeated and the median p-value decides. A quantile-binned baseline test and
a simulation harness for size/power studies are included.
"""

from .data import Dataset
from .formula import Formula, FormulaError, parse_formula, design_matrix
from .glm import (
    DesignMatrix,
    FittedGlm,
    RankDeficiencyError,
    SingleClassError,
    fit_logistic,
    predict_prob,
)
from .gof import (
    HlResult,
    SplitOutcome,
    TestConfig,
    TestReport,
    bag_statistic,
    corrected_statistic,
    covariate_counts,
    default_train_size,
    hl_test,
    multi_split_test,
    report_to_dict,
    single_split_test,
)
from .numkit import (
    RandomSource,
    chi2_sf,
    empirical_quantiles,
    gaussian_quantile,
)
from .partition import (
    AxisRule,
    CoverageError,
    Group,
    InfeasiblePartitionError,
    MissingColumnError,
    Partition,
    PartitionConfig,
    assign_groups,
    candidate_discrete_splits,
    candidate_thresholds,
    criterion_b,
    greedy_partition,
    probability_partition,
)
from .sim import (
    ExperimentResult,
    MethodSpec,
    SettingSpec,
    default_variants,
    generate,
    make_setting,
    run_experiment,
    score_injection,
    surface_table,
    true_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Formula",
    "FormulaError",
    "parse_formula",
    "design_matrix",
    "DesignMatrix",
    "FittedGlm",
    "RankDeficiencyError",
    "SingleClassError",
    "fit_logistic",
    "predict_prob",
    "HlResult",
    "SplitOutcome",
    "TestConfig",
    "TestReport",
    "bag_statistic",
    "corrected_statistic",
    "covariate_counts",
    "default_train_size",
    "hl_test",
    "multi_split_test",
    "report_to_dict",
    "single_split_test",
    "RandomSource",
    "chi2_sf",
    "empirical_quantiles",
    "gaussian_quantile",
    "AxisRule",
    "CoverageError",
    "Group",
    "InfeasiblePartitionError",
    "MissingColumnError",
    "Partition",
    "PartitionConfig",
    "assign_groups",
    "candidate_discrete_splits",
    "candidate_thresholds",
    "criterion_b",
    "greedy_partition",
    "probability_partition",
    "ExperimentResult",
    "MethodSpec",
    "SettingSpec",
    "default_variants",
    "generate",
    "make_setting",
    "run_experiment",
    "score_injection",
    "surface_table",
    "true_probabilities",
    "__version__",
]
