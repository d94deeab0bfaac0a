"""Estimation of component curves from aggregated functional data by
wavelet-domain Bayesian shrinkage and least squares."""

__version__ = "0.1.0"

from .wavelet import (
    Pyramid,
    UnsupportedFilterError,
    WaveletFilter,
    make_filter,
    transform_columns,
)
from .shrinkage import (
    Abe,
    Bams,
    Beta,
    LevelPolicy,
    Logistic,
    Lpm,
    RULES,
    RuleSpec,
    abe_rule,
    bams_rule,
    beta_rule,
    estimate_sigma,
    logistic_rule,
    lpm_rule,
    resolve_rule,
    shrink_pyramid,
)
from .testbed import (
    COMPONENT_NAMES,
    Dataset,
    DatasetSpec,
    draw_weights,
    eval_component,
    generate_dataset,
    sample_grid,
    sigma_for_snr,
)
from .decomposition import (
    EstimationConfig,
    PipelineError,
    Prepared,
    estimate_components,
    prepare,
    solve_gamma,
)
from .simharness import (
    ReplicateResult,
    StudyConfig,
    compute_mse,
    emit_reports,
    run_study,
)

__all__ = [
    "__version__",
    "Pyramid", "UnsupportedFilterError", "WaveletFilter",
    "make_filter", "transform_columns",
    "Abe", "Bams", "Beta", "LevelPolicy", "Logistic", "Lpm",
    "RULES", "RuleSpec",
    "abe_rule", "bams_rule", "beta_rule", "estimate_sigma",
    "logistic_rule", "lpm_rule", "resolve_rule", "shrink_pyramid",
    "COMPONENT_NAMES", "Dataset", "DatasetSpec", "draw_weights",
    "eval_component", "generate_dataset", "sample_grid", "sigma_for_snr",
    "EstimationConfig", "PipelineError", "Prepared",
    "estimate_components", "prepare", "solve_gamma",
    "ReplicateResult", "StudyConfig", "compute_mse",
    "emit_reports", "run_study",
]
