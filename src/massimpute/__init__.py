"""Combine a non-probability sample with a probability survey sample by
mass imputation, with linearization and bootstrap variance estimation."""

__version__ = "0.1.0"

from .data_model import (  # noqa: F401
    ColumnSchema,
    DesignKind,
    DesignMatrix,
    DesignSpec,
    SampleKind,
    SurveySample,
    build_design_matrix,
    estimate_population_size,
    load_sample,
    ppswr_design,
    srs_design,
    write_sample,
)
from .mean_model import (  # noqa: F401
    FittedModel,
    ModelFamily,
    fit_model,
    mean_gradient,
    mean_value,
    predict_all,
    quasi_score,
)
from .estimators import (  # noqa: F401
    EstimateReport,
    EstimatorKind,
    PropensityModel,
    fit_propensity,
    ht_mean,
    ipw_estimate,
    mass_imputation_estimate,
    naive_mean,
)
from .variance import (  # noqa: F401
    LinearizationComponents,
    VarianceStrategyA,
    compute_c_hat,
    linearized_variance,
    variance_component_a,
    variance_component_b,
)
from .bootstrap import (  # noqa: F401
    ReplicateSet,
    bootstrap_refit,
    bootstrap_variance,
    build_replicates,
    read_augmented_dataset,
    replicate_estimates,
    replicate_weights,
    write_augmented_dataset,
)
from .simulation import (  # noqa: F401
    Population,
    PopulationSpec,
    SimConfig,
    SimReport,
    draw_srs,
    draw_stratified_b,
    generate_population,
    run_monte_carlo,
)
