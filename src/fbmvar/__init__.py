"""Weighted power variations of fractional Brownian motion.

Exact fBm sampling by circulant embedding in blocks of paths, the renormalized
weighted and unweighted kappa-variation statistics with their pathwise limit
functionals, Hermite-series variance constants for the CLT regimes, and a
seeded Monte Carlo harness measuring mean-square convergence along ladders
of grid sizes.
"""

from .errors import (
    ConfigError,
    DegenerateFit,
    EmbeddingError,
    FbmvarError,
    OrderError,
    OutputError,
    RegimeError,
    UnknownWeight,
)
from .harness import (
    ExperimentPlan,
    McRecord,
    McReport,
    PathGroups,
    RateFit,
    fit_rate,
    run_clt_diagnostics,
    run_l2_experiment,
)
from .kernels import (
    GridIndexPair,
    HurstIndex,
    as_hurst,
    covariance,
    covariance_matrix,
    delta_delta_inner,
    eps_delta_inner,
    gaussian_moment,
    increment_autocov,
    increment_autocov_seq,
)
from .sampler import FbmPath, SamplerConfig, sample_fbm
from .statistics import (
    FORMS,
    FormSpec,
    RegimeLabel,
    RegimeName,
    StatForm,
    StatisticSpec,
    breuer_major_variance,
    classify_regime,
    evaluate_statistic,
    hermite_coefficients,
    limit_functional,
    require_form_admissible,
)
from .weights import WeightFunction, builtin

__version__ = "0.1.0"

