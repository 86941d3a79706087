"""Weighted power variations of fractional Brownian motion.

Exact fBm samplers (circulant embedding / Cholesky), the renormalized
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
    KappaError,
    OrderError,
    RegimeError,
    SizeError,
    UnknownWeight,
)
from .harness import (
    ExperimentPlan,
    McRecord,
    McReport,
    RateFit,
    fit_rate,
    run_clt_diagnostics,
    run_l2_experiment,
)
from .kernels import (
    BreuerMajorSpec,
    GridIndexPair,
    HurstIndex,
    as_hurst,
    breuer_major_variance,
    covariance,
    covariance_matrix,
    delta_delta_inner,
    eps_delta_inner,
    gaussian_moment,
    gram_matrix,
    hermite_coefficients,
    increment_autocov,
    increment_autocov_seq,
)
from .sampler import FbmPath, SamplerConfig, increments, sample_fbm
from .statistics import (
    FORMS,
    FormSpec,
    RegimeLabel,
    RegimeName,
    StatForm,
    StatisticSpec,
    classify_regime,
    evaluate_statistic,
    limit_functional,
    require_form_admissible,
)
from .weights import WeightFunction, builtin, check_derivatives, linear_combination

__version__ = "0.1.0"

