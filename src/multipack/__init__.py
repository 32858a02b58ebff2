"""Average-radius multiple packing toolkit.

Geometry of point lists (average and Chebyshev radii), closed-form density
bound curves, the large-deviation machinery behind the random-coding
argument, and a concrete construct-expurgate-tile pipeline with a packing
verifier.
"""

from .bounds import (
    BoundQuery,
    ExponentQuery,
    ball_log_volume_rate,
    ball_log_volume_rate_finite,
    exponent_E,
    lambda_n_threshold,
    lambda_star,
    lb_blachman_few,
    lb_ppp,
    ld_capacity,
    ub_elias_bassalygo,
)
from .construction import (
    Constellation,
    DensityReport,
    FiniteCode,
    PackingVerdict,
    achieved_rate,
    density_report,
    enumerate_window,
    expurgate,
    find_bad_lists,
    min_avg_subset,
    sample_code,
    tile,
    verify_packing,
)
from .deviation import (
    LaplaceCheck,
    RateFunctionResult,
    TailEstimate,
    laplace_check,
    mc_tail,
    mgf_log,
    rate_function,
)
from .errors import BudgetError, ConvergenceWarning, ParseError
from .geometry import (
    AVG_FORMULAS,
    ChebResult,
    PointList,
    SimplexWeights,
    SpectralPair,
    avg_sq_radius,
    avg_sq_radius_spherical,
    chebyshev_radius,
    pairwise_sq_dists,
    quadratic_form_g,
    rad_p,
    spectral_pair,
)

__version__ = "0.1.0"

__all__ = [
    "AVG_FORMULAS",
    "BoundQuery",
    "BudgetError",
    "ChebResult",
    "Constellation",
    "ConvergenceWarning",
    "DensityReport",
    "ExponentQuery",
    "FiniteCode",
    "LaplaceCheck",
    "PackingVerdict",
    "ParseError",
    "PointList",
    "RateFunctionResult",
    "SimplexWeights",
    "SpectralPair",
    "TailEstimate",
    "achieved_rate",
    "avg_sq_radius",
    "avg_sq_radius_spherical",
    "ball_log_volume_rate",
    "ball_log_volume_rate_finite",
    "chebyshev_radius",
    "density_report",
    "enumerate_window",
    "expurgate",
    "exponent_E",
    "find_bad_lists",
    "lambda_n_threshold",
    "lambda_star",
    "laplace_check",
    "lb_blachman_few",
    "lb_ppp",
    "ld_capacity",
    "mc_tail",
    "mgf_log",
    "min_avg_subset",
    "pairwise_sq_dists",
    "quadratic_form_g",
    "rad_p",
    "rate_function",
    "sample_code",
    "spectral_pair",
    "tile",
    "ub_elias_bassalygo",
    "verify_packing",
    "__version__",
]
