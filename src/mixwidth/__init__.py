"""Order estimates of Kolmogorov n-widths of intersections of mixed-norm balls.

The estimate for the width of an intersection of balls nu_a * B_{p_a,theta_a}
in the (q, sigma) mixed norm (2 <= q, sigma < inf, n <= m*k/2) is the minimum
of eight candidate values: the best single ball, the best interpolated pair
crossing one of the distinguished reciprocal levels, and the best triple
whose reciprocal triangle captures a distinguished point.  The package also
ships the constructive lower-bound witness search, exact and heuristic width
oracles, and randomized verification suites.
"""

from .exponents import (
    Exponent,
    ReciprocalPoint,
    Weight,
    barycentric,
    convex_combine,
    critical_deviation,
    parse_exponent,
    solve_critical_crossing,
    solve_crossing,
)
from .norms import (
    corollary_check,
    interpolation_check,
    membership,
    mixed_norm,
    sample_boundary,
)
from .oracles import (
    WidthSample,
    exact_width_euclidean_ball,
    exact_width_linf,
    numeric_width_estimate,
    sup_norm_over_M,
)
from .phi import ConsistencyError, Dimensions, PhiValue, TargetSpace, phi
from .psi import (
    BallSpec,
    Certificate,
    Instance,
    PsiEstimate,
    family_reduce,
    psi,
    psi_component,
    psi_many,
    validate_instance,
)
from .sweep import psi_sweep
from .verify import SUITE_NAMES, SuiteResult, run_suites
from .witness import (
    GroupElement,
    best_witness_lower_bound,
    group_apply,
    v_extreme_point,
    v_inclusion_scale,
    v_width_lower_bound,
)

__all__ = [
    "BallSpec",
    "Certificate",
    "ConsistencyError",
    "Dimensions",
    "Exponent",
    "GroupElement",
    "Instance",
    "PhiValue",
    "PsiEstimate",
    "ReciprocalPoint",
    "SUITE_NAMES",
    "SuiteResult",
    "TargetSpace",
    "Weight",
    "WidthSample",
    "barycentric",
    "best_witness_lower_bound",
    "convex_combine",
    "corollary_check",
    "critical_deviation",
    "exact_width_euclidean_ball",
    "exact_width_linf",
    "family_reduce",
    "group_apply",
    "interpolation_check",
    "membership",
    "mixed_norm",
    "numeric_width_estimate",
    "parse_exponent",
    "phi",
    "psi",
    "psi_component",
    "psi_many",
    "psi_sweep",
    "run_suites",
    "sample_boundary",
    "solve_critical_crossing",
    "solve_crossing",
    "sup_norm_over_M",
    "v_extreme_point",
    "v_inclusion_scale",
    "v_width_lower_bound",
    "validate_instance",
]

__version__ = "0.1.0"
