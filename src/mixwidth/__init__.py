"""Order estimates of Kolmogorov n-widths of intersections of mixed-norm balls.

The estimate for the width of an intersection of balls nu_a * B_{p_a,theta_a}
in the (q, sigma) mixed norm (2 <= q, sigma < inf, n <= m*k/2) is the minimum
of eight candidate values: the best single ball, the best interpolated pair
crossing one of the distinguished reciprocal levels, and the best triple
whose reciprocal triangle captures a distinguished point.  The package also
ships the constructive lower-bound witness search, exact and heuristic width
oracles, and randomized verification suites.

`norms`, `oracles`, `sweep` and `verify` load when one of their names is
first read (PEP 562), so a run imports only the modules its mode uses.
"""

from .exponents import Exponent, parse_exponent
from .phi import ConsistencyError, Dimensions, PhiValue, TargetSpace, phi
from .psi import (
    BallSpec,
    Certificate,
    Instance,
    PsiEstimate,
    family_reduce,
    psi,
    psi_many,
    validate_instance,
)
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
    "SUITE_NAMES",
    "SuiteResult",
    "TargetSpace",
    "WidthSample",
    "best_witness_lower_bound",
    "corollary_check",
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
    "psi_many",
    "psi_sweep",
    "run_suites",
    "sample_boundary",
    "sup_norm_over_M",
    "v_extreme_point",
    "v_inclusion_scale",
    "v_width_lower_bound",
    "validate_instance",
]

__version__ = "0.1.0"

# The names of the modules loaded on first use, by module.
_LAZY = {
    name: module
    for module, names in {
        "norms": ("corollary_check", "interpolation_check", "membership", "mixed_norm", "sample_boundary"),
        "oracles": ("WidthSample", "exact_width_euclidean_ball", "exact_width_linf", "numeric_width_estimate",
                    "sup_norm_over_M"),
        "sweep": ("psi_sweep",),
        "verify": ("SUITE_NAMES", "SuiteResult", "run_suites"),
    }.items()
    for name in (module, *names)
}


def __getattr__(name: str):
    """A name of a module loaded on first use, or the module itself, which the import binds here."""
    import importlib

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    if name != _LAZY[name]:
        globals()[name] = getattr(module, name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted((set(globals()) | set(_LAZY)) - {"_LAZY", "__getattr__", "__dir__"})
