"""Complex special functions and quadrature engines.

Everything here is pure and reentrant: no shared mutable state beyond
read-mostly caches that are rebuilt atomically, so concurrent callers are
safe.
"""

from .besselk import (
    BesselOrder,
    OrderKind,
    bessel_k_values,
    bessel_k_with_error,
)
from .gamma import gamma, log_gamma
from .quadrature import (
    QuadratureResult,
    integrate_semiinfinite,
    integrate_semiinfinite_batch,
)
from .xi import (
    RS_MIN_T,
    hardy_z,
    hardy_z_paths,
    xi,
    xi_critical,
)
from .zeta import EM_ORDER_CAP, EM_TERMS_CAP, em_truncation, zeta

__all__ = [
    "BesselOrder",
    "OrderKind",
    "QuadratureResult",
    "EM_ORDER_CAP",
    "EM_TERMS_CAP",
    "RS_MIN_T",
    "bessel_k_values",
    "bessel_k_with_error",
    "em_truncation",
    "gamma",
    "hardy_z",
    "hardy_z_paths",
    "integrate_semiinfinite",
    "integrate_semiinfinite_batch",
    "log_gamma",
    "xi",
    "xi_critical",
    "zeta",
]
