"""xispec: critical-line zeros of the completed xi function and numerical
audits of the inverse-square coupling-spectrum identification.

Library surface: the special-function layer (`xispec.specfun`), the zero
finder (`xispec.zeros`), the coupling map and norm-integral audits
(`xispec.coupling`), the paired Hadamard product (`xispec.hadamard`), the
growth auditor (`xispec.carlson`), and the report types
(`xispec.report`).  The command-line front end lives in `xispec.cli`.
"""

from .coupling import (
    CouplingRecord,
    coupling_spectrum,
    lambda_from_s,
    nu_from_lambda,
    s_from_lambda,
)
from .hadamard import PrefactorFit, ProductSpec, paired_product
from .report import AuditReport, Verdict
from .specfun import (
    BesselOrder,
    OrderKind,
    QuadratureResult,
    gamma,
    hardy_z,
    integrate_semiinfinite,
    xi,
    xi_critical,
    zeta,
)
from .zeros import CriticalZero, ZeroCache, count_check, refine_zero, scan_zeros

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BesselOrder",
    "CouplingRecord",
    "CriticalZero",
    "OrderKind",
    "PrefactorFit",
    "ProductSpec",
    "QuadratureResult",
    "Verdict",
    "ZeroCache",
    "__version__",
    "count_check",
    "coupling_spectrum",
    "gamma",
    "hardy_z",
    "integrate_semiinfinite",
    "lambda_from_s",
    "nu_from_lambda",
    "paired_product",
    "refine_zero",
    "s_from_lambda",
    "scan_zeros",
    "xi",
    "xi_critical",
    "zeta",
]
