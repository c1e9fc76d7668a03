"""xispec: critical-line zeros of the completed xi function and numerical
audits of the inverse-square coupling-spectrum identification.

Modules: the special-function layer (`xispec.specfun`), the zero finder
(`xispec.zeros`), the coupling map and norm-integral audits
(`xispec.coupling`), the paired Hadamard product (`xispec.hadamard`), the
growth auditor (`xispec.carlson`), and the report types
(`xispec.report`).  The command-line front end lives in `xispec.cli`.

The library surface is ``__all__`` here and in `xispec.specfun`: names
that a command, the benchmark or an acceptance check calls.  Each function
has one mode; there is no precision or oracle switch, since the tests
check against mpmath.  tests/test_surface.py pins both lists.
"""

from .carlson import PrefactorFit
from .coupling import (
    CouplingRecord,
    coupling_spectrum,
    lambda_from_s,
    nu_from_lambda,
    s_from_lambda,
)
from .hadamard import ProductSpec, paired_product
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
from .zeros import CriticalZero, ZeroCache, ZeroTable, refine_zero, scan_zeros

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
    "ZeroTable",
    "__version__",
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
