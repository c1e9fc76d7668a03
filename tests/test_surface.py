"""The public surface: every exported name, so adding or removing an entry
point is an edit here too."""

import xispec
import xispec.specfun


def test_package_surface():
    assert sorted(xispec.__all__) == [
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


def test_specfun_surface():
    assert sorted(xispec.specfun.__all__) == [
        "BesselOrder",
        "EM_ORDER_CAP",
        "EM_TERMS_CAP",
        "OrderKind",
        "QuadratureResult",
        "RS_MIN_T",
        "XI_SIGN_FROM_Z",
        "bessel_k_values",
        "bessel_k_with_error",
        "em_truncation",
        "gamma",
        "hardy_z",
        "hardy_z_method",
        "hardy_z_with_bound",
        "integrate_semiinfinite",
        "integrate_semiinfinite_batch",
        "log_gamma",
        "riemann_siegel_theta",
        "xi",
        "xi_critical",
        "zeta",
    ]
