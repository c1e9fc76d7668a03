import cmath
import math

import pytest

from xispec.carlson import (
    Axis,
    Conclusion,
    audit_difference,
    audit_eq9,
    carlson_verdict,
    check_integer_vanishing,
    estimate_type,
)
from xispec.cli import CARLSON_FIT_SMAX, CARLSON_INTEGER_COUNT
from xispec.config import M_CEILING
from xispec.errors import GammaOverflowError
from xispec.specfun import xi


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
def test_type_recovery_on_pure_exponentials(c):
    component = estimate_type(lambda z: cmath.exp(c * z), Axis.REAL, 20.0)
    assert abs(component.slope - c) < 1e-6
    assert not component.all_near_zero


def test_sine_type_on_imaginary_axis():
    component = estimate_type(lambda z: cmath.sin(math.pi * z), Axis.IMAGINARY, 20.0)
    assert abs(component.slope - math.pi) < 1e-3


def test_constant_has_type_zero():
    component = estimate_type(lambda z: 1.0, Axis.REAL, 20.0)
    assert component.slope == 0.0


def test_zero_function_flagged():
    component = estimate_type(lambda z: 0.0, Axis.REAL, 20.0)
    assert component.all_near_zero
    assert component.slope == 0.0


def test_integer_vanishing():
    check = check_integer_vanishing(lambda z: cmath.sin(math.pi * z), 50, 1e-9)
    assert check.vanishes
    check = check_integer_vanishing(lambda z: z - 1.0, 50, 1e-9)
    assert not check.vanishes
    assert check.max_abs == 49.0
    assert check.at_point == 50.0
    check = check_integer_vanishing(lambda z: 0.0, 50, 1e-9)
    assert check.vanishes and check.max_abs == 0.0


@pytest.mark.parametrize("margin", [1e-9, 1e-6, 1e-3, 0.05, 0.5])
def test_sharpness_guard_rejects_sine(margin):
    verdict = carlson_verdict(
        lambda z: cmath.sin(math.pi * z), 50, 20.0, margin=margin
    )
    assert verdict.conclusion is Conclusion.CONDITIONS_NOT_MET
    assert not verdict.beta_below_pi


def test_zero_function_verdicts():
    assert (
        carlson_verdict(lambda z: 0.0, 50, 20.0).conclusion
        is Conclusion.IDENTICALLY_ZERO_IMPLIED
    )
    assert (
        carlson_verdict(lambda z: z - z, 50, 20.0).conclusion
        is Conclusion.IDENTICALLY_ZERO_IMPLIED
    )


def test_no_integer_samples_is_inconclusive():
    verdict = carlson_verdict(lambda z: 0.0, 0, 20.0)
    assert verdict.conclusion is Conclusion.INCONCLUSIVE
    assert verdict.vanishing is None


def test_margin_must_be_positive():
    with pytest.raises(ValueError):
        carlson_verdict(lambda z: 0.0, 10, 20.0, margin=0.0)


def test_exponential_model_fit_synthetic():
    fit = audit_eq9(10.0, 51, target=lambda z: 0.5 * cmath.exp(0.3 * (z + 1.0)))
    assert math.exp(fit.B) == pytest.approx(0.5, rel=1e-12)
    assert fit.D == pytest.approx(0.3, abs=1e-12)
    assert fit.max_residual < 1e-12


def test_exponential_model_fit_constant():
    fit = audit_eq9(10.0, 51, target=lambda z: 0.75)
    assert fit.D == pytest.approx(0.0, abs=1e-12)


def test_exponential_model_fit_true_xi_is_deterministic():
    first = audit_eq9(10.0, 51)
    second = audit_eq9(10.0, 51)
    assert first == second            # bit-identical dataclasses
    assert first.max_residual > 1e-3  # the misfit is structural, not noise


def test_difference_audit_synthetic_target_vanishes():
    audit = audit_difference(10, 10.0, target=lambda z: 0.5 * cmath.exp(0.3 * (z + 1.0)))
    assert max(audit.residuals) < 1e-10
    assert audit.verdict.conclusion is Conclusion.IDENTICALLY_ZERO_IMPLIED


def test_difference_audit_on_true_xi():
    audit = audit_difference(10, 10.0)
    assert len(audit.residuals) == 10
    assert audit.verdict.conclusion is Conclusion.CONDITIONS_NOT_MET
    assert audit.verdict.beta_below_pi          # the model term dominates
    assert not audit.verdict.vanishing          # xi is not the exponential
    # constants rebuilt per the constraint: a = B + D, b = D - pi
    assert audit.a == audit.eq9_fit.B + audit.eq9_fit.D
    assert audit.b == audit.eq9_fit.D - math.pi
    repeat = audit_difference(10, 10.0)
    assert repeat.residuals == audit.residuals  # deterministic replay


def test_difference_audit_empty_grid():
    audit = audit_difference(0, 10.0)
    assert audit.residuals == ()
    assert audit.verdict.conclusion is Conclusion.INCONCLUSIVE


def test_difference_audit_scaled_grid():
    audit = audit_difference(5, 10.0, scale=2.0)
    assert len(audit.residuals) == 5
    assert audit.verdict.vanish_check.at_point in {2.0 * k for k in range(1, 6)}


def test_difference_audit_evaluates_each_integer_once():
    calls = []

    def target(z):
        calls.append(z)
        return xi(z)

    audit_difference(10, 10.0, scale=2.0, target=target)
    # 12 .. 20 lie beyond the eq9 fit interval and off the growth grids.
    assert [calls.count(complex(2.0 * k, 0.0)) for k in range(6, 11)] == [1] * 5


def test_m_ceiling_is_the_last_scale_xi_survives():
    audit = audit_difference(CARLSON_INTEGER_COUNT, CARLSON_FIT_SMAX, scale=M_CEILING)
    assert len(audit.residuals) == CARLSON_INTEGER_COUNT
    with pytest.raises(GammaOverflowError):
        audit_difference(CARLSON_INTEGER_COUNT, CARLSON_FIT_SMAX, scale=M_CEILING + 1)
