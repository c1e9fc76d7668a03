import cmath
import math

import numpy as np
import pytest

from xispec.carlson import (
    Axis,
    Conclusion,
    audit_difference,
    audit_eq9,
    carlson_verdict,
    estimate_type,
    linear_fit,
)
from xispec.cli import CARLSON_FIT_SAMPLES, CARLSON_FIT_SMAX, CARLSON_INTEGER_COUNT
from xispec.config import M_CEILING
from xispec.errors import GammaOverflowError, SingularFitError
from xispec.specfun import xi


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
def test_type_recovery_on_pure_exponentials(c):
    slope = estimate_type(lambda z: cmath.exp(c * z), Axis.REAL, 20.0)
    assert abs(slope - c) < 1e-6


def test_sine_type_on_imaginary_axis():
    slope = estimate_type(lambda z: cmath.sin(math.pi * z), Axis.IMAGINARY, 20.0)
    assert abs(slope - math.pi) < 1e-3


def test_constant_has_type_zero():
    assert estimate_type(lambda z: 1.0, Axis.REAL, 20.0) == 0.0


def test_zero_function_flagged():
    # Every sample is below the underflow guard: no line to fit, type 0.
    assert estimate_type(lambda z: 0.0, Axis.REAL, 20.0) == 0.0
    verdict = carlson_verdict(lambda z: 0.0, 50, 20.0)
    assert verdict.alpha_slope == verdict.beta_slope == 0.0
    assert verdict.magnitudes == (0.0,) * 50


def _largest(verdict, scale=1.0):
    """(max |f|, the grid point where it occurs) from a verdict's magnitudes."""
    worst = max(verdict.magnitudes)
    return worst, scale * (verdict.magnitudes.index(worst) + 1)


def test_integer_vanishing():
    assert carlson_verdict(lambda z: cmath.sin(math.pi * z), 50, 20.0).vanishing
    verdict = carlson_verdict(lambda z: z - 1.0, 50, 20.0)
    assert not verdict.vanishing
    assert _largest(verdict) == (49.0, 50.0)
    verdict = carlson_verdict(lambda z: 0.0, 50, 20.0)
    assert verdict.vanishing and max(verdict.magnitudes) == 0.0


def test_a_nan_sample_does_not_vanish():
    verdict = carlson_verdict(lambda z: math.nan if z == 3 else 0.0, 5, 20.0)
    assert not verdict.vanishing
    assert verdict.conclusion is Conclusion.CONDITIONS_NOT_MET


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
    # An empty grid cannot test the vanishing hypothesis.
    with pytest.raises(ValueError, match="count"):
        carlson_verdict(lambda z: 0.0, 0, 20.0)


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


XI_FIT = audit_eq9(CARLSON_FIT_SMAX, CARLSON_FIT_SAMPLES)


def test_difference_audit_synthetic_target_vanishes():
    def target(z):
        return 0.5 * cmath.exp(0.3 * (z + 1.0))

    audit = audit_difference(10, audit_eq9(10.0, 51, target=target), target=target)
    assert max(audit.verdict.magnitudes) < 1e-10
    assert audit.verdict.conclusion is Conclusion.IDENTICALLY_ZERO_IMPLIED


def test_difference_audit_on_true_xi():
    audit = audit_difference(10, XI_FIT)
    assert len(audit.verdict.magnitudes) == 10
    assert audit.verdict.conclusion is Conclusion.CONDITIONS_NOT_MET
    assert audit.verdict.beta_below_pi          # the model term dominates
    assert not audit.verdict.vanishing          # xi is not the exponential
    # constants rebuilt per the constraint: a = B + D, b = D - pi
    assert audit.a == XI_FIT.B + XI_FIT.D
    assert audit.b == XI_FIT.D - math.pi
    repeat = audit_difference(10, XI_FIT)
    assert repeat.verdict == audit.verdict  # deterministic replay


def test_difference_audit_empty_grid():
    with pytest.raises(ValueError, match="count"):
        audit_difference(0, XI_FIT)


def test_difference_audit_scaled_grid():
    audit = audit_difference(5, XI_FIT, scale=2.0)
    assert len(audit.verdict.magnitudes) == 5
    assert _largest(audit.verdict, 2.0)[1] in {2.0 * k for k in range(1, 6)}


def test_difference_audit_evaluates_each_integer_once():
    calls = []

    def target(z):
        calls.append(z)
        return xi(z)

    audit_difference(10, audit_eq9(10.0, 51, target=target), scale=2.0, target=target)
    # 12 .. 20 lie beyond the eq9 fit interval and off the growth grids.
    assert [calls.count(complex(2.0 * k, 0.0)) for k in range(6, 11)] == [1] * 5


def test_m_ceiling_is_the_last_scale_xi_survives():
    audit = audit_difference(CARLSON_INTEGER_COUNT, XI_FIT, scale=M_CEILING)
    assert len(audit.verdict.magnitudes) == CARLSON_INTEGER_COUNT
    with pytest.raises(GammaOverflowError):
        audit_difference(CARLSON_INTEGER_COUNT, XI_FIT, scale=M_CEILING + 1)


def test_linear_fit():
    xs = np.linspace(0.0, 7.0, 12)
    slope, intercept, residual = linear_fit(xs, math.pi * xs - 0.25)
    assert slope == pytest.approx(math.pi, abs=1e-12)
    assert intercept == pytest.approx(-0.25, abs=1e-12)
    assert residual < 1e-12
    with pytest.raises(SingularFitError):
        linear_fit(np.array([0.0]), np.array([1.0]))
    with pytest.raises(SingularFitError):
        linear_fit(np.full(4, 3.0), np.arange(4.0))
