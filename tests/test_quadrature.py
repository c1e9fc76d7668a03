import math
import warnings

import numpy as np
import pytest

from xispec.errors import DivergenceError, NonConvergenceError
from xispec.specfun import integrate_semiinfinite


def test_exponential():
    result = integrate_semiinfinite(lambda x: np.exp(-x), 1e-12)
    assert result.value == pytest.approx(1.0, rel=1e-12)
    assert result.err_estimate <= 1e-12 * abs(result.value) + 1e-15
    assert result.evaluations >= 1


def test_gaussian_moment():
    result = integrate_semiinfinite(lambda x: x * np.exp(-x * x), 1e-12)
    assert result.value == pytest.approx(0.5, rel=1e-12)


def test_half_order_norm_closed_form():
    # r K_{1/2}(r)^2 = (pi/2) e^{-2r}
    f = lambda x: np.where(x < 400.0, (math.pi / 2.0) * np.exp(-2.0 * x), 0.0)
    result = integrate_semiinfinite(f, 1e-12)
    assert result.value == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_integrable_endpoint_singularity():
    # int_0^inf x^{-1/2} e^{-x} dx = Gamma(1/2)
    f = lambda x: np.where(x < 700.0, np.exp(-x) / np.sqrt(x), 0.0)
    result = integrate_semiinfinite(f, 1e-11)
    assert result.value == pytest.approx(math.sqrt(math.pi), rel=1e-11)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: np.where(x < 1e150, 1.0 / (x * x), 0.0),      # blows up at 0
        lambda x: np.where(x > 1e-200, np.exp(-x) / x, 1e200),  # log-divergent
        lambda x: np.ones_like(x),                               # not integrable at inf
    ],
)
def test_divergence_signals(f):
    with pytest.raises(DivergenceError):
        integrate_semiinfinite(f, 1e-9)


def test_self_consistency_tightening_tolerance():
    # Tightening the tolerance (more levels) must stay within 2x the
    # looser run's error estimate.
    f = lambda x: x * np.exp(-x) / (1.0 + x)
    loose = integrate_semiinfinite(f, 1e-6)
    tight = integrate_semiinfinite(f, 1e-13)
    assert abs(loose.value - tight.value) <= 2.0 * loose.err_estimate
    assert tight.evaluations > loose.evaluations


def test_bad_tolerance_rejected():
    with pytest.raises(ValueError):
        integrate_semiinfinite(lambda x: np.exp(-x), 0.0)


def test_result_invariants():
    from xispec.specfun import QuadratureResult

    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, err_estimate=-1.0, evaluations=3)
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, err_estimate=0.0, evaluations=0)


def test_values_past_the_stop_are_not_evaluated_into_the_result():
    # NaN only below x = 1e-200, where the march toward zero never gets:
    # it stops once x e^{-x} has died off, so neither an error nor a
    # warning may come out of the NaN points a block may still include.
    f = lambda x: np.where(x < 1e-200, np.nan, x * np.exp(-x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = integrate_semiinfinite(f, 1e-12)
    assert result.value == pytest.approx(1.0, rel=1e-12)


def test_nan_the_march_reaches_is_nonconvergence():
    f = lambda x: np.where(x < 2.0, np.nan, np.exp(-x))
    with pytest.raises(NonConvergenceError):
        integrate_semiinfinite(f, 1e-9)


def test_integrand_must_return_one_value_per_abscissa():
    with pytest.raises(ValueError):
        integrate_semiinfinite(lambda x: np.exp(-x[:1]), 1e-9)


def test_integrand_sees_arrays_in_blocks():
    # One call per block of nodes, both sides together: far fewer calls
    # than nodes.
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(-x)

    result = integrate_semiinfinite(f, 1e-12)
    assert sum(calls) >= result.evaluations
    assert len(calls) < result.evaluations / 10
