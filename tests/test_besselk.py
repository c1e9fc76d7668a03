import math
from collections import defaultdict

import numpy as np
import pytest

from conftest import mp_besselk, rel_err
from xispec.errors import AccuracyError, DomainError, NonConvergenceError
from xispec.specfun import (
    BesselOrder,
    OrderKind,
    bessel_k,
    bessel_k_values,
    bessel_k_with_error,
)
from xispec.specfun import besselk

HALF = BesselOrder.real_order(0.5)


def test_half_order_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    assert bessel_k(HALF, 1.0) == pytest.approx(
        math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12
    )


def test_order_sign_symmetry():
    # The representation depends on nu only through cosh(nu t).
    assert BesselOrder.from_value(-0.5) == BesselOrder.from_value(0.5)
    assert bessel_k(BesselOrder.real_order(-2.5), 3.0) == bessel_k(
        BesselOrder.real_order(2.5), 3.0
    )


REAL_ORACLE_POINTS = [
        (0.0, 0.01),
        (0.0, 1.0),
        (0.3, 0.5),
        (0.5, 50.0),
        (0.9, 0.01),
        (2.5, 3.0),
        (7.0, 0.1),
        (30.0, 0.01),
        (30.0, 10.0),
        (30.0, 50.0),
]
IMAG_ORACLE_POINTS = [
        (0.5, 0.5),
        (1.0, 1.0),
        (2.0, 5.0),
        (2.0, 13.0),
        (5.0, 0.01),
        (8.0, 3.0),
        (8.0, 20.0),
        (14.134725, 1.0),
        (14.134725, 11.0),
        (14.134725, 40.0),
        (30.0, 0.5),
        (49.77, 5.0),
]


@pytest.mark.parametrize("nu,x", REAL_ORACLE_POINTS)
def test_real_order_against_oracle(nu, x):
    assert rel_err(bessel_k(BesselOrder.real_order(nu), x), mp_besselk(nu, x)) < 1e-10


@pytest.mark.parametrize("mu,x", IMAG_ORACLE_POINTS)
def test_imaginary_order_against_oracle(mu, x):
    assert (
        rel_err(bessel_k(BesselOrder.imaginary_order(mu), x), mp_besselk(1j * mu, x))
        < 1e-9
    )


def test_imaginary_value_frozen():
    # K_{i}(1), frozen from the arbitrary-precision oracle
    assert bessel_k(BesselOrder.imaginary_order(1.0), 1.0) == pytest.approx(
        0.28942803702599212763, rel=1e-12
    )


def test_honest_error_estimate_in_hard_corner():
    # mu large with moderate x: double precision cannot reach 1e-10 and the
    # estimate must say so.
    value, err = bessel_k_with_error(BesselOrder.imaginary_order(30.0), 25.0)
    assert err > 1e-8
    actual = rel_err(value, mp_besselk(30j, 25.0))
    assert actual < 10.0 * err
    with pytest.raises(AccuracyError):
        bessel_k(BesselOrder.imaginary_order(30.0), 25.0, tol=1e-10)


def test_tolerance_satisfied_when_feasible():
    assert bessel_k(HALF, 2.0, tol=1e-10) > 0.0


def test_monotone_decreasing_in_x():
    for nu in (0.0, 0.5, 2.0):
        order = BesselOrder.real_order(nu)
        xs = [0.1 * 1.5**k for k in range(12) if 0.1 * 1.5**k <= 10.0]
        values = [bessel_k(order, x) for x in xs]
        assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("x", [0.0, -1.0, float("nan")])
def test_domain_errors(x):
    with pytest.raises(DomainError):
        bessel_k(HALF, x)


def test_underflow_region_returns_zero():
    assert bessel_k(HALF, 800.0) == 0.0


def test_order_construction():
    assert BesselOrder.from_value(1j * 3.0) == BesselOrder.imaginary_order(3.0)
    with pytest.raises(DomainError):
        BesselOrder.from_value(1.0 + 1.0j)
    with pytest.raises(DomainError):
        BesselOrder(OrderKind.REAL, float("inf"))


def test_closed_form_pole_flag():
    assert BesselOrder.real_order(1.0).is_closed_form_pole
    assert BesselOrder.real_order(3.0).is_closed_form_pole
    assert not BesselOrder.real_order(0.0).is_closed_form_pole
    assert not BesselOrder.real_order(0.5).is_closed_form_pole
    assert not BesselOrder.imaginary_order(2.0).is_closed_form_pole


def test_imaginary_zero_magnitude_equals_real_zero_order():
    assert bessel_k(BesselOrder.imaginary_order(0.0), 2.0) == bessel_k(
        BesselOrder.real_order(0.0), 2.0
    )


def _by_order(points):
    xs = defaultdict(list)
    for m, x in points:
        xs[m].append(x)
    return sorted(xs.items())


@pytest.mark.parametrize(
    "order,xs",
    [(BesselOrder.real_order(nu), xs) for nu, xs in _by_order(REAL_ORACLE_POINTS)]
    + [
        (BesselOrder.imaginary_order(mu), xs)
        for mu, xs in _by_order(IMAG_ORACLE_POINTS)
    ],
)
def test_array_call_against_oracle(order, xs):
    # One array call per order at the scalar oracle points (on both sides of
    # the x = 12 switch at mu = 2, 8 and 14.13), plus one past the x = 745
    # underflow cut.
    values, rel = bessel_k_values(order, np.array(xs + [800.0]))
    tol = 1e-10 if order.kind is OrderKind.REAL else 1e-9
    for x, value in zip(xs, values):
        assert rel_err(value, mp_besselk(order.as_complex, x)) < tol
    assert (values[-1], rel[-1]) == (0.0, 0.0)


@pytest.mark.parametrize(
    "order",
    [BesselOrder.real_order(0.3), BesselOrder.imaginary_order(0.5),
     BesselOrder.imaginary_order(14.134725), BesselOrder.imaginary_order(49.77)],
)
def test_array_values_do_not_depend_on_the_other_points(order):
    # Each point of an array call is bit for bit its one-point call.
    xs = np.concatenate([np.logspace(-12, 1, 17), np.linspace(11.0, 120.0, 23), [900.0]])
    values, rel = bessel_k_values(order, xs)
    for x, value, err in zip(xs, values, rel):
        assert (value, err) == bessel_k_with_error(order, x)


def test_array_marks_unconverged_points_instead_of_raising(monkeypatch):
    # Too few trapezoid levels: the array call flags the large-x points,
    # the one-point call raises.
    monkeypatch.setattr(besselk, "_TRAP_LEVEL_CAP", 0)
    order = BesselOrder.imaginary_order(8.0)
    values, rel = bessel_k_values(order, np.array([3.0, 20.0]))
    assert math.isfinite(values[0])
    assert math.isnan(values[1]) and rel[1] == math.inf
    with pytest.raises(NonConvergenceError):
        bessel_k_with_error(order, 20.0)


def test_array_marks_overflow_instead_of_raising():
    order = BesselOrder.real_order(30.0)
    values, rel = bessel_k_values(order, np.array([1e-30, 1.0]))
    assert values[0] == math.inf and rel[0] == math.inf
    assert math.isfinite(values[1])
    with pytest.raises(AccuracyError):
        bessel_k_with_error(order, 1e-30)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_array_domain_errors(bad):
    with pytest.raises(DomainError):
        bessel_k_values(HALF, np.array([1.0, bad]))


def _series_by_terms(mu, x):
    """The imaginary-order series summed term by term (reference)."""
    recip = 1.0 / besselk.gamma(complex(1.0, mu))
    coeff, q = 1.0, 0.25 * x * x
    series, peak = recip, abs(recip)
    for k in range(1, besselk._SERIES_TERM_CAP + 1):
        coeff *= q / k
        recip = recip / complex(k, mu)
        term = coeff * recip
        series += term
        peak = max(peak, abs(term))
        if abs(term) <= 1e-18 * (abs(series) + peak):
            break
    theta = mu * math.log(0.5 * x)
    im_part = math.cos(theta) * series.imag + math.sin(theta) * series.real
    rel = 4.0 * besselk._EPS * (peak + abs(series)) / max(abs(im_part), 5e-324)
    return -math.pi * im_part / math.sinh(math.pi * mu), max(rel, 2.0 * besselk._EPS)


def _trapezoid_by_levels(mu, x):
    """The imaginary-order trapezoid, one x and one level at a time (reference)."""
    t_up = math.acosh(1.0 + 50.0 / x) + 0.25

    def level_sums(h, level):
        t = besselk._trap_nodes(h, t_up, level)
        vals = np.exp(-x * np.cosh(t)) * np.cos(mu * t)
        if level == 0:
            vals[0] *= 0.5
        return float(np.sum(vals)), float(np.sum(np.abs(vals)))

    h = besselk._TRAP_BASE_STEP
    s, a = level_sums(h, 0)
    total, abs_total = h * s, h * a
    for _ in range(besselk._TRAP_LEVEL_CAP):
        h *= 0.5
        s, a = level_sums(h, 1)
        new_total = 0.5 * total + h * s
        abs_total = 0.5 * abs_total + h * a
        diff, total = abs(new_total - total), new_total
        noise = 2e-15 * abs_total
        if diff <= max(1e-14 * abs(total), noise):
            rel = (0.5 * diff + noise) / max(abs(total), 5e-324)
            return total, max(rel, 2.0 * besselk._EPS)
    return math.nan, math.inf


@pytest.mark.parametrize("mu", [0.5, 2.0, 14.134725141734695, 21.022039638771555, 30.0, 49.77])
def test_array_matches_the_term_by_term_loops(mu):
    # Same arithmetic as the loops, so the same bits: the quadrature's level
    # test sees K's cancellation noise, and a changed last bit moves it.
    xs = np.concatenate([np.logspace(-8, math.log10(12.0), 40), np.linspace(12.01, 745.0, 40)])
    values, rel = bessel_k_values(BesselOrder.imaginary_order(mu), xs)
    for x, value, err in zip(xs.tolist(), values.tolist(), rel.tolist()):
        loop = _series_by_terms if x <= 12.0 else _trapezoid_by_levels
        assert np.array_equal((value, err), loop(mu, x), equal_nan=True)
