import math
from collections import defaultdict

import mpmath as mp
import numpy as np
import pytest

from conftest import mp_besselk, rel_err
from xispec.errors import AccuracyError, DomainError, NonConvergenceError
from xispec.specfun import (
    BesselOrder,
    OrderKind,
    bessel_k_values,
    bessel_k_with_error,
)
from xispec.specfun import besselk

HALF = BesselOrder.real_order(0.5)


def k_value(order, x):
    return bessel_k_with_error(order, x)[0]


def _as_complex(order):
    """The order nu as a complex number, for mpmath."""
    if order.kind is OrderKind.REAL:
        return complex(order.magnitude, 0.0)
    return complex(0.0, order.magnitude)


def test_half_order_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    assert k_value(HALF, 1.0) == pytest.approx(
        math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12
    )


def test_order_sign_symmetry():
    # The representation depends on nu only through cosh(nu t).
    assert BesselOrder.real_order(-0.5) == BesselOrder.real_order(0.5)
    assert k_value(BesselOrder.real_order(-2.5), 3.0) == k_value(
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
    assert rel_err(k_value(BesselOrder.real_order(nu), x), mp_besselk(nu, x)) < 1e-10


@pytest.mark.parametrize("mu,x", IMAG_ORACLE_POINTS)
def test_imaginary_order_against_oracle(mu, x):
    assert (
        rel_err(k_value(BesselOrder.imaginary_order(mu), x), mp_besselk(1j * mu, x))
        < 1e-9
    )


def test_imaginary_value_frozen():
    # K_{i}(1), frozen from the arbitrary-precision oracle
    assert k_value(BesselOrder.imaginary_order(1.0), 1.0) == pytest.approx(
        0.28942803702599212763, rel=1e-12
    )


def test_honest_error_estimate_in_hard_corner():
    # mu large with moderate x: double precision cannot reach 1e-10 and the
    # estimate must say so.
    value, err = bessel_k_with_error(BesselOrder.imaginary_order(30.0), 25.0)
    assert err > 1e-8
    actual = rel_err(value, mp_besselk(30j, 25.0))
    assert actual < 10.0 * err


def test_tolerance_satisfied_when_feasible():
    # Where double precision reaches 1e-10, the estimate says so.
    value, err = bessel_k_with_error(HALF, 2.0)
    assert value > 0.0 and err <= 1e-10


def test_monotone_decreasing_in_x():
    for nu in (0.0, 0.5, 2.0):
        order = BesselOrder.real_order(nu)
        xs = np.array([0.1 * 1.5**k for k in range(12) if 0.1 * 1.5**k <= 10.0])
        values, _ = bessel_k_values(order, xs)
        assert np.all(np.diff(values) < 0.0)


@pytest.mark.parametrize("x", [0.0, -1.0, float("nan")])
def test_domain_errors(x):
    with pytest.raises(DomainError):
        bessel_k_with_error(HALF, x)


def test_underflow_region_returns_zero():
    assert bessel_k_with_error(HALF, 800.0) == (0.0, 0.0)


def test_order_construction():
    assert BesselOrder.imaginary_order(-3.0) == BesselOrder(OrderKind.IMAGINARY, 3.0)
    with pytest.raises(DomainError):
        BesselOrder(OrderKind.REAL, -1.0)
    with pytest.raises(DomainError):
        BesselOrder(OrderKind.REAL, float("inf"))


def test_closed_form_pole_flag():
    assert BesselOrder.real_order(1.0).is_closed_form_pole
    assert BesselOrder.real_order(3.0).is_closed_form_pole
    assert not BesselOrder.real_order(0.0).is_closed_form_pole
    assert not BesselOrder.real_order(0.5).is_closed_form_pole
    assert not BesselOrder.imaginary_order(2.0).is_closed_form_pole


def test_imaginary_zero_magnitude_equals_real_zero_order():
    assert bessel_k_with_error(BesselOrder.imaginary_order(0.0), 2.0) == (
        bessel_k_with_error(BesselOrder.real_order(0.0), 2.0)
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
        assert rel_err(value, mp_besselk(_as_complex(order), x)) < tol
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
    # Too few trapezoid levels: the array call flags the trapezoid's points,
    # the one-point call raises.  Real order: every point below the x = 745
    # cut is a trapezoid point, and an overflowing one stays inf.
    monkeypatch.setattr(besselk, "_TRAP_LEVEL_CAP", 0)
    order = BesselOrder.imaginary_order(8.0)
    values, rel = bessel_k_values(order, np.array([3.0, 20.0]))
    assert math.isfinite(values[0])
    assert math.isnan(values[1]) and rel[1] == math.inf
    with pytest.raises(NonConvergenceError):
        bessel_k_with_error(order, 20.0)
    order = BesselOrder.real_order(30.0)
    values, rel = bessel_k_values(order, np.array([1e-30, 0.5, 20.0, 800.0]))
    assert values[0] == math.inf and rel[0] == math.inf
    assert np.isnan(values[1:3]).all() and (rel[1:3] == math.inf).all()
    assert (values[3], rel[3]) == (0.0, 0.0)
    with pytest.raises(NonConvergenceError):
        bessel_k_with_error(order, 20.0)


def test_array_marks_overflow_instead_of_raising():
    order = BesselOrder.real_order(30.0)
    values, rel = bessel_k_values(order, np.array([1e-30, 1.0]))
    assert values[0] == math.inf and rel[0] == math.inf
    assert math.isfinite(values[1])
    with pytest.raises(AccuracyError):
        bessel_k_with_error(order, 1e-30)
    values, rel = bessel_k_values(order, np.array([1e-31, 1e-30]))
    assert (values == math.inf).all() and (rel == math.inf).all()


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_array_domain_errors(bad):
    with pytest.raises(DomainError):
        bessel_k_values(HALF, np.array([1.0, bad]))


def _series_by_terms(mu, x):
    """The imaginary-order series summed term by term (reference), up to
    64 terms: its own cap, not the size of the code's table."""
    recip = 1.0 / besselk.gamma(complex(1.0, mu))
    coeff, q = 1.0, 0.25 * x * x
    series, peak = recip, abs(recip)
    for k in range(1, 64):
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


def test_series_columns_stop_within_the_first_pass():
    # The series' largest q is 36 (x = 12), pi mu <= 700 the largest order K
    # accepts, and mu near 0 needs the most columns.  At every q of a grid,
    # every row of a block _series_width(q) wide stops, with the sums a
    # 64-column table gives: no row needs more columns than the bound, so a
    # row never reaches the NaN guard.
    mus = np.concatenate(
        [np.geomspace(1e-12, 1.0, 200), np.linspace(1.0, 700.0 / math.pi, 2000)]
    )
    recips = []
    for mu in mus.tolist():
        column = list(besselk._series_recips(mu))
        while len(column) < 64:
            column.append(column[-1] / complex(len(column), mu))
        recips.append(column)
    recips = np.array(recips)
    ids = np.arange(len(mus))
    assert besselk._series_width(36.0) == besselk._SERIES_COLUMNS
    for q in np.concatenate([np.geomspace(1e-9, 1.0, 10), np.linspace(1.5, 36.0, 24)]):
        rows = np.full(len(mus), q)
        width = besselk._series_width(float(q))
        sums = besselk._series_block(rows, recips.real, recips.imag, ids, width)
        full = besselk._series_block(rows, recips.real, recips.imag, ids, 64)
        assert len(sums) == 4 and sums[-1].all() and full[-1].all(), q
        for got, want in zip(sums, full):
            assert got.tobytes() == want.tobytes(), q


@pytest.mark.parametrize(
    "order, table",
    [(BesselOrder.imaginary_order(3.25), lambda: besselk._series_recips(3.25)),
     (BesselOrder.real_order(0.3), lambda: besselk._real_series_table(0.3)[0])],
    ids=["imaginary", "real"],
)
def test_per_order_caches_are_read_only(order, table):
    # Every K at the order shares the cached array: a write must fail, not
    # change the K of every later call.
    xs = np.geomspace(1e-3, 0.5, 9)
    before = bessel_k_values(order, xs)
    assert not table().flags.writeable
    with pytest.raises(ValueError):
        table()[0] = 0.0
    after = bessel_k_values(order, xs)
    assert [a.tobytes() for a in after] == [b.tobytes() for b in before]


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
            # Rounding of the exponent -x cosh t at the peak t = 0.
            return total, max(rel, 2.0 * besselk._EPS * (x + 1.0))
    return math.nan, math.inf


def _ln_g_by_terms(nu, x, t):
    """The real-order log-integrand -x cosh t + log cosh(nu t) through ``math``."""
    lc = 0.0
    if nu > 0.0:
        u = nu * t
        lc = u + math.log1p(math.exp(-2.0 * u)) - besselk._LOG_2
    return -x * math.cosh(t) + lc


def _node_range_by_steps(nu, x):
    """(t_up, floor) by the 0.5-step search t* + 1 + k/2, k = 0, 1, ... (reference).

    ``math.cosh`` raises OverflowError past t = 710.48, so the search raises
    where it would have to pass that point, long before its 1500 cap.
    """
    t_star = math.asinh(nu / x) if nu > 0.0 else 0.0
    ln_peak = _ln_g_by_terms(nu, x, t_star)
    # Rounding of the exponent -x cosh t + log cosh(nu t) at the peak.
    floor = 2.0 * besselk._EPS * (x * math.cosh(t_star) + nu * t_star + 1.0)
    if ln_peak > 690.0:
        return math.inf, floor
    t_first = t_up = t_star + 1.0
    k = 0
    while _ln_g_by_terms(nu, x, t_up) > ln_peak - 46.0 and t_up < 1500.0:
        k += 1
        t_up = t_first + 0.5 * k
    return t_up, floor


def _k_real(nu, x):
    """The real-order trapezoid, one x and one level at a time (reference).

    The integrand is positive, so the sum of magnitudes is the sum itself.
    """
    t_up, floor = _node_range_by_steps(nu, x)
    if t_up == math.inf:
        return math.inf, math.inf

    def level_sum(h, level):
        t = besselk._trap_nodes(h, t_up, level)
        ln_vals = -x * np.cosh(t)
        if nu > 0.0:
            u = nu * t
            ln_vals = ln_vals + (u + np.log1p(np.exp(-2.0 * u)) - besselk._LOG_2)
        vals = np.exp(ln_vals)
        if level == 0:
            vals[0] *= 0.5
        return float(np.sum(vals))

    h = besselk._TRAP_BASE_STEP
    total = h * level_sum(h, 0)
    for _ in range(besselk._TRAP_LEVEL_CAP):
        h *= 0.5
        new_total = 0.5 * total + h * level_sum(h, 1)
        diff, total = abs(new_total - total), new_total
        if diff <= 1e-14 * total:
            rel = (0.5 * diff + 2e-15 * total) / max(total, 5e-324)
            return total, max(rel, floor)
    return math.nan, math.inf


def _real_series_by_terms(nu, x):
    """The real-order series at one x, term by term (reference).

    The coefficients and their bound weights are the order's table; the
    powers are np.power on one-element arrays, as the array path takes them.
    """
    table, factor = besselk._real_series_table(nu)
    q = 0.25 * x * x
    ys, bs = [], []
    for sign in (0, 1):
        y, b = table[-1, 0, sign], table[-1, 1, sign]
        for k in range(len(table) - 2, -1, -1):
            y = y * q + table[k, 0, sign]
            b = b * q + table[k, 1, sign]
        ys.append(float(y))
        bs.append(float(b))
    with np.errstate(over="ignore"):
        ratio = float(np.power(np.array([0.5 * x]), np.array([2.0 * nu]))[0])
        power = float(np.power(np.array([x]), np.array([-nu]))[0])
    diff = ys[0] - ratio * ys[1]
    bound = bs[0] - abs(ys[0]) + ratio * (bs[1] + 2.0 * abs(ys[1]))
    return factor * power * diff, besselk._U * (bound / abs(diff) + 13.0)


def _k_by_terms(order, x):
    """K at one x through the reference loops."""
    if x > besselk._X_UNDERFLOW:
        return 0.0, 0.0
    if order.kind is OrderKind.REAL or order.magnitude == 0.0:
        nu = order.magnitude
        if (
            x <= besselk._REAL_SERIES_X_MAX
            and nu <= besselk._REAL_SERIES_NU_MAX
            and abs(nu - round(nu)) >= besselk._REAL_SERIES_GAP
        ):
            value, rel = _real_series_by_terms(nu, x)
            if math.isfinite(value) and math.isfinite(rel):
                return value, rel
        return _k_real(nu, x)
    loop = _series_by_terms if x <= besselk._SERIES_X_MAX else _trapezoid_by_levels
    return loop(order.magnitude, x)


@pytest.mark.parametrize(
    "order",
    [
        pytest.param(BesselOrder.imaginary_order(mu), id=str(mu))
        for mu in (0.5, 2.0, 14.134725141734695, 21.022039638771555, 30.0, 49.77)
    ]
    + [
        pytest.param(BesselOrder.real_order(nu), id=f"real-{nu}")
        for nu in (0.0, 0.3, 0.9, 2.0, 30.0)
    ],
)
def test_array_matches_the_term_by_term_loops(order):
    # Same arithmetic as the loops, so the same bits: the quadrature's level
    # test sees K's cancellation noise, and a changed last bit moves it.  At
    # real order x runs from 1e-30 (inf at nu = 30) to 800 (exact 0).
    if order.kind is OrderKind.REAL:
        xs = np.concatenate([[1e-30], np.logspace(-12, math.log10(745.0), 80), [800.0]])
    else:
        xs = np.concatenate(
            [np.logspace(-8, math.log10(12.0), 40), np.linspace(12.01, 745.0, 40)]
        )
    values, rel = bessel_k_values(order, xs)
    for x, value, err in zip(xs.tolist(), values.tolist(), rel.tolist()):
        assert np.array_equal((value, err), _k_by_terms(order, x), equal_nan=True)


@pytest.mark.parametrize(
    "order", [BesselOrder.real_order(0.7), BesselOrder.imaginary_order(2.0)],
    ids=["real-0.7", "imag-2.0"],
)
def test_shuffled_call_matches_the_one_x_loops(order):
    # 400 x in random order: the trapezoid sorts its rows by node range and
    # cuts them into several row blocks per level (the widest fine-level
    # rows hold thousands of nodes); every point must still equal its one-x
    # loop, bit for bit, and come back in the caller's order.
    xs = np.random.default_rng(12).permutation(np.geomspace(1e-12, 700.0, 400))
    values, rel = bessel_k_values(order, xs)
    for x, value, err in zip(xs.tolist(), values.tolist(), rel.tolist()):
        assert (value, err) == _k_by_terms(order, x)


NODE_RANGE_XS = np.concatenate([
    np.logspace(-320, math.log10(745.0), 161),
    # The search's last finite ranges for nu = 0 and nu = 0.3, and the
    # first points past them.
    [1e-306, 3e-307, 1e-307, 1e-305, 1e-308],
    # At nu = 60 the crossing estimate lands one step past t_up here, so
    # the check below it must step back.
    [28.726425250387976],
])


@pytest.mark.parametrize(
    "nu",
    [0.0, 1e-3, 0.01, 0.03, 0.1, 0.3, 0.5, 0.9, 1.0, 2.0, 5.5, 13.0, 30.0, 60.0, 200.0],
)
def test_node_range_matches_the_step_search(nu):
    # The estimate-and-check search, over all the x at once, must land on
    # the very t_up the 0.5-step search reaches, bits included.  Where that
    # search would pass the overflow of cosh t (tiny x; it raises
    # OverflowError there, before its 1500 cap can bind) or nu/x overflows,
    # the point cannot be evaluated.
    # At large nu and small x the peak passes 690 and K overflows (inf).
    # At nu < 0.035 and x near nu the range crosses several binades from
    # t* + 1 ~ 1.9, where adding 0.5 one step at a time would round
    # differently from t* + 1 + k/2 in one rounding.
    xs = NODE_RANGE_XS
    if nu:
        xs = np.concatenate([xs, nu * np.linspace(0.5, 2.0, 201)])
    widest, outcomes = 0.0, set()
    t_ups, floors = besselk._real_node_ranges(np.full(len(xs), nu), xs)
    for x, t_up, floor in zip(xs.tolist(), t_ups.tolist(), floors.tolist()):
        try:
            expected = _node_range_by_steps(nu, x)
        except OverflowError:
            expected = None
        if expected is None or math.isinf(nu / x):
            assert math.isnan(t_up) and floor == math.inf, x
            outcomes.add("nan")
        else:
            assert (t_up, floor) == expected, x
            outcomes.add("inf" if t_up == math.inf else "finite")
            if t_up < math.inf:
                widest = max(widest, t_up)
    assert {"finite", "nan"} <= outcomes
    assert ("inf" in outcomes) == (nu >= 1.0)
    if nu < 1.0:   # the grid reaches the last range below cosh's overflow
        assert widest > 709.0


def test_node_range_is_the_first_half_step_past_the_crossing():
    # t_up = t* + 1 + k/2 in one rounding, with ln g at or below the peak
    # less 46 there, and above it one step before (unless k = 0).
    rng = np.random.default_rng(24)
    nu = 10.0 ** rng.uniform(-3.0, 2.0, 3000)
    x = np.concatenate([10.0 ** rng.uniform(-6.0, math.log10(700.0), 2000),
                        nu[2000:] * rng.uniform(0.5, 2.0, 1000)])
    t_up, _ = besselk._real_node_ranges(nu, x)
    finite = np.isfinite(t_up)
    assert finite.mean() > 0.9
    nu, x, t_up = nu[finite], x[finite], t_up[finite]
    t_star = np.array([math.asinh(n / v) for n, v in zip(nu.tolist(), x.tolist())])
    peak = np.array([_ln_g_by_terms(n, v, t) for n, v, t in zip(nu, x, t_star)])
    t_first = t_star + 1.0
    k = np.round(2.0 * (t_up - t_first))
    assert (k >= 0.0).all()
    assert np.array_equal(t_up, t_first + 0.5 * k)
    assert (besselk._ln_g(nu, x, t_up) <= peak - 46.0).all()
    step = k > 0.0
    before = t_first[step] + 0.5 * (k[step] - 1.0)
    assert (besselk._ln_g(nu[step], x[step], before) > peak[step] - 46.0).all()
    assert step.any() and not step.all()


def test_x_whose_node_range_leaves_double_range_is_not_converged():
    # At the integer order 1, nu/x overflows at x = 1e-320, and at
    # x = 1e-307 the nu = 0 range would pass the overflow of cosh t: both
    # come back NaN with an infinite estimate, beside an ordinary point.
    for nu, x in ((1.0, 1e-320), (0.0, 1e-307)):
        order = BesselOrder.real_order(nu)
        values, rel = bessel_k_values(order, np.array([x, 1.0]))
        assert math.isnan(values[0]) and rel[0] == math.inf
        assert (values[1], rel[1]) == bessel_k_with_error(order, 1.0)
        with pytest.raises(NonConvergenceError, match=f"x={x:g}"):
            bessel_k_with_error(order, x)
    # nu/x overflows at order 0.3 too, but there the series needs no node
    # range: K_0.3(1e-320) is about 3e96.
    order = BesselOrder.real_order(0.3)
    value, rel = bessel_k_with_error(order, 1e-320)
    assert 1e96 < value < 1e97
    assert _true_rel_err(order, 1e-320, value) <= rel <= 1e-14


def _true_rel_err(order, x, value):
    reference = mp.re(mp.besselk(mp.mpc(_as_complex(order)), mp.mpf(x)))
    return float(abs(mp.mpf(value) - reference) / abs(reference))


@pytest.mark.parametrize(
    "order,xs",
    [
        pytest.param(
            BesselOrder.real_order(nu), np.logspace(-12, math.log10(700.0), 60),
            id=f"real-{nu}",
        )
        for nu in (0.0, 0.3, 0.9, 2.0, 5.5, 13.0, 30.0, 60.0)
    ]
    + [
        pytest.param(
            BesselOrder.imaginary_order(mu), np.geomspace(12.5, 700.0, 40),
            id=f"imag-{mu}",
        )
        for mu in (0.5, 2.0, 8.0, 14.134725141734695)
    ],
)
def test_estimate_bounds_the_true_error(order, xs):
    # The estimate covers the rounding of the exponent
    # -x cosh t + log cosh(nu t) at the integrand's peak, which grows with x
    # and with nu.  (At mu = 30 a few trapezoid points still miss, by up to
    # about 1.3x: cancellation noise the level test cannot see.)
    values, rel = bessel_k_values(order, xs)
    finite = np.isfinite(values)
    assert finite.sum() >= 20
    for x, value, err in zip(xs[finite], values[finite], rel[finite]):
        assert _true_rel_err(order, x, value) <= err


MIXED_ORDERS = [
    BesselOrder.imaginary_order(mu)
    for mu in (0.5, 2.0, 14.134725141734695, 21.022039638771555, 30.0, 0.0)
] + [BesselOrder.real_order(nu) for nu in (0.0, 0.3, 0.9, 2.0, 30.0)]


@pytest.mark.parametrize(
    "orders",
    [MIXED_ORDERS[:6], MIXED_ORDERS[6:], MIXED_ORDERS],
    ids=["imaginary", "real", "both"],
)
def test_call_with_an_order_per_point_matches_the_one_x_loops(orders):
    # Shuffled x at shuffled orders in one call: the series rows share
    # their blocks across orders, each with its own coefficients, and the
    # trapezoid rows share row blocks and levels, each with its own weight;
    # every point must still be bit for bit its one-x loop at its own
    # order, NaN and inf marks included (x = 1e-30 overflows at real
    # order 30, x = 800 is past the cut; at x = 1e-320, where the real
    # order's range leaves double range and the loops do not apply, the
    # reference is the one-point call; both are also put at order 30, the
    # last, to show each mark).
    rng = np.random.default_rng(14)
    xs = np.concatenate([np.geomspace(1e-12, 700.0, 300), [1e-30, 1e-320, 800.0]])
    xs = rng.permutation(np.repeat(xs, 2))
    which = rng.integers(0, len(orders), len(xs))
    xs, which = np.append(xs, [1e-30, 1e-320]), np.append(which, [len(orders) - 1] * 2)
    values, rel = bessel_k_values(orders, xs, which)
    marks = set()
    for x, k, value, err in zip(xs.tolist(), which.tolist(), values.tolist(), rel.tolist()):
        if x == 1e-320:
            expected = tuple(a[0] for a in bessel_k_values(orders[k], np.array([x])))
        else:
            expected = _k_by_terms(orders[k], x)
        assert np.array_equal((value, err), expected, equal_nan=True), (orders[k], x)
        marks.add("nan" if math.isnan(value) else "inf" if value == math.inf else "")
    if orders[-1].magnitude == 30.0:
        assert {"nan", "inf"} <= marks


def test_order_per_point_broadcasts_one_order():
    xs = np.geomspace(0.01, 50.0, 40)
    order = BesselOrder.imaginary_order(8.0)
    alone = bessel_k_values(order, xs)
    batch = bessel_k_values([order], xs, np.zeros(len(xs), dtype=int))
    assert np.array_equal(alone, batch)
    with pytest.raises(ValueError, match="one order per x"):
        bessel_k_values([order], xs, [0])


def test_order_per_point_beyond_sinh_range_names_the_first():
    # pi mu > 700 raises only for an order that has an x at or below 745.
    orders = [BesselOrder.imaginary_order(m) for m in (1.0, 300.0, 250.0)]
    values, _ = bessel_k_values(orders, np.array([1.0, 800.0]), [0, 1])
    assert values[1] == 0.0
    with pytest.raises(AccuracyError, match="order 300 "):
        bessel_k_values(orders, np.array([1.0, 2.0, 3.0]), [2, 1, 0])


EQ5_REAL_NUS = [k / 10.0 for k in range(1, 10)]


@pytest.mark.parametrize("nu", [0.05] + EQ5_REAL_NUS + [0.95, 1.05, 1.5, 2.5, 7.3])
def test_real_series_estimate_bounds_the_true_error(nu):
    # x <= 0.5 at orders at least 0.05 from an integer: the series.  Its
    # estimate covers the true error (mpmath, 30 digits) at every point;
    # toward x = 0.5 the two series cancel most.  Where K overflows
    # doubles the point is the trapezoid's inf.
    order = BesselOrder.real_order(nu)
    xs = np.concatenate([np.geomspace(1e-300, 0.5, 61), np.linspace(0.3, 0.5, 9)])
    values, rel = bessel_k_values(order, xs)
    finite = np.isfinite(values)
    assert (values[~finite] == math.inf).all() and finite.sum() >= 15
    assert np.isfinite(rel[finite]).all()
    with mp.workdps(30):
        errors = [_true_rel_err(order, x, v) for x, v in zip(xs[finite], values[finite])]
    assert (np.array(errors) <= rel[finite]).all()
    if nu in EQ5_REAL_NUS:
        assert finite.all() and max(errors) <= 3e-15 and rel.max() <= 1e-14


def test_real_series_tables_hold_their_sums():
    # _RGAMMA is the Taylor series of 1/Gamma(1 + w) rounded once, and its
    # tail at |w| = 1/2 is below 1e-21.  At q = 1/16 (x = 0.5), where the
    # series converge slowest, the last column of every order is below
    # 1e-23 of the largest term.
    # 1/Gamma(1 + w) = exp(sum_k b_k w^k), b_1 = gamma, b_k = (-1)^(k+1)
    # zeta(k) / k (DLMF 5.7.3); a_n = sum_{k<=n} k b_k a_{n-k} / n.
    size = len(besselk._RGAMMA)
    with mp.workdps(40):
        b = [mp.mpf(0), +mp.euler] + [(-1) ** (k + 1) * mp.zeta(k) / k for k in range(2, 60)]
        a = [mp.mpf(1)]
        for n in range(1, 60):
            a.append(sum(k * b[k] * a[n - k] for k in range(1, n + 1)) / n)
        assert besselk._RGAMMA == tuple(float(c) for c in a[:size])
        assert sum(abs(c) * mp.mpf(0.5) ** k for k, c in enumerate(a) if k >= size) < 1e-21
    q = 1.0 / 16.0
    powers = q ** np.arange(besselk._REAL_SERIES_COLUMNS)[:, None]
    for nu in np.arange(0.05, besselk._REAL_SERIES_NU_MAX, 0.05):
        if abs(nu - round(nu)) < besselk._REAL_SERIES_GAP:
            continue
        terms = np.abs(besselk._real_series_table(float(nu))[0][:, 0]) * powers
        finite = np.isfinite(terms).all(axis=0) & (terms.max(axis=0) > 0.0)
        assert (terms[-1, finite] <= 1e-23 * terms[:, finite].max(axis=0)).all(), nu


def test_eq5_sends_no_small_real_x_to_the_trapezoid(monkeypatch):
    # Every real-order point the eq5 audit asks for at x <= 0.5 is a
    # series point: neither the node search nor the trapezoid sees it.
    from xispec.cli import EQ5_ORDERS
    from xispec.coupling import audit_eq5

    seen = []
    for name in ("_trapezoid", "_real_node_ranges"):
        def spy(*args, _inner=getattr(besselk, name), _name=name):
            oscillating = args[1] if _name == "_trapezoid" else False
            x = args[2] if _name == "_trapezoid" else args[1]
            if not oscillating:
                seen.append((_name, int((x <= 0.5).sum()), len(x)))
            return _inner(*args)

        monkeypatch.setattr(besselk, name, spy)
    audits, _ = audit_eq5(list(EQ5_ORDERS))
    assert all(a.ok for a in audits)
    assert seen and sum(n for _, _, n in seen) > 0
    assert [small for _, small, _ in seen] == [0] * len(seen)
