"""Modified Bessel function K of real and purely imaginary order.

Three regimes.  The integral representation

    K_nu(x)    = int_0^inf exp(-x cosh t) cosh(nu t) dt      (real nu)
    K_{i mu}(x) = int_0^inf exp(-x cosh t) cos(mu t)  dt      (imaginary)

is evaluated by the trapezoidal rule in t, spectrally accurate here because
the integrand already decays double-exponentially; one level loop serves
both kinds (a real order adds log cosh(nu t) to the exponent, an imaginary
one multiplies by cos(mu t)).  The real-order integrand is positive, so the
trapezoid is accurate at machine level, but toward x = 0 it needs ever more
nodes; at x <= 0.5, for orders at least 0.05 from every integer and at
most 150, the ascending series

    K_nu(x) = pi (I_{-nu}(x) - I_nu(x)) / (2 sin pi nu)

takes over: a dozen terms in x^2/4, with coefficients 1/(k! Gamma(k+1-/+nu))
from an exact Taylor series of 1/Gamma, and an estimate built from the
rounding of every step times the cancellation of the two series.  Order
0, orders near an integer and any point whose series is not finite keep
the trapezoid.

The imaginary-order integrand oscillates, and for small x the integral is
exponentially smaller than its terms; at x <= 12 the ascending series

    K_{i mu}(x) = -pi * Im I_{i mu}(x) / sinh(pi mu)

takes over (the sinh division is exact, so the small scale e^{-pi mu / 2}
costs no cancellation); a row block of x forms the terms a bound on them
needs at its largest x.  Between the two paths there remains a corner
(mu large, x moderate) where double precision cannot reach 1e-10 relative
accuracy; the error estimate reports the achievable level honestly, and a
caller compares it with its own tolerance.

``bessel_k_values`` is the one implementation, over a 1-D array of x at
one order or an order per x; ``bessel_k_with_error`` is a one-point call
of it that raises where the array call returns a non-finite value.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import AccuracyError, DomainError, NonConvergenceError
from .gamma import gamma

_EPS = 2.220446049250313e-16
_LOG_2 = math.log(2.0)
# Switch point between the series and the integral on the imaginary branch.
_SERIES_X_MAX = 12.0
# Real orders take the series at x <= _REAL_SERIES_X_MAX, at least
# _REAL_SERIES_GAP from every integer (1/sin pi nu grows toward them) and at
# most _REAL_SERIES_NU_MAX (K_nu(x <= 0.5) overflows doubles from nu = 135);
# at q = x^2/4 <= 1/16 the last of the columns is below 1e-23 of the peak.
_REAL_SERIES_X_MAX, _REAL_SERIES_GAP, _REAL_SERIES_NU_MAX = 0.5, 0.05, 150.0
_REAL_SERIES_COLUMNS = 12
_U = 0.5 * _EPS   # the unit roundoff
# 1/Gamma(1 + w) = sum_k _RGAMMA[k] w^k (DLMF 5.7.1), the exact coefficients
# rounded once; at |w| <= 1/2 the terms past these sum below 1e-21.
_RGAMMA = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
    -0.04219773455554433, -0.009621971527876973, 0.0072189432466631, -0.0011651675918590652,
    -0.00021524167411495098, 0.0001280502823881162, -2.013485478078824e-05,
    -1.2504934821426706e-06, 1.133027231981696e-06, -2.056338416977607e-07,
    6.116095104481416e-09, 5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13, -2.0583260535665066e-14,
)
_TRAP_BASE_STEP = 0.25
_TRAP_LEVEL_CAP = 9
# exp(-x) underflows doubles past this; K_nu(x) <= sqrt(pi/2x) e^{-x}.
_X_UNDERFLOW = 745.0
# Bound on the elements of any 2-D temporary; larger calls go in row blocks.
_BLOCK_ELEMENTS = 8192
# The largest t whose cosh is a double.
_T_COSH_MAX = math.acosh(sys.float_info.max)


class OrderKind(enum.Enum):
    REAL = "real"
    IMAGINARY = "imaginary"


@dataclass(frozen=True)
class BesselOrder:
    """Order of K: nu (real kind) or mu with nu = i*mu (imaginary kind)."""

    kind: OrderKind
    magnitude: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.magnitude):
            raise DomainError("BesselOrder magnitude must be finite")
        if self.magnitude < 0.0:
            raise DomainError("BesselOrder magnitude must be non-negative")

    @classmethod
    def real_order(cls, nu: float) -> "BesselOrder":
        # K_{-nu} = K_nu: the representation depends on nu only through
        # cosh(nu t), so the sign is dropped at construction.
        return cls(OrderKind.REAL, abs(float(nu)))

    @classmethod
    def imaginary_order(cls, mu: float) -> "BesselOrder":
        return cls(OrderKind.IMAGINARY, abs(float(mu)))

    @property
    def is_closed_form_pole(self) -> bool:
        """True when this is a positive integer real order.

        The closed form of the norm integral has poles there.
        """
        return (
            self.kind is OrderKind.REAL
            and self.magnitude >= 0.5
            and abs(self.magnitude - round(self.magnitude)) < 1e-12
        )


def _trap_nodes(h: float, t_upper: float, level: int) -> np.ndarray:
    """Trapezoid abscissas: the full grid at level 0, odd refinements after."""
    if level == 0:
        return np.arange(0.0, t_upper + h, h)
    return np.arange(h, t_upper + h, 2.0 * h)


def _imag_series(
    mus: np.ndarray, ids: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending-series path: accurate for x <~ 12 at any desk-scale mu.

    Point i is at order mus[ids[i]].  The series is a polynomial in
    q = x^2/4 whose k-th coefficient is r_k / k!, with
    r_k = 1 / (Gamma(1 + i mu) prod_{j<=k} (j + i mu)) from the order's
    table of _SERIES_COLUMNS.  Each x sums its terms up to its own
    stopping term, the one stopping rule, in the order and rounding of a
    term-by-term loop: the value at small x is exponentially smaller than
    the terms, and the quadrature's level test sees that cancellation
    noise.
    """
    q = 0.25 * x * x
    # Renumber the orders present (np.unique would import numpy.ma).
    present = np.zeros(len(mus), dtype=bool)
    present[ids] = True
    mus = mus[present]
    renumber = np.zeros(len(present), dtype=np.intp)
    renumber[present] = np.arange(len(mus))
    ids = renumber[ids]
    recips = np.array([_series_recips(mu) for mu in mus.tolist()])
    s_re, s_im, peak, stopped = _series_sums(q, recips.real, recips.imag, ids)
    # math.log: numpy's vector log can differ in the last bit, which the
    # cancellation above would turn into different noise.  Orders that
    # share their nodes share their x, so it runs once per distinct x
    # (found by sorting; np.unique would import numpy.ma).
    half_x = 0.5 * x
    order = np.argsort(half_x)
    ranked = half_x[order]
    first = np.empty(len(x), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    logs = np.fromiter(map(math.log, ranked[first].tolist()), float, int(first.sum()))
    log_half_x = np.empty(len(x))
    log_half_x[order] = logs[first.cumsum() - 1]
    theta = mus[ids] * log_half_x
    im_part = np.cos(theta) * s_im + np.sin(theta) * s_re
    sinh = np.array([math.sinh(math.pi * mu) for mu in mus.tolist()])
    values = -math.pi * im_part / sinh[ids]
    abs_floor = 4.0 * _EPS * (peak + np.hypot(s_re, s_im))
    with np.errstate(over="ignore"):
        rel = np.maximum(abs_floor / np.maximum(np.abs(im_part), 5e-324), 2.0 * _EPS)
    # Only where a sum did not stop (a NaN coefficient): a fault guard,
    # ``_series_width`` stops every x <= 12 at pi mu <= 700.
    values[~stopped] = math.nan
    rel[~stopped] = math.inf
    return values, rel


def _series_width(q: float) -> int:
    """Columns within which every imaginary-order series at q or below stops.

    |k + i mu| >= k, so |r_k| <= |r_0| / k! and term k is at most
    q^k / k!^2 times term 0, itself at most the running peak: the stopping
    test |term| <= 1e-18 (|sum| + peak) holds once q^k / k!^2 <= 1e-19
    (the factor 10 covers the rounding of the terms and the test).
    """
    k, bound = 1, q
    while bound > 1e-19:
        k += 1
        bound *= q / (k * k)
    return k + 1


# Coefficients of the series per order, 32: enough at its largest x, 12.
_SERIES_COLUMNS = _series_width(0.25 * _SERIES_X_MAX**2)


@functools.lru_cache(maxsize=1024)
def _series_recips(mu: float) -> np.ndarray:
    """r_0 ... r_{_SERIES_COLUMNS - 1} of order mu, kept per order."""
    terms = [1.0 / gamma(complex(1.0, mu))]
    for k in range(1, _SERIES_COLUMNS):
        terms.append(terms[-1] / complex(k, mu))
    recips = np.array(terms)
    recips.flags.writeable = False   # every caller shares it
    return recips


def _series_sums(
    q: np.ndarray, re: np.ndarray, im: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-q partial sum and peak term at its stopping term, and whether it stopped.

    Row i sums the coefficients re[ids[i]] + i im[ids[i]].  Rows go largest
    q first, in row blocks of at most _BLOCK_ELEMENTS, each as wide as
    ``_series_width`` of its first q.  A row's sums up to its stopping
    term do not depend on the columns past it.
    """
    out = (np.empty(len(q)), np.empty(len(q)), np.empty(len(q)), np.empty(len(q), dtype=bool))
    rows = np.argsort(-q, kind="stable")
    while rows.size:
        width = _series_width(float(q[rows[0]]))
        count = max(1, _BLOCK_ELEMENTS // width)
        block, rows = rows[:count], rows[count:]
        for part, value in zip(out, _series_block(q[block], re, im, ids[block], width)):
            part[block] = value
    return out


def _series_block(
    q: np.ndarray, re: np.ndarray, im: np.ndarray, ids: np.ndarray, width: int
) -> tuple[np.ndarray, ...]:
    """``_series_sums`` of some rows over the first ``width`` columns."""
    # Column k holds q^k / k!, built as 1 * (q/1) * ... * (q/k).
    ks = np.arange(0.0, width)
    ks[0] = math.inf
    coeff = np.divide.outer(q, ks)
    coeff[:, 0] = 1.0
    np.cumprod(coeff, axis=1, out=coeff)
    term_re = np.multiply(re[ids, :width], coeff)
    term_im = np.multiply(coeff, im[ids, :width], out=coeff)
    mags = np.hypot(term_re, term_im)
    sum_re = np.cumsum(term_re, axis=1, out=term_re)
    sum_im = np.cumsum(term_im, axis=1, out=term_im)
    peaks = np.maximum.accumulate(mags, axis=1)
    scale = np.hypot(sum_re, sum_im)
    scale += peaks
    scale *= 1e-18
    done = mags <= scale
    done[:, 0] = False
    stop = np.argmax(done, axis=1)
    rows = np.arange(len(stop))
    return sum_re[rows, stop], sum_im[rows, stop], peaks[rows, stop], done[rows, stop]


@functools.lru_cache(maxsize=1024)
def _real_series_table(nu: float) -> tuple[np.ndarray, float]:
    """``_real_series``' table at real order nu, and its factor
    2^nu pi / (2 sin pi nu).  Row k holds c_k = 1/(k! Gamma(k + 1 -/+ nu))
    and d_k for the minus and the plus series.

    Horner passes of c_k in q and of d_k in |q| give y and a bound
    u (b - |y|) on its error: Higham's running bound (Accuracy and
    Stability of Numerical Algorithms, alg. 5.1) to first order in u, each
    partial value |y_k| <= sum_{j>=k} |c_j q^{j-k}|, so d_k is
    2 (k + 1) |c_k| plus the error of c_k over u.  With nu = n + r,
    |r| <= 1/2, 1/Gamma(1 - nu) = prod_{j<n} (-r - j) / Gamma(1 - r) and
    1/Gamma(1 + nu) = 1 / (Gamma(1 + r) prod_{j<=n} (j + r)): two roundings
    a factor; a step in k divides by k (k -/+ nu), three more; and q's
    rounding adds k u.
    """
    n = round(nu)
    r = nu - n
    coef, bound = [], []
    for sign in (-1.0, 1.0):
        c = b = 0.0
        for k, a in reversed(list(enumerate(_RGAMMA))):   # 1/Gamma(1 + sign r)
            c = c * sign * r + a
            b = b * abs(r) + (2 * k + 3) * abs(a)
        rel = b / c - 1.0 + 2.0 * n   # in units of u
        for j in range(n):
            c = c * (-r - j) if sign < 0.0 else c / (j + 1 + r)
        column = [c]
        for k in range(1, _REAL_SERIES_COLUMNS):
            column.append(column[-1] / (k * (k + sign * nu)))
        coef.append(column)
        bound.append([abs(c) * (rel + 6.0 * k + 2.0) for k, c in enumerate(column)])
    table = np.array([coef, bound]).transpose(2, 0, 1)
    table.flags.writeable = False   # every caller shares it
    return table, (-1.0) ** n * math.pi * 2.0**nu / (2.0 * math.sin(math.pi * r))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _real_series(nu: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_nu(x), each x at its own real order, by DLMF 10.27.4 with 10.25.2:
    pi (x/2)^-nu (S_-(q) - (x/2)^{2 nu} S_+(q)) / (2 sin pi nu), with
    S_-/+(q) = sum_k q^k / (k! Gamma(k + 1 -/+ nu)), q = x^2/4, in one
    Horner pass; (x/2)^-nu is x^-nu times the table's factor (x/2 rounds
    at subnormal x).  The estimate adds each step's rounding over the
    difference (the Horner bounds; 3u of S_+ for (x/2)^{2 nu}, np.power
    within 1 ulp, and the product; u of the difference), then 12u for the
    common factor (8u for the table's: pi, 2^nu, the sine, three
    operations; 2u for x^-nu; 2u for two products).
    """
    orders = sorted(set(nu.tolist()))
    tables = [_real_series_table(v) for v in orders]
    at = np.searchsorted(orders, nu)
    columns = np.moveaxis(np.array([t for t, _ in tables])[at], 0, -1)
    q = 0.25 * x * x
    z = columns[-1]
    for column in columns[-2::-1]:
        z = z * q + column
    (minus, plus), (b_minus, b_plus) = z
    ratio = np.power(0.5 * x, 2.0 * nu)
    diff = minus - ratio * plus
    values = np.array([f for _, f in tables])[at] * np.power(x, -nu) * diff
    bound = b_minus - np.abs(minus) + ratio * (b_plus + 2.0 * np.abs(plus))
    return values, _U * (bound / np.abs(diff) + 13.0)


def _ln_g(nu: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The real-order log-integrand -x cosh t + log cosh(nu t); -inf past cosh's range."""
    u = nu * t   # >= 0, so log cosh u = u + log1p(e^{-2u}) - log 2
    with np.errstate(over="ignore"):
        return -x * np.cosh(t) + (u + np.log1p(np.exp(-2.0 * u)) - _LOG_2)


def _real_node_ranges(nu: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t_up, estimate floor) of each x at its real order nu.

    t_up is the first t* + 1 + k/2, k = 0, 1, ..., where ln g has fallen
    46 below its peak at t* = asinh(nu/x).  An estimate of that crossing
    picks k, and ln g on both sides of it confirms it.  t_up is inf where
    K overflows, and nan where the range would pass the overflow of
    cosh t (tiny x), where the exponent cannot be formed.  The floor is
    the rounding of the exponent at the peak.  t* and the peak take
    ``math``'s asinh, cosh, exp and log1p, one x at a time, so the floor
    and the 46 below the peak have the bits of a one-x call; the
    comparisons of ln g at the steps take numpy's.
    """
    t_up = np.full(len(x), math.nan)
    floor = np.full(len(x), math.inf)
    with np.errstate(over="ignore"):
        t_star = np.fromiter(map(math.asinh, (nu / x).tolist()), float, len(x))
    ok = t_star < math.inf   # else nu/x overflows
    nu, x, t_star = nu[ok], x[ok], t_star[ok]
    cosh_star = np.fromiter(map(math.cosh, t_star.tolist()), float, len(x))
    u = nu * t_star
    log_cosh = np.fromiter(map(math.log1p, map(math.exp, (-2.0 * u).tolist())), float, len(x))
    ln_peak = -x * cosh_star + (u + log_cosh - _LOG_2)
    floor[ok] = 2.0 * _EPS * (x * cosh_star + nu * t_star + 1.0)
    t_up[ok] = math.inf   # where the peak passes 690: K overflows
    walk = ln_peak <= 690.0
    nu, x, t_star, low = nu[walk], x[walk], t_star[walk], ln_peak[walk] - 46.0
    # For tiny x the integrand stays flat out to t ~ log(2/x); the node range
    # must clear that knee, not just the peak.  Past t* ln g falls
    # monotonically; solving x cosh t = nu (t* + 1) - low, with log cosh(nu t)
    # taken as nu t at t* + 1, lands on or next to the crossing's step.  ln g
    # walks back over the steps while it is below the crossing, then
    # forward while it is above.
    t_first = t_star + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = (nu * t_first - low) / x
        t_cross = np.minimum(np.where(ratio > 1.0, np.arccosh(ratio), t_first), _T_COSH_MAX)
    steps = np.maximum(np.ceil(2.0 * (t_cross - t_first)), 0.0)
    while True:
        back = steps > 0.0
        t = t_first[back] + 0.5 * (steps[back] - 1.0)
        back[back] = _ln_g(nu[back], x[back], t) <= low[back]
        if not back.any():
            break
        steps -= back
    up = t_first + 0.5 * steps
    ln_up = _ln_g(nu, x, up)
    while True:
        above = ln_up > low
        if not above.any():
            break
        steps[above] += 1.0
        up[above] = t_first[above] + 0.5 * steps[above]
        ln_up[above] = _ln_g(nu[above], x[above], up[above])
    up[ln_up == -math.inf] = math.nan
    t_up[np.flatnonzero(ok)[walk]] = up
    floor[np.isnan(t_up)] = math.inf
    return t_up, floor


@np.errstate(over="ignore")
def _trapezoid(
    nu: np.ndarray, oscillating: bool, x: np.ndarray, t_up: np.ndarray, floor: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid in t, each x at its own real order nu, or order i*nu
    when oscillating.

    Each x keeps its own node range t_up, a prefix of the widest one, summed
    in the order a 1-D sum of it uses; it leaves the level loop once its
    level sums agree.  Rows are sorted widest range first, once, so a row
    block needs only its first row's nodes.  Its estimate is at least
    ``floor``, the rounding of the exponent at the integrand's peak.  A t_up
    of inf (K overflows doubles) or nan (not computable) passes through as
    the value, with an infinite estimate.
    """
    values = np.full(len(x), math.nan)
    rel = np.full(len(x), math.inf)
    finite = np.isfinite(t_up)
    values[~finite] = t_up[~finite]
    index = np.flatnonzero(finite)
    if not index.size:
        return values, rel
    index = index[np.argsort(-t_up[index], kind="stable")]
    nu, x, t_up = nu[index], x[index], t_up[index]
    h = _TRAP_BASE_STEP
    s, a = _trap_sums(nu, oscillating, x, t_up, h, level=0)
    totals, abs_totals = h * s, h * a
    for _ in range(_TRAP_LEVEL_CAP):
        h *= 0.5
        s, a = _trap_sums(nu, oscillating, x, t_up, h, level=1)
        new_totals = 0.5 * totals + h * s
        abs_totals = 0.5 * abs_totals + h * a
        diff = np.abs(new_totals - totals)
        totals = new_totals
        # Roundoff floor of the level sums; level-to-level jitter of a
        # cancelled sum sits a small factor above eps * sum(|terms|).  On a
        # positive integrand abs_totals is totals and the test is
        # diff <= 1e-14 * total.
        noise = 2e-15 * abs_totals
        size = np.abs(totals)
        conv = diff <= np.maximum(1e-14 * size, noise)
        if not conv.any():
            continue
        rel_err = (0.5 * diff + noise) / np.maximum(size, 5e-324)
        done = index[conv]
        values[done], rel[done] = totals[conv], rel_err[conv]
        keep = ~conv
        if not keep.any():
            break
        nu, x, t_up, index = nu[keep], x[keep], t_up[keep], index[keep]
        totals, abs_totals = totals[keep], abs_totals[keep]
    return values, np.maximum(rel, floor)


def _trap_sums(
    nu: np.ndarray, oscillating: bool, x: np.ndarray, t_up: np.ndarray, h: float, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-x sums of the integrand, and of its magnitude, over t.

    The integrand of row i is exp(-x cosh t) cos(nu_i t) when oscillating,
    else exp(-x cosh t + log cosh(nu_i t)); each row forms its own weight,
    elementwise as a 1-D call at its order would.  Row x runs over
    ``_trap_nodes(h, t_up[x], level)``, a prefix of the first row's nodes
    (rows come widest first); a masked row sum of a prefix adds in the same
    order as a 1-D sum of it.  Each row block forms only the columns its
    first row needs, at most _BLOCK_ELEMENTS elements.
    """
    t = _trap_nodes(h, float(t_up[0]), level)
    start, stride = (0.0, h) if level == 0 else (h, 2.0 * h)
    counts = np.ceil((t_up + h - start) / stride)   # np.arange's length rule
    columns = np.arange(float(len(t)))
    cosh_t = np.cosh(t)
    s = np.empty(len(x))
    a = np.empty(len(x)) if oscillating else s
    i = 0
    while i < len(x):
        width = int(counts[i])
        block = slice(i, i + max(1, _BLOCK_ELEMENTS // width))
        i = block.stop
        inside = columns[:width] < counts[block, None]
        vals = np.multiply.outer(-x[block], cosh_t[:width])
        u = np.multiply.outer(nu[block], t[:width])
        if oscillating:
            np.exp(vals, out=vals)
            vals *= np.cos(u, out=u)
        else:
            # u >= 0, so log cosh u = u + log1p(e^{-2u}) - log 2.  One call
            # mixes ranges from about 2 to 30 here, and past a row's range
            # the exponent underflows, where exp is several times slower:
            # take it only where the row sums.
            log_cosh = np.multiply(u, -2.0)
            np.log1p(np.exp(log_cosh, out=log_cosh), out=log_cosh)
            log_cosh += u
            log_cosh -= _LOG_2
            vals += log_cosh
            np.exp(vals, out=vals, where=inside)
        if level == 0:
            vals[:, 0] *= 0.5
        s[block] = np.add.reduce(vals, axis=1, where=inside)
        if oscillating:
            a[block] = np.add.reduce(np.abs(vals, out=vals), axis=1, where=inside)
    return s, a


def bessel_k_values(
    order: BesselOrder | Sequence[BesselOrder], x, which=None
) -> tuple[np.ndarray, np.ndarray]:
    """K over a 1-D array of x > 0, with relative error estimates.

    ``order`` is one order for every x, or, with ``which``, a sequence of
    orders: x[i] is then at order ``order[which[i]]``.  Each point gets the
    bits a one-point call at its order gives, whatever orders share the
    call.

    The estimates are honest about oscillatory cancellation: in the
    imaginary-order regime where double precision cannot deliver the value
    (mu large, x moderate) they grow toward and beyond 1.  A point that
    cannot be evaluated is NaN (not converged, or at real order an x so
    small that its node range leaves double range) or inf (K overflows
    doubles), with an infinite estimate; x > 745 gives (0, 0).

    Raises:
        DomainError: when any x is not positive and finite.
        AccuracyError: for an imaginary order with pi mu > 700 (sinh(pi mu)
            overflows) that has an x at or below 745; the first such order
            of the sequence is named.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("bessel_k_values: x must be a 1-D array")
    bad = ~(np.isfinite(x) & (x > 0.0))
    if bad.any():
        raise DomainError(
            f"bessel_k: x must be positive and finite, got {float(x[bad][0])!r}"
        )
    if which is None:
        orders, which = [order], np.zeros(len(x), dtype=np.intp)
    else:
        orders, which = order, np.asarray(which, dtype=np.intp)
        if which.shape != x.shape:
            raise ValueError("bessel_k_values: which must name one order per x")
    mags = np.array([o.magnitude for o in orders], dtype=float)
    # Order 0 of either kind is the real order 0.
    oscillating = np.array(
        [o.kind is OrderKind.IMAGINARY and o.magnitude != 0.0 for o in orders], dtype=bool
    )
    values = np.zeros(len(x))
    rel = np.zeros(len(x))
    live = x <= _X_UNDERFLOW
    nu = mags[which]
    imag = live & oscillating[which]
    real = live & ~imag
    series = real & (x <= _REAL_SERIES_X_MAX) & (nu <= _REAL_SERIES_NU_MAX)
    series &= np.abs(nu - np.round(nu)) >= _REAL_SERIES_GAP
    if series.any():
        values[series], rel[series] = _real_series(nu[series], x[series])
        series[series] = np.isfinite(values[series]) & np.isfinite(rel[series])
    trap = real & ~series
    if trap.any():
        xs, nus = x[trap], nu[trap]
        t_up, floor = _real_node_ranges(nus, xs)
        values[trap], rel[trap] = _trapezoid(nus, False, xs, t_up, floor)
    if not imag.any():
        return values, rel
    present = np.zeros(len(orders), dtype=bool)
    present[which[imag]] = True
    beyond = np.flatnonzero(present & (math.pi * mags > 700.0))
    if beyond.size:
        raise AccuracyError(
            f"bessel_k: imaginary order {mags[beyond[0]]:g} beyond sinh(pi mu) double range"
        )
    series = imag & (x <= _SERIES_X_MAX)
    if series.any():
        values[series], rel[series] = _imag_series(mags, which[series], x[series])
    trap = imag & ~series
    if trap.any():
        xs = x[trap]
        t_up = np.array([math.acosh(1.0 + 50.0 / v) + 0.25 for v in xs.tolist()])
        floor = 2.0 * _EPS * (xs + 1.0)   # the exponent's rounding at the peak t = 0
        values[trap], rel[trap] = _trapezoid(nu[trap], True, xs, t_up, floor)
    return values, rel


def bessel_k_with_error(order: BesselOrder, x: float) -> tuple[float, float]:
    """K at the given order and x > 0, with a relative error estimate.

    A one-point ``bessel_k_values`` call.

    Raises:
        DomainError: for x <= 0 or non-finite x.
        NonConvergenceError: when the value does not converge, or x is so
            small that its node range leaves double range.
        AccuracyError: when K overflows doubles, or sinh(pi mu) does.
    """
    x = float(x)
    values, rel = bessel_k_values(order, np.array([x]))
    value = float(values[0])
    if math.isnan(value):
        raise NonConvergenceError(
            f"bessel_k: not converged at order "
            f"{order.kind.value}:{order.magnitude:g}, x={x:g}"
        )
    if math.isinf(value):
        raise AccuracyError(
            f"bessel_k: K at order {order.kind.value}:{order.magnitude:g}, "
            f"x={x:g} exceeds double range"
        )
    return value, float(rel[0])
