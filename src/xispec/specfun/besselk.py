"""Modified Bessel function K of real and purely imaginary order.

One integral representation serves both branches:

    K_nu(x)    = int_0^inf exp(-x cosh t) cosh(nu t) dt      (real nu)
    K_{i mu}(x) = int_0^inf exp(-x cosh t) cos(mu t)  dt      (imaginary)

evaluated by the trapezoidal rule in t, which is spectrally accurate here
because the integrand already decays double-exponentially.  The real-order
integrand is positive, so that path is accurate at machine level across the
whole working box.

The imaginary-order integrand oscillates, and for small x the integral is
exponentially smaller than its terms; there the ascending series

    K_{i mu}(x) = -pi * Im I_{i mu}(x) / sinh(pi mu)

takes over (the sinh division is exact, so the small scale e^{-pi mu / 2}
costs no cancellation).  Between the two paths there remains a corner
(mu large, x moderate) where double precision cannot reach 1e-10 relative
accuracy; the error estimate reports the achievable level honestly and
``bessel_k`` raises when a requested tolerance cannot be met.

``bessel_k_values`` is the one implementation: it takes a 1-D array of
arguments at one order.  On the imaginary branch it computes the order's
constants once per call, sums the series for the x <= 12 as a polynomial in
q = x^2/4, and runs the trapezoid for the 12 < x <= 745 level by level with
a convergence mask per x; the real branch is a loop over the points.  Every
point's value is bit for bit the term-by-term value of a one-point call.
A point it cannot evaluate comes back non-finite (NaN when not converged,
inf when K overflows) instead of raising, so a caller may ask for points
it will not use.  ``bessel_k_with_error`` and
``bessel_k`` are one-point calls of it that raise for such a point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ..errors import AccuracyError, DomainError, NonConvergenceError
from .gamma import gamma

_EPS = 2.220446049250313e-16
_LOG_2 = math.log(2.0)
# Switch point between the series and the integral on the imaginary branch.
_SERIES_X_MAX = 12.0
_SERIES_TERM_CAP = 500
_TRAP_BASE_STEP = 0.25
_TRAP_LEVEL_CAP = 9
# exp(-x) underflows doubles past this; K_nu(x) <= sqrt(pi/2x) e^{-x}.
_X_UNDERFLOW = 745.0
# Bound on the elements of any 2-D temporary; larger calls go in row blocks.
_BLOCK_ELEMENTS = 8192


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

    @classmethod
    def from_value(cls, nu: float | complex) -> "BesselOrder":
        nu = complex(nu)
        if nu.imag == 0.0:
            return cls.real_order(nu.real)
        if nu.real == 0.0:
            return cls.imaginary_order(nu.imag)
        raise DomainError(
            f"BesselOrder must be purely real or purely imaginary, got {nu!r}"
        )

    @property
    def as_complex(self) -> complex:
        if self.kind is OrderKind.REAL:
            return complex(self.magnitude, 0.0)
        return complex(0.0, self.magnitude)

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


def _k_real(nu: float, x: float) -> tuple[float, float]:
    """(value, relative error estimate) for real order.

    Returns (inf, inf) when K overflows doubles and (nan, inf) when the
    trapezoid does not converge.
    """
    t_star = math.asinh(nu / x) if nu > 0.0 else 0.0

    def ln_g(t: float) -> float:
        lc = 0.0
        if nu > 0.0:
            u = nu * t
            lc = u + math.log1p(math.exp(-2.0 * u)) - _LOG_2
        return -x * math.cosh(t) + lc

    ln_peak = ln_g(t_star)
    if ln_peak > 690.0:
        return math.inf, math.inf
    # For tiny x the integrand stays flat out to t ~ log(2/x); the node range
    # must clear that knee, not just the peak.
    t_up = t_star + 1.0
    while ln_g(t_up) > ln_peak - 46.0 and t_up < 1500.0:
        t_up += 0.5

    def level_nodes(h: float, level: int) -> float:
        t = _trap_nodes(h, t_up, level)
        ln_vals = -x * np.cosh(t)
        if nu > 0.0:
            u = nu * t   # >= 0, so log cosh u = u + log1p(e^{-2u}) - log 2
            ln_vals = ln_vals + (u + np.log1p(np.exp(-2.0 * u)) - _LOG_2)
        vals = np.exp(ln_vals)
        if level == 0:
            vals[0] *= 0.5
        return float(np.add.reduce(vals))

    h = _TRAP_BASE_STEP
    total = h * level_nodes(h, 0)
    for _ in range(_TRAP_LEVEL_CAP):
        h *= 0.5
        new_total = 0.5 * total + h * level_nodes(h, 1)
        diff = abs(new_total - total)
        total = new_total
        if diff <= 1e-14 * abs(total):
            return total, max(diff / max(abs(total), 5e-324), 2.0 * _EPS)
    return math.nan, math.inf


def _imag_series(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending-series path: accurate for x <~ 12 at any desk-scale mu.

    The series is a polynomial in q = x^2/4 whose k-th coefficient is
    r_k / k!, with r_k = 1 / (Gamma(1 + i mu) prod_{j<=k} (j + i mu)) computed
    once per call.  Each x takes its terms up to its own stopping term, in
    the order and rounding of a term-by-term loop: the value at small x is
    exponentially smaller than the terms, and the quadrature's level test
    sees that cancellation noise.
    """
    q = 0.25 * x * x
    s_re, s_im, peak, stopped = _series_sums(q, _series_recips(mu, float(q.max())))
    # math.log: numpy's vector log can differ in the last bit, which the
    # cancellation above would turn into different noise.
    theta = mu * np.fromiter(map(math.log, 0.5 * x), float, len(x))
    im_part = np.cos(theta) * s_im + np.sin(theta) * s_re
    values = -math.pi * im_part / math.sinh(math.pi * mu)
    abs_floor = 4.0 * _EPS * (peak + np.hypot(s_re, s_im))
    with np.errstate(over="ignore"):
        rel = np.maximum(abs_floor / np.maximum(np.abs(im_part), 5e-324), 2.0 * _EPS)
    # Only where the term cap cut a sum short.
    values[~stopped] = math.nan
    rel[~stopped] = math.inf
    return values, rel


def _series_recips(mu: float, q: float) -> np.ndarray:
    """r_0, r_1, ... as far as every q' <= q needs.

    The first term 1e-18 below the largest so far comes no earlier for a
    larger q, and the per-x stopping test is never stricter.
    """
    recips = [1.0 / gamma(complex(1.0, mu))]
    coeff = 1.0
    peak = abs(recips[0])
    for k in range(1, _SERIES_TERM_CAP + 1):
        recips.append(recips[-1] / complex(k, mu))
        coeff *= q / k
        mag = abs(coeff * recips[k])
        peak = max(peak, mag)
        if mag <= 1e-18 * peak:
            break
    return np.array(recips)


def _series_sums(
    q: np.ndarray, recips: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-q partial sum and peak term at its stopping term, and whether it stopped.

    Row blocks keep each 2-D temporary within _BLOCK_ELEMENTS.
    """
    columns = len(recips)
    # Column k holds q^k / k!, built as 1 * (q/1) * ... * (q/k).
    ks = np.arange(0.0, columns)
    ks[0] = math.inf
    s_re, s_im, peak = np.empty(len(q)), np.empty(len(q)), np.empty(len(q))
    stopped = np.empty(len(q), dtype=bool)
    rows = max(1, _BLOCK_ELEMENTS // columns)
    for i in range(0, len(q), rows):
        block = slice(i, i + rows)
        coeff = np.divide.outer(q[block], ks)
        coeff[:, 0] = 1.0
        np.cumprod(coeff, axis=1, out=coeff)
        term_re = coeff * recips.real
        term_im = np.multiply(coeff, recips.imag, out=coeff)
        mags = np.hypot(term_re, term_im)
        sum_re = np.cumsum(term_re, axis=1, out=term_re)
        sum_im = np.cumsum(term_im, axis=1, out=term_im)
        peaks = np.maximum.accumulate(mags, axis=1)
        done = mags <= 1e-18 * (np.hypot(sum_re, sum_im) + peaks)
        done[:, 0] = False
        stop = np.argmax(done, axis=1)
        rows_here = np.arange(len(stop))
        s_re[block] = sum_re[rows_here, stop]
        s_im[block] = sum_im[rows_here, stop]
        peak[block] = peaks[rows_here, stop]
        stopped[block] = done[rows_here, stop]
    return s_re, s_im, peak, stopped


def _imag_trapezoid(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oscillatory integral path: accurate when x is not small against mu^2.

    Each x keeps its own node range, a prefix of the widest one, summed in
    the order a 1-D sum of it uses; it leaves the level loop once its level
    sums agree.
    """
    values = np.full(len(x), math.nan)
    rel = np.full(len(x), math.inf)
    t_up = np.array([math.acosh(1.0 + 50.0 / v) + 0.25 for v in x.tolist()])
    index = np.arange(len(x))
    h = _TRAP_BASE_STEP
    s, a = _trap_sums(mu, x, t_up, h, level=0)
    totals, abs_totals = h * s, h * a
    for _ in range(_TRAP_LEVEL_CAP):
        h *= 0.5
        s, a = _trap_sums(mu, x, t_up, h, level=1)
        new_totals = 0.5 * totals + h * s
        abs_totals = 0.5 * abs_totals + h * a
        diff = np.abs(new_totals - totals)
        # Roundoff floor of the level sums; level-to-level jitter of a
        # cancelled sum sits a small factor above eps * sum(|terms|).
        noise = 2e-15 * abs_totals
        conv = diff <= np.maximum(1e-14 * np.abs(new_totals), noise)
        with np.errstate(over="ignore"):
            rel_err = (0.5 * diff + noise) / np.maximum(np.abs(new_totals), 5e-324)
        values[index[conv]] = new_totals[conv]
        rel[index[conv]] = np.maximum(rel_err[conv], 2.0 * _EPS)
        keep = ~conv
        if not keep.any():
            break
        x, t_up, index = x[keep], t_up[keep], index[keep]
        totals, abs_totals = new_totals[keep], abs_totals[keep]
    return values, rel


def _trap_sums(
    mu: float, x: np.ndarray, t_up: np.ndarray, h: float, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-x sums of exp(-x cosh t) cos(mu t), and of its magnitude, over t.

    Row x runs over ``_trap_nodes(h, t_up[x], level)``, a prefix of the
    widest row's nodes; a masked row sum of a prefix adds in the same order
    as a 1-D sum of it.
    """
    t = _trap_nodes(h, float(t_up.max()), level)
    start, stride = (0.0, h) if level == 0 else (h, 2.0 * h)
    counts = np.ceil((t_up + h - start) / stride)   # np.arange's length rule
    columns = np.arange(len(t))
    cosh_t = np.cosh(t)
    weights = np.cos(mu * t)
    if level == 0:
        weights[0] *= 0.5
    s, a = np.empty(len(x)), np.empty(len(x))
    rows = max(1, _BLOCK_ELEMENTS // len(t))
    for i in range(0, len(x), rows):
        block = slice(i, i + rows)
        inside = columns < counts[block, None]
        vals = np.exp(np.multiply.outer(-x[block], cosh_t))
        vals *= weights
        s[block] = np.add.reduce(vals, axis=1, where=inside)
        a[block] = np.add.reduce(np.abs(vals, out=vals), axis=1, where=inside)
    return s, a


def bessel_k_values(order: BesselOrder, x) -> tuple[np.ndarray, np.ndarray]:
    """K at one order over a 1-D array of x > 0, with relative error estimates.

    The estimates are honest about oscillatory cancellation: in the
    imaginary-order regime where double precision cannot deliver the value
    (mu large, x moderate) they grow toward and beyond 1.  A point that
    cannot be evaluated is NaN (not converged) or inf (K overflows doubles),
    with an infinite estimate; x > 745 gives (0, 0).

    Raises:
        DomainError: when any x is not positive and finite.
        AccuracyError: for an imaginary order with pi mu > 700 (sinh(pi mu)
            overflows), unless every x is above 745.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("bessel_k_values: x must be a 1-D array")
    bad = ~(np.isfinite(x) & (x > 0.0))
    if bad.any():
        raise DomainError(
            f"bessel_k: x must be positive and finite, got {float(x[bad][0])!r}"
        )
    if order.kind is OrderKind.REAL or order.magnitude == 0.0:
        pairs = [
            _k_real(order.magnitude, v) if v <= _X_UNDERFLOW else (0.0, 0.0)
            for v in x.tolist()
        ]
        values, rel = np.array(pairs).reshape(-1, 2).T
        return values, rel
    values = np.zeros(len(x))
    rel = np.zeros(len(x))
    live = x <= _X_UNDERFLOW
    mu = order.magnitude
    if live.any() and math.pi * mu > 700.0:
        raise AccuracyError(
            f"bessel_k: imaginary order {mu:g} beyond sinh(pi mu) double range"
        )
    for path, mask in (
        (_imag_series, x <= _SERIES_X_MAX),
        (_imag_trapezoid, live & (x > _SERIES_X_MAX)),
    ):
        if mask.any():
            values[mask], rel[mask] = path(mu, x[mask])
    return values, rel


def bessel_k_with_error(order: BesselOrder, x: float) -> tuple[float, float]:
    """K at the given order and x > 0, with a relative error estimate.

    A one-point ``bessel_k_values`` call.

    Raises:
        DomainError: for x <= 0 or non-finite x.
        NonConvergenceError: when the value does not converge.
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


def bessel_k(order: BesselOrder, x: float, tol: float | None = None) -> float:
    """Modified Bessel K; real-valued on both order branches.

    Args:
        order: real or purely imaginary order.
        x: argument, must be positive.
        tol: optional relative tolerance; when given, an estimate above it
            raises instead of returning a degraded value.

    Raises:
        DomainError: for x <= 0.
        AccuracyError: when ``tol`` is given and cannot be met.
    """
    value, err = bessel_k_with_error(order, x)
    if tol is not None and err > tol:
        raise AccuracyError(
            f"bessel_k: relative error estimate {err:.3e} exceeds tol {tol:g} "
            f"at order {order.kind.value}:{order.magnitude:g}, x={x:g}"
        )
    return value
