"""Modified Bessel function K of real and purely imaginary order.

One integral representation serves both branches:

    K_nu(x)    = int_0^inf exp(-x cosh t) cosh(nu t) dt      (real nu)
    K_{i mu}(x) = int_0^inf exp(-x cosh t) cos(mu t)  dt      (imaginary)

evaluated by the trapezoidal rule in t, which is spectrally accurate here
because the integrand already decays double-exponentially.  One level loop
serves both: a real order adds log cosh(nu t) to the exponent, an imaginary
one multiplies by cos(mu t).  The real-order integrand is positive, so that
path is accurate at machine level across the whole working box.

The imaginary-order integrand oscillates, and for small x the integral is
exponentially smaller than its terms; there the ascending series

    K_{i mu}(x) = -pi * Im I_{i mu}(x) / sinh(pi mu)

takes over (the sinh division is exact, so the small scale e^{-pi mu / 2}
costs no cancellation).  Between the two paths there remains a corner
(mu large, x moderate) where double precision cannot reach 1e-10 relative
accuracy; the error estimate reports the achievable level honestly, and a
caller compares it with its own tolerance.  The trapezoid's estimate is at
least the rounding of the exponent -x cosh t + log cosh(nu t) at the
integrand's peak.

``bessel_k_values`` is the one implementation: it takes a 1-D array of
arguments at one order, or an order per argument.  On the imaginary
branch the order's constants 1/Gamma(1 + i mu) and 1/prod (k + i mu) come
from a per-order table that grows on demand, and the series for the
x <= 12 of all orders is a polynomial in q = x^2/4, in row blocks of the
largest q first that form only the terms their rows need.  The
trapezoid, for the imaginary order's 12 < x <= 745 and the real order's
x <= 745, runs level by level with a convergence mask per x; each x keeps
its own order and node range, and rows of different orders share row
blocks, each with its own weight.  It sorts the x widest range first,
once, so each row block forms only the nodes of its first row; at real
order it exponentiates only the nodes a row sums.  The real order's range
comes from a closed-form estimate of where the integrand has fallen e^-46
below its peak, confirmed by the log-integrand on both sides.  Every
point's value is bit for bit the term-by-term value of a
one-point call.  A point it cannot evaluate comes back non-finite (NaN
when not converged or when its node range would leave double range,
inf when K overflows) instead of raising, so a caller may ask for points
it will not use.  ``bessel_k_with_error`` is a one-point call of it that
raises for such a point.
"""

from __future__ import annotations

import enum
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
_SERIES_TERM_CAP = 500
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
    table.  Each order takes as many coefficients as its largest q in
    this call needs, and each x its terms up to its own stopping term, in
    the order and rounding of a term-by-term loop: the value at small x is
    exponentially smaller than the terms, and the quadrature's level test
    sees that cancellation noise.
    """
    q = 0.25 * x * x
    # Renumber the orders present (np.unique would import numpy.ma).
    present = np.zeros(len(mus), dtype=bool)
    present[ids] = True
    mus = mus[present]
    renumber = np.zeros(len(present), dtype=np.intp)
    renumber[present] = np.arange(len(mus))
    ids = renumber[ids]
    q_top = np.zeros(len(mus))
    np.maximum.at(q_top, ids, q)
    counts = _series_columns(mus, q_top)
    # An order's row past its own coefficients is NaN: no x can stop there.
    re = np.full((len(mus), int(counts.max())), math.nan)
    im = np.full_like(re, math.nan)
    for row, (mu, count) in enumerate(zip(mus.tolist(), counts.tolist())):
        recips = _series_recips(mu, count)
        re[row, :count], im[row, :count] = recips.real, recips.imag
    s_re, s_im, peak, stopped = _series_sums(q, re, im, ids)
    # math.log: numpy's vector log can differ in the last bit, which the
    # cancellation above would turn into different noise.
    theta = mus[ids] * np.fromiter(map(math.log, 0.5 * x), float, len(x))
    im_part = np.cos(theta) * s_im + np.sin(theta) * s_re
    sinh = np.array([math.sinh(math.pi * mu) for mu in mus.tolist()])
    values = -math.pi * im_part / sinh[ids]
    abs_floor = 4.0 * _EPS * (peak + np.hypot(s_re, s_im))
    with np.errstate(over="ignore"):
        rel = np.maximum(abs_floor / np.maximum(np.abs(im_part), 5e-324), 2.0 * _EPS)
    # Only where the term cap cut a sum short.
    values[~stopped] = math.nan
    rel[~stopped] = math.inf
    return values, rel


# r_0, r_1, ... by order mu, as far as any call has needed them.  An entry
# is only replaced whole, by a longer one with the same first terms, so a
# reader always sees a prefix of the one sequence.
_RECIPS: dict[float, np.ndarray] = {}
# The table is dropped whole when it holds this many orders.
_RECIPS_ORDERS_MAX = 1024


def _series_recips(mu: float, count: int) -> np.ndarray:
    """r_0 ... r_{count-1} of order mu, from its table, extended as needed."""
    known = _RECIPS.get(mu)
    if known is None or len(known) < count:
        recips = [1.0 / gamma(complex(1.0, mu))] if known is None else known.tolist()
        for k in range(len(recips), count):
            recips.append(recips[-1] / complex(k, mu))
        if len(_RECIPS) >= _RECIPS_ORDERS_MAX:
            _RECIPS.clear()
        known = _RECIPS[mu] = np.array(recips)
    return known[:count]


def _series_columns(mus: np.ndarray, q_top: np.ndarray) -> np.ndarray:
    """Per order, the coefficients r_0, r_1, ... its largest q needs.

    Up to the first term 1e-18 below the largest so far, at q_top, or
    _SERIES_TERM_CAP: it comes no earlier for a larger q, and the per-x
    stopping test is never stricter.  The terms are those of a
    term-by-term loop, formed a block of orders at a time.
    """
    counts = np.full(len(mus), _SERIES_TERM_CAP + 1)
    todo = np.arange(len(mus))
    # 64 columns serve every x <= 12 (29 at most, at q = 36 and mu near 0);
    # the term cap is the second pass.
    for width in (64, _SERIES_TERM_CAP + 1):
        ks = np.arange(0.0, width)
        ks[0] = math.inf
        missed = []
        rows = max(1, _BLOCK_ELEMENTS // width)
        for i in range(0, len(todo), rows):
            block = todo[i:i + rows]
            recips = np.array([_series_recips(mu, width) for mu in mus[block].tolist()])
            coeff = np.divide.outer(q_top[block], ks)
            coeff[:, 0] = 1.0
            np.cumprod(coeff, axis=1, out=coeff)
            mags = np.hypot(coeff * recips.real, coeff * recips.imag)
            small = mags <= 1e-18 * np.maximum.accumulate(mags, axis=1)
            small[:, 0] = False
            found = small.any(axis=1)
            counts[block[found]] = np.argmax(small[found], axis=1) + 1
            missed.append(block[~found])
        todo = np.concatenate(missed)
        if not todo.size:
            break
    return counts


def _series_sums(
    q: np.ndarray, re: np.ndarray, im: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-q partial sum and peak term at its stopping term, and whether it stopped.

    Row i sums the coefficients re[ids[i]] + i im[ids[i]].  Most x stop
    long before the last coefficient, so rows go largest q first, in row
    blocks of at most _BLOCK_ELEMENTS, and a block forms only as many
    columns as the block before it needed (the first block all of them).
    A row that has not stopped within its block's columns, while its
    order has more, is summed again over all of them.  A row's sums up to
    its stopping term do not depend on the columns past it.
    """
    columns = re.shape[1]
    out = (np.empty(len(q)), np.empty(len(q)), np.empty(len(q)), np.empty(len(q), dtype=bool))
    rows = np.argsort(-q, kind="stable")
    width, again = columns, []
    while rows.size:
        count = max(1, _BLOCK_ELEMENTS // width)
        block, rows = rows[:count], rows[count:]
        *sums, stop = _series_block(q[block], re, im, ids[block], width)
        for part, value in zip(out, sums):
            part[block] = value
        stopped = sums[-1]
        if width < columns:
            again.append(block[~stopped & ~np.isnan(re[ids[block], width])])
        # The rows to come have smaller q, so they need about as many
        # columns as the last quarter of this block did.
        tail = slice(-max(1, len(block) // 4), None)
        width = int(stop[tail].max()) + 1 if stopped[tail].all() else columns
    redo = np.concatenate(again) if again else rows
    step = max(1, _BLOCK_ELEMENTS // columns)
    for block in (redo[i:i + step] for i in range(0, len(redo), step)):
        for part, value in zip(out, _series_block(q[block], re, im, ids[block], columns)):
            part[block] = value
    return out


def _series_block(
    q: np.ndarray, re: np.ndarray, im: np.ndarray, ids: np.ndarray, width: int
) -> tuple[np.ndarray, ...]:
    """``_series_sums`` of some rows over the first ``width`` columns, and
    each row's stopping column."""
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
    return (sum_re[rows, stop], sum_im[rows, stop], peaks[rows, stop],
            done[rows, stop], stop)


def _ln_g(nu: float, x: float, t: float) -> float:
    """The real-order log-integrand -x cosh t + log cosh(nu t); -inf past cosh's range."""
    try:
        cosh_t = math.cosh(t)
    except OverflowError:
        return -math.inf
    u = nu * t   # >= 0, so log cosh u = u + log1p(e^{-2u}) - log 2
    return -x * cosh_t + (u + math.log1p(math.exp(-2.0 * u)) - _LOG_2)


def _real_node_range(nu: float, x: float) -> tuple[float, float]:
    """(t_up, estimate floor) of one x at real order.

    t_up is the first of t* + 1, t* + 1.5, ... (summed 0.5 at a time) where
    ln g has fallen 46 below its peak at t* = asinh(nu/x).  An estimate of
    that crossing picks the step, and ln g on both sides of it confirms it.
    t_up is inf where K overflows, and nan where the range would pass the
    overflow of cosh t (tiny x), where the exponent cannot be formed.  The
    floor is the rounding of the exponent at the peak.
    """
    t_star = math.asinh(nu / x)
    if t_star == math.inf:   # nu/x overflows
        return math.nan, math.inf
    ln_peak = _ln_g(nu, x, t_star)
    floor = 2.0 * _EPS * (x * math.cosh(t_star) + nu * t_star + 1.0)
    if ln_peak > 690.0:
        return math.inf, floor
    # For tiny x the integrand stays flat out to t ~ log(2/x); the node range
    # must clear that knee, not just the peak.  Past t* ln g falls
    # monotonically; solving x cosh t = nu (t* + 1) - low, with log cosh(nu t)
    # taken as nu t at t* + 1, lands on or next to the crossing's step.  The
    # steps are summed 0.5 at a time once; ln g walks back over them while
    # it is below the crossing, then forward while it is above.
    low = ln_peak - 46.0
    t_first = t_star + 1.0
    ratio = (nu * t_first - low) / x
    t_cross = math.acosh(ratio) if ratio > 1.0 else t_first
    if t_cross > _T_COSH_MAX:
        t_cross = _T_COSH_MAX
    steps = max(0, math.ceil(2.0 * (t_cross - t_first)))
    nodes = [t_first]
    for _ in range(steps):
        nodes.append(nodes[-1] + 0.5)
    while steps > 0 and _ln_g(nu, x, nodes[steps - 1]) <= low:
        steps -= 1
    t_up = nodes[steps]
    ln_up = _ln_g(nu, x, t_up)
    while ln_up > low:
        t_up += 0.5
        ln_up = _ln_g(nu, x, t_up)
    if ln_up == -math.inf:
        return math.nan, math.inf
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
    ranges = t_up.tolist()
    index = sorted(
        (i for i, t in enumerate(ranges) if t < math.inf), key=ranges.__getitem__, reverse=True
    )
    if not index:
        return values, rel
    index = np.array(index)
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
    if real.any():
        xs, nus = x[real], nu[real]
        t_up, floor = np.array(
            [_real_node_range(n, v) for n, v in zip(nus.tolist(), xs.tolist())]
        ).reshape(-1, 2).T
        values[real], rel[real] = _trapezoid(nus, False, xs, t_up, floor)
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
