"""Riemann zeta for complex arguments via Euler-Maclaurin summation.

The Euler-Maclaurin tail is applied on Re s >= 1/2, where the partial sums
carry no catastrophic cancellation; the left half-plane is reached through
the reflection formula

    zeta(s) = chi(s) zeta(1-s),
    chi(s)  = 2^s pi^(s-1) sin(pi s / 2) Gamma(1 - s),

with chi evaluated in log space so large |Im s| cannot overflow the sine.

Truncation point and correction order adapt to |s|; the hard caps are
exported as ``EM_TERMS_CAP`` / ``EM_ORDER_CAP`` so batch reports can record
them.

``zeta`` takes one point.  ``euler_maclaurin_zeta`` takes a 1-D array of
points with Re s >= 0, the form Hardy's Z uses on the critical line: it
sorts them by truncation point N and forms the head sums in blocks of at
most ``RS_BLOCK`` terms, each point summed over exactly its own N - 1
terms, so a point's head sum has the same bits as ``zeta``'s whatever
points share its call.  The correction series then runs for all points
in lockstep, each with its own stopping test.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from ..errors import NonConvergenceError, PoleError
from .gamma import _log_sin_pi, log_gamma

EM_ORDER_CAP = 30       # number of B_{2k}/(2k)! correction terms kept
EM_TERMS_CAP = 200_000  # hard cap on the truncation point N

#: Elements per block of the array paths: heights of the Riemann-Siegel path
#: in xi.py; here terms of the Euler-Maclaurin head sums (a head sum longer
#: than the block, N > RS_BLOCK, is a block of its own) and corrections
#: (EM_ORDER_CAP + 1 per point).  Temporaries then do not grow with the array.
RS_BLOCK = 4096


def _bernoulli_over_factorial(count: int) -> tuple[float, ...]:
    """B_{2k}/(2k)! for k = 1..count, computed exactly then rounded once."""
    n_max = 2 * count
    bern = [Fraction(0)] * (n_max + 1)
    bern[0] = Fraction(1)
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        binom = 1  # C(m+1, j), updated after each use
        for j in range(m):
            acc += binom * bern[j]
            binom = binom * (m + 1 - j) // (j + 1)
        bern[m] = -acc / (m + 1)
    out = []
    fact = Fraction(1)
    for n in range(1, n_max + 1):
        fact *= n
        if n % 2 == 0:
            out.append(float(bern[n] / fact))
    return tuple(out)


_B2K_OVER_FACT = _bernoulli_over_factorial(EM_ORDER_CAP)
_B2K_ARRAY = np.array(_B2K_OVER_FACT)

# Cached log(n) table, grown on demand; read-mostly and rebuilt atomically,
# so concurrent readers always see a consistent array.
_LOG_TABLE = np.log(np.arange(1, 257, dtype=np.float64))


def _logs_up_to(n: int) -> np.ndarray:
    global _LOG_TABLE
    if n > _LOG_TABLE.size:
        size = 1 << max(8, (n - 1).bit_length())
        _LOG_TABLE = np.log(np.arange(1, size + 1, dtype=np.float64))
    return _LOG_TABLE[:n]


def em_truncation(s):
    """Truncation point N used by the Euler-Maclaurin sum at s.

    ``s`` is a complex, or an array of them for an int64 array of N; both
    take |s| from hypot and round it up the same way.
    """
    if isinstance(s, np.ndarray):
        n = 24.0 + np.ceil(0.6 * np.abs(s))
        return np.minimum(n, EM_TERMS_CAP).astype(np.int64)
    n = 24 + int(math.ceil(0.6 * abs(s)))
    return min(n, EM_TERMS_CAP)


def _not_converged(s: complex, n: int) -> NonConvergenceError:
    return NonConvergenceError(
        f"zeta: Euler-Maclaurin corrections not converged at s={s!r} "
        f"(N={n}, order cap {EM_ORDER_CAP})"
    )


def _zeta_euler_maclaurin(s: complex) -> complex:
    n = em_truncation(s)
    logs = _logs_up_to(n - 1)
    # sum_{k=1}^{N-1} k^{-s}
    head = complex(np.sum(np.exp(-s * logs)))

    log_n = math.log(n)
    n_minus_s = cmath.exp(-s * log_n)
    total = head + n_minus_s * (0.5 + float(n) / (s - 1.0))

    # Correction terms: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{1-s-2k}
    rising = s               # s(s+1)...(s+2k-2), updated incrementally
    n_pow = n_minus_s / n    # N^{-s-2k+1}
    scale = abs(total)
    for k in range(1, EM_ORDER_CAP + 1):
        term = _B2K_OVER_FACT[k - 1] * rising * n_pow
        total += term
        if abs(term) <= 1e-18 * max(scale, abs(total)):
            return total
        rising *= (s + (2 * k - 1)) * (s + 2 * k)
        n_pow /= float(n) * float(n)
    raise _not_converged(s, n)


def euler_maclaurin_zeta(s: np.ndarray) -> np.ndarray:
    """zeta at a 1-D complex array of points with Re s >= 0, in their order.

    The array form of ``zeta``'s Euler-Maclaurin branch (module docstring):
    the same truncation points, head sums with the same bits, and the
    same correction series and stopping test, evaluated on arrays.

    Raises:
        PoleError: at a non-finite point.
        NonConvergenceError: naming the first point, in the order of ``s``,
            whose correction series does not converge.
    """
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise PoleError(f"zeta: non-finite argument {complex(s[bad[0]])!r}")
    n = em_truncation(s)
    order = np.argsort(-n, kind="stable")
    s_sorted, n = s[order], n[order]
    n_list = n.tolist()
    # group_end[i]: one past the last sorted point with the N of point i.
    group_end = np.searchsorted(-n, -n, side="right").tolist()

    # sum_{k=1}^{N-1} k^{-s}, a block of rows at a time.  Rows are formed
    # as wide as the block's first (largest) N, but each run of equal N is
    # summed over its own N - 1 columns only: numpy sums along a row the
    # same way as over the 1-D array of ``zeta``.
    total = np.empty(s.size, dtype=np.complex128)
    logs = _logs_up_to(n_list[0] - 1) if n_list else None
    start = 0
    while start < s.size:
        width = n_list[start] - 1
        stop = min(s.size, start + max(1, RS_BLOCK // width))
        terms = np.exp(-s_sorted[start:stop, None] * logs[:width])
        row = start
        while row < stop:
            end = min(stop, group_end[row])
            total[row:end] = terms[row - start : end - start, : n_list[row] - 1].sum(
                axis=1
            )
            row = end
        start = stop

    n = n.astype(np.float64)
    n_minus_s = np.exp(-s_sorted * np.array([math.log(k) for k in n_list]))
    total += n_minus_s * (0.5 + n / (s_sorted - 1.0))

    # The correction terms of ``_zeta_euler_maclaurin``, all EM_ORDER_CAP of
    # them for a block of points at once, formed and summed in the order of
    # its loop; each point's series stops at its own first term that passes
    # the loop's test.  Terms past that point may overflow; none is used.
    rows = RS_BLOCK // (EM_ORDER_CAP + 1)
    two_k = np.arange(2, 2 * EM_ORDER_CAP, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, s.size, rows):
            block = slice(start, start + rows)
            s_b, n_b, head = s_sorted[block, None], n[block, None], total[block, None]
            factors = np.empty((s_b.size, EM_ORDER_CAP), dtype=np.complex128)
            factors[:, :1] = s_b
            factors[:, 1:] = (s_b + (two_k - 1)) * (s_b + two_k)
            steps = np.empty_like(factors)
            steps[:, :1] = n_minus_s[block, None] / n_b
            steps[:, 1:] = n_b * n_b
            rising = np.cumprod(factors, axis=1)
            terms = _B2K_ARRAY * rising * np.divide.accumulate(steps, axis=1)
            sums = np.cumsum(np.concatenate([head, terms], axis=1), axis=1)[:, 1:]
            stop = np.abs(terms) <= 1e-18 * np.maximum(np.abs(head), np.abs(sums))
            k = stop.argmax(axis=1)
            here = np.arange(s_b.size)
            if not stop[here, k].all():
                first = int(order[start + np.flatnonzero(~stop[here, k])].min())
                point = complex(s[first])
                raise _not_converged(point, em_truncation(point))
            total[block] = sums[here, k]
    values = np.empty_like(total)
    values[order] = total
    return values


def _log_chi(s: complex) -> complex:
    return (
        s * math.log(2.0)
        + (s - 1.0) * math.log(math.pi)
        + _log_sin_pi(0.5 * s)
        + log_gamma(1.0 - s)
    )


def zeta(s: complex) -> complex:
    """Riemann zeta, analytically continued to the whole plane minus s = 1.

    Raises:
        PoleError: at s = 1.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise PoleError(f"zeta: non-finite argument {s!r}")
    if s == 1.0:
        raise PoleError("zeta: pole at s = 1")
    if s.real >= 0.0:
        # Euler-Maclaurin partial sums stay cancellation-free down to the
        # imaginary axis; this branch also covers s = 0, which reflection
        # would map onto the pole.
        return _zeta_euler_maclaurin(s)
    # Trivial zeros: sin(pi s / 2) vanishes at negative even integers and
    # the reflected factors are finite there, so return an exact zero.
    if s.imag == 0.0 and s.real == 2.0 * math.floor(s.real / 2.0):
        return complex(0.0)
    return cmath.exp(_log_chi(s)) * _zeta_euler_maclaurin(1.0 - s)
