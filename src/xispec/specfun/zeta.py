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
points share its call.  The correction series then forms all
``EM_ORDER_CAP`` orders for every point in one pass, each point with its
own stopping test.
"""

from __future__ import annotations

import cmath
import math

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


#: B_{2k}/(2k)! for k = 1..EM_ORDER_CAP, each the exact rational rounded once
#: to a double (tests/test_zeta.py recomputes them with Fraction).
_B2K_OVER_FACT = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
    -1.5174548844682903e-35, 3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40, -6.247076741820743e-42, 1.5824030244644914e-43,
    -4.008273685948936e-45, 1.0153075855569557e-46, -2.5718041582418717e-48,
)
_B2K_ARRAY = np.array(_B2K_OVER_FACT)


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
    # sum_{k=1}^{N-1} k^{-s}
    head = complex(np.sum(np.exp(-s * np.log(np.arange(1.0, n)))))

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


def _head_sums(s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """sum_{k=1}^{N-1} k^{-s} at points s whose truncation points n do not
    increase, a block of rows at a time.

    Rows are formed as wide as the block's first (largest) N, but each takes
    the exp of, and sums, its own N - 1 columns only: a masked row sum of a
    prefix adds in the same order as the 1-D sum of ``zeta``.
    """
    total = np.empty(s.size, dtype=np.complex128)
    # np.log gives an element the same bits whatever the array's length, so
    # a row's prefix holds the logs ``zeta`` takes over its own range.
    logs = np.log(np.arange(1.0, n[0])) if s.size else None
    start = 0
    while start < s.size:
        width = int(n[start]) - 1
        rows = slice(start, min(s.size, start + max(1, RS_BLOCK // width)))
        inside = np.arange(width) < n[rows, None] - 1
        terms = -s[rows, None] * logs[:width]
        np.exp(terms, out=terms, where=inside)
        total[rows] = np.add.reduce(terms, axis=1, where=inside)
        start = rows.stop
    return total


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
    total = _head_sums(s_sorted, n)
    n = n.astype(np.float64)
    n_minus_s = np.exp(-s_sorted * np.fromiter(map(math.log, n_list), np.float64, s.size))
    total += n_minus_s * (0.5 + n / (s_sorted - 1.0))

    # All EM_ORDER_CAP correction terms of ``_zeta_euler_maclaurin``, formed
    # and summed in its loop's order, a block of points at a time; each
    # point stops at its own first term that passes the loop's test, and
    # later terms (which may overflow) go unused.
    sums, done = np.empty_like(total), np.empty(s.size, dtype=bool)
    two_k = np.arange(2, 2 * EM_ORDER_CAP, 2)
    step = RS_BLOCK // (EM_ORDER_CAP + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, s.size, step):
            block = slice(start, start + step)
            s_b, n_b, head = s_sorted[block, None], n[block, None], total[block, None]
            factors = np.empty((s_b.size, EM_ORDER_CAP), dtype=np.complex128)
            factors[:, :1] = s_b
            factors[:, 1:] = (s_b + (two_k - 1)) * (s_b + two_k)
            steps = np.empty_like(factors)
            steps[:, :1] = n_minus_s[block, None] / n_b
            steps[:, 1:] = n_b * n_b
            rising = np.cumprod(factors, axis=1)
            terms = _B2K_ARRAY * rising * np.divide.accumulate(steps, axis=1)
            partial = np.cumsum(np.concatenate([head, terms], axis=1), axis=1)[:, 1:]
            stop = np.abs(terms) <= 1e-18 * np.maximum(np.abs(head), np.abs(partial))
            k, here = stop.argmax(axis=1), np.arange(s_b.size)
            sums[block], done[block] = partial[here, k], stop[here, k]
    if not done.all():
        point = complex(s[order[~done].min()])
        raise _not_converged(point, em_truncation(point))
    values = np.empty_like(sums)
    values[order] = sums
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
        NonConvergenceError: from about |Im s| = 5.7e5, where Euler-Maclaurin
            with its truncation point capped at ``EM_TERMS_CAP`` does not converge.
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
