"""Completed xi function and its critical-line restriction.

The normalization is

    xi(s) = 1/2 * s(s-1) * pi^(-s/2) * Gamma(s/2) * zeta(s),

evaluated as (s-1) * pi^(-s/2) * Gamma(s/2 + 1) * zeta(s) so the factor
s * Gamma(s/2) never meets the Gamma pole at s = 0; the zeta pole at s = 1
is cancelled analytically by treating (s-1)*zeta(s) as a unit.  With this
normalization xi(0) = xi(1) = 1/2, xi is entire, symmetric under s <-> 1-s
and real on the critical line.

``hardy_z`` is the classically rescaled real sign-carrier

    Z(t) = e^{i theta(t)} zeta(1/2 + it),
    theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi,

which shares the critical-line zeros of xi but stays O(1), so sign-change
scanning keeps working where |Xi(t)| ~ e^{-pi t / 4} underflows doubles.

Below ``RS_MIN_T``, Z(t) is the rotated Euler-Maclaurin zeta value, a sum
of about 24 + 0.6 t terms.  From ``RS_MIN_T`` up it uses the Riemann-Siegel
formula (Gabcke 1979) with tau = sqrt(t / 2 pi), N = floor(tau) and
p = tau - N:

    Z(t) = 2 sum_{n<=N} n^{-1/2} cos(theta(t) - t log n)
           + (-1)^{N-1} tau^{-1/2} sum_{j=0..4} C_j(p) tau^{-j},

which needs only N = 28 terms at t = 5000.  Each Riemann-Siegel value
comes with a bound B(t) on its error, the sum of two parts:

    0.017 tau^{-11/2}, Gabcke's remainder bound after C4 for t >= 200
        (Gabcke 1979; the constants are tabulated in Gourdon 2004, sec. 2);
    2 (2 sqrt(N) - 1) * 2^-50 t (1 + log(t / 2 pi)), which bounds the
        rounding error of the cos arguments theta(t) - t log n, theta's
        series and the rest of the arithmetic, weighted by the
        2 sum n^{-1/2} <= 2 (2 sqrt(N) - 1) they enter the sum with.

B is 1.3e-6 at t = 200, 2.8e-8 at 800 and 8.3e-10 at 5000, and at least
30 times the error measured against mpmath at 2,003 heights in [200, 6000].
So from t = 200 up, Z values are accurate to B(t), not to the 1e-12 or so
of Euler-Maclaurin.  ``hardy_z_paths`` gives, at a 1-D array of heights,
the values, their bounds (0.0 for Euler-Maclaurin, the reference) and a
path code per point: ``Z_EULER_MACLAURIN`` below ``RS_MIN_T``, ``Z_DOUBT``
where |Z_RS| <= B(t) up to ``EM_MAX_T`` = 5e5, ``Z_RIEMANN_SIEGEL``
elsewhere.  ``hardy_z`` takes Euler-Maclaurin at the ``Z_DOUBT`` points,
so its signs are certain: the doubt rule.  Above ``EM_MAX_T`` the
Euler-Maclaurin correction series stops converging near a zero; no
reference is left and the Riemann-Siegel value stands, sign and all.

``hardy_z`` takes a 1-D array of heights; a scalar height is a one-point
array.  The Riemann-Siegel points are evaluated together, in blocks of
``RS_BLOCK`` points sorted by N, so each point sums only its own N terms.
The Euler-Maclaurin points are evaluated together too: each
``hardy_z_paths`` call makes one ``euler_maclaurin_zeta`` call for its
points below ``RS_MIN_T`` and ``hardy_z`` one more for its ``Z_DOUBT``
points, with theta(t) from the Lanczos form of log Gamma on the same array.

The scalar ``zeta`` and ``xi`` keep their one-point path.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..errors import RealnessError
from .gamma import _LANCZOS_G, _lanczos_sum, gamma
from .zeta import EM_TERMS_CAP, RS_BLOCK, euler_maclaurin_zeta, zeta

_TWO_PI = 2.0 * math.pi

#: Lowest height at which ``hardy_z`` uses Riemann-Siegel: Gabcke's
#: remainder bound for the C0..C4 formula holds from t = 200 on.
RS_MIN_T = 200.0

# The two constants of B(t) (module docstring): Gabcke's d_4 for t >= 200,
# and 2^-50 = 8 unit roundoffs, the rounding error of a cos argument per
# unit of t (1 + log(t / 2 pi)) with a factor of 2 to spare.
_GABCKE_D4 = 0.017
_ARG_ROUNDING = 8.881784197001252e-16

#: Highest height at which Euler-Maclaurin settles a doubtful sign.  With its
#: truncation point capped at N = EM_TERMS_CAP, each correction term shrinks
#: by only about (t / 2 pi N)^2, 0.16 at this height.  Near a zero, where the
#: doubtful points lie, the capped orders stop converging between t = 5.7e5
#: and 5.8e5 and Euler-Maclaurin raises NonConvergenceError.
EM_MAX_T = 2.5 * EM_TERMS_CAP

# Gabcke's C_j(p) as Taylor coefficients in z = p - 1/2.  With
#   Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p),
#   C0 = Psi,
#   C1 = -Psi^(3) / (96 pi^2),
#   C2 = Psi^(2) / (64 pi^2) + Psi^(6) / (18432 pi^4),
#   C3 = -Psi^(1) / (64 pi^2) - Psi^(5) / (3840 pi^4) - Psi^(9) / (5308416 pi^6),
#   C4 = Psi / (128 pi^2) + 19 Psi^(4) / (24576 pi^4)
#        + 11 Psi^(8) / (5898240 pi^6) + Psi^(12) / (2038431744 pi^8).
# C0, C2 and C4 are even in z and listed in powers of z^2; C1 and C3 are odd
# and listed as z times powers of z^2.  Each tuple stops where a term's
# largest value on |z| <= 1/2 falls below 1e-17.
_RS_C = (
    (  # C0
        0.3826834323650898, 1.7489618723100817, 2.118025207685496,
        -0.8707216670511481, -3.4733112243465167, -1.6626947308999325,
        1.216731288919232, 1.3014304161007977, 0.03051102182736167,
        -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
        0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
        -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
        -2.3025650027239108e-05, -9.380006601906792e-06,
    ),
    (  # C1
        -0.053650205256750697, 0.11027818741081483, 1.2317200154315227,
        1.2634964862799458, -1.695108997559503, -2.9998711967650102,
        -0.10819944959899208, 1.9407662946212714, 0.7838423561500687,
        -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
        0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
        -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
        -3.956359669003182e-05, -4.7624592453571896e-05,
    ),
    (  # C2
        0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
        0.14291492748532125, 1.3303391766687565, 0.3522472353403734,
        -2.421001595891951, -1.6760787022538108, 1.3689416723328371,
        1.5539019430222982, -0.1722164273472998, -0.6359068055045431,
        -0.09911649873041208, 0.14033480067387008, 0.04782352019827292,
        -0.017356040641479782, -0.010225012534028593, 0.0009274149159794888,
        0.0013572194372373386, 6.41369012029388e-05, -0.0001230080569819663,
    ),
    (  # C3
        -0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
        -0.28997965779803886, 0.4888831999235446, 1.230855876395746,
        -0.8297560708527408, -2.249763536666567, 0.07845139961005472,
        1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
        -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
        -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
        0.0024243969641103086, 0.000437647697741857, -0.00020714032687001792,
    ),
    (  # C4
        0.00046483389361763383, -0.004022642946136188, 0.003847177051796127,
        0.06581175135809486, -0.19604124343694448, -0.20854053686358853,
        0.9507754185141751, 0.5341535312914873, -1.67634944117634,
        -1.076747157875129, 1.235339301656597, 1.0257825340057276,
        -0.40124095793988546, -0.5036663995108304, 0.03573487795502745,
        0.14431763086785418, 0.01509152741790347, -0.026098874779194363,
        -0.006126628379519262, 0.003077503129870841, 0.0011562478934088753,
        -0.00022775966758472127,
    ),
)

# _RS_C as one Horner table: row i holds the coefficients of w^(21 - i) of
# C0..C4, shorter polynomials padded with leading zeros, which keep their
# partial sums exactly 0.0.  Shape (22, 5, 1), so a row broadcasts over a
# (5, n) array of partial sums.
_RS_HORNER = np.array(
    [[0.0] * (22 - len(c)) + list(reversed(c)) for c in _RS_C]
).T[:, :, None].copy()

# Main-sum terms (n^{-1/2}, log n) for n = 1, 2, ...: grown on demand and
# replaced whole, so concurrent readers always see a consistent tuple.
_RS_TERMS = tuple((1.0 / math.sqrt(n), math.log(n)) for n in range(1, 17))

#: Path codes of ``hardy_z_paths``: how Z at each point was computed.
Z_EULER_MACLAURIN = 0  # below RS_MIN_T
Z_RIEMANN_SIEGEL = 1  # a certain sign, or any sign above EM_MAX_T
Z_DOUBT = 2  # |Z_RS| <= B(t) at heights up to EM_MAX_T


def xi(s: complex) -> complex:
    """Completed xi function; entire, with xi(0) = xi(1) = 1/2.

    Raises:
        NonConvergenceError: as ``zeta`` does, from about |Im s| = 5.7e5.
    """
    s = complex(s)
    if s == 1.0:
        pole_unit = complex(1.0)  # lim (s-1) zeta(s)
    else:
        pole_unit = (s - 1.0) * zeta(s)
    return cmath.exp(-0.5 * s * math.log(math.pi)) * gamma(0.5 * s + 1.0) * pole_unit


def xi_critical(t: float) -> float:
    """Xi(t) = xi(1/2 + it): real by the functional equation.

    The imaginary residue of the computed complex value must stay below
    1e-10 * (1 + |Xi(t)|); a violation signals an upstream accuracy bug.

    Raises:
        RealnessError: when the imaginary residue exceeds the bound.
        NonConvergenceError: where ``xi`` raises it, from about t = 5.7e5.
    """
    return _real_part(xi(complex(0.5, float(t))), 1e-10, f"xi_critical({t!r})")


def _real_part(value: complex, rel_bound: float, label: str) -> float:
    bound = rel_bound * (1.0 + abs(value))
    if abs(value.imag) > bound:
        raise RealnessError(
            f"{label}: imaginary residue {value.imag:.3e} exceeds bound {bound:.3e}"
        )
    return value.real


def theta_series(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
    """theta(t) on an array of heights from its asymptotic series, given
    ``log_t`` = log(t / 2 pi).

    The first term left out, 127 / (430080 t^7), is below 1e-18 for
    t >= RS_MIN_T and 4e-11 at t = 9.6; the series is much cheaper than
    log Gamma.  It is accurate only where theta increases, t above about 6.3.
    """
    inv2 = 1.0 / (t * t)
    return (
        0.5 * t * log_t - 0.5 * t - 0.125 * math.pi
        + (1.0 / 48.0 + inv2 * (7.0 / 5760.0 + inv2 * (31.0 / 80640.0))) / t
    )


def _rs_terms(n: int) -> tuple[tuple[float, float], ...]:
    global _RS_TERMS
    terms = _RS_TERMS
    if n > len(terms):
        size = 1 << (n - 1).bit_length()
        terms = tuple((1.0 / math.sqrt(k), math.log(k)) for k in range(1, size + 1))
        _RS_TERMS = terms
    return terms


def _hardy_z_riemann_siegel(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Riemann-Siegel formula of the module docstring on an array of heights.

    Returns the values and their error bounds B(t).  The points are sorted
    by N, largest first, so term k of the main sum is added only to the
    prefix of points with N >= k; the results are returned in the order of
    ``t``.
    """
    tau = np.sqrt(t / _TWO_PI)
    n = tau.astype(np.int64)
    order = np.argsort(-n, kind="stable")
    t, tau, n = t[order], tau[order], n[order]
    # math.log, not np.log: theta multiplies the log by t / 2, so numpy's
    # occasional 1-ulp difference would move Z by up to 1e-12 at t = 5000.
    log_t = np.fromiter(map(math.log, (t / _TWO_PI).tolist()), np.float64, t.size)
    theta = theta_series(t, log_t)
    n_max = int(n[0])
    # reach[k - 1] = number of points with N >= k, a prefix of the sorted points.
    reach = np.searchsorted(-n, -np.arange(1, n_max + 1), side="right")
    main = np.zeros_like(t)
    for (inv_sqrt, log_k), m in zip(_rs_terms(n_max), reach):
        main[:m] += inv_sqrt * np.cos(theta[:m] - t[:m] * log_k)

    z = tau - n - 0.5
    w = z * z
    c = np.zeros((5, t.size))
    for row in _RS_HORNER:  # C0..C4 in w, in one pass
        c *= w
        c += row
    c[1::2] *= z
    inv_tau = 1.0 / tau
    correction = np.zeros_like(t)
    for c_j in c[::-1]:
        correction = correction * inv_tau + c_j
    sign = np.where(n % 2 == 1, 1.0, -1.0)  # (-1)^(N-1)
    values = np.empty_like(t)
    values[order] = 2.0 * main + sign * correction / np.sqrt(tau)
    bounds = np.empty_like(t)
    bounds[order] = (4.0 * np.sqrt(n) - 2.0) * (_ARG_ROUNDING * t) * (
        1.0 + log_t
    ) + _GABCKE_D4 * tau**-5.5
    return values, bounds


def _hardy_z_euler_maclaurin(t: np.ndarray) -> np.ndarray:
    """Z = e^{i theta(t)} zeta(1/2 + it) on an array of heights, each checked real.

    theta(t) is Im log Gamma(1/4 + it/2) - (t/2) log pi with log Gamma in
    the form ``log_gamma`` takes there: log Gamma(z + 1) - log z, Lanczos
    for the first term.  Its rounding moves Z only to second order, since
    the rotated value is real.
    """
    if t.size == 0:  # most refinement steps have no such point
        return np.empty(0)
    s = np.empty(t.size, dtype=np.complex128)
    s.real, s.imag = 0.5, t  # 1j * t would make the real part of 1j * inf NaN
    zeta_values = euler_maclaurin_zeta(s)
    z = 0.25 + 0.5j * t
    shifted = z + (_LANCZOS_G + 0.5)
    log_gamma_im = (
        ((z + 0.5) * np.log(shifted)).imag
        - shifted.imag
        + np.angle(_lanczos_sum(z + 1.0))
        - np.angle(z)
    )
    theta = log_gamma_im - 0.5 * t * math.log(math.pi)
    values = np.exp(1j * theta) * zeta_values
    for i in np.flatnonzero(np.abs(values.imag) > 1e-8 * (1.0 + np.abs(values)))[:1]:
        _real_part(complex(values[i]), 1e-8, f"hardy_z({float(t[i])!r})")
    return values.real


def hardy_z(t: float | np.ndarray) -> float | np.ndarray:
    """Hardy's Z(t): real, O(1), with the same critical-line zeros as Xi.

    Xi(t) = -(t^2 + 1/4)/2 * pi^(-1/4) * |Gamma(1/4 + it/2)| * Z(t), so
    sign(Xi(t)) = -sign(Z(t)).  ``hardy_z_paths`` with Euler-Maclaurin at
    its ``Z_DOUBT`` points (see the module docstring), so every sign is
    certain up to EM_MAX_T; Riemann-Siegel values are accurate to their
    bound B(t).  A 1-D numpy array of heights gives the array of Z values;
    a scalar height is evaluated as a one-point array and gives a float.

    Raises:
        RealnessError: when the rotated zeta value fails to be real.
    """
    array = isinstance(t, np.ndarray) and t.ndim == 1
    heights = t if array else np.array([float(t)])
    values, _, paths = hardy_z_paths(heights)
    doubt = paths == Z_DOUBT
    values[doubt] = _hardy_z_euler_maclaurin(heights[doubt])
    return values if array else float(values[0])


def hardy_z_paths(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z at a 1-D array of heights before the doubt rule: values, bounds, paths.

    Riemann-Siegel values from RS_MIN_T up, each with its bound B(t);
    Euler-Maclaurin values below it, with bound 0.0.  ``paths`` holds
    ``Z_DOUBT`` where a Riemann-Siegel sign is in doubt, |Z| <= B(t) at
    heights up to EM_MAX_T: exactly the points at which ``hardy_z`` takes
    Euler-Maclaurin instead.  Every other Riemann-Siegel point is
    ``Z_RIEMANN_SIEGEL``, its sign certain except where |Z| <= B above
    EM_MAX_T, and the rest ``Z_EULER_MACLAURIN``.

    Raises:
        RealnessError: when the rotated zeta value fails to be real.
    """
    t = t.astype(np.float64, copy=False)
    values = np.empty_like(t)
    bounds = np.zeros_like(t)
    rs = (t >= RS_MIN_T) & (t < math.inf)
    values[~rs] = _hardy_z_euler_maclaurin(t[~rs])
    rs_index = np.flatnonzero(rs)
    for start in range(0, rs_index.size, RS_BLOCK):
        block = rs_index[start : start + RS_BLOCK]
        values[block], bounds[block] = _hardy_z_riemann_siegel(t[block])
    paths = np.where(rs, Z_RIEMANN_SIEGEL, Z_EULER_MACLAURIN)
    paths[rs & ~(np.abs(values) > bounds) & (t <= EM_MAX_T)] = Z_DOUBT
    return values, bounds, paths
