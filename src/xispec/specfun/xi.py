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

Below ``RS_MIN_T``, and at every height for ``depth=2`` (the oracle),
Z(t) is the rotated Euler-Maclaurin zeta value, a sum of about 24 + 0.6 t
terms.  From ``RS_MIN_T`` up, ``depth=1`` uses the Riemann-Siegel formula
(Gabcke 1979) with tau = sqrt(t / 2 pi), N = floor(tau) and p = tau - N:

    Z(t) = 2 sum_{n<=N} n^{-1/2} cos(theta(t) - t log n)
           + (-1)^{N-1} tau^{-1/2} sum_{j=0..4} C_j(p) tau^{-j},

which needs only N = 28 terms at t = 5000.

``hardy_z`` also takes a 1-D array of heights.  Its Riemann-Siegel points
are then evaluated together, in blocks of ``RS_BLOCK`` points, with the
same terms and coefficients as the scalar formula; its Euler-Maclaurin
points go through the scalar code one at a time.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..errors import RealnessError
from .gamma import gamma, log_gamma
from .zeta import em_truncation, zeta

_QUARTER_LOG_PI = 0.25 * math.log(math.pi)
_TWO_PI = 2.0 * math.pi

#: Lowest height at which ``hardy_z`` (depth 1) uses Riemann-Siegel.  Against
#: mpmath.siegelz at t = 700, 700.1, ..., 1000, the C0..C4 formula's error
#: exceeds 1e-10 for the last time at t = 795.0 (9.4e-11 worst from 800 on);
#: sampled windows up to t = 6000 stay below 6.1e-11.
RS_MIN_T = 800.0

#: Heights per block of the array Riemann-Siegel path: each temporary then
#: takes 32 KiB, whatever the length of the array.
RS_BLOCK = 4096

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

# Main-sum terms (n^{-1/2}, log n) for n = 1, 2, ...: grown on demand and
# replaced whole, so concurrent readers always see a consistent tuple.
_RS_TERMS = tuple((1.0 / math.sqrt(n), math.log(n)) for n in range(1, 17))

# Xi(t) = -(t^2 + 1/4)/2 * pi^(-1/4) * |Gamma(1/4 + it/2)| * Z(t), so the
# bracket-to-Xi sign map used by the zero finder is a fixed flip.
XI_SIGN_FROM_Z = -1.0


def xi(s: complex, depth: int = 1) -> complex:
    """Completed xi function; entire, with xi(0) = xi(1) = 1/2."""
    s = complex(s)
    if s == 1.0:
        pole_unit = complex(1.0)  # lim (s-1) zeta(s)
    else:
        pole_unit = (s - 1.0) * zeta(s, depth)
    return cmath.exp(-0.5 * s * math.log(math.pi)) * gamma(0.5 * s + 1.0) * pole_unit


def xi_critical(t: float, depth: int = 1) -> float:
    """Xi(t) = xi(1/2 + it): real by the functional equation.

    The imaginary residue of the computed complex value must stay below
    1e-10 * (1 + |Xi(t)|); a violation signals an upstream accuracy bug.

    Raises:
        RealnessError: when the imaginary residue exceeds the bound.
    """
    value = xi(complex(0.5, float(t)), depth)
    bound = 1e-10 * (1.0 + abs(value))
    if abs(value.imag) > bound:
        raise RealnessError(
            f"xi_critical({t!r}): imaginary residue {value.imag:.3e} "
            f"exceeds bound {bound:.3e}"
        )
    return value.real


def riemann_siegel_theta(t: float) -> float:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, continuous in t."""
    t = float(t)
    return log_gamma(complex(0.25, 0.5 * t)).imag - 0.5 * t * math.log(math.pi)


def _rs_terms(n: int) -> tuple[tuple[float, float], ...]:
    global _RS_TERMS
    terms = _RS_TERMS
    if n > len(terms):
        size = 1 << (n - 1).bit_length()
        terms = tuple((1.0 / math.sqrt(k), math.log(k)) for k in range(1, size + 1))
        _RS_TERMS = terms
    return terms


def _uses_riemann_siegel(t: float, depth: int) -> bool:
    return depth == 1 and RS_MIN_T <= t < math.inf


def _hardy_z_riemann_siegel(t: float) -> float:
    tau = math.sqrt(t / _TWO_PI)
    n = int(tau)
    # theta(t) from its asymptotic series: within 2e-12 of the exact value
    # for t >= RS_MIN_T, and much cheaper than log Gamma.
    inv2 = 1.0 / (t * t)
    theta = (
        0.5 * t * math.log(t / _TWO_PI) - 0.5 * t - 0.125 * math.pi
        + (1.0 / 48.0 + inv2 * (7.0 / 5760.0 + inv2 * (31.0 / 80640.0))) / t
    )
    cos = math.cos
    main = 0.0
    for inv_sqrt, log_k in _rs_terms(n)[:n]:
        main += inv_sqrt * cos(theta - t * log_k)

    z = tau - n - 0.5
    w = z * z
    inv_tau = 1.0 / tau
    correction = 0.0
    for j in range(4, -1, -1):
        c_j = 0.0
        for coeff in reversed(_RS_C[j]):
            c_j = c_j * w + coeff
        if j % 2:
            c_j *= z
        correction = correction * inv_tau + c_j
    sign = 1.0 if n % 2 else -1.0  # (-1)^(N-1)
    return 2.0 * main + sign * correction / math.sqrt(tau)


def _hardy_z_riemann_siegel_block(t: np.ndarray) -> np.ndarray:
    """The scalar formula above, term for term, on an array of heights."""
    tau = np.sqrt(t / _TWO_PI)
    n = tau.astype(np.int64)
    inv2 = 1.0 / (t * t)
    # math.log, not np.log: theta multiplies the log by t / 2, so numpy's
    # occasional 1-ulp difference would move Z by up to 1e-12 at t = 5000.
    log_t = np.fromiter(map(math.log, (t / _TWO_PI).tolist()), np.float64, t.size)
    theta = (
        0.5 * t * log_t - 0.5 * t - 0.125 * math.pi
        + (1.0 / 48.0 + inv2 * (7.0 / 5760.0 + inv2 * (31.0 / 80640.0))) / t
    )
    n_max = int(n.max())
    main = np.zeros_like(t)
    for k, (inv_sqrt, log_k) in enumerate(_rs_terms(n_max)[:n_max], start=1):
        # Points whose sum has ended add 0.0, which leaves them unchanged.
        main += np.where(k <= n, inv_sqrt * np.cos(theta - t * log_k), 0.0)

    z = tau - n - 0.5
    w = z * z
    inv_tau = 1.0 / tau
    correction = np.zeros_like(t)
    for j in range(4, -1, -1):
        c_j = np.zeros_like(t)
        for coeff in reversed(_RS_C[j]):
            c_j = c_j * w + coeff
        if j % 2:
            c_j *= z
        correction = correction * inv_tau + c_j
    sign = np.where(n % 2 == 1, 1.0, -1.0)  # (-1)^(N-1)
    return 2.0 * main + sign * correction / np.sqrt(tau)


def hardy_z_method(t: float, depth: int = 1) -> tuple[str, int]:
    """The formula ``hardy_z(t, depth)`` uses and its number of main-sum terms."""
    t = float(t)
    if _uses_riemann_siegel(t, depth):
        return "riemann-siegel", int(math.sqrt(t / _TWO_PI))
    return "euler-maclaurin", em_truncation(complex(0.5, t), depth)


def hardy_z(t: float | np.ndarray, depth: int = 1) -> float | np.ndarray:
    """Hardy's Z(t): real, O(1), with the same critical-line zeros as Xi.

    sign(Xi(t)) = XI_SIGN_FROM_Z * sign(Z(t)).  Riemann-Siegel for depth 1
    from RS_MIN_T up, Euler-Maclaurin otherwise (see the module docstring).
    A 1-D numpy array of heights gives the array of Z values: equal to the
    scalar values at Euler-Maclaurin points, and within 1e-12 of them at
    Riemann-Siegel points.

    Raises:
        RealnessError: when the rotated zeta value fails to be real.
    """
    if isinstance(t, np.ndarray) and t.ndim == 1:
        return _hardy_z_array(t, depth)
    t = float(t)
    if _uses_riemann_siegel(t, depth):
        return _hardy_z_riemann_siegel(t)
    value = cmath.exp(1j * riemann_siegel_theta(t)) * zeta(complex(0.5, t), depth)
    bound = 1e-8 * (1.0 + abs(value))
    if abs(value.imag) > bound:
        raise RealnessError(
            f"hardy_z({t!r}): imaginary residue {value.imag:.3e} "
            f"exceeds bound {bound:.3e}"
        )
    return value.real


def _hardy_z_array(t: np.ndarray, depth: int) -> np.ndarray:
    t = t.astype(np.float64, copy=False)
    out = np.empty_like(t)
    rs = (depth == 1) & (t >= RS_MIN_T) & (t < math.inf)
    for i in np.flatnonzero(~rs):
        out[i] = hardy_z(float(t[i]), depth)
    rs_index = np.flatnonzero(rs)
    for start in range(0, rs_index.size, RS_BLOCK):
        block = rs_index[start : start + RS_BLOCK]
        out[block] = _hardy_z_riemann_siegel_block(t[block])
    return out


def log_abs_xi_critical(t: float) -> float:
    """log |Xi(t)|, computable far past the underflow range of xi itself."""
    t = float(t)
    z = abs(hardy_z(t))
    if z == 0.0:
        return -math.inf
    return (
        math.log(0.5 * (t * t + 0.25))
        - _QUARTER_LOG_PI
        + log_gamma(complex(0.25, 0.5 * t)).real
        + math.log(z)
    )
