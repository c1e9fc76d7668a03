"""The Hadamard product of xi over paired critical-line zeros, in closed form.

Each ordinate gamma_n stands for the pair rho_n = 1/2 + i gamma_n, conj rho_n
(on the critical line 1 - rho_n is conj rho_n).  With u = s(s-1) and
lambda_n = -(1/4 + gamma_n^2), the pair's factor (1 - s/rho_n)(1 - s/conj rho_n)
is (lambda_n - u)/lambda_n, and with xi(0) = 1/2 (Edwards, *Riemann's Zeta
Function*, 1974, §2.8), xi(s) = 1/2 prod_n (lambda_n - u)/lambda_n: nothing
is fitted.  ``paired_product`` is the product over the first n pairs.  Its
division is done componentwise against the *real* lambda_n, so it is
exactly 1/2 at s = 0 and exactly 0 at s = 1/2 + i gamma_k for any stored
ordinate, where lambda_k - u cancels.

The pairs after the n-th contribute about e^{u tau}, where ``tail_sum``
takes tau = sum_{k>n} 1/(1/4 + gamma_k^2) from the Riemann-von Mangoldt main
term of the zero count (``zeros.zero_count_main_term``) and bounds its error
with Trudgian's remainder (``zeros.zero_count_remainder_bound``).
``fitted_misfit`` turns that and the ordinates' own errors into a bound on
the closed form's misfit against xi, and the Hadamard audit passes only if
every truncation is within its bound.  ``zero_sum_residual`` checks the same
tail against ZERO_SUM.  The misfit takes all its sample points as one
blocked 2-D product, the factors multiplied in a one-point call's order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .report import AuditReport, Verdict
from .specfun import hardy_z
from .specfun.xi import EM_MAX_T
from .zeros import ZeroTable, zero_count_main_term, zero_count_remainder_bound

#: xi(0), the constant of the product.
XI_AT_ZERO = 0.5

#: sum_rho Re 1/rho = sum_n 1/(1/4 + gamma_n^2) = 1 + gamma_E/2 - 1/2 log 4 pi
#: (Davenport, *Multiplicative Number Theory*, ch. 12).
ZERO_SUM = 1.0 + 0.5772156649015329 / 2.0 - 0.5 * math.log(4.0 * math.pi)

# Bound on the elements of any 2-D temporary of the batched product.
_BLOCK_ELEMENTS = 4096


@dataclass(frozen=True)
class ProductSpec:
    """Zero ordinates of the paired product.

    The ordinates are converted to one read-only float64 array at
    construction; validation runs on it and ``truncated`` returns views of it.
    """

    zero_ordinates: tuple[float, ...]

    def __post_init__(self) -> None:
        g = np.array(self.zero_ordinates, dtype=np.float64)
        g.flags.writeable = False
        if (~(g > 0.0)).any():   # a NaN is not > 0 either
            raise DomainError("zero ordinates must be positive")
        if (~(g[1:] > g[:-1])).any():
            raise DomainError("zero ordinates must be strictly increasing")
        object.__setattr__(self, "_ordinates", g)

    def truncated(self, n: int) -> np.ndarray:
        """The first n ordinates, a read-only view."""
        if n > len(self._ordinates):
            raise DomainError(
                f"requested {n} factors but only "
                f"{len(self._ordinates)} ordinates are available"
            )
        return self._ordinates[:n]


def _poly_products(u: np.ndarray, lam: np.ndarray) -> list[complex]:
    """prod_n (lambda_n - u) / lambda_n at each u of a 1-D complex array.

    A product past double range (far from every lambda_n) keeps its size:
    its magnitude is exp of the sum of log |factor| (inf when that
    overflows too), its phase the sum of the factors' angles.  Row blocks
    keep each 2-D temporary within _BLOCK_ELEMENTS.
    """
    products: list[complex] = []
    rows = max(1, _BLOCK_ELEMENTS // max(1, len(lam)))
    for i in range(0, len(u), rows):
        block = u[i:i + rows, None]
        # Componentwise division by the real lambda keeps the two exact
        # cases exact: u = lambda_k gives a factor of exactly 0, u = -0 gives 1.
        re = (lam - block.real) / lam
        im = (-block.imag) / lam
        factors = re + 1j * im
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            prods = np.prod(factors, axis=1)
            lost = ~np.isfinite(prods)
            if lost.any():
                f = factors[lost]
                prods[lost] = np.exp(
                    np.sum(np.log(np.abs(f)), axis=1) + 1j * np.sum(np.angle(f), axis=1)
                )
        products += prods.tolist()
    return products


def _products(spec: ProductSpec, n: int, points: list[complex]) -> list[complex]:
    """paired_product(s, spec, n) at each point, as one batched product."""
    g = spec.truncated(n)
    polys = _poly_products(np.array([s * (s - 1.0) for s in points]), -(0.25 + g * g))
    # Componentwise: a complex product would turn 0 * inf into NaN.
    return [complex(XI_AT_ZERO * p.real, XI_AT_ZERO * p.imag) for p in polys]


def paired_product(s: complex, spec: ProductSpec, n: int) -> complex:
    """The truncated product 1/2 prod_{k<=n} (lambda_k - s(s-1)) / lambda_k."""
    return _products(spec, n, [complex(s)])[0]


def tail_sum(spec: ProductSpec, n: int) -> tuple[float, float, float]:
    """(T, tau, err) for the tail tau_n = sum_{k>n} 1/(1/4 + gamma_k^2).

    T is the midpoint of gamma_n and gamma_{n+1}, or gamma_n when the spec
    ends there.  tau is the integral of dM(t)/t^2 over (T, inf), M the main
    term: (log(T/2 pi) + 1)/(2 pi T).  err bounds |tau_n - tau| for any T in
    [gamma_n, gamma_{n+1}) >= 14 if no zero below T is missing.  With
    f = 1/(1/4 + t^2) and N = M + E, |E| <= R, by parts
    tau_n = int f dM - f(T) E(T) - int E f' dt.  The first term is within
    tau/(4T^2) of tau; |f(T) E(T)| <= R(T)/T^2; and with |f'| <= 2/t^3 and
    R(t) <= R(T) + (0.112 + 0.278/log T) log(t/T), the last is at most
    (R(T) + 0.056 + 0.139/log T)/T^2 <= (R(T) + 0.11)/T^2.  So
    err = (2 R(T) + 0.11 + tau/4)/T^2.
    """
    if n < 1:
        raise DomainError("the tail needs at least one factor")
    g = spec._ordinates
    height = float(0.5 * (g[n - 1] + g[n]) if g.size > n else spec.truncated(n)[-1])
    # M(t) - 7/8 = (t/2 pi)(log(t/2 pi) - 1), so tau = (M(T) - 7/8)/T^2 + 1/(pi T).
    tau = (zero_count_main_term(height) - 0.875) / height**2 + 1.0 / (math.pi * height)
    err = (2.0 * zero_count_remainder_bound(height) + 0.11 + 0.25 * tau) / height**2
    return height, tau, err


def zero_sum_residual(spec: ProductSpec, n: int) -> float:
    """sum_{k<=n} 1/(1/4 + gamma_k^2) + tau - ZERO_SUM, tau from ``tail_sum``."""
    g = spec.truncated(n)
    return float(np.sum(1.0 / (0.25 + g * g))) + tail_sum(spec, n)[1] - ZERO_SUM


def fitted_misfit(
    sample_points: np.ndarray,
    target_values: np.ndarray,
    spec: ProductSpec,
    n: int,
    abs_err: Sequence[float],
) -> tuple[float, float]:
    """(misfit, bound) of the closed form at truncation n against xi's values.

    Nothing is fitted: the name stays because the benchmark's tracer
    (perfbench/spans.py) times the audit's per-truncation misfit under it.
    The model at real s is paired_product(s, spec, n) e^{u tau}, tau from
    ``tail_sum``; the misfit is the largest |model/target - 1|.  model/xi
    = e^{z + D}, z = u (tau - tau_n) + sum_{k>n} (u/a_k - log(1 + u/a_k)) with
    a_k = 1/4 + gamma_k^2 > T^2.  While |u| <= T^2/2 each term of the sum is
    at most |u|^2/a_k^2, and sum_{k>n} 1/a_k^2 <= tau_n/T^2, so at the
    samples' largest |u|, |z| <= E = |u| err + |u|^2 (tau + err)/T^2.

    D is what moving each gamma_k by up to e_k = abs_err[k], to the true
    ordinate, does to log(1 + u/a_k).  Its x-derivative -2xu/(a(a + u)),
    a = 1/4 + x^2 >= x^2, is at most 2|u|/(sqrt(a)(a - |u|)), falling in a,
    and a >= m_k = 1/4 + max(gamma_k - e_k, 0)^2 there; so while each
    m_k > |u|, |D| <= sum_{k<=n} 2|u| e_k/(sqrt(m_k)(m_k - |u|)).  With
    m_k = a_k - 2 gamma_k e_k + e_k^2 that is, to second order,
    2|u| e_k/a_k^{3/2} (1 + (3 gamma_k e_k + |u|)/a_k): the first-order
    |d log(1 + u/a_k)/d gamma_k| e_k and the terms the interval and |u| add.

    The bound is e^{E + |D|} - 1 plus 3n + 64 units in the last place of
    rounding: three per factor, and 64 for xi (within 19 of mpmath on the
    audit's samples), e^{u tau} and the quotient.  Above |u| = T^2/2, or
    with some m_k <= |u|, it is inf.
    """
    xs = [float(x) for x in sample_points]
    products = _products(spec, n, [complex(x, 0.0) for x in xs])
    height, tau, err = tail_sum(spec, n)
    us = [x * (x - 1.0) for x in xs]
    misfit = max(
        abs(p.real * math.exp(u * tau) / float(t) - 1.0)
        for p, u, t in zip(products, us, target_values, strict=True)
    )
    u_max = max(abs(u) for u in us)
    e = np.asarray(abs_err[:n], dtype=np.float64)
    m = 0.25 + np.maximum(spec.truncated(n) - e, 0.0) ** 2
    if u_max > 0.5 * height**2 or (m <= u_max).any():
        return misfit, math.inf
    tail = u_max * err + u_max**2 * (tau + err) / height**2
    shift = float(np.sum(2.0 * u_max * e / (np.sqrt(m) * (m - u_max))))
    return misfit, math.expm1(tail + shift) + (3 * n + 64) * 2.0**-52


def audit_coincidence(zeros: ZeroTable, probes: Sequence[float]) -> AuditReport:
    """Does xi vanish at each probe?  Judged by Hardy's Z, which has xi's
    zeros: one ``hardy_z`` call reads it at each probe p and at gamma_k -+ w,
    gamma_k the listed zero nearest p and w twice its ``abs_err``.

    p is COINCIDE when |p - gamma_k| <= w and Z(gamma_k - w), Z(gamma_k + w)
    are non-zero with opposite signs (a zero of xi lies within 2w of p);
    DISTINCT when |p - gamma_k| > w and Z(p) != 0; and INCONCLUSIVE
    otherwise.  The bracket's own ends are not used: one lies within
    rounding of the root, and a cache's 15-digit rows move it.  The report
    is DISTINCT if any probe is, COINCIDE if all are, else INCONCLUSIVE;
    ``measured`` is |Z(p)|, ``reference`` the nearest gamma_k.

    Raises:
        DomainError: before Z is read anywhere, for a probe outside
            (0, EM_MAX_T], where Z's signs are not certain, or with no zeros.
    """
    probes = [float(p) for p in probes]
    for p in probes:
        if not 0.0 < p <= EM_MAX_T:
            raise DomainError(f"coincidence probe {p!r} is outside (0, {EM_MAX_T:g}]")
    if probes and not zeros:
        raise DomainError("no listed zero to judge the coincidence probes by")
    nearest = [int(np.argmin(np.abs(zeros.gamma - p))) for p in probes]
    g, w = zeros.gamma[nearest], 2.0 * zeros.abs_err[nearest]
    values = hardy_z(np.concatenate([probes, np.column_stack([g - w, g + w]).ravel()]))
    k = len(probes)
    opposite = np.sign(values[k::2]) * np.sign(values[k + 1::2]) < 0.0
    verdicts = [
        (Verdict.COINCIDE if o else Verdict.INCONCLUSIVE)
        if near
        else (Verdict.DISTINCT if v != 0.0 else Verdict.INCONCLUSIVE)
        for near, v, o in zip(np.abs(np.subtract(probes, g)) <= w, values[:k], opposite)
    ]
    verdict = next((v for v in (Verdict.DISTINCT, Verdict.INCONCLUSIVE) if v in verdicts),
                   Verdict.COINCIDE)
    measured = np.abs(values[:k]).tolist()
    return AuditReport(
        name="zero-coincidence",
        params={
            "probe_count": len(probes),
            "probe_verdicts": [v.value for v in verdicts],
            "note": "tolerance 0 until Euler-Maclaurin Z has an error bound; verdicts use signs",
        },
        measured=measured,
        reference=g.tolist(),
        ratio_or_residual=max(measured, default=0.0),
        tolerance=0.0,
        verdict=verdict,
        provenance="coincidence",
    )
