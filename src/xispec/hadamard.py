"""The Hadamard product of xi over paired critical-line zeros, in closed form.

Each ordinate gamma_n stands for the pair rho_n = 1/2 + i gamma_n, conj rho_n
(on the critical line 1 - rho_n is conj rho_n).  With u = s(s-1) and
lambda_n = -(1/4 + gamma_n^2), the pair's factor (1 - s/rho_n)(1 - s/conj rho_n)
is (lambda_n - u)/lambda_n, and with xi(0) = 1/2 (Edwards, *Riemann's Zeta
Function*, 1974, §2.8), xi(s) = 1/2 prod_n (lambda_n - u)/lambda_n: nothing
is fitted.  ``paired_product`` is the product over the first n pairs.  Its
division is done componentwise against the *real* lambda_n, so it is
exactly 1/2 at s = 0 and exactly 0 at s = 1/2 + i gamma_k for any stored
ordinate, where lambda_k - u cancels; the coincidence discriminator is
built on that annihilation.

The pairs after the n-th contribute about e^{u tau}, where ``tail_sum``
takes tau = sum_{k>n} 1/(1/4 + gamma_k^2) from the Riemann-von Mangoldt
main term of the zero count (``zeros.zero_count_main_term``) and bounds its
error with Trudgian's remainder (``zeros.zero_count_remainder_bound``).
``fitted_misfit`` turns that into a bound on the closed form's misfit
against xi, and the Hadamard audit passes only if every truncation is
within its bound.  ``zero_sum_residual`` checks the same tail against
ZERO_SUM.  The misfit and the coincidence audit take all their sample
points as one blocked 2-D product, the same factors multiplied in the same
order as a one-point call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .report import AuditReport, Verdict
from .zeros import zero_count_main_term, zero_count_remainder_bound

#: Offset (in ordinate units) used to measure the local product scale when
#: deriving the coincidence threshold.
COINCIDENCE_PROBE_OFFSET = 1e-4

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


def _lambdas(spec: ProductSpec, n: int) -> np.ndarray:
    """lambda_k = -(1/4 + gamma_k^2) of the first n pairs."""
    g = spec.truncated(n)
    return -(0.25 + g * g)


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
    polys = _poly_products(np.array([s * (s - 1.0) for s in points]), _lambdas(spec, n))
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
    sample_points: np.ndarray, target_values: np.ndarray, spec: ProductSpec, n: int
) -> tuple[float, float]:
    """(misfit, bound) of the closed form at truncation n against xi's values.

    Nothing is fitted: the name stays because the benchmark's tracer
    (perfbench/spans.py) times the audit's per-truncation misfit under it.
    The model at real s is paired_product(s, spec, n) e^{u tau}, tau from
    ``tail_sum``; the misfit is the largest |model/target - 1|.  model/xi
    = e^z, z = u (tau - tau_n) + sum_{k>n} (u/a_k - log(1 + u/a_k)) with
    a_k = 1/4 + gamma_k^2 > T^2.  While |u| <= T^2/2 each term of the sum is
    at most |u|^2/a_k^2, and sum_{k>n} 1/a_k^2 <= tau_n/T^2, so at the
    samples' largest |u|, |z| <= E = |u| err + |u|^2 (tau + err)/T^2.  The
    bound is e^E - 1 plus 3n + 64 units in the last place of rounding: three
    per factor, and 64 for xi (within 19 of mpmath on the audit's samples),
    e^{u tau} and the quotient.  Above |u| = T^2/2 it is inf.
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
    if u_max > 0.5 * height**2:
        return misfit, math.inf
    tail = u_max * err + u_max**2 * (tau + err) / height**2
    return misfit, math.expm1(tail) + (3 * n + 64) * 2.0**-52


def _coincidence_threshold(
    spec: ProductSpec, probe_ordinates: list[float], n: int
) -> float:
    """Discrimination threshold: local product scale one offset away.

    For each probe, the product magnitude is measured at the nearest stored
    ordinate shifted by COINCIDENCE_PROBE_OFFSET; the maximum over probes is
    the scale a "same zero, tiny numeric difference" probe could reach.
    """
    if not probe_ordinates:
        return 0.0
    g = spec.truncated(n)
    shifted = [
        complex(0.5, float(g[int(np.argmin(np.abs(g - p)))]) + COINCIDENCE_PROBE_OFFSET)
        for p in probe_ordinates
    ]
    return max(0.0, *(abs(v) for v in _products(spec, n, shifted)))


def audit_coincidence(
    spec_a: ProductSpec, probe_ordinates: list[float], n: int
) -> AuditReport:
    """Zero-coincidence discriminator (the vanishing-product evaluation).

    COINCIDE when every probe annihilates the truncated product to within
    the threshold (``_coincidence_threshold``); DISTINCT when some probe
    outside the stored set leaves a magnitude above 10x the threshold;
    INCONCLUSIVE between.  The report's ``tail_bound`` is |u| (tau + err)
    at the first probe (``tail_sum``): it bounds |u| times the tail sum,
    the size of the log of the factors left out.
    """
    probes = [float(p) for p in probe_ordinates]
    threshold = _coincidence_threshold(spec_a, probes, n)
    stored = set(spec_a.truncated(n).tolist())
    values = [abs(v) for v in _products(spec_a, n, [complex(0.5, p) for p in probes])]
    member = [p in stored for p in probes]

    foreign = [v for v, m in zip(values, member) if not m]
    if foreign and max(foreign) > 10.0 * threshold:
        verdict = Verdict.DISTINCT
    elif all(v <= threshold for v in values):
        verdict = Verdict.COINCIDE
    else:
        verdict = Verdict.INCONCLUSIVE

    worst = max(values) if values else 0.0
    s_probe = complex(0.5, probes[0]) if probes else complex(0.5, 0.0)
    _, tau, err = tail_sum(spec_a, n)
    return AuditReport(
        name="zero-coincidence",
        params={
            "n_factors": n,
            "probe_count": len(probes),
            "probe_is_member": member,
            "probe_offset": COINCIDENCE_PROBE_OFFSET,
            "tail_bound": abs(s_probe * (s_probe - 1.0)) * (tau + err),
        },
        measured=values,
        reference=[threshold],
        ratio_or_residual=(worst / threshold) if threshold > 0.0 else worst,
        tolerance=threshold,
        verdict=verdict,
        provenance="coincidence",
    )
