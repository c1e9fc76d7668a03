"""Genus-1 Hadamard product over paired critical-line zeros.

Each ordinate gamma stands for the conjugate pair rho = 1/2 + i*gamma,
conj rho (the reflection pair 1 - rho coincides with conj rho, so the
symmetry collapses the quadruple to the pair).  Writing u = s(s-1) and
lambda_n = -(1/4 + gamma_n^2), the paired genus-1 factor collapses to

    (1 - s/rho_n)(1 - s/conj rho_n) = (lambda_n - u) / lambda_n,

with the exponential corrections exp(s (1/rho_n + 1/conj rho_n))
= exp(s / (1/4 + gamma_n^2)) all real-coefficient.  The division is done
componentwise against the *real* lambda_n, which makes two identities exact
in floating point, not just accurate: the product is exactly e^B at s = 0,
and exactly 0 at s = 1/2 + i*gamma_k for any stored ordinate (bit-for-bit),
because lambda_k - u then cancels to zero.  The coincidence discriminator
is built on that annihilation.

A ``ProductSpec`` holds its ordinates as one read-only array.  The prefactor
fit and the coincidence audit build the pair data (lambda_n and the sum of
the c_n) once for their truncation and take all their sample points as one
blocked 2-D product, the same factors multiplied in the same order as a
one-point call.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularFitError
from .report import AuditReport, Verdict

#: Offset (in ordinate units) used to measure the local product scale when
#: deriving the coincidence threshold.
COINCIDENCE_PROBE_OFFSET = 1e-4

# Bound on the elements of any 2-D temporary of the batched product.
_BLOCK_ELEMENTS = 4096


@dataclass(frozen=True)
class ProductSpec:
    """Zero ordinates plus prefactor constants for the paired product.

    The ordinates are converted to one read-only float64 array at
    construction; validation runs on it and ``truncated`` returns views of it.
    """

    zero_ordinates: tuple[float, ...]
    multiplicity: int = 0
    prefactor: tuple[float, float] = (0.0, 0.0)  # (B, D)

    def __post_init__(self) -> None:
        g = np.array(self.zero_ordinates, dtype=np.float64)
        g.flags.writeable = False
        if (~(g > 0.0)).any():   # a NaN is not > 0 either
            raise DomainError("zero ordinates must be positive")
        if (~(g[1:] > g[:-1])).any():
            raise DomainError("zero ordinates must be strictly increasing")
        if self.multiplicity < 0:
            raise DomainError("multiplicity must be non-negative")
        object.__setattr__(self, "_ordinates", g)

    def truncated(self, n: int) -> np.ndarray:
        """The first n ordinates, a read-only view."""
        if n > len(self._ordinates):
            raise DomainError(
                f"requested {n} factors but only "
                f"{len(self._ordinates)} ordinates are available"
            )
        return self._ordinates[:n]


@dataclass(frozen=True)
class PrefactorFit:
    """Fitted log-linear prefactor constants with residual statistics."""

    B: float
    D: float
    max_residual: float
    sample_range: tuple[float, float]


def linear_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line ys ~ intercept + slope * xs.

    Returns (slope, intercept, max absolute residual).

    Raises:
        SingularFitError: fewer than two samples, or all sample points coincide.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2:
        raise SingularFitError("need at least two samples to fit a line")
    count = float(xs.size)
    sx = float(np.sum(xs))
    sxx = float(np.sum(xs * xs))
    sy = float(np.sum(ys))
    sxy = float(np.sum(xs * ys))
    det = count * sxx - sx * sx
    if det <= 1e-14 * max(count * sxx, sx * sx, 1e-300):
        raise SingularFitError("degenerate sample grid (all points coincide)")
    slope = (count * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    residual = float(np.max(np.abs(intercept + slope * xs - ys)))
    return slope, intercept, residual


def _pair_data(spec: ProductSpec, n: int) -> tuple[np.ndarray, float]:
    """(lambda_n, sum of the correction coefficients c_n) of the first n pairs."""
    g = spec.truncated(n)
    denom = 0.25 + g * g            # 1/4 + gamma^2 = -lambda
    return -denom, float(np.sum(1.0 / denom))


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


def _poly_product(s: complex, lam: np.ndarray) -> complex:
    return _poly_products(np.array([s * (s - 1.0)]), lam)[0]


def _with_prefactor(
    s: complex, poly: complex, c_sum: float, prefactor: tuple[float, float], multiplicity: int
) -> complex:
    b, d = prefactor
    value = cmath.exp(complex(b) + (d + c_sum) * s) * poly
    if multiplicity > 0:
        value *= s ** multiplicity
    return value


def paired_product(s: complex, spec: ProductSpec, n: int) -> complex:
    """Truncated paired product s^m e^{B + D s} prod_n [(pair factor) e^{s c_n}]."""
    s = complex(s)
    lam, c_sum = _pair_data(spec, n)
    return _with_prefactor(
        s, _poly_product(s, lam), c_sum, spec.prefactor, spec.multiplicity
    )


def _line_products(spec: ProductSpec, n: int, ordinates: list[float]) -> list[complex]:
    """paired_product(0.5 + i t, spec, n) for each t, from one pair-data build."""
    points = [complex(0.5, t) for t in ordinates]
    lam, c_sum = _pair_data(spec, n)
    polys = _poly_products(np.array([s * (s - 1.0) for s in points]), lam)
    return [
        _with_prefactor(s, poly, c_sum, spec.prefactor, spec.multiplicity)
        for s, poly in zip(points, polys)
    ]


def tail_bound(spec: ProductSpec, n: int, s: complex) -> float:
    """Estimated truncation tail sum_{k>n} |s|^2/(1/4+gamma_k^2).

    Ordinates beyond the stored list are extrapolated with the list's
    average gap.
    """
    g = spec._ordinates
    s_abs = abs(complex(s))
    s_sq = s_abs * s_abs   # inf, not OverflowError, for a far point
    listed = float(np.sum(s_sq / (0.25 + g[n:] * g[n:]))) if n < g.size else 0.0
    extrapolated = 0.0
    if g.size >= 2:
        gap = (g[-1] - g[0]) / (g.size - 1)
        extrapolated = s_sq / (gap * g[-1])
    return listed + extrapolated


def fitted_misfit(
    sample_points: np.ndarray,
    target_values: np.ndarray,
    spec: ProductSpec,
    n: int,
) -> tuple[PrefactorFit, float]:
    """Fit the prefactor at truncation n and report the max relative misfit.

    The fit is the least-squares (B, D) matching the product to the target
    samples in log space: it minimizes
    sum_k (log target_k - log bare_k - B - D s_k)^2 over real samples, where
    bare is the product without its e^{B + D s} prefactor and both it and
    the target must be positive.

    Raises:
        DomainError: non-positive target or bare-product sample.
        SingularFitError: fewer than two distinct sample points.
    """
    xs = np.asarray(sample_points, dtype=np.float64)
    ts = np.asarray(target_values, dtype=np.float64)
    if xs.size != ts.size:
        raise DomainError("sample points and target values differ in length")
    if np.any(ts <= 0.0):
        raise DomainError("target must be positive on all fit samples")

    points = [complex(x, 0.0) for x in xs]
    lam, c_sum = _pair_data(spec, n)
    polys = _poly_products(np.array([s * (s - 1.0) for s in points]), lam)
    bare = np.empty(xs.size, dtype=np.float64)
    for i, (s, poly) in enumerate(zip(points, polys)):
        if spec.multiplicity > 0:
            poly *= s ** spec.multiplicity
        value = cmath.exp(c_sum * s) * poly
        if not (value.real > 0.0) or abs(value.imag) > 1e-12 * abs(value):
            raise DomainError(
                f"bare product not positive-real at sample {xs[i]!r}: {value!r}"
            )
        bare[i] = value.real

    d, b, residual = linear_fit(xs, np.log(ts) - np.log(bare))
    fit = PrefactorFit(
        B=b,
        D=d,
        max_residual=residual,
        sample_range=(float(np.min(xs)), float(np.max(xs))),
    )
    worst = 0.0
    for s, poly, t in zip(points, polys, ts):
        model = _with_prefactor(
            s, poly, c_sum, (fit.B, fit.D), spec.multiplicity
        ).real
        worst = max(worst, abs(model / t - 1.0))
    return fit, worst


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
        float(g[int(np.argmin(np.abs(g - p)))]) + COINCIDENCE_PROBE_OFFSET
        for p in probe_ordinates
    ]
    return max(0.0, *(abs(v) for v in _line_products(spec, n, shifted)))


def audit_coincidence(
    spec_a: ProductSpec, probe_ordinates: list[float], n: int
) -> AuditReport:
    """Zero-coincidence discriminator (the vanishing-product evaluation).

    COINCIDE when every probe annihilates the truncated product to within
    the threshold (``_coincidence_threshold``); DISTINCT when some probe
    outside the stored set leaves a magnitude above 10x the threshold;
    INCONCLUSIVE between.
    """
    probes = [float(p) for p in probe_ordinates]
    threshold = _coincidence_threshold(spec_a, probes, n)
    stored = set(spec_a.truncated(n).tolist())
    values = [abs(v) for v in _line_products(spec_a, n, probes)]
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
    return AuditReport(
        name="zero-coincidence",
        params={
            "n_factors": n,
            "probe_count": len(probes),
            "probe_is_member": member,
            "probe_offset": COINCIDENCE_PROBE_OFFSET,
            "tail_bound": tail_bound(spec_a, n, s_probe),
        },
        measured=values,
        reference=[threshold],
        ratio_or_residual=(worst / threshold) if threshold > 0.0 else worst,
        tolerance=threshold,
        verdict=verdict,
        provenance="coincidence",
    )
