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
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularFitError
from .report import AuditReport, Verdict

#: Offset (in ordinate units) used to measure the local product scale when
#: deriving the default coincidence threshold.
COINCIDENCE_PROBE_OFFSET = 1e-4


@dataclass(frozen=True)
class ProductSpec:
    """Zero ordinates plus prefactor constants for the paired product."""

    zero_ordinates: tuple[float, ...]
    multiplicity: int = 0
    prefactor: tuple[float, float] = (0.0, 0.0)  # (B, D)

    def __post_init__(self) -> None:
        g = self.zero_ordinates
        if any(not (v > 0.0) for v in g):
            raise DomainError("zero ordinates must be positive")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise DomainError("zero ordinates must be strictly increasing")
        if self.multiplicity < 0:
            raise DomainError("multiplicity must be non-negative")

    def truncated(self, n: int) -> np.ndarray:
        if n > len(self.zero_ordinates):
            raise DomainError(
                f"requested {n} factors but only "
                f"{len(self.zero_ordinates)} ordinates are available"
            )
        return np.asarray(self.zero_ordinates[:n], dtype=np.float64)


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


def _pair_data(spec: ProductSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    g = spec.truncated(n)
    denom = 0.25 + g * g            # 1/4 + gamma^2 = -lambda
    return -denom, 1.0 / denom      # (lambda_n, correction coefficients c_n)


def _poly_product(u: complex, lam: np.ndarray) -> complex:
    # Componentwise division by the real lambda keeps the two exact cases
    # exact: u = lambda_k gives a factor of exactly 0, u = -0 gives 1.
    re = (lam - u.real) / lam
    im = (-u.imag) / lam
    return complex(np.prod(re + 1j * im))


def paired_product(s: complex, spec: ProductSpec, n: int) -> complex:
    """Truncated paired product s^m e^{B + D s} prod_n [(pair factor) e^{s c_n}]."""
    s = complex(s)
    lam, c = _pair_data(spec, n)
    poly = _poly_product(s * (s - 1.0), lam)
    b, d = spec.prefactor
    value = cmath.exp(complex(b) + (d + float(np.sum(c))) * s) * poly
    if spec.multiplicity > 0:
        value *= s ** spec.multiplicity
    return value


def paired_product_bare(
    s: complex, spec: ProductSpec, n: int, exp_corrections: bool = True
) -> complex:
    """The product without its e^{B + D s} prefactor.

    With ``exp_corrections=False`` the genus-1 exponential factors are
    dropped too; that polynomial part depends on s only through s(s-1) and
    is therefore exactly symmetric under s <-> 1-s.
    """
    s = complex(s)
    lam, c = _pair_data(spec, n)
    poly = _poly_product(s * (s - 1.0), lam)
    if spec.multiplicity > 0:
        poly *= s ** spec.multiplicity
    if not exp_corrections:
        return poly
    return cmath.exp(float(np.sum(c)) * s) * poly


def correction_sum(spec: ProductSpec, n: int) -> float:
    """Sum of the genus-1 correction coefficients sum_{k<=n} 1/(1/4+gamma_k^2).

    The full truncated product satisfies
    product(s) = product(1-s) * exp((D + correction_sum) (2s - 1)).
    """
    _, c = _pair_data(spec, n)
    return float(np.sum(c))


def tail_bound(spec: ProductSpec, n: int, s: complex) -> float:
    """Estimated truncation tail sum_{k>n} |s|^2/(1/4+gamma_k^2).

    Ordinates beyond the stored list are extrapolated with the list's
    average gap.
    """
    g = np.asarray(spec.zero_ordinates, dtype=np.float64)
    s_sq = abs(complex(s)) ** 2
    listed = float(np.sum(s_sq / (0.25 + g[n:] * g[n:]))) if n < g.size else 0.0
    extrapolated = 0.0
    if g.size >= 2:
        gap = (g[-1] - g[0]) / (g.size - 1)
        extrapolated = s_sq / (gap * g[-1])
    return listed + extrapolated


def fit_prefactor(
    sample_points: np.ndarray,
    target_values: np.ndarray,
    spec: ProductSpec,
    n: int,
) -> PrefactorFit:
    """Least-squares (B, D) matching the product to target samples in log space.

    Minimizes sum_k (log target_k - log bare_k - B - D s_k)^2 over real
    samples where both target and bare product are positive.

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

    bare = np.empty(xs.size, dtype=np.float64)
    for i, x in enumerate(xs):
        value = paired_product_bare(complex(x, 0.0), spec, n)
        if not (value.real > 0.0) or abs(value.imag) > 1e-12 * abs(value):
            raise DomainError(
                f"bare product not positive-real at sample {x!r}: {value!r}"
            )
        bare[i] = value.real

    d, b, residual = linear_fit(xs, np.log(ts) - np.log(bare))
    return PrefactorFit(
        B=b,
        D=d,
        max_residual=residual,
        sample_range=(float(np.min(xs)), float(np.max(xs))),
    )


def fitted_misfit(
    sample_points: np.ndarray,
    target_values: np.ndarray,
    spec: ProductSpec,
    n: int,
) -> tuple[PrefactorFit, float]:
    """Fit the prefactor at truncation n and report the max relative misfit."""
    fit = fit_prefactor(sample_points, target_values, spec, n)
    fitted = ProductSpec(
        zero_ordinates=spec.zero_ordinates,
        multiplicity=spec.multiplicity,
        prefactor=(fit.B, fit.D),
    )
    worst = 0.0
    for x, t in zip(np.asarray(sample_points, float), np.asarray(target_values, float)):
        model = paired_product(complex(x, 0.0), fitted, n).real
        worst = max(worst, abs(model / t - 1.0))
    return fit, worst


def coincidence_threshold(
    spec: ProductSpec, probe_ordinates: list[float], n: int
) -> float:
    """Default discrimination threshold: local product scale one offset away.

    For each probe, the product magnitude is measured at the nearest stored
    ordinate shifted by COINCIDENCE_PROBE_OFFSET; the maximum over probes is
    the scale a "same zero, tiny numeric difference" probe could reach.
    """
    if not probe_ordinates:
        return 0.0
    g = spec.truncated(n)
    scale = 0.0
    for p in probe_ordinates:
        nearest = float(g[int(np.argmin(np.abs(g - p)))])
        ref = abs(
            paired_product(
                complex(0.5, nearest + COINCIDENCE_PROBE_OFFSET), spec, n
            )
        )
        scale = max(scale, ref)
    return scale


def audit_coincidence(
    spec_a: ProductSpec,
    probe_ordinates: list[float],
    n: int,
    threshold: float | None = None,
) -> AuditReport:
    """Zero-coincidence discriminator (the vanishing-product evaluation).

    COINCIDE when every probe annihilates the truncated product to within
    the threshold; DISTINCT when some probe outside the stored set leaves a
    magnitude above 10x the threshold; INCONCLUSIVE between.
    """
    probes = [float(p) for p in probe_ordinates]
    if threshold is None:
        threshold = coincidence_threshold(spec_a, probes, n)
    stored = set(spec_a.truncated(n).tolist())
    values = [abs(paired_product(complex(0.5, p), spec_a, n)) for p in probes]
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
