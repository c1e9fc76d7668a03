"""Growth-condition auditor for the integer-vanishing argument.

``estimate_type`` measures the exponential type of an entire function
along one axis as the least-squares slope of log|f| over a geometric
radius grid.  ``carlson_verdict`` combines both axes with an integer-
vanishing check; because the theorem's hypothesis "beta < pi" cannot be
certified by finite sampling, the auditor demands beta <= pi - margin for
a declared positive margin, which rejects the sharp case sin(pi z) for
every margin.

The log-linear audits live here too: the exponential model fitted to the
true xi on a real interval (the residual is the finding, never a
pass/fail), and the difference-function audit that feeds the verdict
machinery.  ``linear_fit`` is the one least-squares helper of the package;
the type estimates and the eq9 fit (a ``PrefactorFit``) both use it.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularFitError
from .specfun import xi

#: Fraction of the radius covered by the geometric sample grid.
TYPE_GRID_SPAN = 4.0
TYPE_GRID_POINTS = 16
#: |f| below this is treated as numerically zero and skipped.
UNDERFLOW_GUARD = 1e-300

DEFAULT_BETA_MARGIN = 0.05
GROWTH_RADIUS_CAP = 30.0
#: |f| at or below this counts as vanishing at an integer sample.
VANISH_TOL = 1e-9


@dataclass(frozen=True)
class PrefactorFit:
    """Fitted log-linear constants log target ~ B + D x, with the largest residual."""

    B: float
    D: float
    max_residual: float


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


class Axis(enum.Enum):
    REAL = "real"
    IMAGINARY = "imaginary"


@dataclass(frozen=True)
class GrowthComponent:
    """Exponential-type estimate along one axis."""

    axis: Axis
    slope: float
    intercept: float
    residual: float
    radius: float
    all_near_zero: bool


@dataclass(frozen=True)
class GrowthEstimate:
    """Fitted types along both axes; comparisons always use a margin."""

    alpha: GrowthComponent
    beta: GrowthComponent


@dataclass(frozen=True)
class VanishingCheck:
    """Result of the integer-vanishing sweep."""

    vanishes: bool
    max_abs: float
    at_point: float
    tolerance: float
    count: int
    magnitudes: tuple[float, ...]


class Conclusion(enum.Enum):
    IDENTICALLY_ZERO_IMPLIED = "IDENTICALLY_ZERO_IMPLIED"
    CONDITIONS_NOT_MET = "CONDITIONS_NOT_MET"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class CarlsonVerdict:
    """Condition flags plus the implied conclusion."""

    alpha_finite: bool
    beta_below_pi: bool
    vanishing: bool | None
    margin: float
    growth: GrowthEstimate
    vanish_check: VanishingCheck | None
    conclusion: Conclusion


def estimate_type(
    f: Callable[[complex], complex], axis: Axis, radius: float
) -> GrowthComponent:
    """Least-squares slope of log|f| against |coordinate| along one axis.

    TYPE_GRID_POINTS samples sit on a geometric grid spanning
    [radius/TYPE_GRID_SPAN, radius]; samples with |f| below the underflow
    guard are skipped.  With fewer than two usable samples the type is
    undefined and reported as 0 with the ``all_near_zero`` flag set.
    """
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    ratio = (1.0 / TYPE_GRID_SPAN) ** (1.0 / (TYPE_GRID_POINTS - 1))
    radii = radius * ratio ** np.arange(TYPE_GRID_POINTS - 1, -1, -1, dtype=np.float64)
    rs, ys = [], []
    for r in radii:
        z = complex(r, 0.0) if axis is Axis.REAL else complex(0.0, r)
        mag = abs(complex(f(z)))
        if mag < UNDERFLOW_GUARD or not math.isfinite(mag):
            continue
        rs.append(float(r))
        ys.append(math.log(mag))
    if len(rs) < 2:
        return GrowthComponent(
            axis=axis,
            slope=0.0,
            intercept=0.0,
            residual=0.0,
            radius=radius,
            all_near_zero=True,
        )
    slope, intercept, residual = linear_fit(rs, ys)
    return GrowthComponent(
        axis=axis,
        slope=slope,
        intercept=intercept,
        residual=residual,
        radius=radius,
        all_near_zero=False,
    )


def check_integer_vanishing(
    f: Callable[[complex], complex],
    count: int,
    tol: float,
    scale: float = 1.0,
) -> VanishingCheck:
    """True iff |f| stays within tol on the scaled integer grid scale*{1..count}."""
    points = [scale * k for k in range(1, count + 1)]
    magnitudes = tuple(abs(complex(f(complex(point, 0.0)))) for point in points)
    worst = 0.0
    at = 0.0
    for point, mag in zip(points, magnitudes):
        if mag > worst:
            worst, at = mag, point
    return VanishingCheck(
        vanishes=worst <= tol,
        max_abs=worst,
        at_point=at,
        tolerance=tol,
        count=count,
        magnitudes=magnitudes,
    )


def carlson_verdict(
    f: Callable[[complex], complex],
    count: int,
    radius: float,
    margin: float = DEFAULT_BETA_MARGIN,
    scale: float = 1.0,
) -> CarlsonVerdict:
    """Combine both growth estimates with the integer-vanishing sweep.

    The function vanishes at an integer sample when |f| <= VANISH_TOL there.

    IDENTICALLY_ZERO_IMPLIED requires all three condition flags; with no
    integer samples (count = 0) the vanishing hypothesis is untested and
    the conclusion is INCONCLUSIVE.
    """
    if not (margin > 0.0):
        raise ValueError("margin must be positive: a fitted slope cannot "
                         "certify a strict inequality")
    growth = GrowthEstimate(
        alpha=estimate_type(f, Axis.REAL, radius),
        beta=estimate_type(f, Axis.IMAGINARY, radius),
    )
    alpha_finite = math.isfinite(growth.alpha.slope)
    beta_below_pi = (
        math.isfinite(growth.beta.slope)
        and growth.beta.slope <= math.pi - margin
    )
    if count < 1:
        return CarlsonVerdict(
            alpha_finite=alpha_finite,
            beta_below_pi=beta_below_pi,
            vanishing=None,
            margin=margin,
            growth=growth,
            vanish_check=None,
            conclusion=Conclusion.INCONCLUSIVE,
        )
    vanish = check_integer_vanishing(f, count, VANISH_TOL, scale)
    if alpha_finite and beta_below_pi and vanish.vanishes:
        conclusion = Conclusion.IDENTICALLY_ZERO_IMPLIED
    else:
        conclusion = Conclusion.CONDITIONS_NOT_MET
    return CarlsonVerdict(
        alpha_finite=alpha_finite,
        beta_below_pi=beta_below_pi,
        vanishing=vanish.vanishes,
        margin=margin,
        growth=growth,
        vanish_check=vanish,
        conclusion=conclusion,
    )


# ----------------------- log-linear regression audits -----------------------


def audit_eq9(
    s_max: float,
    samples: int,
    target: Callable[[complex], complex] | None = None,
) -> PrefactorFit:
    """Fit log target = B + D*(s'+1) over s' in [0, s_max].

    With the default target (true xi) the residual is a deterministic
    measurement of how far xi is from a pure exponential; the fit never
    passes or fails.  B is log C and D is A in the C e^{A(s'+1)} reading.
    """
    if samples < 2:
        raise SingularFitError("need at least two samples")
    if target is None:
        target = xi
    shifted = np.linspace(0.0, float(s_max), samples)  # evaluation points
    values = np.array(
        [complex(target(complex(x, 0.0))).real for x in shifted], dtype=np.float64
    )
    if np.any(values <= 0.0):
        raise SingularFitError("target must be positive for the log fit")
    slope, intercept, residual = linear_fit(shifted + 1.0, np.log(values))
    return PrefactorFit(B=intercept, D=slope, max_residual=residual)


@dataclass(frozen=True)
class DifferenceAudit:
    """Difference-function audit: residual table plus the growth verdict."""

    eq9_fit: PrefactorFit
    a: float
    b: float
    scale: float
    residuals: tuple[float, ...]
    verdict: CarlsonVerdict


def audit_difference(
    count: int,
    fit: PrefactorFit,
    scale: float = 1.0,
    target: Callable[[complex], complex] | None = None,
) -> DifferenceAudit:
    """Audit d(u) = e^{a + b u + pi u} - target(u) on the scaled integer grid.

    The constants come from ``fit``, the log-linear fit of the same target
    (``audit_eq9``): a = B + D and b = D - pi, which makes the model the
    fitted C e^{A(u+1)}.  The growth radius is GROWTH_RADIUS_CAP.  The
    report records the residuals and the growth verdict; it does not assert
    any conclusion.
    """
    if target is None:
        target = xi
    a = fit.B + fit.D
    b = fit.D - math.pi

    def difference(z: complex) -> complex:
        return cmath.exp(a + (b + math.pi) * z) - complex(target(z))

    verdict = carlson_verdict(difference, count, GROWTH_RADIUS_CAP, scale=scale)
    return DifferenceAudit(
        eq9_fit=fit,
        a=a,
        b=b,
        scale=scale,
        residuals=verdict.vanish_check.magnitudes if verdict.vanish_check else (),
        verdict=verdict,
    )
