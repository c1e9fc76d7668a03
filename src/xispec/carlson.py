"""Growth-condition auditor for the integer-vanishing argument.

Carlson's theorem: an entire function of exponential type with
h(+-pi/2) < pi that vanishes at the non-negative integers is identically
zero.  ``estimate_type`` measures the exponential type of f along one axis
as the least-squares slope of log|f| over a geometric radius grid.
``carlson_verdict`` fits both axes, samples |f| on the scaled integer grid
and returns one ``CarlsonVerdict``: the two slopes, the magnitudes, the
three condition flags and the conclusion.  Because the hypothesis
"beta < pi" cannot be certified by finite sampling, the auditor demands
beta <= pi - margin for a declared positive margin, which rejects the
sharp case sin(pi z) for every margin.

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


class Conclusion(enum.Enum):
    IDENTICALLY_ZERO_IMPLIED = "IDENTICALLY_ZERO_IMPLIED"
    CONDITIONS_NOT_MET = "CONDITIONS_NOT_MET"


@dataclass(frozen=True)
class CarlsonVerdict:
    """Both fitted types, |f| on the integer grid, the three condition flags
    and the conclusion they imply."""

    alpha_slope: float
    beta_slope: float
    magnitudes: tuple[float, ...]
    margin: float
    alpha_finite: bool
    beta_below_pi: bool
    vanishing: bool
    conclusion: Conclusion


def estimate_type(f: Callable[[complex], complex], axis: Axis, radius: float) -> float:
    """Least-squares slope of log|f| against |coordinate| along one axis.

    TYPE_GRID_POINTS samples sit on a geometric grid spanning
    [radius/TYPE_GRID_SPAN, radius]; samples with |f| below the underflow
    guard are skipped.  With fewer than two usable samples the type is
    undefined and reported as 0.
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
        return 0.0
    return linear_fit(rs, ys)[0]


def carlson_verdict(
    f: Callable[[complex], complex],
    count: int,
    radius: float,
    margin: float = DEFAULT_BETA_MARGIN,
    scale: float = 1.0,
) -> CarlsonVerdict:
    """Both growth estimates and |f| on the scaled integer grid scale*{1..count}.

    The function vanishes on the grid when |f| <= VANISH_TOL at every
    sample; a NaN sample does not vanish.  IDENTICALLY_ZERO_IMPLIED requires
    all three condition flags.

    Raises:
        ValueError: count < 1 (an empty grid cannot test the vanishing
            hypothesis), or margin <= 0.
    """
    if count < 1:
        raise ValueError("count must be at least 1: an empty integer grid "
                         "cannot test the vanishing hypothesis")
    if not (margin > 0.0):
        raise ValueError("margin must be positive: a fitted slope cannot "
                         "certify a strict inequality")
    alpha = estimate_type(f, Axis.REAL, radius)
    beta = estimate_type(f, Axis.IMAGINARY, radius)
    magnitudes = tuple(
        abs(complex(f(complex(scale * k, 0.0)))) for k in range(1, count + 1)
    )
    alpha_finite = math.isfinite(alpha)
    beta_below_pi = math.isfinite(beta) and beta <= math.pi - margin
    vanishing = all(mag <= VANISH_TOL for mag in magnitudes)
    if alpha_finite and beta_below_pi and vanishing:
        conclusion = Conclusion.IDENTICALLY_ZERO_IMPLIED
    else:
        conclusion = Conclusion.CONDITIONS_NOT_MET
    return CarlsonVerdict(
        alpha_slope=alpha,
        beta_slope=beta,
        magnitudes=magnitudes,
        margin=margin,
        alpha_finite=alpha_finite,
        beta_below_pi=beta_below_pi,
        vanishing=vanishing,
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
    """Difference-function audit: the model constants plus the growth verdict,
    whose ``magnitudes`` are the residuals |d| on the integer grid."""

    a: float
    b: float
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
    return DifferenceAudit(a=a, b=b, verdict=verdict)
