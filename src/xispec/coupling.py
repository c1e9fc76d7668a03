"""Coupling map, Bessel order, and the norm-integral audit.

The map lambda = s(s-1) sends a critical-line point s = 1/2 + i*gamma to
the real coupling lambda = -(gamma^2 + 1/4) < -1/4 (the imaginary part
cancels exactly in IEEE arithmetic, so spectrum reality holds identically,
not just approximately).  The associated Bessel order nu = sqrt(lambda+1/4)
is then purely imaginary with magnitude gamma.

The norm-integral audit compares

    quadrature:   int_0^inf r K_nu(r)^2 dr
    closed form:  coeff * pi nu / sin(pi nu)      (sinh for nu = i mu)

where the claimed coefficient is 1/8 and the standard-table coefficient is
1/2.  The audit asserts only that the quadrature/closed-form ratio is one
common constant across orders, and reports the measured constant next to
both coefficient hypotheses; it does not pick a side.

The norm integrals of all the orders of one ``coupling_spectrum`` or
``audit_eq5`` call march in lockstep: each round of the half-line
quadrature asks for the next nodes of every order still running, and
those are one ``bessel_k_values`` call with an order per node.  The
orders that need the noise-feasible fallback run it as one more such
batch.  A norm integral counts as converged only when its error estimate
meets the tolerance it was asked for (``CouplingRecord.norm_converged``);
an eq5 order that misses it is a per-entry failure, not a ratio.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergenceError, PoleError
from .report import AuditReport, Verdict
from .specfun import (
    BesselOrder,
    OrderKind,
    QuadratureResult,
    bessel_k_values,
    bessel_k_with_error,  # noqa: F401  (perfbench/spans.py traces these names)
    integrate_semiinfinite,  # noqa: F401
    integrate_semiinfinite_batch,
)
from .zeros import CriticalZero

#: Coefficient of pi*nu/sin(pi*nu) claimed for the norm integral.
CLAIMED_NORM_COEFF = 0.125
#: Coefficient found in standard integral tables.
STANDARD_NORM_COEFF = 0.5

#: Batch agreement tolerance for the ratio-constancy audit.
RATIO_SPREAD_TOL = 1e-6
#: Relative tolerance of each eq5 norm integral; an order whose error
#: estimate misses it is a per-entry failure.
EQ5_NORM_TOL = 1e-9

# K(r)^2 underflows long before this; skip the work.
_R_CUTOFF = 400.0


def lambda_from_s(s: complex) -> complex:
    """Coupling constant lambda = s(s-1)."""
    s = complex(s)
    return s * (s - 1.0)


def s_from_lambda(lam: complex) -> tuple[complex, complex]:
    """The two preimages 1/2 -/+ sqrt(1/4 + lambda) of the coupling map."""
    root = cmath.sqrt(0.25 + complex(lam))
    return (0.5 - root, 0.5 + root)


def nu_from_lambda(lam: float) -> BesselOrder:
    """Bessel order nu = sqrt(lambda + 1/4); imaginary below lambda = -1/4.

    Positive integer real orders are flagged (``is_closed_form_pole``)
    rather than rejected: the pole matters only to the closed form.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"nu_from_lambda: non-finite lambda {lam!r}")
    shifted = lam + 0.25
    if shifted >= 0.0:
        return BesselOrder.real_order(math.sqrt(shifted))
    return BesselOrder.imaginary_order(math.sqrt(-shifted))


def _norm_integrals(
    orders: list[BesselOrder], tols: list[float]
) -> list[QuadratureResult | ArithmeticError]:
    """int_0^inf r K_order(r)^2 dr at each order, all marched in lockstep.

    Each round of the quadrature is one ``bessel_k_values`` call for the
    nodes of every order still running.
    """
    # K(r) <= sqrt(pi/2r) e^{-r} for any order, while the integral itself is
    # no smaller than the e^{-pi mu} scale on the imaginary branch, so the
    # tail beyond (pi/2) mu + a fixed pad contributes nothing at double
    # precision.
    cutoffs = np.array([
        0.5 * math.pi * order.magnitude + 80.0
        if order.kind is OrderKind.IMAGINARY
        else _R_CUTOFF
        for order in orders
    ])

    def f(r: np.ndarray, which: np.ndarray) -> np.ndarray:
        out = np.zeros(len(r))
        inside = r <= cutoffs[which]
        if inside.any():
            value, _ = bessel_k_values(orders, r[inside], which[inside])
            out[inside] = r[inside] * value * value
        return out

    return integrate_semiinfinite_batch(f, tols)


def _noise_feasible_tols(orders: list[BesselOrder]) -> list[float]:
    """Per order, the worst relative K error over the radii that carry the
    integral's mass, from one K call."""
    probes = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0])
    radii = [probes[probes <= max(10.0, 3.0 * order.magnitude)] for order in orders]
    which = np.repeat(np.arange(len(orders)), [len(r) for r in radii])
    _, rel = bessel_k_values(orders, np.concatenate(radii), which)
    return [float(rel[which == k].max()) for k in range(len(orders))]


def _norm_integrals_with_fallback(
    orders: list[BesselOrder], tol: float
) -> list[QuadratureResult | ArithmeticError]:
    """Norm integrals at ``tol``, with the noise-feasible fallback.

    For large imaginary orders the integrand sits below the double-precision
    noise floor of K; the integral still converges (the audit's finiteness
    signal) but only to the noise-feasible tolerance, which the returned
    error estimate reflects.  The orders that need it take the fallback as
    one more lockstep batch.
    """
    results = _norm_integrals(orders, [tol] * len(orders))
    missed = [i for i, r in enumerate(results) if isinstance(r, NonConvergenceError)]
    if not missed:
        return results
    feasible = [
        max(3.0 * noise, tol) for noise in _noise_feasible_tols([orders[i] for i in missed])
    ]
    retry = [(i, f) for i, f in zip(missed, feasible) if f > tol]
    second = _norm_integrals(
        [orders[i] for i, _ in retry], [min(f, 0.5) for _, f in retry]
    )
    for (i, f), result in zip(retry, second):
        if isinstance(result, QuadratureResult):
            result = QuadratureResult(
                value=result.value,
                err_estimate=max(result.err_estimate, f * abs(result.value)),
                evaluations=result.evaluations,
            )
        results[i] = result
    return results


def norm_integral_quadrature(order: BesselOrder, tol: float = 1e-9) -> QuadratureResult:
    """Numerical norm integral int_0^inf r K_order(r)^2 dr.

    A one-order call of the lockstep path ``coupling_spectrum`` and
    ``audit_eq5`` use.  For large imaginary orders the integrand sits below
    the double-precision noise floor of K; the integral still converges
    (the audit's finiteness signal) but only to the noise-feasible
    tolerance, which the returned error estimate reflects.

    Raises:
        DivergenceError: for real orders >= 1 (non-integrable at r -> 0).
        NonConvergenceError: when not even the noise-feasible tolerance is
            met.
    """
    (result,) = _norm_integrals_with_fallback([order], tol)
    if isinstance(result, ArithmeticError):
        raise result
    return result


def norm_integral_paper(order: BesselOrder) -> float:
    """Closed form of the norm integral with the claimed 1/8 coefficient.

    Real branch (1/8) pi nu / sin(pi nu); imaginary branch the analytic
    continuation (1/8) pi mu / sinh(pi mu).

    Raises:
        PoleError: at positive integer real orders, where sin(pi nu) = 0.
    """
    m = order.magnitude
    if m == 0.0:
        return CLAIMED_NORM_COEFF  # pi*nu/sin(pi*nu) -> 1
    if order.kind is OrderKind.REAL:
        if order.is_closed_form_pole:
            raise PoleError(
                f"norm_integral_paper: sin(pi nu) vanishes at integer order {m:g}"
            )
        return CLAIMED_NORM_COEFF * math.pi * m / math.sin(math.pi * m)
    return CLAIMED_NORM_COEFF * math.pi * m / math.sinh(math.pi * m)


@dataclass(frozen=True)
class NormIntegralAudit:
    """Norm-integral comparison at one order; an AuditReport specialization."""

    order: BesselOrder
    quadrature_value: float | None
    quadrature_err: float | None
    paper_closed_form: float | None
    ratio: float | None
    verdict: Verdict
    error: str

    @property
    def ok(self) -> bool:
        return self.error == ""


def _meets_tol(result: QuadratureResult | None, tol: float) -> bool:
    """Whether a norm integral's error estimate meets ``tol`` relative."""
    return result is not None and result.err_estimate <= tol * abs(result.value)


def _eq5_entry(
    order: BesselOrder, quad: QuadratureResult | ArithmeticError
) -> NormIntegralAudit:
    """Quadrature against closed form at one order, before the batch verdict."""
    closed = None
    error = ""
    if isinstance(quad, ArithmeticError):
        error = f"{type(quad).__name__}: {quad}"
        quad = None
    elif not _meets_tol(quad, EQ5_NORM_TOL):
        error = (
            f"not converged: error estimate {quad.err_estimate:.3e} "
            f"exceeds tol {EQ5_NORM_TOL:g} of {abs(quad.value):.3e}"
        )
    try:
        closed = norm_integral_paper(order)
    except PoleError as exc:
        error = error or f"{type(exc).__name__}: {exc}"
    return NormIntegralAudit(
        order=order,
        quadrature_value=None if quad is None else quad.value,
        quadrature_err=None if quad is None else quad.err_estimate,
        paper_closed_form=closed,
        ratio=None if error else quad.value / closed,
        verdict=Verdict.NOT_APPLICABLE,
        error=error,
    )


def audit_eq5(
    orders: list[BesselOrder],
) -> tuple[list[NormIntegralAudit], AuditReport]:
    """Ratio audit quadrature/closed-form over a batch of orders.

    Divergences, integrals whose error estimate misses EQ5_NORM_TOL and
    closed-form poles become per-entry failures (NOT_APPLICABLE), never
    batch aborts.  Successful entries share one batch verdict:
    CONSISTENT_UP_TO_CONSTANT when their ratios agree to
    RATIO_SPREAD_TOL.  Returns the per-order audits, in the caller's order,
    and the batch report with the measured common constant next to both
    coefficient readings.
    """
    quads = _norm_integrals_with_fallback(list(orders), EQ5_NORM_TOL)
    entries = [_eq5_entry(order, quad) for order, quad in zip(orders, quads)]
    ratios = [a.ratio for a in entries if a.ok]
    if ratios:
        mean = sum(ratios) / len(ratios)
        spread = max(abs(r - mean) for r in ratios) / abs(mean)
        verdict = (
            Verdict.CONSISTENT_UP_TO_CONSTANT
            if spread <= RATIO_SPREAD_TOL
            else Verdict.FAIL
        )
        implied = CLAIMED_NORM_COEFF * mean
    else:
        spread = float("nan")
        implied = None  # params must stay strict-JSON encodable
        verdict = Verdict.INCONCLUSIVE
    audits = [replace(a, verdict=verdict) if a.ok else a for a in entries]
    report = AuditReport(
        name="norm-integral-ratio",
        params={
            "orders": [
                f"{a.order.kind.value}:{a.order.magnitude:.12g}" for a in audits
            ],
            "claimed_coefficient": CLAIMED_NORM_COEFF,
            "standard_coefficient": STANDARD_NORM_COEFF,
            "implied_coefficient": implied,
            "failures": [a.error for a in audits if not a.ok],
        },
        measured=ratios,
        reference=[1.0, STANDARD_NORM_COEFF / CLAIMED_NORM_COEFF],
        ratio_or_residual=spread,
        tolerance=RATIO_SPREAD_TOL,
        verdict=verdict,
        provenance="eq5",
    )
    return audits, report


@dataclass(frozen=True)
class CouplingRecord:
    """Zero ordinate tied to its coupling constant and Bessel order."""

    s: complex
    lam: complex
    nu: BesselOrder
    source_zero_index: int | None
    norm_integral: QuadratureResult | None
    #: Relative tolerance the norm integral was asked for.
    tol: float

    @property
    def norm_converged(self) -> bool:
        """True when the norm integral's error estimate meets ``tol``."""
        return _meets_tol(self.norm_integral, self.tol)


def coupling_spectrum(
    zeros: Sequence[CriticalZero],
    check_finiteness: bool = True,
    tol: float = 1e-9,
) -> list[CouplingRecord]:
    """Coupling records for a sequence of critical-line zeros.

    Each lambda is real with lambda < -1/4 by exact arithmetic; when
    ``check_finiteness`` is set, the norm integral is evaluated at each
    imaginary order, and ``norm_converged`` says whether its error estimate
    meets ``tol`` (divergence would escape as an exception, which no
    critical-line order can trigger).
    """
    points = [complex(0.5, zero.gamma) for zero in zeros]
    lams = [lambda_from_s(s) for s in points]
    nus = [nu_from_lambda(lam.real) for lam in lams]
    norms = [None] * len(zeros)
    if check_finiteness:
        norms = _norm_integrals_with_fallback(nus, tol)
    records = []
    for zero, s, lam, nu, norm in zip(zeros, points, lams, nus, norms):
        if isinstance(norm, ArithmeticError):
            raise norm
        records.append(
            CouplingRecord(
                s=s,
                lam=lam,
                nu=nu,
                source_zero_index=zero.index,
                norm_integral=norm,
                tol=tol,
            )
        )
    return records
