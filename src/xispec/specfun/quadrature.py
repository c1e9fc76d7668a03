"""Double-exponential quadrature on the half line (0, inf).

The exp-sinh map x = exp((pi/2) sinh t) turns the trapezoidal rule into a
quadrature whose error decays like exp(-c/h) for integrands analytic on
(0, inf) with at worst integrable endpoint behaviour.  Levels halve the
mesh and reuse previous nodes, so the sequence of level sums provides the
error estimate for free.

The integrand is an array function: it takes a 1-D float array of
abscissas and returns an array of the same length.  Each level marches
both sides outward from t = 0 and stops a side once its contributions
have died off; the march asks for its nodes a block at a time, one call
for both sides, with each side's block sized from the count it used at
the previous level, so almost no node past the stop is evaluated.  Nodes
past the stop may still be evaluated, so the integrand marks a point it
cannot evaluate as non-finite instead of raising, and runs under
``np.errstate`` here so that such points neither raise nor warn.

Divergent integrands announce themselves here: the transformed node
contributions toward an endpoint then grow (or blow past the double range)
instead of dying off double-exponentially.  The node march reports that as
``DivergenceError`` -- a finding, consumed by the finiteness audits -- and
reserves ``NonConvergenceError`` for tails that decay but outlast the
budget, and for a NaN the march reaches (a point the integrand could not
evaluate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import DivergenceError, NonConvergenceError

_HALF_PI = 0.5 * math.pi
# |(pi/2) sinh t| <= ~700 keeps x = exp(...) inside normal double range.
_T_MAX = 6.7
_BASE_STEP = 0.5
_MAX_LEVELS = 10
# A node contribution this far (relative) below the running peak, twice in a
# row, ends the march.
_TAIL_CUTOFF = 1e-22
# Catastrophic scale for a single transformed contribution.
_BLOWUP = 1e100
# Level 0 (13 nodes a side) has no earlier count to size its first block
# from.  Norm integrands stop the side toward zero after 8-13 nodes; 10
# finishes most in one call, and 13 wastes per-point real-order K calls.
_FIRST_BLOCK = 10


@dataclass(frozen=True)
class QuadratureResult:
    """Converged integral value with an absolute error estimate."""

    value: float | complex
    err_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.err_estimate < 0.0:
            raise ValueError("err_estimate must be non-negative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")


# Node tables by (level, sign of t): abscissas and weights outward from
# t = 0, built on first use only as far as a march has asked, and replaced
# whole when extended, so a reader always holds a matching pair.
_TABLES: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}


def _level_grid(level: int) -> tuple[float, float, int]:
    """First |t|, spacing and node count of one side of a level.

    Level 0 is the full grid t = h, 2h, ... (the centre node apart), a
    finer level the odd multiples of its h, out to |t| = _T_MAX.
    """
    h = _BASE_STEP * 0.5**level
    start, stride = (h, h) if level == 0 else (h, 2.0 * h)
    return start, stride, int((_T_MAX - start) / stride) + 1


def _nodes(level: int, sign: float, needed: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, w) of at least the first ``needed`` nodes of a level's side.

    Weights exclude the step h.  Built with ``math``: numpy's SIMD exp,
    sinh and cosh can differ in the last bit, and so would the nodes.
    """
    x, w = _TABLES.get((level, sign), (np.empty(0), np.empty(0)))
    if len(x) < needed:
        start, stride, size = _level_grid(level)
        k = np.arange(len(x), min(size, needed))
        t = sign * (start + stride * k)
        sinh_t = np.fromiter(map(math.sinh, t), float, len(t))
        x_new = np.fromiter(map(math.exp, _HALF_PI * sinh_t), float, len(t))
        w_new = _HALF_PI * np.fromiter(map(math.cosh, t), float, len(t)) * x_new
        x, w = np.concatenate([x, x_new]), np.concatenate([w, w_new])
        _TABLES[(level, sign)] = (x, w)
    return x, w


class _Side:
    """One direction's march over one level's nodes, a block at a time."""

    def __init__(self, level: int, sign: float, block: int):
        self.level, self.sign = level, sign
        self.label = "infinity" if sign > 0.0 else "zero"
        self.size = _level_grid(level)[2]
        self.block = max(1, min(block, self.size))
        self.used = 0
        self.total = 0.0
        self.peak = 0.0
        self.small_run = 0
        self.tail: list[float] = []
        self.done = False
        self.error: Exception | None = None
        self._extra = 0

    def request(self) -> np.ndarray:
        self.x, self.w = _nodes(self.level, self.sign, self.used + self.block)
        return self.x[self.used:self.used + self.block]

    def consume(self, values: np.ndarray) -> None:
        """Walk the block's contributions in order until the tail dies."""
        first = self.used
        terms = (self.w[first:first + len(values)] * values).tolist()
        total, peak, small_run, tail = self.total, self.peak, self.small_run, self.tail
        for term in terms:
            mag = abs(term)
            if not math.isfinite(mag) or mag > _BLOWUP:
                self._fail(mag, float(self.x[self.used]))
                return
            self.used += 1
            total = total + term
            peak = max(peak, mag)
            tail.append(mag)
            if peak > 0.0 and mag <= _TAIL_CUTOFF * peak:
                small_run += 1
                if small_run >= 2:
                    self.total, self.done = total, True
                    return
            else:
                small_run = 0
        self.total, self.peak, self.small_run = total, peak, small_run
        del tail[:-3]
        if self.used == self.size:
            self._at_cap()
            return
        # Continue with the fewest nodes that can end the march, doubling
        # on each further miss.
        self._extra = max(2 - small_run, 2 * self._extra)
        self.block = min(self._extra, self.size - self.used)

    def _fail(self, mag: float, x: float) -> None:
        self.done = True
        if math.isnan(mag):
            self.error = NonConvergenceError(
                f"integrand has no value toward {self.label} at x={x:.3e}"
            )
        else:
            self.error = DivergenceError(
                f"integrand not integrable toward {self.label} "
                f"(contribution ~{mag:.3e} at x={x:.3e})"
            )

    def _at_cap(self) -> None:
        """Parameter cap reached: fine if the tail is dead, else classify it."""
        self.done = True
        last = self.tail[-1]
        if self.peak > 0.0 and last > 1e-8 * self.peak:
            tail = self.tail
            growing = len(tail) >= 3 and tail[-1] >= tail[-2] >= tail[-3]
            if growing or last > 1e-2 * self.peak:
                self.error = DivergenceError(
                    f"integrand not integrable toward {self.label} "
                    f"(contributions still ~{last / self.peak:.1e} of peak at "
                    f"the parameter cap)"
                )
            else:
                self.error = NonConvergenceError(
                    f"integrand tail toward {self.label} decays too slowly for "
                    f"the double-exponential parameter range"
                )


def _march_level(
    f: Callable[[np.ndarray], np.ndarray],
    level: int,
    counts: list[int],
) -> tuple[list, list[int]]:
    """One level's new-node contributions, summed per side.

    ``counts`` holds the nodes each side used at the previous level (empty
    at level 0, whose first call also evaluates f at the centre x = 1 and
    returns it as a third side sum).  The grids are nested, so a side uses
    about as many nodes at level 1 and about twice as many after.  Returns
    the side sums (toward infinity, then zero) and each side's count.
    """
    if not counts:
        blocks = [_FIRST_BLOCK, _FIRST_BLOCK]
    elif level == 1:
        blocks = counts
    else:
        blocks = [2 * n - 2 for n in counts]
    sides = [_Side(level, 1.0, blocks[0]), _Side(level, -1.0, blocks[1])]
    centre = [] if counts else [np.ones(1)]
    sums = []
    while True:
        live = [side for side in sides if not side.done]
        if not live:
            break
        chunks = [side.request() for side in live] + centre
        nodes = np.concatenate(chunks)
        with np.errstate(all="ignore"):
            values = np.asarray(f(nodes))
        if values.shape != nodes.shape:
            raise ValueError("integrand must return one value per abscissa")
        if centre:
            sums.append(_HALF_PI * values[-1].item())  # weight at t = 0
            centre = []
        offset = 0
        for side, chunk in zip(live, chunks):
            side.consume(values[offset:offset + len(chunk)])
            offset += len(chunk)
    # A failure toward infinity is reported first.
    for side in sides:
        if side.error is not None:
            raise side.error
    return [side.total for side in sides] + sums, [side.used for side in sides]


def integrate_semiinfinite(
    f: Callable[[np.ndarray], np.ndarray],
    tol: float,
    max_levels: int = _MAX_LEVELS,
) -> QuadratureResult:
    """Integrate f over (0, inf) to relative tolerance ``tol``.

    ``f`` takes a 1-D float array of abscissas and returns an array of the
    same length.  It may be asked for points past where the march stops, so
    it should return NaN where it cannot evaluate rather than raise; it is
    called under ``np.errstate(all="ignore")``.

    The returned ``err_estimate`` is absolute; success means
    err_estimate <= tol * |value| (with a roundoff floor).  ``evaluations``
    counts the nodes the march consumed.

    Raises:
        DivergenceError: when node contributions blow up (non-finite or
            above 1e100) or still grow at the parameter cap.
        NonConvergenceError: when the march reaches a NaN, a tail decays
            too slowly, or the level budget is exhausted first.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    h = _BASE_STEP
    (inf, zero, centre), counts = _march_level(f, 0, [])
    total = centre + inf + zero
    evaluations = 1 + sum(counts)
    level_sum = h * total

    prev = level_sum
    for level in range(1, max_levels + 1):
        prev = level_sum
        h *= 0.5
        (inf, zero), counts = _march_level(f, level, counts)
        odd = inf + zero
        evaluations += sum(counts)
        level_sum = 0.5 * prev + h * odd

        diff = abs(level_sum - prev)
        floor = 5e-16 * abs(level_sum)
        err = max(0.5 * diff, floor)
        if diff <= tol * abs(level_sum) or diff <= floor:
            return QuadratureResult(level_sum, err, evaluations)

    raise NonConvergenceError(
        f"integrate_semiinfinite: level budget exhausted "
        f"(last change {abs(level_sum - prev):.3e}, tol {tol:g})"
    )

