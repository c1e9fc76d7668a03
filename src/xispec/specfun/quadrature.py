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

``integrate_semiinfinite_batch`` marches many integrands in lockstep:
each round is one call for the next blocks of every integrand still
running, and each integrand keeps its own levels, blocks, tail test and
estimate, so it gets the bits it would get alone and its failure is its
own.  ``integrate_semiinfinite`` is a one-integrand call of it.

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
from collections.abc import Callable, Sequence
from dataclasses import dataclass

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

    def request(self) -> tuple[np.ndarray, np.ndarray]:
        """Abscissas and weights of the next block."""
        self.x, self.w = _nodes(self.level, self.sign, self.used + self.block)
        block = slice(self.used, self.used + self.block)
        return self.x[block], self.w[block]

    def take(
        self, terms: np.ndarray, mags: np.ndarray, peaks: np.ndarray,
        small: np.ndarray, end: int, bad: int,
    ) -> None:
        """Take the block's contributions up to the tail's end or a bad one.

        ``end`` is the first contribution that ends the march (the second
        small one in a row), ``bad`` the first that is NaN or blows up;
        either is len(terms) or more when there is none.  The running total
        is ``np.add.accumulate`` over the block with the total so far added
        to its first term: the additions of a node-by-node loop, in its
        order, so the same bits.
        """
        taken = min(end + 1, bad, len(terms))
        if taken:
            terms[0] += self.total
            self.total = np.add.accumulate(terms[:taken])[-1].item()
            self.peak = float(peaks[taken - 1])
            self.tail = (self.tail + mags[max(0, taken - 3):taken].tolist())[-3:]
        self.used += taken
        if end < bad:
            self.done = True
        elif taken < len(terms):
            self._fail(float(mags[taken]), float(self.x[self.used]))
        elif self.used == self.size:
            self._at_cap()
        else:
            # Continue with the fewest nodes that can end the march,
            # doubling on each further miss.
            self.small_run = int(small[-1])
            self._extra = max(2 - self.small_run, 2 * self._extra)
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


def _take_blocks(
    sides: list[_Side], weights: np.ndarray, values: np.ndarray, lengths: list[int]
) -> None:
    """Each side takes its block of one round, all blocks at once.

    The blocks lie end to end in ``weights`` and ``values``.  A block's
    running peak (the side's peak so far included) is a doubling scan: max
    is exact in any order.  A contribution is small when it is
    _TAIL_CUTOFF or less of the running peak, and bad when it is NaN or
    above _BLOWUP; the first of each per block goes to ``_Side.take``.
    """
    terms = weights * values
    mags = np.abs(terms)
    starts = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(len(sides)), lengths)
    pos = np.arange(len(terms)) - starts[owner]
    bad = ~(mags <= _BLOWUP)
    peaks = np.where(bad, 0.0, mags)
    step = 1
    while step < max(lengths):
        np.maximum(peaks[step:], np.where(pos[step:] >= step, peaks[:-step], 0.0),
                   out=peaks[step:])
        step *= 2
    np.maximum(peaks, np.array([side.peak for side in sides])[owner], out=peaks)
    small = (peaks > 0.0) & (mags <= _TAIL_CUTOFF * peaks)
    after_small = np.empty_like(small)
    after_small[1:] = small[:-1]
    after_small[starts] = [side.small_run > 0 for side in sides]
    none = len(terms)
    first_end = np.minimum.reduceat(np.where(small & after_small, pos, none), starts)
    first_bad = np.minimum.reduceat(np.where(bad, pos, none), starts)
    for side, start, length, end, fail in zip(
        sides, starts.tolist(), lengths, first_end.tolist(), first_bad.tolist()
    ):
        span = slice(start, start + length)
        side.take(terms[span], mags[span], peaks[span], small[span], end, fail)


class _Integral:
    """One integrand's march: its level, the two sides of that level, and
    the level sums so far.

    Level 0 also takes f at the centre x = 1, with its first blocks.  A
    level after it sizes each side's first block from the count that side
    used at the level before: the grids are nested, so a side uses about as
    many nodes at level 1 and about twice as many after.
    """

    def __init__(self, tol: float, max_levels: int):
        self.tol, self.max_levels = tol, max_levels
        self.level = 0
        self.h = _BASE_STEP
        self.sides = [_Side(0, 1.0, _FIRST_BLOCK), _Side(0, -1.0, _FIRST_BLOCK)]
        self.centre: float | None = None
        self.level_sum = self.prev = 0.0
        self.evaluations = 1   # the centre
        self.outcome: QuadratureResult | ArithmeticError | None = None

    def finish_level(self) -> None:
        """Once both sides are done: fail, converge, or start the next level."""
        inf, zero = self.sides
        # A failure toward infinity is reported first.
        error = inf.error or zero.error
        if error is not None:
            self.outcome = error
            return
        self.evaluations += inf.used + zero.used
        if self.level == 0:
            self.level_sum = self.h * (self.centre + inf.total + zero.total)
        else:
            self.level_sum = 0.5 * self.prev + self.h * (inf.total + zero.total)
            diff = abs(self.level_sum - self.prev)
            floor = 5e-16 * abs(self.level_sum)
            if diff <= self.tol * abs(self.level_sum) or diff <= floor:
                self.outcome = QuadratureResult(
                    self.level_sum, max(0.5 * diff, floor), self.evaluations
                )
                return
        if self.level == self.max_levels:
            change = abs(self.level_sum - self.prev) if self.level else 0.0
            self.outcome = NonConvergenceError(
                f"integrate_semiinfinite: level budget exhausted "
                f"(last change {change:.3e}, tol {self.tol:g})"
            )
            return
        counts = [inf.used, zero.used]
        self.level += 1
        self.prev = self.level_sum
        self.h *= 0.5
        blocks = counts if self.level == 1 else [2 * n - 2 for n in counts]
        self.sides = [_Side(self.level, 1.0, blocks[0]), _Side(self.level, -1.0, blocks[1])]


def integrate_semiinfinite_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tols: Sequence[float],
    max_levels: int = _MAX_LEVELS,
) -> list[QuadratureResult | ArithmeticError]:
    """Integrate many integrands over (0, inf) in lockstep, one f call a round.

    Integrand i is integrated to relative tolerance ``tols[i]``.  ``f(x,
    which)`` takes a 1-D float array of abscissas and an integer array of
    the same length saying which integrand each abscissa belongs to, and
    returns one value per abscissa.  Each round asks f for the next block
    of every side still marching, of every integrand still running, so
    the calls number the rounds of the longest march, not the blocks of
    all of them.  Each integrand marches exactly as it would alone: its
    own levels, blocks, tail test and estimate, and the same bits.

    Returns, per integrand, its ``QuadratureResult`` or the error that
    ended its march (``DivergenceError`` or ``NonConvergenceError``, as
    ``integrate_semiinfinite`` raises them); one integrand's failure does
    not stop the others.
    """
    if not all(tol > 0.0 for tol in tols):
        raise ValueError("tol must be positive")
    runs = [_Integral(tol, max_levels) for tol in tols]
    live = list(enumerate(runs))
    while live:
        sides, owners, centres = [], [], []
        for i, run in live:
            for side in run.sides:
                if not side.done:
                    sides.append(side)
                    owners.append(i)
        for i, run in live:
            if run.centre is None:
                centres.append(run)
                owners.append(i)
        blocks = [side.request() for side in sides]
        lengths = [len(x) for x, _ in blocks]
        nodes = np.concatenate([x for x, _ in blocks] + [np.ones(len(centres))])
        which = np.repeat(owners, lengths + [1] * len(centres))
        with np.errstate(all="ignore"):
            values = np.asarray(f(nodes, which))
        if values.shape != nodes.shape:
            raise ValueError("integrand must return one value per abscissa")
        count = sum(lengths)
        _take_blocks(sides, np.concatenate([w for _, w in blocks]), values[:count], lengths)
        for run, value in zip(centres, values[count:].tolist()):
            run.centre = _HALF_PI * value  # weight at t = 0
        for _, run in live:
            if all(side.done for side in run.sides):
                run.finish_level()
        live = [(i, run) for i, run in live if run.outcome is None]
    return [run.outcome for run in runs]


def integrate_semiinfinite(
    f: Callable[[np.ndarray], np.ndarray], tol: float
) -> QuadratureResult:
    """Integrate f over (0, inf) to relative tolerance ``tol``.

    A one-integrand ``integrate_semiinfinite_batch``.  ``f`` takes a 1-D
    float array of abscissas and returns an array of the same length.  It
    may be asked for points past where the march stops, so it should
    return NaN where it cannot evaluate rather than raise; it is called
    under ``np.errstate(all="ignore")``.

    The returned ``err_estimate`` is absolute; success means
    err_estimate <= tol * |value| (with a roundoff floor).  ``evaluations``
    counts the nodes the march consumed.

    Raises:
        DivergenceError: when node contributions blow up (non-finite or
            above 1e100) or still grow at the parameter cap.
        NonConvergenceError: when the march reaches a NaN, a tail decays
            too slowly, or the level budget is exhausted first.
    """
    (outcome,) = integrate_semiinfinite_batch(lambda x, which: f(x), [tol])
    if isinstance(outcome, ArithmeticError):
        raise outcome
    return outcome
