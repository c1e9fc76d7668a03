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


# The node tables, laid end to end.  Table k = 2 level (toward infinity) or
# 2 level + 1 (toward zero) holds the abscissas x[base[k]:base[k] + have[k]]
# and their weights, outward from t = 0, built on first use only as far as
# a march has asked.  The four arrays are replaced together when a table
# grows, so a reader always holds a matching set.
_TABLES = (np.empty(0), np.empty(0), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))


def _level_grid(level: int) -> tuple[float, float, int]:
    """First |t|, spacing and node count of one side of a level.

    Level 0 is the full grid t = h, 2h, ... (the centre node apart), a
    finer level the odd multiples of its h, out to |t| = _T_MAX.
    """
    h = _BASE_STEP * 0.5**level
    start, stride = (h, h) if level == 0 else (h, 2.0 * h)
    return start, stride, int((_T_MAX - start) / stride) + 1


def _grow_tables(need: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables, table k grown to at least ``need[k]`` nodes (or all its
    level has), laid again.

    Weights exclude the step h.  Built with ``math``: numpy's SIMD exp,
    sinh and cosh can differ in the last bit, and so would the nodes.
    """
    global _TABLES
    x_all, w_all, base, have = _TABLES
    xs, ws = [], []
    for key in range(max(len(need), len(have))):
        old = slice(base[key], base[key] + have[key]) if key < len(have) else slice(0, 0)
        x, w = x_all[old], w_all[old]
        start, stride, size = _level_grid(key >> 1)
        if key < len(need) and len(x) < min(size, need[key]):
            k = np.arange(len(x), min(size, need[key]))
            t = (-1.0 if key & 1 else 1.0) * (start + stride * k)
            sinh_t = np.fromiter(map(math.sinh, t), float, len(t))
            x_new = np.fromiter(map(math.exp, _HALF_PI * sinh_t), float, len(t))
            w_new = _HALF_PI * np.fromiter(map(math.cosh, t), float, len(t)) * x_new
            x, w = np.concatenate([x, x_new]), np.concatenate([w, w_new])
        xs.append(x)
        ws.append(w)
    have = np.array([len(x) for x in xs], dtype=np.intp)
    _TABLES = (np.concatenate(xs), np.concatenate(ws), np.cumsum(have) - have, have)
    return _TABLES


def _label(sign: int) -> str:
    return "zero" if sign else "infinity"


def _cap_error(label: str, tail: list[float], peak: float) -> ArithmeticError | None:
    """A side at the parameter cap: fine (None) if its tail has died off,
    else classified from its last three magnitudes."""
    last = tail[-1]
    if not (peak > 0.0 and last > 1e-8 * peak):
        return None
    if tail[2] >= tail[1] >= tail[0] or last > 1e-2 * peak:
        return DivergenceError(
            f"integrand not integrable toward {label} "
            f"(contributions still ~{last / peak:.1e} of peak at the parameter cap)"
        )
    return NonConvergenceError(
        f"integrand tail toward {label} decays too slowly for the "
        f"double-exponential parameter range"
    )


# Rows of _Marches.ints: a side's node table, the nodes left in its level
# (0 once it stops), the block it asks for next (0 once it stops), its
# integrand, the nodes it has used, the block past a missed tail test
# (doubling on each miss), and whether the last node it took was small.
# A new level zeroes the last three.
_TABLE, _ROOM, _BLOCK, _ID, _USED, _EXTRA, _SMALL = range(7)
# A round reads a side's peak_tail back from its (running peaks,
# magnitudes) rows at these planes and column shifts.
_READ_PLANE = np.array([0, 1, 1, 1])
_READ_SHIFT = np.array([3, 1, 2, 3])


class _Marches:
    """The marches of all integrands, one entry per side.

    Sides 2k and 2k + 1 march the current level of integrand ``ids[k]``
    toward infinity and toward zero.  ``ints`` has a row per integer field
    (_TABLE ...), ``total`` is a side's running total and ``peak_tail`` its
    peak and last three magnitudes.  The sides of an integrand are
    dropped in the round it ends.  A side that reaches a NaN or a
    blow-up gets its error in ``errors``, formatted then; a side at the
    parameter cap is classified when its integrand finishes the level.
    Per integrand, as Python numbers (only level finishes read them):
    level, h, centre, the previous level sum, evaluations and the
    outcome.
    """

    def __init__(self, tols: Sequence[float]):
        n = len(tols)
        self.sizes = [_level_grid(level)[2] for level in range(_MAX_LEVELS + 1)]
        self.columns = np.arange(-1, max(self.sizes) + 1)   # grid column numbers
        self.rows = np.arange(2 * n)
        self.ints = np.zeros((7, 2 * n), dtype=np.intp)
        self.ints[_TABLE, 1::2] = 1
        self.ints[_ROOM] = self.sizes[0]
        self.ints[_BLOCK] = max(1, min(_FIRST_BLOCK, self.sizes[0]))
        self.ints[_ID] = self.rows >> 1
        self.total = np.zeros(2 * n)
        self.peak_tail = np.zeros((2 * n, 4))
        self.ids = list(range(n))
        self.errors: dict[int, ArithmeticError] = {}
        self.tables = _TABLES
        self.tols = list(tols)
        self.levels = [0] * n
        self.h = [_BASE_STEP] * n
        self.centre = [0.0] * n   # set by the first round
        self.prev = [0.0] * n
        self.evaluations = [1] * n   # the centre
        self.outcome: list[QuadratureResult | ArithmeticError | None] = [None] * n

    def gather(self) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]:
        """The next blocks of every side.

        Side j's block fills columns 1 .. length of row j of a (sides x
        width) grid.  Returns the block nodes' flat positions in that
        grid, its width, and their abscissas, weights and integrands, end
        to end in side order.
        """
        ints = self.ints
        lengths, used, table = ints[_BLOCK], ints[_USED], ints[_TABLE]
        top = used + lengths
        x_all, w_all, base, have = self.tables = _TABLES
        if len(have) < 2 * len(self.sizes) or (top > have[table]).any():
            need = np.zeros(2 * len(self.sizes), dtype=np.intp)
            np.maximum.at(need, table, top)
            x_all, w_all, base, have = self.tables = _grow_tables(need)
        width = int(lengths.max()) + 2
        columns = self.columns[:width]
        valid = columns < lengths[:, None]
        valid[:, 0] = False
        flat = valid.ravel().nonzero()[0]
        index = ((base[table] + used)[:, None] + columns).ravel().take(flat)
        return flat, width, x_all.take(index), w_all.take(index), ints[_ID].repeat(lengths)

    def take(self, flat: np.ndarray, width: int, terms: np.ndarray) -> None:
        """Each side takes its block up to the tail's end or a bad contribution.

        A side's row holds its total so far, then its block, then NaN
        padding; a second row (of magnitudes) its peak and last three
        magnitudes, then the block's magnitudes.  A contribution's running
        peak (the side's peak so far included: the earlier magnitudes are
        at most the peak) is a max accumulated along the row, exact in any
        order.  A contribution is small when it is _TAIL_CUTOFF or less of
        the running peak, and bad when it is NaN or above _BLOWUP (padding
        counts as bad); a side takes its block up to the second small one
        in a row, or up to the first bad one, and reads its state back at
        the last node taken.  Its running total is ``np.add.accumulate``
        along its row: the additions of a node-by-node loop, in its order,
        so the same bits.  Past the first bad contribution a row holds
        values that are never read.
        """
        ints, rows = self.ints, self.rows
        lengths = ints[_BLOCK]
        if terms.dtype != self.total.dtype:
            self.total = self.total.astype(np.result_type(terms, self.total))
        sums = np.empty((len(rows), width), self.total.dtype)
        sums.fill(math.nan)
        sums[:, 0] = self.total
        sums.ravel()[flat] = terms
        grid = np.empty((len(rows), 2, width + 3))
        grid[:, 1, :4] = self.peak_tail
        np.abs(sums[:, 1:], out=grid[:, 1, 4:])
        # fmax skips NaN, which only bad contributions and padding are, and
        # nothing past a row's first bad one is read.
        np.fmax.accumulate(grid[:, 1], axis=1, out=grid[:, 0])
        peaks, mags = grid[:, 0, 3:], grid[:, 1, 3:]   # column 0: before the block
        small = mags <= _TAIL_CUTOFF * peaks
        small &= peaks > 0.0
        small[:, 0] = ints[_SMALL]
        ends = small[:, 1:] & small[:, :-1]
        ends[:, -1] = True    # the padding column: past every block
        end = ends.argmax(axis=1)
        fail = (mags[:, 1:] <= _BLOWUP).argmin(axis=1)
        taken = np.minimum(end + 1, fail)
        np.add.accumulate(sums, axis=1, out=sums)
        self.total = sums[rows, taken]
        self.peak_tail = grid[rows[:, None], _READ_PLANE, taken[:, None] + _READ_SHIFT]
        ints[_USED] += taken
        room = ints[_ROOM]
        room -= taken
        ended = end < fail
        short = taken < lengths
        room[ended | short] = 0
        # Continue with the fewest nodes that can end the march, doubling
        # on each further miss; a side with no room left asks for none.
        small_run = ints[_SMALL] = small[rows, lengths]
        extra = ints[_EXTRA]
        np.maximum(2 - small_run, 2 * extra, out=extra)
        np.minimum(extra, room, out=lengths)
        for row in (short > ended).nonzero()[0].tolist():
            x_all, _, base, _ = self.tables
            mag = float(mags[row, 1 + taken[row]])
            x = float(x_all[base[ints[_TABLE, row]] + ints[_USED, row]])
            label = _label(row & 1)
            self.errors[2 * self.ids[row >> 1] + (row & 1)] = (
                NonConvergenceError(f"integrand has no value toward {label} at x={x:.3e}")
                if math.isnan(mag) else DivergenceError(
                    f"integrand not integrable toward {label} "
                    f"(contribution ~{mag:.3e} at x={x:.3e})"))

    def finish_levels(self) -> None:
        """Each integrand whose two sides are done: fail, converge, or start
        its next level.

        A level after the first sizes each side's first block from the count
        that side used at the level before: the grids are nested, so a side
        uses about as many nodes at level 1 and about twice as many after.
        """
        blocks = self.ints[_BLOCK]
        ready = ((blocks[0::2] | blocks[1::2]) == 0).nonzero()[0].tolist()
        if not ready:
            return
        used, totals = self.ints[_USED].tolist(), self.total.tolist()
        ids, sizes, levels, hs, prevs = self.ids, self.sizes, self.levels, self.h, self.prev
        evaluations, outcome = self.evaluations, self.outcome
        rows, tables, rooms, starts, ended = [], [], [], [], []
        for k in ready:
            i = ids[k]
            level = levels[i]
            inf_used, zero_used = used[2 * k], used[2 * k + 1]
            if (self.errors or sizes[level] in (inf_used, zero_used)) and self._failed(k, level):
                ended.append(k)
                continue
            evaluations[i] += inf_used + zero_used
            h, prev = hs[i], prevs[i]
            if level == 0:
                level_sum = h * (self.centre[i] + totals[2 * k] + totals[2 * k + 1])
            else:
                level_sum = 0.5 * prev + h * (totals[2 * k] + totals[2 * k + 1])
                diff = abs(level_sum - prev)
                floor = 5e-16 * abs(level_sum)
                if diff <= self.tols[i] * abs(level_sum) or diff <= floor:
                    outcome[i] = QuadratureResult(
                        level_sum, max(0.5 * diff, floor), evaluations[i])
                    ended.append(k)
                    continue
            if level == _MAX_LEVELS:
                change = abs(level_sum - prev) if level else 0.0
                outcome[i] = NonConvergenceError(
                    f"integrate_semiinfinite: level budget exhausted "
                    f"(last change {change:.3e}, tol {self.tols[i]:g})"
                )
                ended.append(k)
                continue
            levels[i], hs[i], prevs[i] = level + 1, 0.5 * h, level_sum
            size = sizes[level + 1]
            if level:
                inf_used, zero_used = 2 * inf_used - 2, 2 * zero_used - 2
            rows += (2 * k, 2 * k + 1)
            tables += (2 * level + 2, 2 * level + 3)
            rooms += (size, size)
            starts += (max(1, min(inf_used, size)), max(1, min(zero_used, size)))
        if rows:
            rows = np.array(rows)
            self.ints[:_BLOCK + 1, rows] = tables, rooms, starts
            self.ints[_USED:, rows] = 0
            self.total[rows] = 0.0
            self.peak_tail[rows] = 0.0
        if ended:
            running = np.ones(len(ids), dtype=bool)
            running[ended] = False
            keep = running.repeat(2)
            self.ints = self.ints[:, keep]
            self.total, self.peak_tail = self.total[keep], self.peak_tail[keep]
            self.ids = [i for i, on in zip(ids, running.tolist()) if on]
            self.rows = self.rows[:len(self.total)]

    def _failed(self, k: int, level: int) -> bool:
        """Whether a side of the k-th integrand's level failed; its error,
        toward infinity first, becomes the integrand's outcome."""
        i = self.ids[k]
        for row in (2 * k, 2 * k + 1):
            error = self.errors.get(2 * i + (row & 1))
            if error is None and self.ints[_USED, row] == self.sizes[level]:
                # At the parameter cap.  A side whose tail test ended it at
                # its last node has a dead tail, so no error.
                peak, *tail = self.peak_tail[row].tolist()
                error = _cap_error(_label(row & 1), tail, peak)
            if error is not None:
                self.outcome[i] = error
                return True
        return False


def integrate_semiinfinite_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tols: Sequence[float],
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
    marches = _Marches(tols)
    centres = np.arange(len(tols))   # level 0 also takes f at x = 1
    with np.errstate(all="ignore"):
        while marches.ids:
            flat, width, x, w, which = marches.gather()
            nodes = np.concatenate([x, np.ones(len(centres))]) if len(centres) else x
            which = np.concatenate([which, centres]) if len(centres) else which
            values = np.asarray(f(nodes, which))
            if values.shape != nodes.shape:
                raise ValueError("integrand must return one value per abscissa")
            marches.take(flat, width, w * values[:len(x)])
            for i, value in zip(centres.tolist(), values[len(x):].tolist()):
                marches.centre[i] = _HALF_PI * value  # weight at t = 0
            centres = centres[:0]
            marches.finish_levels()
    return marches.outcome


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
