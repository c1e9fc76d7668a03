"""Critical-line zero location by sign-change scanning and refinement.

Scanning runs on Hardy's Z(t) rather than Xi(t) directly: the two share
their zeros and signs up to a fixed flip, but Z stays O(1) where
|Xi(t)| ~ e^{-pi t/4} underflows.  Brackets are refined by Chandrupatla's
method (inverse quadratic interpolation with a bisection fallback), which
always keeps a sign change enclosed.  Every sign it sees is certain: a
Riemann-Siegel value counts only where it exceeds its error bound B(t), and
Euler-Maclaurin, the reference, settles the others.  So the final bracket's
half-width bounds the distance to the zero of Z as Euler-Maclaurin computes
it.  That holds up to ``specfun.xi.EM_MAX_T`` = 5e5, the highest t_max a run
accepts; above it Euler-Maclaurin no longer converges, doubtful
Riemann-Siegel signs are taken as they are, and the half-width leaves out
their error.  ``refine_brackets`` is the one refinement loop: ``scan_zeros``
passes it every bracket with the Z values its scan already holds at the
bracket ends, and ``refine_zero`` is a one-bracket call of it.

The scan samples Z at the Gram points g_n, where theta(g_n) = n pi (Brent,
"On the zeros of the Riemann zeta function in the critical strip", Math.
Comp. 33, 1979), from g_-1 ~ 9.667 (no zero lies below 14.13) to the
first good one at or past t_max.  g_n is good where (-1)^n Z(g_n) > 0.
Between two consecutive good Gram points lies a Rosser block of k
intervals, and Rosser's rule, which holds far above the 5e5 ceiling, puts
k zeros in it.  A block that shows fewer sign changes, as every block with
a bad Gram point does at first, has its intervals split into 4, then 8,
... equal parts until it shows them; one still short with its intervals
split ``_BLOCK_SPLIT_CAP`` ways raises ``NonConvergenceError``, so a
missed zero is an error, never a short list.
The rule only guides the search: nothing here certifies the count.

Every Z evaluation is one array call: ``hardy_z`` for the Gram points, one
more per splitting round for the new points of all short blocks, and, per
refinement step, ``hardy_z_paths`` for the trial points of all the
brackets still open, which advance in lockstep, then ``hardy_z`` for the
two sides of each trial point whose path code is ``Z_DOUBT``.  The
Euler-Maclaurin points of each call are one array call too
(``specfun.xi``).

The persistent cache is a plain text CSV with a checksummed header
(64-bit BLAKE2b over the header's version, tol and tmax fields and the
data-line bytes, newline included).  It is written to a new temp file,
mode 0o666 less the umask as for the reports, then renamed over the cache.
A read takes at most ``_CACHE_MAX_BYTES``; a longer file is corrupt.  A
cache of another version is a miss, so the run rescans and rewrites it.
``ZeroCache.save`` formats each zero's row once, writes those rows and
returns the zeros a cache read parses from them, so a run that writes the
cache goes on with the zeros a later run reads, and its outputs are that run's.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

# hashlib.blake2b is _blake2.blake2b; importing hashlib would also load
# OpenSSL, about 3.6 MB more in every process, for one 64-bit hash.
from _blake2 import blake2b

import numpy as np

from .errors import BracketError, CacheCorruptionError, NonConvergenceError
from .specfun import hardy_z, hardy_z_paths
from .specfun.xi import Z_DOUBT, theta_series

CACHE_VERSION = "v3"
# About twice the largest cache a run can write: zero_count_estimate of
# config.T_MAX_CEILING is 818,414 rows of at most 34 bytes, about 28 MB.
_CACHE_MAX_BYTES = 64 * 2**20

_TWO_PI = 2.0 * math.pi
# Newton steps for the Gram points at most; 7 reach double precision.
_GRAM_NEWTON_STEPS = 20
# Gram points computed past the one at t_max, so one is usually good.
_GRAM_SPARE = 4
# A short Rosser block's intervals are split at most this many ways.
_BLOCK_SPLIT_CAP = 4096
_COLUMNS = ("gamma", "lo", "hi", "abs_err")


@dataclass(frozen=True)
class CriticalZero:
    """One ordinate gamma_n with its enclosing bracket and error bound."""

    index: int
    gamma: float
    bracket: tuple[float, float]
    abs_err: float

    def __post_init__(self) -> None:
        t_lo, t_hi = self.bracket
        if not (t_lo < self.gamma < t_hi):
            raise ValueError("gamma must lie strictly inside its bracket")
        if self.abs_err < 0.0:
            raise ValueError("abs_err must be non-negative")
        if self.index < 1:
            raise ValueError("indices start at 1")


@dataclass(frozen=True, eq=False)
class ZeroTable(Sequence[CriticalZero]):
    """Zeros 1, 2, ..., n as read-only float64 columns: row k is zero k + 1,
    its ``gamma`` strictly inside (``lo``, ``hi``), within ``abs_err``.
    An integer index gives that row as a ``CriticalZero``; a slice or a
    boolean mask gives the table of those rows, numbered from 1 again."""

    gamma: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    abs_err: np.ndarray

    def __post_init__(self) -> None:
        columns = np.array([getattr(self, f) for f in _COLUMNS], dtype=np.float64)
        if columns.ndim != 2:
            raise ValueError("the columns must be 1-d and of one length")
        columns.flags.writeable = False
        for name, column in zip(_COLUMNS, columns):
            object.__setattr__(self, name, column)
        if not ((self.lo < self.gamma) & (self.gamma < self.hi)).all():
            raise ValueError("gamma must lie strictly inside its bracket")
        if (self.abs_err < 0.0).any():
            raise ValueError("abs_err must be non-negative")

    def __len__(self) -> int:
        return self.gamma.size

    def __getitem__(self, key: int | slice | np.ndarray) -> "CriticalZero | ZeroTable":
        if isinstance(key, (slice, np.ndarray)):
            return ZeroTable(*(getattr(self, f)[key] for f in _COLUMNS))
        k = range(len(self))[key]
        g, lo, hi, e = (float(getattr(self, f)[k]) for f in _COLUMNS)
        return CriticalZero(k + 1, g, (lo, hi), e)


def refine_brackets(
    brackets: Sequence[tuple[float, float]],
    tol: float,
    *,
    z_ends: Sequence[tuple[float, float]] | None = None,
) -> ZeroTable:
    """Refine sign-change brackets of Xi (equivalently Z) to width <= tol.

    The k-th bracket gives the zero with index k.  A tol below four times
    the spacing of doubles at a bracket is raised to it there: a tighter
    bracket cannot be resolved.

    Chandrupatla's method: the first trial point is the root of the chord
    through the two ends, each later one comes from inverse quadratic
    interpolation through the two bracket ends and the last point dropped,
    falling back to bisection when the interpolant is not trusted.  Each
    trial point stays at least tol/2 inside its bracket, so once the
    estimate has converged the next step straddles the root and closes the
    bracket.  A trial point whose Riemann-Siegel sign is in doubt lies
    within about B(t)/|Z'| of the root, so ``hardy_z`` takes the two
    sides trial -+ o instead, with o = 2 B / |s| for the secant slope s
    through the bracket ends, kept in [tol/4, 0.49 tol]: where B/|Z'| is
    below tol/2 both are certain Riemann-Siegel signs, and only elsewhere
    does Euler-Maclaurin settle a side (up to EM_MAX_T; see the module
    docstring).  Sides whose signs differ close the bracket, at most tol
    wide; where they agree, the side next to the end of the other sign
    takes the trial point's place, and no sign at the trial point itself
    is needed.  All brackets advance in lockstep: each iteration evaluates
    Z in one array call at the trial points of the brackets still open,
    and one more at the sides of those in doubt.  A Z of exactly 0.0, at a
    bracket end or a trial point, gives that point as gamma, within tol/2.
    ``z_ends`` passes already known Z values at the two ends of each
    bracket, saving their evaluation.

    Raises:
        BracketError: if a bracket is empty or its ends do not straddle a
            sign change.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    ends = np.array(brackets, dtype=np.float64).reshape(-1, 2)
    lo, hi = ends[:, 0], ends[:, 1]
    empty = np.flatnonzero(~(lo < hi))
    if empty.size:
        i = empty[0]
        raise BracketError(f"empty bracket ({float(lo[i])!r}, {float(hi[i])!r})")
    spacing = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    tols = np.maximum(tol, 4.0 * spacing)
    if z_ends is None:
        f_ends = hardy_z(np.concatenate([lo, hi])).reshape(2, -1).T
    else:
        f_ends = np.array(z_ends, dtype=np.float64).reshape(-1, 2)
    f_lo, f_hi = f_ends[:, 0], f_ends[:, 1]
    zero_lo, zero_hi = f_lo == 0.0, f_hi == 0.0
    same_sign = np.flatnonzero(
        ~zero_lo & ~zero_hi & (np.signbit(f_lo) == np.signbit(f_hi))
    )
    if same_sign.size:
        i = same_sign[0]
        raise BracketError(
            f"no sign change on ({float(lo[i])!r}, {float(hi[i])!r}): "
            f"Z={f_lo[i]:.3e} and {f_hi[i]:.3e}"
        )

    # Per bracket, as it closes: gamma, the bracket's two ends and abs_err.
    found = np.empty((4, lo.size))
    at_end = zero_lo | zero_hi
    _exact(found, at_end, np.where(zero_lo, lo, hi)[at_end], tols[at_end])

    # Per open bracket (its position in `live`): a, the newest end; b, the
    # other end; c, the end a replaced; step, the fraction of the way from
    # a to b of the next trial point.
    live = np.flatnonzero(~at_end)
    a, f_a, b, f_b = hi[live], f_hi[live], lo[live], f_lo[live]
    # The first trial point is the root of the chord through the two ends,
    # clamped as every later one is.
    clamp = 0.5 * tols[live] / (a - b)
    step = np.minimum(np.maximum(f_a / (f_a - f_b), clamp), 1.0 - clamp)
    seen = np.zeros(live.size)  # B(t) at the bracket's last Riemann-Siegel point
    while True:
        closed = ~(np.abs(b - a) > tols[live])
        _close(found, live[closed], np.minimum(a, b)[closed], np.maximum(a, b)[closed])
        live, a, f_a, b, f_b, step, seen = (
            x[~closed] for x in (live, a, f_a, b, f_b, step, seen)
        )
        if live.size == 0:  # every column of found is set by now
            return ZeroTable(*found)

        trial = a + step * (b - a)
        # A trial point whose Riemann-Siegel sign is in doubt lies near the
        # root.  It is in doubt where hardy_z_paths says Z_DOUBT, and taken to
        # be, unevaluated, where the line through the ends puts |Z| <= B(t)
        # of the last Riemann-Siegel point already: an interpolated point is
        # closer to the root than that.
        f_line = f_a + (trial - a) * ((f_b - f_a) / (b - a))
        near = (seen > 0.0) & ~(np.abs(f_line) > seen)
        f_trial, bound, doubt = np.zeros_like(trial), np.zeros_like(trial), near.copy()
        f_trial[~near], bound[~near], paths = hardy_z_paths(trial[~near])
        doubt[~near] = paths == Z_DOUBT
        seen = np.where(near, seen, bound)
        doubt = np.flatnonzero(doubt)
        straddled = np.zeros(live.size, dtype=bool)
        if doubt.size:
            # Z at trial -+ o, o = 2 B / |s| for the secant slope s through
            # the ends, kept in [tol/4, 0.49 tol] and within the bracket:
            # where B/|Z'| < tol/2, both sides are past Riemann-Siegel's doubt.
            # Certain signs that differ close the bracket; where they agree,
            # the side next to the end of the other sign takes the trial
            # point's place, or the far side where that one lies within
            # 2 ulps of the end and would leave too narrow a bracket.
            d_tol, d_a, d_b, d_trial = tols[live[doubt]], a[doubt], b[doubt], trial[doubt]
            slope = np.abs((f_b[doubt] - f_a[doubt]) / (d_b - d_a))
            o = np.minimum(np.maximum(2.0 * seen[doubt] / slope, 0.25 * d_tol), 0.49 * d_tol)
            side_lo = np.maximum(d_trial - o, np.minimum(d_a, d_b))
            side_hi = np.minimum(d_trial + o, np.maximum(d_a, d_b))
            f_side = hardy_z(np.concatenate([side_lo, side_hi])).reshape(2, -1)
            closes = np.signbit(f_side[0]) != np.signbit(f_side[1])
            shut, moved = doubt[closes], doubt[~closes]
            _close(found, live[shut], side_lo[closes], side_hi[closes])
            straddled[shut] = True
            s_lo, s_hi, f_s = side_lo[~closes], side_hi[~closes], f_side[:, ~closes]
            end = np.where(np.signbit(f_a[moved]) != np.signbit(f_s[0]), a[moved], b[moved])
            up = end > trial[moved]
            up ^= np.abs(end - np.where(up, s_hi, s_lo)) < 2.0 * spacing[live[moved]]
            trial[moved] = np.where(up, s_hi, s_lo)
            f_trial[moved] = np.where(up, f_s[1], f_s[0])
        hit = (f_trial == 0.0) & ~straddled
        _exact(found, live[hit], trial[hit], tols[live[hit]])
        keep = ~(hit | straddled)
        live, a, f_a, b, f_b, trial, f_trial, seen = (
            x[keep] for x in (live, a, f_a, b, f_b, trial, f_trial, seen)
        )

        same = np.signbit(f_trial) == np.signbit(f_a)
        c, f_c = np.where(same, a, b), np.where(same, f_a, f_b)
        b, f_b = np.where(same, b, a), np.where(same, f_b, f_a)
        a, f_a = trial, f_trial
        xi = (a - b) / (c - b)
        phi = (f_a - f_b) / (f_c - f_b)
        step = np.full(live.size, 0.5)
        # Interpolate only where trusted: elsewhere f_c may equal f_a.
        q = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
        a_q, b_q, c_q, fa_q, fb_q, fc_q = a[q], b[q], c[q], f_a[q], f_b[q], f_c[q]
        step[q] = (fa_q / (fb_q - fa_q)) * (fc_q / (fb_q - fc_q)) + (
            (c_q - a_q) / (b_q - a_q)
        ) * (fa_q / (fc_q - fa_q)) * (fb_q / (fc_q - fb_q))
        clamp = 0.5 * tols[live] / np.abs(b - a)
        step = np.minimum(np.maximum(step, clamp), 1.0 - clamp)


def _close(found: np.ndarray, i: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray) -> None:
    """Columns i of ``found`` from closed brackets: the midpoint, within half the width."""
    found[:, i] = (0.5 * (t_lo + t_hi), t_lo, t_hi, 0.5 * (t_hi - t_lo))


def _exact(found: np.ndarray, i: np.ndarray, t: np.ndarray, tol: np.ndarray) -> None:
    """Columns i of ``found`` from a Z of exactly 0.0 at t: t, within tol/2."""
    half = 0.5 * tol
    found[:, i] = (t, t - half, t + half, half)


def refine_zero(bracket: tuple[float, float], tol: float) -> CriticalZero:
    """Refine one sign-change bracket: ``refine_brackets`` on that bracket.

    Raises:
        BracketError: if the endpoints do not straddle a sign change.
    """
    return refine_brackets([bracket], tol)[0]


def gram_points(first: int, last: int) -> np.ndarray:
    """The Gram points g_first, ..., g_last, theta(g_n) = n pi, for first >= -1.

    Newton on the array from the Lambert-W estimate
    g_n ~ 2 pi e exp(W((n + 1/8) / e)) (Winitzki's approximation of W), with
    theta from its asymptotic series.  g_-1 ~ 9.667 lies where theta
    increases, past its minimum near t = 6.29.
    """
    n = np.arange(first, last + 1, dtype=np.float64)
    w = np.log1p((n + 0.125) / math.e)
    t = (_TWO_PI * math.e) * np.exp(w * (1.0 - np.log1p(w) / (2.0 + w)))
    for _ in range(_GRAM_NEWTON_STEPS):
        log_t = np.log(t / _TWO_PI)
        step = (theta_series(t, log_t) - n * math.pi) / (0.5 * log_t - 1.0 / (48.0 * t * t))
        t -= step
        if not np.any(np.abs(step) > 1e-15 * t):
            break
    return t


def _gram_scan(t_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Gram points g_-1 ... g_K, Z there, which are good, and Z(t_max), where
    g_K is the first good Gram point at or past t_max: (-1)^n Z(g_n) > 0.

    The points run a few past the one at t_max, so that one Z call, which
    takes t_max too, usually reaches a good one; otherwise a further call
    adds the next few.
    """
    t_top = np.array([max(t_max, 10.0)])  # g_top >= t_max
    top = math.ceil(theta_series(t_top, np.log(t_top / _TWO_PI))[0] / math.pi)
    gram = gram_points(-1, top + _GRAM_SPARE)
    values = hardy_z(np.append(gram, t_max))
    values, z_top = values[:-1], float(values[-1])
    while True:
        # Position i holds g_(i-1): good where Z is positive at odd i, negative at even.
        good = np.where(np.arange(gram.size) % 2 == 1, values > 0.0, values < 0.0)
        past = np.flatnonzero(good & (gram >= t_max))
        if past.size:
            end = int(past[0]) + 1
            return gram[:end], values[:end], good[:end], z_top
        more = gram_points(gram.size - 1, gram.size + 2 * _GRAM_SPARE)
        gram, values = np.append(gram, more), np.append(values, hardy_z(more))


def _sign_changes(values: np.ndarray) -> np.ndarray:
    """Whether Z changes sign between points i and i + 1 along the last axis
    (a zero counts as positive)."""
    negative = values < 0.0
    return negative[..., :-1] != negative[..., 1:]


def _split_short_blocks(
    gram: np.ndarray, values: np.ndarray, good: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Gram points and the points that split their short Rosser blocks,
    in order, and Z at them.

    A block runs from one good Gram point to the next; one of k intervals
    is short while it shows fewer than k sign changes.  The first round
    splits each interval of every short block into 4 equal parts; each
    later round halves every part of the blocks still short.  A round is
    one Z call at the new points of all of them.

    Raises:
        NonConvergenceError: for a block still short with its intervals
            split ``_BLOCK_SPLIT_CAP`` ways.
    """
    starts = np.flatnonzero(good)
    need = np.diff(starts)
    # Gram interval i, from gram[i] to gram[i + 1], lies in block block_of[i].
    block_of = np.cumsum(good)[:-1] - 1
    shown = np.bincount(block_of, weights=_sign_changes(values), minlength=need.size)
    # One row per interval of a short block: its points and Z there.
    left = np.flatnonzero((shown < need)[block_of])
    block = block_of[left]
    t = np.column_stack([gram[left], gram[left + 1]])
    z = np.column_stack([values[left], values[left + 1]])
    found_t, found_z = [gram], [values]
    ratio = 4
    while block.size:
        parts = (t.shape[1] - 1) * ratio
        inner = t[:, :-1, None] + np.diff(t)[:, :, None] * (np.arange(1, ratio) / ratio)
        inner_z = hardy_z(inner.ravel()).reshape(inner.shape)
        t = np.column_stack([np.dstack([t[:, :-1, None], inner]).reshape(-1, parts), t[:, -1]])
        z = np.column_stack([np.dstack([z[:, :-1, None], inner_z]).reshape(-1, parts), z[:, -1]])
        shown = np.bincount(block, weights=_sign_changes(z).sum(axis=1), minlength=need.size)
        done = (shown >= need)[block]
        found_t.append(t[done, 1:-1].ravel())
        found_z.append(z[done, 1:-1].ravel())
        if parts >= _BLOCK_SPLIT_CAP and not done.all():
            b = block[~done][0]
            lo, hi = starts[b], starts[b + 1]
            raise NonConvergenceError(
                f"Rosser block [{gram[lo]:.6f}, {gram[hi]:.6f}] (Gram points g_{lo - 1} "
                f"to g_{hi - 1}) shows {int(shown[b])} of its {need[b]} sign changes "
                f"with each interval split {parts} ways"
            )
        t, z, block = t[~done], z[~done], block[~done]
        ratio = 2
    t, z = np.concatenate(found_t), np.concatenate(found_z)
    order = np.argsort(t, kind="stable")
    return t[order], z[order]


def scan_zeros(t_max: float, tol: float) -> ZeroTable:
    """All zeros of Xi on (0, t_max], in increasing order, refined to tol.

    Z is sampled at the Gram points g_-1 ... g_K, g_K the first good one
    at or past t_max.  Between two consecutive good Gram points, a Rosser
    block of k intervals must show k sign changes; a block that shows
    fewer is split finer until it does.  The sign changes over all the
    points below t_max and t_max itself are the brackets refined: Z at
    t_max, taken in the Gram points' call, cuts the one bracket that holds
    it, so a zero is listed exactly when its sign change lies at or below
    t_max, whatever the tolerance.

    Raises:
        NonConvergenceError: for a Rosser block still short at the finest
            split (see ``_split_short_blocks``).
    """
    if not (t_max > 0.0):
        raise ValueError("t_max must be positive")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    gram, values, good, z_top = _gram_scan(t_max)
    t, z = _split_short_blocks(gram, values, good)
    # t_max cuts the bracket that holds it; the k-th bracket holds zero k.
    below = np.searchsorted(t, t_max)
    t, z = np.append(t[:below], t_max), np.append(z[:below], z_top)
    i = np.flatnonzero(_sign_changes(z))
    return refine_brackets(
        np.column_stack([t[i], t[i + 1]]), tol, z_ends=np.column_stack([z[i], z[i + 1]])
    )


def zero_count_main_term(t: float) -> float:
    """M(t) = (t/2 pi) log(t/2 pi e) + 7/8, the main term of N(t), unrounded."""
    return (t / (2.0 * math.pi)) * math.log(t / (2.0 * math.pi * math.e)) + 0.875


def zero_count_remainder_bound(t: float) -> float:
    """R(t) = 0.112 log t + 0.278 log log t + 2.51 + 0.2/t >= |N(t) - M(t)|, t >= e.

    The constants are quoted from T. Trudgian, J. Number Theory 134 (2014),
    not derived here; tests/test_zeros.py checks them on the zeros to 1190.
    """
    return 0.112 * math.log(t) + 0.278 * math.log(math.log(t)) + 2.51 + 0.2 / t


def zero_count_estimate(t_max: float) -> int:
    """Rounded asymptotic count of critical-line zeros up to t_max.

    0 up to t = 2 pi, where M(t) has its minimum, -1/8; below it M rises
    toward 7/8, a count no zero there supports.
    """
    if t_max <= _TWO_PI:
        return 0
    return int(round(zero_count_main_term(t_max)))


# --------------------------- persistent cache ---------------------------


def cache_checksum(head: str, data: bytes) -> int:
    """The cache checksum: 64-bit BLAKE2b over the header up to its checksum
    field (``# xi-zeros <version> tol=... tmax=...``), a newline, and the rows."""
    digest = blake2b(f"{head}\n".encode("utf-8"), digest_size=8)
    digest.update(data)
    return int.from_bytes(digest.digest(), "big")


def format_rows(zeros: ZeroTable) -> list[str]:
    """One `index,gamma,abs_err` row per zero: the cache and `xispec zeros` format."""
    # A scan's errors take few distinct values: each is formatted once,
    # keyed by its bits, so that 0.0 and -0.0 keep their own text.
    bits = zeros.abs_err.view(np.int64).tolist()
    text = {b: "%.3e" % e for b, e in dict(zip(bits, zeros.abs_err.tolist())).items()}
    rows = zip(range(1, len(zeros) + 1), zeros.gamma.tolist(), map(text.__getitem__, bits))
    return ["%d,%.15g,%s" % row for row in rows]


def parse_rows(lines: list[str], source: str) -> ZeroTable:
    """Zeros from `index,gamma,abs_err` rows, the first on line 2 of ``source``.

    Gamma and abs_err come back as the doubles their 15 and 4 significant
    digits name, so zeros parsed from ``format_rows`` are the zeros a
    later run reads from the cache.

    Raises:
        CacheCorruptionError: for a row that does not parse, indices that
            do not run 1, 2, ..., or a gamma that does not increase.
    """
    index, rows, unparsed = [], [], None
    for lineno, line in enumerate(lines, start=2):
        try:
            idx_s, gamma_s, err_s = line.split(",")
            row = float(gamma_s), float(err_s)
            index.append(int(idx_s))
        except ValueError as exc:
            unparsed = exc  # raised unless an earlier line has a fault
            break
        rows.append(row)
    g, e = np.array(rows).reshape(-1, 2).T
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as with floats
        lo, hi = g - e, g + e
    # Faults: a CriticalZero check, a wrong index (any int), a gamma that falls.
    bad = ~((lo < g) & (g < hi)) | (e < 0.0) | (np.array(index) != np.arange(1, g.size + 1))
    bad[1:] |= ~(g[1:] > g[:-1])
    k = int(np.argmax(bad)) if bad.any() else len(rows)
    try:
        if k == len(rows):
            if unparsed is None:
                return ZeroTable(g, lo, hi, e)
            raise unparsed
        gamma, err = rows[k]
        CriticalZero(index[k], gamma, (gamma - err, gamma + err), err)
    except ValueError as exc:
        raise CacheCorruptionError(f"cache {source}: bad row at line {k + 2}: {exc}") from exc
    if index[k] == k + 1:
        raise CacheCorruptionError(f"cache {source}: gamma does not increase at line {k + 2}")
    raise CacheCorruptionError(
        f"cache {source}: index {index[k]} at line {k + 2}, expected {k + 1}"
    )


@dataclass
class ZeroCache:
    """On-disk zero table; reused only when it covers the height at the tolerance."""

    t_max: float
    tol: float
    zeros: ZeroTable

    def save(self, path: str) -> ZeroTable:
        """Write the cache atomically and return the zeros parsed back from
        the rows written: those any later ``load`` of it gives.  They are
        parsed in memory, not re-read: another run on the same path may
        replace the file in between."""
        rows = format_rows(self.zeros)
        zeros = parse_rows(rows, path)
        data = "".join(row + "\n" for row in rows).encode("utf-8")
        head = f"# xi-zeros {CACHE_VERSION} tol={float(self.tol)!r} tmax={float(self.t_max)!r}"
        header = f"{head} checksum={cache_checksum(head, data):016x}\n"
        directory = os.path.dirname(os.path.abspath(path))
        name = os.path.join(directory, f".zeros-{os.urandom(8).hex()}.tmp")
        tmp = None
        try:
            with open(name, "xb") as handle:  # a new file, mode 0o666 less the umask
                tmp = name
                handle.write(header.encode("utf-8"))
                handle.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            # Name the cache the caller asked for, not the temp file.
            raise OSError(exc.errno, exc.strerror, path) from exc
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
        return zeros

    @classmethod
    def load(cls, path: str) -> "ZeroCache | None":
        """The cache at ``path``, or None for a cache of another version.

        Raises:
            CacheCorruptionError: for a file that cannot be read, is longer
                than ``_CACHE_MAX_BYTES``, or does not check or parse.
        """
        try:
            with open(path, "rb") as handle:
                raw = handle.read(_CACHE_MAX_BYTES + 1)
        except OSError as exc:
            raise CacheCorruptionError(f"cannot read cache {path}: {exc}") from exc
        if len(raw) > _CACHE_MAX_BYTES:
            raise CacheCorruptionError(f"cache {path}: longer than {_CACHE_MAX_BYTES} bytes")
        newline = raw.find(b"\n")
        if newline < 0:
            raise CacheCorruptionError(f"cache {path}: missing header line")
        header = raw[:newline].decode("utf-8", errors="replace")
        data = raw[newline + 1 :]
        fields = header.split()
        if len(fields) < 3 or fields[0] != "#" or fields[1] != "xi-zeros":
            raise CacheCorruptionError(f"cache {path}: malformed header {header!r}")
        if fields[2] != CACHE_VERSION:
            # Another version's layout or checksum: trust none of it.
            return None
        if len(fields) != 6:
            raise CacheCorruptionError(f"cache {path}: malformed header {header!r}")
        try:
            tol = float(fields[3].removeprefix("tol="))
            t_max = float(fields[4].removeprefix("tmax="))
            checksum = int(fields[5].removeprefix("checksum="), 16)
        except ValueError as exc:
            raise CacheCorruptionError(f"cache {path}: bad header field: {exc}") from exc
        if cache_checksum(" ".join(fields[:5]), data) != checksum:
            raise CacheCorruptionError(f"cache {path}: checksum mismatch")
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CacheCorruptionError(f"cache {path}: rows are not UTF-8: {exc}") from exc
        return cls(t_max=t_max, tol=tol, zeros=parse_rows(text.splitlines(), path))

    def matches(self, t_max: float, tol: float) -> bool:
        return self.tol == tol and self.t_max >= t_max - 1e-12
