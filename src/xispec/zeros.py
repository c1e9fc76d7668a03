"""Critical-line zero location by sign-change scanning and refinement.

Scanning runs on Hardy's Z(t) rather than Xi(t) directly: the two share
their zeros and signs up to a fixed flip, but Z stays O(1) where
|Xi(t)| ~ e^{-pi t/4} underflows.  Brackets are refined by Chandrupatla's
method (inverse quadratic interpolation with a bisection fallback), which
always keeps a sign change enclosed, so the final interval width bounds the
error of the located sign change (not the error of Z itself).  Refinement
starts from the Z values the scan grid already holds at the bracket ends.

Every Z evaluation is one array call to ``hardy_z``: the scan grid, each
fine-rescan grid, and, per refinement step, the trial points of all the
brackets still open, which advance in lockstep.

The persistent cache is a plain text CSV with a checksummed header
(64-bit FNV-1a over the data-line bytes, newline included), written
atomically via write-temp-then-rename.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BracketError, CacheCorruptionError
from .report import AuditReport, Verdict
from .specfun import hardy_z

DEFAULT_SCAN_STEP = 0.25
CACHE_VERSION = "v1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class StepResolutionWarning(UserWarning):
    """Two sign changes landed inside one scan step; rescanned finer."""


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


def refine_brackets(
    brackets: Sequence[tuple[float, float]],
    tol: float,
    depth: int = 1,
    *,
    z_ends: Sequence[tuple[float, float]] | None = None,
) -> list[CriticalZero]:
    """Refine sign-change brackets of Xi (equivalently Z) to width <= tol.

    The k-th bracket gives the zero with index k.  A tol below four times
    the spacing of doubles at a bracket is raised to it there: a tighter
    bracket cannot be resolved.

    Chandrupatla's method: inverse quadratic interpolation through the two
    bracket ends and the last point dropped, falling back to bisection
    when the interpolant is not trusted.  Each trial point stays at least
    tol/2 inside its bracket, so once the estimate has converged the next
    step straddles the root and closes the bracket.  All brackets advance
    in lockstep: each iteration evaluates Z in one array call, at the trial
    points of the brackets still open.  ``z_ends`` passes already known Z
    values at the two ends of each bracket, saving their evaluation.

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
    tols = np.maximum(tol, 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    if z_ends is None:
        f_ends = hardy_z(np.concatenate([lo, hi]), depth).reshape(2, -1).T
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

    found: list[CriticalZero | None] = [None] * len(lo)
    for i in np.flatnonzero(zero_lo).tolist():
        t_lo, t_hi, width = float(lo[i]), float(hi[i]), float(tols[i])
        found[i] = CriticalZero(
            i + 1, t_lo, (max(t_lo - width, 0.5 * t_lo), t_hi), width
        )
    for i in np.flatnonzero(zero_hi & ~zero_lo).tolist():
        t_lo, t_hi, width = float(lo[i]), float(hi[i]), float(tols[i])
        found[i] = CriticalZero(i + 1, t_hi, (t_lo, t_hi + width), width)

    # Per open bracket (its position in `live`): a, the newest end; b, the
    # other end; c, the end a replaced; step, the fraction of the way from
    # a to b of the next trial point.
    live = np.flatnonzero(~zero_lo & ~zero_hi)
    a, f_a, b, f_b = hi[live], f_hi[live], lo[live], f_lo[live]
    step = np.full(live.size, 0.5)
    while True:
        closed = ~(np.abs(b - a) > tols[live])
        for j in np.flatnonzero(closed):
            i = int(live[j])
            t_lo, t_hi = float(min(a[j], b[j])), float(max(a[j], b[j]))
            found[i] = CriticalZero(
                i + 1, 0.5 * (t_lo + t_hi), (t_lo, t_hi), 0.5 * (t_hi - t_lo)
            )
        live, a, f_a, b, f_b, step = (
            x[~closed] for x in (live, a, f_a, b, f_b, step)
        )
        if live.size == 0:
            return found  # every entry is set by now

        trial = a + step * (b - a)
        f_trial = hardy_z(trial, depth)
        hit = f_trial == 0.0
        for j in np.flatnonzero(hit):
            i = int(live[j])
            t, half = float(trial[j]), 0.5 * float(tols[i])
            found[i] = CriticalZero(
                i + 1, t, (max(t - half, float(lo[i])), t + half), half
            )
        live, a, f_a, b, f_b, trial, f_trial = (
            x[~hit] for x in (live, a, f_a, b, f_b, trial, f_trial)
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


def refine_zero(
    bracket: tuple[float, float],
    tol: float,
    depth: int = 1,
    index: int = 1,
    *,
    z_ends: tuple[float, float] | None = None,
) -> CriticalZero:
    """Refine one sign-change bracket: ``refine_brackets`` on that bracket.

    Raises:
        BracketError: if the endpoints do not straddle a sign change.
    """
    (zero,) = refine_brackets(
        [bracket], tol, depth, z_ends=None if z_ends is None else [z_ends]
    )
    return replace(zero, index=index)


def _grid(t_max: float, step: float, t_min: float = 0.0) -> np.ndarray:
    """The points k * step in [t_min, t_max], ending exactly at t_max.

    Every point is the same double whatever t_min is, so a sub-grid lines
    up with the full grid it is cut from.
    """
    count = int(math.ceil(t_max / step))
    first = max(int(math.floor(t_min / step)) - 1, 0)
    grid = np.arange(first, count + 1, dtype=np.float64) * step
    grid[-1] = min(grid[-1], t_max)
    return grid[(grid >= t_min) & (grid <= t_max)]


def _local_mean_gap(t: float) -> float:
    """Asymptotic mean spacing of critical-line zeros near height t."""
    return 2.0 * math.pi / math.log(max(t, 20.0) / (2.0 * math.pi))


def _brackets_from_values(
    grid: np.ndarray, values: np.ndarray
) -> dict[tuple[float, float], tuple[float, float]]:
    """Each sign-change bracket of the grid, mapped to Z at its two ends."""
    sign = np.sign(values)
    sign[sign == 0.0] = 1.0
    flips = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    return {
        (float(grid[i]), float(grid[i + 1])): (float(values[i]), float(values[i + 1]))
        for i in flips
    }


def scan_zeros(
    t_max: float,
    tol: float,
    step: float = DEFAULT_SCAN_STEP,
    depth: int = 1,
) -> list[CriticalZero]:
    """All zeros of Xi on (0, t_max], in increasing order, refined to tol.

    After the primary scan, any suspiciously wide gap between consecutive
    zeros is rescanned at step/8; finding extra zeros there emits a
    StepResolutionWarning and the fine pass is folded in.
    """
    if not (t_max > 0.0):
        raise ValueError("t_max must be positive")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    grid = _grid(t_max, step)
    values = hardy_z(grid, depth)
    brackets = _brackets_from_values(grid, values)

    # Local rescan: an anomalously long stretch without a sign change can
    # hide an even number of them inside single steps, and an anomalously
    # wide bracket can hide an odd number beyond the one it reports.  Both
    # kinds of suspicious region get a step/8 sweep; duplicates are removed
    # after refinement.
    fine_brackets: dict[tuple[float, float], tuple[float, float]] = {}
    edges = [0.0] + [e for br in brackets for e in br] + [float(t_max)]
    suspicious = [(edges[i], edges[i + 1]) for i in range(0, len(edges), 2)]
    suspicious += [br for br in brackets if br[1] - br[0] > 1.7 * _local_mean_gap(br[1])]
    for lo, hi in suspicious:
        if hi <= lo or hi - lo < 1.7 * _local_mean_gap(hi):
            continue
        sub = _grid(hi, step / 8.0, lo)
        if sub.size < 3:
            continue
        sub_vals = hardy_z(sub, depth)
        extra = _brackets_from_values(sub, sub_vals)
        if len(extra) > (1 if (lo, hi) in brackets else 0):
            warnings.warn(
                f"scan step {step} under-resolved ({lo:.3f}, {hi:.3f}): "
                f"{len(extra)} sign change(s) in the fine rescan",
                StepResolutionWarning,
                stacklevel=2,
            )
        fine_brackets.update(extra)

    ends = {**brackets, **fine_brackets}
    order = sorted(ends)
    refined = refine_brackets(order, tol, depth, z_ends=[ends[br] for br in order])
    refined.sort(key=lambda z: z.gamma)
    deduped: list[CriticalZero] = []
    for z in refined:
        if deduped and z.gamma - deduped[-1].gamma <= 100.0 * tol:
            continue
        deduped.append(z)
    return [
        CriticalZero(i, z.gamma, z.bracket, z.abs_err)
        for i, z in enumerate(deduped, start=1)
    ]


def zero_count_estimate(t_max: float) -> int:
    """Rounded asymptotic count of critical-line zeros up to t_max."""
    t = float(t_max)
    if t <= 0.0:
        return 0
    raw = (t / (2.0 * math.pi)) * math.log(t / (2.0 * math.pi * math.e)) + 0.875
    return max(int(round(raw)), 0)


def count_check(t_max: float, found: int) -> AuditReport:
    """Guard against skipped zeros: found vs the asymptotic count estimate."""
    estimate = zero_count_estimate(t_max)
    difference = abs(int(found) - estimate)
    return AuditReport(
        name="zero-count-check",
        params={"t_max": float(t_max)},
        measured=[float(found)],
        reference=[float(estimate)],
        ratio_or_residual=float(difference),
        tolerance=1.0,
        verdict=Verdict.PASS if difference <= 1 else Verdict.FAIL,
        provenance="zeros",
    )


# --------------------------- persistent cache ---------------------------


def fnv1a64(data: bytes) -> int:
    acc = _FNV_OFFSET
    for byte in data:
        acc ^= byte
        acc = (acc * _FNV_PRIME) & _MASK64
    return acc


def _format_rows(zeros: list[CriticalZero]) -> list[str]:
    return [f"{z.index},{z.gamma:.15g},{z.abs_err:.3e}" for z in zeros]


def roundtrip_precision(zeros: list[CriticalZero]) -> list[CriticalZero]:
    """Zeros as they come back from the cache format (15 significant digits).

    A run that writes the cache must keep working with these values, so its
    outputs match byte-for-byte what a later cache-hitting run produces.
    """
    out = []
    for z in zeros:
        gamma = float(f"{z.gamma:.15g}")
        err = float(f"{z.abs_err:.3e}")
        out.append(CriticalZero(z.index, gamma, (gamma - err, gamma + err), err))
    return out


@dataclass
class ZeroCache:
    """On-disk zero table; reused only when tolerance and version match."""

    t_max: float
    tol: float
    zeros: list[CriticalZero] = field(default_factory=list)
    version: str = CACHE_VERSION

    def data_bytes(self) -> bytes:
        return "".join(row + "\n" for row in _format_rows(self.zeros)).encode("utf-8")

    def save(self, path: str) -> None:
        data = self.data_bytes()
        header = (
            f"# xi-zeros {self.version} tol={self.tol:g} tmax={self.t_max!r} "
            f"checksum={fnv1a64(data):016x}\n"
        )
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zeros-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header.encode("utf-8"))
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "ZeroCache":
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise CacheCorruptionError(f"cannot read cache {path}: {exc}") from exc
        newline = raw.find(b"\n")
        if newline < 0:
            raise CacheCorruptionError(f"cache {path}: missing header line")
        header = raw[:newline].decode("utf-8", errors="replace")
        data = raw[newline + 1 :]
        fields = header.split()
        if len(fields) != 6 or fields[0] != "#" or fields[1] != "xi-zeros":
            raise CacheCorruptionError(f"cache {path}: malformed header {header!r}")
        version = fields[2]
        try:
            tol = float(fields[3].removeprefix("tol="))
            t_max = float(fields[4].removeprefix("tmax="))
            checksum = int(fields[5].removeprefix("checksum="), 16)
        except ValueError as exc:
            raise CacheCorruptionError(f"cache {path}: bad header field: {exc}") from exc
        if fnv1a64(data) != checksum:
            raise CacheCorruptionError(f"cache {path}: checksum mismatch")
        zeros = []
        for lineno, line in enumerate(data.decode("utf-8").splitlines(), start=2):
            try:
                idx_s, gamma_s, err_s = line.split(",")
                gamma = float(gamma_s)
                err = float(err_s)
                zeros.append(
                    CriticalZero(int(idx_s), gamma, (gamma - err, gamma + err), err)
                )
            except ValueError as exc:
                raise CacheCorruptionError(
                    f"cache {path}: bad row at line {lineno}: {exc}"
                ) from exc
            if zeros[-1].index != lineno - 1:
                raise CacheCorruptionError(
                    f"cache {path}: index {zeros[-1].index} at line {lineno}, "
                    f"expected {lineno - 1}"
                )
            if len(zeros) > 1 and not zeros[-1].gamma > zeros[-2].gamma:
                raise CacheCorruptionError(
                    f"cache {path}: gamma does not increase at line {lineno}"
                )
        return cls(t_max=t_max, tol=tol, zeros=zeros, version=version)

    def matches(self, t_max: float, tol: float) -> bool:
        return (
            self.version == CACHE_VERSION
            and f"{self.tol:g}" == f"{tol:g}"
            and self.t_max >= t_max - 1e-12
        )
