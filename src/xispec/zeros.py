"""Critical-line zero location by sign-change scanning and refinement.

Scanning runs on Hardy's Z(t) rather than Xi(t) directly: the two share
their zeros and signs up to a fixed flip, but Z stays O(1) where
|Xi(t)| ~ e^{-pi t/4} underflows.  Brackets are refined by Chandrupatla's
method (inverse quadratic interpolation with a bisection fallback), which
always keeps a sign change enclosed, so the final interval width bounds the
error.  Refinement starts from the Z values the scan grid already holds at
the bracket ends.

The persistent cache is a plain text CSV with a checksummed header
(64-bit FNV-1a over the data-line bytes, newline included), written
atomically via write-temp-then-rename.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, CacheCorruptionError
from .report import AuditReport, Verdict
from .specfun import hardy_z

DEFAULT_SCAN_STEP = 0.25
#: Grids shorter than this are evaluated serially: below it the thread
#: pool's start-up and GIL hand-offs cost more than they save (on 2 CPUs,
#: 64 points took 1.3x the serial time and 512 points at t ~ 5000 took 0.8x).
POOL_MIN_POINTS = 512
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


def refine_zero(
    bracket: tuple[float, float],
    tol: float,
    depth: int = 1,
    index: int = 1,
    *,
    z_ends: tuple[float, float] | None = None,
) -> CriticalZero:
    """Refine a sign-change bracket of Xi (equivalently Z) to width <= tol.

    A tol below four times the spacing of doubles at the bracket is raised
    to it: a tighter bracket cannot be resolved.

    Chandrupatla's method: inverse quadratic interpolation through the two
    bracket ends and the last point dropped, falling back to bisection
    when the interpolant is not trusted.  Each trial point stays at least
    tol/2 inside the bracket, so once the estimate has converged the next
    step straddles the root and closes the bracket.  ``z_ends`` passes
    already known Z values at the two ends, saving their evaluation.

    Raises:
        BracketError: if the endpoints do not straddle a sign change.
    """
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if not (t_lo < t_hi):
        raise BracketError(f"empty bracket ({t_lo!r}, {t_hi!r})")
    tol = max(tol, 4.0 * math.ulp(max(abs(t_lo), abs(t_hi))))
    if z_ends is None:
        f_lo, f_hi = hardy_z(t_lo, depth), hardy_z(t_hi, depth)
    else:
        f_lo, f_hi = float(z_ends[0]), float(z_ends[1])
    if f_lo == 0.0:
        t_lo_adj = max(t_lo - tol, 0.5 * t_lo)
        return CriticalZero(index, t_lo, (t_lo_adj, t_hi), tol)
    if f_hi == 0.0:
        return CriticalZero(index, t_hi, (t_lo, t_hi + tol), tol)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError(
            f"no sign change on ({t_lo!r}, {t_hi!r}): "
            f"Z={f_lo:.3e} and {f_hi:.3e}"
        )

    # a: the newest bracket end; b: the other end; c: the end a replaced.
    a, f_a, b, f_b = t_hi, f_hi, t_lo, f_lo
    step = 0.5  # fraction of the way from a to b
    while abs(b - a) > tol:
        trial = a + step * (b - a)
        f_trial = hardy_z(trial, depth)
        if f_trial == 0.0:
            half = 0.5 * tol
            return CriticalZero(
                index, trial, (max(trial - half, t_lo), trial + half), half
            )
        if math.copysign(1.0, f_trial) == math.copysign(1.0, f_a):
            c, f_c = a, f_a
        else:
            c, f_c = b, f_b
            b, f_b = a, f_a
        a, f_a = trial, f_trial
        xi = (a - b) / (c - b)
        phi = (f_a - f_b) / (f_c - f_b)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            step = (f_a / (f_b - f_a)) * (f_c / (f_b - f_c)) + (
                (c - a) / (b - a)
            ) * (f_a / (f_c - f_a)) * (f_b / (f_c - f_b))
        else:
            step = 0.5
        clamp = 0.5 * tol / abs(b - a)
        step = min(max(step, clamp), 1.0 - clamp)

    t_lo, t_hi = min(a, b), max(a, b)
    gamma = 0.5 * (t_lo + t_hi)
    return CriticalZero(index, gamma, (t_lo, t_hi), 0.5 * (t_hi - t_lo))


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


def _evaluate_grid(grid: np.ndarray, depth: int) -> np.ndarray:
    """Z(t) at every grid point, on one thread per CPU for long grids.

    Above t ~ 1000 the Euler-Maclaurin sums spend most of their time in
    numpy, which releases the GIL, so threads pay off there.  Values are
    merged back in grid order: the result equals the serial pass exactly.
    """
    threads = os.cpu_count() or 1
    if threads <= 1 or grid.size < POOL_MIN_POINTS:
        return np.array([hardy_z(float(t), depth) for t in grid])
    chunks = np.array_split(np.arange(grid.size), threads * 4)
    def work(idx: np.ndarray) -> list[float]:
        return [hardy_z(float(grid[i]), depth) for i in idx]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(work, chunks))
    out = np.empty(grid.size, dtype=np.float64)
    for idx, part in zip(chunks, parts):
        out[idx] = part
    return out


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
    values = _evaluate_grid(grid, depth)
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
        sub_vals = _evaluate_grid(sub, depth)
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
    refined = [
        refine_zero(br, tol, depth, index=i, z_ends=ends[br])
        for i, br in enumerate(sorted(ends), start=1)
    ]
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
