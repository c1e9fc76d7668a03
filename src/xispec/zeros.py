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
passes it every bracket with the Z values its grid already holds at the
bracket ends, and ``refine_zero`` is a one-bracket call of it.

Every Z evaluation is one array call: ``hardy_z`` for the scan grid, one
more for the fine-rescan grids of all suspiciously wide gaps together,
and, per refinement step, ``hardy_z_with_bound`` for the trial points of
all the brackets still open, which advance in lockstep, then ``hardy_z``
for the points where a sign was in doubt.  Within each of these calls the
Euler-Maclaurin points are one array call too (``specfun.xi``), so a scan
to t = 1188 at tol 1e-8 evaluates Euler-Maclaurin at 3,440 heights in 15
calls.  A gap's fine brackets replace it in the one bracket list the scan
refines, so no zero is found twice.

The persistent cache is a plain text CSV with a checksummed header
(64-bit BLAKE2b over the header's version, tol and tmax fields and the
data-line bytes, newline included), written atomically via
write-temp-then-rename.  A cache of another version is a miss, so the run
rescans and rewrites it.  A run that writes the cache formats each zero's
row once, saves those rows and carries on with the zeros parsed back from
them by the parser a cache read uses, so its outputs are those of a later
run that reads the cache.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

# hashlib.blake2b is _blake2.blake2b; importing hashlib would also load
# OpenSSL, about 3.6 MB more in every process, for one 64-bit hash.
from _blake2 import blake2b

import numpy as np

from .errors import BracketError, CacheCorruptionError
from .report import AuditReport, Verdict
from .specfun import hardy_z, hardy_z_with_bound

DEFAULT_SCAN_STEP = 0.25
CACHE_VERSION = "v3"


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
    step straddles the root and closes the bracket.  A trial point whose
    Riemann-Siegel sign is in doubt lies within about B(t)/|Z'| of the
    root: Z at trial -+ tol/4 closes its bracket if their certain signs
    differ, and only otherwise is the trial point's own sign settled by
    Euler-Maclaurin (up to EM_MAX_T; see the module docstring).  All
    brackets advance in lockstep: each iteration evaluates Z in one array
    call at the trial points of the brackets still open, and at most two
    more for the brackets in doubt.  ``z_ends`` passes already known Z
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
    seen = np.zeros(live.size)  # B(t) at the bracket's last Riemann-Siegel point
    while True:
        closed = ~(np.abs(b - a) > tols[live])
        for j in np.flatnonzero(closed):
            i = int(live[j])
            found[i] = _closed_zero(i, float(min(a[j], b[j])), float(max(a[j], b[j])))
        live, a, f_a, b, f_b, step, seen = (
            x[~closed] for x in (live, a, f_a, b, f_b, step, seen)
        )
        if live.size == 0:
            return found  # every entry is set by now

        trial = a + step * (b - a)
        # A trial point whose Riemann-Siegel sign is in doubt lies near the
        # root.  It is in doubt where hardy_z_with_bound says so, and taken to
        # be, unevaluated, where the line through the ends puts |Z| <= B(t)
        # of the last Riemann-Siegel point already: an interpolated point is
        # closer to the root than that.
        f_line = f_a + (trial - a) * ((f_b - f_a) / (b - a))
        near = (seen > 0.0) & ~(np.abs(f_line) > seen)
        f_trial, bound, doubt = np.zeros_like(trial), np.zeros_like(trial), near.copy()
        f_trial[~near], bound[~near], doubt[~near] = hardy_z_with_bound(trial[~near])
        seen = np.where(near, seen, bound)
        doubt = np.flatnonzero(doubt)
        straddled = np.zeros(live.size, dtype=bool)
        if doubt.size:
            # Certain signs of Z at trial -+ tol/4 that differ close the
            # bracket; where they agree, hardy_z gives the trial point's own.
            quarter = 0.25 * tols[live[doubt]]
            side_lo = np.maximum(trial[doubt] - quarter, np.minimum(a[doubt], b[doubt]))
            side_hi = np.minimum(trial[doubt] + quarter, np.maximum(a[doubt], b[doubt]))
            f_side = hardy_z(np.concatenate([side_lo, side_hi])).reshape(2, -1)
            closes = np.signbit(f_side[0]) != np.signbit(f_side[1])
            shut, settle = doubt[closes], doubt[~closes]
            for i, t_lo, t_hi in zip(
                live[shut].tolist(), side_lo[closes].tolist(), side_hi[closes].tolist()
            ):
                found[i] = _closed_zero(i, t_lo, t_hi)
            straddled[shut] = True
            f_trial[settle] = hardy_z(trial[settle])
        hit = (f_trial == 0.0) & ~straddled
        for j in np.flatnonzero(hit):
            i = int(live[j])
            t, half = float(trial[j]), 0.5 * float(tols[i])
            found[i] = CriticalZero(
                i + 1, t, (max(t - half, float(lo[i])), t + half), half
            )
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


def _closed_zero(i: int, t_lo: float, t_hi: float) -> CriticalZero:
    """Zero i + 1 from its closed bracket: the midpoint, within half the width."""
    return CriticalZero(i + 1, 0.5 * (t_lo + t_hi), (t_lo, t_hi), 0.5 * (t_hi - t_lo))


def refine_zero(bracket: tuple[float, float], tol: float) -> CriticalZero:
    """Refine one sign-change bracket: ``refine_brackets`` on that bracket.

    Raises:
        BracketError: if the endpoints do not straddle a sign change.
    """
    (zero,) = refine_brackets([bracket], tol)
    return zero


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


def _sign_changes(values: np.ndarray) -> np.ndarray:
    """The indices i at which Z changes sign between points i and i + 1."""
    sign = np.sign(values)
    sign[sign == 0.0] = 1.0
    return np.flatnonzero(sign[:-1] * sign[1:] < 0.0)


def scan_zeros(t_max: float, tol: float) -> list[CriticalZero]:
    """All zeros of Xi on (0, t_max], in increasing order, refined to tol.

    Z is scanned at DEFAULT_SCAN_STEP.  Every gap between sign changes
    wider than 1.7 mean zero spacings is rescanned at step/8, all gaps in
    one Z call; a gap whose rescan finds sign changes emits a
    StepResolutionWarning, and its fine brackets take its place in the one
    bracket list that is refined.
    """
    if not (t_max > 0.0):
        raise ValueError("t_max must be positive")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    grid = _grid(t_max, DEFAULT_SCAN_STEP)
    values = hardy_z(grid)
    flips = _sign_changes(values)

    # An anomalously long stretch without a sign change can hide an even
    # number of them inside single steps.  Its ends have the same sign, so
    # any sign change its rescan finds lies strictly inside it.
    gaps = [
        (lo, hi)
        for lo, hi in zip(
            [0.0, *grid[flips + 1].tolist()], [*grid[flips].tolist(), float(t_max)]
        )
        if hi - lo >= 1.7 * _local_mean_gap(hi)
    ]
    subs = [_grid(hi, DEFAULT_SCAN_STEP / 8.0, lo) for lo, hi in gaps]
    sub_values = hardy_z(np.concatenate(subs)) if subs else np.empty(0)
    scans = [(grid, values, flips)]
    for (lo, hi), sub, vals in zip(
        gaps, subs, np.split(sub_values, np.cumsum([s.size for s in subs[:-1]]))
    ):
        fine = _sign_changes(vals)
        if fine.size:
            warnings.warn(
                f"scan step {DEFAULT_SCAN_STEP} under-resolved ({lo:.3f}, {hi:.3f}): "
                f"{fine.size} sign change(s) in the fine rescan",
                StepResolutionWarning,
                stacklevel=2,
            )
            scans.append((sub, vals, fine))

    # Brackets never overlap, so in order of their lower ends the k-th
    # holds zero k.
    rows = np.concatenate(
        [np.column_stack([ts[i], ts[i + 1], zs[i], zs[i + 1]]) for ts, zs, i in scans]
    )
    rows = rows[np.argsort(rows[:, 0])]
    return refine_brackets(rows[:, :2], tol, z_ends=rows[:, 2:])


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
    """Rounded asymptotic count of critical-line zeros up to t_max."""
    if t_max <= 0.0:
        return 0
    return max(int(round(zero_count_main_term(t_max))), 0)


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


def cache_checksum(head: str, data: bytes) -> int:
    """The cache checksum: 64-bit BLAKE2b over the header up to its checksum
    field (``# xi-zeros <version> tol=... tmax=...``), a newline, and the rows."""
    digest = blake2b(f"{head}\n".encode("utf-8"), digest_size=8)
    digest.update(data)
    return int.from_bytes(digest.digest(), "big")


def format_rows(zeros: list[CriticalZero]) -> list[str]:
    """One `index,gamma,abs_err` row per zero: the cache and `xispec zeros` format."""
    return [f"{z.index},{z.gamma:.15g},{z.abs_err:.3e}" for z in zeros]


def parse_rows(lines: list[str], source: str) -> list[CriticalZero]:
    """Zeros from `index,gamma,abs_err` rows, the first on line 2 of ``source``.

    Gamma and abs_err come back as the doubles their 15 and 4 significant
    digits name, so zeros parsed from ``format_rows`` are the zeros a
    later run reads from the cache.

    Raises:
        CacheCorruptionError: for a row that does not parse, indices that
            do not run 1, 2, ..., or a gamma that does not increase.
    """
    zeros: list[CriticalZero] = []
    for lineno, line in enumerate(lines, start=2):
        try:
            idx_s, gamma_s, err_s = line.split(",")
            gamma = float(gamma_s)
            err = float(err_s)
            zeros.append(CriticalZero(int(idx_s), gamma, (gamma - err, gamma + err), err))
        except ValueError as exc:
            raise CacheCorruptionError(
                f"cache {source}: bad row at line {lineno}: {exc}"
            ) from exc
        if zeros[-1].index != lineno - 1:
            raise CacheCorruptionError(
                f"cache {source}: index {zeros[-1].index} at line {lineno}, "
                f"expected {lineno - 1}"
            )
        if len(zeros) > 1 and not zeros[-1].gamma > zeros[-2].gamma:
            raise CacheCorruptionError(
                f"cache {source}: gamma does not increase at line {lineno}"
            )
    return zeros


@dataclass
class ZeroCache:
    """On-disk zero table; reused only when tolerance and version match."""

    t_max: float
    tol: float
    zeros: list[CriticalZero] = field(default_factory=list)
    version: str = CACHE_VERSION

    def data_bytes(self, rows: list[str] | None = None) -> bytes:
        """The data lines: ``rows``, or ``format_rows`` of the zeros."""
        if rows is None:
            rows = format_rows(self.zeros)
        return "".join(row + "\n" for row in rows).encode("utf-8")

    def save(self, path: str, rows: list[str] | None = None) -> None:
        """Write the cache atomically; ``rows`` are the zeros' formatted
        rows when the caller has them already."""
        data = self.data_bytes(rows)
        head = f"# xi-zeros {self.version} tol={self.tol:g} tmax={self.t_max!r}"
        header = f"{head} checksum={cache_checksum(head, data):016x}\n"
        directory = os.path.dirname(os.path.abspath(path))
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zeros-", suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(header.encode("utf-8"))
                handle.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            # Name the cache the caller asked for, not the temp file.
            raise OSError(exc.errno, exc.strerror, path) from exc
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)

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
        if len(fields) < 3 or fields[0] != "#" or fields[1] != "xi-zeros":
            raise CacheCorruptionError(f"cache {path}: malformed header {header!r}")
        version = fields[2]
        if version != CACHE_VERSION:
            # Another version's layout or checksum: trust none of it.
            return cls(t_max=math.nan, tol=math.nan, version=version)
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
        zeros = parse_rows(text.splitlines(), path)
        return cls(t_max=t_max, tol=tol, zeros=zeros, version=version)

    def matches(self, t_max: float, tol: float) -> bool:
        return (
            self.version == CACHE_VERSION
            and f"{self.tol:g}" == f"{tol:g}"
            and self.t_max >= t_max - 1e-12
        )
