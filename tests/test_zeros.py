import importlib
import math
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import KNOWN_ZEROS_10
from xispec.errors import BracketError, CacheCorruptionError
from xispec.report import Verdict
from xispec.specfun import RS_MIN_T, hardy_z, hardy_z_with_bound, xi_critical
from xispec import zeros as zeros_module
from xispec.zeros import (
    DEFAULT_SCAN_STEP,
    CriticalZero,
    ZeroCache,
    _grid,
    cache_checksum,
    count_check,
    format_rows,
    parse_rows,
    refine_brackets,
    refine_zero,
    scan_zeros,
    zero_count_estimate,
    zero_count_main_term,
    zero_count_remainder_bound,
)

xi_module = importlib.import_module("xispec.specfun.xi")


def test_no_zeros_below_ten():
    assert scan_zeros(10.0, 1e-8) == []


def test_single_zero_below_fifteen():
    zeros = scan_zeros(15.0, 1e-8)
    assert len(zeros) == 1
    assert zeros[0].index == 1
    assert zeros[0].gamma == pytest.approx(14.134725141734693, abs=2e-8)


def test_three_zeros_below_thirty(zeros_to_100):
    zeros = [z for z in zeros_to_100 if z.gamma <= 30.0]
    assert len(zeros) == 3
    for z, ref in zip(zeros, (14.1347, 21.0220, 25.0109)):
        assert z.gamma == pytest.approx(ref, abs=1e-4)


def test_first_ten_against_independent_oracle(zeros_to_100):
    for k in (1, 2, 3, 10):
        oracle = float(mp.zetazero(k).imag)
        assert zeros_to_100[k - 1].gamma == pytest.approx(oracle, abs=2e-8)


def test_known_table_matches(zeros_to_100):
    for z, ref in zip(zeros_to_100[:10], KNOWN_ZEROS_10):
        assert z.gamma == pytest.approx(ref, abs=2e-8)


def test_indices_contiguous_and_increasing(zeros_to_100):
    assert [z.index for z in zeros_to_100] == list(range(1, len(zeros_to_100) + 1))
    gammas = [z.gamma for z in zeros_to_100]
    assert gammas == sorted(gammas)
    assert all(b > a for a, b in zip(gammas, gammas[1:]))


def test_error_bounds_and_brackets(zeros_to_100):
    for z in zeros_to_100:
        assert z.abs_err <= 1e-8
        assert z.bracket[0] < z.gamma < z.bracket[1]


def test_local_magnitude_minimum(zeros_to_100):
    tol = 1e-8
    for z in zeros_to_100[:5]:
        here = abs(xi_critical(z.gamma))
        assert here < abs(xi_critical(z.gamma + 10.0 * tol))
        assert here < abs(xi_critical(z.gamma - 10.0 * tol))


def test_tolerance_refinement_stability():
    coarse = scan_zeros(30.0, 1e-6)
    fine = scan_zeros(30.0, 1e-7)
    assert len(coarse) == len(fine)
    for a, b in zip(coarse, fine):
        assert abs(a.gamma - b.gamma) < 1e-6


def test_array_z_matches_scalar():
    # The 20,001-point scan grid to t = 5000 crosses RS_MIN_T.  Riemann-Siegel
    # blocks are sorted by N, so a point's Z must not depend on which points
    # share its block: uneven chunks, and one-point scalar calls, give the
    # same values exactly.
    grid = _grid(5000.0, DEFAULT_SCAN_STEP)
    assert grid.size == 20001
    values = hardy_z(grid)
    assert isinstance(values, np.ndarray) and values.shape == grid.shape
    cuts = np.cumsum([1, 7, 4095, 4097])
    chunked = np.concatenate([hardy_z(part) for part in np.split(grid, cuts)])
    assert chunked.tolist() == values.tolist()
    sample = grid[::50]
    assert sample[-1] > RS_MIN_T > sample[0]
    scalar = [hardy_z(float(t)) for t in sample]
    assert all(type(v) is float for v in scalar)
    assert scalar == values[::50].tolist()
    empty = hardy_z(np.array([]))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_refine_known_brackets():
    z = refine_zero((14.0, 15.0), 1e-9)
    assert z.gamma == pytest.approx(14.134725141734693, abs=2e-9)
    z = refine_zero((21.0, 22.0), 1e-9)
    assert z.gamma == pytest.approx(21.022039638771555, abs=2e-9)


def _count_z_points(monkeypatch) -> dict[str, int]:
    """Count the heights Z is evaluated at through ``xispec.zeros``, by phase,
    and (under "<phase> calls") the array calls that evaluate them.

    Both entry points count: ``hardy_z`` and refinement's ``hardy_z_with_bound``.
    """
    calls = {"scan": 0, "refine": 0, "scan calls": 0, "refine calls": 0}
    phase = ["scan"]
    refine = zeros_module.refine_brackets

    def counted_z(t):
        calls[phase[0]] += np.size(t)
        calls[phase[0] + " calls"] += 1
        return hardy_z(t)

    def counted_bounded(t):
        calls[phase[0]] += np.size(t)
        calls[phase[0] + " calls"] += 1
        return hardy_z_with_bound(t)

    def counted_refine(*args, **kwargs):
        phase[0] = "refine"
        try:
            return refine(*args, **kwargs)
        finally:
            phase[0] = "scan"

    monkeypatch.setattr(zeros_module, "hardy_z", counted_z)
    monkeypatch.setattr(zeros_module, "hardy_z_with_bound", counted_bounded)
    monkeypatch.setattr(zeros_module, "refine_brackets", counted_refine)
    return calls


def test_refine_reuses_known_end_values(monkeypatch):
    calls = _count_z_points(monkeypatch)
    plain = refine_zero((14.0, 15.0), 1e-9)
    first = calls["refine"]
    ends = (hardy_z(14.0), hardy_z(15.0))
    (reused,) = zeros_module.refine_brackets([(14.0, 15.0)], 1e-9, z_ends=[ends])
    assert reused == plain
    assert first > 2
    assert calls["refine"] - first == first - 2
    assert calls["scan"] == 0


def test_refinement_budget_per_zero(monkeypatch):
    calls = _count_z_points(monkeypatch)
    found = scan_zeros(1190.0, 1e-8)
    assert len(found) == 805
    assert calls["refine"] > 0
    assert calls["refine"] / len(found) <= 6.0


def _count_em_heights(monkeypatch) -> list[np.ndarray]:
    """Record the heights of each call to the Euler-Maclaurin kernel."""
    calls = []
    kernel = xi_module.euler_maclaurin_zeta

    def counted_kernel(s):
        calls.append(s.imag.copy())
        return kernel(s)

    monkeypatch.setattr(xi_module, "euler_maclaurin_zeta", counted_kernel)
    return calls


def test_scan_z_point_count(monkeypatch):
    # Array evaluation makes each point cheaper, not fewer: one call for the
    # scan grid and one for all fine rescans.  Riemann-Siegel from RS_MIN_T
    # leaves Euler-Maclaurin the heights below it and the few where a
    # Riemann-Siegel sign is in doubt, a few array calls per scan.
    calls = _count_z_points(monkeypatch)
    em_calls = _count_em_heights(monkeypatch)
    scan_zeros(1190.0, 1e-8)
    assert calls["scan"] + calls["refine"] == 11477
    assert calls["scan calls"] <= 2
    em_heights = np.concatenate(em_calls)
    assert em_heights.size == 3440
    assert (em_heights < RS_MIN_T).sum() == 1863
    assert len(em_calls) <= 20


def test_euler_maclaurin_share_to_5000(monkeypatch):
    # The scan-grid, fine-rescan and refinement points of a 1e-6 scan to
    # t = 5000 used Euler-Maclaurin 7,023 times when Riemann-Siegel started
    # at t = 800; from RS_MIN_T = 200 only the doubtful signs above it do.
    em_calls = _count_em_heights(monkeypatch)
    with pytest.warns(zeros_module.StepResolutionWarning):
        found = scan_zeros(5000.0, 1e-6)
    assert len(found) == 4520
    em_heights = np.concatenate(em_calls)
    assert em_heights.size <= 2000
    assert (em_heights >= RS_MIN_T).sum() <= 150
    assert len(em_calls) <= 20


def _scalar_chandrupatla(bracket, tol, z, z_bound):
    """One bracket at a time, in Python floats: the lockstep loop's reference."""
    t_lo, t_hi = bracket
    tol = max(tol, 4.0 * math.ulp(max(abs(t_lo), abs(t_hi))))
    f_lo, f_hi = z(t_lo), z(t_hi)
    a, f_a, b, f_b = t_hi, f_hi, t_lo, f_lo
    step, seen = 0.5, 0.0
    while abs(b - a) > tol:
        trial = a + step * (b - a)
        # The doubt rule: a Riemann-Siegel sign in doubt, found or foreseen
        # on the line through the ends, makes Z at trial -+ tol/4 close the
        # bracket if their signs differ, and z settle the trial otherwise.
        f_line = f_a + (trial - a) * ((f_b - f_a) / (b - a))
        doubt = seen > 0.0 and not abs(f_line) > seen
        if not doubt:
            (f_trial,), (seen,), (doubt,) = z_bound(np.array([trial]))
        if doubt:
            s_lo = max(trial - 0.25 * tol, min(a, b))
            s_hi = min(trial + 0.25 * tol, max(a, b))
            if math.copysign(1.0, z(s_lo)) != math.copysign(1.0, z(s_hi)):
                return 0.5 * (s_lo + s_hi), (s_lo, s_hi), 0.5 * (s_hi - s_lo)
            f_trial = z(trial)
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
    return 0.5 * (t_lo + t_hi), (t_lo, t_hi), 0.5 * (t_hi - t_lo)


def _scalar_z(t):
    """Z one height per call, for arrays too."""
    if isinstance(t, np.ndarray):
        return np.array([hardy_z(float(x)) for x in t])
    return hardy_z(t)


def _scalar_z_with_bound(t):
    """``hardy_z_with_bound`` one height per call."""
    points = [hardy_z_with_bound(np.array([x])) for x in t.tolist()]
    return tuple(np.array([p[k][0] for p in points]) for k in range(3))


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-20])
def test_lockstep_refinement_matches_scalar_loop(monkeypatch, tol):
    # Brackets on both sides of RS_MIN_T and t = 800 in one call; the same Z
    # values must give the same trial points, so the results are equal
    # exactly.  Near t = 800 the bound B(t) is 2.8e-8, so at the two tighter
    # tolerances the doubt rule decides the last steps.
    monkeypatch.setattr(zeros_module, "hardy_z", _scalar_z)
    monkeypatch.setattr(zeros_module, "hardy_z_with_bound", _scalar_z_with_bound)
    grid = _grid(830.0, DEFAULT_SCAN_STEP, 770.0)
    values = _scalar_z(grid)
    flips = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    brackets = [(float(grid[i]), float(grid[i + 1])) for i in flips]
    brackets += [(14.0, 15.0), (801.5, 801.75), (199.75, 201.5)]
    assert min(b[0] for b in brackets) < RS_MIN_T < max(b[1] for b in brackets)
    found = refine_brackets(brackets, tol)
    assert [z.index for z in found] == list(range(1, len(brackets) + 1))
    for z, bracket in zip(found, brackets):
        assert (z.gamma, z.bracket, z.abs_err) == _scalar_chandrupatla(
            bracket, tol, _scalar_z, _scalar_z_with_bound
        )
        if tol < 1e-15:
            assert z.bracket[1] - z.bracket[0] <= 4 * np.spacing(bracket[1])


def test_lockstep_zero_at_bracket_end():
    found = refine_brackets(
        [(14.0, 15.0), (20.0, 21.0), (21.0, 22.0)],
        1e-9,
        z_ends=[(0.0, 1.0), (-1.0, 0.0), (hardy_z(21.0), hardy_z(22.0))],
    )
    assert found[0] == CriticalZero(1, 14.0, (14.0 - 1e-9, 15.0), 1e-9)
    assert found[1] == CriticalZero(2, 21.0, (20.0, 21.0 + 1e-9), 1e-9)
    assert found[2].gamma == pytest.approx(21.022039638771555, abs=1e-9)
    assert [type(z.index) for z in found] == [int, int, int]


def test_lockstep_zero_at_trial_point(monkeypatch):
    # sin(pi (t - 14.5)) vanishes exactly at the first trial point of
    # (14, 15); the bracket (15.25, 16) refines on to 15.5 meanwhile.
    def sine(t):
        return np.sin(np.pi * (np.asarray(t) - 14.5))

    monkeypatch.setattr(zeros_module, "hardy_z", sine)
    monkeypatch.setattr(
        zeros_module,
        "hardy_z_with_bound",
        lambda t: (sine(t), np.zeros(t.size), np.zeros(t.size, dtype=bool)),
    )
    first, second = refine_brackets([(14.0, 15.0), (15.25, 16.0)], 1e-9)
    assert first == CriticalZero(1, 14.5, (14.5 - 0.5e-9, 14.5 + 0.5e-9), 0.5e-9)
    assert second.index == 2
    assert second.gamma == pytest.approx(15.5, abs=1e-9)
    assert replace(refine_zero((15.25, 16.0), 1e-9), index=2) == second


def test_lockstep_rejects_bad_bracket():
    with pytest.raises(BracketError, match="no sign change"):
        refine_brackets([(14.0, 15.0), (14.0, 14.0001)], 1e-9)
    with pytest.raises(BracketError, match="empty bracket"):
        refine_brackets([(14.0, 15.0), (15.0, 14.0)], 1e-9)
    assert refine_brackets([], 1e-9) == []


def test_zeros_to_1190_against_independent_oracle(zeros_for_products):
    # 805 zeros to t = 1190 (mpmath.nzeros agrees); both Z formulas are
    # exercised: zero 79 is the last below RS_MIN_T = 200.
    assert len(zeros_for_products) == 805
    for k in (1, 79, 80, 300, 491, 492, 700, 805):
        oracle = float(mp.zetazero(k).imag)
        assert abs(zeros_for_products[k - 1].gamma - oracle) <= 1e-8, k


def test_fine_subgrid_matches_masked_full_grid():
    fine = DEFAULT_SCAN_STEP / 8.0
    rng = np.random.default_rng(2008)
    cases = [(0.0, 3.0), (fine, 2 * fine), (1000 * fine, 1200 * fine)]
    for _ in range(500):
        lo = float(rng.uniform(0.0, 5000.0))
        cases.append((lo, lo + float(rng.uniform(1e-3, 40.0))))
    for lo, hi in cases:
        # The full-grid construction the sub-grid replaces, as reference.
        full = np.arange(0, int(np.ceil(hi / fine)) + 1, dtype=np.float64) * fine
        full[-1] = min(full[-1], hi)
        expected = full[(full >= lo) & (full <= hi)]
        sub = _grid(hi, fine, lo)
        assert sub.tobytes() == expected.tobytes(), (lo, hi)


def test_refine_below_double_spacing_terminates():
    z = refine_zero((14.0, 15.0), 1e-20)
    lo, hi = z.bracket
    assert hi - lo <= 4 * np.spacing(15.0)
    assert z.abs_err == 0.5 * (hi - lo)
    assert z.gamma == pytest.approx(14.134725141734693, abs=1e-13)


@pytest.mark.parametrize(
    "bracket,index", [((801.5, 801.75), 492), ((1189.75, 1190.0), 805)]
)
def test_abs_err_bounds_the_true_error(bracket, index):
    # Every sign refinement sees is certain, so the final bracket holds the
    # zero even at the resolution of doubles, far below Z's bound B(t) of
    # about 2.8e-8 near t = 800 and 9.4e-9 near t = 1190.
    z = refine_zero(bracket, 1e-20)
    assert z.bracket[1] - z.bracket[0] <= 4 * np.spacing(bracket[1])
    assert abs(mp.mpf(z.gamma) - mp.zetazero(index).imag) <= z.abs_err


def test_refine_rejects_bad_bracket():
    with pytest.raises(BracketError):
        refine_zero((14.0, 14.0001), 1e-9)
    with pytest.raises(BracketError):
        refine_zero((15.0, 14.0), 1e-9)


@pytest.mark.parametrize(
    "t_max,found,verdict",
    [
        (30.0, 3, Verdict.PASS),
        (10.0, 0, Verdict.PASS),
        (30.0, 1, Verdict.FAIL),
        (100.0, 29, Verdict.PASS),
    ],
)
def test_count_check(t_max, found, verdict):
    report = count_check(t_max, found)
    assert report.verdict is verdict


def test_count_estimate_values():
    assert zero_count_estimate(10.0) == 0
    assert zero_count_estimate(100.0) == 29


def test_remainder_bound_holds_at_the_scanned_zeros(zeros_for_products):
    # N(t) steps from k - 1 to k at gamma_k: both values must be within
    # R(gamma_k) of the main term.  A necessary check of Trudgian's quoted
    # constants on the data, not a proof of them.
    zeros = [z for z in zeros_for_products if z.gamma <= 1190.0]
    assert [z.index for z in zeros] == list(range(1, len(zeros) + 1))
    assert len(zeros) > 800
    for z in zeros:
        main = zero_count_main_term(z.gamma)
        bound = zero_count_remainder_bound(z.gamma)
        assert abs(z.index - 1 - main) <= bound and abs(z.index - main) <= bound, z


def test_coarse_step_recovers_hidden_zeros():
    # Zeros 922 and 923 share the scan cell (1329.0, 1329.25), so the gap
    # around them shows no sign change; its fine rescan must find both, say
    # so once, and leave every zero mpmath counts to t = 1331.
    import warnings

    from xispec.zeros import StepResolutionWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zeros = scan_zeros(1331.0, 1e-8)
    assert [str(w.message) for w in caught] == [
        "scan step 0.25 under-resolved (1327.750, 1330.250): "
        "2 sign change(s) in the fine rescan"
    ]
    assert caught[0].category is StepResolutionWarning
    assert len(zeros) == mp.nzeros(1331) == 924
    assert [z.index for z in zeros[921:923]] == [922, 923]
    assert zeros[921].gamma == pytest.approx(1329.04351799652, abs=1e-8)
    assert zeros[922].gamma == pytest.approx(1329.20501878548, abs=1e-8)


@pytest.mark.parametrize("tol", [0.1, 1.0])
def test_coarse_tolerance_keeps_every_zero(tol):
    # Zeros closer than a multiple of tol are still distinct zeros.
    zeros = scan_zeros(50.0, tol)
    assert [z.index for z in zeros] == list(range(1, 11))
    for z in zeros:
        assert abs(mp.mpf(z.gamma) - mp.zetazero(z.index).imag) <= z.abs_err


# ------------------------------- cache -------------------------------


def test_cache_checksum_frozen(tmp_path):
    # A fixed three-zero cache: its header, checksum included, is frozen.
    # The checksum is 64-bit BLAKE2b over the header before its checksum
    # field, a newline and the rows.
    zeros = [CriticalZero(n, g, (g - 5e-9, g + 5e-9), 5e-9)
             for n, g in enumerate(KNOWN_ZEROS_10[:3], start=1)]
    path = tmp_path / "zeros.csv"
    ZeroCache(t_max=30.0, tol=1e-8, zeros=zeros).save(str(path))
    assert path.read_text() == (
        "# xi-zeros v3 tol=1e-08 tmax=30.0 checksum=f1f6125d74b20291\n"
        "1,14.1347251417347,5.000e-09\n"
        "2,21.0220396387716,5.000e-09\n"
        "3,25.0108575801457,5.000e-09\n"
    )


def test_cache_roundtrip(tmp_path, zeros_to_100):
    path = str(tmp_path / "zeros.csv")
    cache = ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100)
    cache.save(path)
    loaded = ZeroCache.load(path)
    assert loaded.version == "v3"
    assert loaded.t_max == 100.0
    assert loaded.tol == 1e-8
    assert len(loaded.zeros) == len(zeros_to_100)
    for a, b in zip(loaded.zeros, zeros_to_100):
        assert a.index == b.index
        assert a.gamma == pytest.approx(b.gamma, abs=1e-12)
    assert loaded.matches(100.0, 1e-8)
    assert loaded.matches(50.0, 1e-8)
    assert not loaded.matches(120.0, 1e-8)
    assert not loaded.matches(100.0, 1e-9)


def _reseal(header: str, data: bytes) -> bytes:
    """The header line with its checksum recomputed for ``data``."""
    head = header.rsplit(" checksum=", 1)[0]
    return f"{head} checksum={cache_checksum(head, data):016x}\n".encode()


def test_cache_checksum_detects_corruption(tmp_path, zeros_to_100):
    path = str(tmp_path / "zeros.csv")
    ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100).save(path)
    raw = Path(path).read_bytes().replace(b"14.13", b"14.14", 1)
    Path(path).write_bytes(raw)
    with pytest.raises(CacheCorruptionError):
        ZeroCache.load(path)


def test_cache_rejects_rows_that_are_not_utf8(tmp_path, zeros_to_100):
    # The checksum matches, so only the decoding can catch the 0xff byte.
    path = tmp_path / "zeros.csv"
    ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100).save(str(path))
    header, data = path.read_bytes().split(b"\n", 1)
    data = data.replace(b"14.13", b"14.1\xff", 1)
    path.write_bytes(_reseal(header.decode(), data) + data)
    with pytest.raises(CacheCorruptionError, match="not UTF-8"):
        ZeroCache.load(str(path))


@pytest.mark.parametrize(
    "edit", [("tmax=100.0", "tmax=900.0"), ("tol=1e-08", "tol=1e-06")], ids=["tmax", "tol"]
)
def test_cache_checksum_covers_the_header(tmp_path, zeros_to_100, edit):
    # A header edited to claim more than was scanned must not be trusted.
    path = tmp_path / "zeros.csv"
    ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100).save(str(path))
    raw = path.read_text()
    assert raw.count(edit[0]) == 1
    path.write_text(raw.replace(*edit))
    with pytest.raises(CacheCorruptionError, match="checksum mismatch"):
        ZeroCache.load(str(path))


def test_cache_of_another_version_is_a_miss(tmp_path, zeros_to_100):
    # A cache of an older version (v1 checksummed its rows only, v2 used
    # FNV-1a) is not corrupt: it is never reused, whatever its header says.
    path = tmp_path / "zeros.csv"
    cache = ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100)
    data = cache.data_bytes()
    head = "# xi-zeros v1 tol=1e-08 tmax=100.0"
    path.write_bytes(f"{head} checksum={cache_checksum(head, data):016x}\n".encode() + data)
    loaded = ZeroCache.load(str(path))
    assert loaded.version == "v1" and loaded.zeros == []
    assert not loaded.matches(50.0, 1e-8)


def test_rows_parse_to_the_zeros_a_cache_read_gives(tmp_path, zeros_to_100):
    # A run that writes the cache formats the rows once, saves them and
    # goes on with the zeros parsed from them: those a later read gives.
    rows = format_rows(zeros_to_100)
    path = str(tmp_path / "zeros.csv")
    ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100).save(path, rows)
    assert Path(path).read_text().splitlines()[1:] == rows
    assert parse_rows(rows, path) == ZeroCache.load(path).zeros


def test_cache_keeps_full_tmax(tmp_path, zeros_to_100):
    # Count-driven runs ask for heights such as 149.6953125; a header that
    # rounds them (to 149.695) would make every later run miss the cache.
    path = str(tmp_path / "zeros.csv")
    ZeroCache(t_max=149.6953125, tol=1e-8, zeros=zeros_to_100).save(path)
    loaded = ZeroCache.load(path)
    assert loaded.t_max == 149.6953125
    assert loaded.matches(149.6953125, 1e-8)


@pytest.mark.parametrize(
    "reorder",
    [
        lambda rows: [rows[1], rows[0]] + rows[2:],               # rows swapped
        lambda rows: [rows[0]] + rows[2:],                        # index skipped
        lambda rows: ["1," + rows[1].split(",", 1)[1],
                      "2," + rows[0].split(",", 1)[1]] + rows[2:],  # gamma falls
    ],
    ids=["swapped", "skipped", "gamma-falls"],
)
def test_cache_rejects_rows_out_of_order(tmp_path, zeros_to_100, reorder):
    path = tmp_path / "zeros.csv"
    ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100).save(str(path))
    header, *rows = path.read_text().splitlines()
    data = "".join(row + "\n" for row in reorder(rows)).encode()
    path.write_bytes(_reseal(header, data) + data)
    with pytest.raises(CacheCorruptionError):
        ZeroCache.load(str(path))


def test_cache_rejects_malformed_header(tmp_path):
    path = str(tmp_path / "zeros.csv")
    with open(path, "w") as handle:
        handle.write("not a cache\n1,2,3\n")
    with pytest.raises(CacheCorruptionError):
        ZeroCache.load(path)


def test_critical_zero_validation():
    with pytest.raises(ValueError):
        CriticalZero(index=1, gamma=5.0, bracket=(5.5, 6.0), abs_err=1e-9)
    with pytest.raises(ValueError):
        CriticalZero(index=0, gamma=5.0, bracket=(4.0, 6.0), abs_err=1e-9)
