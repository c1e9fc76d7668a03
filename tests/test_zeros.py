import math
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import KNOWN_ZEROS_10
from xispec.errors import BracketError, CacheCorruptionError
from xispec.report import Verdict
from xispec.specfun import RS_MIN_T, hardy_z, xi_critical
from xispec import zeros as zeros_module
from xispec.zeros import (
    DEFAULT_SCAN_STEP,
    CriticalZero,
    ZeroCache,
    _grid,
    count_check,
    fnv1a64,
    refine_brackets,
    refine_zero,
    scan_zeros,
    zero_count_estimate,
)


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
    # The 20,001-point scan grid to t = 5000 crosses RS_MIN_T: its
    # Euler-Maclaurin points go through the scalar code, its Riemann-Siegel
    # points through the block formula.
    grid = _grid(5000.0, DEFAULT_SCAN_STEP)
    assert grid.size == 20001
    values = hardy_z(grid)
    assert isinstance(values, np.ndarray) and values.shape == grid.shape
    scalar = np.array([hardy_z(float(t)) for t in grid])
    em = grid < RS_MIN_T
    assert values[em].tolist() == scalar[em].tolist()
    assert np.abs(values[~em] - scalar[~em]).max() <= 1e-12
    oracle = grid[::50]
    assert hardy_z(oracle, depth=2).tolist() == [hardy_z(float(t), 2) for t in oracle]
    empty = hardy_z(np.array([]))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_refine_known_brackets():
    z = refine_zero((14.0, 15.0), 1e-9)
    assert z.gamma == pytest.approx(14.134725141734693, abs=2e-9)
    z = refine_zero((21.0, 22.0), 1e-9)
    assert z.gamma == pytest.approx(21.022039638771555, abs=2e-9)


def _count_z_points(monkeypatch) -> dict[str, int]:
    """Count the heights Z is evaluated at through ``xispec.zeros``, by phase."""
    calls = {"scan": 0, "refine": 0}
    phase = ["scan"]
    refine = zeros_module.refine_brackets

    def counted_z(t, depth=1):
        calls[phase[0]] += np.size(t)
        return hardy_z(t, depth)

    def counted_refine(*args, **kwargs):
        phase[0] = "refine"
        try:
            return refine(*args, **kwargs)
        finally:
            phase[0] = "scan"

    monkeypatch.setattr(zeros_module, "hardy_z", counted_z)
    monkeypatch.setattr(zeros_module, "refine_brackets", counted_refine)
    return calls


def test_refine_reuses_known_end_values(monkeypatch):
    calls = _count_z_points(monkeypatch)
    plain = refine_zero((14.0, 15.0), 1e-9)
    first = calls["refine"]
    ends = (hardy_z(14.0), hardy_z(15.0))
    reused = refine_zero((14.0, 15.0), 1e-9, z_ends=ends)
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


def test_scan_z_point_count(monkeypatch):
    # Array evaluation makes each point cheaper, not fewer: the scalar scan
    # it replaced evaluated Z at exactly these many heights.
    calls = _count_z_points(monkeypatch)
    scan_zeros(1190.0, 1e-8)
    assert calls["scan"] + calls["refine"] == 11085


def _scalar_chandrupatla(bracket, tol, z):
    """One bracket at a time, in Python floats: the lockstep loop's reference."""
    t_lo, t_hi = bracket
    tol = max(tol, 4.0 * math.ulp(max(abs(t_lo), abs(t_hi))))
    f_lo, f_hi = z(t_lo), z(t_hi)
    a, f_a, b, f_b = t_hi, f_hi, t_lo, f_lo
    step = 0.5
    while abs(b - a) > tol:
        trial = a + step * (b - a)
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


def _scalar_z(t, depth=1):
    """Z through the scalar code only, for arrays too."""
    if isinstance(t, np.ndarray):
        return np.array([hardy_z(float(x), depth) for x in t])
    return hardy_z(t, depth)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-20])
def test_lockstep_refinement_matches_scalar_loop(monkeypatch, tol):
    # Brackets on both sides of RS_MIN_T in one call; the same Z values
    # must give the same trial points, so the results are equal exactly.
    monkeypatch.setattr(zeros_module, "hardy_z", _scalar_z)
    grid = _grid(830.0, DEFAULT_SCAN_STEP, 770.0)
    values = _scalar_z(grid)
    flips = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    brackets = [(float(grid[i]), float(grid[i + 1])) for i in flips]
    brackets += [(14.0, 15.0), (801.5, 801.75)]
    assert min(b[0] for b in brackets) < RS_MIN_T < max(b[1] for b in brackets)
    found = refine_brackets(brackets, tol)
    assert [z.index for z in found] == list(range(1, len(brackets) + 1))
    for z, bracket in zip(found, brackets):
        assert (z.gamma, z.bracket, z.abs_err) == _scalar_chandrupatla(
            bracket, tol, _scalar_z
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
    monkeypatch.setattr(
        zeros_module, "hardy_z", lambda t, depth=1: np.sin(np.pi * (np.asarray(t) - 14.5))
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
    # exercised: zero 491 is the last below RS_MIN_T = 800.
    assert len(zeros_for_products) == 805
    for k in (1, 300, 491, 492, 700, 805):
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


def test_coarse_step_recovers_hidden_zeros():
    # A deliberately absurd step hides several sign changes per cell; the
    # anomaly rescan must find them all and say so.
    import warnings

    from xispec.zeros import StepResolutionWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zeros = scan_zeros(30.0, 1e-8, step=12.0)
    assert len(zeros) == 3
    assert any(issubclass(w.category, StepResolutionWarning) for w in caught)
    assert zeros[0].gamma == pytest.approx(14.134725141734693, abs=1e-6)


# ------------------------------- cache -------------------------------


def test_fnv1a64_reference_values():
    # Published reference vectors for 64-bit FNV-1a.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_cache_roundtrip(tmp_path, zeros_to_100):
    path = str(tmp_path / "zeros.csv")
    cache = ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100)
    cache.save(path)
    loaded = ZeroCache.load(path)
    assert loaded.version == "v1"
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


def test_cache_checksum_detects_corruption(tmp_path, zeros_to_100):
    path = str(tmp_path / "zeros.csv")
    ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100).save(path)
    raw = Path(path).read_bytes().replace(b"14.13", b"14.14", 1)
    Path(path).write_bytes(raw)
    with pytest.raises(CacheCorruptionError):
        ZeroCache.load(path)


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
    header = header.rsplit("=", 1)[0] + f"={fnv1a64(data):016x}\n"
    path.write_bytes(header.encode() + data)
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
