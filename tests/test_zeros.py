import importlib
import math
import os
import stat
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import KNOWN_ZEROS_10, hardy_z_without_zeros_2_and_3
from xispec import cli
from xispec.config import build_config
from xispec.errors import BracketError, CacheCorruptionError, NonConvergenceError
from xispec.specfun import RS_MIN_T, hardy_z, hardy_z_paths, xi_critical
from xispec.specfun.xi import Z_DOUBT, Z_EULER_MACLAURIN
from xispec import zeros as zeros_module
from xispec.zeros import (
    CriticalZero,
    ZeroCache,
    cache_checksum,
    format_rows,
    gram_points,
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
    # A 20,001-point grid to t = 5000 crosses RS_MIN_T.  Riemann-Siegel
    # blocks are sorted by N, so a point's Z must not depend on which points
    # share its block: uneven chunks, and one-point scalar calls, give the
    # same values exactly.
    grid = np.arange(20001) * 0.25
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

    Both entry points count: ``hardy_z`` and refinement's ``hardy_z_paths``.
    """
    calls = {"scan": 0, "refine": 0, "scan calls": 0, "refine calls": 0}
    phase = ["scan"]
    refine = zeros_module.refine_brackets

    def counted_z(t):
        calls[phase[0]] += np.size(t)
        calls[phase[0] + " calls"] += 1
        return hardy_z(t)

    def counted_paths(t):
        calls[phase[0]] += np.size(t)
        calls[phase[0] + " calls"] += 1
        return hardy_z_paths(t)

    def counted_refine(*args, **kwargs):
        phase[0] = "refine"
        try:
            return refine(*args, **kwargs)
        finally:
            phase[0] = "scan"

    monkeypatch.setattr(zeros_module, "hardy_z", counted_z)
    monkeypatch.setattr(zeros_module, "hardy_z_paths", counted_paths)
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
    # Gram points, t_max, the points that split short Rosser blocks and
    # every refinement point together: 8.05 per zero (8.29 with the doubt
    # rule's sides at -+ tol/4 and a settled trial point, 13.9 on the 0.25
    # grid).
    calls = _count_z_points(monkeypatch)
    found = scan_zeros(1190.0, 1e-8)
    assert len(found) == 805
    assert calls["refine"] > 0
    assert (calls["scan"] + calls["refine"]) / len(found) <= 8.2


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
    # Array evaluation makes each point cheaper, Gram points make them fewer:
    # one call for the Gram points and t_max, and one per round that splits
    # the short Rosser blocks.  Riemann-Siegel from RS_MIN_T leaves
    # Euler-Maclaurin the heights below it and the sides of a doubtful trial
    # point that lie within B(t)/|Z'| of the root, a few array calls per scan.
    calls = _count_z_points(monkeypatch)
    em_calls = _count_em_heights(monkeypatch)
    scan_zeros(1190.0, 1e-8)
    assert (calls["scan"], calls["refine"]) == (1017, 5462)
    assert calls["scan calls"] == 3
    em_heights = np.concatenate(em_calls)
    assert em_heights.size == 1798
    assert (em_heights < RS_MIN_T).sum() == 603
    assert len(em_calls) <= 20


def test_euler_maclaurin_share_to_5000(monkeypatch):
    # The Gram, block-splitting and refinement points of a 1e-6 scan to
    # t = 5000 used Euler-Maclaurin 7,023 times when Riemann-Siegel started
    # at t = 800, and 1,774 times on the 0.25 grid from RS_MIN_T = 200; on
    # Gram points only the 555 below RS_MIN_T and the doubtful signs above
    # it do: 62 of them with the doubt rule's sides at -+ tol/4, 16 with
    # sides that grow to B(t)/|Z'|.
    em_calls = _count_em_heights(monkeypatch)
    found = scan_zeros(5000.0, 1e-6)
    assert len(found) == 4520
    em_heights = np.concatenate(em_calls)
    assert em_heights.size <= 600
    assert (em_heights >= RS_MIN_T).sum() <= 30
    assert len(em_calls) <= 16


def test_euler_maclaurin_share_of_the_audit_scan(monkeypatch):
    # An audit without --tol scans to t = 1188.36 for 800 zeros at
    # config.DEFAULT_TOL["audit"] = 1e-6: Euler-Maclaurin at 571 heights, 16
    # of them from RS_MIN_T up.  At the zeros command's 1e-8 it took 1,798
    # and 1,195 (test_scan_z_point_count).
    run = cli._Run(build_config(None, {"n_zeros": 800}, "audit"))
    em_calls = _count_em_heights(monkeypatch)
    found = scan_zeros(run.t_scan, run.cfg.tol)
    assert len(found) == 803
    em_heights = np.concatenate(em_calls)
    assert em_heights.size <= 600
    assert (em_heights >= RS_MIN_T).sum() <= 30


@pytest.fixture(scope="module")
def deep_scan():
    """scan_zeros(2e4, 1e-8) and the heights at which it evaluates Euler-Maclaurin."""
    with pytest.MonkeyPatch.context() as patch:
        em_calls = _count_em_heights(patch)
        zeros = scan_zeros(2e4, 1e-8)
    return zeros, np.concatenate(em_calls)


def test_deep_scan_budget(deep_scan):
    # ROADMAP defect 12: with the doubt rule's sides at -+ tol/4 and the
    # trial point settled where their signs agreed, Euler-Maclaurin took
    # 2,273 heights from RS_MIN_T up (445 in [1e4, 2e4]); sides that grow
    # to B(t)/|Z'|, one of which takes the trial point's place, leave 1,285.
    zeros, em_heights = deep_scan
    assert len(zeros) == mp.nzeros(20000) == 22491
    assert (em_heights >= RS_MIN_T).sum() <= 1400


@pytest.mark.parametrize("t_max", [1190.0, 2e4])
def test_bracket_ends_are_certified(t_max, zeros_for_products, deep_scan):
    # Every closed bracket is at most tol wide, holds its gamma strictly
    # inside and has certain signs of Z at its ends that differ.
    zeros = zeros_for_products if t_max == 1190.0 else deep_scan[0]
    assert zeros[-1].gamma <= t_max
    lo, hi = np.array([z.bracket for z in zeros]).T
    gamma = np.array([z.gamma for z in zeros])
    assert (hi - lo <= 1e-8).all()
    assert ((lo < gamma) & (gamma < hi)).all()
    z_lo, z_hi = hardy_z(lo), hardy_z(hi)
    assert (z_lo != 0.0).all() and (z_hi != 0.0).all()
    assert ((z_lo < 0.0) != (z_hi < 0.0)).all()


def _scalar_chandrupatla(bracket, tol, z, z_paths):
    """One bracket at a time, in Python floats: the lockstep loop's reference."""
    t_lo, t_hi = bracket
    spacing = math.ulp(max(abs(t_lo), abs(t_hi)))
    tol = max(tol, 4.0 * spacing)
    f_lo, f_hi = z(t_lo), z(t_hi)
    a, f_a, b, f_b = t_hi, f_hi, t_lo, f_lo
    # The first trial point is the root of the chord through the ends.
    clamp = 0.5 * tol / abs(b - a)
    step, seen = min(max(f_a / (f_a - f_b), clamp), 1.0 - clamp), 0.0
    while abs(b - a) > tol:
        trial = a + step * (b - a)
        # The doubt rule: a Riemann-Siegel sign in doubt, found or foreseen
        # on the line through the ends, makes Z at trial -+ o close the
        # bracket if their signs differ, and the side next to the end of the
        # other sign (the far side within 2 ulps of it) replace the trial
        # point otherwise.
        f_line = f_a + (trial - a) * ((f_b - f_a) / (b - a))
        doubt = seen > 0.0 and not abs(f_line) > seen
        if not doubt:
            (f_trial,), (seen,), (path,) = z_paths(np.array([trial]))
            doubt = path == Z_DOUBT
        if doubt:
            o = min(max(2.0 * seen / abs((f_b - f_a) / (b - a)), 0.25 * tol), 0.49 * tol)
            s_lo = max(trial - o, min(a, b))
            s_hi = min(trial + o, max(a, b))
            f_s_lo, f_s_hi = z(s_lo), z(s_hi)
            if math.copysign(1.0, f_s_lo) != math.copysign(1.0, f_s_hi):
                return 0.5 * (s_lo + s_hi), (s_lo, s_hi), 0.5 * (s_hi - s_lo)
            end = a if math.copysign(1.0, f_a) != math.copysign(1.0, f_s_lo) else b
            up = end > trial
            if abs(end - (s_hi if up else s_lo)) < 2.0 * spacing:
                up = not up
            trial, f_trial = (s_hi, f_s_hi) if up else (s_lo, f_s_lo)
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


def _scalar_z_paths(t):
    """``hardy_z_paths`` one height per call."""
    points = [hardy_z_paths(np.array([x])) for x in t.tolist()]
    return tuple(np.array([p[k][0] for p in points]) for k in range(3))


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-20])
def test_lockstep_refinement_matches_scalar_loop(monkeypatch, tol):
    # Brackets on both sides of RS_MIN_T and t = 800 in one call; the same Z
    # values must give the same trial points, so the results are equal
    # exactly.  Near t = 800 the bound B(t) is 2.8e-8, so at the two tighter
    # tolerances the doubt rule decides the last steps.
    monkeypatch.setattr(zeros_module, "hardy_z", _scalar_z)
    monkeypatch.setattr(zeros_module, "hardy_z_paths", _scalar_z_paths)
    grid = np.arange(3080, 3321) * 0.25
    values = _scalar_z(grid)
    flips = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    brackets = [(float(grid[i]), float(grid[i + 1])) for i in flips]
    brackets += [(14.0, 15.0), (801.5, 801.75), (199.75, 201.5)]
    assert min(b[0] for b in brackets) < RS_MIN_T < max(b[1] for b in brackets)
    found = refine_brackets(brackets, tol)
    assert [z.index for z in found] == list(range(1, len(brackets) + 1))
    for z, bracket in zip(found, brackets):
        assert (z.gamma, z.bracket, z.abs_err) == _scalar_chandrupatla(
            bracket, tol, _scalar_z, _scalar_z_paths
        )
        if tol < 1e-15:
            assert z.bracket[1] - z.bracket[0] <= 4 * np.spacing(bracket[1])


def test_lockstep_zero_at_bracket_end():
    # A Z of exactly 0.0 at a bracket end is recorded as at a trial point:
    # that end, within tol/2.
    found = refine_brackets(
        [(14.0, 15.0), (20.0, 21.0), (21.0, 22.0)],
        1e-9,
        z_ends=[(0.0, 1.0), (-1.0, 0.0), (hardy_z(21.0), hardy_z(22.0))],
    )
    assert found[0] == CriticalZero(1, 14.0, (14.0 - 0.5e-9, 14.0 + 0.5e-9), 0.5e-9)
    assert found[1] == CriticalZero(2, 21.0, (21.0 - 0.5e-9, 21.0 + 0.5e-9), 0.5e-9)
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
        "hardy_z_paths",
        lambda t: (sine(t), np.zeros(t.size), np.full(t.size, Z_EULER_MACLAURIN)),
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


def test_count_estimate_values():
    assert zero_count_estimate(10.0) == 0
    assert zero_count_estimate(100.0) == 29
    # Below its minimum at t = 2 pi, M(t) = (t/2 pi) log(t/2 pi e) + 7/8
    # rises toward 7/8 as t -> 0, and rounded to 1 below t ~ 0.75.
    assert zero_count_main_term(0.5) > 0.5
    for t in (1e-300, 1e-3, 0.5, 0.75, 1.0, 2.0 * math.pi, 7.0, 14.0):
        assert zero_count_estimate(t) == 0, t
    assert zero_count_estimate(15.0) == 1


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


def test_close_pair_at_1329_keeps_its_indices():
    # Zeros 922 and 923 lie 0.16 apart, in one cell of the 0.25 grid the
    # scan used before Gram points; a Rosser block must hold both.
    zeros = scan_zeros(1331.0, 1e-8)
    assert len(zeros) == mp.nzeros(1331) == 924
    assert [z.index for z in zeros[921:923]] == [922, 923]
    assert zeros[921].gamma == pytest.approx(1329.04351799652, abs=1e-8)
    assert zeros[922].gamma == pytest.approx(1329.20501878548, abs=1e-8)


@pytest.mark.parametrize("t_max,count", [(1331.0, 924), (5000.0, 4520), (7010.0, 6714), (5e4, 63519)])
def test_scan_finds_every_zero(t_max, count):
    # ROADMAP defect 10: the 0.25 grid and its mean-gap rescan found 6,712
    # zeros to 7010 and 63,505 to 5e4, and said nothing.
    assert len(scan_zeros(t_max, 1e-6)) == mp.nzeros(t_max) == count


@pytest.mark.parametrize("t_max,count", [(25.05, 3), (30.3749, 3)])
def test_zeros_listed_by_their_sign_change_at_t_max(t_max, count):
    # At tol 0.5 the midpoint of a bracket may lie on the other side of t_max
    # from its zero: gamma_3 = 25.0109 was dropped at t_max = 25.05, and
    # zero 4 listed at 30.307 +- 0.145 though gamma_4 = 30.4249.
    zeros = scan_zeros(t_max, 0.5)
    assert [z.index for z in zeros] == list(range(1, count + 1))
    assert len(zeros) == mp.nzeros(t_max)
    for z in zeros:
        assert z.bracket[1] <= t_max
        assert abs(mp.mpf(z.gamma) - mp.zetazero(z.index).imag) <= z.abs_err


@pytest.fixture(scope="module")
def zeros_to_7010():
    return scan_zeros(7010.0, 1e-6)


def test_defect_10_pair_keeps_its_indices(zeros_to_7010):
    # Zeros 6414 and 6415 share the 0.25 cell (6740.25, 6740.5): every
    # index from 6414 up was 2 short.
    pair = [z for z in zeros_to_7010 if 6740.0 < z.gamma < 6740.5]
    assert [z.index for z in pair] == [6414, 6415]
    for z in pair:
        assert abs(mp.mpf(z.gamma) - mp.zetazero(z.index).imag) <= z.abs_err


def test_sampled_zeros_to_7010_against_independent_oracle(zeros_to_7010):
    # Zero n lies within abs_err of gamma_n when mpmath counts n - 1 zeros up
    # to gamma_n - abs_err and n up to gamma_n + abs_err: what
    # mpmath.zetazero(n) would show, at a tenth of its cost at these heights.
    rng = np.random.default_rng(7010)
    for n in sorted(rng.choice(len(zeros_to_7010), 20, replace=False) + 1):
        z = zeros_to_7010[n - 1]
        assert z.index == n
        gamma = mp.mpf(z.gamma)
        assert (mp.nzeros(gamma - z.abs_err), mp.nzeros(gamma + z.abs_err)) == (n - 1, n)


def test_short_rosser_block_raises(monkeypatch):
    # g_1 = 23.17 turns bad, and the block (g_0, g_2) shows no sign change
    # however finely it is split: an error, never a list without them.
    monkeypatch.setattr(zeros_module, "hardy_z", hardy_z_without_zeros_2_and_3)
    with pytest.raises(NonConvergenceError) as caught:
        scan_zeros(30.0, 1e-8)
    assert str(caught.value) == (
        "Rosser block [17.845600, 27.670182] (Gram points g_0 to g_2) shows 0 of "
        "its 2 sign changes with each interval split 4096 ways"
    )


def test_gram_points_against_mpmath():
    gram = gram_points(-1, 5000)
    for n in (-1, 0, 1, 2, 100, 4999, 5000):
        assert gram[n + 1] == pytest.approx(float(mp.grampoint(n)), rel=4e-15, abs=2e-10)


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


def test_cache_file_mode_follows_the_umask(tmp_path, zeros_to_100):
    # Written as the reports are, so another account can read a shared
    # cache; no temp file is left beside it.
    path = tmp_path / "zeros.csv"
    old = os.umask(0o022)
    try:
        ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100).save(str(path))
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert os.listdir(tmp_path) == ["zeros.csv"]


def test_cache_roundtrip(tmp_path, zeros_to_100):
    path = str(tmp_path / "zeros.csv")
    cache = ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100)
    cache.save(path)
    assert Path(path).read_text().startswith("# xi-zeros v3 ")
    loaded = ZeroCache.load(path)
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
    data = "".join(row + "\n" for row in format_rows(zeros_to_100)).encode()
    head = "# xi-zeros v1 tol=1e-08 tmax=100.0"
    path.write_bytes(f"{head} checksum={cache_checksum(head, data):016x}\n".encode() + data)
    assert ZeroCache.load(str(path)) is None


def test_rows_parse_to_the_zeros_a_cache_read_gives(tmp_path, zeros_to_100):
    # A run that writes the cache goes on with the zeros save returns: those
    # the rows it wrote parse to, and those a later read gives.
    rows = format_rows(zeros_to_100)
    path = str(tmp_path / "zeros.csv")
    saved = ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100).save(path)
    assert Path(path).read_text().splitlines()[1:] == rows
    assert saved == ZeroCache.load(path).zeros
    assert saved == parse_rows(rows, path)


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


def test_cache_read_is_bounded(tmp_path, zeros_to_100, monkeypatch):
    # A file longer than the bound is corrupt, whatever it holds; one of
    # exactly the bound still loads.
    path = tmp_path / "zeros.csv"
    ZeroCache(t_max=100.0, tol=1e-8, zeros=zeros_to_100).save(str(path))
    size = path.stat().st_size
    monkeypatch.setattr(zeros_module, "_CACHE_MAX_BYTES", size)
    assert len(ZeroCache.load(str(path)).zeros) == len(zeros_to_100)
    monkeypatch.setattr(zeros_module, "_CACHE_MAX_BYTES", size - 1)
    with pytest.raises(CacheCorruptionError, match=f"longer than {size - 1} bytes"):
        ZeroCache.load(str(path))


def test_critical_zero_validation():
    with pytest.raises(ValueError):
        CriticalZero(index=1, gamma=5.0, bracket=(5.5, 6.0), abs_err=1e-9)
    with pytest.raises(ValueError):
        CriticalZero(index=0, gamma=5.0, bracket=(4.0, 6.0), abs_err=1e-9)
