import cmath
import importlib
import json
import math
import random

import mpmath as mp
import numpy as np
import pytest

from conftest import rel_err
from xispec.errors import NonConvergenceError, PoleError
from make_siegelz_oracle import PATH as ORACLE_PATH, oracle_heights, siegelz
from xispec.specfun import (
    RS_MIN_T,
    XI_SIGN_FROM_Z,
    em_truncation,
    hardy_z,
    hardy_z_method,
    hardy_z_with_bound,
    riemann_siegel_theta,
    xi,
    xi_critical,
    zeta,
)
from xispec.specfun.xi import EM_MAX_T, _RS_C, _hardy_z_euler_maclaurin
from xispec.specfun.zeta import euler_maclaurin_zeta
from xispec.zeros import scan_zeros

xi_module = importlib.import_module("xispec.specfun.xi")

# Product of Gamma(1/4), zeta(1/2), pi^(-1/4) at 30 significant digits,
# frozen from the arbitrary-precision oracle.
XI_AT_HALF = 0.497120778188314109912773739685


def test_value_at_two():
    assert rel_err(xi(2.0), math.pi / 6.0) < 1e-12


def test_removable_singularities():
    assert xi(0.0) == pytest.approx(0.5, rel=1e-13)
    assert xi(1.0) == pytest.approx(0.5, rel=1e-13)


def test_value_at_half():
    assert rel_err(xi(0.5), XI_AT_HALF) < 1e-13


def test_functional_equation():
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        s = complex(rng.uniform(-20.0, 21.0), rng.uniform(-22.0, 22.0))
        if abs(s) > 30.0:
            continue
        checked += 1
        assert abs(xi(s) - xi(1.0 - s)) <= 1e-10 * (1.0 + abs(xi(s)))


def test_conjugation():
    s = complex(0.4, 11.3)
    assert xi(s.conjugate()) == xi(s).conjugate()


def test_critical_restriction_is_real():
    assert xi_critical(0.0) == pytest.approx(XI_AT_HALF, rel=1e-13)
    for t in (3.0, 14.0, 47.5, 90.0):
        assert xi_critical(t) == xi_critical(-t)


def test_first_zero_residual():
    assert abs(xi_critical(14.134725)) < 1e-6


def test_hardy_z_shares_signs_with_xi():
    for t in (2.0, 10.0, 14.2, 20.0, 26.0, 40.0, 75.0):
        xi_val = xi_critical(t)
        z_val = hardy_z(t)
        assert math.copysign(1.0, xi_val) == XI_SIGN_FROM_Z * math.copysign(
            1.0, z_val
        )


def test_hardy_z_survives_large_t():
    # Direct Xi underflows near t ~ 900; the rescaled carrier must not.
    value = hardy_z(1150.0)
    assert math.isfinite(value)
    assert abs(value) > 1e-8


def _euler_maclaurin_z(t):
    """The scalar formula: the reference for the array Euler-Maclaurin path."""
    value = cmath.exp(1j * riemann_siegel_theta(t)) * zeta(complex(0.5, t))
    return value.real


def _em_path(t):
    """Z at one height by the module's Euler-Maclaurin path, checked against
    the scalar formula within 4e-15 max(1, |Z|)."""
    value = float(_hardy_z_euler_maclaurin(np.array([t]))[0])
    expected = _euler_maclaurin_z(t)
    assert abs(value - expected) <= 4e-15 * max(1.0, abs(expected)), t
    return value


def test_riemann_siegel_coefficients_match_regeneration():
    # C_j from Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), expanded
    # about p = 1/2 (z = p - 1/2) by mpmath at 40 digits.
    with mp.workdps(40):
        pi = mp.pi
        psi = mp.taylor(
            lambda p: mp.cos(2 * pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * pi * p),
            mp.mpf(0.5),
            56,
        )

        def d(k, i):  # coefficient of z^i in Psi^(k)
            return mp.factorial(i + k) / mp.factorial(i) * psi[i + k]

        recipes = (
            ((0, 1),),
            ((3, -1 / (96 * pi**2)),),
            ((2, 1 / (64 * pi**2)), (6, 1 / (18432 * pi**4))),
            ((1, -1 / (64 * pi**2)), (5, -1 / (3840 * pi**4)),
             (9, -1 / (5308416 * pi**6))),
            ((0, 1 / (128 * pi**2)), (4, 19 / (24576 * pi**4)),
             (8, 11 / (5898240 * pi**6)), (12, 1 / (2038431744 * pi**8))),
        )
        for j, (literal, recipe) in enumerate(zip(_RS_C, recipes)):
            for m, value in enumerate(literal):
                i = 2 * m + j % 2
                expected = sum(w * d(k, i) for k, w in recipe)
                assert abs(value - expected) <= 1e-15 * abs(expected), (j, i)


def test_riemann_siegel_z_against_oracle():
    rng = random.Random(2008)
    heights = [rng.uniform(800.0, 6000.0) for _ in range(50)]
    heights += [800.0 - 1e-9, 800.0, 800.0 + 1e-9, 6000.0]
    with mp.workdps(20):
        oracle = [float(mp.siegelz(t)) for t in heights]
    for t, expected in zip(heights, oracle):
        assert abs(hardy_z(t) - expected) <= 1e-10, t
    # The array path, on the same heights in one call.
    values = hardy_z(np.array(heights))
    assert np.abs(values - np.array(oracle)).max() <= 1e-10


def test_riemann_siegel_bound_against_oracle():
    # The oracle table holds mpmath.siegelz at 2,003 heights in [200, 6000]
    # (tests/make_siegelz_oracle.py); three are recomputed here.
    rows = json.loads(ORACLE_PATH.read_text())
    heights = np.array([t for t, _ in rows])
    assert heights.tolist() == oracle_heights()
    for k in (0, 1000, len(rows) - 1):
        assert abs(rows[k][1] - siegelz(rows[k][0])) <= 1e-15
    values, bounds, doubt = hardy_z_with_bound(heights)
    assert (bounds > 0.0).all()
    assert (doubt == ~(np.abs(values) > bounds)).all()
    assert (np.abs(values - np.array([z for _, z in rows])) <= bounds / 4.0).all()
    (b_5000,) = hardy_z_with_bound(np.array([5000.0]))[1]
    assert b_5000 <= 1e-9
    # Below RS_MIN_T, Euler-Maclaurin is the reference.
    values, bounds, doubt = hardy_z_with_bound(np.array([150.0, 199.75]))
    assert bounds.tolist() == [0.0, 0.0] and not doubt.any()
    assert values.tolist() == [_em_path(150.0), _em_path(199.75)]


def test_doubtful_riemann_siegel_sign_falls_back():
    # At the double nearest zero 100, |Z_RS| is below its bound B(t): the
    # sign is in doubt, so hardy_z and hardy_z_method use Euler-Maclaurin.
    t = float(mp.zetazero(100).imag)
    (z_rs,), (bound,), (doubt,) = hardy_z_with_bound(np.array([t]))
    assert RS_MIN_T < t and abs(z_rs) <= bound and doubt
    assert hardy_z(t) == _em_path(t)
    assert hardy_z(np.array([250.0, t])).tolist() == [hardy_z(250.0), hardy_z(t)]
    assert hardy_z_method(t) == ("euler-maclaurin", em_truncation(complex(0.5, t)))
    assert hardy_z_method(250.0) == ("riemann-siegel", 6)


def _doubtful_height(t_min):
    """A height just above t_min where |Z_RS| <= B(t): bisect a sign change."""
    grid = t_min + 0.01 * np.arange(200)
    values = hardy_z_with_bound(grid)[0]
    i = np.flatnonzero(np.signbit(values[:-1]) != np.signbit(values[1:]))[0]
    lo, hi = float(grid[i]), float(grid[i + 1])
    while True:
        mid = 0.5 * (lo + hi)
        (value,), (bound,), _ = hardy_z_with_bound(np.array([mid]))
        if not abs(value) > bound:
            return mid
        if np.signbit(value) == np.signbit(values[i]):
            lo = mid
        else:
            hi = mid


def test_doubt_rule_stops_where_euler_maclaurin_does():
    # Up to EM_MAX_T Euler-Maclaurin settles a doubtful sign; above it its
    # capped corrections stop converging, and the Riemann-Siegel value stands.
    below = _doubtful_height(EM_MAX_T - 2.0)
    assert below <= EM_MAX_T
    assert hardy_z_with_bound(np.array([below]))[2].tolist() == [True]
    assert hardy_z(below) == _em_path(below)
    assert hardy_z_method(below)[0] == "euler-maclaurin"
    above = _doubtful_height(1e6 - 2.0)
    (z_rs,), (bound,), (doubt,) = hardy_z_with_bound(np.array([above]))
    assert abs(z_rs) <= bound and not doubt
    assert hardy_z(above) == z_rs
    assert hardy_z_method(above) == ("riemann-siegel", int(math.sqrt(above / (2 * math.pi))))
    with pytest.raises(NonConvergenceError):
        _euler_maclaurin_z(above)


def test_z_method_switches_at_rs_min_t():
    assert hardy_z_method(RS_MIN_T - 1e-9) == (
        "euler-maclaurin", em_truncation(complex(0.5, RS_MIN_T - 1e-9)))
    assert hardy_z_method(RS_MIN_T) == ("riemann-siegel", 5)
    assert hardy_z_method(5000.0) == ("riemann-siegel", 28)
    assert hardy_z(RS_MIN_T - 1e-9) == _em_path(RS_MIN_T - 1e-9)
    # The two formulas agree where both apply.
    assert abs(hardy_z(1150.0) - _em_path(1150.0)) <= 1e-10


def _doubtful_scan_heights(monkeypatch):
    """The heights at which scan_zeros(1190, 1e-8) settles a doubtful sign."""
    heights = []
    kernel = xi_module.euler_maclaurin_zeta

    def recorded(s):
        heights.extend(s.imag.tolist())
        return kernel(s)

    monkeypatch.setattr(xi_module, "euler_maclaurin_zeta", recorded)
    scan_zeros(1190.0, 1e-8)
    monkeypatch.undo()
    return [t for t in heights if t >= RS_MIN_T]


def test_array_euler_maclaurin_matches_scalar_formula(monkeypatch):
    # 1,195 heights in (0, 1200], the doubtful heights of a scan to 1190 and
    # heights up to EM_MAX_T: within 4e-15 max(1, |Z|) of the scalar
    # formula, and the same bits whatever the order of the call.
    rng = np.random.default_rng(2008)
    doubtful = _doubtful_scan_heights(monkeypatch)
    assert len(doubtful) > 1000
    below = np.concatenate([1200.0 * (1.0 - rng.random(1190)),
                            [1e-9, 0.25, 14.134725, 199.99, 1200.0]])
    cases = [below, np.array(doubtful), rng.uniform(1200.0, EM_MAX_T, 12)]
    for t in cases:
        values = _hardy_z_euler_maclaurin(t)
        expected = np.array([_euler_maclaurin_z(float(x)) for x in t])
        error = np.abs(values - expected)
        assert (error <= 4e-15 * np.maximum(1.0, np.abs(expected))).all()
        shuffle = rng.permutation(t.size)
        shuffled = _hardy_z_euler_maclaurin(t[shuffle])
        assert shuffled.tolist() == values[shuffle].tolist()
        alone = [_hardy_z_euler_maclaurin(t[i : i + 1])[0] for i in shuffle[:25]]
        assert alone == values[shuffle[:25]].tolist()


def test_array_euler_maclaurin_errors_name_the_height():
    with pytest.raises(PoleError, match="nan"):
        hardy_z(np.array([100.0, math.nan]))
    with pytest.raises(PoleError, match="inf"):
        hardy_z(np.array([math.inf]))
    message = r"not converged at s=\(0\.5\+700000j\) \(N=200000, order cap 30\)"
    with pytest.raises(NonConvergenceError, match=message):
        euler_maclaurin_zeta(np.array([0.5 + 100j, 0.5 + 7e5j]))
    with pytest.raises(NonConvergenceError, match=message):
        zeta(complex(0.5, 7e5))
