import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from conftest import rel_err
from xispec.specfun import (
    RS_MIN_T,
    XI_SIGN_FROM_Z,
    em_truncation,
    hardy_z,
    hardy_z_method,
    log_abs_xi_critical,
    riemann_siegel_theta,
    xi,
    xi_critical,
    zeta,
)
from xispec.specfun.xi import _RS_C

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


def test_log_abs_consistency():
    for t in (5.0, 30.0, 80.0):
        direct = math.log(abs(xi_critical(t)))
        assert abs(log_abs_xi_critical(t) - direct) < 1e-8 * max(1.0, abs(direct))


def _euler_maclaurin_z(t, depth):
    value = cmath.exp(1j * riemann_siegel_theta(t)) * zeta(complex(0.5, t), depth)
    return value.real


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
    heights = [rng.uniform(RS_MIN_T, 6000.0) for _ in range(50)]
    heights += [RS_MIN_T - 1e-9, RS_MIN_T, RS_MIN_T + 1e-9, 6000.0]
    with mp.workdps(20):
        oracle = [float(mp.siegelz(t)) for t in heights]
    for t, expected in zip(heights, oracle):
        assert abs(hardy_z(t) - expected) <= 1e-10, t
    # The array path, on the same heights in one call.
    values = hardy_z(np.array(heights))
    assert np.abs(values - np.array(oracle)).max() <= 1e-10


def test_z_method_switches_at_rs_min_t():
    assert hardy_z_method(RS_MIN_T - 1e-9) == (
        "euler-maclaurin", em_truncation(complex(0.5, RS_MIN_T - 1e-9)))
    assert hardy_z_method(RS_MIN_T) == ("riemann-siegel", 11)
    assert hardy_z_method(5000.0) == ("riemann-siegel", 28)
    assert hardy_z_method(5000.0, depth=2)[0] == "euler-maclaurin"
    assert hardy_z(RS_MIN_T - 1e-9) == _euler_maclaurin_z(RS_MIN_T - 1e-9, 1)


def test_depth_two_oracle_stays_on_euler_maclaurin():
    for t in (100.0, RS_MIN_T, 1150.0, 4321.5):
        assert hardy_z(t, depth=2) == _euler_maclaurin_z(t, 2)
    # The two formulas agree where both apply.
    assert abs(hardy_z(1150.0) - hardy_z(1150.0, depth=2)) <= 1e-10
