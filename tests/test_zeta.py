import importlib
import math
import random

import numpy as np
import pytest

from conftest import mp_zeta, rel_err
from xispec.errors import NonConvergenceError, PoleError
from xispec.specfun import xi_critical, zeta
from xispec.specfun.zeta import em_truncation, euler_maclaurin_zeta


@pytest.mark.parametrize(
    "s,expected",
    [
        (2.0, math.pi**2 / 6.0),
        (4.0, math.pi**4 / 90.0),
        (0.0, -0.5),
        (-1.0, -1.0 / 12.0),
        (3.0, 1.2020569031595942854),
    ],
)
def test_classical_values(s, expected):
    assert zeta(s) == pytest.approx(expected, rel=1e-12)


def test_pole():
    with pytest.raises(PoleError):
        zeta(1.0)


def test_zeta_past_the_capped_truncation_raises():
    # N is capped at EM_TERMS_CAP, so from about t = 5.7e5 the corrections
    # do not converge: an error, never a value.
    with pytest.raises(NonConvergenceError, match="not converged"):
        zeta(0.5 + 7e5j)
    with pytest.raises(NonConvergenceError, match="not converged"):
        xi_critical(7e5)


def test_trivial_zeros_exact():
    for s in (-2.0, -4.0, -30.0):
        assert zeta(s) == 0.0


def test_oracle_grid():
    rng = random.Random(42)
    worst = 0.0
    for _ in range(120):
        s = complex(rng.uniform(-30.0, 31.0), rng.uniform(-100.0, 100.0))
        if abs(s - 1.0) < 0.05:
            continue
        worst = max(worst, rel_err(zeta(s), mp_zeta(s)))
    assert worst < 1e-10


def test_critical_line_top_of_range():
    s = complex(0.5, 100.0)
    assert rel_err(zeta(s), mp_zeta(s)) < 1e-10


def test_conjugation():
    s = complex(0.3, 17.7)
    assert zeta(s.conjugate()) == zeta(s).conjugate()


def test_near_pole_is_finite_and_accurate():
    s = 1.0 + 1e-9
    assert rel_err(zeta(s), mp_zeta(complex(s, 0.0))) < 1e-9


def test_bernoulli_constants_are_the_exact_ratios_rounded_once():
    # B_{2k}/(2k)! from the recurrence sum_{j<=m} C(m+1, j) B_j = 0, in exact
    # rational arithmetic, each rounded once: the literals in zeta.py, bit
    # for bit.
    from fractions import Fraction

    from xispec.specfun.zeta import _B2K_OVER_FACT, EM_ORDER_CAP

    n_max = 2 * EM_ORDER_CAP
    bern = [Fraction(1)] + [Fraction(0)] * n_max
    for m in range(1, n_max + 1):
        bern[m] = -sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1)
    exact = tuple(float(bern[n] / math.factorial(n)) for n in range(2, n_max + 1, 2))
    assert len(_B2K_OVER_FACT) == EM_ORDER_CAP
    assert [v.hex() for v in _B2K_OVER_FACT] == [v.hex() for v in exact]


def _first_pass_of_one_order(monkeypatch):
    """Send every point of ``euler_maclaurin_zeta`` through its second pass:
    no point's series stops at its first correction term."""
    zeta_module = importlib.import_module("xispec.specfun.zeta")
    monkeypatch.setattr(zeta_module, "_EM_FIRST_ORDERS", 1)


def test_euler_maclaurin_second_pass_keeps_every_bit(monkeypatch):
    # A point's sum up to its stopping term is a running sum, so the pass
    # that forms it does not change its bits: critical-line heights in
    # (0, 5e4) and points with Re s in [0, 3], by the default passes and
    # with every point redone over all EM_ORDER_CAP orders.
    rng = np.random.default_rng(2020)
    heights = np.concatenate([rng.uniform(0.0, 5e4, 300), rng.uniform(0.0, 200.0, 300)])
    points = np.concatenate([
        0.5 + 1j * heights,
        rng.uniform(0.0, 3.0, 300) + 1j * rng.uniform(-300.0, 300.0, 300),
        [0.0, 3.0, 0.5 + 14.134725141734695j, 2.0 + 1e-3j],
    ])
    default = euler_maclaurin_zeta(points)
    _first_pass_of_one_order(monkeypatch)
    redone = euler_maclaurin_zeta(points)
    assert [(v.real.hex(), v.imag.hex()) for v in redone.tolist()] == [
        (v.real.hex(), v.imag.hex()) for v in default.tolist()
    ]


@pytest.mark.parametrize("passes", ["default", "all-redone"])
def test_euler_maclaurin_names_the_first_unconverged_point(monkeypatch, passes):
    # Above t ~ 6e5, with N capped, the corrections stop shrinking fast
    # enough: the error names the first such point in the caller's order.
    if passes == "all-redone":
        _first_pass_of_one_order(monkeypatch)
    points = np.array([0.5 + 14j, 2.0 + 7.5e5j, 0.5 + 30j, 0.5 + 7.2e5j, 0.5 + 7e5j])
    message = r"not converged at s=\(0\.5\+720000j\) \(N=200000, order cap 30\)"
    with pytest.raises(NonConvergenceError, match=message):
        euler_maclaurin_zeta(points)
    assert euler_maclaurin_zeta(points[:3]).size == 3


def test_head_sums_are_each_points_one_dimensional_sum():
    # One call over points of many truncation points N, several to a row
    # block (rows as wide as the block's largest N, N - 1 up to 1800 here):
    # each head sum has the bits of the 1-D sum over its own N - 1 terms.
    zeta_module = importlib.import_module("xispec.specfun.zeta")
    rng = np.random.default_rng(31)
    heights = np.concatenate([rng.uniform(0.0, 3000.0, 300), [0.0, 1.0, 100.0, 100.0]])
    points = np.concatenate([0.5 + 1j * heights, rng.uniform(0.0, 2.0, 100) + 1j * heights[:100]])
    n = em_truncation(points)
    order = np.argsort(-n, kind="stable")
    points, n = points[order], n[order]
    heads = zeta_module._head_sums(points, n)
    logs = zeta_module._logs_up_to(int(n[0]))
    for s, big_n, head in zip(points.tolist(), n.tolist(), heads.tolist()):
        expected = complex(np.sum(np.exp(-s * logs[: big_n - 1])))
        assert (head.real.hex(), head.imag.hex()) == (expected.real.hex(), expected.imag.hex())
