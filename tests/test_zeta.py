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


def _array_product(a, b):
    """a * b rounded as numpy's array loops round it: they may fuse the
    multiply-add of a complex product, which Python's complex product and
    np.cumprod's running product do not."""
    return complex(np.multiply(np.array([a]), np.array([b]))[0])


def _corrections_by_terms(points):
    """``euler_maclaurin_zeta`` with the correction terms formed one at a
    time, the way ``zeta``'s scalar loop forms them, from the array path's
    head sums and N^-s terms (reference).  Each product and quotient is
    rounded as the array path rounds it: the factors of the rising product
    and the terms as array products, the rising product as a running
    product, N^{1-s-2k} by numpy's complex division."""
    zeta_module = importlib.import_module("xispec.specfun.zeta")
    b2k = zeta_module._B2K_OVER_FACT
    n = em_truncation(points)
    order = np.argsort(-n, kind="stable")
    s_sorted, n = points[order], n[order]
    totals = zeta_module._head_sums(s_sorted, n)
    n = n.astype(np.float64)
    n_minus_s = np.exp(-s_sorted * np.array([math.log(v) for v in n.tolist()]))
    totals += n_minus_s * (0.5 + n / (s_sorted - 1.0))
    values = np.empty_like(totals)
    for i in range(points.size):
        s, total = complex(s_sorted[i]), complex(totals[i])
        rising, n_pow, scale = s, n_minus_s[i] / n[i], abs(total)
        for k in range(1, zeta_module.EM_ORDER_CAP + 1):
            term = _array_product(_array_product(b2k[k - 1], rising), n_pow)
            total += term
            if abs(term) <= 1e-18 * max(scale, abs(total)):
                break
            rising *= _array_product(s + (2 * k - 1), s + 2 * k)
            n_pow /= n[i] * n[i]
        else:
            raise AssertionError(f"not converged at {s!r}")
        values[order[i]] = total
    return values


def test_euler_maclaurin_matches_the_term_by_term_corrections():
    # Critical-line heights in (0, 5e4) and points with Re s in [0, 3]: the
    # array path's corrections have the bits of a loop that forms them one
    # at a time, each point stopped at its own first term that passes the
    # test.
    rng = np.random.default_rng(2020)
    heights = np.concatenate([rng.uniform(0.0, 5e4, 300), rng.uniform(0.0, 200.0, 300)])
    points = np.concatenate([
        0.5 + 1j * heights,
        rng.uniform(0.0, 3.0, 300) + 1j * rng.uniform(-300.0, 300.0, 300),
        [0.0, 3.0, 0.5 + 14.134725141734695j, 2.0 + 1e-3j],
    ])
    got = euler_maclaurin_zeta(points)
    want = _corrections_by_terms(points)
    assert [(v.real.hex(), v.imag.hex()) for v in got.tolist()] == [
        (v.real.hex(), v.imag.hex()) for v in want.tolist()
    ]


def test_euler_maclaurin_names_the_first_unconverged_point():
    # Above t ~ 6e5, with N capped, the corrections stop shrinking fast
    # enough: the error names the first such point in the caller's order.
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
