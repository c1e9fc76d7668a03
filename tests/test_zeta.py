import math
import random

import pytest

from conftest import mp_zeta, rel_err
from xispec.errors import PoleError
from xispec.specfun import zeta


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
