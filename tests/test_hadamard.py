import json
import math
import random
import struct
import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import KNOWN_ZEROS_10
from xispec import cli
from xispec.errors import DomainError
from xispec.hadamard import (
    ZERO_SUM,
    ProductSpec,
    _poly_products,
    audit_coincidence,
    fitted_misfit,
    paired_product,
    tail_sum,
    zero_sum_residual,
)
from xispec.report import Verdict
from xispec.specfun import xi

TEN_ZERO_SPEC = ProductSpec(zero_ordinates=KNOWN_ZEROS_10)
EMPTY_SPEC = ProductSpec(zero_ordinates=())


def test_spec_validation():
    with pytest.raises(DomainError):
        ProductSpec(zero_ordinates=(-1.0, 2.0))
    with pytest.raises(DomainError):
        ProductSpec(zero_ordinates=(2.0, 2.0))
    with pytest.raises(DomainError):
        TEN_ZERO_SPEC.truncated(11)


@pytest.mark.parametrize(
    "ordinates",
    [
        (float("nan"),), (float("nan"), 2.0), (1.0, float("nan")), (0.0, 2.0),
        (-1.0, 2.0), (2.0, 1.0), (1.0, 3.0, 3.0),
    ],
    ids=["nan-alone", "nan-first", "nan-later", "zero", "negative", "decreasing", "repeated"],
)
def test_spec_validation_on_the_array(ordinates):
    with pytest.raises(DomainError):
        ProductSpec(zero_ordinates=ordinates)


def test_truncated_is_read_only():
    assert EMPTY_SPEC.truncated(0).size == 0
    g = TEN_ZERO_SPEC.truncated(4)
    assert g.tolist() == list(KNOWN_ZEROS_10[:4])
    with pytest.raises(ValueError):
        g[0] = 1.0
    with pytest.raises(ValueError):
        TEN_ZERO_SPEC.truncated(10)[:] = 0.0
    assert TEN_ZERO_SPEC.truncated(10).tolist() == list(KNOWN_ZEROS_10)


def _product_by_fresh_arrays(s, ordinates, n):
    """The product at one s from arrays built for this call alone (reference)."""
    s = complex(s)
    g = np.asarray(ordinates[:n], dtype=np.float64)
    lam = -(0.25 + g * g)
    u = s * (s - 1.0)
    poly = complex(np.prod((lam - u.real) / lam + 1j * ((-u.imag) / lam)))
    return complex(0.5 * poly.real, 0.5 * poly.imag)


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)   # tells -0.0 from 0.0


def test_batched_product_matches_fresh_arrays(zeros_for_products, xi_samples):
    # One spec reused for every truncation and sample must give, bit for bit,
    # what arrays built afresh per call give.
    ordinates = tuple(z.gamma for z in zeros_for_products)
    spec = ProductSpec(ordinates)
    xs, targets = xi_samples
    for n in (1, 50, 800):
        extra = [complex(0.5, 21.0), 3.0 - 2.0j, complex(0.5, ordinates[0])]
        for s in [complex(x, 0.0) for x in xs] + extra:
            assert _bits(paired_product(s, spec, n)) == _bits(
                _product_by_fresh_arrays(s, ordinates, n)
            )
        tau = tail_sum(spec, n)[1]
        models = [
            _product_by_fresh_arrays(x, ordinates, n).real * math.exp(x * (x - 1.0) * tau)
            for x in xs
        ]
        misfit, _ = fitted_misfit(xs, targets, spec, n)
        assert misfit == max(abs(m / t - 1.0) for m, t in zip(models, targets))


def test_spec_keeps_no_arrays_per_truncation(zeros_for_products, xi_samples):
    # Queried at many truncations, a spec holds only its field and the one
    # ordinate array: nothing grows with the number of n asked for.
    spec = ProductSpec(tuple(z.gamma for z in zeros_for_products))
    xs, targets = xi_samples
    for n in range(1, 801, 7):
        paired_product(2.0, spec, n)
        fitted_misfit(xs, targets, spec, n)
    assert set(vars(spec)) == {"zero_ordinates", "_ordinates"}


def test_coincidence_matches_one_point_products(zeros_for_products):
    # The audit takes its probes as one batched product; each magnitude and
    # the threshold must be what one-point paired_product calls give.
    spec = ProductSpec(tuple(z.gamma for z in zeros_for_products))
    g = spec.zero_ordinates
    probes = [g[0], g[3] + 0.01, 100.0, g[120] + 0.2, g[10] - 1e-9, 5.0, g[200], 17.5, g[50], g[51]]
    report = audit_coincidence(spec, probes, 800)
    assert report.measured == [abs(paired_product(complex(0.5, p), spec, 800)) for p in probes]
    nearest = [min(g, key=lambda v: abs(v - p)) for p in probes]
    assert report.tolerance == max(
        abs(paired_product(complex(0.5, v + 1e-4), spec, 800)) for v in nearest
    )


def test_origin_normalization_exact(zeros_for_products):
    # xi(0) = 1/2, exactly, at every truncation.
    spec = ProductSpec(tuple(z.gamma for z in zeros_for_products))
    for n in (0, 1, 10, 800):
        assert paired_product(0.0, spec, n) == 0.5
    assert paired_product(0.0, EMPTY_SPEC, 0) == 0.5


def test_real_axis_gives_real_values():
    value = paired_product(1.7, TEN_ZERO_SPEC, 10)
    assert value.imag == 0.0


def test_exact_zero_annihilation(zeros_for_products):
    for gamma in KNOWN_ZEROS_10[:5]:
        value = paired_product(complex(0.5, gamma), TEN_ZERO_SPEC, 10)
        assert abs(value) == 0.0
    spec = ProductSpec(tuple(z.gamma for z in zeros_for_products))
    for gamma in spec.truncated(800)[::37]:
        assert paired_product(complex(0.5, gamma), spec, 800) == 0.0


def test_bare_product_symmetry():
    # The product depends on s only through s(s-1), so it is symmetric
    # under s -> 1 - s.
    rng = random.Random(3)
    for _ in range(50):
        s = complex(rng.uniform(-5.0, 6.0), rng.uniform(-20.0, 20.0))
        a = paired_product(s, TEN_ZERO_SPEC, 10)
        b = paired_product(1.0 - s, TEN_ZERO_SPEC, 10)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)


@pytest.fixture(scope="module")
def xi_samples():
    xs = np.linspace(-1.0, 2.0, 21)
    return xs, np.array([xi(complex(x, 0.0)).real for x in xs])


def _mp_xi(x):
    s = mp.mpf(x)
    if s in (0, 1):
        return mp.mpf(0.5)
    return s * (s - 1) / 2 * mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)


def test_xi_on_the_samples_is_within_the_rounding_allowance(xi_samples):
    # fitted_misfit's bound allows 64 units in the last place for xi,
    # e^{u tau} and the quotient together; xi alone takes at most half.
    xs, targets = xi_samples
    with mp.workdps(30):
        worst = max(abs(t / float(_mp_xi(float(x))) - 1.0) for x, t in zip(xs, targets))
    assert worst <= 32 * 2.0**-52


def test_fit_to_xi_with_many_zeros(zeros_for_products, xi_samples):
    # fitted_misfit keeps its name but fits nothing: with 800 zeros the
    # closed form is within its bound of xi, and its constant is xi(0) = 1/2
    # exactly, where the fitted e^B came within 2e-2 of it.
    xs, targets = xi_samples
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    misfit, bound = fitted_misfit(xs, targets, spec, 800)
    assert misfit <= bound < 2e-5
    assert paired_product(0.0, spec, 800) == 0.5


def test_truncation_monotonicity(zeros_for_products, xi_samples):
    # The bound shrinks as the truncation grows and every misfit is within
    # it; the misfits themselves need not shrink.
    xs, targets = xi_samples
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    curve = [fitted_misfit(xs, targets, spec, n) for n in (50, 100, 200, 400, 800)]
    bounds = [b for _, b in curve]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    assert all(m <= b for m, b in curve)
    assert curve[-1][0] < 1e-7


def test_product_approximates_xi_at_two(zeros_for_products):
    # xi(2) = pi/6; u = 2 there, and the tail factor e^{2 tau} completes the
    # product to within the bound on tau.
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    height, tau, err = tail_sum(spec, 800)
    value = paired_product(2.0, spec, 800).real * math.exp(2.0 * tau)
    bound = math.expm1(2.0 * err + 4.0 * (tau + err) / height**2) + 1e-12
    assert abs(value / (math.pi / 6.0) - 1.0) <= bound


def test_zero_sum_matches_the_closed_form_constant(zeros_for_products):
    # sum_n 1/(1/4 + gamma_n^2) = 1 + gamma_E/2 - 1/2 log 4 pi, the sum of
    # Re 1/rho over the zeros.
    exact = 1 + mp.euler / 2 - mp.log(4 * mp.pi) / 2
    assert abs(ZERO_SUM - float(exact)) <= 4e-17
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    residual = zero_sum_residual(spec, 800)
    _, _, err = tail_sum(spec, 800)
    assert abs(residual) <= err
    assert abs(residual) < 1e-7


def test_tail_height_is_in_the_gap():
    g = KNOWN_ZEROS_10
    assert tail_sum(TEN_ZERO_SPEC, 4)[0] == 0.5 * (g[3] + g[4])
    assert tail_sum(TEN_ZERO_SPEC, 10)[0] == g[9]
    with pytest.raises(DomainError):
        tail_sum(TEN_ZERO_SPEC, 0)


@pytest.mark.parametrize("deleted, verdict, code", [
    (None, "PASS", 0), (1, "FAIL", 1), (10, "FAIL", 1),
])
def test_audit_fails_with_a_zero_missing(
    zeros_for_products, monkeypatch, tmp_path, deleted, verdict, code
):
    # The same scan with zero 1 or zero 10 left out: every factor after it
    # is off by one, and the misfit leaves its bound.
    zeros = [z for z in zeros_for_products if z.index != deleted]
    monkeypatch.setattr(cli, "scan_zeros", lambda t_max, tol: zeros)
    out = tmp_path / "reports"
    argv = ["audit", "hadamard", "--n-zeros", "800", "--out", str(out)]
    assert cli.main(argv) == code
    report = json.loads((out / "audit_hadamard.json").read_text())
    assert report["verdict"] == verdict
    assert report["params"]["truncations"] == [50, 100, 200, 400, 800]
    ok = [m <= b for m, b in zip(report["measured"], report["reference"])]
    assert all(ok) if deleted is None else not all(ok)


def test_coincidence_own_ordinates(zeros_for_products):
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    probes = list(spec.zero_ordinates[:5])
    report = audit_coincidence(spec, probes, 800)
    assert report.verdict is Verdict.COINCIDE
    assert report.measured == [0.0] * 5


def test_coincidence_perturbed_probe(zeros_for_products):
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    probes = [spec.zero_ordinates[0] + 0.01]
    report = audit_coincidence(spec, probes, 800)
    assert report.verdict is Verdict.DISTINCT
    threshold = report.tolerance
    assert report.measured[0] > 10.0 * threshold


@pytest.mark.parametrize("perturb", [1e5, 1e300])
def test_coincidence_far_probe_is_distinct(zeros_for_products, perturb):
    # Far from every ordinate the 800-factor product passes double range:
    # it counts as magnitude inf (np.prod alone gave NaN, and |s|^2 at
    # 1e300 raised OverflowError), with no warning, and the report still
    # writes as strict JSON.
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    probes = list(spec.zero_ordinates[:5])
    probes[0] += perturb
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = audit_coincidence(spec, probes, 800)
        payload = json.loads(report.to_json())
    assert report.verdict is Verdict.DISTINCT
    assert report.measured == [math.inf, 0.0, 0.0, 0.0, 0.0]
    assert payload["ratio_or_residual"] == "inf"
    assert (payload["params"]["tail_bound"] == "inf") == (perturb == 1e300)


def test_overflowing_product_keeps_its_size():
    # 200 factors of -100 (1e400) and of about -1e296: past double range,
    # the products come back infinite, not NaN; a product in range (200
    # factors of 2) is the plain product.
    lam = -np.full(200, 1e4)
    u = np.array([1e4, -1e6 - 1e4, 1e300 + 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        products = _poly_products(u, lam)
    assert products[0] == 2.0**200
    assert [abs(p) for p in products[1:]] == [math.inf, math.inf]


def test_coincidence_vacuous():
    report = audit_coincidence(TEN_ZERO_SPEC, [], 10)
    assert report.verdict is Verdict.COINCIDE


def test_tail_bound_decreases_with_truncation(zeros_for_products):
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    reports = [audit_coincidence(spec, [14.1], n) for n in (50, 200, 800)]
    bounds = [r.params["tail_bound"] for r in reports]
    assert all(b > 0.0 for b in bounds)
    assert bounds[0] > bounds[1] > bounds[2]
    # |u| (tau + err) at s = 1/2 + 14.1 i, with |u| = 1/4 + 14.1^2.
    _, tau, err = tail_sum(spec, 800)
    assert bounds[2] == pytest.approx((0.25 + 14.1**2) * (tau + err), rel=1e-15)
