import cmath
import json
import math
import random
import struct
import warnings

import numpy as np
import pytest

from conftest import KNOWN_ZEROS_10
from xispec.errors import DomainError, SingularFitError
from xispec.hadamard import (
    ProductSpec,
    _poly_products,
    audit_coincidence,
    correction_sum,
    fit_prefactor,
    fitted_misfit,
    linear_fit,
    paired_product,
    paired_product_bare,
    tail_bound,
)
from xispec.report import Verdict
from xispec.specfun import xi

TEN_ZERO_SPEC = ProductSpec(zero_ordinates=KNOWN_ZEROS_10, prefactor=(math.log(0.5), 0.0))
EMPTY_SPEC = ProductSpec(zero_ordinates=(), prefactor=(0.0, 0.0))


def test_spec_validation():
    with pytest.raises(DomainError):
        ProductSpec(zero_ordinates=(-1.0, 2.0))
    with pytest.raises(DomainError):
        ProductSpec(zero_ordinates=(2.0, 2.0))
    with pytest.raises(DomainError):
        ProductSpec(zero_ordinates=(1.0,), multiplicity=-1)
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


def _product_by_fresh_arrays(s, ordinates, n, prefactor=(0.0, 0.0), multiplicity=0, bare=False):
    """The product at one s from arrays built for this call alone (reference)."""
    s = complex(s)
    g = np.asarray(ordinates[:n], dtype=np.float64)
    denom = 0.25 + g * g
    lam, c = -denom, 1.0 / denom
    u = s * (s - 1.0)
    poly = complex(np.prod((lam - u.real) / lam + 1j * ((-u.imag) / lam)))
    if bare:
        if multiplicity > 0:
            poly *= s ** multiplicity
        return cmath.exp(float(np.sum(c)) * s) * poly
    b, d = prefactor
    value = cmath.exp(complex(b) + (d + float(np.sum(c))) * s) * poly
    if multiplicity > 0:
        value *= s ** multiplicity
    return value


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)   # tells -0.0 from 0.0


@pytest.mark.parametrize("multiplicity", [0, 2])
def test_batched_product_matches_fresh_arrays(zeros_for_products, xi_samples, multiplicity):
    # One spec reused for every truncation and sample must give, bit for bit,
    # what arrays built afresh per call give.
    ordinates = tuple(z.gamma for z in zeros_for_products)
    spec = ProductSpec(ordinates, multiplicity=multiplicity, prefactor=(-0.7, 0.1))
    xs, targets = xi_samples
    for n in (1, 50, 800):
        extra = [complex(0.5, 21.0), 3.0 - 2.0j, complex(0.5, ordinates[0])]
        for s in [complex(x, 0.0) for x in xs] + extra:
            assert _bits(paired_product(s, spec, n)) == _bits(
                _product_by_fresh_arrays(s, ordinates, n, spec.prefactor, multiplicity)
            )
            assert _bits(paired_product_bare(s, spec, n)) == _bits(
                _product_by_fresh_arrays(s, ordinates, n, multiplicity=multiplicity, bare=True)
            )
        if multiplicity:
            continue
        bare = [_product_by_fresh_arrays(x, ordinates, n, bare=True).real for x in xs]
        d, b, residual = linear_fit(xs, np.log(targets) - np.log(bare))
        fit, worst = fitted_misfit(xs, targets, spec, n)
        assert fit == fit_prefactor(xs, targets, spec, n)
        assert (fit.B, fit.D, fit.max_residual) == (b, d, residual)
        models = [_product_by_fresh_arrays(x, ordinates, n, (b, d)).real for x in xs]
        assert worst == max(abs(m / t - 1.0) for m, t in zip(models, targets))


def test_spec_keeps_no_arrays_per_truncation(zeros_for_products, xi_samples):
    # Queried at many truncations, a spec holds only its fields and the one
    # ordinate array: nothing grows with the number of n asked for.
    spec = ProductSpec(tuple(z.gamma for z in zeros_for_products))
    xs, targets = xi_samples
    for n in range(1, 801, 7):
        paired_product(2.0, spec, n)
        correction_sum(spec, n)
        fitted_misfit(xs, targets, spec, n)
    assert set(vars(spec)) == {"zero_ordinates", "multiplicity", "prefactor", "_ordinates"}


def test_coincidence_matches_one_point_products(zeros_for_products):
    # The audit takes its probes as one batched product; each magnitude and
    # the threshold must be what one-point paired_product calls give.
    spec = ProductSpec(tuple(z.gamma for z in zeros_for_products), prefactor=(-0.7, 0.1))
    g = spec.zero_ordinates
    probes = [g[0], g[3] + 0.01, 100.0, g[120] + 0.2, g[10] - 1e-9, 5.0, g[200], 17.5, g[50], g[51]]
    report = audit_coincidence(spec, probes, 800)
    assert report.measured == [abs(paired_product(complex(0.5, p), spec, 800)) for p in probes]
    nearest = [min(g, key=lambda v: abs(v - p)) for p in probes]
    assert report.tolerance == max(
        abs(paired_product(complex(0.5, v + 1e-4), spec, 800)) for v in nearest
    )


def test_origin_normalization_exact():
    value = paired_product(0.0, TEN_ZERO_SPEC, 10)
    assert value == math.exp(TEN_ZERO_SPEC.prefactor[0])


def test_real_axis_gives_real_values():
    value = paired_product(1.7, TEN_ZERO_SPEC, 10)
    assert value.imag == 0.0


def test_exact_zero_annihilation():
    for gamma in KNOWN_ZEROS_10[:5]:
        value = paired_product(complex(0.5, gamma), TEN_ZERO_SPEC, 10)
        assert abs(value) == 0.0


def test_bare_product_symmetry():
    rng = random.Random(3)
    for _ in range(50):
        s = complex(rng.uniform(-5.0, 6.0), rng.uniform(-20.0, 20.0))
        a = paired_product_bare(s, TEN_ZERO_SPEC, 10, exp_corrections=False)
        b = paired_product_bare(1.0 - s, TEN_ZERO_SPEC, 10, exp_corrections=False)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)


def test_full_product_symmetry_with_corrected_slope():
    s = complex(0.3, 2.2)
    d_eff = TEN_ZERO_SPEC.prefactor[1] + correction_sum(TEN_ZERO_SPEC, 10)
    lhs = paired_product(s, TEN_ZERO_SPEC, 10)
    rhs = paired_product(1.0 - s, TEN_ZERO_SPEC, 10) * cmath.exp(d_eff * (2.0 * s - 1.0))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_fit_exact_log_linear():
    xs = np.linspace(-1.0, 2.0, 21)
    fit = fit_prefactor(xs, np.exp(1.0 + 2.0 * xs), EMPTY_SPEC, 0)
    assert fit.B == pytest.approx(1.0, abs=1e-12)
    assert fit.D == pytest.approx(2.0, abs=1e-12)
    assert fit.max_residual < 1e-12


def test_fit_constant_target():
    xs = np.linspace(-1.0, 2.0, 21)
    fit = fit_prefactor(xs, np.full(21, 0.5), EMPTY_SPEC, 0)
    assert fit.B == pytest.approx(math.log(0.5), abs=1e-14)
    assert fit.D == pytest.approx(0.0, abs=1e-14)


def test_fit_input_validation():
    xs = np.linspace(-1.0, 2.0, 21)
    with pytest.raises(SingularFitError):
        fit_prefactor(np.array([1.0]), np.array([2.0]), EMPTY_SPEC, 0)
    with pytest.raises(SingularFitError):
        fit_prefactor(np.full(4, 1.0), np.full(4, 2.0), EMPTY_SPEC, 0)
    with pytest.raises(DomainError):
        fit_prefactor(xs, np.zeros(21), EMPTY_SPEC, 0)


@pytest.fixture(scope="module")
def xi_samples():
    xs = np.linspace(-1.0, 2.0, 21)
    return xs, np.array([xi(complex(x, 0.0)).real for x in xs])


def test_fit_to_xi_with_many_zeros(zeros_for_products, xi_samples):
    xs, targets = xi_samples
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    fit, misfit = fitted_misfit(xs, targets, spec, 800)
    assert fit.max_residual < 2e-2
    assert misfit < 2e-2
    # the origin pins e^B near xi(0) = 1/2
    assert math.exp(fit.B) == pytest.approx(0.5, rel=2e-2)


def test_truncation_monotonicity(zeros_for_products, xi_samples):
    xs, targets = xi_samples
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    misfits = [fitted_misfit(xs, targets, spec, n)[1] for n in (50, 100, 200, 400, 800)]
    assert all(b <= a + 1e-12 for a, b in zip(misfits, misfits[1:]))
    assert misfits[-1] < 2e-2


def test_product_approximates_xi_at_two(zeros_for_products, xi_samples):
    xs, targets = xi_samples
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    fit = fit_prefactor(xs, targets, spec, 800)
    fitted = ProductSpec(
        zero_ordinates=spec.zero_ordinates, prefactor=(fit.B, fit.D)
    )
    value = paired_product(2.0, fitted, 800).real
    assert abs(value / (math.pi / 6.0) - 1.0) < 2e-2


def test_linear_fit():
    xs = np.linspace(0.0, 7.0, 12)
    slope, intercept, residual = linear_fit(xs, math.pi * xs - 0.25)
    assert slope == pytest.approx(math.pi, abs=1e-12)
    assert intercept == pytest.approx(-0.25, abs=1e-12)
    assert residual < 1e-12
    with pytest.raises(SingularFitError):
        linear_fit(np.array([0.0]), np.array([1.0]))
    with pytest.raises(SingularFitError):
        linear_fit(np.full(4, 3.0), np.arange(4.0))


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
    s = complex(0.5, 14.1)
    bounds = [tail_bound(spec, n, s) for n in (50, 200, 800)]
    assert all(b > 0.0 for b in bounds)
    assert bounds[0] > bounds[1] > bounds[2]


def test_multiplicity_factor_structurally_present():
    spec = ProductSpec(zero_ordinates=KNOWN_ZEROS_10, multiplicity=2)
    assert paired_product(0.0, spec, 10) == 0.0
    value = paired_product(2.0, spec, 10)
    plain = paired_product(2.0, TEN_ZERO_SPEC, 10) / 0.5  # strip e^B
    assert value == pytest.approx((4.0 * plain).real, rel=1e-12)
