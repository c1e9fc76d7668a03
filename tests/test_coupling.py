import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xispec.coupling import (
    CLAIMED_NORM_COEFF,
    STANDARD_NORM_COEFF,
    audit_eq5,
    coupling_spectrum,
    lambda_from_s,
    norm_integral_paper,
    norm_integral_quadrature,
    nu_from_lambda,
    s_from_lambda,
)
from xispec.errors import DivergenceError, PoleError
from xispec.report import Verdict
from xispec.specfun import BesselOrder, OrderKind


def test_map_values():
    assert lambda_from_s(2.0) == 2.0
    assert lambda_from_s(0.5) == -0.25


def test_map_on_first_zero():
    gamma1 = 14.134725141734693
    lam = lambda_from_s(complex(0.5, gamma1))
    assert lam.imag == 0.0
    assert lam.real == -(gamma1 * gamma1 + 0.25)
    assert lam.real == pytest.approx(-200.0404548, abs=1e-6)


def test_inverse_map_values():
    lo, hi = s_from_lambda(0.0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = s_from_lambda(-0.25)
    assert lo == hi == 0.5


@given(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
)
@settings(max_examples=1000, deadline=None)
def test_roundtrip_property(lam):
    for root in s_from_lambda(lam):
        residual = abs(root * (root - 1.0) - lam)
        assert residual <= 1e-12 * max(1.0, abs(lam))


@given(
    st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False)
)
@settings(max_examples=300, deadline=None)
def test_map_reflection_symmetry(s):
    # 1 - s is itself rounded, so equality holds to float precision in
    # general and bitwise on inputs where the subtraction is exact.
    lam = lambda_from_s(s)
    mirrored = lambda_from_s(1.0 - s)
    assert abs(mirrored - lam) <= 1e-13 * (1.0 + abs(s)) ** 2


@given(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_map_reflection_exact_on_critical_line(gamma):
    # s = 1/2 + i gamma reflects to its conjugate exactly representably,
    # and there the identity is bitwise.
    s = complex(0.5, gamma)
    assert lambda_from_s(s) == lambda_from_s(1.0 - s)


def test_order_branches():
    order = nu_from_lambda(0.0)
    assert order.kind is OrderKind.REAL and order.magnitude == 0.5
    order = nu_from_lambda(-0.25)
    assert order.kind is OrderKind.REAL and order.magnitude == 0.0
    order = nu_from_lambda(-200.0404548)
    assert order.kind is OrderKind.IMAGINARY
    assert order.magnitude == pytest.approx(14.134725, abs=1e-6)


def test_order_pole_flag():
    assert nu_from_lambda(0.75).is_closed_form_pole       # nu = 1
    assert nu_from_lambda(3.75).is_closed_form_pole       # nu = 2
    assert not nu_from_lambda(0.5).is_closed_form_pole


def test_quadrature_elementary_order():
    result = norm_integral_quadrature(BesselOrder.real_order(0.5), tol=1e-10)
    assert result.value == pytest.approx(math.pi / 4.0, rel=1e-10)
    assert result.err_estimate <= 1e-9 * result.value


def test_quadrature_imaginary_order():
    # (1/2) pi mu / sinh(pi mu) at mu = 1, frozen from the oracle
    result = norm_integral_quadrature(BesselOrder.imaginary_order(1.0), tol=1e-10)
    assert result.value == pytest.approx(0.13601452749106658, rel=1e-9)


def test_quadrature_divergence_at_excluded_orders():
    for nu in (1.0, 1.5):
        with pytest.raises(DivergenceError):
            norm_integral_quadrature(BesselOrder.real_order(nu))


def test_closed_form_values():
    assert norm_integral_paper(BesselOrder.real_order(0.5)) == pytest.approx(
        math.pi / 16.0, rel=1e-14
    )
    assert norm_integral_paper(BesselOrder.imaginary_order(1.0)) == pytest.approx(
        math.pi / (8.0 * math.sinh(math.pi)), rel=1e-14
    )
    assert norm_integral_paper(BesselOrder.real_order(0.0)) == CLAIMED_NORM_COEFF


def test_closed_form_pole():
    with pytest.raises(PoleError):
        norm_integral_paper(BesselOrder.real_order(1.0))


def test_ratio_audit_batch():
    orders = [BesselOrder.real_order(k / 10.0) for k in range(1, 10)]
    orders += [BesselOrder.imaginary_order(m) for m in (0.5, 1.0, 2.0)]
    audits, _ = audit_eq5(orders)
    assert all(a.ok for a in audits)
    ratios = [a.ratio for a in audits]
    mean = sum(ratios) / len(ratios)
    assert max(abs(r - mean) for r in ratios) / mean < 1e-6
    # the measured constant is the standard/claimed coefficient quotient
    assert mean == pytest.approx(STANDARD_NORM_COEFF / CLAIMED_NORM_COEFF, rel=1e-9)
    assert all(a.verdict is Verdict.CONSISTENT_UP_TO_CONSTANT for a in audits)


def test_ratio_audit_single_elementary_order():
    audits, _ = audit_eq5([BesselOrder.real_order(0.5)])
    assert audits[0].ratio == pytest.approx(4.0, rel=1e-9)


def test_ratio_audit_isolates_failures():
    orders = [BesselOrder.real_order(0.5), BesselOrder.real_order(1.5)]
    audits, _ = audit_eq5(orders)
    assert audits[0].ok and audits[0].verdict is Verdict.CONSISTENT_UP_TO_CONSTANT
    assert not audits[1].ok
    assert "DivergenceError" in audits[1].error
    assert audits[1].verdict is Verdict.NOT_APPLICABLE


def test_summary_reports_both_hypotheses():
    _, summary = audit_eq5([BesselOrder.real_order(0.5), BesselOrder.imaginary_order(1.0)])
    assert summary.params["claimed_coefficient"] == 0.125
    assert summary.params["standard_coefficient"] == 0.5
    assert summary.params["implied_coefficient"] == pytest.approx(0.5, rel=1e-9)
    assert summary.verdict is Verdict.CONSISTENT_UP_TO_CONSTANT


def test_summary_of_all_failed_batch_still_serializes():
    _, summary = audit_eq5([BesselOrder.real_order(1.5)])
    assert summary.verdict is Verdict.INCONCLUSIVE
    assert summary.params["implied_coefficient"] is None
    summary.to_json()  # must stay strict JSON


def test_spectrum_from_zeros(zeros_to_100):
    zeros = zeros_to_100[:10]
    records = coupling_spectrum(zeros, check_finiteness=True)
    assert len(records) == 10
    for record, zero in zip(records, zeros):
        lam = record.lam
        assert lam.imag == 0.0
        assert lam.real < -0.25
        expected = -(zero.gamma * zero.gamma + 0.25)
        assert abs(lam.real - expected) <= 1e-12 * abs(expected)
        assert record.nu.kind is OrderKind.IMAGINARY
        assert record.nu.magnitude == pytest.approx(zero.gamma, rel=1e-12)
        assert record.nu_complex == complex(0.0, record.nu.magnitude)
        assert record.norm_converged
        assert record.norm_integral.value > 0.0
        assert record.source_zero_index == zero.index


def test_spectrum_finiteness_matches_oracle_scale(zeros_to_100):
    # For a modest order the converged value also matches the closed form.
    gamma1 = zeros_to_100[0].gamma
    record = coupling_spectrum(zeros_to_100[:1])[0]
    closed = float(0.5 * mp.pi * gamma1 / mp.sinh(mp.pi * gamma1))
    assert record.norm_integral.value == pytest.approx(closed, rel=1e-6)


def test_empty_spectrum():
    assert coupling_spectrum([]) == []
