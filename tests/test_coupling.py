import math
import random

import mpmath as mp
import numpy as np
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
import xispec.coupling as coupling
from conftest import KNOWN_ZEROS_10, march_one
from xispec.errors import DivergenceError, NonConvergenceError, PoleError
from xispec.report import Verdict
from xispec.specfun import BesselOrder, OrderKind, QuadratureResult
from xispec.zeros import CriticalZero


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
    # Zero 1 meets tol = 1e-9; from zero 3 on the integrand sits in K's
    # cancellation noise (relative estimates 8e-5 and up).  Zero 2 is left
    # out: at its exact ordinate it converges (test_quadrature_node_counts),
    # at a scanned one it may run out of levels.
    assert records[0].norm_converged
    assert not any(r.norm_converged for r in records[2:])
    for record, zero in zip(records, zeros):
        lam = record.lam
        assert lam.imag == 0.0
        assert lam.real < -0.25
        expected = -(zero.gamma * zero.gamma + 0.25)
        assert abs(lam.real - expected) <= 1e-12 * abs(expected)
        assert record.nu.kind is OrderKind.IMAGINARY
        assert record.nu.magnitude == pytest.approx(zero.gamma, rel=1e-12)
        assert record.tol == 1e-9
        assert record.norm_integral.value > 0.0
        if record.norm_converged:
            mu = record.nu.magnitude
            closed = float(0.5 * mp.pi * mu / mp.sinh(mp.pi * mu))
            assert record.norm_integral.value == pytest.approx(closed, rel=1e-6)
        assert record.source_zero_index == zero.index


def test_spectrum_finiteness_matches_oracle_scale(zeros_to_100):
    # For a modest order the converged value also matches the closed form.
    gamma1 = zeros_to_100[0].gamma
    record = coupling_spectrum(zeros_to_100[:1])[0]
    closed = float(0.5 * mp.pi * gamma1 / mp.sinh(mp.pi * gamma1))
    assert record.norm_integral.value == pytest.approx(closed, rel=1e-6)


def test_empty_spectrum():
    assert coupling_spectrum([]) == []


@pytest.mark.parametrize(
    "mu,evaluations",
    [(KNOWN_ZEROS_10[0], 688), (KNOWN_ZEROS_10[1], 2685), (1.0, 97)],
)
def test_quadrature_node_counts(mu, evaluations):
    # Nodes the march consumes: the block march must take exactly the nodes
    # a march asking for one node at a time takes.  Zero 2 needs all ten
    # levels.
    result = norm_integral_quadrature(BesselOrder.imaginary_order(mu), tol=1e-9)
    assert result.evaluations == evaluations
    assert result.err_estimate <= 1e-9 * abs(result.value)


@pytest.mark.parametrize("mu", [KNOWN_ZEROS_10[0], KNOWN_ZEROS_10[1], 1.0])
def test_norm_integrand_calls_k_per_block(monkeypatch, mu):
    # At most one array K call per round of the quadrature march (none
    # when a round's nodes all lie past the cutoff), and one more for the
    # noise-feasible probes when the fallback runs: a return to one call
    # per node would make hundreds.
    k_calls, rounds = [], []
    bessel_k_values = coupling.bessel_k_values
    batch = coupling.integrate_semiinfinite_batch

    def counted_k(*args):
        k_calls.append(len(args[1]))
        return bessel_k_values(*args)

    def counted_batch(f, *args):
        return batch(lambda x, which: rounds.append(len(x)) or f(x, which), *args)

    monkeypatch.setattr(coupling, "bessel_k_values", counted_k)
    monkeypatch.setattr(coupling, "integrate_semiinfinite_batch", counted_batch)
    norm_integral_quadrature(BesselOrder.imaginary_order(mu), tol=1e-9)
    assert rounds
    assert len(k_calls) <= len(rounds) + 1


def _norm_integral_alone(order, tol):
    """One order's norm integral, as before the lockstep (reference).

    The node-by-node march of that order's integrand alone, one-order K
    calls, and the noise-feasible fallback.
    """
    if order.kind is OrderKind.IMAGINARY:
        cutoff = 0.5 * math.pi * order.magnitude + 80.0
    else:
        cutoff = 400.0

    def f(r):
        out = np.zeros(len(r))
        inside = r <= cutoff
        if inside.any():
            value, _ = coupling.bessel_k_values(order, r[inside])
            out[inside] = r[inside] * value * value
        return out

    try:
        return march_one(f, tol)
    except NonConvergenceError:
        probes = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0])
        _, rel = coupling.bessel_k_values(
            order, probes[probes <= max(10.0, 3.0 * order.magnitude)])
        feasible = max(3.0 * float(rel.max()), tol)
        if feasible <= tol:
            raise
        result = march_one(f, min(feasible, 0.5))
        return QuadratureResult(
            result.value, max(result.err_estimate, feasible * abs(result.value)),
            result.evaluations)


def _bits(result):
    return (result.value, result.err_estimate, result.evaluations)


def _seed_5_ordinates():
    """Zeta zeros 1 and 2 and the 28 points perfbench's coupling-orders
    workload draws at seed 5, one per stratum of [0.5, 20.5]."""
    rng = random.Random("coupling-orders:5")
    width = 20.0 / 28
    return [14.134725141734695, 21.022039638771556] + [
        rng.uniform(0.5 + k * width, 0.5 + (k + 1) * width) for k in range(28)]


def _critical(ordinates):
    return [CriticalZero(n, g, (g - 1e-12 * g, g + 1e-12 * g), 1e-12 * g)
            for n, g in enumerate(ordinates, start=1)]


def test_spectrum_matches_each_order_alone():
    # Shuffled orders that converge at different levels (mu = 1 early,
    # zeta zero 2 at its last level) and zeta zero 3, which takes the
    # noise-feasible fallback: in one lockstep batch each record has the
    # bits of its order's march alone.
    ordinates = _seed_5_ordinates()[::3] + [1.0, KNOWN_ZEROS_10[1], KNOWN_ZEROS_10[2]]
    ordinates = [ordinates[i] for i in np.random.default_rng(5).permutation(len(ordinates))]
    records = coupling_spectrum(_critical(ordinates), check_finiteness=True, tol=1e-9)
    for g, record in zip(ordinates, records):
        alone = _norm_integral_alone(BesselOrder.imaginary_order(g), 1e-9)
        assert _bits(record.norm_integral) == _bits(alone), g
    fallback = records[ordinates.index(KNOWN_ZEROS_10[2])]
    assert not fallback.norm_converged
    assert fallback.norm_integral.err_estimate > 1e-6 * fallback.norm_integral.value


def test_eq5_batch_matches_each_order_alone():
    # A divergent real order (nu >= 1) inside the batch is its own
    # failure; every other entry keeps the bits of its order alone.
    orders = [BesselOrder.real_order(0.5), BesselOrder.real_order(1.5),
              BesselOrder.imaginary_order(1.0), BesselOrder.real_order(0.9),
              BesselOrder.imaginary_order(KNOWN_ZEROS_10[2]), BesselOrder.real_order(1.0)]
    audits, _ = audit_eq5(orders)
    for order, audit in zip(orders, audits):
        try:
            alone = _norm_integral_alone(order, 1e-9)
        except DivergenceError as exc:
            assert audit.error == f"DivergenceError: {exc}"
            assert audit.quadrature_value is None
        else:
            assert (audit.quadrature_value, audit.quadrature_err) == _bits(alone)[:2]
    assert [a.ok for a in audits] == [True, False, True, True, False, False]


def _count_k_calls(monkeypatch):
    calls = []
    bessel_k_values = coupling.bessel_k_values

    def counted(*args):
        calls.append(len(args[1]))
        return bessel_k_values(*args)

    monkeypatch.setattr(coupling, "bessel_k_values", counted)
    return calls


def test_spectrum_makes_one_k_call_per_round(monkeypatch):
    # 30 orders that each make 4-12 K calls alone, 220 in all: one call per
    # lockstep round instead.
    calls = _count_k_calls(monkeypatch)
    records = coupling_spectrum(_critical(_seed_5_ordinates()), check_finiteness=True)
    assert all(r.norm_converged for r in records)
    assert len(calls) <= 15


def test_eq5_makes_one_k_call_per_round(monkeypatch):
    # Both kinds of order share each round's K call (65 calls one order at
    # a time).
    from xispec.cli import EQ5_ORDERS

    calls = _count_k_calls(monkeypatch)
    audits, _ = audit_eq5(list(EQ5_ORDERS))
    assert all(a.ok for a in audits)
    assert len(calls) <= 20


def test_norm_converged_needs_the_tolerance():
    order = BesselOrder.imaginary_order(1.0)
    result = QuadratureResult(value=2.0, err_estimate=1e-6, evaluations=9)
    record = coupling.CouplingRecord(
        s=0.5 + 1j, lam=-1.25, nu=order, norm_integral=result, tol=1e-9
    )
    assert not record.norm_converged
    assert coupling.CouplingRecord(
        s=0.5 + 1j, lam=-1.25, nu=order, norm_integral=result, tol=1e-6
    ).norm_converged
    assert not coupling.CouplingRecord(s=0.5 + 1j, lam=-1.25, nu=order).norm_converged


def test_eq5_order_missing_its_tolerance_is_not_applicable(zeros_to_100):
    # Zero 3's integral converges only to its noise-feasible tolerance.
    orders = [BesselOrder.real_order(0.5), BesselOrder.imaginary_order(zeros_to_100[2].gamma)]
    audits, report = audit_eq5(orders)
    assert audits[0].ok and audits[0].verdict is Verdict.CONSISTENT_UP_TO_CONSTANT
    assert not audits[1].ok
    assert audits[1].error.startswith("not converged")
    assert audits[1].verdict is Verdict.NOT_APPLICABLE
    assert report.measured == [audits[0].ratio]


def test_numpy_error_state_is_left_alone(zeros_to_100):
    before = np.geterr()
    coupling_spectrum(zeros_to_100[:2])
    assert np.geterr() == before
    audit_eq5([BesselOrder.real_order(0.5), BesselOrder.real_order(1.5),
               BesselOrder.imaginary_order(2.0)])
    assert np.geterr() == before
