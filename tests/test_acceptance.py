"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are pinned here, not configurable.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import mpmath as mp
import numpy as np

from xispec import cli
from xispec.carlson import Axis, Conclusion, audit_eq9, carlson_verdict, estimate_type
from xispec.coupling import audit_eq5, coupling_spectrum, s_from_lambda
from xispec.hadamard import ProductSpec, audit_coincidence, fitted_misfit, paired_product
from xispec.report import Verdict
from xispec.specfun import BesselOrder, xi
from xispec.zeros import count_check, scan_zeros


def _line(num: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {name}")
    return ok


def test_criterion_1_zero_finder():
    start = time.monotonic()
    zeros = scan_zeros(30.0, 1e-8)
    elapsed = time.monotonic() - start
    ok = len(zeros) == 3

    # the first zero against mpmath, the independent oracle
    oracle = float(mp.zetazero(1).imag)
    ok = ok and abs(zeros[0].gamma - oracle) <= 1e-6

    for t_max in (10.0, 30.0, 50.0, 100.0):
        found = len(scan_zeros(t_max, 1e-8))
        ok = ok and count_check(t_max, found).verdict is Verdict.PASS

    ok = ok and elapsed < 60.0
    assert _line(1, f"zero finder (3 zeros at t<=30, {elapsed:.1f}s)", ok)


def test_criterion_2_xi_correctness():
    ok = abs(xi(2.0) / (math.pi / 6.0) - 1.0) <= 1e-10
    ok = ok and abs(xi(0.0) - 0.5) <= 1e-10
    rng = random.Random(101)
    checked = 0
    while checked < 100:
        s = complex(rng.uniform(-20.0, 21.0), rng.uniform(-21.0, 21.0))
        if abs(s) > 30.0:
            continue
        checked += 1
        if not abs(xi(s) - xi(1.0 - s)) <= 1e-10 * (1.0 + abs(xi(s))):
            ok = False
            break
    assert _line(2, "xi values and functional equation", ok)


def test_criterion_3_norm_integral_audit():
    start = time.monotonic()
    orders = [BesselOrder.real_order(k / 10.0) for k in range(1, 10)]
    orders += [BesselOrder.imaginary_order(m) for m in (0.5, 1.0, 2.0)]
    audits, summary = audit_eq5(orders)
    elapsed = time.monotonic() - start

    ok = all(a.ok for a in audits)
    half = [a for a in audits if a.order.magnitude == 0.5 and a.order.kind.value == "real"]
    ok = ok and abs(half[0].quadrature_value / (math.pi / 4.0) - 1.0) <= 1e-8
    ratios = [a.ratio for a in audits]
    mean = sum(ratios) / len(ratios)
    ok = ok and max(abs(r - mean) for r in ratios) / abs(mean) <= 1e-6

    ok = ok and summary.params["claimed_coefficient"] == 0.125
    ok = ok and summary.params["standard_coefficient"] == 0.5
    ok = ok and math.isfinite(summary.params["implied_coefficient"])
    ok = ok and elapsed < 30.0
    assert _line(3, f"norm-integral ratio audit ({elapsed:.1f}s)", ok)


def test_criterion_4_coupling_spectrum(zeros_to_100):
    zeros = zeros_to_100[:10]
    records = coupling_spectrum(zeros, check_finiteness=True)
    ok = len(records) == 10
    for record, zero in zip(records, zeros):
        expected = -(zero.gamma * zero.gamma + 0.25)
        ok = ok and record.lam.imag == 0.0
        ok = ok and record.lam.real < -0.25
        ok = ok and abs(record.lam.real - expected) <= 1e-12 * abs(expected)
        ok = ok and record.nu.kind.value == "imaginary"
        # Every order has a finite, positive norm integral.
        quad = record.norm_integral
        ok = ok and quad is not None
        ok = ok and math.isfinite(quad.value) and quad.value > 0.0
        # One that meets its tolerance must match the closed form.
        if record.norm_converged:
            mu = record.nu.magnitude
            closed = 0.5 * math.pi * mu / math.sinh(math.pi * mu)
            ok = ok and abs(quad.value / closed - 1.0) <= 1e-6
    ok = ok and records[0].norm_converged

    rng = random.Random(77)
    for _ in range(1000):
        lam = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        for root in s_from_lambda(lam):
            if abs(root * (root - 1.0) - lam) > 1e-12 * max(1.0, abs(lam)):
                ok = False
    assert _line(4, "coupling spectrum and roundtrip", ok)


def test_criterion_5_hadamard_product():
    # End-to-end timing: the zero scan is part of the budget.  The product
    # is the closed form 1/2 prod (lambda - u)/lambda e^{u tau}: no constant
    # is fitted, and each truncation's misfit must be within its bound.
    start = time.monotonic()
    zeros = scan_zeros(1190.0, 1e-8)
    assert len(zeros) >= 800
    xs = np.linspace(-1.0, 2.0, 21)
    targets = np.array([xi(complex(x, 0.0)).real for x in xs])

    def curve(ordinates):
        spec = ProductSpec(zero_ordinates=tuple(ordinates))
        return [fitted_misfit(xs, targets, spec, n) for n in (50, 100, 200, 400, 800)]

    gammas = [z.gamma for z in zeros]
    misfits = curve(gammas)
    elapsed = time.monotonic() - start

    ok = all(m <= b for m, b in misfits)
    # A list without zero 10 passed the fitted form (misfit 1.8e-3 < 2e-2).
    ok = ok and not all(m <= b for m, b in curve(gammas[:9] + gammas[10:]))
    spec = ProductSpec(zero_ordinates=tuple(gammas))
    ok = ok and paired_product(0.0, spec, 800) == 0.5
    ok = ok and elapsed < 120.0
    assert _line(
        5,
        f"closed-form product misfit {misfits[-1][0]:.2e} <= {misfits[-1][1]:.2e} "
        f"at n=800 ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_6_coincidence_discriminator(zeros_for_products):
    spec = ProductSpec(zero_ordinates=tuple(z.gamma for z in zeros_for_products))
    own = list(spec.zero_ordinates[:5])
    report = audit_coincidence(spec, own, 800)
    ok = report.verdict is Verdict.COINCIDE

    perturbed = [spec.zero_ordinates[0] + 0.01]
    report = audit_coincidence(spec, perturbed, 800)
    ok = ok and report.verdict is Verdict.DISTINCT
    ok = ok and report.measured[0] >= 10.0 * report.tolerance
    assert _line(6, "zero-coincidence discriminator", ok)


def test_criterion_7_growth_auditor():
    import cmath

    ok = True
    for margin in (1e-9, 1e-3, 0.05, 0.5):
        verdict = carlson_verdict(
            lambda z: cmath.sin(math.pi * z), 50, 20.0, margin=margin
        )
        ok = ok and verdict.conclusion is Conclusion.CONDITIONS_NOT_MET
    verdict = carlson_verdict(lambda z: 0.0, 50, 20.0)
    ok = ok and verdict.conclusion is Conclusion.IDENTICALLY_ZERO_IMPLIED
    for c in (0.5, 1.0, 2.0, 3.0):
        comp = estimate_type(lambda z, c=c: cmath.exp(c * z), Axis.REAL, 20.0)
        ok = ok and abs(comp.slope - c) <= 1e-6
    assert _line(7, "growth-condition auditor", ok)


def test_criterion_8_exponential_fit_honesty():
    import cmath

    first = audit_eq9(10.0, 51)
    second = audit_eq9(10.0, 51)
    ok = first == second
    ok = ok and repr(first) == repr(second)   # byte-identical rendering
    ok = ok and first.max_residual > 0.0      # emitted regardless of size

    synthetic = audit_eq9(10.0, 51, target=lambda z: 0.5 * cmath.exp(0.3 * (z + 1.0)))
    ok = ok and synthetic.max_residual < 1e-12
    assert _line(8, "exponential-model fit honesty", ok)


def test_criterion_9_determinism_and_interfaces(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NO_COLOR", "1")
    base = [
        "audit", "all", "--t-max", "40", "--n-zeros", "100",
        "--cache", "zeros.csv",
    ]
    ok = cli.main(base + ["--out", "r1"]) == 0
    ok = ok and cli.main(base + ["--out", "r2"]) == 0
    for name in sorted(os.listdir("r1")):
        with open(os.path.join("r1", name), "rb") as fa, open(
            os.path.join("r2", name), "rb"
        ) as fb:
            ok = ok and fa.read() == fb.read()

    payload = json.loads(Path("r1/audit_all.json").read_text())
    ok = ok and len(payload["audits"]) == 5

    # exit codes: 1 audit failure, 2 usage, 3 cache corruption
    ok = ok and cli.main(
        ["audit", "coincidence", "--perturb", "0.01", "--n-zeros", "50",
         "--cache", "zeros.csv", "--out", "r3"]
    ) == 1
    ok = ok and cli.main(["zeros", "--t-max", "-5"]) == 2
    raw = Path("zeros.csv").read_bytes()
    Path("zeros.csv").write_bytes(raw.replace(b"14.13", b"14.19", 1))
    ok = ok and cli.main(["zeros", "--t-max", "40", "--cache", "zeros.csv"]) == 3

    from xispec.errors import NonConvergenceError

    def _fail(cfg):
        raise NonConvergenceError("synthetic non-convergence")

    monkeypatch.setitem(cli._AUDIT_RUNNERS, "eq9", _fail)
    ok = ok and cli.main(["audit", "eq9", "--out", "r4"]) == 4
    assert _line(9, "determinism and exit codes", ok)
