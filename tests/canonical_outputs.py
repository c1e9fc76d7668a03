"""Write the canonical command outputs of this checkout into OUTDIR.

    python tests/canonical_outputs.py OUTDIR

Each command runs in a fresh interpreter, inside OUTDIR, with the package
from this checkout's ``src``; its reports, plots and cache land in OUTDIR,
and its stdout, stderr and exit code in NAME.stdout, NAME.stderr and
NAME.exit.  One more fresh interpreter writes ``library.txt`` (with
library.stderr and library.exit): library values no command prints in
full, every float as its ``repr``.  Every path a command sees is relative
to OUTDIR, so the outputs of two checkouts compare with
``diff -r OUTDIR_A OUTDIR_B``: a change that keeps every output
byte-identical shows no difference.  OUTDIR must be new or empty, so
that the cold run finds no cache.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve()
SRC = SCRIPT.parents[1] / "src"
AUDIT_ALL = ["audit", "all", "--t-max", "50", "--n-zeros", "800", "--cache", "zeros.csv"]
COMMANDS = [
    ("audit-all-cold", AUDIT_ALL + ["--out", "audit-all-cold"]),
    ("report-audit-all-cold", ["report", "--out", "audit-all-cold"]),
    ("audit-all-warm", AUDIT_ALL + ["--out", "audit-all-warm"]),
    ("audit-all-csv", AUDIT_ALL + ["--format", "csv", "--out", "audit-all-csv"]),
    ("audit-all-tol-1e-8",
     AUDIT_ALL[:-1] + ["zeros-tol-1e-8.csv", "--tol", "1e-8", "--out", "audit-all-tol-1e-8"]),
    ("audit-carlson", ["audit", "carlson", "--m", "3", "--out", "audit-carlson"]),
    ("audit-coincidence-perturbed",
     ["audit", "coincidence", "--perturb", "0.01", "--out", "audit-coincidence-perturbed"]),
    ("audit-hadamard-tol-0.1",
     ["audit", "hadamard", "--n-zeros", "800", "--t-max", "50", "--tol", "0.1",
      "--out", "audit-hadamard-tol-0.1"]),
    ("zeros", ["zeros", "--t-max", "5003.123", "--tol", "1e-6"]),
    ("zeros-7010", ["zeros", "--t-max", "7010", "--tol", "1e-6"]),
    ("zeros-1331", ["zeros", "--t-max", "1331", "--tol", "1e-8"]),
    ("zeros-1331-cache", ["zeros", "--t-max", "1331", "--tol", "1e-8", "--cache", "zeros-1331.csv"]),
    ("zeros-1000.5-cache-hit",
     ["zeros", "--t-max", "1000.5", "--tol", "1e-8", "--cache", "zeros-1331.csv"]),
    ("zeros-25.05", ["zeros", "--t-max", "25.05", "--tol", "0.5"]),
    ("zeros-20000", ["zeros", "--t-max", "20000", "--tol", "1e-8"]),
    ("plot-xi-critical", ["plot", "xi-critical"]),
    ("plot-eq5-ratio", ["plot", "eq5-ratio"]),
    ("plot-product-convergence", ["plot", "product-convergence"]),
    ("plot-residuals", ["plot", "residuals", "--m", "7"]),
]


def library() -> None:
    """Print, to full precision, the zero records of two scans, the coupling
    records of ten zeta zeros and 28 seeded orders, the eq5 audit entries,
    K on a grid of real and imaginary orders and the Euler-Maclaurin zeta
    at 200 points."""
    import numpy as np

    from xispec.cli import EQ5_ORDERS
    from xispec.coupling import audit_eq5, coupling_spectrum
    from xispec.specfun import BesselOrder, bessel_k_values
    from xispec.specfun.zeta import euler_maclaurin_zeta
    from xispec.zeros import CriticalZero, scan_zeros

    def line(*values) -> None:
        print(" ".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values))

    for t_max, tol in ((1190.0, 1e-8), (5003.123, 1e-6)):
        print(f"scan_zeros({t_max!r}, {tol!r})")
        for z in scan_zeros(t_max, tol):
            line(z.index, z.gamma, *z.bracket, z.abs_err)
    # Zeros 3-10 take the noise-feasible fallback; the drawn orders, one per
    # stratum of [0.5, 20.5], do not.
    rng = random.Random(24)
    width = 20.0 / 28
    drawn = [rng.uniform(0.5 + k * width, 0.5 + (k + 1) * width) for k in range(28)]
    zeros = list(scan_zeros(50.0, 1e-8)[:10]) + [
        CriticalZero(n, g, (g - 1e-12 * g, g + 1e-12 * g), 1e-12 * g)
        for n, g in enumerate(drawn, start=11)
    ]
    print("coupling_spectrum")
    for r in coupling_spectrum(zeros, check_finiteness=True, tol=1e-9):
        q = r.norm_integral
        line(r.source_zero_index, r.nu.kind.value, r.nu.magnitude,
             q.value, q.err_estimate, q.evaluations, r.norm_converged)
    print("audit_eq5")
    for a in audit_eq5(list(EQ5_ORDERS))[0]:
        line(a.order.kind.value, a.order.magnitude, a.quadrature_value, a.quadrature_err,
             a.paper_closed_form, a.ratio, a.verdict.value, repr(a.error))
    xs = np.geomspace(1e-3, 700.0, 60)
    orders = [BesselOrder.real_order(nu) for nu in (0.0, 1e-3, 0.1, 0.5, 0.9, 1.5, 5.0)]
    orders += [BesselOrder.imaginary_order(mu) for mu in (0.5, 2.0, 14.13, 30.0)]
    for order in orders:
        print(f"bessel_k_values({order.kind.value}:{order.magnitude!r})")
        for x, value, rel in zip(xs.tolist(), *(a.tolist() for a in bessel_k_values(order, xs))):
            line(x, value, rel)
    print("euler_maclaurin_zeta")
    points = np.add.outer([0.0, 0.25, 0.5, 2.0], 1j * np.linspace(0.0, 3000.0, 50)).ravel()
    for s, value in zip(points.tolist(), euler_maclaurin_zeta(points).tolist()):
        line(s.real, s.imag, value.real, value.imag)


def main(argv: list[str]) -> int:
    if argv == ["--library"]:
        library()
        return 0
    if len(argv) != 1:
        print("usage: python tests/canonical_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out}: not empty", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    for name, args in COMMANDS:
        done = subprocess.run(
            [sys.executable, "-m", "xispec.cli", *args],
            cwd=out, env=env, capture_output=True, text=True,
        )
        (out / f"{name}.stdout").write_text(done.stdout, encoding="utf-8")
        (out / f"{name}.stderr").write_text(done.stderr, encoding="utf-8")
        (out / f"{name}.exit").write_text(f"{done.returncode}\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--library"],
        cwd=out, env=env, capture_output=True, text=True,
    )
    (out / "library.txt").write_text(done.stdout, encoding="utf-8")
    (out / "library.stderr").write_text(done.stderr, encoding="utf-8")
    (out / "library.exit").write_text(f"{done.returncode}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
