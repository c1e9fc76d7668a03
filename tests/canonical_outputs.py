"""Write the canonical command outputs of this checkout into OUTDIR.

    python tests/canonical_outputs.py OUTDIR

Each command runs in a fresh interpreter, inside OUTDIR, with the package
from this checkout's ``src``; its reports, plots and cache land in OUTDIR,
and its stdout, stderr and exit code in NAME.stdout, NAME.stderr and
NAME.exit.  Every path a command sees is relative to OUTDIR, so the
outputs of two checkouts compare with ``diff -r OUTDIR_A OUTDIR_B``: a
change that keeps every output byte-identical shows no difference.
OUTDIR must be new or empty, so that the cold run finds no cache.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
AUDIT_ALL = ["audit", "all", "--t-max", "50", "--n-zeros", "800", "--cache", "zeros.csv"]
COMMANDS = [
    ("audit-all-cold", AUDIT_ALL + ["--out", "audit-all-cold"]),
    ("report-audit-all-cold", ["report", "--out", "audit-all-cold"]),
    ("audit-all-warm", AUDIT_ALL + ["--out", "audit-all-warm"]),
    ("audit-all-csv", AUDIT_ALL + ["--format", "csv", "--out", "audit-all-csv"]),
    ("audit-carlson", ["audit", "carlson", "--m", "3", "--out", "audit-carlson"]),
    ("zeros", ["zeros", "--t-max", "5003.123", "--tol", "1e-6"]),
    ("zeros-7010", ["zeros", "--t-max", "7010", "--tol", "1e-6"]),
    ("zeros-1331", ["zeros", "--t-max", "1331", "--tol", "1e-8"]),
    ("plot-xi-critical", ["plot", "xi-critical"]),
    ("plot-eq5-ratio", ["plot", "eq5-ratio"]),
    ("plot-product-convergence", ["plot", "product-convergence"]),
    ("plot-residuals", ["plot", "residuals", "--m", "7"]),
]


def main(argv: list[str]) -> int:
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
