"""The public surface: every exported name, so adding or removing an entry
point is an edit here too."""

import subprocess
import sys
from pathlib import Path

import xispec
import xispec.specfun


def test_package_surface():
    assert sorted(xispec.__all__) == [
        "AuditReport",
        "BesselOrder",
        "CouplingRecord",
        "CriticalZero",
        "OrderKind",
        "PrefactorFit",
        "ProductSpec",
        "QuadratureResult",
        "Verdict",
        "ZeroCache",
        "__version__",
        "count_check",
        "coupling_spectrum",
        "gamma",
        "hardy_z",
        "integrate_semiinfinite",
        "lambda_from_s",
        "nu_from_lambda",
        "paired_product",
        "refine_zero",
        "s_from_lambda",
        "scan_zeros",
        "xi",
        "xi_critical",
        "zeta",
    ]


def test_specfun_surface():
    assert sorted(xispec.specfun.__all__) == [
        "BesselOrder",
        "EM_ORDER_CAP",
        "EM_TERMS_CAP",
        "OrderKind",
        "QuadratureResult",
        "RS_MIN_T",
        "XI_SIGN_FROM_Z",
        "bessel_k_values",
        "bessel_k_with_error",
        "em_truncation",
        "gamma",
        "hardy_z",
        "hardy_z_method",
        "hardy_z_with_bound",
        "integrate_semiinfinite",
        "integrate_semiinfinite_batch",
        "log_gamma",
        "riemann_siegel_theta",
        "xi",
        "xi_critical",
        "zeta",
    ]


_BENCHMARK_NAMES = """
import ast, importlib, sys
sys.path[:0] = ["src", "perfbench"]
import spans
spans.install(spans.Tracer("t"))
with open("perfbench/worker.py", encoding="utf-8") as handle:
    tree = ast.parse(handle.read())
count = 0
for node in ast.walk(tree):
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "xispec":
                importlib.import_module(alias.name)
                count += 1
    elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "xispec":
        module = importlib.import_module(node.module)
        for alias in node.names:
            getattr(module, alias.name)
            count += 1
print(count)
"""


def test_benchmark_names_resolve():
    # The benchmark patches the package by name (perfbench/spans.py) and its
    # worker imports names from it (perfbench/worker.py): one subprocess
    # installs the tracer and resolves every such import, so a rename that
    # would break a traced benchmark run fails here.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _BENCHMARK_NAMES], cwd=root, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) >= 8
