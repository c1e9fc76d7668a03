"""The public surface: every exported name and every settable value, so
adding or removing an entry point or a knob is an edit here too."""

import dataclasses
import importlib
import inspect
import pkgutil
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
        "ZeroTable",
        "__version__",
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
        "bessel_k_values",
        "bessel_k_with_error",
        "em_truncation",
        "gamma",
        "hardy_z",
        "hardy_z_paths",
        "integrate_semiinfinite",
        "integrate_semiinfinite_batch",
        "log_gamma",
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


# Every defaulted parameter of a public function or method, and every
# defaulted field of a public dataclass: each is a value a caller can set,
# so a new knob fails here until it is added on purpose.
_SETTABLE_VALUES = {
    "xispec.carlson.audit_difference(scale)",
    "xispec.carlson.audit_difference(target)",
    "xispec.carlson.audit_eq9(target)",
    "xispec.carlson.carlson_verdict(margin)",
    "xispec.carlson.carlson_verdict(scale)",
    "xispec.cli.main(argv)",
    "xispec.config.RunConfig.cache",
    "xispec.config.RunConfig.format",
    "xispec.config.RunConfig.m",
    "xispec.config.RunConfig.n_zeros",
    "xispec.config.RunConfig.out",
    "xispec.config.RunConfig.perturb",
    "xispec.config.RunConfig.t_max",
    "xispec.config.RunConfig.tol",
    "xispec.coupling.coupling_spectrum(check_finiteness)",
    "xispec.coupling.coupling_spectrum(tol)",
    "xispec.coupling.norm_integral_quadrature(tol)",
    "xispec.specfun.besselk.bessel_k_values(which)",
    "xispec.svgplot.render_line_plot(logy)",
    "xispec.zeros.refine_brackets(z_ends)",
}


def _settable_values():
    """``module.function(parameter)`` for each defaulted parameter of a
    public function, or of a public method of a public class, and
    ``module.Class.field`` for each defaulted field of a public dataclass,
    that a module of the package defines."""
    found = set()
    for info in pkgutil.walk_packages(xispec.__path__, "xispec."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions = [(name, obj)]
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found.update(
                        f"{module.__name__}.{name}.{f.name}"
                        for f in dataclasses.fields(obj)
                        if f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING
                    )
                functions = [
                    (f"{name}.{attr}", getattr(value, "__func__", value))
                    for attr, value in vars(obj).items()
                    if not attr.startswith("_")
                    and (inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod)))
                ]
            else:
                continue
            for qualname, function in functions:
                for parameter in inspect.signature(function).parameters.values():
                    if parameter.default is not inspect.Parameter.empty:
                        found.add(f"{module.__name__}.{qualname}({parameter.name})")
    return found


def test_settable_values():
    assert _settable_values() == _SETTABLE_VALUES
