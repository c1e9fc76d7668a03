"""One benchmark command in a fresh interpreter, as a CLI user runs it.

    python3 perfbench/worker.py SPEC.json

The spec names the command (``import``, ``cli``, ``coupling`` or
``probes``) and where to write the result.  The time from the parent's
spawn to the return of ``import xispec.cli`` is the set-up time: the
worker reports when the import returned, on the system-wide monotonic
clock the parent stamped the spawn with.  Each process then times a
fixed calibration loop before and after the command, outside both
set-up and the command's timing.  With
``trace`` set, timing wrappers from ``perfbench/spans.py`` are installed
after that import and the spans are written out as JSON lines at the end.
"""

import os
import sys
import time

_SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, _SRC)

import xispec.cli  # noqa: E402  (the import is what set-up time measures)

READY = time.monotonic()

import cmath  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402

CALIBRATION_TERMS = 40000


def _calibrate() -> float:
    """Seconds for a fixed pure-Python complex-arithmetic loop, untouched by xispec.

    The host's CPU speed drifts by tens of percent within seconds and over
    minutes.  Every process runs this loop just before and just after its
    command, so the parent can scale the command's time to a reference
    speed.
    """
    start = time.perf_counter()
    acc = 0j
    for k in range(1, CALIBRATION_TERMS):
        z = complex(0.5, k * 1e-3)
        acc += cmath.exp(-z * math.log(k)) / (1.0 + abs(z))
    return time.perf_counter() - start


def _run_cli(spec: dict) -> dict:
    start = time.perf_counter()
    code = xispec.cli.main(spec["argv"])
    sys.stdout.flush()
    wall = time.perf_counter() - start
    return {"exit": code, "wall_s": wall}


def _critical_zeros(pairs) -> list:
    from xispec.zeros import CriticalZero

    return [CriticalZero(n, g, (g - 1e-12 * g, g + 1e-12 * g), 1e-12 * g)
            for n, g in pairs]


def _run_coupling(spec: dict) -> dict:
    from xispec.coupling import coupling_spectrum

    zeros = _critical_zeros(spec["zeros"])
    start = time.perf_counter()
    try:
        records = coupling_spectrum(zeros, check_finiteness=True, tol=1e-9)
    except Exception as exc:  # a raising call is a measured failure
        return {"exit": 1, "wall_s": time.perf_counter() - start,
                "error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - start
    rows = [
        [r.source_zero_index, r.nu.kind.value,
         r.norm_integral.value if r.norm_integral else None, r.norm_converged]
        for r in records
    ]
    return {"exit": 0, "wall_s": wall, "records": rows}


def _per_call_us(fn, repeats: int, batches: int = 5) -> float:
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        times.append((time.perf_counter() - start) / repeats)
    times.sort()
    return times[len(times) // 2] * 1e6


def _run_probes(spec: dict) -> dict:
    from xispec.coupling import coupling_spectrum
    from xispec.hadamard import ProductSpec, paired_product
    from xispec.specfun import BesselOrder, bessel_k_with_error, hardy_z

    out = {}
    for t, repeats in ((100.0, 400), (1000.0, 200), (5000.0, 100)):
        out[f"hardy_z.t{t:g}"] = _per_call_us(lambda: hardy_z(t), repeats)
    regions = {"imag_small_x": [], "imag_large_x": [], "real": []}
    for mu in (14.13, 49.77):
        order = BesselOrder.imaginary_order(mu)
        regions["imag_small_x"].append(
            _per_call_us(lambda: bessel_k_with_error(order, 1.0), 50))
        regions["imag_large_x"].append(
            _per_call_us(lambda: bessel_k_with_error(order, 20.0), 50))
    real = BesselOrder.real_order(0.5)
    regions["real"].append(_per_call_us(lambda: bessel_k_with_error(real, 2.0), 50))
    for region, values in regions.items():
        out[f"bessel_k.{region}"] = sum(values) / len(values)
    product = ProductSpec(zero_ordinates=tuple(spec["ordinates"]))
    for n in (50, 800):
        out[f"paired_product.n{n}"] = _per_call_us(
            lambda: paired_product(2.0, product, n), 200)
    # Norm integrals at the first zeta zeros, the orders ROADMAP defect 2
    # is about; the parent checks each value against the closed form.
    first = spec["ordinates"][:spec["defect_zeros"]]
    records = coupling_spectrum(_critical_zeros(enumerate(first, start=1)),
                                check_finiteness=True, tol=1e-9)
    defect = [[g, r.norm_integral.value if r.norm_integral else None, r.norm_converged]
              for g, r in zip(first, records)]
    return {"exit": 0, "probes": out, "defect_records": defect}


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if not os.path.realpath(xispec.cli.__file__).startswith(os.path.realpath(_SRC)):
        raise SystemExit(f"xispec imported from {xispec.cli.__file__}, not {_SRC}")
    calibration_s = _calibrate()
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer(spec["run_id"])
        spans.install(tracer)
    runner = {"import": lambda s: {"exit": 0}, "cli": _run_cli,
              "coupling": _run_coupling, "probes": _run_probes}[spec["kind"]]
    if tracer is not None:
        result = tracer.wrap(spec["root_span"], runner)(spec)
        tracer.dump(spec["spans"])
    else:
        result = runner(spec)
    result["ready"] = READY
    result["calibration_s"] = 0.5 * (calibration_s + _calibrate())
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
