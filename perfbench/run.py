"""xispec benchmark: fresh-process CLI and library runs checked against a frozen oracle.

    python3 perfbench/run.py --workload scan-high --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  Every command runs in a fresh interpreter
(``perfbench/worker.py``), as a CLI user's does.  On audit-all a round is
a cold command against a fresh zero cache, then the identical warm one
against the cache the cold one wrote.  scan-high and coupling-orders keep
no state between commands, so there a round is one command, which is
both cold and warm.  With ``--trace 0`` rounds repeat for about
``--seconds`` and the end-to-end metrics are medians.  With ``--trace 1``
the run makes one untraced cold command, one traced round and the
fixed-input probes, and reports the per-layer metrics.  Every output is
checked against ``perfbench/oracle.json`` outside the timed region.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = ".perfbench_work"
# Import-only processes at the start and after each round, so the set-up
# samples span the whole run rather than its first seconds.
SETUP_PROBES_FIRST = 5
SETUP_PROBES_PER_ROUND = 3
COMMAND_TIMEOUT_S = 150.0
# Median time of worker.py's calibration loop on the reference machine
# (2-vCPU Intel Xeon VM, Python 3.11.7).  That host's CPU speed drifts by
# up to +-20% within seconds and over minutes, which moved raw median
# command times between 40 s runs by as much.  Each time is multiplied by
# this constant and divided by the mean of the loop times its own process
# measured just before and after it, which reports it at the reference
# speed.  The loop never calls xispec, so no change to xispec moves it.
CALIBRATION_REF_S = 0.026

SCAN_TOL = 1e-6
SCAN_SAMPLES = 10
# A zero closer than this to the scan's upper end is ambiguous at tol 1e-6.
SCAN_END_MARGIN = 1e-3
COUPLING_REL_TOL = 1e-6
# The timed coupling orders: zeta zeros 1 and 2, then points drawn from
# [LO, HI], where the seed code's norm integral is within 3e-9 of the
# closed form.  Above mu ~ 21 it falls back to its noise-feasible path and
# from mu ~ 24 on it misses 1e-6; DEFECT_PROBE_ZEROS measures that.
COUPLING_DRAWN = 28
COUPLING_MU_LO = 0.5
COUPLING_MU_HI = 20.5
# The first this-many zeta zeros make the norm-integral defect probe.
DEFECT_PROBE_ZEROS = 30
AUDIT_VERDICTS = {
    "eq5": "CONSISTENT_UP_TO_CONSTANT",
    "eq9": "NOT_APPLICABLE",
    "hadamard": "PASS",
    "coincidence": "COINCIDE",
    "carlson": "INCONCLUSIVE",
}

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
BESSEL_REGIONS = ("imag_small_x", "imag_large_x", "real")
PER_LAYER = {
    "specfun.hardy_z.calls": "count",
    "specfun.hardy_z.self_s": "s",
    "specfun.hardy_z.us_per_call.t100": "us",
    "specfun.hardy_z.us_per_call.t1000": "us",
    "specfun.hardy_z.us_per_call.t5000": "us",
    "specfun.xi.calls": "count",
    "specfun.xi.self_s": "s",
    "zeros.scan_zeros.calls.cold": "count",
    "zeros.scan_zeros.calls.warm": "count",
    "zeros.scan_zeros.self_s": "s",
    "zeros.refine_zero.calls": "count",
    "zeros.z_evals_per_zero": "evals/zero",
    "zeros.scan_z_evals": "count",
    "zeros.rescan_warnings": "count",
    "zeros.cache.load_s": "s",
    "zeros.cache.save_s": "s",
    "zeros.cache.hits": "count",
    **{f"specfun.bessel_k.calls.{r}": "count" for r in BESSEL_REGIONS},
    **{f"specfun.bessel_k.us_per_call.{r}": "us" for r in BESSEL_REGIONS},
    "specfun.quadrature.calls": "count",
    "specfun.quadrature.evals_per_integral": "evals/integral",
    "specfun.quadrature.self_s": "s",
    "coupling.norm_integral.s_per_order": "s",
    "coupling.norm_converged_wrong": "count",
    "coupling.audit_eq5.self_s": "s",
    "hadamard.paired_product.calls": "count",
    "hadamard.paired_product.us_per_call.n50": "us",
    "hadamard.paired_product.us_per_call.n800": "us",
    "hadamard.fitted_misfit.self_s": "s",
    "hadamard.audit_coincidence.self_s": "s",
    "carlson.audit_difference.self_s": "s",
    "carlson.audit_eq9.self_s": "s",
    "report.write_s": "s",
    "report.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, oracle or result)."""


# ------------------------------- workloads -------------------------------


class ScanHigh:
    """``xispec zeros --t-max T --tol 1e-6``, no cache, T from the seed."""

    name = "scan-high"
    stateful = False

    def __init__(self, seed: int, oracle: dict, short: bool = False) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        if short:
            lo, hi, below = 140.0, 160.0, 0
            known = oracle["first"]
        else:
            window = oracle["window"]
            lo, hi, below = window["lo"], window["hi"], window["count_below_lo"]
            known = window["ordinates"]
        while True:
            t_max = round(rng.uniform(lo, hi), 3)
            if all(abs(g - t_max) >= SCAN_END_MARGIN for g in known):
                break
        inside = [(below + i, g) for i, g in enumerate(known, start=1) if g <= t_max]
        self.t_max = t_max
        self.expected = below + len(inside)
        self.sample = sorted(rng.sample(inside, min(SCAN_SAMPLES, len(inside))))

    def spec(self, round_dir: str, warm: bool) -> dict:
        return {"kind": "cli",
                "argv": ["zeros", "--t-max", repr(self.t_max), "--tol", repr(SCAN_TOL)]}

    def check(self, result: dict, round_dir: str, warm: bool) -> dict:
        """One op per expected zero; a wrong count fails them all."""
        out = {"attempted": self.expected, "failed": self.expected}
        if result.get("exit") != 0:
            return out
        with open(result["stdout"], "r", encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()]
        with open(result["stderr"], "r", encoding="utf-8") as handle:
            out["rescan_warnings"] = handle.read().count("StepResolutionWarning:")
        if len(rows) != self.expected:
            return out
        try:
            misses = sum(
                int(rows[n - 1][0]) != n or not abs(float(rows[n - 1][1]) - gamma) <= SCAN_TOL
                for n, gamma in self.sample)
        except (IndexError, ValueError):
            return out
        out["failed"] = misses
        return out


class AuditAll:
    """``xispec audit all`` cold, then warm on the cache the cold command wrote."""

    name = "audit-all"
    stateful = True
    reports = [f"audit_{name}.json" for name in AUDIT_VERDICTS] + ["audit_all.json"]

    def __init__(self, seed: int, oracle: dict, short: bool = False) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.t_max = round(rng.uniform(40.0, 60.0), 2)
        self.schema = None

    def spec(self, round_dir: str, warm: bool) -> dict:
        return {"kind": "cli",
                "argv": ["audit", "all", "--t-max", repr(self.t_max),
                         "--n-zeros", "800",
                         "--cache", os.path.join(round_dir, "zeros.csv"),
                         "--out", os.path.join(round_dir, "warm" if warm else "cold")]}

    def _entry_ok(self, entry: dict, expected: str) -> bool:
        import jsonschema

        if self.schema is None:
            path = os.path.join("src", "xispec", "schema", "audit_report.schema.json")
            with open(path, "r", encoding="utf-8") as handle:
                self.schema = json.load(handle)
        try:
            jsonschema.validate(entry, self.schema)
        except jsonschema.ValidationError:
            return False
        return entry["verdict"] == expected

    def _report_ok(self, path: str, cold_path: str | None) -> bool:
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
            payload = json.loads(raw)
            if cold_path is not None:
                with open(cold_path, "rb") as handle:
                    if handle.read() != raw:
                        return False
        except (OSError, ValueError):
            return False
        if not isinstance(payload, dict):
            return False
        if "audits" in payload:
            entries = payload["audits"]
            expected = list(AUDIT_VERDICTS.values())
        else:
            entries = [payload]
            expected = [AUDIT_VERDICTS[os.path.basename(path)[6:-5]]]
        return len(entries) == len(expected) and all(
            self._entry_ok(e, v) for e, v in zip(entries, expected))

    def check(self, result: dict, round_dir: str, warm: bool) -> dict:
        """One op per report file; the warm file must equal the cold one."""
        out = {"attempted": len(self.reports), "failed": len(self.reports)}
        if result.get("exit") != 0:
            return out
        out_dir = os.path.join(round_dir, "warm" if warm else "cold")
        cold_dir = os.path.join(round_dir, "cold") if warm else None
        out["failed"] = sum(
            not self._report_ok(os.path.join(out_dir, name),
                                cold_dir and os.path.join(cold_dir, name))
            for name in self.reports)
        return out


class CouplingOrders:
    """``coupling_spectrum`` over 30 critical-line points with accurate norm integrals."""

    name = "coupling-orders"
    stateful = False

    def __init__(self, seed: int, oracle: dict, short: bool = False) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        # Zeta zeros 1 and 2 are the only zeros whose norm integral the
        # seed code gets right (ROADMAP defect 2); the other points are
        # drawn one per stratum of [COUPLING_MU_LO, COUPLING_MU_HI], so
        # every seed gives the same mix of quadrature depths.
        count = 3 if short else COUPLING_DRAWN
        width = (COUPLING_MU_HI - COUPLING_MU_LO) / count
        drawn = [rng.uniform(COUPLING_MU_LO + k * width, COUPLING_MU_LO + (k + 1) * width)
                 for k in range(count)]
        ordinates = oracle["first"][:2] + drawn
        self.zeros = [[n, g] for n, g in enumerate(ordinates, start=1)]

    def spec(self, round_dir: str, warm: bool) -> dict:
        return {"kind": "coupling", "zeros": self.zeros}

    def check(self, result: dict, round_dir: str, warm: bool) -> dict:
        """One op per order: value vs (1/2) pi mu / sinh(pi mu)."""
        out = {"attempted": len(self.zeros), "failed": len(self.zeros)}
        records = result.get("records")
        if result.get("exit") != 0 or records is None or len(records) != len(self.zeros):
            return out
        out["failed"] = sum(not norm_ok(gamma, index == n and kind == "imaginary", value)
                            for (n, gamma), (index, kind, value, _) in zip(self.zeros, records))
        return out


def norm_ok(gamma: float, shape_ok: bool, value: float | None) -> bool:
    """Whether a norm integral at order i*gamma matches the standard-table closed form."""
    closed = 0.5 * math.pi * gamma / math.sinh(math.pi * gamma)
    return shape_ok and value is not None and abs(value / closed - 1.0) <= COUPLING_REL_TOL


WORKLOADS = {w.name: w for w in (ScanHigh, AuditAll, CouplingOrders)}


# ------------------------------- processes -------------------------------


class Launcher:
    """Starts worker processes in the checkout and collects their results."""

    def __init__(self, root: str, work: str) -> None:
        self.root = root
        self.work = work
        self.count = 0

    def run(self, spec: dict, trace: bool = False) -> dict:
        self.count += 1
        base = os.path.join(self.work, f"cmd{self.count}")
        spec = dict(spec, result=base + ".result.json", trace=trace,
                    spans=base + ".spans.jsonl", run_id=f"{os.getpid()}-{self.count}",
                    root_span=f"bench.{spec['kind']}")
        with open(base + ".spec.json", "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        result = {"exit": None, "stdout": base + ".out", "stderr": base + ".err",
                  "spans": spec["spans"]}
        with open(result["stdout"], "wb") as out, open(result["stderr"], "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, WORKER, base + ".spec.json"],
                                    cwd=self.root, stdout=out, stderr=err)
            try:
                proc.wait(timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"perfbench: command {self.count} timed out", file=sys.stderr)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode == 0 and os.path.exists(spec["result"]):
            with open(spec["result"], "r", encoding="utf-8") as handle:
                result.update(json.load(handle))
            result["setup_s"] = result["ready"] - spawned
        return result


def _median(values: list[float], what: str) -> float:
    if not values:
        raise BenchError(f"no successful command measured {what}")
    return statistics.median(values)


def _round(workload) -> tuple[bool, ...]:
    """The warm flags of one round's commands."""
    return (False, True) if workload.stateful else (False,)


def timed_run(workload, launcher: Launcher, seconds: float) -> dict:
    """Untraced rounds for about `seconds`; end-to-end metrics as medians.

    Each time is first scaled to the reference CPU speed by the
    calibration loop its own process ran (see CALIBRATION_REF_S).
    """
    start = time.monotonic()
    raw = {"setup_s": [], False: [], True: []}
    scaled = {"setup_s": [], False: [], True: []}

    def sample(key, result: dict, field: str) -> None:
        raw[key].append(result[field])
        scaled[key].append(result[field] * CALIBRATION_REF_S / result["calibration_s"])

    def probe_setup(count: int) -> None:
        for _ in range(count):
            result = launcher.run({"kind": "import"})
            if "setup_s" in result:
                sample("setup_s", result, "setup_s")

    probe_setup(SETUP_PROBES_FIRST)
    rss, attempted, failed, rounds = [], 0, 0, 0
    while True:
        round_dir = os.path.join(launcher.work, f"round{rounds}")
        os.makedirs(round_dir)
        for warm in _round(workload):
            result = launcher.run(workload.spec(round_dir, warm))
            verdict = workload.check(result, round_dir, warm)
            attempted += verdict["attempted"]
            failed += verdict["failed"]
            if "wall_s" in result:
                sample(warm, result, "wall_s")
                sample("setup_s", result, "setup_s")
                rss.append(result["rss_kb"] / 1024.0)
        shutil.rmtree(round_dir)
        probe_setup(SETUP_PROBES_PER_ROUND)
        rounds += 1
        elapsed = time.monotonic() - start
        # Stop at the round count that ends closest to `seconds`.
        if elapsed + 0.5 * (elapsed / rounds) >= seconds:
            break
    keys = {"setup_s": "setup_s", "cold_s": False, "warm_s": workload.stateful}
    print("raw medians", json.dumps(
        {name: statistics.median(raw[key]) for name, key in keys.items() if raw[key]}))
    metrics = {name: _median(scaled[key], name) for name, key in keys.items()}
    metrics["peak_rss_mb"] = _median(rss, "peak_rss_mb")
    metrics["pass_frac"] = (attempted - failed) / attempted
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(cold: spans.Layers, warm: spans.Layers, cold_check: dict,
                  probes: dict, overhead: float) -> dict:
    """Per-layer values from the traced cold command (cache ones: warm).

    On workloads without state the one traced command is both.
    """
    hardy = cold.named("specfun.hardy_z")
    refine_calls = cold.calls("zeros.refine_zero")
    in_refine = sum(cold.has_ancestor(r, "zeros.refine_zero") for r in hardy)
    in_scan = sum(cold.has_ancestor(r, "zeros.scan_zeros") for r in hardy)
    bessel = cold.named("specfun.bessel_k")
    quad = cold.named("specfun.quadrature")
    norm = [r["end"] - r["start"] for r in cold.named("coupling.norm_integral")]
    writes = ("report.write_report", "report.write_aggregate")
    metrics = {
        "specfun.hardy_z.calls": len(hardy),
        "specfun.hardy_z.self_s": cold.total_self_s("specfun.hardy_z"),
        "specfun.xi.calls": cold.calls("specfun.xi"),
        "specfun.xi.self_s": cold.total_self_s("specfun.xi"),
        "zeros.scan_zeros.calls.cold": cold.calls("zeros.scan_zeros"),
        "zeros.scan_zeros.calls.warm": warm.calls("zeros.scan_zeros"),
        "zeros.scan_zeros.self_s": cold.total_self_s("zeros.scan_zeros"),
        "zeros.refine_zero.calls": refine_calls,
        "zeros.z_evals_per_zero": in_refine / refine_calls if refine_calls else 0.0,
        "zeros.scan_z_evals": in_scan - in_refine,
        "zeros.rescan_warnings": cold_check.get("rescan_warnings", 0),
        "zeros.cache.load_s": warm.total_s("zeros.cache.load"),
        "zeros.cache.save_s": warm.total_s("zeros.cache.save"),
        "zeros.cache.hits": int(warm.calls("zeros.cache.load") > 0
                                and warm.calls("zeros.scan_zeros") == 0),
        "specfun.quadrature.calls": len(quad),
        "specfun.quadrature.evals_per_integral":
            sum(r["evals"] for r in quad if "evals" in r) / len(quad) if quad else 0.0,
        "specfun.quadrature.self_s": cold.total_self_s("specfun.quadrature"),
        "coupling.norm_integral.s_per_order": statistics.median(norm) if norm else 0.0,
        "coupling.norm_converged_wrong": probes["norm_converged_wrong"],
        "coupling.audit_eq5.self_s": cold.total_self_s("coupling.audit_eq5"),
        "hadamard.paired_product.calls": cold.calls("hadamard.paired_product"),
        "hadamard.fitted_misfit.self_s": cold.total_self_s("hadamard.fitted_misfit"),
        "hadamard.audit_coincidence.self_s":
            cold.total_self_s("hadamard.audit_coincidence"),
        "carlson.audit_difference.self_s": cold.total_self_s("carlson.audit_difference"),
        "carlson.audit_eq9.self_s": cold.total_self_s("carlson.audit_eq9"),
        "report.write_s": sum(cold.total_s(name) for name in writes),
        "report.bytes": sum(r.get("bytes", 0) for name in writes for r in cold.named(name)),
        "trace.overhead_frac": overhead,
    }
    for region in BESSEL_REGIONS:
        metrics[f"specfun.bessel_k.calls.{region}"] = sum(
            r.get("region") == region for r in bessel)
        metrics[f"specfun.bessel_k.us_per_call.{region}"] = probes[f"bessel_k.{region}"]
    for t in (100, 1000, 5000):
        metrics[f"specfun.hardy_z.us_per_call.t{t}"] = probes[f"hardy_z.t{t}"]
    for n in (50, 800):
        metrics[f"hadamard.paired_product.us_per_call.n{n}"] = probes[f"paired_product.n{n}"]
    return metrics


def traced_run(workload, launcher: Launcher, oracle: dict) -> dict:
    """One untraced cold command, one traced round, then the fixed-input probes."""
    attempted = failed = 0
    checks, layers, walls = [], [], []
    commands = [("base", False, False)] + [("traced", True, warm) for warm in _round(workload)]
    for name, trace, warm in commands:
        round_dir = os.path.join(launcher.work, name)
        os.makedirs(round_dir, exist_ok=True)
        result = launcher.run(workload.spec(round_dir, warm), trace=trace)
        verdict = workload.check(result, round_dir, warm)
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        if "wall_s" not in result:
            raise BenchError(f"{workload.name}: {name} command produced no result")
        walls.append(result["wall_s"])
        checks.append(verdict)
        if trace:
            layers.append(spans.Layers(spans.load(result["spans"])))
    probes = launcher.run({"kind": "probes", "ordinates": oracle["first"],
                           "defect_zeros": DEFECT_PROBE_ZEROS})
    if "probes" not in probes:
        raise BenchError("probe command produced no result")
    probes["probes"]["norm_converged_wrong"] = sum(
        bool(converged) and not norm_ok(gamma, True, value)
        for gamma, value, converged in probes["defect_records"])
    metrics = layer_metrics(layers[0], layers[-1], checks[1], probes["probes"],
                            walls[1] / walls[0] - 1.0)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ------------------------------- reporting -------------------------------


def machine_block() -> dict:
    affinity = len(os.sched_getaffinity(0))
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    block = {"python": platform.python_version(), "numpy": metadata.version("numpy"),
             "nproc": nproc, "cpu_count": os.cpu_count(), "affinity": affinity,
             "cpu_model": model}
    if (os.cpu_count() or 1) > affinity:
        print(f"warning: os.cpu_count() = {os.cpu_count()} exceeds the {affinity} "
              "usable cores; the CLI's default worker count oversubscribes them",
              file=sys.stderr)
    return block


def result_line(run: dict, units: dict) -> dict:
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def print_metrics(label: str, line: dict) -> None:
    for name, metric in line["metrics"].items():
        print(f"{label} {name} = {metric['value']!r} {metric['unit']}")


def load_oracle() -> dict:
    with open(os.path.join(HERE, "oracle.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_checkout(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "xispec", "cli.py")):
        raise BenchError(f"no xispec sources under {root}/src; run from the repository root")


class WorkDir:
    """Scratch directory inside the checkout, removed when the run ends."""

    def __init__(self, root: str) -> None:
        self.path = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")

    def __enter__(self) -> str:
        os.makedirs(self.path)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass


# ------------------------------- self-test -------------------------------


def self_test(root: str, oracle: dict) -> int:
    """Short runs of every workload and mode, plus corrupted-output checks."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if declared["end_to_end"] != END_TO_END:
        problems.append("end_to_end names or units differ from BENCHMARK.json")
    if declared["per_layer"] != PER_LAYER:
        problems.append("per_layer names or units differ from BENCHMARK.json")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")

    with WorkDir(root) as work:
        launcher = Launcher(root, work)
        for name, cls in WORKLOADS.items():
            workload = cls(0, oracle, short=True)
            for mode, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
                run = (traced_run(workload, launcher, oracle) if mode == "per_layer"
                       else timed_run(workload, launcher, 0.0))
                if set(run["metrics"]) != set(units):
                    problems.append(f"{name} {mode}: emitted names differ")
                    continue
                print_metrics(f"{name} {mode}", result_line(run, units))
        problems += corruption_checks(oracle, launcher)

    for problem in problems:
        print(f"self-test FAIL: {problem}", file=sys.stderr)
    print("self-test", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def corruption_checks(oracle: dict, launcher: Launcher) -> list[str]:
    """One perturbed ordinate and one flipped verdict must raise `failed`."""
    problems = []

    scan = ScanHigh(0, oracle, short=True)
    round_dir = os.path.join(launcher.work, "corrupt-scan")
    os.makedirs(round_dir)
    result = launcher.run(scan.spec(round_dir, False))
    clean = scan.check(result, round_dir, False)
    n, gamma = scan.sample[0]
    with open(result["stdout"], "r", encoding="utf-8") as handle:
        rows = handle.read().splitlines()
    rows[n - 1] = f"{n},{gamma + 10 * SCAN_TOL:.15g},1e-7"
    with open(result["stdout"], "w", encoding="utf-8") as handle:
        handle.write("\n".join(rows) + "\n")
    dirty = scan.check(result, round_dir, False)
    if not (clean["failed"] == 0 and dirty["failed"] > 0):
        problems.append(f"perturbed ordinate not caught: {clean} -> {dirty}")

    audit = AuditAll(0, oracle)
    round_dir = os.path.join(launcher.work, "corrupt-audit")
    os.makedirs(round_dir)
    launcher.run(audit.spec(round_dir, False))
    result = launcher.run(audit.spec(round_dir, True))
    clean = audit.check(result, round_dir, True)
    path = os.path.join(round_dir, "warm", "audit_hadamard.json")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace('"verdict": "PASS"', '"verdict": "FAIL"'))
    dirty = audit.check(result, round_dir, True)
    if not (clean["failed"] == 0 and dirty["failed"] > 0):
        problems.append(f"flipped verdict not caught: {clean} -> {dirty}")
    return problems


# --------------------------------- main ---------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="short runs of every workload and mode, then exit")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    root = os.getcwd()
    try:
        check_checkout(root)
        oracle = load_oracle()
        print("machine", json.dumps(machine_block(), sort_keys=True))
        if args.self_test:
            return self_test(root, oracle)
        workload = WORKLOADS[args.workload](args.seed, oracle)
        with WorkDir(root) as work:
            launcher = Launcher(root, work)
            if args.trace:
                run = traced_run(workload, launcher, oracle)
            else:
                run = timed_run(workload, launcher, args.seconds)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    line = result_line(run, PER_LAYER if args.trace else END_TO_END)
    print_metrics(args.workload, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
