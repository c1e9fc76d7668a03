"""Shared fixtures: session-scoped zero tables and the high-precision oracle.

mpmath (at 30 significant digits) is the independent test-time oracle for
special-function values; it is never imported by the package itself.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import xispec
from xispec.specfun import hardy_z
from xispec.zeros import ZeroTable, scan_zeros

mp.mp.dps = 30

#: First ten critical-line ordinates, frozen from the package's own scanner
#: and cross-checked against mp.zetazero in test_zeros.
KNOWN_ZEROS_10 = (
    14.134725141734693,
    21.022039638771555,
    25.010857580145688,
    30.424876125859513,
    32.935061587739190,
    37.586178158825671,
    40.918719012147495,
    43.327073280914999,
    48.005150881167159,
    49.773832477672302,
)


def hardy_z_without_zeros_2_and_3(t: np.ndarray) -> np.ndarray:
    """Z with its sign flipped between zeros 2 and 3: two sign changes gone,
    and the Rosser block from g_0 to g_2 short however finely it is split."""
    z = hardy_z(t)
    return np.where((t > KNOWN_ZEROS_10[1]) & (t < KNOWN_ZEROS_10[2]), -z, z)


def report_schema() -> dict:
    """The published JSON schema every report file validates against: the
    package's ``schema/audit_report.schema.json``."""
    path = Path(xispec.__file__).with_name("schema") / "audit_report.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def mp_gamma(z: complex) -> complex:
    return complex(mp.gamma(mp.mpc(z.real, z.imag)))


def mp_zeta(s: complex) -> complex:
    return complex(mp.zeta(mp.mpc(s.real, s.imag)))


def mp_besselk(order: complex, x: float) -> float:
    return complex(mp.besselk(mp.mpc(order.real, order.imag), mp.mpf(x))).real


def rel_err(value: complex, reference: complex) -> float:
    reference = complex(reference)
    scale = abs(reference)
    if scale == 0.0:
        return abs(complex(value))
    return abs(complex(value) - reference) / scale


@pytest.fixture(scope="session")
def zeros_to_100() -> ZeroTable:
    return scan_zeros(100.0, 1e-8)


@pytest.fixture(scope="session")
def zeros_for_products() -> ZeroTable:
    """At least 800 zeros, for the product-truncation studies."""
    t_max = 1190.0
    zeros = scan_zeros(t_max, 1e-8)
    while len(zeros) < 800:
        t_max *= 1.1
        zeros = scan_zeros(t_max, 1e-8)
    return zeros


@functools.lru_cache(maxsize=None)
def _nodes(level: int, sign: float):
    """(x, w) of all the nodes of a quadrature level's side, outward from
    t = 0, each from ``math`` as the package builds them (reference)."""
    from xispec.specfun import quadrature as q

    start, stride, size = q._level_grid(level)
    ts = [sign * (start + stride * k) for k in range(size)]
    x = [math.exp(0.5 * math.pi * math.sinh(t)) for t in ts]
    w = [0.5 * math.pi * math.cosh(t) * x_k for t, x_k in zip(ts, x)]
    return np.array(x), np.array(w)


def march_one(f, tol: float, max_levels: int = 10):
    """One integrand's exp-sinh march, node by node (reference).

    The one-integrand march as it was before the lockstep batch: each
    level walks both sides outward from t = 0 with a Python loop over the
    node contributions, asking f for a block of nodes at a time, sized as
    the package sizes them.  Returns the ``QuadratureResult`` or raises
    the ``DivergenceError`` or ``NonConvergenceError`` that ends the march.
    """
    import math

    import numpy as np

    from xispec.errors import DivergenceError, NonConvergenceError
    from xispec.specfun import QuadratureResult
    from xispec.specfun import quadrature as q

    def march_level(level, blocks):
        sides = []
        for sign, block in zip((1.0, -1.0), blocks):
            size = q._level_grid(level)[2]
            sides.append({"sign": sign, "label": "infinity" if sign > 0 else "zero",
                          "size": size, "block": max(1, min(block, size)), "used": 0,
                          "total": 0.0, "peak": 0.0, "small": 0, "tail": [],
                          "done": False, "error": None, "extra": 0})
        centre = None
        while not all(side["done"] for side in sides):
            live = [side for side in sides if not side["done"]]
            chunks = []
            for side in live:
                x, w = _nodes(level, side["sign"])
                side["x"], side["w"] = x, w
                chunks.append(x[side["used"]:side["used"] + side["block"]])
            first = level == 0 and centre is None
            nodes = np.concatenate(chunks + ([np.ones(1)] if first else []))
            with np.errstate(all="ignore"):
                values = np.asarray(f(nodes))
            if first:
                centre = q._HALF_PI * values[-1].item()
            offset = 0
            for side, chunk in zip(live, chunks):
                vals = values[offset:offset + len(chunk)]
                offset += len(chunk)
                for term in (side["w"][side["used"]:side["used"] + len(vals)] * vals).tolist():
                    mag = abs(term)
                    if not math.isfinite(mag) or mag > q._BLOWUP:
                        side["done"] = True
                        at = float(side["x"][side["used"]])
                        side["error"] = (
                            NonConvergenceError(
                                f"integrand has no value toward {side['label']} at x={at:.3e}")
                            if math.isnan(mag) else DivergenceError(
                                f"integrand not integrable toward {side['label']} "
                                f"(contribution ~{mag:.3e} at x={at:.3e})"))
                        break
                    side["used"] += 1
                    side["total"] += term
                    side["peak"] = max(side["peak"], mag)
                    side["tail"].append(mag)
                    if side["peak"] > 0.0 and mag <= q._TAIL_CUTOFF * side["peak"]:
                        side["small"] += 1
                        if side["small"] >= 2:
                            side["done"] = True
                            break
                    else:
                        side["small"] = 0
                else:
                    if side["used"] == side["size"]:
                        side["done"] = True
                        last, peak, tail = side["tail"][-1], side["peak"], side["tail"]
                        if peak > 0.0 and last > 1e-8 * peak:
                            growing = len(tail) >= 3 and tail[-1] >= tail[-2] >= tail[-3]
                            side["error"] = (
                                DivergenceError(
                                    f"integrand not integrable toward {side['label']} "
                                    f"(contributions still ~{last / peak:.1e} of peak at "
                                    f"the parameter cap)")
                                if growing or last > 1e-2 * peak else NonConvergenceError(
                                    f"integrand tail toward {side['label']} decays too "
                                    f"slowly for the double-exponential parameter range"))
                    else:
                        side["extra"] = max(2 - side["small"], 2 * side["extra"])
                        side["block"] = min(side["extra"], side["size"] - side["used"])
        for side in sides:
            if side["error"] is not None:
                raise side["error"]
        return sides[0]["total"], sides[1]["total"], centre, [s["used"] for s in sides]

    h = q._BASE_STEP
    inf, zero, centre, counts = march_level(0, [q._FIRST_BLOCK, q._FIRST_BLOCK])
    level_sum = h * (centre + inf + zero)
    evaluations = 1 + sum(counts)
    prev = level_sum
    for level in range(1, max_levels + 1):
        prev = level_sum
        h *= 0.5
        inf, zero, _, counts = march_level(
            level, counts if level == 1 else [2 * n - 2 for n in counts])
        evaluations += sum(counts)
        level_sum = 0.5 * prev + h * (inf + zero)
        diff = abs(level_sum - prev)
        floor = 5e-16 * abs(level_sum)
        if diff <= tol * abs(level_sum) or diff <= floor:
            return QuadratureResult(level_sum, max(0.5 * diff, floor), evaluations)
    raise NonConvergenceError(
        f"integrate_semiinfinite: level budget exhausted "
        f"(last change {abs(level_sum - prev):.3e}, tol {tol:g})")
