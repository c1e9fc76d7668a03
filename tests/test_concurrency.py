"""Reentrancy checks: concurrent callers get the serial values, and the
special functions keep no table that a call grows."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import xispec
from xispec.specfun import RS_MIN_T, hardy_z, xi, zeta


def test_concurrent_zeta_matches_serial():
    # Heights from 0.25 to 395.25: truncation points N from 25 to 262.
    points = [complex(0.5, 5.0 * k + 0.25) for k in range(80)]
    serial = [zeta(s) for s in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(zeta, points))
    assert threaded == serial


def test_concurrent_xi_matches_serial():
    points = [complex(0.3 + 0.01 * k, 2.0 + k) for k in range(24)]
    serial = [xi(s) for s in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(xi, points))
    assert threaded == serial


def test_concurrent_riemann_siegel_matches_serial():
    # Riemann-Siegel heights whose main sums take up to 57 terms, first in
    # scalar calls, then in array calls of 8 heights each.
    heights = [RS_MIN_T + 250.0 * k + 0.125 for k in range(80)]
    arrays = [np.array(heights[k : k + 8]) for k in range(0, len(heights), 8)]
    serial = [hardy_z(t) for t in heights]
    serial_arrays = [hardy_z(t).tolist() for t in arrays]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(hardy_z, heights, timeout=60))
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded_arrays = [v.tolist() for v in pool.map(hardy_z, arrays, timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert threaded_arrays == serial_arrays
    flat = np.concatenate(serial_arrays)
    assert np.abs(flat - np.array(serial)).max() <= 1e-12


# Keeps every module-level value of the specfun modules, runs calls that
# would grow a table kept between calls, and prints each name rebound,
# added or removed.  Compared with ``is``: an id can be reused once its
# object is freed.
_MODULE_STATE = """
import importlib
import numpy as np
from xispec.cli import EQ5_ORDERS
from xispec.coupling import audit_eq5
from xispec.specfun import hardy_z, zeta
from xispec.zeros import scan_zeros
modules = [importlib.import_module("xispec.specfun." + name)
           for name in ("xi", "zeta", "quadrature", "besselk", "gamma")]
before = [dict(vars(module)) for module in modules]
scan_zeros(5003.123, 1e-6)
zeta(0.5 + 3000j)
hardy_z(np.array([4.9e5]))
audit_eq5(list(EQ5_ORDERS))
for module, old in zip(modules, before):
    new = vars(module)
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new or old[name] is not new[name]:
            print(module.__name__, name)
"""


def test_specfun_calls_rebind_no_module_name():
    # A fresh interpreter, so that no earlier call has grown a table already.
    src = str(Path(xispec.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _MODULE_STATE], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
