"""Reentrancy checks: shared caches must not corrupt concurrent callers."""

import importlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from xispec.specfun import RS_MIN_T, hardy_z, xi, zeta
from xispec.specfun.zeta import _logs_up_to

# The package re-exports the function xi, which hides the module's name.
xi_module = importlib.import_module("xispec.specfun.xi")


def test_concurrent_zeta_matches_serial():
    # Heights chosen to force the shared log-table cache to grow midway.
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


def test_log_table_growth_is_consistent():
    table = _logs_up_to(5000)
    assert table.size == 5000
    assert table[0] == 0.0
    smaller = _logs_up_to(10)
    assert smaller.size == 10
    assert (smaller == table[:10]).all()


def test_concurrent_riemann_siegel_matches_serial(monkeypatch):
    # Riemann-Siegel heights whose main sums (up to 57 terms) outgrow the
    # 16-entry n-table twice while the threads run, first in scalar calls,
    # then in array calls of 8 heights each.
    heights = [RS_MIN_T + 250.0 * k + 0.125 for k in range(80)]
    arrays = [np.array(heights[k : k + 8]) for k in range(0, len(heights), 8)]
    small = xi_module._RS_TERMS[:16]
    monkeypatch.setattr(xi_module, "_RS_TERMS", small)
    serial = [hardy_z(t) for t in heights]
    monkeypatch.setattr(xi_module, "_RS_TERMS", small)
    serial_arrays = [hardy_z(t).tolist() for t in arrays]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(xi_module, "_RS_TERMS", small)
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(hardy_z, heights, timeout=60))
        monkeypatch.setattr(xi_module, "_RS_TERMS", small)
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded_arrays = [v.tolist() for v in pool.map(hardy_z, arrays, timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert threaded_arrays == serial_arrays
    flat = np.concatenate(serial_arrays)
    assert np.abs(flat - np.array(serial)).max() <= 1e-12
    assert len(xi_module._RS_TERMS) >= int(math.sqrt(heights[-1] / (2 * math.pi)))
