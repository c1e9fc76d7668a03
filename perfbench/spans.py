"""Timing spans around the calls one xispec module makes into another.

``install`` replaces, in the calling module, each name that module
imported with a wrapper that records a span: name, start, end, parent
span, thread, and the run id shared by every span of one command.  Each
thread keeps its own parent stack.  A span opened on a worker thread
with an empty stack takes as parent the innermost open span of the main
thread, which is where the CLI's thread pools are started and waited on.
Spans stay in memory until ``Tracer.dump`` writes them as JSON lines.

``load`` and ``Layers`` read such a file back and compute self times
(duration minus the union of the child spans' intervals) and counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

# Imaginary-order K switches from its series to the trapezoid above this x
# (specfun.besselk); the benchmark classifies calls by input the same way.
BESSEL_SERIES_X_MAX = 12.0


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _parent(self, ident: int, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        if ident == self._main or not main:
            return None
        try:
            return main[-1]
        except IndexError:  # the main thread closed its span meanwhile
            return None

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            parent = self._parent(ident, stack)
            span_id = next(self._ids)
            stack.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                # Attributes are derived at dump time, off the timed path.
                self.spans.append((span_id, parent, name, start, end, ident,
                                   (attrs, args, result) if attrs and ok else None))
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, ident, extra in self.spans:
                record = {"run": self.run_id, "id": span_id, "parent": parent,
                          "name": name, "start": start, "end": end,
                          "thread": ident}
                if extra is not None:
                    attrs, args, result = extra
                    record.update(attrs(args, result))
                handle.write(json.dumps(record) + "\n")


def _bessel_region(args, result) -> dict:
    order, x = args[0], float(args[1])
    if order.kind.value == "real" or order.magnitude == 0.0:
        return {"region": "real"}
    return {"region": "imag_small_x" if x <= BESSEL_SERIES_X_MAX else "imag_large_x"}


def _quadrature_evals(args, result) -> dict:
    return {"evals": result.evaluations}


def _written_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[-1])}


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call the traced layers are measured at."""
    from xispec import carlson, cli, coupling, hadamard, zeros

    def patch(module, attr, name, attrs=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs))

    patch(zeros, "hardy_z", "specfun.hardy_z")
    patch(zeros, "refine_zero", "zeros.refine_zero")
    patch(cli, "scan_zeros", "zeros.scan_zeros")
    cache = zeros.ZeroCache
    cache.load = classmethod(
        tracer.wrap("zeros.cache.load", cache.__dict__["load"].__func__))
    cache.save = tracer.wrap("zeros.cache.save", cache.save)
    patch(coupling, "bessel_k_with_error", "specfun.bessel_k", _bessel_region)
    patch(coupling, "integrate_semiinfinite", "specfun.quadrature", _quadrature_evals)
    patch(coupling, "norm_integral_quadrature", "coupling.norm_integral")
    patch(hadamard, "paired_product", "hadamard.paired_product")
    patch(cli, "xi", "specfun.xi")
    patch(carlson, "xi", "specfun.xi")
    patch(cli, "fitted_misfit", "hadamard.fitted_misfit")
    for attr in sorted(vars(cli)):
        if attr.startswith(("audit_", "write_")):
            fn = getattr(cli, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            patch(cli, attr, f"{layer}.{attr}",
                  _written_bytes if attr.startswith("write_") else None)


def load(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Layers:
    """Per-name aggregates over the spans of one traced command."""

    def __init__(self, records: list[dict]) -> None:
        self.by_id = {r["id"]: r for r in records}
        self.by_name = defaultdict(list)
        children = defaultdict(list)
        for r in records:
            self.by_name[r["name"]].append(r)
            if r["parent"] is not None:
                children[r["parent"]].append((r["start"], r["end"]))
        self.self_s = {
            r["id"]: (r["end"] - r["start"])
            - _covered(children.get(r["id"], []), r["start"], r["end"])
            for r in records
        }

    def named(self, name: str) -> list[dict]:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total_self_s(self, name: str) -> float:
        return sum(self.self_s[r["id"]] for r in self.named(name))

    def total_s(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.named(name))

    def has_ancestor(self, record: dict, name: str) -> bool:
        parent = record["parent"]
        while parent is not None:
            up = self.by_id[parent]
            if up["name"] == name:
                return True
            parent = up["parent"]
        return False
