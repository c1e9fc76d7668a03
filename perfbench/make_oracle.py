"""Freeze the benchmark's reference data with mpmath.

Run from the repository root:

    python3 perfbench/make_oracle.py

It writes ``perfbench/oracle.json`` with

* ``first``: the ordinates of the first ``FIRST_COUNT`` zeta zeros,
  ``mpmath.zetazero(n)`` for n = 1 .. FIRST_COUNT;
* ``window``: ``mpmath.nzeros(WINDOW_LO)`` and the ordinates of every zero
  from that index on up to the first one above ``WINDOW_HI``.

Together they give N(T) exactly for any T <= first[-1] or
WINDOW_LO <= T <= WINDOW_HI, and the reference ordinate of every zero
there.  The benchmark itself only reads the JSON file; mpmath is needed
only to regenerate it.
"""

from __future__ import annotations

import json
import os

import mpmath

FIRST_COUNT = 800
WINDOW_LO = 4950.0
WINDOW_HI = 5050.0
DPS = 25

HERE = os.path.dirname(os.path.abspath(__file__))


def ordinate(n: int) -> float:
    return float(mpmath.zetazero(n).imag)


def main() -> None:
    mpmath.mp.dps = DPS
    first = [ordinate(n) for n in range(1, FIRST_COUNT + 1)]
    base = int(mpmath.nzeros(WINDOW_LO))
    window = []
    n = base + 1
    while not window or window[-1] <= WINDOW_HI:
        window.append(ordinate(n))
        n += 1
    if window[0] <= WINDOW_LO:
        raise SystemExit(f"nzeros({WINDOW_LO}) disagrees with zetazero({base + 1})")
    # Cross-check the counts the benchmark derives against mpmath directly.
    for t in (WINDOW_LO + 37.5, WINDOW_HI):
        derived = base + sum(1 for g in window if g <= t)
        if derived != int(mpmath.nzeros(t)):
            raise SystemExit(f"derived N({t}) = {derived} disagrees with mpmath")
    payload = {
        "source": f"mpmath {mpmath.__version__}, mp.dps = {DPS}",
        "first": first,
        "window": {"lo": WINDOW_LO, "hi": WINDOW_HI, "count_below_lo": base,
                   "ordinates": window},
    }
    with open(os.path.join(HERE, "oracle.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
