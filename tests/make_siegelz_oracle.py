"""Write tests/data/siegelz_oracle.json: mpmath's Z(t) at seeded heights.

    python tests/make_siegelz_oracle.py

The heights are ``oracle_heights()``: 2,000 uniform draws on [200, 6000]
from random.Random(1979), then 200 and 800 -+ 1e-9.  Each value is
mpmath.siegelz at 20 significant digits, rounded to a double; at about
30 ms a call the table takes a minute, too long to recompute in the suite.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PATH = Path(__file__).with_name("data") / "siegelz_oracle.json"


def oracle_heights() -> list[float]:
    rng = random.Random(1979)
    heights = [rng.uniform(200.0, 6000.0) for _ in range(2000)]
    return heights + [200.0, 800.0 - 1e-9, 800.0 + 1e-9]


def siegelz(t: float) -> float:
    import mpmath as mp

    with mp.workdps(20):
        return float(mp.siegelz(t))


def main() -> None:
    rows = [[t, siegelz(t)] for t in oracle_heights()]
    PATH.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")


if __name__ == "__main__":
    main()
