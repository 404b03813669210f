"""Write tests/data/level_sum_references.json with mpmath alone.

    python3 tests/data/make_level_sum_references.py

Run from the root of a zetawave checkout.  Each entry is the boundary
value of the original variant at lambda = 8 divided by varphi_zero(s),
sum_m A_m chi_m(Y) (m+1)^{-s} with Y = e^8 y, from
perfbench/make_reference.py's level_sum_mellin at the precision its
_digits_for sets.  y is the double nearest Y e^-8 for the listed Y, so the
reference and the package see the same argument.  The points reach the
level sum's depth hazard: at Y = 300, t = 2 a row at eta's own depth
settles on a value that is all error.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import mpmath as mp  # noqa: E402
from make_reference import _digits_for, level_sum_mellin  # noqa: E402

LAM = 8.0
POINTS = [(Y, t, n) for Y in (0.3, 30.0, 100.0, 300.0, 355.5) for t in (2.0, 10.0) for n in (0, 2)]


def main() -> int:
    rows = []
    for Y, t, n in POINTS:
        y = Y * math.exp(-LAM)
        mp.mp.dps = _digits_for(t)
        value = level_sum_mellin(mp.mpc(0.5, t), mp.mpf(y), n, mp.mpf(LAM), "original")
        rows.append({"y": repr(y), "t": t, "n": n, "lam": LAM,
                     "value": [mp.nstr(value.real, 25), mp.nstr(value.imag, 25)]})
        print(f"Y = {Y:g}, t = {t:g}, n = {n}: {mp.nstr(value, 17)}", flush=True)
    out = Path(__file__).resolve().parent / "level_sum_references.json"
    out.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
