"""Report the ROADMAP item 3 defect: the pool entries outside the workloads.

    python3 perfbench/defects.py

Run from the root of a zetawave checkout.  Runs, once each in one worker,
every boundary and converge entry of perfbench/reference.json that lies
outside the package's accuracy regime (workloads.in_regime), checks each
answer against its mpmath reference and prints one line per entry, then
how many failed.  The benchmark's `boundary` workload leaves these entries
out because the package returns, with exit code 0, values its own error
control cannot back there; a change that fixes the defect shows here as
entries that pass, and can then widen in_regime.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from checks import Checker
from run import HERE, Client
from workloads import boundary_pool


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "zetawave" / "cli.py").is_file():
        print(f"error: {root} is not a zetawave checkout (no src/zetawave/cli.py)", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    checker = Checker(reference)
    requests = boundary_pool(reference, regime=False)
    failed = 0
    with Client(root) as client:
        for req in requests:
            reply = client.run(req)
            verdict = checker.check(req, reply["rc"], reply["out"])
            failed += not verdict.ok
            status = "pass" if verdict.ok else f"FAIL {verdict.reason}"
            print(f"{req.ref:10s} {reply['elapsed']:8.3f} s  {status}  {' '.join(req.argv[1:])}")
    print(f"{failed} of {len(requests)} out-of-regime entries fail their mpmath reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
