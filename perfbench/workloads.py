"""Seeded request lists for the benchmark workloads.

A request is one `zetawave` command line.  A workload's requests come in
passes; a pass is the workload's full request list.  Passes are built from
a fixed template with seeded details, so every seed asks for the same mix
of work and the seed changes which inputs carry it (for boundary and
verify, only their order):

* scan-limit / scan-finite: a pass partitions (0.1, 120] into windows.
  The cuts sit at evenly spaced gaps between consecutive zeta zeros, each
  moved by a seeded -1, 0 or +1 gap and placed at a seeded point in the
  middle of its gap; windows keep at least two zeros (the first window
  excepted) and every zero sits well inside its window.  Finite-mode
  windows take lambda in [12, 16] and a level n in [0, 300] from seeded
  strata, so each pass spans the same spread of both, with
  delta = (2n+1) e^{-lambda} <= 2.5e-3 and delta |K| <= 0.02 for every
  zero in the window, where rho + delta K is the zero's first-order
  position under the squeeze.  Past that displacement the scan's minimum
  test starts to miss zeros (measured: delta |K| ~ 0.05 near t = 100 lost
  one zero of three).
* boundary: every entry of the reference pool (perfbench/reference.json)
  that lies inside the package's accuracy regime (in_regime), each pass
  in a seeded order.  The entries outside it are the ROADMAP item 3
  defect, where the package returns values its own error control cannot
  back; perfbench/defects.py runs and reports those.
* verify: the 21 named checks, one `verify --only NAME` each, in a seeded
  order.

The seed is the only source of variation; the package sees only the
generated argument lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

WORKLOADS = ("scan-limit", "scan-finite", "boundary", "verify")

SCAN_LO = 0.1
SCAN_HI = 120.0
FINITE_LAMBDA = (12.0, 16.0)
FINITE_N_MAX = 300
FINITE_SHIFT_MAX = 2.5e-3  # (2n+1) e^{-lambda}
FINITE_DISPLACEMENT_MAX = 0.02  # (2n+1) e^{-lambda} |K| for the window's zeros
WINDOWS_PER_PASS = {"scan-limit": 8, "scan-finite": 12}
# The checker's tolerance on the eta-normalized scale, and the package's own
# absolute floor of the outer boundary integral on that scale.
ETA_SCALE_TOL = 1e-6
QUAD_NOISE = 4e-16

VERIFY_CHECKS = (
    "laguerre-recurrence", "chi-orthonormality", "eta-zeta-consistency",
    "eta-alternating-agreement", "gamma-functional-equation", "quad-linearity",
    "quad-doubling-error", "quad-tail-honesty", "squeeze-unitarity",
    "mehler-equivalence", "overlap-limit-rate", "boundary-factorization",
    "confined-boundary-consistency", "varphi-branch-continuity",
    "zero-step-invariance", "zero-residual-bounds", "zero-isolation",
    "finite-limit-count-match", "eta-naive-agreement",
    "number-operator-eigenvalues", "bk-operator-eigenvalues",
)


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the checker needs to judge its output."""

    argv: Tuple[str, ...]
    kind: str
    ref: Optional[str] = None  # pool id (boundary, converge) or check name (verify)
    window: Optional[Tuple[float, float]] = None
    lam: float = 12.0
    n: int = 0


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _scan_request(lo: float, hi: float, mode: str, lam: float = 12.0, n: int = 0) -> Request:
    argv = ["scan", "--t", f"{_fmt(lo)}:{_fmt(hi)}"]
    if mode == "finite":
        argv += ["--mode", "finite", "--lambda", f"{lam:g}", "--n", str(n)]
    # the checker reads the window back as the CLI parses it
    window = (float(_fmt(lo)), float(_fmt(hi)))
    return Request(tuple(argv), f"scan-{mode}", window=window, lam=lam, n=n)


def _cut_points(rng: random.Random, zeros: List[float], cuts: int) -> List[float]:
    edges = [SCAN_LO] + zeros
    gaps = len(edges) - 1
    template = [round(gaps * (k + 1) / (cuts + 1)) for k in range(cuts)]
    while True:
        chosen = [min(max(g + rng.choice((-1, 0, 1)), 0), gaps - 1) for g in template]
        if all(b - a >= 2 for a, b in zip(chosen, chosen[1:])):
            break
    return [edges[g] + (edges[g + 1] - edges[g]) * rng.uniform(0.3, 0.7) for g in chosen]


def _strata(rng: random.Random, count: int) -> List[float]:
    """One seeded point in each of `count` equal slices of [0, 1), shuffled."""
    points = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(points)
    return points


def finite_level(lam_frac: float, n_frac: float, shift_max: float) -> Tuple[float, int]:
    """(lambda, n) at the given strata, with the zero displacement bounded.

    n is skewed low (n_frac squared); shift_max is the largest |K| among
    the window's zeros.
    """
    lam = round(FINITE_LAMBDA[0] + (FINITE_LAMBDA[1] - FINITE_LAMBDA[0]) * lam_frac, 2)
    delta_max = min(FINITE_SHIFT_MAX, FINITE_DISPLACEMENT_MAX / max(shift_max, 1.0))
    n_cap = min(FINITE_N_MAX, int((delta_max * math.exp(lam) - 1.0) / 2.0))
    return lam, int(n_cap * n_frac ** 2)


def _scan_pass(rng: random.Random, workload: str, zeros: List[dict]) -> List[Request]:
    windows = WINDOWS_PER_PASS[workload]
    heights = [float(z["t"]) for z in zeros]
    cuts = [SCAN_LO] + _cut_points(rng, heights, windows - 1) + [SCAN_HI]
    lam_fracs, n_fracs = _strata(rng, windows), _strata(rng, windows)
    requests = []
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if workload == "scan-limit":
            requests.append(_scan_request(lo, hi, "limit"))
        else:
            shifts = [abs(complex(float(z["shift"][0]), float(z["shift"][1])))
                      for z in zeros if lo < float(z["t"]) < hi]
            lam, n = finite_level(lam_fracs[k], n_fracs[k], max(shifts, default=0.0))
            requests.append(_scan_request(lo, hi, "finite", lam, n))
    rng.shuffle(requests)
    return requests


def boundary_request(entry: dict) -> Request:
    argv = ["boundary", "--t", ",".join(entry["t"]), "--x", ",".join(entry["x"]),
            "--y", ",".join(entry["y"]), "--lambda", ",".join(entry["lambda"]),
            "--n", str(entry["n"]), "--variant", entry["variant"]]
    return Request(tuple(argv), "boundary:" + entry["kind"], ref=entry["id"])


def converge_request(entry: dict) -> Request:
    argv = ["converge", "--t", entry["t"], "--lambda", ",".join(entry["lambda"]),
            "--n", str(entry["n"]), "--variant", entry["variant"]]
    return Request(tuple(argv), "converge", ref=entry["id"])


def quadrature_floor(t: float) -> float:
    """The package's own eta-scale accuracy floor at s = 1/2 + it."""
    return QUAD_NOISE * (1.0 + abs(t) / 10.0) * math.sqrt(math.cosh(math.pi * t) / math.pi)


def floor_bound(t: float) -> bool:
    """True where that floor already exceeds the checker's tolerance (t > ~13.8)."""
    return quadrature_floor(t) > ETA_SCALE_TOL


def in_regime(entry: dict) -> bool:
    """Whether the package can back a reference pool entry to ETA_SCALE_TOL.

    Outside lies the ROADMAP item 3 defect: x = 0 values past the
    quadrature floor (the package clamps its tolerance to the floor and
    returns a number anyway), and x > 0 values with y > 0 (the direct
    level sum underflows and returns 0).  Limit-variant samples need no
    quadrature and are always inside.
    """
    if entry["variant"] == "limit":
        return True
    ts = entry["t"] if isinstance(entry["t"], list) else [entry["t"]]  # converge has one t
    if any(float(x) > 0.0 for x in entry.get("x", ["0"])):
        return not any(float(y) > 0.0 for y in entry["y"])
    return not any(floor_bound(float(t)) for t in ts)


def boundary_pool(reference: dict, regime: bool = True) -> List[Request]:
    """The boundary and converge pool entries inside (or outside) the regime."""
    requests = [boundary_request(e) for e in reference["boundary"]
                if e["kind"] != "probe" and in_regime(e) == regime]
    requests += [converge_request(e) for e in reference["converge"] if in_regime(e) == regime]
    return requests


def cold_request(workload: str, reference: dict) -> Request:
    """The fixed first request of every fresh process (same for every seed)."""
    if workload == "scan-limit":
        return _scan_request(SCAN_LO, 50.0, "limit")
    if workload == "scan-finite":
        return _scan_request(SCAN_LO, 50.0, "finite", 12.0, 0)
    if workload == "boundary":
        probe = [e for e in reference["boundary"] if e["kind"] == "probe"][0]
        return boundary_request(probe)
    if workload == "verify":
        return Request(("verify",), "verify", ref=None)
    raise ValueError(f"unknown workload {workload!r}")


def build_passes(workload: str, seed: int, count: int, reference: dict) -> List[List[Request]]:
    """`count` passes of the workload's request list, all determined by `seed`.

    Scan passes are fresh partitions; boundary and verify passes repeat one
    request set.  Each pass has its own seeded order.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("scan-limit", "scan-finite"):
        return [_scan_pass(rng, workload, reference["zeros"]) for _ in range(count)]
    if workload == "boundary":
        pool = boundary_pool(reference)
    else:
        pool = [Request(("verify", "--only", name), "verify", ref=name) for name in VERIFY_CHECKS]
    passes = []
    for _ in range(count):
        requests = list(pool)
        rng.shuffle(requests)
        passes.append(requests)
    return passes
