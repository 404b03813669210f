"""Seeded end-to-end benchmark of the zetawave CLI.

    python3 perfbench/run.py --workload scan-limit --seed 1 --seconds 40 --trace 0

Run from the root of a zetawave checkout.  One closed-loop client sends
one request at a time, each a `zetawave` command line run in process by a
fresh worker (perfbench/worker.py), and checks every answer against the
mpmath references in perfbench/reference.json.  See perfbench/README.md
for the workloads, the metrics and how to read them.

With --trace 0 the run measures for --seconds: PROBE_SESSIONS fresh
workers each report their set-up time and run the cold probe, then one
warm worker cycles through the workload's passes until the time is up
(see measure()).  With --trace 1 one worker runs a fixed number of passes
untraced, then the same passes with spans on, and reports per-layer self
times and work counts.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Details
(machine record, every failure, the trace) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

from checks import Checker
from workloads import VERIFY_CHECKS, WORKLOADS, Request, build_passes, cold_request

HERE = Path(__file__).resolve().parent
PROBE_SESSIONS = 8
# The calibration kernel's time at the reference speed (its least warm time
# on the 2-CPU machine of the baseline in README.md); reported times are
# scaled to it.
CAL_REF_S = 0.026
# Calibration slots per pass: the warm worker times the kernel at these
# fixed places in every pass, so each slot repeats as often as a request
# does and the kernel takes about a tenth of the run.
CAL_SLOTS = {"scan-limit": 1, "scan-finite": 3, "boundary": 10, "verify": 2}
# Distinct passes a run cycles through; every request repeats several times
# in a run, so each one's best time can be taken.
DISTINCT_PASSES = {"scan-limit": 12, "scan-finite": 4, "boundary": 1, "verify": 1}
TRACE_PASSES = {"scan-limit": 24, "scan-finite": 8, "boundary": 4, "verify": 10}
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = [
    ("setup_s", "s"), ("cold_s", "s"), ("wall_s", "s"), ("request_s.p50", "s"),
    ("request_s.p90", "s"), ("peak_rss_mb", "MB"),
]


SELF_TIMED = (
    "specfun.eta", "specfun.eta_grid", "spectra.scan_zeros", "waveform.bare_overlaps",
    "waveform.euler", "waveform.psi_boundary", "waveform.boundary_eta_scale",
    "waveform.inner_profile", "specfun.chi", "specfun.bessel_i0_scaled", "specfun.gamma_complex",
    "waveform.psi_full", "waveform.tilde_expansion_check", "spectra.convergence_study",
    "waveform.mehler_series", "quad.integrate_halfline",
)
COUNTS = (
    "specfun.eta.calls", "specfun.eta_grid.points", "spectra.grid_points", "spectra.newton_iters",
    "spectra.zeros", "waveform.bare_overlaps.calls", "waveform.euler.terms",
    "waveform.psi_boundary.calls", "waveform.psi_boundary.unbacked", "specfun.chi.elements",
    "specfun.bessel_i0_scaled.elements", "specfun.gamma_complex.calls", "waveform.psi_full.calls",
    "waveform.mehler_series.terms", "quad.integrate_halfline.calls",
    "quad.integrate_halfline.panels", "oracles.eta_naive.calls",
    "specfun.eta.failed", "specfun.eta_grid.failed", "spectra.scan_zeros.failed",
    "waveform.psi_boundary.failed", "waveform.psi_full.failed", "spectra.convergence_study.failed",
)


def per_layer_names() -> List[tuple]:
    """The per-layer metrics of the result line, in BENCHMARK.json order.

    A layer that a workload bypasses has a self time of exactly 0 on every
    run, which the result line must not carry as a time; so the line holds
    the exact counts and the two times every workload has, and the self
    times of single layers go to the printed table and the trace file.
    """
    return ([("cli.self_s", "s"), ("trace.overhead_s", "s")]
            + [(name, "count") for name in COUNTS])


def layer_table_names() -> List[tuple]:
    """Every per-layer metric the traced run prints and writes."""
    return (per_layer_names()
            + [(f"{span}.self_s", "s") for span in SELF_TIMED]
            + [("oracles.self_s", "s")]
            + [(f"verify.{name}.s", "s") for name in VERIFY_CHECKS])


class Client:
    """A fresh worker process; set-up time is spawn until its ready line."""

    def __init__(self, root: Path):
        env = dict(os.environ, **THREADS)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(root / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True, cwd=root,
        )
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not ready.startswith('{"ready"'):
            self.close()
            raise RuntimeError("worker failed to import zetawave")

    def call(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, req: Request) -> dict:
        return self.call({"op": "run", "argv": list(req.argv)})

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Ledger:
    """Every request's verdict, for the attempted/failed counts."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.verdicts: list = []

    def record(self, req: Request, reply: dict) -> float:
        verdict = self.checker.check(req, reply["rc"], reply["out"])
        self.verdicts.append((req, verdict))
        return reply["elapsed"]

    def run_pass(self, client: Client, requests: List[Request]) -> List[float]:
        return [self.record(r, client.run(r)) for r in requests]

    def failures(self) -> list:
        return [{"request": " ".join(r.argv), "ref": r.ref, "reason": v.reason}
                for r, v in self.verdicts if not v.ok]

    def result(self, metrics: dict) -> dict:
        failures = self.failures()
        return {
            "correct": not failures,
            "attempted": len(self.verdicts),
            "failed": len(failures),
            "metrics": metrics,
        }


def measure(root: Path, workload: str, seed: int, seconds: float, reference: dict):
    """Cold probes in fresh workers, then one warm worker until time is up.

    Each of PROBE_SESSIONS fresh workers gives one set-up time and one cold
    probe.  The warm worker runs the cold probe, then cycles through the
    workload's distinct passes, so every request repeats several times,
    spread over the run; a request's latency is the least of its times.

    Times are scaled to the reference speed CAL_REF_S of a fixed
    calibration kernel (worker.calibrate): set-up and cold times by the
    kernel's time in the same fresh worker, warm latencies by the median
    over the warm worker's calibration slots (CAL_SLOTS fixed places in
    each distinct pass) of each slot's least time.  A slot repeats as
    often as a request does, so its least time is the same statistic as a
    request's latency, taken at the same spread of moments.  The shared
    machine's speed drifts by tens of percent over tens of seconds; the
    scaling cancels most of the drift between runs and the least time most
    of the drift within one.
    """
    ledger = Ledger(Checker(reference))
    passes = build_passes(workload, seed, DISTINCT_PASSES[workload], reference)
    cold = cold_request(workload, reference)
    start = time.perf_counter()
    setups, colds = [], []

    def fresh(client: Client) -> None:
        cold_s = ledger.record(cold, client.run(cold))
        client.call({"op": "calibrate"})  # the first call pays numpy's own warm-up
        scale = CAL_REF_S / client.call({"op": "calibrate"})["seconds"]
        setups.append(client.setup_s * scale)
        colds.append(cold_s * scale)

    for _ in range(PROBE_SESSIONS):
        with Client(root) as client:
            fresh(client)
    times: dict = {}  # request -> its raw times
    cal_times: dict = {}  # (distinct pass, place) -> the kernel's times there
    executed: List[List[str]] = []
    with Client(root) as client:
        fresh(client)
        while time.perf_counter() < start + seconds or len(executed) < len(passes):
            index = len(executed) % len(passes)
            requests = passes[index]
            slots = {len(requests) * j // CAL_SLOTS[workload] for j in range(CAL_SLOTS[workload])}
            for i, req in enumerate(requests):
                if len(executed) >= len(passes) and time.perf_counter() >= start + seconds:
                    break  # time is up mid-pass; a partial pass adds no latencies
                if i in slots:
                    cal_times.setdefault(f"{index}:{i}", []).append(
                        client.call({"op": "calibrate"})["seconds"])
                elapsed = ledger.record(req, client.run(req))
                times.setdefault(" ".join(req.argv), []).append(elapsed)
            else:
                executed.append([" ".join(r.argv) for r in requests])
        report = client.call({"op": "report"})
    best = {key: min(ts) for key, ts in times.items()}
    scale = CAL_REF_S / statistics.median(min(ts) for ts in cal_times.values())
    latencies = [best[key] * scale for keys in executed for key in keys]
    deciles = statistics.quantiles(latencies, n=10)
    values = {
        "setup_s": statistics.median(setups),
        "cold_s": statistics.median(colds),
        "wall_s": statistics.fmean(sum(best[" ".join(r.argv)] for r in requests)
                                   for requests in passes) * scale,
        "request_s.p50": statistics.median(latencies),
        "request_s.p90": deciles[8],
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {
        "probe_sessions": PROBE_SESSIONS, "passes": len(executed), "requests": len(latencies),
        "distinct_requests": len(best), "scale": scale,
        "beyond_p90": sum(1 for x in latencies if x > deciles[8]),
        "setup_s": setups, "cold_s": colds, "calibration_s": cal_times, "times_s": times,
    }
    return ledger, metrics, report["machine"], detail


def trace(root: Path, workload: str, seed: int, reference: dict, passes=None):
    """Run the passes untraced, then traced, in one warm worker."""
    ledger = Ledger(Checker(reference))
    if passes is None:
        passes = build_passes(workload, seed, TRACE_PASSES[workload], reference)
    cold = cold_request(workload, reference)
    with Client(root) as client:
        ledger.record(cold, client.run(cold))
        plain = sum(sum(ledger.run_pass(client, p)) for p in passes)
        client.call({"op": "trace"})
        traced = sum(sum(ledger.run_pass(client, p)) for p in passes)
        report = client.call({"op": "report", "spans": True})
    summary = report["trace"]
    table = {name: {"value": layer_value(name, summary, traced - plain), "unit": unit}
             for name, unit in layer_table_names()}
    metrics = {name: table[name] for name, _ in per_layer_names()}
    detail = dict(summary, passes=len(passes), untraced_wall_s=plain, traced_wall_s=traced,
                  spans=len(report["spans"]), layers=table)
    return ledger, metrics, report["machine"], detail, report["spans"]


def layer_value(name: str, summary: dict, overhead: float) -> float:
    """One per-layer metric from the trace summary (self times, span calls, counts)."""
    self_s, calls = summary["self_s"], summary["calls"]
    if name == "cli.self_s":
        return self_s.get("cli.main", 0.0)
    if name == "trace.overhead_s":
        return overhead
    if name == "oracles.self_s":
        return sum(v for k, v in self_s.items() if k.startswith("oracles."))
    if name.startswith("verify.") and name.endswith(".s"):
        return summary["total_s"].get(name[: -len(".s")], 0.0)
    if name.endswith(".self_s"):
        return self_s.get(name[: -len(".self_s")], 0.0)
    if name.endswith(".calls"):
        return calls.get(name[: -len(".calls")], 0)
    return summary["counts"].get(name, 0)


def source_record(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "zetawave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="zetawave CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zetawave" / "cli.py").is_file():
        print(f"error: {root} is not a zetawave checkout (no src/zetawave/cli.py)", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())

    if args.trace:
        ledger, metrics, machine, detail, spans = trace(root, args.workload, args.seed, reference)
    else:
        ledger, metrics, machine, detail = measure(root, args.workload, args.seed, args.seconds,
                                                   reference)
        spans = None
    machine.update(source_record(root), workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace)
    result = ledger.result(metrics)
    failures = ledger.failures()

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"machine": machine, "result": result, "detail": detail, "failures": failures}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(out_dir / f"{stem}-spans.jsonl", "w") as fh:
            for name, start, end, parent, request in spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")

    print("machine " + json.dumps(machine, sort_keys=True))
    for name, metric in detail.get("layers", metrics).items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"{'fail_frac':42s} {fail_frac:.6g} ratio ({result['failed']}/{result['attempted']})")
    for failure in failures:
        print(f"failed {failure['ref'] or ''} {failure['request']}: {failure['reason']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
