"""One benchmark client process: imports zetawave, then serves requests.

    python3 perfbench/worker.py SRC_DIR

Set-up ends when `import zetawave` returns; the worker then writes one
`ready` line, so the parent's clock from spawn to that line is the
interpreter's set-up time.  Afterwards it reads JSON commands from stdin,
one per line, and answers each with one JSON line on stdout:

    {"op": "run", "argv": [...]}  -> {"rc", "out", "err", "elapsed"}
    {"op": "calibrate"}           -> {"seconds"} of one fixed calibration kernel
    {"op": "trace"}               -> installs the spans (perfbench/tracer.py)
    {"op": "report"}              -> peak RSS, machine record, trace summary

Each request runs `zetawave.cli.main(argv)` in process with stdout and
stderr captured; `elapsed` is the wall time of that call alone.
"""

import sys

sys.path.insert(0, sys.argv[1])
import zetawave  # noqa: E402  (set-up ends here)

sys.stdout.write('{"ready": true}\n')
sys.stdout.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from zetawave import cli  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def calibrate() -> float:
    """Time a fixed kernel that does not touch zetawave.

    It mixes what the package's requests spend their time on: an
    interpreter-bound loop and small complex numpy products and cumulative
    sums.  Its time tracks how fast the shared machine is running now.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += (i % 7) * 0.5
    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 300)) + 0j
    v = rng.standard_normal(300) + 0j
    for _ in range(300):
        v = a @ v
        v /= np.abs(v).max()
        w = np.cumsum(v)
        w = 0.5 * (w[:-1] + w[1:])
    return time.perf_counter() - start


def run(argv, tracer, request_id):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                rc = tracer.request(request_id, cli.main, list(argv))
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed request, not a dead client
            rc = -1
            err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "elapsed": elapsed}


def main() -> None:
    tracer = None
    request_id = 0
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["op"] == "run":
            reply = run(msg["argv"], tracer, request_id)
            request_id += 1
        elif msg["op"] == "calibrate":
            reply = {"seconds": calibrate()}
        elif msg["op"] == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            reply = {"tracing": True}
        elif msg["op"] == "report":
            reply = {
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "machine": machine(),
                "trace": tracer.summary() if tracer else None,
                "spans": tracer.spans if tracer and msg.get("spans") else None,
            }
        else:
            reply = {"error": f"unknown op {msg['op']!r}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
