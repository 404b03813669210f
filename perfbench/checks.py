"""Judge one CLI output against the mpmath references.

Every check reads only the text the CLI printed and the committed
reference data; nothing here calls zetawave.

A request fails when it exits non-zero or when its output misses the
reference:

* scans: exactly the reference zeros inside the window, in order.  Limit
  mode needs converged=true and |t - t_ref| <= 1e-8.  A finite squeeze
  moves each zero rho to rho + delta K + O(delta^2), delta = (2n+1)
  e^{-lambda}, with K from mpmath; finite mode needs
  |t - t_ref - delta Im K| <= 10 (delta |K|)^2 + 1e-9.  Its zeros sit off
  the line by delta Re K, so converged=false is its documented floor, not
  a failure.
* boundary rows: |psi - psi_ref| <= 1e-6 times the row's natural scale,
  |varphi_zero(s)| at x = 0 and |x^{-s}| / sqrt(2 pi) at x > 0.  That is
  an absolute 1e-6 on the eta-normalized scale the package itself
  controls, 1000 times its default quadrature target of 1e-9.
* converge: each row's value and reference columns as above, and the
  fitted slope within 0.05 (original, tilde) or 0.2 (tilde-corrected) of
  the slope of the mpmath errors, which is -1 or -2 up to O(e^{-lambda}).
* verify: every reported check passes.

The workloads ask only for values inside the package's accuracy regime
(workloads.in_regime), so every failure makes the run incorrect.
"""

from __future__ import annotations

import csv
import math
from typing import List, Tuple

from workloads import ETA_SCALE_TOL, Request

LIMIT_ZERO_TOL = 1e-8
FINITE_SECOND_ORDER = 10.0
SLOPE_TOL = {"original": 0.05, "tilde": 0.05, "tilde-corrected": 0.2}


class Verdict:
    """Outcome of one request: ok, or failed with a reason."""

    def __init__(self, ok: bool, reason: str = ""):
        self.ok = ok
        self.reason = reason

    def __repr__(self) -> str:
        return "ok" if self.ok else f"FAIL({self.reason})"


def _csv_body(text: str, header: str) -> Tuple[List[List[str]], List[str]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config "):
        raise ValueError("missing '# config' echo line")
    if len(lines) < 2 or lines[1] != header:
        raise ValueError(f"unexpected header {lines[1:2]}")
    rows, comments = [], []
    for line in lines[2:]:
        (comments if line.startswith("#") else rows).append(line)
    return list(csv.reader(rows)), comments


class Checker:
    def __init__(self, reference: dict):
        self.zeros = [(float(z["t"]), _complex(z["shift"])) for z in reference["zeros"]]
        self.boundary = {e["id"]: e for e in reference["boundary"]}
        self.converge = {e["id"]: e for e in reference["converge"]}

    def check(self, req: Request, rc: int, stdout: str) -> Verdict:
        try:
            if req.kind.startswith("scan-"):
                return self._scan(req, rc, stdout)
            if req.kind.startswith("boundary:"):
                return self._boundary(req, rc, stdout)
            if req.kind == "converge":
                return self._converge(req, rc, stdout)
            if req.kind == "verify":
                return self._verify(rc, stdout)
        except (ValueError, IndexError, KeyError) as exc:
            return Verdict(False, f"unreadable output: {exc}")
        return Verdict(False, f"no checker for {req.kind}")

    # scans -----------------------------------------------------------------

    def _scan(self, req: Request, rc: int, stdout: str) -> Verdict:
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        rows, _ = _csv_body(stdout, "t,residual,bracket_lo,bracket_hi,iterations,energy,converged")
        lo, hi = req.window
        want = [(t, k) for t, k in self.zeros if lo < t < hi]
        got = [float(r[0]) for r in rows]
        if len(got) != len(want):
            return Verdict(False, f"{len(got)} zeros, reference has {len(want)}")
        if req.kind == "scan-limit" and any(r[6] != "true" for r in rows):
            return Verdict(False, "unconverged zero")
        delta = (2 * req.n + 1) * math.exp(-req.lam) if req.kind == "scan-finite" else 0.0
        for found, (t, shift) in zip(got, want):
            if req.kind == "scan-limit":
                off, tol = abs(found - t), LIMIT_ZERO_TOL
            else:
                off = abs(found - t - delta * shift.imag)
                tol = FINITE_SECOND_ORDER * (delta * abs(shift)) ** 2 + 1e-9
            if off > tol:
                return Verdict(False, f"zero near {t:.4f} off by {off:.3g} > {tol:.3g}")
        return Verdict(True)

    # boundary --------------------------------------------------------------

    def _boundary(self, req: Request, rc: int, stdout: str) -> Verdict:
        entry = self.boundary[req.ref]
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        rows, _ = _csv_body(stdout, "x,y,t,lambda,n,variant,re,im,abs")
        want = {r["key"]: r for r in entry["rows"]}
        if len(rows) != len(want):
            return Verdict(False, f"{len(rows)} rows, reference has {len(want)}")
        worst = 0.0
        for row in rows:
            ref = want[",".join(row[:6])]
            got = complex(float(row[6]), float(row[7]))
            worst = max(worst, abs(got - _complex(ref["value"])) / float(ref["scale"]))
        if worst > ETA_SCALE_TOL:
            return Verdict(False, f"eta-scale error {worst:.3g}")
        return Verdict(True)

    # converge --------------------------------------------------------------

    def _converge(self, req: Request, rc: int, stdout: str) -> Verdict:
        entry = self.converge[req.ref]
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        header = "lambda,observable,value_re,value_im,reference_re,reference_im,abs_error"
        rows, comments = _csv_body(stdout, header)
        if len(rows) != len(entry["rows"]):
            return Verdict(False, f"{len(rows)} rows, reference has {len(entry['rows'])}")
        scale = float(entry["scale"])
        worst = 0.0
        for row, ref in zip(rows, entry["rows"]):
            if float(row[0]) != float(ref["lambda"]):
                return Verdict(False, f"row lambda {row[0]} != {ref['lambda']}")
            value = complex(float(row[2]), float(row[3]))
            reference = complex(float(row[4]), float(row[5]))
            worst = max(worst, abs(value - _complex(ref["value"])) / scale,
                        abs(reference - _complex(ref["reference"])) / scale)
        if worst > ETA_SCALE_TOL:
            return Verdict(False, f"eta-scale error {worst:.3g}")
        summary = [c for c in comments if c.startswith("# summary ")][0]
        fields = dict(part.split("=", 1) for part in summary[len("# summary "):].split())
        slope_err = abs(float(fields["slope"]) - float(entry["slope"]))
        if slope_err > SLOPE_TOL[entry["variant"]]:
            return Verdict(False, f"slope off by {slope_err:.3g}")
        return Verdict(True)

    # verify ----------------------------------------------------------------

    def _verify(self, rc: int, stdout: str) -> Verdict:
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        rows, _ = _csv_body(stdout, "name,measured,tolerance,passed,detail")
        failed = [r[0] for r in rows if r[3] != "pass"]
        if not rows or failed:
            return Verdict(False, "failed checks: " + ",".join(failed))
        return Verdict(True)


def _complex(pair: List[str]) -> complex:
    return complex(float(pair[0]), float(pair[1]))
