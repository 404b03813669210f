"""The checker accepts the reference answer and rejects a perturbed one."""

import math

from checks import Checker
from workloads import Request, boundary_request, floor_bound, in_regime

SCAN_HEADER = "t,residual,bracket_lo,bracket_hi,iterations,energy,converged"


def _scan_output(ts, converged="true"):
    rows = [f"{t!r},1e-12,{t - 0.05!r},{t + 0.05!r},3,{-t!r},{converged}" for t in ts]
    return "\n".join(["# config command=scan", SCAN_HEADER] + rows) + "\n"


def _window_zeros(reference, lo, hi):
    return [float(z["t"]) for z in reference["zeros"] if lo < float(z["t"]) < hi]


def test_limit_scan(reference):
    checker = Checker(reference)
    req = Request(("scan", "--t", "10:30"), "scan-limit", window=(10.0, 30.0))
    zeros = _window_zeros(reference, 10.0, 30.0)
    assert checker.check(req, 0, _scan_output(zeros)).ok
    assert not checker.check(req, 0, _scan_output(zeros[:-1])).ok
    assert not checker.check(req, 0, _scan_output([zeros[0] + 1e-6] + zeros[1:])).ok
    assert not checker.check(req, 0, _scan_output(zeros, converged="false")).ok
    assert not checker.check(req, 3, "").ok


def test_finite_scan_expects_the_first_order_shift(reference):
    checker = Checker(reference)
    zero = max(reference["zeros"], key=lambda z: abs(float(z["shift"][1])))
    t = float(zero["t"])
    req = Request(("scan",), "scan-finite", window=(t - 0.3, t + 0.3), lam=12.0, n=100)
    moved = t + 201 * math.exp(-12.0) * float(zero["shift"][1])
    assert checker.check(req, 0, _scan_output([moved], converged="false")).ok
    assert not checker.check(req, 0, _scan_output([t], converged="false")).ok


def _boundary_output(entry, scale_shift=0.0):
    rows = []
    for ref in entry["rows"]:
        re, im = (float(v) for v in ref["value"])
        re += scale_shift * float(ref["scale"])
        rows.append(f"{ref['key']},{re!r},{im!r},{abs(complex(re, im))!r}")
    return "\n".join(["# config command=boundary", "x,y,t,lambda,n,variant,re,im,abs"] + rows) + "\n"


def test_boundary_rows(reference):
    checker = Checker(reference)
    for entry in reference["boundary"]:
        req = boundary_request(entry)
        assert checker.check(req, 0, _boundary_output(entry)).ok
        verdict = checker.check(req, 0, _boundary_output(entry, 1e-5))
        assert not verdict.ok


def test_regime_excludes_the_floor_region_and_psi_full_off_axis(reference):
    assert not floor_bound(13.0) and floor_bound(15.0)
    for entry in reference["boundary"]:
        t_max = max(float(t) for t in entry["t"])
        off_axis = entry["x"] != ["0"] and entry["y"] != ["0"]
        if entry["variant"] == "limit":
            assert in_regime(entry)
        elif entry["x"] == ["0"]:
            assert in_regime(entry) == (not floor_bound(t_max))
        else:
            assert in_regime(entry) == (not off_axis)


def test_verify_rows(reference):
    checker = Checker(reference)
    req = Request(("verify", "--only", "quad-linearity"), "verify", ref="quad-linearity")
    head = "# config command=verify\nname,measured,tolerance,passed,detail\n"
    assert checker.check(req, 0, head + 'quad-linearity,1e-12,2e-10,pass,"a, b"\n').ok
    assert not checker.check(req, 1, head + 'quad-linearity,1,2e-10,fail,"a"\n').ok
