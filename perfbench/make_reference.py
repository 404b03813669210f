"""Build the benchmark's reference data with mpmath alone.

    python3 perfbench/make_reference.py            # rewrite perfbench/reference.json
    python3 perfbench/make_reference.py --check    # regenerate, compare with the committed file
    python3 perfbench/make_reference.py --check --sample 6   # the same for 6 random entries

The script never imports zetawave, so the references stay independent of
the kernels they judge.  Every value is computed at 30 or more
significant digits (more where the result cancels like e^{-pi t/2}):

* zeta zero ordinates below 120 from mpmath.zetazero, each with the
  first-order coefficient K = 2 eta(rho - 1) / eta'(rho) of its shift under
  a finite squeeze: at y = 0 the normalized boundary value is
  eta(s) + delta (eta(s) - 2 eta(s-1)) + O(delta^2) with
  delta = (2n+1) e^{-lambda}, so the zero moves to rho + delta K;
* boundary values psi(x, y; s, n, lambda) on a fixed pool of sample
  points, from closed forms of the level sum
  psi = varphi_zero(s) * sum_m A_m chi_m(Y) (m+1)^{-s}, where A_m are the
  squeezed-basis overlaps and Y = e^{lambda} y (original variant) or
  e^{-lambda} y (tilde variant):
    - y = 0: the overlap generating function 2 B^n / A^{n+1} splits into
      powers of 1/A, and each power sums to polylogarithms Li_{s-p}(-rho);
    - y > 0: the Mellin integral (1/Gamma(s)) int u^{s-1} e^{-u} G_Y(e^{-u}) du
      of the closed-form generating function G_Y(t) = sum_m A_m chi_m(Y) t^m;
    - x > 0: the level sum collapses (completeness of chi_m) to
      x^{-s} chi_n(y) / sqrt(2 pi);
    - the limit variant: 2 varphi_zero(s) eta(s) at y = 0 and 0 for y > 0;
* converge studies at y = 0: the same y = 0 values per lambda, the limit or
  first-order reference, and the least-squares slope of log(abs_error).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "reference.json"
POOL_SEED = 20261017
SCAN_T_MAX = 120
BASE_DIGITS = 30
SIG_DIGITS = 25


def _s(value) -> str:
    return mp.nstr(value, SIG_DIGITS, min_fixed=-5, max_fixed=5)


def _c(value) -> list:
    value = mp.mpc(value)
    return [_s(value.real), _s(value.imag)]


def _digits_for(t: float) -> int:
    # boundary values are O(|Gamma(s)|) ~ e^{-pi t / 2} times O(1) sums
    return BASE_DIGITS + int(math.ceil(math.pi * abs(t) / 2 / math.log(10))) + 15


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def varphi_zero(s):
    """Gamma(1-s) (-2i)^{1/2-s} / sqrt(2 pi), principal branch."""
    return mp.gamma(1 - s) * mp.exp((mp.mpf(1) / 2 - s) * (mp.log(2) - 0.5j * mp.pi)) / mp.sqrt(2 * mp.pi)


def _rising_coefficients(d: int) -> list:
    """c_p with k (k+1) ... (k+d-1) = sum_p c_p k^p."""
    coef = [mp.mpf(1)]
    for i in range(d):
        nxt = [mp.mpf(0)] * (len(coef) + 1)
        for p, c in enumerate(coef):
            nxt[p + 1] += c
            nxt[p] += i * c
        coef = nxt
    return coef


def level_sum_y0(s, n: int, lam) -> mp.mpc:
    """sum_m A_m (m+1)^{-s}: the y = 0 boundary value divided by varphi_zero.

    2 B^n / A^{n+1} = 2 sum_j c_j A^{-j} with A = (1+eps)(1 + rho t), and
    A^{-j} has coefficients C(m+j-1, j-1) (-rho)^m / (1+eps)^j, a
    polynomial in k = m + 1; each power k^p sums to -Li_{s-p}(-rho)/rho.
    """
    eps = mp.exp(-lam)
    rho = (1 - eps) / (1 + eps)
    alpha = (1 + eps) / (1 - eps)
    beta = -4 * eps / (1 - eps)
    total = mp.mpc(0)
    for j in range(1, n + 2):
        cj = mp.binomial(n, n + 1 - j) * alpha ** (n + 1 - j) * beta ** (j - 1) / (1 + eps) ** j
        inner = mp.mpc(0)
        for p, c in enumerate(_rising_coefficients(j - 1)):
            if c:
                inner += c * mp.polylog(s - p, -rho)
        total += cj * inner * (-1 / rho) / mp.factorial(j - 1)
    return 2 * total


def _generating_y(u, Y, n: int, eps):
    """G_Y(e^{-u}) = sum_m A_m chi_m(Y) e^{-m u}, closed form.

    From the Mehler kernel and int y^k e^{-p y} I0(2 sqrt(a y)) dy =
    k! p^{-k-1} e^{a/p} L_k(-a/p); the exponent is written without
    cancellation.
    """
    t = mp.exp(-u)
    om = -mp.expm1(-u)
    den = 1 + t + eps * om
    exponent = -Y * (om + eps * (1 + t)) / (2 * den)
    p_inv = 2 * om / den
    a_over_p = 2 * Y * t / (om * den)
    series = mp.mpf(0)
    for k in range(n + 1):
        series += (-1) ** k * mp.binomial(n, k) * (eps * p_inv) ** k * mp.laguerre(k, 0, -a_over_p)
    return mp.exp(exponent) * p_inv / om * series


def level_sum_mellin(s, y, n: int, lam, variant: str) -> mp.mpc:
    """sum_m A_m chi_m(Y) (m+1)^{-s} for y > 0 as a Mellin integral in v = log u."""
    eps = mp.exp(-lam)
    Y = (mp.exp(lam) if variant == "original" else eps) * y
    t = float(s.imag)
    digits = BASE_DIGITS + math.pi * abs(t) / 2 / math.log(10) + 5

    def integrand(v):
        u = mp.exp(v)
        return mp.exp(s * v - u) * _generating_y(u, Y, n, eps)

    # Below v_lo the integrand is e^{s v} chi_n(eps Y) (1 + O((1 + Y) e^v));
    # the leading term is restored analytically.
    v_lo = -(mp.log(1 + Y) + digits * mp.log(10)) / (s.real + 1)
    v_hi = mp.log(200)
    step = min(mp.mpf(1), mp.pi / max(t, 1))
    points = [v_lo + k * step for k in range(int((v_hi - v_lo) / step) + 1)] + [v_hi]
    head = mp.exp(-eps * Y / 2) * mp.laguerre(n, 0, eps * Y) * mp.exp(s * v_lo) / s
    return (mp.quad(integrand, points, method="gauss-legendre") + head) / mp.gamma(s)


def chi_n(n: int, y):
    return mp.exp(-y / 2) * mp.laguerre(n, 0, y)


# ---------------------------------------------------------------------------
# pool entries
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """The CLI's own number format, so rows can be matched by text."""
    return format(float(value), ".15g")


def boundary_rows(entry: dict) -> list:
    """Reference rows (keyed like the CLI's CSV rows) for one boundary request."""
    rows = []
    n = entry["n"]
    variant = entry["variant"]
    for t_text in entry["t"]:
        mp.mp.dps = _digits_for(float(t_text))  # before any input is parsed
        t = mp.mpf(t_text)
        s = mp.mpc(0.5, t)
        phi0 = varphi_zero(s)
        for lam_text in entry["lambda"]:
            lam = mp.mpf(lam_text)
            for y_text in entry["y"]:
                y = mp.mpf(y_text)
                for x_text in entry["x"]:
                    x = mp.mpf(x_text)
                    if variant == "limit":
                        value = 2 * phi0 * mp.altzeta(s) if y == 0 else mp.mpc(0)
                        scale = abs(phi0)
                    elif x > 0:
                        phis = x ** (-s) / mp.sqrt(2 * mp.pi)
                        value = phis * chi_n(n, y)
                        scale = abs(phis)
                    elif y == 0:
                        value = phi0 * level_sum_y0(s, n, lam)
                        scale = abs(phi0)
                    else:
                        value = phi0 * level_sum_mellin(s, y, n, lam, variant)
                        scale = abs(phi0)
                    key = ",".join(
                        [_fmt(x_text), _fmt(y_text), _fmt(t_text), _fmt(lam_text), str(n), variant]
                    )
                    rows.append({"key": key, "value": _c(value), "scale": _s(scale)})
    return rows


def converge_rows(entry: dict) -> dict:
    mp.mp.dps = _digits_for(float(entry["t"]))  # before any input is parsed
    t = mp.mpf(entry["t"])
    n = entry["n"]
    s = mp.mpc(0.5, t)
    phi0 = varphi_zero(s)
    limit = 2 * phi0 * mp.altzeta(s)
    rows = []
    lams, logs = [], []
    for lam_text in entry["lambda"]:
        lam = mp.mpf(lam_text)
        value = phi0 * level_sum_y0(s, n, lam)
        if entry["variant"] == "tilde-corrected":
            correction = (mp.altzeta(s) - 2 * mp.altzeta(s - 1)) * (2 * n + 1)
            reference = limit + mp.exp(-lam) * 2 * phi0 * correction
        else:
            reference = limit
        err = abs(value - reference)
        rows.append({"lambda": _fmt(lam_text), "value": _c(value), "reference": _c(reference),
                     "abs_error": _s(err)})
        lams.append(lam)
        logs.append(mp.log(err))
    k = len(lams)
    mean_l = sum(lams) / k
    mean_e = sum(logs) / k
    slope = sum((a - mean_l) * (b - mean_e) for a, b in zip(lams, logs)) / sum(
        (a - mean_l) ** 2 for a in lams
    )
    return {"rows": rows, "scale": _s(abs(phi0)), "slope": _s(slope)}


def _r(rng: random.Random, lo: float, hi: float, places: int) -> str:
    return repr(round(rng.uniform(lo, hi), places))


def pool_specs() -> dict:
    """The fixed pool of boundary and converge requests (inputs only)."""
    rng = random.Random(POOL_SEED)
    boundary = [{
        "id": "probe", "kind": "probe", "t": ["14.134725", "10"], "x": ["0"], "y": ["0"],
        "lambda": ["8", "10", "12"], "n": 0, "variant": "original",
    }]
    for i in range(40):
        boundary.append({
            "id": f"y0-{i:02d}", "kind": "y0", "t": [_r(rng, 0.5, 60.0, 3)], "x": ["0"],
            "y": ["0"], "lambda": [_r(rng, 8.0, 25.0, 1)], "n": rng.choice([0, 0, 1, 2]),
            "variant": rng.choice(["original", "tilde"]),
        })
    for i in range(24):
        boundary.append({
            "id": f"ypos-{i:02d}", "kind": "ypos", "t": [_r(rng, 0.5, 20.0, 3)], "x": ["0"],
            "y": [_r(rng, 0.05, 2.0, 3)], "lambda": [_r(rng, 8.0, 25.0, 1)],
            "n": rng.choice([0, 0, 1]), "variant": rng.choice(["original", "tilde"]),
        })
    for i in range(16):
        xs = sorted({_r(rng, 0.2, 5.0, 2) for _ in range(rng.choice([1, 2, 3]))}, key=float)
        y = "0" if i < 12 else _r(rng, 0.05, 1.0, 3)
        boundary.append({
            "id": f"full-{i:02d}", "kind": "full", "t": [_r(rng, 0.5, 60.0, 3)], "x": xs,
            "y": [y], "lambda": [_r(rng, 8.0, 25.0, 1)], "n": rng.choice([0, 1, 2, 3]),
            "variant": "original",
        })
    for i in range(16):
        boundary.append({
            "id": f"limit-{i:02d}", "kind": "limit", "t": [_r(rng, 0.5, 60.0, 3)], "x": ["0"],
            "y": rng.choice([["0"], ["0", "0.5"], ["0", "1", "2.5"]]), "lambda": ["12"],
            "n": 0, "variant": "limit",
        })
    converge = []
    for i in range(18):
        variant = ("original", "tilde", "tilde-corrected")[i % 3]
        if variant == "tilde-corrected":
            # the e^{-2 lambda} remainder must stay above the quadrature floor
            t, lams = _r(rng, 0.5, 8.0, 3), sorted(rng.sample(range(6, 13), 3))
        else:
            t, lams = _r(rng, 0.5, 15.0, 3), sorted(rng.sample(range(6, 15), 3))
        converge.append({
            "id": f"conv-{i:02d}", "t": t, "lambda": [str(v) for v in lams],
            "n": rng.choice([0, 1]), "variant": variant,
        })
    return {"boundary": boundary, "converge": converge}


def zero_ordinates() -> list:
    mp.mp.dps = BASE_DIGITS + 5
    zeros = []
    k = 1
    while True:
        rho = mp.zetazero(k)
        if rho.imag > SCAN_T_MAX:
            return zeros
        shift = 2 * mp.altzeta(rho - 1) / mp.diff(mp.altzeta, rho)
        zeros.append({"t": _s(rho.imag), "shift": _c(shift)})
        k += 1


def build(sample: int | None = None, seed: int = 0) -> dict:
    specs = pool_specs()
    boundary, converge = specs["boundary"], specs["converge"]
    if sample is not None:
        rng = random.Random(seed)
        picked = set(e["id"] for e in rng.sample(boundary + converge, sample))
        boundary = [e for e in boundary if e["id"] in picked]
        converge = [e for e in converge if e["id"] in picked]
    out_b = []
    for entry in boundary:
        out_b.append(dict(entry, rows=boundary_rows(entry)))
        print(f"  {entry['id']}", file=sys.stderr)
    out_c = []
    for entry in converge:
        out_c.append(dict(entry, **converge_rows(entry)))
        print(f"  {entry['id']}", file=sys.stderr)
    data = {
        "generator": "perfbench/make_reference.py",
        "mpmath": mp.__version__,
        "pool_seed": POOL_SEED,
        "boundary": out_b,
        "converge": out_c,
    }
    if sample is None:
        data["zeros"] = zero_ordinates()
    return data


def dumps(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate and compare with the committed file instead of writing it")
    parser.add_argument("--sample", type=int, help="with --check: only this many random pool entries")
    parser.add_argument("--seed", type=int, default=0, help="with --sample: which entries")
    args = parser.parse_args(argv)
    if not args.check:
        OUT.write_text(dumps(build()))
        print(f"wrote {OUT}")
        return 0
    committed = json.loads(OUT.read_text())
    fresh = build(args.sample, args.seed)
    mismatched = []
    for section in ("boundary", "converge"):
        old = {e["id"]: e for e in committed[section]}
        for entry in fresh[section]:
            if old.get(entry["id"]) != entry:
                mismatched.append(entry["id"])
    if "zeros" in fresh and fresh["zeros"] != committed["zeros"]:
        mismatched.append("zeros")
    if args.sample is None and dumps(fresh) != OUT.read_text():
        mismatched.append("file text")
    if mismatched:
        print("reference data differs: " + ", ".join(mismatched))
        return 1
    print(f"reference data reproduced ({len(fresh['boundary']) + len(fresh['converge'])} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
