"""Acceptance run: one test and one printed pass/fail line per criterion.

Criterion 3 checks the confinement law the construction has.  For y > 0
the n = 0 boundary value approaches 0 as varphi_zero(s) chi_0(y)
(4 e^{-lambda}/y)^s, while the y = 0 value tends to 2 varphi_zero(s)
eta(s), so on the critical line the transverse ratio is
e^{-(y+lambda)/2} / (sqrt(y) |eta(s)|): it tends to 0 at the rate
e^{-lambda/2}.  The test asserts that law at lambda = 14 (7.5e-4 at
y = 0.5, s = 0.5+10i) and its decay rate; a ratio of 1e-6 would need
lambda ~ 27.2, past the lambda <= 25 guard of the original variant.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from zetawave import (
    chi,
    eta,
    gamma_complex,
    integrate_singular_log,
    mehler_closed,
    mehler_series,
    overlap_s1,
    psi_boundary,
    psi_boundary_limit,
    tilde_expansion_check,
    varphi_zero,
)
from zetawave.cli import main
from zetawave.oracles import apply_bk_operator, apply_number_operator
from zetawave.spectra import convergence_study

TEN_ORDINATES = (
    14.134725141734694,
    21.022039638771555,
    25.010857580145689,
    30.424876125859513,
    32.935061587739190,
    37.586178158825671,
    40.918719012147495,
    43.327073280914999,
    48.005150881167160,
    49.773832477672302,
)


def _line(number: int, passed: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_zero_reproduction(capsys):
    started = time.time()
    rc = main(["scan", "--t", "0.1:50", "--mode", "limit"])
    out = capsys.readouterr().out
    elapsed = time.time() - started
    rows = [line.split(",") for line in out.splitlines()[2:]]
    ts = [float(row[0]) for row in rows]
    count_ok = rc == 0 and len(ts) == 10
    worst = max(abs(a - b) for a, b in zip(ts, TEN_ORDINATES)) if count_ok else float("inf")
    with capsys.disabled():
        _line(1, count_ok and worst <= 1e-6 and elapsed <= 60.0,
              f"{len(ts)} zeros in {elapsed:.2f} s, max |dt| = {worst:.3e}")
    assert count_ok
    assert worst <= 1e-6
    assert elapsed <= 60.0


def test_criterion_2_boundary_limit_identity(capsys):
    started = time.time()
    worst_margin = 0.0
    details = []
    for t in (5.0, 10.0, 14.134725, 18.0, 21.022040):
        s = complex(0.5, t)
        limit = psi_boundary_limit(s)
        finite = psi_boundary(0.0, s, 0, 14.0).value
        deviation = abs(finite - limit)
        bound = 1e-3 * max(abs(limit), 0.01)
        worst_margin = max(worst_margin, deviation / bound)
        details.append((t, deviation, bound))
    elapsed = time.time() - started
    with capsys.disabled():
        _line(2, worst_margin <= 1.0 and elapsed <= 120.0,
              f"worst deviation/bound = {worst_margin:.3e} over 5 points "
              f"in {elapsed:.2f} s")
    for t, deviation, bound in details:
        assert deviation <= bound, f"t={t}: {deviation:.3e} > {bound:.3e}"
    assert elapsed <= 120.0


def test_criterion_3_spatial_confinement(capsys):
    s = complex(0.5, 10.0)
    y = 0.5

    def ratio(lam):
        off_axis = abs(psi_boundary(y, s, 0, lam).value)
        on_axis = abs(psi_boundary(0.0, s, 0, lam).value)
        return off_axis / on_axis

    eta_abs = abs(complex(mp.altzeta(mp.mpc(s.real, s.imag))))
    law = math.exp(-(y + 14.0) / 2.0) / (math.sqrt(y) * eta_abs)
    lams = [10.0, 12.0, 14.0]
    ratios = [ratio(lam) for lam in lams]
    law_dev = abs(ratios[-1] / law - 1.0)
    slope = float(np.polyfit(lams, np.log(ratios), 1)[0])
    with capsys.disabled():
        _line(3, law_dev <= 1e-4 and abs(slope + 0.5) <= 0.01,
              f"|psi(0, 0.5)| / |psi(0, 0)| = {ratios[-1]:.6e} at lambda = 14, "
              f"law {law:.6e} (rel {law_dev:.3e}), slope {slope:.5f}")
    assert law_dev <= 1e-4, (
        f"ratio {ratios[-1]:.6e} at lambda = 14 is off the law "
        f"e^(-(y+lambda)/2) / (sqrt(y) |eta(s)|) = {law:.6e} by {law_dev:.3e}"
    )
    assert abs(slope + 0.5) <= 0.01, (
        f"log-slope {slope:.5f} of the ratio over lambda = 10, 12, 14; "
        "the confinement rate is e^(-lambda/2)"
    )


def test_criterion_4_mehler_identity(capsys):
    worst = 0.0
    for t in np.arange(0.1, 0.95, 0.1):
        for y in (0.5, 1.0, 2.0, 5.0):
            series = mehler_series(y, y, float(t)).value
            closed = mehler_closed(y, y, float(t))
            worst = max(worst, abs(series - closed) / abs(closed))
    with capsys.disabled():
        _line(4, worst <= 1e-8, f"max relative error {worst:.3e} on the 36-point grid")
    assert worst <= 1e-8


def test_criterion_5_overlap_limit(capsys):
    worst = max(
        abs(overlap_s1(m, 0, 20.0, bare=True) - 2.0 * (-1.0) ** m)
        for m in range(11)
    )
    with capsys.disabled():
        _line(5, worst <= 1e-6, f"max |overlap - 2(-1)^m| = {worst:.3e} at lambda = 20")
    assert worst <= 1e-6


def test_criterion_6_eigen_relations(capsys):
    candidates = (0.4, 0.9, 1.7, 2.6, 3.8, 5.1, 6.9, 8.4)
    worst_n = 0.0
    for n in range(9):
        usable = [y for y in candidates if abs(chi(n, y)) > 0.05][:3]
        assert len(usable) == 3
        for y in usable:
            worst_n = max(worst_n, abs(apply_number_operator(n, y) - n))
    rng = np.random.default_rng(20260813)
    xs = (0.5, 1.0, 3.0)
    worst_bk = 0.0
    for k, t in enumerate(rng.uniform(0.5, 10.0, size=20)):
        s = complex(0.5, t)
        measured = apply_bk_operator(s, xs[k % 3])
        worst_bk = max(worst_bk, abs(measured - 1j * (s - 0.5)))
    with capsys.disabled():
        _line(6, worst_n <= 1e-5 and worst_bk <= 1e-4,
              f"number operator max |dev| = {worst_n:.3e}, "
              f"dilation generator max |dev| = {worst_bk:.3e}")
    assert worst_n <= 1e-5
    assert worst_bk <= 1e-4


def test_criterion_7_tilde_expansion(capsys):
    s = complex(0.5, 10.0)
    leading = convergence_study(s, 0, [8.0, 10.0, 12.0], variant="tilde")
    expansion = tilde_expansion_check(0.0, s, 0, 12.0)
    measured_coeff = (expansion.exact - expansion.zero_order) / np.exp(-12.0)
    predicted_coeff = 2.0 * varphi_zero(s) * (eta(s) - 2.0 * eta(s - 1.0))
    coeff_rel = abs(measured_coeff - predicted_coeff) / abs(predicted_coeff)
    corrected = convergence_study(
        complex(0.5, 5.0), 0, [8.0, 10.0, 12.0], variant="tilde-corrected"
    )
    ok = (
        abs(leading.slope + 1.0) <= 0.05
        and coeff_rel <= 0.03
        and abs(corrected.slope + 2.0) <= 0.2
    )
    with capsys.disabled():
        _line(7, ok, f"leading slope {leading.slope:.4f}, coefficient rel "
                     f"{coeff_rel:.3e}, corrected slope {corrected.slope:.4f}")
    assert abs(leading.slope + 1.0) <= 0.05
    assert coeff_rel <= 0.03
    assert abs(corrected.slope + 2.0) <= 0.2


def test_criterion_8_eta_integral_identity(capsys):
    # the boundary engine with g = tanh(u/2): g/(e^u - 1) = 1/(e^u + 1), head 1/2,
    # so on the Gamma(s) scale the integral is eta(s)
    s = np.array([complex(0.5, t) for t in (2.0, 4.0, 6.0, 8.0, 10.0)])
    gammas = np.array([gamma_complex(z) for z in s])
    values, _ = integrate_singular_log(lambda u: np.tanh(0.5 * u), s, 0.5, gammas, 1e-9)
    reference = np.array([eta(z) for z in s])
    worst = float(np.max(np.abs(values - reference) / np.abs(reference)))
    with capsys.disabled():
        _line(8, worst <= 1e-8, f"max relative error {worst:.3e} at 5 points")
    assert worst <= 1e-8


def test_criterion_9_determinism(capsys):
    argv = [sys.executable, "-m", "zetawave", "scan", "--t", "13:16"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    identical = first.stdout == second.stdout and first.stdout.startswith(b"# config ")
    with capsys.disabled():
        _line(9, identical, f"two runs, {len(first.stdout)} bytes each, byte-identical")
    assert identical
