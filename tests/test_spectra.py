"""Zero scanning and convergence-rate fits.

Reference ordinates were refined with mpmath at 40 digits before the
build and are frozen below.  Residual bounds are checked against
mpmath's zeta directly so the scan cannot certify itself.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from zetawave import (
    DomainError,
    boundary_objective,
    convergence_study,
    scan_zeros,
    varphi_zero,
)
from zetawave.spectra import _MAX_NEWTON, SCAN_MODES

mp.mp.dps = 40

FIRST_THREE = (
    14.134725141734694,
    21.022039638771555,
    25.010857580145689,
)


# ---------------------------------------------------------------------------
# boundary_objective


def test_objective_limit_vanishes_at_first_zero():
    assert abs(boundary_objective(14.134725)) <= 1e-8


def test_objective_limit_nonzero_off_zero():
    # the outer factor 2*varphi_zero(1/2 + it) decays like e^{-pi t / 2},
    # so the off-zero check is made scale free by dividing it out
    value = boundary_objective(10.0)
    assert value != 0
    assert abs(value / (2.0 * varphi_zero(0.5 + 10j))) > 0.01


def test_objective_finite_mode_keeps_suppression():
    at_zero = abs(boundary_objective(14.134725, mode="finite", lam=12.0, n=0))
    off_zero = abs(boundary_objective(10.0, mode="finite", lam=12.0, n=0))
    assert at_zero <= 1e-3 * off_zero


def test_objective_rejects_unknown_mode():
    with pytest.raises(DomainError):
        boundary_objective(10.0, mode="average")


# ---------------------------------------------------------------------------
# scan_zeros: examples


def test_scan_isolated_window_finds_first_zero():
    records = scan_zeros(13.0, 16.0, step=0.05, refine_tol=1e-10)
    assert len(records) == 1
    rec = records[0]
    assert abs(rec.t - FIRST_THREE[0]) <= 1e-6
    assert rec.converged
    assert rec.residual <= 1e-10
    assert rec.energy == pytest.approx(-rec.t)


def test_scan_wide_window_finds_first_three():
    records = scan_zeros(0.1, 30.0, step=0.05, refine_tol=1e-10)
    assert len(records) == 3
    for rec, expected in zip(records, FIRST_THREE):
        assert abs(rec.t - expected) <= 1e-6


def test_scan_empty_below_first_zero():
    assert scan_zeros(2.0, 5.0, step=0.05, refine_tol=1e-10) == []


# ---------------------------------------------------------------------------
# scan_zeros: invariants


def test_scan_invariant_under_step_halving():
    coarse = scan_zeros(0.1, 30.0, step=0.05)
    fine = scan_zeros(0.1, 30.0, step=0.025)
    assert len(coarse) == len(fine)
    for a, b in zip(coarse, fine):
        assert abs(a.t - b.t) <= 1e-6


def test_scan_residuals_certified_by_mpmath():
    refine_tol = 1e-10
    records = scan_zeros(0.1, 30.0, step=0.05, refine_tol=refine_tol)
    for rec in records:
        s = mp.mpc(mp.mpf("0.5"), mp.mpf(repr(float(rec.t))))
        eta = (1 - 2 ** (1 - s)) * mp.zeta(s)
        assert float(abs(eta)) <= refine_tol
        zeta_bound = 10.0 * refine_tol / float(abs(1 - 2 ** (1 - s)))
        assert float(abs(mp.zeta(s))) <= zeta_bound


def test_scan_brackets_isolate_zeros():
    records = scan_zeros(0.1, 30.0, step=0.05)
    for rec in records:
        for other in records:
            if other is rec:
                continue
            assert not (rec.bracket_lo <= other.t <= rec.bracket_hi)


def test_scan_finite_mode_matches_limit_count():
    limit = scan_zeros(0.1, 30.0, step=0.05)
    finite = scan_zeros(0.1, 30.0, step=0.05, mode="finite", lam=12.0, n=0)
    assert len(finite) == len(limit)
    for a, b in zip(limit, finite):
        assert abs(a.t - b.t) <= 1e-4


def test_scan_finite_mode_flags_floor_limited_candidates():
    # at lambda = 12 the objective floor sits near e^{-lambda}, out of
    # reach of refine_tol = 1e-10; candidates must be kept, not dropped
    records = scan_zeros(13.0, 16.0, step=0.05, mode="finite", lam=12.0, n=0)
    assert len(records) == 1
    assert not records[0].converged
    assert records[0].residual > 1e-10


def test_scan_to_calibration_limit_matches_mpmath_zetazero():
    records = scan_zeros(0.1, 120.0)
    with mp.workdps(20):
        want = [float(mp.zetazero(k).imag) for k in range(1, len(records) + 2)]
    assert want[len(records)] > 120.0  # no zero below 120 was missed
    for rec, t in zip(records, want):
        assert abs(rec.t - t) <= 1e-10
        assert rec.converged
        assert 1 <= rec.iterations <= _MAX_NEWTON


def test_scan_guards():
    with pytest.raises(DomainError):
        scan_zeros(-1.0, 10.0)
    with pytest.raises(DomainError):
        scan_zeros(10.0, 10.0)
    with pytest.raises(DomainError):
        scan_zeros(1.0, 500.0)
    with pytest.raises(DomainError):
        scan_zeros(13.0, 16.0, step=0.0)
    with pytest.raises(DomainError):
        scan_zeros(13.0, 16.0, step=10.0)
    with pytest.raises(DomainError):
        scan_zeros(13.0, 16.0, refine_tol=0.0)
    with pytest.raises(DomainError):
        scan_zeros(13.0, 16.0, mode="bisect")
    with pytest.raises(DomainError):
        scan_zeros(13.0, 16.0, mode="finite", n=-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            scan_zeros(13.0, 16.0, step=bad)
        with pytest.raises(DomainError, match="finite"):
            scan_zeros(13.0, 16.0, refine_tol=bad)
    for mode in SCAN_MODES:
        # 119,901 points x 341 or 357 terms: past the 2^24-element limit
        with pytest.raises(DomainError, match="work limit"):
            scan_zeros(0.1, 120.0, step=1e-3, mode=mode)


# ---------------------------------------------------------------------------
# convergence_study


def test_study_tilde_slope_is_minus_one():
    study = convergence_study(0.5 + 10j, 0, [8.0, 10.0, 12.0], variant="tilde")
    assert study.slope == pytest.approx(-1.0, abs=0.05)
    assert study.observable == "tilde"
    assert len(study.records) == 3


def test_study_original_errors_decrease():
    study = convergence_study(0.5 + 10j, 0, [8.0, 10.0, 12.0], variant="original")
    errors = [rec.abs_error for rec in study.records]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_study_corrected_slope_is_minus_two():
    study = convergence_study(0.5 + 5j, 0, [8.0, 10.0, 12.0], variant="tilde-corrected")
    assert study.slope == pytest.approx(-2.0, abs=0.2)


def test_study_records_carry_references():
    study = convergence_study(0.5 + 10j, 0, [8.0, 10.0], variant="tilde")
    for rec, lam in zip(study.records, (8.0, 10.0)):
        assert rec.lam == lam
        assert rec.abs_error == pytest.approx(abs(rec.value - rec.reference))


def test_study_guards():
    with pytest.raises(DomainError):
        convergence_study(0.5 + 10j, 0, [8.0])
    with pytest.raises(DomainError):
        convergence_study(0.5 + 10j, 0, [8.0, 7.0])
    with pytest.raises(DomainError):
        convergence_study(0.5 + 10j, 0, [4.0, 8.0])
    with pytest.raises(DomainError):
        convergence_study(0.5 + 10j, 0, [8.0, 10.0], variant="bogus")
