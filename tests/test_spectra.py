"""Zero scanning and convergence-rate fits.

Reference ordinates were refined with mpmath at 40 digits before the
build and are frozen below.  Residual bounds are checked against
mpmath's zeta directly so the scan cannot certify itself.
"""

from __future__ import annotations

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetawave import (
    DomainError,
    NonConvergenceError,
    convergence_study,
    eta,
    gamma_complex,
    psi_boundary,
    psi_boundary_batch,
    psi_boundary_limit,
    scan_zeros,
    varphi_zero,
)
from zetawave.oracles import euler_naive
from zetawave import specfun, spectra, waveform
from zetawave.specfun import _eta_depth, _eta_sums
from zetawave.spectra import _MAX_NEWTON, SCAN_MODES, STUDY_VARIANTS
from zetawave.waveform import ORIGINAL, TILDE, _bare_overlaps, _eta_scale_floor

mp.mp.dps = 40

FIRST_THREE = (
    14.134725141734694,
    21.022039638771555,
    25.010857580145689,
)


# ---------------------------------------------------------------------------
# the boundary objectives the scans chase, times 2 varphi_zero(s): the limit
# value psi_boundary_limit and the finite-squeeze y = 0 value psi_boundary_batch


def test_objective_limit_nonzero_off_zero():
    # the outer factor 2*varphi_zero(1/2 + it) decays like e^{-pi t / 2},
    # so the off-zero check is made scale free by dividing it out
    value = psi_boundary_limit(0.5 + 10j)
    assert value != 0
    assert abs(value / (2.0 * varphi_zero(0.5 + 10j))) > 0.01


def test_objective_finite_mode_keeps_suppression():
    values, _ = psi_boundary_batch([complex(0.5, 14.134725), 0.5 + 10j], 0.0, 0, 12.0)
    at_zero, off_zero = np.abs(values)
    assert at_zero <= 1e-3 * off_zero


@pytest.mark.parametrize("t", [20.0, 30.0, 60.0])
def test_objective_finite_mode_is_the_level_sum(t):
    # the finite objective is 2 varphi_zero(s) times sum_m A_m (m+1)^{-s} / 2,
    # the y = 0 boundary value; the oracle averages its partial sums level
    # by level (the real-axis quadrature it replaced was off by 1.5e-3
    # relative at t = 20 and by 1.4e24 at t = 60)
    s = complex(0.5, t)
    count = 120 + int(2.5 * t)
    overlaps = _bare_overlaps(0, count - 1, 12.0)
    half_sum, _ = euler_naive(0.5 * overlaps * np.exp(-s * np.log1p(np.arange(count))))
    want = 2.0 * varphi_zero(s) * half_sum
    got = psi_boundary_batch([s], 0.0, 0, 12.0)[0][0]
    assert abs(got - want) <= 1e-10 * abs(want)


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


def test_finite_scan_row_past_the_depth_cap_raises():
    # level 300 at lambda = 1: the row needs 64 + ceil(2.4 n p + 8 sqrt(n p))
    # = 553 levels, past the cap 420 (a row of eta's depth, 133 at t = 30,
    # read 2.6e-12 where a 1,600-level row gives 0.047)
    assert waveform._level_depth(np.array([0.5 + 30j]), 300, 1.0, 0.0) == 553
    with pytest.raises(NonConvergenceError, match="depth 553"):
        spectra._finite_series_tools(300, 1.0, 30.0, 0.05)
    with pytest.raises(NonConvergenceError):
        scan_zeros(1.0, 30.0, mode="finite", lam=1.0, n=300)


def test_finite_scan_row_reaches_the_overlap_peak():
    # level 100 at lambda = 0.5: depth 315 (a row of eta's depth, 133, does
    # not settle), whose values match a 1,600-level row
    assert waveform._level_depth(np.array([0.5 + 30j]), 100, 0.5, 0.0) == 315
    newton, grid = spectra._finite_series_tools(100, 0.5, 30.0, 0.05)
    ts = 1.0 + 0.05 * np.arange(581)
    deep = 0.5 * waveform._level_coefficients(100, 1600, 0.5)
    want = _eta_sums(0.5 + 1j * ts, coeffs=deep)[0]
    scale = 1.0 + np.abs(want)
    values, _ = newton(ts[[180, 380, 580]])
    assert np.all(np.abs(values - want[[180, 380, 580]]) <= 5e-16 * scale[[180, 380, 580]])
    # the grid's factorized phases keep their stated 2e-13 (1 + |f|)
    assert np.all(np.abs(grid(ts) - want) <= 2e-13 * scale)


@pytest.mark.parametrize("n, lam, t_hi", [(0, 12.0, 16.0), (0, 12.0, 30.0), (40, 2.0, 30.0)])
def test_finite_scan_keeps_eta_depth_where_it_reaches(n, lam, t_hi):
    # the golden finite scans and verify's count match keep their rows
    top = np.array([0.5 + 1j * t_hi])
    assert waveform._level_depth(top, n, lam, 0.0) == _eta_depth(top)


def test_scan_to_calibration_limit_matches_mpmath_zetazero():
    records = scan_zeros(0.1, 120.0)
    with mp.workdps(20):
        want = [float(mp.zetazero(k).imag) for k in range(1, len(records) + 2)]
    assert want[len(records)] > 120.0  # no zero below 120 was missed
    for rec, t in zip(records, want):
        assert abs(rec.t - t) <= 1e-10
        assert rec.converged
        assert 1 <= rec.iterations <= _MAX_NEWTON


def _exact_power_line(t_lo, step, count, coeffs=None, t_top=None):
    # binomial weights at exact powers in both modes, independent of the
    # lattice: for the limit grid's eta (coeffs None, Borwein's weights in
    # _eta_line) a row of ones at the binomial depth of the window top
    if coeffs is None:
        coeffs = np.ones(_eta_depth(np.array([0.5 + 1j * t_top])) + 1)
    return _eta_sums(0.5 + 1j * (t_lo + step * np.arange(count)), coeffs=coeffs)[0]


def test_scan_records_match_an_exact_power_grid(monkeypatch):
    # the factorized grid values (with Borwein's weights in limit mode)
    # move in their last bits; the candidates they pick, and so every
    # refined record, must not move at all
    rng = np.random.default_rng(20261018)
    windows = []
    for i in range(24):
        lo = float(rng.uniform(0.1, 100.0))
        hi = float(min(120.0, lo + rng.uniform(3.0, 30.0)))
        step = float(rng.uniform(0.02, 0.2))
        mode = SCAN_MODES[i % 2]
        windows.append((lo, hi, step, mode, float(rng.uniform(8.0, 16.0)), int(rng.integers(0, 4))))
    factorized = [scan_zeros(lo, hi, step=step, mode=mode, lam=lam, n=n)
                  for lo, hi, step, mode, lam, n in windows]
    monkeypatch.setattr(spectra, "_eta_line", _exact_power_line)
    exact = [scan_zeros(lo, hi, step=step, mode=mode, lam=lam, n=n)
             for lo, hi, step, mode, lam, n in windows]
    assert sum(map(len, exact)) > 50
    assert factorized == exact


def _weight_work():
    """(calls of Euler's weight caches, tables built by the c_k = 1 caches)."""
    euler = sum(f.cache_info().hits + f.cache_info().misses
                for f in (specfun._eta_weights, specfun._binomial_weights))
    built = specfun._borwein_rows.cache_info().misses + specfun._moduli.cache_info().misses
    return euler, built


@pytest.mark.parametrize("window", [(0.1, 120.0, 0.05), (13.0, 16.0, 0.05), (20.0, 26.0, 0.1)])
def test_limit_scan_work_counts(window):
    # a limit scan sums eta with Borwein's weights only (grid, appended top
    # and Newton), from one table sized for the window top; a warm repeat
    # builds no table at all
    lo, hi, step = window
    specfun._borwein_rows.cache_clear()
    euler, _ = _weight_work()
    cold = scan_zeros(lo, hi, step=step)
    assert cold and specfun._borwein_rows.cache_info().currsize == 1
    after_cold = _weight_work()
    assert after_cold[0] == euler
    assert scan_zeros(lo, hi, step=step) == cold
    assert _weight_work() == after_cold


def test_scan_grid_never_holds_the_term_matrix():
    # 2,398 points x 341 terms took 13.1 MB at the peak as one complex
    # matrix; the factorized grid holds about 2 sqrt(points) rows of it
    scan_zeros(0.1, 120.0)  # caches and lazy set-up
    tracemalloc.start()
    try:
        scan_zeros(0.1, 120.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@st.composite
def _magnitudes(draw):
    # 1-3000 magnitudes spanning 25 decades, some with few distinct values
    size = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.floats(-300.0, 280.0))
    pool = 10.0 ** rng.uniform(low, low + 25.0, draw(st.integers(1, size)))
    return pool[rng.integers(0, pool.size, size)]


@given(_magnitudes())
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
def test_partition_median_is_np_median_bitwise(values):
    # the scan's threshold; np.median would import numpy.ma on a first scan.
    # The array and its tail: one odd length, one even
    for part in (values, values[1:]):
        if part.size:
            assert spectra._median(part).hex() == float(np.median(part)).hex()


@st.composite
def _cut_windows(draw):
    a = draw(st.floats(0.1, 80.0))
    b = a + draw(st.floats(3.0, 20.0))
    c = b + draw(st.floats(3.0, 20.0))
    return a, b, c


@given(_cut_windows())
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
def test_scan_zeros_add_over_a_cut(window):
    # zeros of [a, c] are those of [a, b] and [b, c]; a zero within two
    # steps of an end may sit on a grid edge and is left out of the compare
    a, b, c = window
    step = 0.05

    def inner(records):
        return [r.t for r in records if min(abs(r.t - a), abs(r.t - b), abs(r.t - c)) > 2 * step]

    whole = inner(scan_zeros(a, c, step=step))
    parts = inner(scan_zeros(a, b, step=step) + scan_zeros(b, c, step=step))
    assert len(whole) == len(parts)
    assert all(abs(x - y) <= 1e-9 for x, y in zip(whole, sorted(parts)))


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
        # 239,801 points x 130 Borwein terms (limit) or 341 binomial terms
        # (finite): past the 2^24-element limit.  At step 1e-3 the limit
        # grid, 119,901 points x 130 terms, fits under it.
        with pytest.raises(DomainError, match="work limit"):
            scan_zeros(0.1, 120.0, step=5e-4, mode=mode)


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


def _per_lambda_study(s, n, lams, variant, y):
    """(value, reference, abs_error) rows and the fit, one boundary call per lambda."""
    rows = []
    for lam in lams:
        if variant == "tilde-corrected":
            tol = max(1e-11, 10.0 * _eta_scale_floor(s, gamma_complex(s)))
            exact = psi_boundary(y, s, n, lam, TILDE, tol).value
            pref = 2.0 * varphi_zero(s)
            zero_order = pref * eta(s)
            correction = (eta(s) - 2.0 * eta(s - 1.0)) * (2.0 * n + 1.0 + 0.5 * y)
            first_order = zero_order + math.exp(-lam) * pref * correction
            rows.append((exact, first_order, abs(exact - first_order)))
        else:
            kind = ORIGINAL if variant == "original" else TILDE
            value = psi_boundary(y, s, n, lam, kind).value
            reference = psi_boundary_limit(s, y)
            rows.append((value, reference, abs(value - reference)))
    xs = np.array(lams)
    ys = np.log([err for _, _, err in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    fit_residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return rows, float(slope), float(intercept), fit_residual


@given(
    t=st.floats(0.5, 13.5),
    n=st.integers(0, 3),
    lams=st.lists(st.integers(10, 32), min_size=2, max_size=3, unique=True),
    variant=st.sampled_from(spectra.STUDY_VARIANTS),
    y=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
def test_study_equals_the_per_lambda_route_bitwise(t, n, lams, variant, y):
    # the study shares grids and s-only factors across its squeezes; each
    # record and the fit must still be what one call per lambda gives
    s = complex(0.5, t)
    squeezes = [0.5 * k for k in sorted(lams)]
    expected = _per_lambda_study(s, n, squeezes, variant, y)
    study = convergence_study(s, n, squeezes, variant=variant, y=y)
    got = [(r.value, r.reference, r.abs_error) for r in study.records]
    assert repr(got) == repr(expected[0])
    assert repr((study.slope, study.intercept, study.fit_residual)) == repr(expected[1:])
    assert [r.lam for r in study.records] == squeezes


def _assert_study_makes_no_mellin_call(monkeypatch, variant, y):
    # the limit's eta (with eta(s-1) when corrected) is evaluated once per
    # study; at y > 0 the uncorrected limit is 0 and takes none
    calls = {"eta": 0}

    def refused(*args, **kwargs):
        raise AssertionError(f"a y = {y} study reached the Mellin engine")

    def counted(*args, **kwargs):
        calls["eta"] += 1
        return eta(*args, **kwargs)

    monkeypatch.setattr(waveform, "integrate_singular_log", refused)
    monkeypatch.setattr(waveform, "eta", counted)
    study = convergence_study(0.5 + 10j, 0, [8.0, 10.0, 12.0], variant=variant, y=y)
    assert len(study.records) == 3
    assert calls["eta"] == (2 if variant == "tilde-corrected" else int(y == 0.0))


@pytest.mark.parametrize("variant", STUDY_VARIANTS)
def test_study_at_y0_makes_no_mellin_call(monkeypatch, variant):
    # y = 0 takes the level sum, so the Mellin engine is never reached
    _assert_study_makes_no_mellin_call(monkeypatch, variant, 0.0)


@pytest.mark.parametrize("variant", ["tilde", "tilde-corrected"])
def test_tilde_study_at_small_y_makes_no_mellin_call(monkeypatch, variant):
    # Y = e^-lambda y is at most 1.7e-4 here, far inside the level sum's reach
    _assert_study_makes_no_mellin_call(monkeypatch, variant, 0.5)
