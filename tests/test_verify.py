"""Verify checks fail when the kernel they watch is wrong.

A check that compares a kernel with itself passes whatever the kernel
does; each test here breaks one kernel, as verify looks it up, and asserts
that its check reports the fault.  The rest pin what a check runs on:
the grids it integrates over, the seeded points it takes, and how often
it calls its kernel.
"""

import math
import tracemalloc

import numpy as np
import pytest

from zetawave import oracles, specfun, verify, waveform
from zetawave.quad import _gauss_panels, integrate_halfline
from zetawave.specfun import laguerre
from zetawave.verify import run_checks
from zetawave.waveform import squeeze_apply


def _recurrence_wrong_seed(n, y, seed, all_orders=False, exponent=None):
    # the ascending recurrence from L_1 = 1 - 2y instead of 1 - y
    rows = [seed, (1.0 - 2.0 * y) * seed]
    for m in range(1, n):
        rows.append(((2.0 * m + 1.0 - y) * rows[-1] - m * rows[-2]) / (m + 1.0))
    return np.stack(rows[: n + 1]) if all_orders else rows[n]


def test_laguerre_check_catches_a_wrong_seed(monkeypatch):
    (good,) = run_checks(only="laguerre-recurrence")
    assert good.passed
    monkeypatch.setattr("zetawave.verify._laguerre_recurrence", _recurrence_wrong_seed)
    (bad,) = run_checks(only="laguerre-recurrence")
    assert not bad.passed
    assert bad.measured > 0.1


def test_laguerre_check_rows_are_the_public_polynomials():
    # the check's grid: its all-orders rows must be what laguerre returns
    ys = np.linspace(0.0, 50.0, 101)
    rows = specfun._laguerre_recurrence(50, ys, np.ones_like(ys), all_orders=True)
    assert rows.shape == (51, ys.size)
    for n in range(51):
        assert np.array_equal(rows[n], laguerre(n, ys)), n


def test_laguerre_check_runs_one_recurrence(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("all_orders", False))
        return specfun._laguerre_recurrence(*args, **kwargs)

    monkeypatch.setattr("zetawave.verify._laguerre_recurrence", counted)
    run_checks(only="laguerre-recurrence")
    assert calls == [True]


def test_squeeze_check_catches_a_dropped_amplitude(monkeypatch):
    # without e^{-lam/2} the squared norm grows by e^lam: e^5 - 1 = 147
    monkeypatch.setattr(
        "zetawave.verify.squeeze_apply",
        lambda psi, lam: lambda x: psi(math.exp(-lam) * x),
    )
    (bad,) = run_checks(only="squeeze-unitarity")
    assert not bad.passed
    assert bad.measured == pytest.approx(math.expm1(5.0), rel=1e-9)


def test_squeeze_check_grids_resolve_the_closed_norms(monkeypatch):
    # the squared norms of the check's five functions, in its order; the
    # cutoffs' own tail is worst for x e^{-x}, at 5.5e-12 relative
    closed = [0.5, 0.25, 0.5 * math.sqrt(math.pi), 0.2, 13.0 / 32.0]
    grids, evaluations = [], []

    def recorded_panels(a, b, panels):
        grids.append((a, b, panels))
        return _gauss_panels(a, b, panels)

    def recorded_squeeze(psi, lam):
        squeezed = squeeze_apply(psi, lam)

        def evaluated(x):
            evaluations.append((psi, lam, x))
            return squeezed(x)

        return evaluated

    monkeypatch.setattr("zetawave.verify._gauss_panels", recorded_panels)
    monkeypatch.setattr("zetawave.verify.squeeze_apply", recorded_squeeze)
    (res,) = run_checks(only="squeeze-unitarity")
    assert res.passed
    # 20 norms on 9 distinct grids, each built once: the unsqueezed norm of
    # each function shares its lambda = 0 grid, and functions of one decay
    # rate share all three
    assert len(grids) == len(set(grids)) == 9
    assert [lam for _, lam, _ in evaluations] == [0.0, 1.0, 5.0] * len(closed)
    for k, (psi, lam, x) in enumerate(evaluations):
        (grid,) = [g for g in grids if np.array_equal(_gauss_panels(*g)[0], x)]
        nodes, weights = _gauss_panels(*grid)
        norm = math.fsum(np.abs(squeeze_apply(psi, lam)(nodes)) ** 2 * weights)
        assert norm == pytest.approx(closed[k // 3], rel=1e-11), (k, lam)
    # the unsqueezed norm is the lambda = 0 squeeze's, on the same grid
    psi, _, x = evaluations[0]
    assert np.array_equal(psi(x), squeeze_apply(psi, 0.0)(x))


def test_squeeze_check_leaves_the_adaptive_engine(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_halfline(*args, **kwargs)

    monkeypatch.setattr("zetawave.verify.integrate_halfline", counted)
    run_checks(only="squeeze-unitarity")
    assert calls == []


def test_overlap_check_builds_each_grid_once(monkeypatch):
    # one grid and one chi_m per level for its three squeezes: 11 + 33 chi
    # calls where 33 overlap_s1 calls took 66; each overlap is bitwise the
    # public call's
    chis, overlaps = [], []

    def counted(n, y):
        chis.append(n)
        return specfun.chi(n, y)

    def recorded(m, n, lams):
        values = waveform._quadrature_overlaps(m, n, lams)
        overlaps.extend((m, n, lam, value) for lam, value in zip(lams, values))
        return values

    monkeypatch.setattr("zetawave.waveform.chi", counted)
    monkeypatch.setattr("zetawave.verify._quadrature_overlaps", recorded)
    (res,) = run_checks(only="overlap-limit-rate")
    assert res.passed
    assert len(chis) == 44 and chis.count(0) == 34
    monkeypatch.undo()
    assert len(overlaps) == 33
    for m, n, lam, value in overlaps:
        assert value.hex() == waveform.overlap_s1(m, n, lam, bare=True).hex(), (m, lam)


def test_varphi_check_takes_one_array_call(monkeypatch):
    # the 1,501 points of the line in one call, and the printed step is the
    # scalar values' step (the measured one is 3 ulp from it)
    calls = []

    def recorded(points):
        calls.append(points.copy())
        return waveform.varphi_zero(points)

    monkeypatch.setattr("zetawave.verify.varphi_zero", recorded)
    (res,) = run_checks(only="varphi-branch-continuity")
    assert res.passed and len(calls) == 1
    ts = np.arange(0.0, 30.0 + 1e-9, 0.02)
    assert calls[0].tobytes() == np.array([complex(0.5, t) for t in ts]).tobytes()
    scalar = np.array([waveform.varphi_zero(complex(0.5, t)) for t in ts])
    step = float(np.max(np.abs(np.angle(scalar[1:] / scalar[:-1]))))
    assert format(res.measured, ".15g") == format(step, ".15g")


def test_chi_gram_refuses_an_unresolved_halving(monkeypatch):
    # a factor cos(40 y) puts about five periods in each of the 160 panels,
    # which twelve Gauss nodes cannot resolve
    monkeypatch.setattr(
        "zetawave.verify._laguerre_recurrence",
        lambda n, y, seed, **kw: np.cos(40.0 * y) * specfun._laguerre_recurrence(n, y, seed, **kw),
    )
    (res,) = run_checks(only="chi-orthonormality")
    assert res.measured == math.inf and not res.passed
    assert "halving" in res.detail


def test_chi_gram_runs_one_recurrence_whose_rows_are_chi(monkeypatch):
    # one all-orders call over both grids; each grid's rows are bitwise
    # chi(n, nodes)
    calls = []

    def recorded(n, y, seed, **kwargs):
        rows = specfun._laguerre_recurrence(n, y, seed, **kwargs)
        calls.append((n, y.copy(), kwargs, rows))
        return rows

    monkeypatch.setattr("zetawave.verify._laguerre_recurrence", recorded)
    (res,) = run_checks(only="chi-orthonormality")
    assert res.passed
    assert len(calls) == 1
    n, nodes, kwargs, rows = calls[0]
    assert (n, kwargs) == (10, {"all_orders": True})
    cutoff = 42.0 + verify.tail_cutoff_for(0.3, 1e-12)
    start = 0
    for panels in (160, 320):
        grid, _ = _gauss_panels(0.0, cutoff, panels)
        assert np.array_equal(nodes[start: start + grid.size], grid)
        for order in range(11):
            assert np.array_equal(rows[order, start: start + grid.size], specfun.chi(order, grid))
        start += grid.size
    assert start == nodes.size


@pytest.mark.parametrize("check, rows", [
    ("eta-alternating-agreement", 5),
    ("confined-boundary-consistency", 4),
])
def test_oracle_checks_average_one_batch(monkeypatch, check, rows):
    shapes = []

    def counted(terms):
        shapes.append(np.shape(terms))
        return oracles.euler_naive(terms)

    monkeypatch.setattr("zetawave.verify.euler_naive", counted)
    (res,) = run_checks(only=check)
    assert res.passed
    assert len(shapes) == 1 and len(shapes[0]) == 2 and shapes[0][0] == rows


def test_eta_naive_check_working_set():
    # from an empty factor-table cache; measured peak 0.26 MiB and kept
    # 0.06 MiB on 10,000 terms, where 200,000 peaked at 4.77 and kept 1.17
    oracles._factor_table.cache_clear()
    tracemalloc.start()
    try:
        verify._check_eta_naive_agreement()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20
    assert kept <= 0.2 * 2**20


def test_number_operator_takes_chi_once_per_application(monkeypatch):
    sizes = []

    def counted(n, y):
        sizes.append(np.size(y))
        return specfun.chi(n, y)

    monkeypatch.setattr("zetawave.oracles.chi", counted)
    assert abs(oracles.apply_number_operator(3, 2.8) - 3.0) < 1e-5
    assert sizes == [5]
    sizes.clear()
    (res,) = run_checks(only="number-operator-eigenvalues")
    assert res.passed
    # the check's 27 applications
    assert sizes == [5] * 27


def test_seeded_tables_are_the_generator_draws():
    # the draws the two checks took from numpy.random.default_rng(_SEED), in
    # the order they took them: sigma then t per gamma point, and the bk
    # heights from a fresh generator
    rng = np.random.default_rng(verify._SEED)
    gamma = [rng.uniform(*bounds) for _ in range(100) for bounds in ((-2.0, 3.0), (-60.0, 60.0))]
    rng = np.random.default_rng(verify._SEED)
    heights = [rng.uniform(0.5, 10.0) for _ in range(20)]
    for table, draws in ((verify._GAMMA_POINTS, gamma), (verify._BK_HEIGHTS, heights)):
        assert type(table) is tuple and all(type(v) is float for v in table)
        assert [v.hex() for v in table] == [float(v).hex() for v in draws]


def test_gamma_points_keep_clear_of_the_poles():
    # the draw loop used to skip such a point; none of the table is one
    pairs = list(zip(verify._GAMMA_POINTS[::2], verify._GAMMA_POINTS[1::2]))
    assert len(pairs) == 100
    for sigma, t in pairs:
        if sigma <= 0.6:
            assert min(abs(complex(sigma, t) - k) for k in range(-3, 2)) >= 0.15
