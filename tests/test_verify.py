"""Verify checks fail when the kernel they watch is wrong.

A check that compares a kernel with itself passes whatever the kernel
does; each test here breaks one kernel, as verify looks it up, and asserts
that its check reports the fault.  The rest pin what a check runs on:
the grids it integrates over, and how often it calls its kernel.
"""

import math

import numpy as np
import pytest

from zetawave import specfun
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
    grids, squeezes = [], []

    def recorded_panels(a, b, panels):
        grids.append((a, b, panels))
        return _gauss_panels(a, b, panels)

    def recorded_squeeze(psi, lam):
        squeezes.append((psi, lam))
        return squeeze_apply(psi, lam)

    monkeypatch.setattr("zetawave.verify._gauss_panels", recorded_panels)
    monkeypatch.setattr("zetawave.verify.squeeze_apply", recorded_squeeze)
    (res,) = run_checks(only="squeeze-unitarity")
    assert res.passed
    # per function: the unsqueezed grid, then one grid per lambda
    assert len(grids) == 4 * len(closed) and len(squeezes) == 3 * len(closed)
    for i, want in enumerate(closed):
        # the unsqueezed norm is the lambda = 0 squeeze's
        cases = squeezes[3 * i: 3 * i + 1] + squeezes[3 * i: 3 * i + 3]
        assert [lam for _, lam in cases] == [0.0, 0.0, 1.0, 5.0]
        for (psi, lam), (a, b, panels) in zip(cases, grids[4 * i: 4 * i + 4]):
            nodes, weights = _gauss_panels(a, b, panels)
            norm = math.fsum(np.abs(squeeze_apply(psi, lam)(nodes)) ** 2 * weights)
            assert norm == pytest.approx(want, rel=1e-11), (i, lam)


def test_squeeze_check_leaves_the_adaptive_engine(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_halfline(*args, **kwargs)

    monkeypatch.setattr("zetawave.verify.integrate_halfline", counted)
    run_checks(only="squeeze-unitarity")
    assert calls == []


def test_chi_gram_refuses_an_unresolved_halving(monkeypatch):
    # a factor cos(40 y) puts about five periods in each of the 160 panels,
    # which twelve Gauss nodes cannot resolve
    monkeypatch.setattr(
        "zetawave.verify.chi", lambda n, y: np.cos(40.0 * y) * specfun.chi(n, y)
    )
    (res,) = run_checks(only="chi-orthonormality")
    assert res.measured == math.inf and not res.passed
    assert "halving" in res.detail
