"""Verify checks fail when the kernel they watch is wrong.

A check that compares a kernel with itself passes whatever the kernel
does; each test here breaks one kernel, as verify looks it up, and asserts
that its check reports the fault.
"""

import math

import numpy as np

from zetawave import specfun
from zetawave.verify import run_checks


def _laguerre_wrong_seed(n, y):
    # the ascending recurrence from L_1 = 1 - 2y instead of 1 - y
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    prev, cur = np.ones_like(arr), 1.0 - 2.0 * arr
    for m in range(1, n):
        prev, cur = cur, ((2.0 * m + 1.0 - arr) * cur - m * prev) / (m + 1.0)
    return prev if n == 0 else cur


def test_laguerre_check_catches_a_wrong_seed(monkeypatch):
    (good,) = run_checks(only="laguerre-recurrence")
    assert good.passed
    monkeypatch.setattr("zetawave.verify.laguerre", _laguerre_wrong_seed)
    (bad,) = run_checks(only="laguerre-recurrence")
    assert not bad.passed
    assert bad.measured > 0.1


def test_chi_gram_refuses_an_unresolved_halving(monkeypatch):
    # a factor cos(40 y) puts about five periods in each of the 160 panels,
    # which twelve Gauss nodes cannot resolve
    monkeypatch.setattr(
        "zetawave.verify.chi", lambda n, y: np.cos(40.0 * y) * specfun.chi(n, y)
    )
    (res,) = run_checks(only="chi-orthonormality")
    assert res.measured == math.inf and not res.passed
    assert "halving" in res.detail
