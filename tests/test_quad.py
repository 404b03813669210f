"""Half-line quadrature engine: pinned integrals, invariants, guards."""

import math

import mpmath as mp
import numpy as np
import pytest

from zetawave import (
    DomainError,
    NonConvergenceError,
    QuadratureSpec,
    default_spec,
    eta,
    gamma_complex,
    integrate_halfline,
    integrate_singular_log,
    tail_cutoff_for,
)
from zetawave.quad import NODE_BUDGET, _gauss_panels, _log_lower_cut


def make_spec(**kw):
    base = dict(panels=64, nodes_per_panel=12, tail_cutoff=40.0, target_tol=1e-11)
    base.update(kw)
    return QuadratureSpec(**base)


def test_plain_exponential():
    res = integrate_halfline(lambda u: np.exp(-u), make_spec())
    assert abs(res.value - 1.0) <= 1e-12
    assert res.error <= 1e-10


def test_inverse_sqrt_singularity():
    res = integrate_singular_log(lambda u: np.exp(-u), 0.5, make_spec())
    assert abs(res.value - math.sqrt(math.pi)) <= 1e-10


def test_eta_integral_identity():
    s = 0.5 + 5j
    res = integrate_singular_log(
        lambda u: np.exp(-u) / (1.0 + np.exp(-u)), s, default_spec()
    )
    want = gamma_complex(s) * eta(s)
    assert abs(res.value - want) <= 1e-8 * abs(want)


def test_singular_log_gamma():
    s = 0.5 + 10j
    spec = default_spec()
    res = integrate_singular_log(lambda u: np.exp(-u), s, spec)
    assert abs(res.value - gamma_complex(s)) <= 1e-9


def test_singular_log_sizes_its_panels_from_im_s():
    # the halving starts from the larger of spec.panels and one panel per
    # ~6 radians of the phase t v over [v_lo, v_hi]
    s = 0.5 + 10j
    f = lambda u: np.exp(-u)
    v_lo, v_hi = _log_lower_cut(1e-11, 0.5), math.log(40.0)
    rule = math.ceil(10.0 * (v_hi - v_lo) / 6.0)
    res = integrate_singular_log(f, s, make_spec(panels=1))
    assert res == integrate_singular_log(f, s, make_spec(panels=rule))
    assert res.panels_used >= 2 * rule
    assert abs(res.value - gamma_complex(s)) <= 1e-9
    wide = integrate_singular_log(f, s, make_spec(panels=4 * rule))
    assert wide.panels_used >= 8 * rule


def test_singular_log_truncated_plateau():
    # g jumps to zero at u = 1; setting the cutoff on the jump keeps the
    # panelled region smooth and the integral is just 2 sqrt(u) at 1
    res = integrate_singular_log(lambda u: np.ones_like(u), 0.5, make_spec(tail_cutoff=1.0))
    assert abs(res.value - 2.0) <= 1e-10


def test_singular_log_vanishes_at_first_zero():
    # the bound is ~5.7e-16 absolute, so the head cut has to sit deeper
    # than the default tolerance would place it
    s = complex(0.5, 14.134725)
    spec = default_spec(target_tol=1e-13)
    res = integrate_singular_log(
        lambda u: np.exp(-u) / (1.0 + np.exp(-u)), s, spec
    )
    assert abs(res.value) <= 1e-6 * abs(gamma_complex(s))


def test_linearity():
    spec = make_spec()
    f = lambda u: np.exp(-u)
    g = lambda u: u * np.exp(-2.0 * u)
    combined = integrate_halfline(lambda u: 3.0 * f(u) - 2.0 * g(u), spec).value
    split = 3.0 * integrate_halfline(f, spec).value - 2.0 * integrate_halfline(g, spec).value
    assert abs(combined - split) <= 2e-10


def test_doubling_never_raises_error_estimate():
    f = lambda u: np.exp(-u) * np.cos(3.0 * u)
    errors = []
    for panels in (16, 32, 64, 128):
        res = integrate_halfline(f, make_spec(panels=panels, target_tol=1e-14))
        errors.append(res.error)
    assert all(b <= a * 1.0000001 for a, b in zip(errors, errors[1:]))


def test_tail_bound_honest_for_known_tail():
    res = integrate_halfline(lambda u: np.exp(-0.5 * u), make_spec())
    true_tail = 2.0 * math.exp(-20.0)
    assert true_tail <= res.tail_bound


def test_tail_cutoff_for_sizing():
    cut = tail_cutoff_for(0.5, 1e-10)
    assert math.exp(-0.5 * cut) <= 1e-11


def test_budget_guard_on_spec():
    with pytest.raises(DomainError):
        QuadratureSpec(
            panels=NODE_BUDGET, nodes_per_panel=12, tail_cutoff=40.0, target_tol=1e-10
        )


def test_nonconvergence_when_budget_too_small():
    # order-2 panels cannot resolve this oscillation even after the
    # halving loop exhausts the node budget
    spec = QuadratureSpec(panels=2, nodes_per_panel=2, tail_cutoff=40.0, target_tol=1e-13)
    with pytest.raises(NonConvergenceError):
        integrate_halfline(lambda u: np.cos(2.0e4 * u) * np.exp(-0.1 * u), spec)


def test_result_exposes_complex_protocol():
    res = integrate_halfline(lambda u: np.exp(-u), make_spec())
    assert complex(res) == res.value


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="longdouble is plain double on this platform",
)
def test_extended_gauss_nodes_against_mpmath_roots():
    # the double nodes sit ~1e-16 off the roots; two longdouble Newton steps
    # should leave only 80-bit rounding
    nodes, _ = _gauss_panels(-1.0, 1.0, 1, 12, extended=True)
    assert nodes.dtype == np.longdouble
    worst = 0.0
    with mp.workdps(40):
        for x in nodes:
            hi = float(x)
            value = mp.mpf(hi) + mp.mpf(float(x - np.longdouble(hi)))
            root = mp.findroot(lambda u: mp.legendre(12, u), mp.mpf(hi))
            worst = max(worst, float(abs(value - root)))
    assert worst <= 1e-18


@pytest.mark.parametrize("extended", [False, True])
def test_gauss_panels_integrate_polynomials(extended):
    # 12 points per panel are exact through degree 23
    nodes, weights = _gauss_panels(0.0, 3.0, 5, 12, extended)
    assert nodes.shape == weights.shape == (60,)
    for k in range(24):
        want = 3.0 ** (k + 1) / (k + 1)
        got = float(np.sum(weights * nodes**k))
        assert abs(got - want) <= 1e-14 * want, k
