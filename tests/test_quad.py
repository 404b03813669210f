"""Half-line quadrature engine: pinned integrals, invariants, guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from zetawave.quad import NODE_BUDGET, _GAUSS_NODES, _GAUSS_WEIGHTS, _gauss_panels


def make_spec(**kw):
    base = dict(panels=64, tail_cutoff=40.0, target_tol=1e-11)
    base.update(kw)
    return QuadratureSpec(**base)


def one_minus_exp(u):
    # with g = 1 - e^{-u}, g/(e^u - 1) = e^{-u}: the Mellin integral is Gamma(s)
    return -np.expm1(-u)


def half_tanh(u):
    # with g = tanh(u/2), g/(e^u - 1) = 1/(e^u + 1): the Mellin integral is Gamma(s) eta(s)
    return np.tanh(0.5 * u)


def test_plain_exponential():
    res = integrate_halfline(lambda u: np.exp(-u), make_spec())
    assert abs(res.value - 1.0) <= 1e-12
    assert res.error <= 1e-10


def test_inverse_sqrt_singularity():
    values, _ = integrate_singular_log(one_minus_exp, [0.5], 1.0, 1.0, 1e-10)
    assert abs(values[0] - math.sqrt(math.pi)) <= 1e-10


def test_eta_integral_identity():
    s = 0.5 + 5j
    values, _ = integrate_singular_log(half_tanh, [s], 0.5, gamma_complex(s), 1e-9)
    assert abs(values[0] - eta(s)) <= 1e-8 * abs(eta(s))


def test_singular_log_gamma():
    s = 0.5 + 10j
    values, _ = integrate_singular_log(one_minus_exp, [s], 1.0, 1.0, 1e-9)
    assert abs(values[0] - gamma_complex(s)) <= 1e-9


def test_singular_log_sizes_its_panels_from_im_s():
    # the first grid has one 12-point panel per 6 radians of the phase
    # (1 + t_max) v over [v_lo, ln 45], at least 24, and each round doubles it
    sizes = []

    def counted(u):
        sizes.append(u.size)
        return one_minus_exp(u)

    v_lo = (math.log(1e-9) - math.log(10.0)) / 1.5 - 6.0
    first = []
    for t_max in (0.0, 10.0):
        sizes.clear()
        integrate_singular_log(counted, [0.5, complex(0.5, t_max)], 1.0, 1.0, 1e-9)
        rule = math.ceil((1.0 + t_max) * (math.log(45.0) - v_lo) / 6.0)
        assert sizes[0] == 12 * max(24, rule)
        assert sizes[1:] == [sizes[0] * 2**k for k in range(1, len(sizes))]
        first.append(sizes[0])
    assert first[0] == 12 * 24 < first[1]


def test_singular_log_vanishes_at_first_zero():
    # on the Gamma scale the value is eta(s), whose zero leaves only the
    # quadrature error; measured 5.5e-7 at tol 1e-6
    s = complex(0.5, 14.134725)
    values, _ = integrate_singular_log(half_tanh, [s], 0.5, gamma_complex(s), 1e-6)
    assert abs(values[0]) <= 1e-6


@given(sigma=st.floats(0.5, 2.0), t=st.floats(-10.0, 10.0))
@settings(derandomize=True, database=None, deadline=None, max_examples=50)
def test_singular_log_recovers_gamma(sigma, t):
    s = complex(sigma, t)
    values, _ = integrate_singular_log(one_minus_exp, [s], 1.0, gamma_complex(s), 1e-9)
    assert abs(values[0] - 1.0) <= 1e-8


def test_singular_log_stalls_with_nonconvergence():
    # at t = 40 the eta-scale rounding floor is ~e^{20 pi} eps, far above 1e-12
    s = complex(0.5, 40.0)
    with pytest.raises(NonConvergenceError, match="stalled"):
        integrate_singular_log(one_minus_exp, [s], 1.0, gamma_complex(s), 1e-12)
    # a first grid past the node cap is refused before it is built
    with pytest.raises(NonConvergenceError, match="stalled"):
        integrate_singular_log(one_minus_exp, [complex(0.5, 1e6)], 1.0, 1.0, 1e-9)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tail_cutoff_for(0.3, 0.0),
        lambda: tail_cutoff_for(0.3, -1.0),
        lambda: tail_cutoff_for(math.nan, 1e-10),
        lambda: tail_cutoff_for(math.inf, 1e-10),
        lambda: tail_cutoff_for(0.3, math.nan),
        lambda: tail_cutoff_for(0.3, math.inf),
        lambda: default_spec(tail_cutoff=math.nan),
        lambda: default_spec(tail_cutoff=math.inf),
        lambda: QuadratureSpec(target_tol=math.inf),
        lambda: QuadratureSpec(target_tol=math.nan),
        lambda: QuadratureSpec(panels=0),
        lambda: integrate_singular_log(one_minus_exp, [complex(0.5, math.nan)], 1.0, 1.0, 1e-9),
        lambda: integrate_singular_log(one_minus_exp, [complex(math.inf, 1.0)], 1.0, 1.0, 1e-9),
        lambda: integrate_singular_log(one_minus_exp, [0.0], 1.0, 1.0, 1e-9),
        lambda: integrate_singular_log(one_minus_exp, [0.5, -0.5 + 2j], 1.0, 1.0, 1e-9),
        lambda: integrate_singular_log(one_minus_exp, [], 1.0, 1.0, 1e-9),
        lambda: integrate_singular_log(one_minus_exp, [0.5], 1.0, 1.0, 0.0),
        lambda: integrate_singular_log(one_minus_exp, [0.5], 1.0, 1.0, math.inf),
        lambda: integrate_singular_log(one_minus_exp, [0.5, 1.0], 1.0, 1.0, [1e-9, math.nan]),
        lambda: integrate_singular_log(one_minus_exp, [0.5], 1.0, 0.0, 1e-9),
        lambda: integrate_singular_log(one_minus_exp, [0.5], 1.0, math.inf, 1e-9),
        lambda: integrate_singular_log(one_minus_exp, [0.5], 1.0, 1e-300, 1e-30),
        lambda: integrate_singular_log(one_minus_exp, [0.5], 1.0, 1.0, 1e-9, envelope=0.0),
        # a lower cut at or past u = 45 leaves only the head term
        lambda: integrate_singular_log(one_minus_exp, [0.5], 1.0, 1.0, 1e20),
        lambda: integrate_singular_log(one_minus_exp, [0.5], 1.0, 1.0, 1e-9, envelope=math.inf),
        lambda: integrate_singular_log(one_minus_exp, [0.5], 1.0, 1.0, 1e-9, envelope=math.nan),
        # an integrand must map the array of nodes elementwise
        lambda: integrate_halfline(lambda u: 1.0, make_spec()),
        lambda: integrate_halfline(lambda u: np.exp(-u)[:-1], make_spec()),
    ],
)
def test_bad_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


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
        QuadratureSpec(panels=NODE_BUDGET, tail_cutoff=40.0, target_tol=1e-10)


def test_nonconvergence_when_budget_too_small():
    # 12-point panels cannot resolve this oscillation even after the
    # halving loop exhausts the node budget
    spec = QuadratureSpec(panels=2, tail_cutoff=40.0, target_tol=1e-13)
    with pytest.raises(NonConvergenceError):
        integrate_halfline(lambda u: np.cos(2.0e4 * u) * np.exp(-0.1 * u), spec)


def test_gauss_rule_is_numpy_leggauss_bitwise():
    x, w = np.polynomial.legendre.leggauss(12)
    assert _GAUSS_NODES.tobytes() == x.tobytes()
    assert _GAUSS_WEIGHTS.tobytes() == w.tobytes()


def test_gauss_panels_integrate_polynomials():
    # 12 points per panel are exact through degree 23
    nodes, weights = _gauss_panels(0.0, 3.0, 5)
    assert nodes.shape == weights.shape == (60,)
    for k in range(24):
        want = 3.0 ** (k + 1) / (k + 1)
        got = float(np.sum(weights * nodes**k))
        assert abs(got - want) <= 1e-14 * want, k

