"""Special-function layer against independent oracles.

Laguerre values are checked against exact rational coefficient sums,
Bessel and eta values against mpmath evaluated at high working precision,
and the gamma function against mpmath plus its own functional equation.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from zetawave import (
    DomainError,
    OverflowRangeError,
    SpectralParameter,
    TruncationPolicy,
    bessel_i0,
    bessel_i0_scaled,
    chi,
    critical_point,
    eta,
    eta_grid,
    gamma_complex,
    laguerre,
    xi_aux,
    zeta,
)
from zetawave.specfun import _binomial_weights, _eta_sums

mp.mp.dps = 40

# First ten zero ordinates, refined beforehand with mpmath.zetazero on the
# eta objective; frozen here so the suite never depends on network tables.
FIRST_TEN_ORDINATES = [
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
]


def laguerre_exact(n: int, y: Fraction) -> Fraction:
    """Monomial expansion with rational binomials, exact for rational y."""
    total = Fraction(0)
    for k in range(n + 1):
        binom = Fraction(math.comb(n, k))
        total += binom * (-y) ** k / Fraction(math.factorial(k))
    return total


# ---------------------------------------------------------------------------
# laguerre / chi
# ---------------------------------------------------------------------------


def test_laguerre_order_zero_is_one():
    assert laguerre(0, 3.7) == 1.0


def test_laguerre_order_one():
    assert laguerre(1, 2.0) == pytest.approx(-1.0, abs=1e-15)


def test_laguerre_against_exact_expansion():
    y = Fraction(1)
    want = float(laguerre_exact(5, y))
    assert laguerre(5, 1.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [2, 7, 13])
@pytest.mark.parametrize("y_num, y_den", [(3, 2), (22, 7), (41, 5)])
def test_laguerre_rational_grid(n, y_num, y_den):
    y = Fraction(y_num, y_den)
    want = float(laguerre_exact(n, y))
    got = laguerre(n, y_num / y_den)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_laguerre_recurrence_residual():
    ys = np.linspace(0.0, 50.0, 41)
    worst = 0.0
    for n in range(1, 50):
        lhs = (n + 1) * laguerre(n + 1, ys)
        rhs = (2 * n + 1 - ys) * laguerre(n, ys) - n * laguerre(n - 1, ys)
        scale = np.maximum(np.abs(lhs), 1.0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    assert worst <= 1e-10


def test_chi_at_origin_is_exactly_one():
    for n in (0, 1, 7, 40):
        assert chi(n, 0.0) == 1.0


def test_chi_order_zero():
    assert chi(0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_chi_against_exact_expansion():
    want = float(laguerre_exact(3, Fraction(3, 2))) * math.exp(-0.75)
    assert chi(3, 1.5) == pytest.approx(want, rel=1e-12)


def test_chi_rejects_negative_order():
    with pytest.raises(DomainError):
        chi(-1, 1.0)


# ---------------------------------------------------------------------------
# bessel i0
# ---------------------------------------------------------------------------


def test_i0_at_zero():
    assert bessel_i0(0.0) == 1.0


@pytest.mark.parametrize("z", [1.0, 30.0, 250.0, 700.0])
def test_i0_against_mpmath(z):
    want = float(mp.besseli(0, z))
    assert bessel_i0(z) == pytest.approx(want, rel=1e-12)


def test_i0_overflow_flag():
    with pytest.raises(OverflowRangeError):
        bessel_i0(710.0)


def test_i0_scaled_bounded_and_consistent():
    zs = np.array([0.0, 0.5, 17.9, 18.1, 75.0, 4000.0])
    vals = bessel_i0_scaled(zs)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    for z, v in zip(zs, vals):
        want = float(mp.besseli(0, z) * mp.e ** (-z))
        assert v == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# eta / zeta / xi
# ---------------------------------------------------------------------------


def test_eta_at_one_is_ln2():
    assert eta(1.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_eta_at_zero_is_half():
    assert eta(0.0) == pytest.approx(0.5, rel=1e-12)


def test_eta_contract_region_against_mpmath():
    worst = 0.0
    for sigma in (-2.0, -0.5, 0.5, 1.5, 3.0):
        for t in (0.0, 3.7, 14.5, 33.0, 60.0):
            s = complex(sigma, t)
            got = eta(s)
            want = complex(mp.altzeta(mp.mpc(sigma, t)))
            # the grid touches eta(-2) = 0 where a pure relative error
            # is undefined; the floor keeps that point absolute
            worst = max(worst, abs(got - want) / max(abs(want), 1e-3))
    assert worst <= 1e-10


def test_eta_vanishes_at_first_ten_ordinates():
    for t in FIRST_TEN_ORDINATES:
        assert abs(eta(critical_point(t))) <= 1e-6


def test_eta_grid_matches_scalar():
    ts = np.array([0.0, 1.0, 14.134725141734694, 29.5, 55.0])
    zs = 0.5 + 1j * ts
    grid = eta_grid(zs)
    for z, g in zip(zs, grid):
        assert abs(g - eta(z)) <= 5e-12 * max(1.0, abs(eta(z)))


def test_eta_is_first_point_of_its_grid():
    for s in (-2.0 + 0.0j, -1.5 + 7.0j, 0.5 + 14.134725j, 0.5 + 50.0j, 3.0 + 60.0j):
        assert eta(s) == eta_grid([s])[0]


@pytest.mark.parametrize("sigma", [-2.0, 0.5, 3.0])
@pytest.mark.parametrize("t", [0.1, 14.13, 60.0])
def test_eta_derivative_against_mpmath(sigma, t):
    s = complex(sigma, t)
    values, derivs = _eta_sums([s], derivative=True)
    want = complex(mp.diff(mp.altzeta, mp.mpc(sigma, t)))
    assert values[0] == eta(s)
    assert abs(derivs[0] - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 81, 421, 1100])
def test_binomial_weights_against_exact_integers(n):
    # 2^n C(n, j) and its upper tails are exact integers; int / int rounds
    # correctly, and past n = 1074 the smallest probabilities underflow
    counts = [math.comb(n, j) for j in range(n + 1)]
    tails = np.cumsum(np.array(counts[::-1], dtype=object))[::-1]
    p, tail = _binomial_weights(n)
    assert p.shape == tail.shape == (n + 1,)
    assert not p.flags.writeable and not tail.flags.writeable
    for got, exact in ((p, counts), (tail, tails)):
        want = np.array([int(v) / 2**n for v in exact])
        err = np.abs(got - want)
        assert np.all(err <= 1e-15)
        bulk = want >= 1e-3
        assert np.all(err[bulk] <= 2e-15 * want[bulk])


def test_zeta_at_two():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)


def test_zeta_at_zero():
    assert zeta(0.0) == pytest.approx(-0.5, rel=1e-12)


def test_zeta_vanishes_at_second_zero():
    assert abs(zeta(complex(0.5, 21.022039638771555))) <= 1e-6


def test_zeta_pole_guard():
    with pytest.raises(DomainError):
        zeta(1.0)


def test_zeta_removable_point_guard():
    s = complex(1.0, 2.0 * math.pi / math.log(2.0))
    with pytest.raises(DomainError):
        zeta(s)


def test_xi_aux_at_three():
    want = float(mp.zeta(3)) - (4.0 / 3.0) * math.pi**2 / 6.0
    assert xi_aux(3.0) == pytest.approx(want, rel=1e-12)


def test_xi_aux_finite_and_nonzero_at_first_zero():
    val = xi_aux(complex(0.5, 14.134725141734694))
    assert math.isfinite(abs(val))
    assert abs(val) > 1e-3


def test_xi_aux_limit_point_matches_extrapolation():
    # the prefactor zero cancels the zeta(1) pole at s = 2; the function's
    # own limit is what the implementation must return
    h = 1e-4
    two_sided = 0.5 * (xi_aux(2.0 + h) + xi_aux(2.0 - h))
    assert abs(xi_aux(2.0) - two_sided) <= 1e-6


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "z",
    [0.5 + 0j, 2.5 - 7j, 0.5 + 14.134725j, -1.5 + 3j, 3.0 + 60j, -0.5 + 33j],
)
def test_gamma_against_mpmath(z):
    want = complex(mp.gamma(mp.mpc(z.real, z.imag)))
    assert abs(gamma_complex(z) - want) <= 1e-12 * abs(want)


def test_gamma_half_is_sqrt_pi():
    assert gamma_complex(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_functional_equation_seeded():
    rng = np.random.default_rng(20260813)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-2.0, 3.0), rng.uniform(-60.0, 60.0))
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            continue
        lhs = gamma_complex(z + 1.0)
        rhs = z * gamma_complex(z)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-10


def test_gamma_pole_guard():
    with pytest.raises(DomainError):
        gamma_complex(0.0)
    with pytest.raises(DomainError):
        gamma_complex(-3.0)


def test_gamma_overflow_guard():
    with pytest.raises(OverflowRangeError):
        gamma_complex(200.0)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_critical_point():
    assert critical_point(14.0) == 0.5 + 14.0j


def test_spectral_parameter_roundtrip():
    p = SpectralParameter.from_complex(0.5 + 3j)
    assert p.value == 0.5 + 3j
    with pytest.raises(DomainError):
        SpectralParameter(math.nan, 0.0)


def test_truncation_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(max_terms=0)
    with pytest.raises(DomainError):
        TruncationPolicy(abs_tol=0.0, rel_tol=0.0)
    pol = TruncationPolicy(max_terms=8, abs_tol=1e-10)
    assert pol.converged(5e-11, 1.0)
    assert not pol.converged(5e-9, 1.0)
