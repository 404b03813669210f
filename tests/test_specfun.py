"""Special-function layer against independent oracles.

Laguerre values are checked against exact rational coefficient sums,
Bessel and eta values against mpmath evaluated at high working precision,
and the gamma function against mpmath plus its own functional equation.
"""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zetawave import (
    DomainError,
    NonConvergenceError,
    OverflowRangeError,
    bessel_i0_scaled,
    chi,
    eta,
    eta_grid,
    gamma_complex,
    laguerre,
    zeta,
)
from zetawave import specfun
from zetawave.specfun import (
    _MAX_BORWEIN_ORDER,
    _binomial_weights,
    _borwein_order,
    _borwein_tails,
    _borwein_weights,
    _eta_depth,
    _eta_line,
    _eta_sums,
    _settled,
)
from zetawave.waveform import _bare_overlaps

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


@pytest.mark.parametrize("n, y, want", [
    # mpmath laguerre(n, 0, y) exp(-y/2) at 40 digits; the seed e^{-y/2} is
    # subnormal at y = 1489 and 0 at the others, and chi used to return
    # 0.0302, 0 and -0 here
    (370, 1489.0, "0.028466224173005"),
    (1000, 2000.0, "0.0100316490260881"),
    (10000, 30000.0, "-0.0019730236760179"),
])
def test_chi_past_the_underflow_of_its_weight(n, y, want):
    assert chi(n, y) == pytest.approx(float(want), rel=1e-12)
    with mp.workdps(40):
        exact = mp.laguerre(n, 0, y) * mp.exp(-mp.mpf(y) / 2)
    assert abs(chi(n, y) - float(exact)) <= 1e-12 * abs(float(exact))


def test_chi_keeps_normal_weights_and_mixes_arrays():
    # past every digit (1 + y)^n e^{-y/2} < 2^-1074, and n = 0 is the weight
    assert chi(3, 1e300) == 0.0 and chi(100, 1e6) == 0.0
    assert chi(0, 1500.0) == 0.0 and chi(0, 1420.0) == pytest.approx(math.exp(-710.0), rel=1e-12)
    ys = np.array([0.5, 1400.0, 1489.0, 2000.0])
    assert chi(370, ys).tolist() == [chi(370, y) for y in ys]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(0, 300), y=st.floats(1000.0, 4000.0))
@example(n=300, y=1416.7)
@example(n=300, y=1416.9)
@example(n=120, y=1416.8)
def test_chi_against_mpmath_across_the_seed_split(n, y):
    # below y = 1416.8 the recurrence runs from the weight e^{-y/2}, above
    # it from its mantissa with the exponent carried apart
    with mp.workdps(40):
        exact = float(mp.laguerre(n, 0, y) * mp.exp(-mp.mpf(y) / 2))
    assume(abs(exact) >= np.finfo(float).tiny)
    # measured on 1,400 draws: relative error <= 1.7e-13 past the turning
    # point 4n + 2, and absolute <= 1.3e-16 inside it, where chi_n
    # oscillates through its zeros
    bound = 1e-12 * abs(exact) + (1e-15 if y < 4 * n + 2 else 0.0)
    assert abs(chi(n, y) - exact) <= bound


def test_chi_rejects_negative_order():
    with pytest.raises(DomainError):
        chi(-1, 1.0)


# ---------------------------------------------------------------------------
# bessel i0
# ---------------------------------------------------------------------------


def test_i0_at_zero():
    assert bessel_i0_scaled(0.0) == 1.0


@pytest.mark.parametrize("z", [1.0, 30.0, 250.0, 700.0])
def test_i0_against_mpmath(z):
    want = float(mp.besseli(0, z) * mp.e ** (-z))
    assert bessel_i0_scaled(z) == pytest.approx(want, rel=1e-12)


def test_i0_scaled_bounded_and_consistent():
    zs = np.array([0.0, 0.5, 17.9, 18.1, 75.0, 4000.0])
    vals = bessel_i0_scaled(zs)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    for z, v in zip(zs, vals):
        want = float(mp.besseli(0, z) * mp.e ** (-z))
        assert v == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# eta / zeta
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
        assert abs(eta(complex(0.5, t))) <= 1e-6


def test_eta_grid_matches_scalar():
    ts = np.array([0.0, 1.0, 14.134725141734694, 29.5, 55.0])
    zs = 0.5 + 1j * ts
    grid = eta_grid(zs)
    for z, g in zip(zs, grid):
        assert abs(g - eta(z)) <= 5e-12 * max(1.0, abs(eta(z)))


def test_eta_grid_refuses_an_array_of_two_dimensions():
    # numpy's broadcast ValueError surfaced from the weighted sum
    with pytest.raises(DomainError, match="1-D batch"):
        eta_grid(np.full((2, 2), 0.5 + 3j))


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


@given(st.floats(0.5, 3.0), st.floats(-120.0, 120.0))
@example(0.5, 120.0)
@example(0.5, -120.0)
@example(0.5, 0.0)
@example(3.0, 117.3)
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
def test_borwein_derivative_row_against_mpmath(sigma, t):
    # at sigma >= 1/2 eta and its derivative take Borwein's weights,
    # -(-1)^k w_k log(k+1) for the derivative; same bounds as eta's
    # derivative test, with the value test's floor where eta' is small
    s = complex(sigma, t)
    values, derivs = _eta_sums([s], derivative=True)
    assert values[0] == eta(s)
    want = complex(mp.diff(mp.altzeta, mp.mpc(sigma, t)))
    assert abs(derivs[0] - want) <= 1e-9 * max(abs(want), 1e-3)


def test_borwein_batch_takes_its_highest_point(monkeypatch):
    # one table per batch, sized for its highest |t| or for t_top if higher
    orders = []
    build = specfun._borwein_rows
    monkeypatch.setattr(specfun, "_borwein_rows", lambda n: orders.append(n) or build(n))
    s = np.array([0.5 + 3.0j, 1.5 - 40.0j, 0.5 + 100.0j])
    _eta_sums(s, derivative=True)
    _eta_sums(s[:1], t_top=100.0)
    _eta_sums(s[:1])
    _eta_sums(s, t_top=1.0)
    assert orders == [_borwein_order(100.0)] * 2 + [_borwein_order(3.0), _borwein_order(100.0)]


def test_eta_at_the_borwein_order_cap():
    assert _borwein_order(120.0) == 130 <= _MAX_BORWEIN_ORDER
    # |t| = 500 takes 470 terms, under the cap of 512
    want = complex(mp.altzeta(mp.mpc(0.5, 500.0)))
    assert abs(eta(0.5 + 500.0j) - want) <= 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("t", [1e4, -1e4, 1e300, 1e308, math.inf, -math.inf])
def test_eta_past_the_borwein_order_cap_raises(t):
    # refused before any array is built: numpy's own ValueError
    # ("Maximum allowed dimension exceeded") would otherwise surface
    for s_values in ([complex(0.5, t)], [0.5 + 1.0j, complex(2.0, t)]):
        with pytest.raises((NonConvergenceError, DomainError)):
            _eta_sums(s_values, derivative=True)
    with pytest.raises((NonConvergenceError, DomainError)):
        eta(complex(0.5, t))


def _numpy_depth(s: np.ndarray) -> int:
    """_eta_depth as one numpy expression per point: the reference the scalar form must equal."""
    with np.errstate(over="ignore"):  # 2.3 t overflows to inf past t ~ 7.8e307: depth 420
        depth = 64 + np.ceil(2.3 * np.abs(s.imag)) + np.where(s.real < 0.5, 16, 0)
    return int(min(np.max(depth), 420))


_depth_sigmas = st.one_of(st.just(0.5), st.floats(-3.0, 3.0))
_depth_heights = st.one_of(
    st.floats(-200.0, 200.0), st.floats(allow_nan=False, allow_infinity=False)
)


@given(st.lists(st.tuples(_depth_sigmas, _depth_heights), min_size=1, max_size=12))
@example([(0.5, 120.0)])
@example([(-1.0, 1.0), (0.5, 100.0)])  # the sigma < 1/2 point is not the highest
@example([(0.4999, 120.0), (3.0, 121.0)])
@example([(0.5, 1e308), (-2.0, -1e308)])  # 2.3 t is infinite: the cap
@settings(derandomize=True, database=None, deadline=None, max_examples=400)
def test_eta_depth_equals_its_numpy_form(points):
    s = np.array([complex(sigma, t) for sigma, t in points])
    assert _eta_depth(s) == _numpy_depth(s)


@pytest.mark.parametrize("s", [0.5 + 14.134725j, -1.5 + 7.0j, 3.0 + 60.0j])
def test_eta_sums_unit_row_is_eta(s):
    # left of the critical line eta takes Euler's weights, so a unit row at
    # its depth is eta bitwise; at sigma >= 1/2 eta takes Borwein's, and the
    # unit row (Euler's weights) meets it through mpmath
    depth = _eta_depth(np.array([s]))
    values, derivs = _eta_sums([s], derivative=True, coeffs=np.ones(depth + 1))
    want_values, want_derivs = _eta_sums([s], derivative=True)
    if s.real < 0.5:
        assert values[0] == want_values[0] and derivs[0] == want_derivs[0]
    else:
        want = complex(mp.altzeta(mp.mpc(s.real, s.imag)))
        want_deriv = complex(mp.diff(mp.altzeta, mp.mpc(s.real, s.imag)))
        for got in (values[0], want_values[0]):
            assert abs(got - want) / max(abs(want), 1e-3) <= 1e-10
        for got in (derivs[0], want_derivs[0]):
            assert abs(got - want_deriv) <= 1e-9 * abs(want_deriv)


@pytest.mark.parametrize("s", [0.5 + 10.0j, 0.3 + 10.0j])
def test_eta_sums_refuses_a_row_that_cannot_settle(s):
    # for c_k = r^k the m-th level of the double sum is about
    # 2^{-(m+1)} (1 - r)^m, which grows once r > 3: Euler's transform of
    # sum_k (-r)^k (k+1)^{-s} diverges, and the settle check must say so
    for depth in (64, 87, 200):
        with pytest.raises(NonConvergenceError):
            _eta_sums([s], coeffs=4.0 ** np.arange(depth + 1))


def _line_row(kind: str, depth: int) -> np.ndarray:
    """eta's unit row (also the binomial reference for Borwein's weights), or
    the finite scan's overlap row at lambda = 12, n = 2."""
    if kind in ("eta", "borwein"):
        return np.ones(depth + 1)
    row = 0.5 * _bare_overlaps(2, depth, 12.0)
    row[1::2] *= -1.0
    return row


@st.composite
def _lines(draw):
    step = draw(st.floats(0.02, 0.2))
    t_lo = draw(st.floats(0.1, 120.0 - step))
    count = draw(st.integers(1, int((120.0 - t_lo) / step) + 1))
    return t_lo, step, count


@given(_lines(), st.sampled_from(["eta", "overlaps", "borwein"]))
@example((14.0, 0.05, 1), "eta")  # one point: exact powers
@example((14.0, 0.05, 1), "borwein")
@example((10.0, 0.1, 2), "overlaps")
@example((10.0, 0.1, 2), "borwein")
@example((20.0, 0.05, 47), "eta")  # q = 7 rows of 7, the last one short
@example((20.0, 0.05, 47), "borwein")
@example((120.0 - 0.05 * 2397, 0.05, 2398), "eta")  # a window ending at 120
@example((120.0 - 0.05 * 2397, 0.05, 2398), "overlaps")
@example((120.0 - 0.05 * 2397, 0.05, 2398), "borwein")
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
def test_eta_line_matches_exact_powers(line, kind):
    # Borwein's weights (coeffs None) against binomial weights at exact
    # powers, at the binomial depth of the top point
    t_lo, step, count = line
    ts = t_lo + step * np.arange(count)
    row = _line_row(kind, _eta_depth(0.5 + 1j * ts[-1:]))
    if kind == "borwein":
        got = _eta_line(t_lo, step, count, t_top=ts[-1])
    else:
        got = _eta_line(t_lo, step, count, row)
    want = _eta_sums(0.5 + 1j * ts, coeffs=row)[0]
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    if count == 1:
        # one point is _eta_sums at exact powers, with the same weights
        exact = _eta_sums(0.5 + 1j * ts)[0] if kind == "borwein" else want
        assert got[0] == exact[0]


def test_eta_line_keeps_the_settle_check():
    with pytest.raises(NonConvergenceError):
        _eta_line(10.0, 0.05, 30, 4.0 ** np.arange(101))
    # Borwein's weights: a sum sized for t = 1 (22 terms) on heights near
    # 100, which need 112, and a diverging row on the same columns
    with pytest.raises(NonConvergenceError):
        _eta_line(100.0, 0.05, 30, t_top=1.0)
    n = _borwein_order(10.0)
    k = np.arange(n)
    terms = 4.0**k * np.exp(-(0.5 + 10.0j) * np.log(k + 1.0))
    with pytest.raises(NonConvergenceError):
        _settled((terms @ _borwein_weights(n))[None, :], n - 1)


def _borwein_d(n: int) -> list:
    """d_0 .. d_n of Borwein's eta sum as exact integers."""
    f = math.factorial
    partial, out = 0, []
    for i in range(n + 1):
        partial += Fraction(n * f(n + i - 1) * 4**i, f(n - i) * f(2 * i))
        out.append(partial)
    return out


@pytest.mark.parametrize("n", [7, 20, 36, 130, 200])
def test_borwein_tails_against_exact_integers(n):
    d = _borwein_d(n)
    assert all(v.denominator == 1 for v in d)
    want = np.array([float((d[n] - d[k]) / d[n]) for k in range(n)])
    got = _borwein_tails(n)
    assert got.shape == (n,) and not got.flags.writeable
    assert np.all(np.abs(got - want) <= 1e-14)
    weights = _borwein_weights(n)
    assert weights.shape == (n, 7) and not weights.flags.writeable
    assert np.array_equal(weights[:, 0], np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * got)


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


@pytest.mark.parametrize("s", [complex(0.5, math.inf), complex(0.5, math.nan),
                               complex(math.nan, 1.0), complex(-math.inf, 0.0)])
def test_zeta_refuses_non_finite_s(s):
    # the guard's round(t ln 2 / 2 pi) raised a raw OverflowError at t = inf
    # and a raw ValueError at t = nan
    with pytest.raises(DomainError, match="finite s"):
        zeta(s)


def test_zeta_removable_point_guard():
    s = complex(1.0, 2.0 * math.pi / math.log(2.0))
    with pytest.raises(DomainError):
        zeta(s)


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


@given(st.floats(-2.0, 3.0), st.floats(-60.0, 60.0))
@example(0.5, 0.0)
@example(-1.5, 0.3)
@example(3.0, 60.0)
@example(-2.0, -60.0)
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
def test_gamma_recurrence_and_reflection(sigma, t):
    # Gamma(z+1) = z Gamma(z) and Gamma(z) Gamma(1-z) sin(pi z) = pi over
    # the contract region, a distance 0.05 from every pole of either side
    z = complex(sigma, t)
    assume(abs(z - round(sigma)) >= 0.05)
    rhs = z * gamma_complex(z)
    assert abs(gamma_complex(z + 1.0) - rhs) <= 1e-12 * abs(rhs)
    product = gamma_complex(z) * gamma_complex(1.0 - z) * cmath.sin(cmath.pi * z)
    assert abs(product - math.pi) <= 1e-12 * math.pi


def test_gamma_pole_guard():
    with pytest.raises(DomainError):
        gamma_complex(0.0)
    with pytest.raises(DomainError):
        gamma_complex(-3.0)


@pytest.mark.parametrize("z", [
    complex(0.5, math.inf), complex(0.5, -math.inf), complex(math.inf, 0.0),
    complex(-math.inf, 2.0), complex(math.nan, 0.0), complex(0.5, math.nan),
])
def test_gamma_non_finite_guard(z):
    with pytest.raises(DomainError):
        gamma_complex(z)


def test_gamma_overflow_guard():
    with pytest.raises(OverflowRangeError):
        gamma_complex(200.0)


@pytest.mark.parametrize("z", [0.5 + 500j, 0.5 - 1000j, 3.0 + 480j, complex(0.5, 1e308)])
def test_gamma_underflow_guard(z):
    # log|Gamma(1/2 + it)| ~ 0.92 - pi t / 2 leaves the double range near
    # t = 451; below it the value used to come back as 0 (a division by
    # zero in the boundary route), and at t = 1e308 cmath.exp failed
    with pytest.raises(OverflowRangeError):
        gamma_complex(z)
    assert gamma_complex(0.5 + 440j) != 0.0


@pytest.mark.parametrize("z", [complex(-2.5, 230.0), complex(-1e308, 1.0), complex(-150.5, 100.0)])
def test_gamma_reflection_past_the_double_range_raises(z):
    # sin(pi z) overflowed in cmath (a raw OverflowError at Im z = 230, a raw
    # ValueError for a pi z past the range), and sin(pi z) Gamma(1-z) past
    # the range left nan
    with pytest.raises(OverflowRangeError):
        gamma_complex(z)
    assert gamma_complex(complex(-2.5, 225.0)) != 0.0


def test_gamma_refuses_an_array():
    # the array route is varphi_zero's alone (waveform._varphi_zero_rows)
    with pytest.raises(DomainError):
        gamma_complex(np.array([2.5 + 1j]))


@pytest.mark.parametrize("func, y", [
    (chi, math.nan), (chi, math.inf), (chi, np.array([1.0, math.nan])),
    (laguerre, math.nan), (laguerre, -math.inf), (bessel_i0_scaled, math.nan),
    (bessel_i0_scaled, np.array([0.5, math.nan])),
], ids=["chi-nan", "chi-inf", "chi-array-nan", "laguerre-nan", "laguerre-inf", "i0-nan", "i0-array-nan"])
def test_special_functions_refuse_non_finite_arguments(func, y):
    # chi, laguerre and I0 returned nan here, and chi(5, inf) warned first
    with pytest.raises(DomainError):
        func(y) if func is bessel_i0_scaled else func(5, y)


@pytest.mark.parametrize("func, n", [
    (laguerre, 2.5), (laguerre, 2.0), (chi, 2.5), (chi, math.nan),
], ids=["laguerre-half", "laguerre-float", "chi-half", "chi-nan"])
def test_special_functions_refuse_non_integer_orders(func, n):
    # a raw TypeError from the recurrence's range(1, n) before
    with pytest.raises(DomainError, match="n must be a nonnegative integer"):
        func(n, 0.7)
    assert func(np.int64(2), 0.7) == func(2, 0.7)
