"""Brute-force oracle cross-checks: raw series, Simpson, finite differences."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from zetawave import oracles
from zetawave import (
    DomainError,
    StepSizeError,
    apply_bk_operator,
    apply_number_operator,
    chi,
    default_spec,
    eta,
    eta_naive,
    integrate_halfline,
    mehler_closed,
    quad_naive,
)


# on 10,000 terms the four averaging rounds read 3.3e-16, 3.3e-16 and
# 2.7e-7 (the height is the zero's to 6 digits); the mean of the last two
# partial sums read 5.0e-13, 2.5e-9 and 3.6e-6


def test_eta_naive_at_two():
    val = eta_naive(2.0, 10_000)
    assert abs(val - math.pi**2 / 12.0) <= 1e-14


def test_eta_naive_at_one():
    val = eta_naive(1.0, 10_000)
    assert abs(val - math.log(2.0)) <= 1e-13


def test_eta_naive_near_first_zero():
    val = eta_naive(complex(0.5, 14.134725), 10_000)
    assert abs(val) <= 1e-6


def test_eta_naive_guards():
    with pytest.raises(DomainError):
        eta_naive(complex(-0.5, 3.0), 1000)
    # non-finite s returned nan + nan i, or 1 for Re s = inf, after a RuntimeWarning
    for s in (complex(math.nan, 1.0), complex(0.5, math.inf), complex(math.inf, 1.0)):
        with pytest.raises(DomainError, match="finite"):
            eta_naive(s, 100)
    with pytest.raises(DomainError):
        eta_naive(2.0, 999)
    # the averaged tail takes the last five partial sums, S_{N-4} .. S_N
    with pytest.raises(DomainError):
        eta_naive(2.0, 4)
    # bounded before the factor table is built or looked up
    before = oracles._factor_table.cache_info()
    with pytest.raises(DomainError):
        eta_naive(2.0, oracles.MAX_NAIVE_TERMS + 2)
    assert oracles._factor_table.cache_info() == before


CHECK_POINTS = (2.0 + 0.0j, 0.5 + 14.134725j, 0.75 + 30.0j, 1.5 + 7.0j)


def _is_prime(terms):
    # 0/1 flags of a plain Eratosthenes sieve on bytes, entry n for n <= terms
    flags = bytearray([1]) * (terms + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(terms) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, terms + 1, p)))
    return np.frombuffer(bytes(flags), dtype=np.uint8)


def test_factor_table_invariants():
    # the largest table eta_naive builds
    terms = oracles.MAX_NAIVE_TERMS
    spf, cof, primes = oracles._factor_table(terms)
    is_prime = _is_prime(terms)
    reference = np.flatnonzero(is_prime)
    # one exponential per prime: pi(50,000) = 5,133 per point
    assert primes.size == 5_133
    assert np.array_equal(primes, reference)
    assert spf.size == cof.size == terms + 1
    assert spf[1] == cof[1] == 1
    n, p, c = np.arange(2, terms + 1), spf[2:], cof[2:]
    assert np.all(p * c == n)
    assert np.all(is_prime[p] == 1)
    # the smallest prime factor: p divides n and no prime below p does
    for q in reference[reference < math.isqrt(terms) + 1].tolist():
        assert np.all((n % q != 0) | (p <= q))
    composite = c > 1
    assert np.all(p[composite] ** 2 <= n[composite])
    assert np.array_equal(n[~composite], primes)
    for table in (spf, cof, primes):
        assert not table.flags.writeable


@pytest.mark.parametrize("terms", [2, 3, 4, 5, 6, 7, 9, 10, 25, 35, 49, 97, 1000])
def test_factor_table_small_sizes_by_trial_division(terms):
    # among them sizes whose small sieve holds no prime (2, 3) and sizes
    # whose last entry is a prime square (4, 9, 25, 49)
    spf, cof, primes = oracles._factor_table(terms)
    k = range(2, terms + 1)
    smallest = [min(q for q in range(2, m + 1) if m % q == 0) for m in k]
    assert spf[1:].tolist() == [1, *smallest]
    assert (spf[1:] * cof[1:]).tolist() == list(range(1, terms + 1))
    assert primes.tolist() == [m for m, q in zip(k, smallest) if m == q]


def test_first_eta_naive_working_set():
    # from an empty table cache, the largest accepted call, MAX_NAIVE_TERMS
    # (verify's 10,000-term call is guarded in test_verify): measured peak
    # 2.09 MiB and kept 0.80 MiB at 50,000 terms; the bounds are those the
    # same test held at 200,000 terms
    oracles._factor_table.cache_clear()
    tracemalloc.start()
    try:
        eta_naive(0.5 + 14.134725j, oracles.MAX_NAIVE_TERMS)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2**20
    assert kept <= 1.3 * 2**20


def test_eta_naive_refuses_past_the_cap():
    # 200,000 terms ran before the cap came down to 50,000
    assert oracles.MAX_NAIVE_TERMS == 50_000
    with pytest.raises(DomainError, match="at most 50,000"):
        eta_naive(2.0, 200_000)
    eta_naive(2.0, oracles.MAX_NAIVE_TERMS)


@pytest.mark.parametrize("s", CHECK_POINTS)
def test_multiplicative_powers_match_mpmath(s):
    values = oracles._powers(s, 2_000)
    z = mpmath.mpc(s.real, s.imag)
    for k, value in enumerate(values, start=1):
        exact = complex(mpmath.power(k, -z))
        assert abs(value - exact) <= 1e-13 * abs(exact), (k, value, exact)


@pytest.mark.parametrize("s", [0.5 + 14.134725j, 0.75 + 30.0j])
def test_eta_naive_matches_exact_partial_sum(s):
    # four averaging rounds over S_{N-4} .. S_N: sum_k C(4, k) S_{N-4+k} / 16
    terms = 20_000
    z = mpmath.mpc(s.real, s.imag)
    with mpmath.workdps(30):
        head = mpmath.fsum((-1) ** (k - 1) * mpmath.power(k, -z) for k in range(1, terms - 3))
        sums = [head]
        for k in range(terms - 3, terms + 1):
            sums.append(sums[-1] + (-1) ** (k - 1) * mpmath.power(k, -z))
        exact = complex(mpmath.fsum(math.comb(4, k) * part for k, part in enumerate(sums)) / 16)
    assert abs(eta_naive(s, terms) - exact) <= 1e-13


def test_eta_naive_matches_eta_within_own_estimate():
    # the estimate the verify registry uses, with its 1e-11 rounding
    # floor.  The gap reads at most 2.3e-3 of it; the mean of the last two
    # partial sums read 6.8e5
    terms = 10_000
    for sigma in (0.5, 1.0, 2.0):
        for t in (0.0, 7.5, 30.0):
            s = complex(sigma, t)
            bound = oracles._eta_naive_estimate(s, terms) + 1e-11
            gap = abs(eta_naive(s, terms) - eta(s))
            assert gap <= bound, (s, gap, bound)


@pytest.mark.parametrize("s", CHECK_POINTS)
def test_eta_naive_at_the_check_points_matches_mpmath(s):
    # measured 8.9e-15 at worst; the mean of the last two partial sums over
    # 200,000 terms was good to 3.95e-8
    with mpmath.workdps(30):
        exact = complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))
    assert abs(eta_naive(s, 10_000) - exact) <= 1e-13


def _euler_one_row(terms):
    # literal iterated averaging, one level at a time, on Python complex
    row = np.cumsum(np.asarray(terms, dtype=complex))
    value, change = complex(row[-1]), 0.0
    while row.size > 1:
        row = 0.5 * (row[:-1] + row[1:])
        change = abs(complex(row[-1]) - value)
        value = complex(row[-1])
    return value, change


@pytest.mark.parametrize("count", [1, 2, 3, 64, 200])
def test_euler_naive_batch_is_its_rows_bitwise(count):
    rng = np.random.default_rng(count)
    rows = rng.standard_normal((4, count)) + 1j * rng.standard_normal((4, count))
    rows *= np.exp(-0.1 * np.arange(count))
    values, changes = oracles.euler_naive(rows)
    assert values.shape == changes.shape == (4,)
    for row, value, change in zip(rows, values.tolist(), changes.tolist()):
        one = oracles.euler_naive(row)
        assert one == _euler_one_row(row)
        assert type(one[0]) is complex and type(one[1]) is float
        assert (value, change) == one
    if count == 1:
        assert changes.tolist() == [0.0] * 4


def test_number_operator_takes_chi_at_its_five_points_bitwise():
    # one chi call at y, y -+ h, y -+ h/2 gives the scalar calls' values
    pool = (0.37, 0.9, 1.6, 2.8, 4.1, 5.9, 7.7, 9.8, 12.5)
    h = 1e-4
    for n in range(9):
        for y in pool:
            points = [y, y - h, y + h, y - 0.5 * h, y + 0.5 * h]
            assert chi(n, np.array(points)).tolist() == [chi(n, p) for p in points]


def test_number_operator_ground_state():
    assert abs(apply_number_operator(0, 1.0)) <= 1e-6


def test_number_operator_level_three():
    assert abs(apply_number_operator(3, 0.7) - 3.0) <= 1e-5


def test_number_operator_levels_through_eight():
    candidates = (0.4, 0.9, 1.7, 2.6, 3.8, 5.1)
    for n in range(9):
        picked = [y for y in candidates if abs(chi(n, y)) > 0.05][:3]
        assert len(picked) == 3
        for y in picked:
            assert abs(apply_number_operator(n, y) - n) <= 1e-5, (n, y)


def test_number_operator_near_node_guard():
    # smallest root of the degree-5 Laguerre polynomial
    root = float(np.polynomial.laguerre.lagroots([0, 0, 0, 0, 0, 1])[0])
    with pytest.raises(StepSizeError):
        apply_number_operator(5, root)


def test_number_operator_domain_guards():
    with pytest.raises(DomainError):
        apply_number_operator(-1, 1.0)
    # 3.0 passed the check and then ended in a raw TypeError inside chi
    assert apply_number_operator(3.0, 2.8) == apply_number_operator(3, 2.8)
    with pytest.raises(DomainError):
        apply_number_operator(2, 1e-5, h=1e-4)
    # nan raised a raw ValueError and inf a raw OverflowError in int(n)
    for n in (math.nan, math.inf):
        with pytest.raises(DomainError, match="n must be a nonnegative integer"):
            apply_number_operator(n, 1.0)


@pytest.mark.parametrize("n", [-1, 2.5])
def test_level_sum_checks_its_level_as_psi_full_does(n):
    # -1 ended in a raw IndexError, and 2.5 returned the n = 2 sum
    with pytest.raises(DomainError, match="quantum number"):
        oracles.psi_level_sum(1.0, 0.0, 0.5 + 3j, n, 8.0)


def test_level_sum_takes_an_integral_level_as_given():
    want = oracles.psi_level_sum(1.0, 0.0, 0.5 + 3j, 2, 8.0)
    for n in (2.0, np.int64(2)):
        got = oracles.psi_level_sum(1.0, 0.0, 0.5 + 3j, n, 8.0)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_bk_operator_on_real_half():
    assert abs(apply_bk_operator(0.5, 1.0)) <= 1e-6


def test_bk_operator_at_height_ten():
    val = apply_bk_operator(0.5 + 10j, 1.0)
    assert abs(val - (-10.0)) <= 1e-5


def test_bk_operator_at_first_ordinate():
    val = apply_bk_operator(complex(0.5, 14.134725), 3.0)
    assert abs(val - complex(-14.134725)) <= 1e-4


def test_bk_operator_random_critical_points():
    rng = np.random.default_rng(20260813)
    for t in rng.uniform(0.5, 10.0, size=20):
        s = complex(0.5, t)
        for x in (0.5, 1.0, 3.0):
            val = apply_bk_operator(s, x)
            assert abs(val - 1j * (s - 0.5)) <= 1e-4, (s, x)


def test_bk_operator_step_guard():
    # oscillation period ~2 pi x / t is too short for the default step here
    with pytest.raises(StepSizeError):
        apply_bk_operator(0.5 + 30j, 0.5)
    with pytest.raises(DomainError):
        apply_bk_operator(0.5 + 2j, 1e-5, h=1e-4)


def test_quad_naive_constant():
    assert quad_naive(lambda x: np.ones_like(x), 0.0, 1.0) == 1.0


def test_quad_naive_exponential():
    val = quad_naive(lambda x: np.exp(-x), 0.0, 40.0, panels=100_000)
    assert abs(val - 1.0) <= 1e-10


def test_quad_naive_guards():
    with pytest.raises(DomainError):
        quad_naive(lambda x: x, 1.0, 1.0)
    with pytest.raises(DomainError):
        quad_naive(lambda x: x, 0.0, 1.0, panels=0)
    # each ended in a raw TypeError inside numpy.linspace
    for panels in (2.5, math.nan):
        with pytest.raises(DomainError, match="panels must be an integer"):
            quad_naive(lambda x: x, 0.0, 1.0, panels=panels)
    assert quad_naive(lambda x: x, 0.0, 1.0, panels=np.int64(8)) == quad_naive(lambda x: x, 0.0, 1.0, panels=8)


def test_quad_naive_scalar_fallback():
    val = quad_naive(math.exp, 0.0, 1.0, panels=2000)
    assert abs(val - (math.e - 1.0)) <= 1e-10


def test_quad_naive_cross_checks_mehler_integrand():
    # inner transverse integral of the boundary route at one fixed outer
    # node: Mehler kernel at parameter e^{-u} against a squeezed level
    t_param = math.exp(-0.7)
    eps = math.exp(-2.0)

    def f(yp):
        return mehler_closed(1.3, yp, t_param) * chi(4, eps * yp)

    simpson = quad_naive(f, 0.0, 40.0, panels=20_000)
    gauss = integrate_halfline(f, default_spec()).value
    assert abs(simpson - gauss) <= 1e-7
