"""Wave-function chain: eigenfunctions, squeeze, overlaps, Mehler kernel,
level sums, boundary integrals, and the large-squeeze expansions.

Expected values come from closed forms, from mpmath at 40 digits, or from
an independent route inside the package (quadrature overlaps against the
generating-function coefficients, Simpson against Gauss, series against
closed kernel); tolerances are the measured headroom, not wishes.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetawave import (
    DomainError,
    NonConvergenceError,
    OverflowRangeError,
    QuantumNumber,
    SMOOTH_DECAYING,
    SqueezeParameter,
    TruncationPolicy,
    WaveSample,
    boundary_levels,
    chi,
    default_spec,
    eigenvalue_of,
    eta,
    integrate_halfline,
    mehler_closed,
    mehler_series,
    overlap_s1,
    phi_confined,
    phi_s,
    psi_boundary,
    psi_boundary_limit,
    psi_full,
    squeeze_apply,
    tilde_expansion_check,
    varphi_zero,
    zeta,
)
from zetawave.oracles import euler_naive, psi_level_sum
from zetawave.waveform import (
    _bare_overlaps,
    _euler_accelerated,
    _euler_accelerated_rows,
    _inner_profile,
)

mp.mp.dps = 40

SQRT_2PI = math.sqrt(2.0 * math.pi)
FIRST_ORDINATE = 14.134725141734694


# ---------------------------------------------------------------------------
# phi_s and eigenvalues
# ---------------------------------------------------------------------------


def test_phi_s_at_one():
    for s in (0.5, 0.5 + 9j, 2.0 - 3j):
        assert abs(phi_s(1.0, s) - 1.0 / SQRT_2PI) <= 1e-15


def test_phi_s_at_e():
    assert abs(phi_s(math.e, 0.5) - math.exp(-0.5) / SQRT_2PI) <= 1e-15


def test_phi_s_modulus_and_phase():
    val = phi_s(2.0, 0.5 + 1j)
    assert abs(abs(val) - 2.0**-0.5 / SQRT_2PI) <= 1e-15
    assert abs(cmath.phase(val) - (-math.log(2.0))) <= 1e-15


def test_phi_s_singular_origin():
    with pytest.raises(DomainError):
        phi_s(0.0, 0.5 + 2j)


def test_phi_s_refuses_overflow():
    # |x^-s| = 1e600 at x = 1e-200, s = 3: the scalar path raised a bare
    # OverflowError from cmath.exp and the array path returned inf
    with pytest.raises(OverflowRangeError):
        psi_full(1e-200, 0.0, 3.0 + 0j, 0, 1.0)
    with pytest.raises(OverflowRangeError):
        phi_s(np.array([1e-200, 1.0]), 3.0)
    assert abs(phi_s(np.array([1e-200]), 1.5)[0]) == pytest.approx(1e300 / SQRT_2PI, rel=1e-12)


def test_phi_s_refuses_non_finite_input():
    # phi_s(nan, 0.5) returned nan+nanj, for arrays too, and phi_s(inf, 1j) NaN
    for x, s in ((math.nan, 0.5), (math.inf, 1j), (1.0, complex(math.nan, 1.0)),
                 (2.0, complex(0.5, math.inf))):
        with pytest.raises(DomainError, match="finite"):
            phi_s(x, s)
        with pytest.raises(DomainError, match="finite"):
            phi_s(np.array([1.0, x]), s)


def test_eigenvalue_at_first_ordinate():
    rec = eigenvalue_of(complex(0.5, 14.134725), 0)
    assert rec.real_energy
    assert abs(rec.energy - (-14.134725)) <= 1e-12


def test_eigenvalue_shift_by_level():
    rec = eigenvalue_of(0.5 + 7.25j, 3)
    assert abs(rec.energy - (-7.25 + 3.0)) <= 1e-12


def test_eigenvalue_off_line():
    # i(s - 1/2) has imaginary part sigma - 1/2
    rec = eigenvalue_of(0.6 + 4j, 0)
    assert not rec.real_energy
    assert abs(rec.energy.imag - 0.1) <= 1e-12


def test_eigenvalue_guard():
    with pytest.raises(DomainError):
        eigenvalue_of(0.5 + 1j, -2)


# ---------------------------------------------------------------------------
# squeeze action
# ---------------------------------------------------------------------------


def test_squeeze_identity():
    f = lambda x: np.exp(-x) * (1.0 + x)
    g = squeeze_apply(f, 0.0)
    xs = np.linspace(0.1, 8.0, 17)
    assert np.max(np.abs(g(xs) - f(xs))) == 0.0


def test_squeeze_ground_state_closed_form():
    g = squeeze_apply(lambda y: chi(0, y), math.log(2.0))
    for x in (0.0, 0.5, 3.0, 11.0):
        assert abs(g(x) - math.exp(-0.25 * x) / math.sqrt(2.0)) <= 1e-15


def test_squeeze_norm_on_exponential():
    lam = math.log(3.0)
    sq = squeeze_apply(lambda x: np.exp(-x), lam)
    # squeezed decay rate is 2 e^{-lam}, so the cutoff scales with e^lam
    spec = default_spec(SMOOTH_DECAYING, tail_cutoff=40.0 * math.exp(lam))
    norm = integrate_halfline(lambda x: np.abs(sq(x)) ** 2, spec).value
    base = integrate_halfline(
        lambda x: np.exp(-2.0 * x), default_spec(SMOOTH_DECAYING)
    ).value
    assert abs(norm - 0.5) <= 1e-10
    assert abs(base - 0.5) <= 1e-10


def test_squeeze_unitary_on_family():
    family = [
        lambda x: np.exp(-x),
        lambda x: x * np.exp(-x),
        lambda x: np.exp(-0.5 * x) * np.sin(x),
        lambda x: chi(3, x),
        lambda x: np.exp(-((x - 1.0) ** 2)),
    ]
    for f in family:
        base = integrate_halfline(
            lambda x: np.abs(f(x)) ** 2, default_spec(SMOOTH_DECAYING, tail_cutoff=80.0)
        ).value
        for lam in (0.0, 1.0, 5.0):
            sq = squeeze_apply(f, lam)
            spec = default_spec(
                SMOOTH_DECAYING, tail_cutoff=80.0 * math.exp(lam)
            )
            norm = integrate_halfline(lambda x: np.abs(sq(x)) ** 2, spec).value
            assert abs(norm - base) <= 1e-8, (f, lam)


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------


def test_overlap_orthonormal_at_zero_squeeze():
    for m, n in ((0, 0), (4, 4), (3, 5), (7, 2)):
        want = 1.0 if m == n else 0.0
        assert abs(overlap_s1(m, n, 0.0) - want) <= 1e-8


def test_overlap_large_squeeze_ground_row():
    # bare integral tends to 2 regardless of n, and the full overlap
    # carries the e^{-lam/2} prefactor
    assert abs(overlap_s1(0, 7, 20.0, bare=True) - 2.0) <= 1e-6
    assert abs(overlap_s1(0, 0, 20.0) - 2.0 * math.exp(-10.0)) <= 1e-6


def test_overlap_large_squeeze_alternates():
    assert abs(overlap_s1(1, 0, 20.0, bare=True) - (-2.0)) <= 1e-6


def test_overlap_limit_rate():
    lams = (8.0, 10.0, 12.0, 14.0, 16.0)
    devs = {}
    for lam in lams:
        worst = 0.0
        for n in (0, 3):
            for m in range(11):
                dev = abs(overlap_s1(m, n, lam, bare=True) - 2.0 * (-1.0) ** m)
                worst = max(worst, dev)
        devs[lam] = worst
    fitted_c = max(d * math.exp(lam) for lam, d in devs.items())
    assert math.isfinite(fitted_c) and fitted_c <= 400.0
    # e^{-lam} rate: each 2-step in lambda shrinks the deviation ~e^{-2}
    for a, b in zip(lams, lams[1:]):
        assert devs[b] <= devs[a] * math.exp(-2.0) * 2.5


@pytest.mark.parametrize("lam", [0.3, 2.0, 12.0])
def test_overlap_quadrature_matches_coefficients(lam):
    for n in (0, 2):
        column = _bare_overlaps(n, 12, lam)
        for m in (0, 5, 12):
            quad_val = overlap_s1(m, n, lam, bare=True)
            assert abs(quad_val - column[m]) <= 5e-12, (m, n, lam)


def test_overlap_guards():
    with pytest.raises(DomainError):
        overlap_s1(-1, 0, 1.0)
    with pytest.raises(DomainError):
        overlap_s1(0, 0, -0.5)


@pytest.mark.parametrize("n,lam", [(20, 0.3), (12, 0.3), (20, 2.0), (40, 2.0), (1000, 0.5)])
def test_bare_overlaps_refuse_cancelled_sum(n, lam):
    # the sum over k cancels beyond double precision here: at (20, 0.3) it
    # returned -3.4e6 for A_0, where the quadrature gives -1.5e-16 and
    # |A_m| <= e^{lam/2}; at (1000, 0.5) the envelope itself overflows, and
    # the refusal still names a finite bound without a numpy warning
    with pytest.raises(NonConvergenceError, match=r"rounding bound [0-9.]+(e[+-][0-9]+)? "):
        _bare_overlaps(n, 40, lam)


# ---------------------------------------------------------------------------
# Mehler kernel
# ---------------------------------------------------------------------------


def test_mehler_closed_t_zero():
    for y, yp in ((0.0, 0.0), (1.0, 2.5), (4.0, 0.3)):
        want = math.exp(-0.5 * (y + yp))
        assert abs(mehler_closed(y, yp, 0.0) - want) <= 1e-15


def test_mehler_closed_axis_value():
    for t in (0.2, 0.7):
        for yp in (0.4, 3.0):
            want = math.exp(-0.5 * yp * (1.0 + t) / (1.0 - t)) / (1.0 - t)
            assert abs(mehler_closed(0.0, yp, t) - want) <= 1e-15
            series = mehler_series(0.0, yp, t).value
            assert abs(series - want) <= 1e-12


def test_mehler_closed_vs_series_midpoint():
    closed = mehler_closed(1.0, 1.0, 0.5)
    series = mehler_series(1.0, 1.0, 0.5, TruncationPolicy(max_terms=201, abs_tol=1e-13))
    assert abs(closed - series.value) <= 1e-10


def test_mehler_domain_guards():
    with pytest.raises(DomainError):
        mehler_closed(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        mehler_closed(1.0, 1.0, -0.1)
    with pytest.raises(DomainError):
        mehler_closed(-1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        mehler_series(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        mehler_series(np.array([0.5, 1.0]), 1.0, np.array([0.5, 1.0]))
    # non-finite y ran the recurrence on NaN and raised NonConvergenceError
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            mehler_series(np.array([0.5, bad]), 1.0, 0.5)


@pytest.mark.parametrize("args", [
    (math.nan, 1.0, 0.5), (1.0, math.nan, 0.5), (1.0, 1.0, math.nan),
    (math.inf, 1.0, 0.5), (1.0, math.inf, 0.5),
])
def test_mehler_closed_refuses_non_finite_input(args):
    # each of these returned NaN
    with pytest.raises(DomainError):
        mehler_closed(*args)
    with pytest.raises(DomainError):
        mehler_closed(*(np.array([0.5, v]) for v in args))


def test_mehler_series_geometric_on_axis():
    res = mehler_series(0.0, 0.0, 0.6)
    assert abs(res.value - 1.0 / 0.4) <= 1e-10


def test_mehler_series_high_t():
    res = mehler_series(2.0, 3.0, 0.9)
    assert abs(res.value - mehler_closed(2.0, 3.0, 0.9)) <= 1e-8


def test_mehler_series_tail_honest():
    res = mehler_series(1.5, 0.5, 0.8)
    assert abs(res.value - mehler_closed(1.5, 0.5, 0.8)) <= res.tail_bound + 1e-9


def test_mehler_series_refuses_tiny_budget():
    with pytest.raises(NonConvergenceError):
        mehler_series(1.0, 1.0, 0.9, TruncationPolicy(max_terms=10, abs_tol=1e-12))


# y, y' in [0, 10], t in [0, 0.9] on a broadcast (y, y', t) grid; each
# scalar call costs a 400-term longdouble recurrence, so the grid stays small
_mehler_axis = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3)


@given(_mehler_axis, _mehler_axis, st.lists(st.floats(0.0, 0.9), min_size=1, max_size=3))
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
def test_mehler_series_array_is_the_scalar_call(ys, yps, ts):
    res = mehler_series(np.array(ys)[:, None, None], np.array(yps)[:, None], np.array(ts))
    assert res.value.shape == res.tail_bound.shape == (len(ys), len(yps), len(ts))
    assert isinstance(res.terms_used, int) and res.terms_used == 400
    for i, y in enumerate(ys):
        for j, yp in enumerate(yps):
            for k, t in enumerate(ts):
                one = mehler_series(y, yp, t)
                assert type(one.value) is float and type(one.tail_bound) is float
                assert res.value[i, j, k] == one.value
                assert res.tail_bound[i, j, k] == one.tail_bound


@given(
    st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 0.01)),
             min_size=1, max_size=6),
    st.integers(0, 6),
)
@settings(derandomize=True, database=None, deadline=None)
def test_mehler_series_array_refuses_one_stalled_element(points, where):
    # t <= 0.01 converges within 10 terms; (1, 1, 0.9) does not
    policy = TruncationPolicy(max_terms=10, abs_tol=1e-12)
    y, yp, t = (np.array(axis) for axis in zip(*points))
    mehler_series(y, yp, t, policy)
    where = min(where, len(points))
    y, yp, t = (np.insert(axis, where, bad) for axis, bad in zip((y, yp, t), (1.0, 1.0, 0.9)))
    with pytest.raises(NonConvergenceError):
        mehler_series(y, yp, t, policy)


def test_mehler_series_array_work_limit():
    with pytest.raises(DomainError, match="work limit"):
        mehler_series(np.zeros(20_000), 0.0, 0.5)


def test_mehler_equivalence_grid():
    worst = 0.0
    for t in np.arange(0.1, 0.95, 0.1):
        for y in (0.5, 1.0, 2.0, 5.0):
            for yp in (0.5, 1.0, 2.0, 5.0):
                closed = mehler_closed(y, yp, float(t))
                series = mehler_series(y, yp, float(t)).value
                worst = max(worst, abs(series - closed) / abs(closed))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# varphi_zero
# ---------------------------------------------------------------------------


def test_varphi_zero_at_half():
    assert abs(varphi_zero(0.5) - 1.0 / math.sqrt(2.0)) <= 1e-14


def test_varphi_zero_against_mpmath():
    s = mp.mpc("0.5", "1")
    want = mp.gamma(1 - s) * mp.power(mp.mpc(0, -2), mp.mpf("0.5") - s) / mp.sqrt(2 * mp.pi)
    got = varphi_zero(0.5 + 1j)
    assert abs(got) > 0.0
    assert abs(got - complex(want)) <= 1e-12 * abs(complex(want))


def test_varphi_zero_branch_walk():
    ts = np.arange(0.0, 30.0 + 1e-9, 0.02)
    vals = np.array([varphi_zero(complex(0.5, t)) for t in ts])
    ratios = vals[1:] / vals[:-1]
    # continuity: small phase steps, no modulus jumps along the line
    assert np.max(np.abs(np.angle(ratios))) <= 0.15
    assert np.max(np.abs(np.abs(ratios) - 1.0)) <= 0.2


# ---------------------------------------------------------------------------
# psi_full
# ---------------------------------------------------------------------------


def test_psi_full_collapses_at_zero_squeeze():
    s = 0.5 + 3j
    sample = psi_full(1.7, 0.9, s, 0, 0.0)
    want = math.exp(-0.45) * phi_s(1.7, s)
    assert abs(sample.value - want) <= 1e-12
    assert sample.variant == "original"


@pytest.mark.parametrize("lam,y", [(0.0, 0.9), (2.0, 0.6), (5.0, 0.25), (8.0, 0.0)])
def test_psi_full_product_identity(lam, y):
    # psi_full is phi_s(x) chi_n(y) at every squeeze strength
    s = 0.5 + 5j
    sample = psi_full(1.3, y, s, 2, lam)
    want = phi_s(1.3, s) * chi(2, y)
    assert abs(sample.value - want) <= 1e-12


@given(
    x=st.floats(1e-3, 10.0),
    n=st.integers(0, 10),
    lam=st.floats(2.0, 25.0),
    y_scaled=st.floats(0.0, 250.0),
    sigma=st.floats(0.1, 2.0),
    t=st.floats(-100.0, 100.0),
)
@example(x=1.3, n=2, lam=0.0, y_scaled=0.9, sigma=0.5, t=5.0)
@example(x=1.3, n=2, lam=2.0, y_scaled=0.6 * math.exp(2.0), sigma=0.5, t=5.0)
@example(x=1.3, n=2, lam=5.0, y_scaled=0.25 * math.exp(5.0), sigma=0.5, t=5.0)
@example(x=1.3, n=2, lam=8.0, y_scaled=0.0, sigma=0.5, t=5.0)
@settings(derandomize=True, database=None, deadline=None)
def test_level_sum_oracle_matches_psi_full(x, n, lam, y_scaled, sigma, t):
    # the level sum over phi_s(x/(m+1)) reconstructs phi_s(x) chi_n(y),
    # the closed form psi_full returns, at every squeeze strength
    s = complex(sigma, t)
    y = y_scaled * math.exp(-lam)
    sample = psi_full(x, y, s, n, lam)
    summed = psi_level_sum(x, y, s, n, lam)
    assert abs(summed - sample.value) <= 1e-9 * abs(phi_s(x, s))


def _euler_rows(kind: str, count: int) -> np.ndarray:
    if kind == "seeded":
        rng = np.random.default_rng(20261018 + count)
        return rng.normal(size=(4, count)) + 1j * rng.normal(size=(4, count))
    k = np.arange(count)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    points = np.array([0.5 + 14.134725j, 0.5 + 60.0j, 2.5 + 22.0j, -1.5 + 3.0j])
    return signs * np.exp(np.multiply.outer(-points, np.log1p(k)))


@pytest.mark.parametrize("kind", ["seeded", "eta"])
@pytest.mark.parametrize("count", [1, 2, 3, 64, 200, 1024])
def test_euler_transforms_match_iterated_averaging(kind, count):
    rows = _euler_rows(kind, count)
    values, changes = _euler_accelerated_rows(rows)
    for row, value, change in zip(rows, values, changes):
        want, want_change = euler_naive(row)
        scale = float(np.sum(np.abs(row)))
        got, got_change = _euler_accelerated(row)
        assert abs(got - want) <= 1e-13 * scale
        assert abs(got_change - want_change) <= 1e-15 + 1e-13 * scale
        assert abs(value - want) <= 1e-13 * scale
        # a single term is its own value, and the row form reports the
        # whole value as its correction
        row_change = abs(want) if count == 1 else want_change
        assert abs(change - row_change) <= 1e-15 + 1e-13 * scale


def test_psi_full_two_route_agreement():
    # level sum with independently quadrature-computed overlaps, averaged
    # level by level, against the closed form and the oracle's level sum
    s = 0.5 + 5j
    lam = 8.0
    ms = np.arange(64)
    ov = np.array([overlap_s1(int(m), 0, lam, bare=True) for m in ms])
    terms = ov * np.exp(-s * np.log(ms + 1.0)) * np.array(
        [phi_s(1.0 / (m + 1.0), s) for m in ms]
    )
    manual, _ = euler_naive(terms)
    assert abs(manual - psi_full(1.0, 0.0, s, 0, lam).value) <= 1e-6
    assert abs(manual - psi_level_sum(1.0, 0.0, s, 0, lam)) <= 1e-6


def test_psi_full_transverse_suppression():
    sample = psi_full(1.0, 40.0, 0.5 + 5j, 0, 10.0)
    assert abs(sample.value) <= 1e-8


def test_psi_full_error_is_a_rounding_bound():
    s = 0.5 + 5j
    sample = psi_full(1.3, 0.6, s, 2, 3.0)
    want = complex(mp.power(mp.mpf("1.3"), -mp.mpc(s)) * mp.exp(-mp.mpf("0.3"))
                   * mp.laguerre(2, 0, mp.mpf("0.6")) / mp.sqrt(2 * mp.pi))
    assert 0.0 < sample.error <= 1e-14 * abs(phi_s(1.3, s))
    assert abs(sample.value - want) <= sample.error


def test_psi_full_refuses_tiny_budget():
    # the level-sum oracle refuses a budget below its starting depth
    with pytest.raises(NonConvergenceError):
        psi_level_sum(1.0, 1.0, 0.5 + 5j, 0, 2.0, max_terms=16)


def test_level_sum_refuses_past_its_reach():
    # e^lambda y = 1490: every level it sums underflows, and the old level
    # sum reported the resulting 0 as converged
    with pytest.raises(NonConvergenceError):
        psi_level_sum(1.0, 0.5, 0.5 + 5j, 0, 8.0)


def test_psi_full_guards():
    with pytest.raises(DomainError):
        psi_full(0.0, 1.0, 0.5 + 2j, 0, 1.0)
    with pytest.raises(DomainError):
        psi_full(1.0, -0.1, 0.5 + 2j, 0, 1.0)
    with pytest.raises(DomainError):
        psi_full(1.0, 1.0, 0.5 + 2j, 0, 26.0)


# ---------------------------------------------------------------------------
# boundary integral and its limit
# ---------------------------------------------------------------------------


def test_boundary_matches_limit_deep_squeeze():
    s = 0.5 + 10j
    got = psi_boundary(0.0, s, 0, 14.0).value
    want = psi_boundary_limit(s)
    assert abs(got - want) <= 1e-4 * abs(want)


def _boundary_ground_closed(y, s, lam):
    """psi(y, s, 0, lam) / varphi_zero(s) of the original variant, from mpmath.

    The Mehler generating function sums the n = 0 level series to
    2/((1+eps) Gamma(s)) int_0^inf u^{s-1} e^{-u}
    e^{-(Y/2)(1-q e^{-u})/(1+q e^{-u})} / (1+q e^{-u}) du
    with eps = e^{-lam}, q = (1-eps)/(1+eps) and Y = e^{lam} y; the
    integrand falls off over u ~ 1/Y, hence the split at 4/Y.
    """
    with mp.workdps(30):
        z = mp.mpc(s.real, s.imag)
        eps = mp.exp(-lam)
        q = (1 - eps) / (1 + eps)
        big_y = mp.exp(lam) * y

        def integrand(u):
            w = q * mp.exp(-u)
            return (u ** (z - 1) * mp.exp(-u)
                    * mp.exp(-(big_y / 2) * (1 - w) / (1 + w)) / (1 + w))

        integral = mp.quad(integrand, [0, 4 / big_y, mp.inf])
        return complex(2 / ((1 + eps) * mp.gamma(z)) * integral)


INNER_U = (1e-4, 0.1, 1.0, 10.0)
INNER_LEVELS = (0, 1, 2, 7)


def _inner_reference(u, big_y, lam):
    """mpmath quadrature of the inner transverse integral, per level n.

    The definition: the integral over y' > 0 of chi_n(eps y')
    e^{-(c/2)(Y+y')} I0(2 sqrt(Y y' t)/(1-t)), t = e^{-u}, c = (1+t)/(1-t),
    eps = e^{-lam}, with chi_n from mpmath.laguerre and I0 from
    mpmath.besseli.  In r = sqrt(y') the Mehler factor is a Gaussian bump
    of width sigma = c^{-1/2} about r* = 2 sqrt(Y t)/(1+t), so the
    quadrature runs over xi = (r - r*)/sigma in [-8, 8] (the rest is below
    e^{-32}) with a 48-node Gauss-Legendre rule.  The integrand is divided
    by the Mehler factor at r*, because mpmath.quad judges its error in
    absolute terms; that factor does not involve n, so its values are
    shared across levels.  Returns the values and the envelope
    exp(-Y((1-t) + eps(1+t))/(2 d1)) 2(1-t)/d1 that scales the tolerance,
    both as mpf.
    """
    with mp.workdps(30):
        t = mp.exp(-u)
        eps = mp.exp(-lam)
        c = (1 + t) / (1 - t)
        r_star = 2 * mp.sqrt(big_y * t) / (1 + t)
        sigma = 1 / mp.sqrt(c)

        def mehler(r):
            bessel = mp.besseli(0, 2 * r * mp.sqrt(big_y * t) / (1 - t))
            return mp.exp(-(c / 2) * (big_y + r * r)) * bessel

        scale = mehler(r_star)
        d1 = (1 + eps) + t * (1 - eps)
        envelope = mp.exp(-big_y * ((1 - t) + eps * (1 + t)) / (2 * d1)) * 2 * (1 - t) / d1
    cache = {}

    def integrand(n, xi):
        # Nodes come at 15 digits; the integrand is evaluated at 30, because
        # its exponents reach ~1e10 and cancel to O(1).
        with mp.workdps(30):
            r = r_star + sigma * xi
            if xi not in cache:
                cache[xi] = 2 * r * sigma * mehler(r) / scale
            y_eps = eps * r * r
            return cache[xi] * mp.exp(-y_eps / 2) * mp.laguerre(n, 0, y_eps)

    with mp.workdps(15):
        lo = max(-r_star / sigma, -8)
        values = [
            mp.quad(lambda xi: integrand(n, xi), [lo, 8], method="gauss-legendre", maxdegree=5)
            * scale
            for n in INNER_LEVELS
        ]
    return values, envelope


@pytest.mark.parametrize(
    "variant,lam",
    [("original", 0.0), ("original", 1.0), ("original", 8.0), ("original", 14.0),
     ("tilde", 1.0), ("tilde", 8.0), ("tilde", 14.0)],
)
def test_inner_profile_matches_quadrature_of_definition(variant, lam):
    # Independent of the closed form in _inner_profile and of the package's
    # chi and I0.  The tolerance is relative to the envelope, because near a
    # root of L_n the value itself is only as good as the rounding; below
    # 1e-300 doubles go subnormal and both sides are zero to that scale.
    # The tilde variant at lam = 0 or y = 0 has the same Y as the original.
    for y in (0.0, 0.5, 2.0) if variant == "original" else (0.5, 2.0):
        big_y = (math.exp(lam) if variant == "original" else math.exp(-lam)) * y
        for u in INNER_U:
            wants, envelope = _inner_reference(u, big_y, lam)
            for n, want in zip(INNER_LEVELS, wants):
                got = _inner_profile(np.array([u]), big_y, lam, n)[0]
                err = abs(got - float(want))
                assert err <= 1e-12 * float(envelope) + 1e-300, (n, y, u, got, want)


def test_boundary_offpoint_suppression_scale():
    s = 0.5 + 10j
    for lam in (8.0, 14.0, 25.0):
        got = psi_boundary(0.5, s, 0, lam).value / varphi_zero(s)
        want = _boundary_ground_closed(0.5, s, lam)
        assert abs(got - want) <= 1e-6 * abs(want), (lam, got, want)


def test_boundary_offpoint_decays_with_squeeze():
    s = 0.5 + 10j
    ratios = []
    for lam in (8.0, 11.0, 14.0):
        ref = abs(psi_boundary(0.0, s, 0, lam).value)
        ratios.append(abs(psi_boundary(0.5, s, 0, lam).value) / ref)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] <= 1e-3


def test_boundary_plumbing_point():
    sample = psi_boundary(0.0, 0.5, 0, 0.0)
    assert abs(sample.value.imag) <= 1e-12
    assert sample.value.real > 0.0
    level = boundary_levels([0.5], 0, 0.0)[0]
    assert abs(sample.value - level) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 7])
@pytest.mark.parametrize("sv,lam", [(0.5 + 5j, 10.0), (0.5 + 12j, 12.0)])
def test_boundary_two_routes_agree(sv, lam, n):
    quad_route = psi_boundary(0.0, sv, n, lam).value
    level_route = boundary_levels([sv], n, lam)[0]
    assert abs(quad_route - level_route) <= 1e-7 * abs(level_route)


def test_boundary_factorization_trend():
    for sv in (0.5 + 2j, 0.5 + 5j, 0.5 + 8j, 0.5 + 11j, 0.5 + 14j):
        limit = psi_boundary_limit(sv)
        devs = [
            abs(psi_boundary(0.0, sv, 0, lam).value / limit - 1.0)
            for lam in (8.0, 10.0, 12.0, 14.0)
        ]
        assert all(a > b for a, b in zip(devs, devs[1:])), (sv, devs)
        assert devs[-1] <= 1e-4


def test_boundary_guards():
    with pytest.raises(DomainError):
        psi_boundary(0.0, 0.5 + 2j, 0, 1.0, variant="sideways")
    with pytest.raises(DomainError):
        psi_boundary(-0.5, 0.5 + 2j, 0, 1.0)
    with pytest.raises(OverflowRangeError):
        psi_boundary(0.5, 0.5 + 2j, 0, 25.5)
    with pytest.raises(DomainError):
        psi_boundary(0.0, -0.5 + 2j, 0, 1.0)


def test_boundary_limit_at_first_zero():
    assert abs(psi_boundary_limit(complex(0.5, FIRST_ORDINATE))) <= 1e-8


def test_boundary_limit_at_half():
    got = psi_boundary_limit(0.5)
    want = 2.0 * (1.0 / math.sqrt(2.0)) * eta(0.5)
    assert abs(got - want) <= 1e-12
    assert abs(eta(0.5) - (1.0 - math.sqrt(2.0)) * zeta(0.5)) <= 1e-12
    assert abs(got) > 0.1


def test_boundary_limit_off_point_is_zero():
    assert psi_boundary_limit(0.5 + 3j, y=0.7) == 0.0


@pytest.mark.parametrize("y", [-0.5, math.nan, math.inf])
def test_boundary_limit_rejects_bad_y(y):
    with pytest.raises(DomainError):
        psi_boundary_limit(0.5 + 3j, y=y)


@pytest.mark.parametrize("sigma", [0.3, 0.5, 1.5])
@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("lam", [5.0, 12.0])
def test_boundary_levels_against_iterated_averaging(sigma, n, lam):
    # boundary_levels / varphi_zero is sum_m A_m (m+1)^{-s}; the oracle
    # averages its partial sums level by level over more terms than the
    # level route keeps (sigma < 1/2 takes the route's head split)
    for t in (0.0, 7.3, 41.0, 100.0):
        s = complex(sigma, t)
        count = 120 + int(2.5 * t)
        overlaps = _bare_overlaps(n, count - 1, lam)
        want, _ = euler_naive(overlaps * np.exp(-s * np.log1p(np.arange(count))))
        got = boundary_levels([s], n, lam)[0] / varphi_zero(s)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (t, got, want)


def test_boundary_levels_guards():
    assert boundary_levels([], 0, 1.0).size == 0
    with pytest.raises(DomainError):
        boundary_levels([-1.0 + 2j], 0, 1.0)


# ---------------------------------------------------------------------------
# confined profile
# ---------------------------------------------------------------------------


def test_confined_boundary_value_matches_limit():
    s = 0.5 + 3j
    value, tail = phi_confined(0.0, s)
    assert abs(value - psi_boundary_limit(s)) <= 1e-12
    assert tail <= 1e-10


def test_confined_vanishes_at_first_zero():
    value, _ = phi_confined(0.0, complex(0.5, FIRST_ORDINATE))
    assert abs(value) <= 1e-8


def test_confined_single_term():
    s = 0.5 + 3j
    value, tail = phi_confined(0.7, s, policy=TruncationPolicy(max_terms=1, abs_tol=1.0))
    assert value == 2.0 * phi_s(0.7, s)
    assert tail == 0.0


def test_confined_guards():
    with pytest.raises(DomainError):
        phi_confined(-0.1, 0.5 + 2j)
    with pytest.raises(DomainError):
        phi_confined(1.0, -0.2 + 2j)


# ---------------------------------------------------------------------------
# tilde expansion
# ---------------------------------------------------------------------------


def test_tilde_residual_rate():
    s = 0.5 + 5j
    r10 = tilde_expansion_check(0.0, s, 0, 10.0)
    r12 = tilde_expansion_check(0.0, s, 0, 12.0)
    ratio = r12.residual / r10.residual
    assert math.exp(-4.0) / 2.0 <= ratio <= math.exp(-4.0) * 2.0


def test_tilde_slope_extraction():
    s = 0.5 + 10j
    check = tilde_expansion_check(0.0, s, 0, 12.0)
    slope = (check.exact - check.zero_order) / math.exp(-12.0)
    expected = 2.0 * varphi_zero(s) * (eta(s) - 2.0 * eta(s - 1.0))
    assert abs(slope - expected) <= 0.03 * abs(expected)


def test_tilde_slope_linear_in_level():
    s = 0.5 + 10j
    c0 = tilde_expansion_check(0.0, s, 0, 12.0)
    c1 = tilde_expansion_check(0.0, s, 1, 12.0)
    slope0 = (c0.exact - c0.zero_order) / math.exp(-12.0)
    slope1 = (c1.exact - c1.zero_order) / math.exp(-12.0)
    assert abs(slope1 / slope0 - 3.0) <= 0.09


def test_tilde_needs_expansion_regime():
    with pytest.raises(DomainError):
        tilde_expansion_check(0.0, 0.5 + 5j, 0, 3.0)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_parameter_guards():
    with pytest.raises(DomainError):
        SqueezeParameter(-0.5)
    with pytest.raises(DomainError):
        SqueezeParameter(float("nan"))
    with pytest.raises(DomainError):
        SqueezeParameter(41.0)
    with pytest.raises(DomainError):
        QuantumNumber(-1)


def test_wave_sample_guards():
    with pytest.raises(DomainError):
        WaveSample(x=-1.0, y=0.0, s=0.5j, n=0, lam=0.0, value=0j, variant="original")
    with pytest.raises(DomainError):
        WaveSample(x=0.0, y=0.0, s=0.5j, n=0, lam=0.0, value=0j, variant="skew")
