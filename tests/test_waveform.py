"""Wave-function chain: eigenfunctions, squeeze, overlaps, Mehler kernel,
level sums, boundary integrals, and the large-squeeze expansions.

Expected values come from closed forms, from mpmath at 40 digits, or from
an independent route inside the package (quadrature overlaps against the
generating-function coefficients, Simpson against Gauss, series against
closed kernel); tolerances are the measured headroom, not wishes.
"""

import cmath
import json
import math
from pathlib import Path

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
    SqueezeParameter,
    WaveSample,
    chi,
    convergence_study,
    default_spec,
    eta,
    integrate_halfline,
    mehler_closed,
    mehler_series,
    overlap_s1,
    phi_confined,
    phi_s,
    psi_boundary,
    psi_boundary_batch,
    psi_boundary_limit,
    psi_full,
    scan_zeros,
    squeeze_apply,
    tilde_expansion_check,
    varphi_zero,
    zeta,
)
from zetawave import waveform
from zetawave.oracles import euler_naive, psi_level_sum
from zetawave.quad import integrate_singular_log
from zetawave.specfun import _eta_sums, _laguerre_recurrence
from zetawave.waveform import (
    _bare_overlaps,
    _boundary_eta_scale,
    _euler_accelerated,
    _euler_accelerated_rows,
    _inner_profile,
    _level_sums,
    _miller_top,
    _overlap_rounding,
)

mp.mp.dps = 40

SQRT_2PI = math.sqrt(2.0 * math.pi)
FIRST_ORDINATE = 14.134725141734694


# ---------------------------------------------------------------------------
# phi_s
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


def test_phi_s_scalar_forms_are_one_route_bitwise():
    # a float, an int, a numpy float and a 0-d array all take math.log and
    # cmath.exp; a 1-element 1-D array takes numpy's log and exp, which may
    # differ from them in the last bit
    rng = np.random.default_rng(7)
    for x, t in zip(10.0 ** rng.uniform(-5.0, 5.0, 200), rng.uniform(-60.0, 60.0, 200)):
        s = complex(0.5, t)
        want = cmath.exp(-s * math.log(x)) / SQRT_2PI
        for form in (float(x), np.float64(x), np.asarray(x)):
            got = phi_s(form, s)
            assert type(got) is complex and got == want
        assert phi_s(np.array([x]), s)[0] == pytest.approx(want, rel=1e-14)
    assert phi_s(3, 0.5) == phi_s(3.0, 0.5)


@pytest.mark.parametrize("x, error", [
    (math.nan, DomainError), (0.0, DomainError), (-1.0, DomainError),
    (1e-200, OverflowRangeError),
])
def test_phi_s_scalar_errors_match_the_array_errors(x, error):
    s = 3.0 + 1j
    messages = []
    for form in (x, np.float64(x), np.asarray(x), np.array([x])):
        with pytest.raises(error) as info:
            phi_s(form, s)
        messages.append(str(info.value))
    assert len(set(messages)) == 1


# ---------------------------------------------------------------------------
# eigenvalues E = i(s - 1/2) + n, carried by the zero records of a scan
# ---------------------------------------------------------------------------


def test_eigenvalue_at_first_ordinate():
    (rec,) = scan_zeros(13.0, 16.0)
    assert abs(rec.t - FIRST_ORDINATE) <= 1e-9
    assert rec.energy == -rec.t


def test_eigenvalue_shift_by_level():
    (rec,) = scan_zeros(13.0, 16.0, n=3)
    assert rec.energy == 3.0 - rec.t


def test_eigenvalue_guard():
    with pytest.raises(DomainError):
        scan_zeros(13.0, 16.0, n=-2)


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
    spec = default_spec(tail_cutoff=40.0 * math.exp(lam))
    norm = integrate_halfline(lambda x: np.abs(sq(x)) ** 2, spec).value
    base = integrate_halfline(
        lambda x: np.exp(-2.0 * x), default_spec()
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
            lambda x: np.abs(f(x)) ** 2, default_spec(tail_cutoff=80.0)
        ).value
        for lam in (0.0, 1.0, 5.0):
            sq = squeeze_apply(f, lam)
            spec = default_spec(tail_cutoff=80.0 * math.exp(lam))
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


@pytest.mark.parametrize("m, n", [(1.5, 0), (0, 2.0), (np.float64(3.0), 1)])
def test_overlap_refuses_levels_that_are_not_integers(m, n):
    # m = 1.5 used to end in a raw TypeError from the recurrence
    with pytest.raises(DomainError):
        overlap_s1(m, n, 1.0)


def test_overlap_work_bound_refuses_before_any_work(monkeypatch):
    # grid nodes times max(m, n) + 1 orders: m = 571 is the last within the
    # limit; m = 100,000 ran for minutes before the bound
    calls = []

    def counted(n, y):
        calls.append(n)
        return np.zeros_like(y)

    monkeypatch.setattr("zetawave.waveform.chi", counted)
    for m, n in ((100_000, 0), (572, 0), (0, 20_000), (3, 10**6)):
        with pytest.raises(DomainError):
            overlap_s1(m, n, 1.0)
    assert calls == []
    assert overlap_s1(571, 0, 1.0) == 0.0
    assert sorted(calls) == [0, 571]


@pytest.mark.parametrize("m", [0, 10, 40, 63])
def test_overlap_at_acceptance_sizes_keeps_its_bits(m):
    # the grid and product overlap_s1 has always taken, literally
    lam = 8.0
    cutoff = 4.0 * m + 2.0 + 6.0 * (m + 1.0) ** (1.0 / 3.0) + waveform.tail_cutoff_for(0.3, 1e-13)
    nodes, weights = waveform._gauss_panels(0.0, cutoff, max(32, int(cutoff)))
    want = float(np.dot(weights * chi(0, math.exp(-lam) * nodes), chi(m, nodes)))
    assert overlap_s1(m, 0, lam, bare=True).hex() == want.hex()
    assert overlap_s1(m, 0, lam) == math.exp(-0.5 * lam) * want


def _overlap_double_sum(n: int, lam: float, m_max: int) -> np.ndarray:
    """A_m = 2 (1+eps)^{-n-1} sum_k C(n,k) (1-eps)^{n-k} (1+eps)^k C(n+m-k, m-k) (-rho)^{m-k}.

    The coefficients of 2 B^n / A^{n+1} as the product of the expansions of
    B^n and A^{-n-1}, in mpmath at 80 + 2n digits, which carry the
    cancellation across k; the factor in k and the one in j = m - k are
    built once each.
    """
    with mp.workdps(80 + 2 * n):
        eps = mp.exp(-mp.mpf(lam))
        rho = (1 - eps) / (1 + eps)
        outer = [mp.binomial(n, k) * (1 - eps) ** (n - k) * (1 + eps) ** k for k in range(n + 1)]
        inner = [mp.binomial(n + j, j) * (-rho) ** j for j in range(m_max + 1)]
        scale = 2 / (1 + eps) ** (n + 1)
        return np.array([
            float(scale * mp.fdot(outer[: min(n, m) + 1], inner[m::-1][: min(n, m) + 1]))
            for m in range(m_max + 1)
        ])


@pytest.mark.parametrize("n,lam,m_max", [
    (20, 0.3, 60), (20, 2.0, 80), (40, 2.0, 120), (100, 0.5, 300), (100, 5.0, 400),
    (400, 0.3, 600), (7, 2.0, 200), (3, 6.0, 300), (200, 12.0, 400),
])
def test_bare_overlaps_recurrence_against_double_sum(n, lam, m_max):
    # the log-space binomial sum refused the first six (up to 3e7 of
    # rounding at (40, 2)) and lost 1.4e-12 at (7, 2); the plain forward
    # recurrence lost 1.3e-12 at (3, 6) in the band where its roots crowd -1
    want = _overlap_double_sum(n, lam, m_max)
    got = _bare_overlaps(n, m_max, lam)
    err = np.max(np.abs(got - want))
    assert err <= 1e-12
    assert err <= _overlap_rounding(n, m_max, lam) * np.max(np.abs(want))


@pytest.mark.parametrize("lam", [0.3, 2.0, 12.0, 25.0])
def test_bare_overlaps_ground_row_closed_form(lam):
    # n = 0: 2 (-rho)^m / (1+eps); Miller's start would sit 40/(-2 ln rho)
    # levels out, about 1.6 million at lambda = 12
    with mp.workdps(40):
        eps = mp.exp(-mp.mpf(lam))
        rho = (1 - eps) / (1 + eps)
        want = np.array([float(2 * (-rho) ** m / (1 + eps)) for m in range(301)])
    got = _bare_overlaps(0, 300, lam)
    assert np.max(np.abs(got - want)) <= _overlap_rounding(0, 300, lam) * np.max(np.abs(want))


def _miller_top_loop(n, m_max, grow, shrink, q):
    """The start search one level at a time, as _bare_overlaps ran it."""
    top, gap = m_max, 0.0
    while gap < 40.0:
        top += 1
        x = abs(grow * (top - n) - shrink * (2 * top + 1) + q * (2 * top + 1))
        gap += 2.0 * math.acosh(max(1.0, x / (2.0 * q * math.sqrt(top * (top + 1.0)))))
    return top


def test_miller_top_matches_level_by_level_search():
    swept = 0
    for lam in np.linspace(0.05, 12.0, 60):
        eps = math.exp(-lam)
        one_minus = -math.expm1(-lam)
        coefficients = (4.0 * eps, 2.0 * eps * one_minus, one_minus * (1.0 + eps))
        for n in range(1, 51):
            for m_max in (100, 420):
                if math.ceil(n / eps) >= m_max:
                    continue  # the forward recurrence reaches m_max: no Miller start
                want = _miller_top_loop(n, m_max, *coefficients)
                assert _miller_top(n, m_max, *coefficients) == want, (n, m_max, lam)
                swept += 1
    assert swept > 1000


@given(
    n=st.integers(0, 30),
    m=st.integers(0, 40),
    lam=st.floats(0.01, 20.0),
)
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
def test_bare_overlaps_match_quadrature_overlaps(n, m, lam):
    # overlap_s1 integrates chi_n(e^{-lam} y) chi_m(y) by Gauss panels; the
    # recurrence never sees a node
    assert abs(_bare_overlaps(n, m, lam)[m] - overlap_s1(m, n, lam, bare=True)) <= 5e-12


@pytest.mark.parametrize("n,lam", [(20, 0.3), (12, 0.3), (20, 2.0), (40, 2.0), (1000, 0.5)])
def test_bare_overlaps_refuse_cancelled_sum(n, lam):
    # the log-space binomial sum cancelled beyond double precision here and
    # refused: at (20, 0.3) it returned -3.4e6 for A_0 before the refusal
    # was added, and at (1000, 0.5) its envelope overflowed; the recurrence
    # delivers them
    want = _overlap_double_sum(n, lam, 40)
    assert np.max(np.abs(_bare_overlaps(n, 40, lam) - want)) <= 1e-12


def test_bare_overlaps_refuse_past_their_rounding_bound():
    # 4 (n |ln rho| + m_max + 1) 2^-52 passes 1e-10 only for rows far longer
    # than any sum takes; the refusal comes before any work
    assert _overlap_rounding(10, 10**6, 1e-3) > 1e-10
    with pytest.raises(NonConvergenceError, match=r"rounding bound [0-9.]+e-10 "):
        _bare_overlaps(10, 10**6, 1e-3)
    assert _overlap_rounding(3, 40, 0.0) == 0.0
    assert np.array_equal(_bare_overlaps(3, 5, 0.0), [0.0, 0.0, 0.0, 1.0, 0.0, 0.0])


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
    series = mehler_series(1.0, 1.0, 0.5, max_terms=201, abs_tol=1e-13)
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
        mehler_series(1.0, 1.0, 0.9, max_terms=10, abs_tol=1e-12)


def test_mehler_series_budget_guards():
    for budget in (dict(max_terms=0), dict(abs_tol=0.0), dict(abs_tol=-1e-12), dict(abs_tol=math.nan)):
        with pytest.raises(DomainError):
            mehler_series(1.0, 1.0, 0.5, **budget)
    # on the axis every chi_m is 1, so the last of 8 terms is 0.5^7 = 7.8e-3
    assert mehler_series(0.0, 0.0, 0.5, max_terms=8, abs_tol=1e-2).terms_used == 8
    with pytest.raises(NonConvergenceError):
        mehler_series(0.0, 0.0, 0.5, max_terms=8, abs_tol=5e-3)


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
    budget = dict(max_terms=10, abs_tol=1e-12)
    y, yp, t = (np.array(axis) for axis in zip(*points))
    mehler_series(y, yp, t, **budget)
    where = min(where, len(points))
    y, yp, t = (np.insert(axis, where, bad) for axis, bad in zip((y, yp, t), (1.0, 1.0, 0.9)))
    with pytest.raises(NonConvergenceError):
        mehler_series(y, yp, t, **budget)


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


@pytest.mark.parametrize("t", [200.0, 220.0, 225.0])
def test_varphi_zero_holds_its_digits_to_the_normal_range(t):
    s = mp.mpc("0.5", t)
    want = complex(mp.gamma(1 - s) * mp.power(mp.mpc(0, -2), mp.mpf("0.5") - s) / mp.sqrt(2 * mp.pi))
    got = varphi_zero(complex(0.5, t))
    assert abs(got) >= np.finfo(float).tiny
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("t", [226.0, 230.0, 237.0, 300.0, 440.0])
def test_varphi_zero_refuses_a_modulus_below_the_normal_range(t):
    # |varphi_zero(1/2 + it)| ~ e^{-pi t} leaves the normal doubles near
    # t = 225.5: t = 230 came back as a subnormal with wrong digits and
    # t = 300 as 0, while Gamma(1/2 - it) itself still holds to t ~ 451
    with pytest.raises(OverflowRangeError):
        varphi_zero(complex(0.5, t))


def _varphi_loop(points):
    return np.array([varphi_zero(p) for p in points.tolist()], dtype=complex)


def _outcome(call):
    """('ok', the values' bytes) or the raised error's (type, message)."""
    try:
        return "ok", np.asarray(call(), dtype=complex).tobytes()
    except Exception as exc:  # any error: its type and message must match
        return type(exc), str(exc)


def test_varphi_zero_array_on_the_branch_check_line():
    # verify's varphi-branch-continuity points, 1,501 of them
    ts = np.arange(0.0, 30.0 + 1e-9, 0.02)
    points = np.full(ts.size, 0.5 + 0.0j)
    points.imag = ts
    assert points.size == 1501
    assert varphi_zero(points).tobytes() == _varphi_loop(points).tobytes()


@pytest.mark.parametrize("sigma", [(0.5, 3.0), (-2.0, 0.5)], ids=["right", "left"])
def test_varphi_zero_array_is_the_scalar_calls_bitwise(sigma):
    # right of the line Gamma(1-s) reflects, point by point; left of it the
    # Lanczos sum runs on arrays
    rng = np.random.default_rng(20261020)
    points = np.empty(2000, dtype=complex)
    points.real = rng.uniform(*sigma, 2000)
    points.imag = rng.uniform(-60.0, 60.0, 2000)
    assert varphi_zero(points).tobytes() == _varphi_loop(points).tobytes()


@pytest.mark.parametrize("points", [
    [0.5 + 10j, 0.5 + 226j, 0.5 + 300j],
    [0.5 + 226j],
    [complex(0.5, math.nan), 0.5 + 1j],
    [0.5 + 1j, complex(math.inf, 1.0)],
    [0.5 + 1j, 1.0 + 0j],
    [-200.0 + 0.5j],
    [0.5 + 1j, -160.0 + 0j],
    [0.5 + 300j, 1.0 + 0j],
    [0.5 + 1j, -2.0 - 460j, 0.9 + 300j],
], ids=["t226-t300", "t226", "nan", "inf", "pole", "overflow", "not-finite", "underflow-before-pole",
        "branch-overflow"])
def test_varphi_zero_array_raises_the_scalar_loops_first_error(points):
    points = np.array(points, dtype=complex)
    want = _outcome(lambda: _varphi_loop(points))
    assert want[0] != "ok"
    assert _outcome(lambda: varphi_zero(points)) == want


@pytest.mark.parametrize("call", [
    lambda: varphi_zero(0.9 + 300j),
    lambda: varphi_zero(0.9 - 230j),
    lambda: psi_boundary_batch([0.9 + 300j], 0.0, 0, 12.0),
    lambda: varphi_zero(-160.0 + 0j),
    lambda: varphi_zero(-2.0 - 460j),
], ids=["above", "below", "boundary-batch", "not-finite", "branch-overflow"])
def test_varphi_zero_past_the_double_range_raises(call):
    # Gamma(1-s)'s reflection factor overflowed in cmath (a raw
    # OverflowError), Gamma(201) (-2i)^{160.5} came back as nan, and
    # (-2i)^{2.5+460i} overflowed in cmath.exp
    with pytest.raises(OverflowRangeError):
        call()


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


@pytest.mark.parametrize("y", [1420.0, 3000.0])
def test_psi_full_value_below_the_normal_range_raises(y):
    # |phi_s(1)| chi_0(y) = e^{-y/2} / sqrt(2 pi): a subnormal (1.8e-309)
    # at y = 1420 and 0 at y = 3000, both returned as values before
    with pytest.raises(OverflowRangeError, match="not a normal double"):
        psi_full(1.0, y, 0.5 + 10j, 0, 12.0)


def test_psi_full_at_a_node_is_zero_not_an_underflow():
    # chi_1(y) = (1 - y) e^{-y/2} vanishes exactly at y = 1, from a normal seed
    sample = psi_full(1.0, 1.0, 0.5 + 5j, 1, 12.0)
    assert sample.value == 0.0


def test_psi_full_profile_underflow_still_raises():
    # |phi_s(1e300)| = 1e-600 / sqrt(2 pi) rounds to 0 while chi_0(1) does not
    with pytest.raises(OverflowRangeError, match="not a normal double"):
        psi_full(1e300, 1.0, 2.0 + 0j, 0, 12.0)


def test_psi_full_just_inside_the_normal_range():
    sample = psi_full(1.0, 1400.0, 0.5 + 10j, 0, 12.0)
    assert abs(sample.value) == pytest.approx(math.exp(-700.0) / math.sqrt(2.0 * math.pi),
                                              rel=1e-12)


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
    # lambda = 0 leaves the overlaps the identity, so the level sum is 1^{-s}
    # and the value is varphi_zero(1/2) = Gamma(1/2) / sqrt(2 pi) = 1/sqrt(2)
    sample = psi_boundary(0.0, 0.5, 0, 0.0)
    assert sample.value == varphi_zero(0.5)
    assert abs(sample.value - 1.0 / math.sqrt(2.0)) <= 1e-15


def _rising_coefficients(d: int) -> list:
    """c_p with k (k+1) ... (k+d-1) = sum_p c_p k^p."""
    coef = [mp.mpf(1)]
    for i in range(d):
        nxt = [mp.mpf(0)] * (len(coef) + 1)
        for p, c in enumerate(coef):
            nxt[p + 1] += c
            nxt[p] += i * c
        coef = nxt
    return coef


def _level_sum_closed(s: complex, n: int, lam: float) -> complex:
    """sum_m A_m (m+1)^{-s}, the y = 0 boundary value over varphi_zero, by polylogs.

    2 B^n / A^{n+1} = 2 sum_j c_j A^{-j} with A = (1+eps)(1 + rho t), and
    A^{-j} has coefficients C(m+j-1, j-1) (-rho)^m / (1+eps)^j, a
    polynomial in k = m + 1; each power k^p sums to -Li_{s-p}(-rho)/rho.
    mpmath at 20 digits.
    """
    with mp.workdps(20):
        s = mp.mpc(s)
        eps = mp.exp(-mp.mpf(lam))
        rho = (1 - eps) / (1 + eps)
        alpha = (1 + eps) / (1 - eps)
        beta = -4 * eps / (1 - eps)
        polylogs = [mp.polylog(s - p, -rho) for p in range(n + 1)]
        total = mp.mpc(0)
        for j in range(1, n + 2):
            cj = mp.binomial(n, n + 1 - j) * alpha ** (n + 1 - j) * beta ** (j - 1) / (1 + eps) ** j
            inner = mp.fsum(c * polylogs[p] for p, c in enumerate(_rising_coefficients(j - 1)))
            total += cj * inner * (-1 / rho) / mp.factorial(j - 1)
        return complex(2 * total)


@pytest.mark.parametrize("n", [0, 1, 2, 7])
@pytest.mark.parametrize("sv,lam", [(0.5 + 5j, 10.0), (0.5 + 12j, 12.0)])
def test_boundary_two_routes_agree(sv, lam, n):
    # the level sum against its polylog closed form; the real-axis
    # quadrature it replaced at y = 0 held this 1e-7 too
    want = varphi_zero(sv) * _level_sum_closed(sv, n, lam)
    assert abs(psi_boundary(0.0, sv, n, lam).value - want) <= 1e-7 * abs(want)


def test_boundary_at_the_first_zero_against_mpmath():
    # boundary --t 14.134725 --lambda 12: the quadrature was off by 3.9e-7
    # on the eta scale, its own estimate 9.8e-7; n = 0 has the closed form
    # sum_m 2 (-rho)^m (m+1)^{-s} / (1+eps) = -2 Li_s(-rho) / (rho (1+eps))
    s = complex(0.5, 14.134725)
    sample = psi_boundary(0.0, s, 0, 12.0)
    with mp.workdps(30):
        eps = mp.exp(-12)
        rho = (1 - eps) / (1 + eps)
        want = complex(-2 * mp.polylog(mp.mpc(s), -rho) / (rho * (1 + eps)))
    assert abs(sample.value / varphi_zero(s) - want) <= 1e-10
    assert sample.error <= 1e-10


@pytest.mark.parametrize("t", [FIRST_ORDINATE, 49.7738324776723])
def test_tilde_corrected_slope_at_zeta_zeros(t):
    # the e^{-2 lambda} remainder of the tilde expansion at the first and
    # tenth zeros: the quadrature fitted -0.92 at the first and 0.002 at
    # the tenth, where it printed values near 2.4e-50 against 1e-69
    study = convergence_study(complex(0.5, t), 0, [6.0, 8.0, 10.0, 12.0, 14.0],
                              variant="tilde-corrected")
    assert abs(study.slope + 2.0) <= 0.05


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


@pytest.mark.parametrize("y, variant", [(1e300, "original"), (1e308, "tilde")])
def test_boundary_value_below_the_normal_range_raises(y, variant):
    # the value underflowed to 0 and came back as one, with a small error
    with pytest.raises(OverflowRangeError, match="not a normal double"):
        psi_boundary(y, 0.5 + 5j, 0, 12.0, variant=variant)


def test_boundary_value_not_above_its_error_estimate_raises():
    # y = 0.5, lambda = 10: at t = 25 the stated eta-scale error 0.35 passes
    # the modulus 0.246, and |psi| = 1.91e-35 came back with exit 0; at
    # t = 20 the error 5.9e-4 stays below the modulus 1.49e-2
    with pytest.raises(NonConvergenceError, match="error estimate"):
        psi_boundary(0.5, 0.5 + 25j, 0, 10.0)
    with pytest.raises(NonConvergenceError, match="error estimate"):
        convergence_study(0.5 + 25j, 0, [8.0, 10.0, 12.0], variant="original", y=0.5)
    sample = psi_boundary(0.5, 0.5 + 20j, 0, 10.0)
    assert 0.0 < sample.error < abs(sample.value / varphi_zero(sample.s))


def test_boundary_explicit_tolerance_is_met():
    # 1e-9 at t = 10 used to be raised to 3x the rounding floor, 6.3e-9,
    # and the sample came back with error 1.27e-9; the refusals are
    # test_cli::test_explicit_boundary_tolerance_is_met_or_refused
    sample = psi_boundary(0.0, 0.5 + 10j, 0, 8.0, target_tol=1e-9)
    assert sample.error <= 1e-9


def test_boundary_limit_at_first_zero():
    assert abs(psi_boundary_limit(complex(0.5, FIRST_ORDINATE))) <= 1e-8


def test_boundary_limit_at_half():
    got = psi_boundary_limit(0.5)
    want = 2.0 * (1.0 / math.sqrt(2.0)) * eta(0.5)
    assert abs(got - want) <= 1e-12
    assert abs(eta(0.5) - (1.0 - math.sqrt(2.0)) * zeta(0.5)) <= 1e-12
    assert abs(got) > 0.1


def test_boundary_limit_refuses_a_modulus_below_the_normal_range():
    # varphi_zero is still a normal double at t = 225, but 2 varphi_zero(s)
    # eta(s) is not: it came back as a subnormal with lost digits
    s = complex(0.5, 225.0)
    assert abs(varphi_zero(s)) >= np.finfo(float).tiny
    with pytest.raises(OverflowRangeError, match="below double-precision range"):
        psi_boundary_limit(s)
    assert abs(psi_boundary_limit(complex(0.5, 220.0))) >= np.finfo(float).tiny


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
    # the y = 0 boundary value over varphi_zero is sum_m A_m (m+1)^{-s};
    # the oracle averages its partial sums level by level over more terms
    # than the level route keeps (sigma < 1/2 takes the route's head split)
    for t in (0.0, 7.3, 41.0, 100.0):
        s = complex(sigma, t)
        count = 120 + int(2.5 * t)
        overlaps = _bare_overlaps(n, count - 1, lam)
        want, _ = euler_naive(overlaps * np.exp(-s * np.log1p(np.arange(count))))
        got = psi_boundary_batch([s], 0.0, n, lam)[0][0] / varphi_zero(s)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (t, got, want)


LEVEL_SUM_REFERENCES = json.loads(
    (Path(__file__).resolve().parent / "data" / "level_sum_references.json").read_text()
)
PERFBENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.mark.parametrize("row", LEVEL_SUM_REFERENCES,
                         ids=[f"y{r['y']}-t{r['t']:g}-n{r['n']}" for r in LEVEL_SUM_REFERENCES])
def test_level_sum_at_y_against_mpmath(row):
    # Y = e^8 y from 0.3 to 356: a row at eta's own depth settles at Y = 300,
    # t = 2 on a value that is all error, so the depth must grow with Y
    s = complex(0.5, row["t"])
    sample = psi_boundary(float(row["y"]), s, row["n"], row["lam"])
    want = complex(float(row["value"][0]), float(row["value"][1]))
    assert abs(sample.value / varphi_zero(s) - want) <= sample.error, (row, sample)


def test_transverse_row_is_one_at_y0_and_the_array_call_elsewhere():
    # _level_sums skips the chi row at Y = 0, where it is exactly 1, so y = 0
    # values keep their bits; elsewhere the float row is the array call's
    assert np.array_equal(_laguerre_recurrence(420, 0.0, 1.0, all_orders=True), np.ones(421))
    for big_y in (0.3, 30.0, 300.0):
        arr = np.array([big_y])
        want = _laguerre_recurrence(86, arr, np.exp(-0.5 * arr), all_orders=True)[:, 0]
        got = _laguerre_recurrence(86, big_y, math.exp(-0.5 * big_y), all_orders=True)
        assert np.array_equal(got, want)


def _quadrature_calls(monkeypatch) -> list:
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args[1])
        return integrate_singular_log(*args, **kwargs)

    monkeypatch.setattr(waveform, "integrate_singular_log", recorded)
    return calls


@pytest.mark.parametrize("big_y, quadrature", [(0.0, False), (355.5, False), (356.5, True)])
def test_route_by_transverse_argument(monkeypatch, big_y, quadrature):
    # the level sum serves Y up to 356, where its row depth 64 + ceil(Y)
    # meets the cap 420; past it the quadrature, never a too-shallow row
    calls = _quadrature_calls(monkeypatch)
    for variant, lam in (("original", 8.0), ("tilde", 3.0)):
        y = big_y * (math.exp(-lam) if variant == "original" else math.exp(lam))
        psi_boundary(y, 0.5 + 2j, 0, lam, variant)
    assert len(calls) == (2 if quadrature else 0)


@pytest.mark.parametrize("n, lam, y", [(100, 0.5, 0.1), (40, 1.0, 0.3), (40, 0.5, 0.2)])
def test_high_level_at_small_squeeze_against_the_quadrature(n, lam, y):
    # the overlaps of a high level at small lam peak near level n: rows at
    # eta's depth settled on 0 or refused; the deeper row agrees with the
    # quadrature, called directly
    s = 0.5 + 5j
    big_y = math.exp(lam) * y
    want, quad_err = _boundary_eta_scale(np.array([s]), big_y, n, lam, None)
    sample = psi_boundary(y, s, n, lam)
    assert abs(sample.value / varphi_zero(s) - want[0]) <= sample.error + quad_err


@pytest.mark.parametrize("n, lam, t", [(300, 1.0, 5.0), (100, 0.5, 5.0), (100, 0.5, 0.01)])
def test_high_level_at_small_squeeze_at_y0(n, lam, t):
    # y = 0 too: n = 300, lambda = 1 printed 1e-38 (the row at eta's depth
    # had not reached the peak), and n = 100, lambda = 0.5 was refused; a
    # row of 1600 levels reaches past the peak into the geometric tail
    s = complex(0.5, t)
    want = _eta_sums(np.array([s]), coeffs=waveform._level_coefficients(n, 1600, lam))[0][0]
    sample = psi_boundary(0.0, s, n, lam)
    assert abs(sample.value / varphi_zero(s) - want) <= sample.error + 1e-12, (sample, want)


@pytest.mark.parametrize("t", [2.0, 5.0, 10.0])
@pytest.mark.parametrize("big_y", [355.5, 356.5])
@pytest.mark.parametrize("n", [0, 2])
def test_level_sum_and_quadrature_agree_at_the_reach(big_y, t, n):
    # two independent engines on one point, each within its stated error
    s = np.array([complex(0.5, t)])
    level, level_err = _level_sums(s, n, 8.0, big_y, 1e-9)
    quad, quad_err = _boundary_eta_scale(s, big_y, n, 8.0, None)
    assert abs(level[0] - quad[0]) <= level_err + quad_err, (level, quad, level_err, quad_err)


@pytest.mark.parametrize("ref", ["ypos-02", "ypos-05", "ypos-17", "ypos-18", "ypos-19"])
def test_former_defect_entries_against_the_benchmark_reference(ref):
    # tilde values at Y = 4e-11 to 2e-5 that the quadrature returned with
    # eta-scale errors of 4.95e-6 to 2.48e-4 and exit 0
    if not PERFBENCH_REFERENCE.is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    entry = next(e for e in json.loads(PERFBENCH_REFERENCE.read_text())["boundary"]
                 if e["id"] == ref)
    (t,), (y,), (lam,) = entry["t"], entry["y"], entry["lambda"]
    (row,) = entry["rows"]
    got = psi_boundary(float(y), complex(0.5, float(t)), entry["n"], float(lam), "tilde").value
    want = complex(float(row["value"][0]), float(row["value"][1]))
    assert abs(got - want) <= 1e-12 * float(row["scale"]), (ref, got, want)


def test_boundary_levels_guards():
    assert psi_boundary_batch([], 0.0, 0, 1.0)[0].size == 0
    with pytest.raises(DomainError):
        psi_boundary_batch([-1.0 + 2j], 0.0, 0, 1.0)
    # a NaN height reached the depth rule and raised a bare ValueError
    for bad in (complex(0.5, math.nan), complex(math.nan, 2.0), complex(0.5, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            psi_boundary_batch([0.5 + 3j, bad], 0.0, 0, 12.0)


# ---------------------------------------------------------------------------
# confined profile
# ---------------------------------------------------------------------------


def _confined_at_zero(t: float) -> complex:
    """2 varphi_zero(s) eta(s) at s = 1/2 + it, from mpmath."""
    s = mp.mpc("0.5", t)
    varphi = mp.gamma(1 - s) * mp.power(mp.mpc(0, -2), mp.mpf("0.5") - s) / mp.sqrt(2 * mp.pi)
    return complex(2 * varphi * mp.altzeta(s))


def test_confined_boundary_value_matches_limit():
    assert abs(phi_confined(0.0, 0.5 + 3j) - _confined_at_zero(3.0)) <= 1e-12


@pytest.mark.parametrize("t", [30.0, 60.0, 100.0])
def test_confined_boundary_value_against_mpmath(t):
    # a 64-term Euler transform of the series was off by 2.9e-10, 5.0e-4
    # and 45 % here while its own correction passed a 1e-12 absolute test
    want = _confined_at_zero(t)
    assert abs(phi_confined(0.0, complex(0.5, t)) - want) <= 1e-12 * abs(want)


def test_confined_vanishes_at_first_zero():
    assert abs(phi_confined(0.0, complex(0.5, FIRST_ORDINATE))) <= 1e-8


@given(
    x=st.floats(1e-3, 50.0),
    sigma=st.floats(0.3, 2.0),
    t=st.floats(-40.0, 40.0),
)
@example(x=0.7, sigma=0.5, t=3.0)
@settings(derandomize=True, database=None, deadline=None)
def test_confined_matches_its_literal_series(x, sigma, t):
    # each term 2 (-1)^m (m+1)^{-s} phi_s(x/(m+1)) is 2 (-1)^m phi_s(x), and
    # iterated averaging of the alternating series lands on half of 2 phi_s(x)
    s = complex(sigma, t)
    value = phi_confined(x, s)
    m = np.arange(40)
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    terms = 2.0 * signs * np.exp(-s * np.log1p(m)) * phi_s(x / (m + 1.0), s)
    # the rounding of s ln x and s ln(m+1) in each term's exponent
    rounding = 1e-13 * (1.0 + abs(s) * (abs(math.log(x)) + math.log(40.0)))
    assert np.all(np.abs(signs * terms - 2.0 * value) <= 2.0 * rounding * abs(value))
    want, _ = euler_naive(terms)
    assert abs(value - want) <= rounding * abs(value)


def test_confined_guards():
    with pytest.raises(DomainError):
        phi_confined(-0.1, 0.5 + 2j)
    with pytest.raises(DomainError):
        phi_confined(1.0, -0.2 + 2j)
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError):
            phi_confined(x, 0.5 + 2j)


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
    # the first-order term e^{-lam} (2n + 1 + y/2) must stay below 0.1:
    # at y = 1e300 every value was 0 against a first-order term of 1e296
    for y, n, lam in ((1e300, 0, 8.0), (0.0, 149, 8.0)):  # 1.7e296 and 0.1003
        with pytest.raises(DomainError, match="expansion regime"):
            tilde_expansion_check(y, 0.5 + 5j, n, lam)


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
