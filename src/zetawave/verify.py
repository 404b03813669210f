"""Named invariant checks backing the verify subcommand and the test suite.

Each check computes a single worst-case measured number against a default
tolerance, so the report reads as one row per invariant.  Checks use
seeded points (kept as literal tables) and fixed grids; two runs produce
identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import DomainError
from .oracles import apply_bk_operator, apply_number_operator, eta_naive, euler_naive
from .quad import (
    QuadratureSpec,
    _gauss_panels,
    default_spec,
    integrate_halfline,
    tail_cutoff_for,
)
from .specfun import (
    _eta_depth,
    _eta_sums,
    _laguerre_recurrence,
    chi,
    eta,
    gamma_complex,
    # not called here, but perfbench/tracer.py wraps verify.laguerre by
    # name and tests/test_benchmark_surface.py asserts that the name exists
    laguerre,
    zeta,
)
from .spectra import scan_zeros
from .waveform import (
    _euler_accelerated,
    _quadrature_overlaps,
    mehler_closed,
    mehler_series,
    # not called here, but perfbench/tracer.py wraps verify.overlap_s1 by
    # name and tests/test_benchmark_surface.py asserts that the name exists
    overlap_s1,
    phi_confined,
    phi_s,
    psi_boundary_batch,
    psi_boundary_limit,
    squeeze_apply,
    varphi_zero,
)

__all__ = ["CheckResult", "run_checks", "check_names"]

_SEED = 20260813

# The seeded points of two checks, exactly as numpy.random.default_rng(_SEED)
# draws them (tests/test_verify.py replays the draws), kept as literals so
# that a verify run never imports numpy.random (about 11 ms with hashlib and
# secrets).  Each table is one flat tuple: floats are not tracked by the
# garbage collector, so a table adds one container, not one per point.
# gamma-functional-equation: 100 pairs sigma, t, drawn uniform(-2, 3) and
# uniform(-60, 60) in turn; no point with sigma <= 0.6 lies within 0.15 of
# a pole in -3..1 (tested), so none is skipped.
_GAMMA_POINTS = (
    2.810092044749286, -16.58759919610261, -0.9795938455028819, 27.719444691427512,
    2.4139861808226852, -56.939500875364836, 0.7153119798400445, 22.433381410396137,
    0.6180844496301048, -57.70531405873821, 0.22580581569097014, 39.98241982651318,
    0.17343470117160464, -40.089819759137505, 0.14721122052239188, -57.65751034459547,
    -1.4663688444008938, 51.657277067296434, 0.9779602710956956, 4.9602908902569,
    2.3772371941552812, 58.38989439356175, 1.0343135257790737, 18.942480715325672,
    2.765902567293966, 51.96064701604119, -0.7226081861847027, 40.47432245287119,
    1.2529916628445639, 13.43878748659371, 1.6960054032662573, 23.534580374898525,
    2.095821246240982, 43.697823694304745, 2.170558658550739, 29.331445730196478,
    2.3508403641216447, 13.93877789826189, 1.9108078930504453, -15.67772318722296,
    2.430256330716553, 53.08496968024468, -1.6094519655773465, 13.002858790012368,
    0.35607826264348397, 24.458754357096154, 2.9933181528876265, -15.052309394223954,
    1.858357587507676, 2.6112386178872455, 2.368266840115801, -16.859392908911076,
    -1.3261443287374723, -29.232340451124976, -0.7415370767693701, 20.051556647932344,
    2.8249251079411932, 11.133423741573012, 2.6274522672559035, -19.372544188850476,
    0.970288602084783, 46.50214295128646, 0.00670466504103695, 35.795611948044396,
    2.4509914004797064, 8.097702925264215, 0.8526142355385242, 21.332881827713905,
    -0.5483283808543764, -2.5488999332534235, 2.379845775472715, 6.499762058866949,
    -1.1932368315456965, 18.891774538448402, 2.567358076824342, 57.222248452795654,
    0.47579244816499155, -5.052648016724433, -1.5594602843726788, 59.2741766489777,
    2.85678797921455, 50.31542303144158, -0.5782854137158282, 8.630658113367133,
    -1.2065214838513958, 15.35914414021397, 2.766852860849598, 33.670704425574954,
    1.2692484874475762, -36.82958359368786, 0.4339922991718921, -40.588320959173885,
    -1.5483726197927776, -54.08907750362364, 2.7567101609685167, -7.782003349952923,
    -0.29418794665632, -4.954577279926944, 0.8307987791033029, 35.9246097509121,
    -0.33378057709359354, 36.84119245303667, 1.0823580860214719, 33.79983065218087,
    -1.1941586472386123, -56.68219227564954, 1.7807407531526618, -4.901083966977168,
    1.9031669163733564, 16.94976011802271, -1.7878304880644917, 35.285970474731826,
    -1.4120912244237824, 15.856919624064886, 0.5519121685835007, -52.890731691457155,
    2.8003437583312607, 35.46007453444098, 0.09476399141201197, -27.583212891831863,
    2.115336545981336, -18.653887131098827, -0.6641209373018087, -2.3892412156060203,
    -0.260249659309264, 33.63187674314467, 2.0893492061514856, -32.96000023258894,
    2.000084288865037, -34.74778665775391, 2.8066121679204477, -54.64758646416981,
    1.2496125911110911, 8.722404846989136, 1.0831014641818881, -22.71947335367136,
    0.8900439647069982, -10.489039147861028, -0.07838158796367556, -2.3477656808882443,
    -1.216511382732595, -25.696922592518227, 1.2886543310938663, -8.051684882594998,
    2.6061814909569083, -19.51687846042011, -0.45393602867808847, 6.5975021633079365,
    1.8298664823319708, -10.530186734248062, 1.3037908676765944, -41.61219620467314,
    0.8439150304844203, 18.382367171059613, 2.8038065202902187, 54.719710843568194,
    0.47175877335755256, 10.807538864872882, -0.40637272908554234, -31.007690329310144,
    -1.3701137772318939, 54.17151891979839, -1.52912497782243, 7.926413617106618,
    0.6876335047738276, -11.647198132664222, -1.9687346522411184, -31.15381928067141,
    0.2387774503580653, -12.477739942772516, -1.505428594300302, 16.095548549492705,
    0.9618146595696908, -50.71728563291859, -0.7040674281745649, -35.36987901735047,
    -0.2917637171493852, 36.992613114727604, -1.5919325201561734, 27.022742376076494,
    -0.8653832770207353, 57.66428410711468, 0.0962396284450846, -10.359065415317737,
    2.88014262202861, -48.14844659158702, 2.027849545227274, 39.96302957791643,
    0.6888104514612805, -34.84536408163482, -1.0377253214707165, 1.9818242539843354,
    2.818605813138298, 47.92595321059932, -1.8414856320148085, -5.736039611762315,
    1.1336126235935327, -14.07921326676557, -1.308496198292605, -3.558183898001886,
)
# bk-operator-eigenvalues: 20 heights t, uniform(0.5, 10) from a fresh
# generator.
_BK_HEIGHTS = (
    9.639174885023644, 3.936815063641877, 2.438771693544525, 7.444456038071345,
    8.886573743563101, 0.7422895140336172, 5.659092761696084, 7.0259760283230275,
    5.474360454297199, 0.6816626370165585, 4.729031049812843, 8.415274902932293,
    4.629525932226049, 2.0762226024016144, 4.579701318992544, 0.6854470977195248,
    1.513899195638302, 9.3395344344943, 6.158124515081822, 5.642689695478671,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# specfun invariants
# ---------------------------------------------------------------------------


def _check_laguerre_recurrence() -> tuple[float, str]:
    # sum_n chi_n(y) z^n = e^{-y/2} e^{-yz/(1-z)} / (1-z) for |z| < 1; with
    # |chi_n| <= 1 the terms past n = 50 add at most |z|^51/(1-|z|) < 2e-27.
    # One recurrence gives every order; its row n is bitwise laguerre(n, ys).
    ys = np.linspace(0.0, 50.0, 101)
    rows = _laguerre_recurrence(50, ys, np.ones_like(ys), all_orders=True) * np.exp(-0.5 * ys)
    zs = np.array([0.3, -0.3, 0.3j, -0.2 + 0.2j])[:, None]
    powers = zs ** np.arange(51)
    series = powers @ rows
    closed = np.exp(-0.5 * ys - ys * zs / (1.0 - zs)) / (1.0 - zs)
    scale = np.abs(powers) @ np.abs(rows)
    worst = float(np.max(np.abs(series - closed) / scale))
    return worst, "chi_n generating function at 4 points z, n <= 50, y in [0, 50]"


def _check_chi_orthonormality() -> tuple[float, str]:
    # chi_10 oscillates out to 4*10 + 2, so the cutoff must clear that
    # edge before the exponential tail argument applies.  One all-orders
    # recurrence over both grids' nodes gives every row; row n of a grid is
    # bitwise chi(n, nodes) there.
    cutoff = 42.0 + tail_cutoff_for(0.3, 1e-12)
    grids = [_gauss_panels(0.0, cutoff, panels) for panels in (160, 320)]
    nodes = np.concatenate([grid[0] for grid in grids])
    table = _laguerre_recurrence(10, nodes, np.exp(-0.5 * nodes), all_orders=True)
    grams, start = [], 0
    for _, weights in grids:
        rows = table[:, start : start + weights.size]
        grams.append((rows * weights) @ rows.T)
        start += weights.size
    halving = float(np.max(np.abs(grams[1] - grams[0])))
    if halving > 1e-11:
        return math.inf, f"Gram matrix moved {halving:.3g} under panel halving"
    worst = float(np.max(np.abs(grams[1] - np.eye(11))))
    return worst, "pairwise chi integrals vs Kronecker delta, m, n <= 10"


def _check_eta_zeta_consistency() -> tuple[float, str]:
    worst = 0.0
    for sigma in (0.6, 1.5, 2.5):
        for t in (0.0, 7.3, 33.0):
            s = complex(sigma, t)
            if abs(s - 1.0) < 1e-6:
                continue
            lhs = eta(s)
            rhs = (1.0 - 2.0 ** (1.0 - s)) * zeta(s)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-3))
    return worst, "eta vs (1 - 2^{1-s}) zeta on a strip grid"


def _check_eta_alternating_agreement() -> tuple[float, str]:
    points = [0.5 + 0.0j, 1.0 + 0.0j, 0.5 + 14.134725j, 0.5 + 30.0j, 2.5 + 22.0j]
    worst = 0.0
    m = np.arange(200)
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    logs = np.log1p(m)
    rows = np.array([signs * np.exp(-s * logs) for s in points])
    references, _ = euler_naive(rows)
    for s, terms, reference in zip(points, rows, references.tolist()):
        accelerated, _ = _euler_accelerated(terms)
        # eta takes Borwein's weights at sigma >= 1/2; a unit coefficient
        # row at eta's binomial depth takes Euler's
        binomial = _eta_sums([s], coeffs=np.ones(_eta_depth(np.array([s])) + 1))[0][0]
        for value in (eta(s), binomial, accelerated):
            worst = max(worst, abs(value - reference))
    return worst, (
        "Borwein-weight eta, binomial-sum eta and weighted Euler transform "
        "vs iterated-averaging oracle"
    )


def _check_gamma_functional() -> tuple[float, str]:
    worst = 0.0
    for sigma, t in zip(_GAMMA_POINTS[::2], _GAMMA_POINTS[1::2]):
        s = complex(sigma, t)
        lhs = gamma_complex(s + 1.0)
        rhs = s * gamma_complex(s)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst, "Gamma(s+1) = s Gamma(s) at 100 seeded strip points"


# ---------------------------------------------------------------------------
# quad invariants
# ---------------------------------------------------------------------------


def _check_quad_linearity() -> tuple[float, str]:
    spec = default_spec(target_tol=1e-10)
    alpha, beta = 2.5, -1.25
    f = lambda u: np.exp(-u)
    g = lambda u: u * np.exp(-0.5 * u)
    combined = integrate_halfline(lambda u: alpha * f(u) + beta * g(u), spec)
    parts = alpha * integrate_halfline(f, spec).value + beta * integrate_halfline(g, spec).value
    return abs(complex(combined.value) - complex(parts)), "combined vs split integral, tol 1e-10"


def _check_quad_doubling() -> tuple[float, str]:
    tests = [
        lambda u: np.exp(-u),
        lambda u: u * np.exp(-0.5 * u),
        lambda u: np.cos(3.0 * u) * np.exp(-u),
    ]
    worst = 0.0
    for f in tests:
        grids = [_gauss_panels(0.0, 40.0, p) for p in (16, 32, 64, 128, 256)]
        vals = [float(np.sum(w * f(x))) for x, w in grids]
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        for a, b in zip(diffs, diffs[1:]):
            worst = max(worst, b - a - 1e-15)
    return max(worst, 0.0), "successive panel-doubling discrepancies never grow"


def _check_quad_tail_honesty() -> tuple[float, str]:
    spec = QuadratureSpec(panels=64, tail_cutoff=40.0, target_tol=1e-11)
    res = integrate_halfline(lambda u: np.exp(-0.5 * u), spec)
    true_tail = 2.0 * math.exp(-20.0)
    return true_tail / res.tail_bound, "known discarded tail vs reported bound, ratio <= 1"


# ---------------------------------------------------------------------------
# waveform invariants
# ---------------------------------------------------------------------------


def _check_squeeze_unitarity() -> tuple[float, str]:
    # each norm on one fixed Gauss grid, cut where e^{-rate x} falls to
    # 1e-14, at about one panel per 4 units of x and at least 64 panels;
    # the 20 norms take 9 distinct grids, each built once
    tests = [
        (lambda x: np.exp(-x), 2.0),
        (lambda x: x * np.exp(-x), 2.0),
        (lambda x: np.exp(-0.5 * x * x), 1.0),
        (lambda x: np.sin(2.0 * x) * np.exp(-x), 2.0),
        (lambda x: (1.0 + x) * np.exp(-2.0 * x), 4.0),
    ]
    grids = {}

    def squared_norm(psi: Callable, cutoff: float, panels: int) -> float:
        if (cutoff, panels) not in grids:
            grids[cutoff, panels] = _gauss_panels(0.0, cutoff, panels)
        nodes, weights = grids[cutoff, panels]
        return math.fsum((np.abs(psi(nodes)) ** 2 * weights).tolist())

    worst = 0.0
    for psi, rate in tests:
        norm0 = squared_norm(psi, tail_cutoff_for(rate, 1e-13), 64)
        for lam in (0.0, 1.0, 5.0):
            cutoff = tail_cutoff_for(rate * math.exp(-lam), 1e-13)
            norm1 = squared_norm(squeeze_apply(psi, lam), cutoff, max(64, int(cutoff / 4.0)))
            worst = max(worst, abs(norm1 - norm0) / norm0)
    return worst, "L2 norm before vs after squeezing, 5 functions x 3 lambdas"


def _check_mehler_equivalence() -> tuple[float, str]:
    ts = np.array([0.1, 0.3, 0.5, 0.7, 0.9])[:, None, None]
    ys = np.array([0.5, 1.0, 2.0, 5.0])
    closed = mehler_closed(ys[:, None], ys, ts)
    series = mehler_series(ys[:, None], ys, ts).value
    worst = float(np.max(np.abs(series - closed) / np.maximum(np.abs(closed), 1e-300)))
    return worst, "series vs closed kernel on the 80-point grid"


def _check_overlap_limit_rate() -> tuple[float, str]:
    lams = (8.0, 12.0, 16.0)
    worst_c = 0.0
    for m in range(11):
        # overlap_s1(m, 0, lam, bare=True) for the three lambdas on one grid
        cs = [abs(overlap - 2.0 * (-1.0) ** m) * math.exp(lam)
              for lam, overlap in zip(lams, _quadrature_overlaps(m, 0, lams))]
        if min(cs) <= 0.0 or max(cs) / min(cs) > 3.0:
            return math.inf, f"deviation not e^-lambda shaped at m={m}: C = {cs}"
        worst_c = max(worst_c, max(cs))
    return worst_c, "fitted overlap deviation constant, m <= 10"


def _check_boundary_factorization() -> tuple[float, str]:
    points = [complex(0.5, t) for t in (3.0, 5.0, 7.0, 9.0, 10.0)]
    limits = np.array([psi_boundary_limit(z) for z in points])
    lams = (8.0, 10.0, 12.0, 14.0)
    devs = []
    for lam in lams:
        values, _ = psi_boundary_batch(points, 0.0, 0, lam)
        devs.append(np.abs(values / limits - 1.0))
    devs_arr = np.vstack(devs)
    if np.any(np.diff(devs_arr, axis=0) > 0.0):
        return math.inf, "ratio deviation failed to shrink with lambda"
    return float(np.max(devs_arr[-1])), "level-sum/limit ratio vs 1 at lambda = 14"


def _check_confined_boundary() -> tuple[float, str]:
    # the literal series 2 sum_m (-1)^m (m+1)^{-s} phi_s(x/(m+1)), with
    # varphi_zero(s) for phi_s(0), summed by iterated averaging
    # one batch: the x = 0 rows at t = 0, 3, 10, then the x = 0.7 row at t = 10
    x = 0.7
    m = np.arange(64)
    signs = np.where(m % 2 == 0, 2.0, -2.0)
    logs = np.log1p(m)
    cases, rows = [], []
    for t in (0.0, 3.0, 10.0):
        s = complex(0.5, t)
        weights = signs * np.exp(-s * logs)
        cases.append((0.0, s))
        rows.append(weights * varphi_zero(s))
    cases.append((x, s))
    rows.append(weights * phi_s(x / (m + 1.0), s))
    wants, _ = euler_naive(np.array(rows))
    worst = 0.0
    for (at, s), want in zip(cases, wants.tolist()):
        worst = max(worst, abs(phi_confined(at, s) - want) / abs(want))
    return worst, "confined profile vs iterated averaging of its series, x = 0 and 0.7"


def _check_varphi_branch() -> tuple[float, str]:
    ts = np.arange(0.0, 30.0 + 1e-9, 0.02)
    points = np.full(ts.size, 0.5 + 0.0j)
    points.imag = ts
    vals = varphi_zero(points)
    phases = np.angle(vals[1:] / vals[:-1])
    return float(np.max(np.abs(phases))), "largest phase step along the line, h = 0.02"


# ---------------------------------------------------------------------------
# spectra invariants
# ---------------------------------------------------------------------------


def _check_zero_step_invariance() -> tuple[float, str]:
    a = scan_zeros(13.0, 16.0, step=0.05)
    b = scan_zeros(13.0, 16.0, step=0.025)
    if len(a) != len(b):
        return math.inf, f"counts differ: {len(a)} vs {len(b)}"
    worst = max((abs(x.t - y.t) for x, y in zip(a, b)), default=0.0)
    return worst, "refined heights under step halving"


def _check_zero_residuals() -> tuple[float, str]:
    records = scan_zeros(13.0, 22.0, step=0.05, refine_tol=1e-10)
    if not records:
        return math.inf, "expected zeros in (13, 22)"
    worst = 0.0
    for rec in records:
        s = complex(0.5, rec.t)
        factor = abs(1.0 - 2.0 ** (1.0 - s))
        worst = max(worst, abs(eta(s)), abs(zeta(s)) * factor / 10.0)
    return worst, "eta and scaled zeta residuals at refined zeros"


def _check_zero_isolation() -> tuple[float, str]:
    records = scan_zeros(10.0, 30.0, step=0.05)
    violations = 0
    for i, rec in enumerate(records):
        for j, other in enumerate(records):
            if i != j and rec.bracket_lo < other.t < rec.bracket_hi:
                violations += 1
    return float(violations), "bracket overlap count across records"


def _check_count_match() -> tuple[float, str]:
    limit_recs = scan_zeros(0.1, 30.0, step=0.05, mode="limit")
    finite_recs = scan_zeros(0.1, 30.0, step=0.05, mode="finite", lam=12.0, n=0)
    diff = abs(len(limit_recs) - len(finite_recs))
    return float(diff), f"limit found {len(limit_recs)}, finite-squeeze found {len(finite_recs)}"


# ---------------------------------------------------------------------------
# oracle invariants
# ---------------------------------------------------------------------------


def _check_eta_naive_agreement() -> tuple[float, str]:
    points = [2.0 + 0.0j, 0.5 + 14.134725j, 0.75 + 30.0j, 1.5 + 7.0j]
    terms = 200_000
    worst = 0.0
    for s in points:
        estimate = (abs(s) + 1.0) * terms ** (-(s.real + 1.0)) + 1e-11
        diff = abs(eta_naive(s, terms) - eta(s))
        worst = max(worst, diff / estimate)
    return worst, "raw-series oracle vs eta, scaled by the oracle's own error estimate"


def _check_number_operator() -> tuple[float, str]:
    pool = np.array([0.37, 0.9, 1.6, 2.8, 4.1, 5.9, 7.7, 9.8, 12.5])
    worst = 0.0
    for n in range(9):
        magnitudes = np.abs(chi(n, pool))
        picks = pool[np.argsort(magnitudes)[-3:]]
        for y in picks:
            worst = max(worst, abs(apply_number_operator(n, float(y)) - n))
    return worst, "finite-difference number operator vs n, n <= 8"


def _check_bk_operator() -> tuple[float, str]:
    xs = (0.5, 1.0, 3.0)
    worst = 0.0
    for i, t in enumerate(_BK_HEIGHTS):
        s = complex(0.5, t)
        x = xs[i % 3]
        expected = 1j * (s - 0.5)
        worst = max(worst, abs(apply_bk_operator(s, x) - expected))
    return worst, "finite-difference dilation generator vs i(s - 1/2), 20 seeded points"


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

_REGISTRY: List[tuple[str, Callable[[], tuple[float, str]], float]] = [
    ("laguerre-recurrence", _check_laguerre_recurrence, 1e-10),
    ("chi-orthonormality", _check_chi_orthonormality, 1e-8),
    ("eta-zeta-consistency", _check_eta_zeta_consistency, 1e-10),
    ("eta-alternating-agreement", _check_eta_alternating_agreement, 1e-8),
    ("gamma-functional-equation", _check_gamma_functional, 1e-10),
    ("quad-linearity", _check_quad_linearity, 2e-10),
    ("quad-doubling-error", _check_quad_doubling, 0.0),
    ("quad-tail-honesty", _check_quad_tail_honesty, 1.0),
    ("squeeze-unitarity", _check_squeeze_unitarity, 1e-8),
    ("mehler-equivalence", _check_mehler_equivalence, 1e-8),
    ("overlap-limit-rate", _check_overlap_limit_rate, 1e3),
    ("boundary-factorization", _check_boundary_factorization, 1e-4),
    ("confined-boundary-consistency", _check_confined_boundary, 1e-9),
    ("varphi-branch-continuity", _check_varphi_branch, 0.15),
    ("zero-step-invariance", _check_zero_step_invariance, 1e-6),
    ("zero-residual-bounds", _check_zero_residuals, 1e-10),
    ("zero-isolation", _check_zero_isolation, 0.0),
    ("finite-limit-count-match", _check_count_match, 0.5),
    ("eta-naive-agreement", _check_eta_naive_agreement, 1.0),
    ("number-operator-eigenvalues", _check_number_operator, 1e-5),
    ("bk-operator-eigenvalues", _check_bk_operator, 1e-4),
]


def check_names() -> List[str]:
    return [name for name, _, _ in _REGISTRY]


def run_checks(
    only: Optional[str] = None,
    tol_override: Optional[float] = None,
) -> List[CheckResult]:
    """Run the invariant suite, optionally filtered by substring.

    tol_override replaces every default tolerance (useful to demonstrate
    failure reporting) and must be finite and nonnegative: no measured
    value is below 0, so a negative one would fail every check for a bad
    configuration.  Unknown filters raise DomainError so typos do not
    masquerade as a green empty run.
    """
    if tol_override is not None and not (math.isfinite(tol_override) and tol_override >= 0.0):
        raise DomainError(f"tol_override must be finite and nonnegative, got {tol_override}")
    selected = [
        entry for entry in _REGISTRY if only is None or only in entry[0]
    ]
    if not selected:
        raise DomainError(f"no invariant matches {only!r}; known: {', '.join(check_names())}")
    results = []
    for name, func, default_tol in selected:
        measured, detail = func()
        tol = default_tol if tol_override is None else tol_override
        results.append(
            CheckResult(
                name=name,
                measured=measured,
                tolerance=tol,
                passed=bool(measured <= tol),
                detail=detail,
            )
        )
    return results
