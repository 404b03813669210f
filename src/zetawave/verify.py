"""Named invariant checks backing the verify subcommand and the test suite.

Each check computes a single worst-case measured number against a default
tolerance, so the report reads as one row per invariant.  Checks use
seeded generators and fixed grids; two runs produce identical numbers.
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
    mehler_closed,
    mehler_series,
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
    # edge before the exponential tail argument applies.
    cutoff = 42.0 + tail_cutoff_for(0.3, 1e-12)
    grams = []
    for panels in (160, 320):
        nodes, weights = _gauss_panels(0.0, cutoff, panels)
        rows = np.array([chi(n, nodes) for n in range(11)])
        grams.append((rows * weights) @ rows.T)
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
    for s in points:
        terms = signs * np.exp(-s * np.log1p(m))
        reference, _ = euler_naive(terms)
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
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    drawn = 0
    while drawn < 100:
        sigma = rng.uniform(-2.0, 3.0)
        t = rng.uniform(-60.0, 60.0)
        s = complex(sigma, t)
        if sigma <= 0.6 and min(abs(s - k) for k in range(-3, 2)) < 0.15:
            continue
        drawn += 1
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


def _squared_norm(psi: Callable, cutoff: float, panels: int) -> float:
    nodes, weights = _gauss_panels(0.0, cutoff, panels)
    return math.fsum(np.abs(psi(nodes)) ** 2 * weights)


def _check_squeeze_unitarity() -> tuple[float, str]:
    # each norm on one fixed Gauss grid, cut where e^{-rate x} falls to
    # 1e-14, at about one panel per 4 units of x and at least 64 panels
    tests = [
        (lambda x: np.exp(-x), 2.0),
        (lambda x: x * np.exp(-x), 2.0),
        (lambda x: np.exp(-0.5 * x * x), 1.0),
        (lambda x: np.sin(2.0 * x) * np.exp(-x), 2.0),
        (lambda x: (1.0 + x) * np.exp(-2.0 * x), 4.0),
    ]
    worst = 0.0
    for psi, rate in tests:
        norm0 = _squared_norm(psi, tail_cutoff_for(rate, 1e-13), 64)
        for lam in (0.0, 1.0, 5.0):
            cutoff = tail_cutoff_for(rate * math.exp(-lam), 1e-13)
            norm1 = _squared_norm(squeeze_apply(psi, lam), cutoff, max(64, int(cutoff / 4.0)))
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
        cs = []
        for lam in lams:
            dev = abs(overlap_s1(m, 0, lam, bare=True) - 2.0 * (-1.0) ** m)
            cs.append(dev * math.exp(lam))
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
    x = 0.7
    m = np.arange(64)
    signs = np.where(m % 2 == 0, 2.0, -2.0)
    worst = 0.0
    for t in (0.0, 3.0, 10.0):
        s = complex(0.5, t)
        weights = signs * np.exp(-s * np.log1p(m))
        want, _ = euler_naive(weights * varphi_zero(s))
        worst = max(worst, abs(phi_confined(0.0, s) - want) / abs(want))
    want, _ = euler_naive(weights * phi_s(x / (m + 1.0), s))
    worst = max(worst, abs(phi_confined(x, s) - want) / abs(want))
    return worst, "confined profile vs iterated averaging of its series, x = 0 and 0.7"


def _check_varphi_branch() -> tuple[float, str]:
    ts = np.arange(0.0, 30.0 + 1e-9, 0.02)
    vals = np.array([varphi_zero(complex(0.5, t)) for t in ts])
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
    rng = np.random.default_rng(_SEED)
    xs = (0.5, 1.0, 3.0)
    worst = 0.0
    for i in range(20):
        t = float(rng.uniform(0.5, 10.0))
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
