"""Critical-line zero scans and squeeze-convergence studies.

Scans walk a grid of heights t, locate local minima of the modulus of a
normalized boundary objective, and refine each candidate with a complex
Newton step projected back to the line.  In limit mode the objective is
the eta function itself; in finite-squeeze mode it is the y = 0 boundary
value in its level-sum form divided by 2 varphi_zero, which sits on the
same O(1) scale as eta at every height (the raw boundary value collapses
like e^{-pi t/2} and would starve detection of dynamic range).  Studies
take the boundary value's route: up to Y = e^{+-lam} y = 356 the level
sum, one row sum_m A_m chi_m(Y) per squeeze; past it the Mellin quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .errors import DomainError, NonConvergenceError, OverflowRangeError
from .specfun import _DEPTH_CAP, _TINY, _borwein_order, _eta_line, _eta_sums
from .waveform import (
    ORIGINAL,
    TILDE,
    QuantumNumber,
    SqueezeParameter,
    _boundary_squeezes,
    _level_coefficients,
    _level_depth,
    _tilde_expansions,
    psi_boundary_limit,
)

# Unused here, but the benchmark tracer (perfbench/tracer.py) wraps these
# names in this module, so they must stay importable from it.
from .specfun import eta, eta_grid  # noqa: F401
from .waveform import _bare_overlaps, _euler_accelerated, _euler_accelerated_rows  # noqa: F401
from .waveform import psi_boundary, tilde_expansion_check  # noqa: F401

__all__ = [
    "ZeroRecord",
    "ConvergenceRecord",
    "ConvergenceStudy",
    "scan_zeros",
    "convergence_study",
    "SCAN_MODES",
    "STUDY_VARIANTS",
]

SCAN_MODES = ("limit", "finite")
STUDY_VARIANTS = ("original", "tilde", "tilde-corrected")

# Scans are calibrated for the same height range as the eta machinery.
_SCAN_T_MAX = 120.0
_MAX_NEWTON = 40


@dataclass(frozen=True)
class ZeroRecord:
    """One refined zero candidate.

    residual is the modulus of the normalized objective at the refined
    height; converged records met refine_tol, the rest are kept with the
    flag down rather than dropped (finite-squeeze zeros sit slightly off
    the line, so their on-line modulus floors at the displacement scale).
    energy is n - t, the eigenvalue E = i(s - 1/2) + n at s = 1/2 + it,
    with n the level index passed to the scan.
    """

    t: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    energy: float
    converged: bool


@dataclass(frozen=True)
class ConvergenceRecord:
    lam: float
    observable: str
    value: complex
    reference: complex
    abs_error: float


@dataclass(frozen=True)
class ConvergenceStudy:
    observable: str
    records: tuple
    slope: float
    intercept: float
    fit_residual: float


def _finite_series_tools(
    n: int, lam: float, t_max: float, step: float
) -> tuple[Callable[[np.ndarray], tuple], Callable[[np.ndarray], np.ndarray]]:
    """Newton and grid evaluators of the normalized finite-squeeze objective.

    The y = 0 boundary value factorizes as varphi_zero(s) times
    sum_m A_m (m+1)^{-s} with squeeze-only overlaps A_m, so one overlap
    pass serves the whole scan.  Divided by 2 varphi_zero it lands on the
    eta scale: sum_m (-1)^m c_m (m+1)^{-s} with c_m = (-1)^m A_m / 2, half
    the boundary value's coefficient row (waveform._level_coefficients) at
    the boundary value's depth (waveform._level_depth at the window top),
    which eta's kernel renders with its settle check (NonConvergenceError).
    A row deeper than specfun._DEPTH_CAP raises NonConvergenceError
    before any work.  The Newton evaluator takes (f, df/dt) on an array of
    heights by exact powers, df/dt = i f'(s); the grid evaluator keeps f on
    a scan grid of the given step (see _line_grid).
    """
    depth = _level_depth(np.array([0.5 + 1j * t_max]), n, lam, 0.0)
    if depth > _DEPTH_CAP:
        raise NonConvergenceError(
            f"finite scan at n = {n}, lambda = {lam:g} needs a level row of depth {depth}, "
            f"past {_DEPTH_CAP}"
        )
    coeffs = 0.5 * _level_coefficients(n, depth, lam)
    return _line_newton(coeffs), _line_grid(coeffs, step)


def _line_grid(coeffs, step: float) -> Callable[[np.ndarray], np.ndarray]:
    """f at s = 1/2 + i t of the _eta_sums series with this coefficient row
    (eta for None) on a scan grid ts, t_lo + j step with the window top
    appended when it falls off the lattice: the lattice by _eta_line's
    factorized phases, the appended top by exact powers, both with the
    weights sized for the window top ts[-1].
    """
    def grid(ts: np.ndarray) -> np.ndarray:
        count = ts.size - int(ts[-1] != ts[0] + step * (ts.size - 1))
        top = _eta_sums(0.5 + 1j * ts[count:], coeffs=coeffs)[0]
        return np.append(_eta_line(ts[0], step, count, coeffs, t_top=ts[-1]), top)

    return grid


def _line_newton(coeffs=None, t_top: float = 0.0) -> Callable[[np.ndarray], tuple]:
    """(f, df/dt = i f'(s)) at s = 1/2 + i t of the _eta_sums series at exact
    powers, eta for None.

    A coefficient row takes Euler's weights at its own depth; eta takes
    Borwein's, sized for the larger of t_top and the batch's highest t, so
    every round of a window sized for its top shares the grid's table.
    """
    def newton(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, deriv = _eta_sums(0.5 + 1j * ts, derivative=True, coeffs=coeffs, t_top=t_top)
        return values, 1j * deriv

    return newton


def _refine_all(
    newton: Callable[[np.ndarray], tuple],
    t0: np.ndarray,
    step: float,
    tol: float,
    n: int,
) -> List[ZeroRecord]:
    """Newton refinement of every candidate of a window in one pass.

    newton(ts) returns the objective f and its derivative df/dt at the
    heights ts.  The complex Newton correction f/f' is projected to its
    real part, which walks t toward the on-line modulus minimum; for a zero
    on the line this converges quadratically to it.  Each candidate is
    clipped to its bracket t0 -/+ step and keeps its best residual; it
    stops when its derivative vanishes, its best residual meets tol, its
    step falls below 1e-13 max(1, |t|), or after _MAX_NEWTON steps.  Each
    round evaluates only the candidates still running.
    """
    lo, hi = t0 - step, t0 + step
    t = t0.copy()
    fval, deriv = newton(t)
    best_t, best_r = t.copy(), np.abs(fval)
    iterations = np.zeros(t.size, dtype=int)
    active = np.arange(t.size)
    for _ in range(_MAX_NEWTON):
        iterations[active] += 1
        active = active[deriv[active] != 0]
        if active.size == 0:
            break
        delta = (fval[active] / deriv[active]).real
        t[active] = np.clip(t[active] - delta, lo[active], hi[active])
        fval[active], deriv[active] = newton(t[active])
        better = active[np.abs(fval[active]) < best_r[active]]
        best_t[better], best_r[better] = t[better], np.abs(fval[better])
        stalled = np.abs(delta) < 1e-13 * np.maximum(1.0, np.abs(t[active]))
        active = active[(best_r[active] > tol) & ~stalled]
    return [
        ZeroRecord(
            t=float(best_t[i]),
            residual=float(best_r[i]),
            bracket_lo=float(lo[i]),
            bracket_hi=float(hi[i]),
            iterations=int(iterations[i]),
            energy=float(n) - float(best_t[i]),
            converged=bool(best_r[i] <= tol),
        )
        for i in range(t.size)
    ]


# Work preflight: grid points times the terms summed per point (Borwein's
# order in limit mode, the row's depth + 1 in finite mode), checked
# before any array is built.  The grid never holds that many elements at
# once (see specfun._eta_line), so this bounds the work of the settle
# products, 7 complex multiply-adds per element, not memory.
_MAX_SCAN_ELEMENTS = 2**24


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty array of finite floats, bitwise.

    The middle entry for odd n, the two middle ones as (a + b) / 2.0 for
    even n, the sum and divide np.mean does; np.median itself imports
    numpy.ma on its first call, which would cost a first scan more than
    its arithmetic.
    """
    half = values.size // 2
    if values.size % 2:
        return float(np.partition(values, half)[half])
    low, high = np.partition(values, (half - 1, half))[half - 1 : half + 1]
    return float((low + high) / 2.0)


def scan_zeros(
    t_lo: float,
    t_hi: float,
    step: float = 0.05,
    refine_tol: float = 1e-10,
    mode: str = "limit",
    lam: float = 12.0,
    n: int = 0,
) -> List[ZeroRecord]:
    """Locate critical-line zeros of the boundary objective on (t_lo, t_hi).

    The grid t_lo + j step (with t_hi appended when it falls off it) is
    evaluated by specfun._eta_line's factorized phases, within 2e-13
    (1 + |f|) of exact powers; in limit mode it sums eta with Borwein's
    weights, about 20 + 0.9 t_hi terms where the binomial depth takes
    64 + 2.3 t_hi.  Grid values only choose the candidates.
    Grid minima of the normalized modulus qualify as candidates when they
    fall below 0.1 times the window median (robust against shallow dips
    between zeros); all candidates are Newton-refined together, each inside
    its bracket, with the analytic derivative of the objective at exact
    powers and the grid's weights: Borwein's sized for the window top in
    limit mode, the coefficient row's binomial ones in finite mode.
    Unconverged candidates are flagged, never dropped.  Records come back
    sorted by t.  A grid whose points times terms summed per point
    (Borwein's order in limit mode, the row's waveform._level_depth + 1,
    at least 65 + 2.3 t_hi, in finite mode) exceeds _MAX_SCAN_ELEMENTS is
    refused with DomainError before any work; a finite row past the depth
    cap 420 raises NonConvergenceError.
    """
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise DomainError("scan range must be finite")
    if t_lo <= 0.0 or t_hi <= t_lo:
        raise DomainError("need 0 < t_lo < t_hi")
    if t_hi > _SCAN_T_MAX:
        raise DomainError(f"scans are calibrated for t <= {_SCAN_T_MAX:g}")
    if not math.isfinite(step):
        raise DomainError("step must be finite")
    if step <= 0.0 or step > (t_hi - t_lo):
        raise DomainError("step must be positive and smaller than the window")
    if not math.isfinite(refine_tol):
        raise DomainError("refine_tol must be finite")
    if refine_tol <= 0.0:
        raise DomainError("refine_tol must be positive")
    if mode not in SCAN_MODES:
        raise DomainError(f"mode must be one of {SCAN_MODES}")
    QuantumNumber(n)
    SqueezeParameter(float(lam))

    count = int(math.floor((t_hi - t_lo) / step + 1e-9)) + 1
    if mode == "limit":
        terms = _borwein_order(t_hi)
    else:
        terms = _level_depth(np.array([0.5 + 1j * t_hi]), int(n), float(lam), 0.0) + 1
    if (count + 1) * terms > _MAX_SCAN_ELEMENTS:
        raise DomainError(
            f"scan grid of {count} points x {terms} terms exceeds the work limit of "
            f"{_MAX_SCAN_ELEMENTS} elements; use a larger step or a shorter window"
        )
    ts = t_lo + step * np.arange(count)
    if ts[-1] < t_hi - 1e-12 * max(1.0, t_hi):
        ts = np.append(ts, t_hi)

    if mode == "limit":
        newton, fgrid = _line_newton(t_top=float(ts[-1])), _line_grid(None, step)
    else:
        newton, fgrid = _finite_series_tools(int(n), float(lam), float(t_hi), step)
    fgrid_vals = fgrid(ts)

    mags = np.abs(fgrid_vals)
    # finite: _settled has refused any grid value that is not
    threshold = 0.1 * _median(mags)
    inner = mags[1:-1]
    candidates = 1 + np.flatnonzero((inner <= mags[:-2]) & (inner <= mags[2:]) & (inner < threshold))

    records = _refine_all(newton, ts[candidates], step, refine_tol, int(n)) if candidates.size else []
    records.sort(key=lambda r: r.t)
    merged: List[ZeroRecord] = []
    for rec in records:
        if merged and rec.t - merged[-1].t < 0.5 * step:
            if rec.residual < merged[-1].residual:
                merged[-1] = rec
            continue
        merged.append(rec)
    return merged


def convergence_study(
    s: complex,
    n: int,
    lambdas: Sequence[float],
    variant: str = "original",
    y: float = 0.0,
) -> ConvergenceStudy:
    """Squeeze-convergence study of the boundary value against its limit.

    For 'original' and 'tilde' the error is |psi_boundary - limit| per
    lambda; 'tilde-corrected' subtracts the first-order term as well and
    tracks the remainder (tilde_expansion_check).  Reports the
    least-squares slope of log(abs_error) against lambda with its rms fit
    residual; e^{-lambda} decay shows up as slope -1, the corrected
    remainder as slope -2.  An abs_error that is not a positive normal
    double has no logarithm to fit, and raises OverflowRangeError.

    Every lambda is checked before any work; the limit is evaluated once
    per study.  Each record is bitwise the per-lambda psi_boundary (or
    tilde_expansion_check) value: the level sum up to Y = 356, the Mellin
    quadrature past it.
    """
    z = complex(s)
    if variant not in STUDY_VARIANTS:
        raise DomainError(f"variant must be one of {STUDY_VARIANTS}")
    lams = [float(v) for v in lambdas]
    if len(lams) < 2:
        raise DomainError("need at least two lambda values for a rate fit")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise DomainError("lambda list must be strictly ascending")
    if any(v < 5.0 for v in lams):
        raise DomainError("convergence regime needs lambda >= 5")
    QuantumNumber(n)

    if variant == "tilde-corrected":
        rows = [
            (e.exact, e.first_order, e.residual)
            for e in _tilde_expansions(float(y), z, int(n), lams)
        ]
    else:
        kind = ORIGINAL if variant == "original" else TILDE
        values = _boundary_squeezes(z, float(y), int(n), lams, kind)
        reference = psi_boundary_limit(z, float(y))
        rows = [(value, reference, abs(value - reference)) for value in values]
    records = tuple(
        ConvergenceRecord(
            lam=lam, observable=variant, value=value,
            reference=reference, abs_error=err,
        )
        for lam, (value, reference, err) in zip(lams, rows)
    )
    for rec in records:
        if not _TINY <= rec.abs_error < math.inf:
            raise OverflowRangeError(
                f"abs_error {rec.abs_error:.3g} at lambda {rec.lam:g} is not a positive "
                f"normal double, so no rate can be fitted"
            )

    xs = np.array(lams)
    ys = np.log([r.abs_error for r in records])
    slope, intercept = np.polyfit(xs, ys, 1)
    fit_residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return ConvergenceStudy(
        observable=variant,
        records=records,
        slope=float(slope),
        intercept=float(intercept),
        fit_residual=fit_residual,
    )
