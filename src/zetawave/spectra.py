"""Critical-line zero scans and squeeze-convergence studies.

Scans walk a grid of heights t, locate local minima of the modulus of a
normalized boundary objective, and refine each candidate with a complex
Newton step projected back to the line.  In limit mode the objective is
the eta function itself; in finite-squeeze mode it is the y = 0 boundary
value in its level-sum form divided by 2 varphi_zero, which sits on the
same O(1) scale as eta at every height (the raw boundary value collapses
like e^{-pi t/2} and would starve detection of dynamic range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import DomainError
from .specfun import _eta_depth, _eta_sums, eta_grid
from .waveform import (
    ORIGINAL,
    TILDE,
    QuantumNumber,
    SqueezeParameter,
    _bare_overlaps,
    _euler_weights,
    psi_boundary,
    psi_boundary_limit,
    tilde_expansion_check,
    varphi_zero,
)

# Unused here, but the benchmark tracer (perfbench/tracer.py) wraps these
# names in this module, so they must stay importable from it.
from .specfun import eta  # noqa: F401
from .waveform import _euler_accelerated, _euler_accelerated_rows  # noqa: F401

__all__ = [
    "ZeroRecord",
    "ConvergenceRecord",
    "ConvergenceStudy",
    "boundary_objective",
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


def boundary_objective(t: float, mode: str = "limit", lam: float = 12.0, n: int = 0) -> complex:
    """Boundary value whose zeros the scans chase, at s = 1/2 + it.

    Limit mode returns 2 varphi_zero(s) eta(s); finite mode returns the
    y = 0 boundary value at the given squeeze, by quadrature.
    """
    if mode not in SCAN_MODES:
        raise DomainError(f"mode must be one of {SCAN_MODES}")
    z = complex(0.5, float(t))
    if mode == "limit":
        return psi_boundary_limit(z)
    return psi_boundary(0.0, z, int(n), float(lam)).value


def _finite_depth(t_max: float) -> int:
    return 80 + int(math.ceil(2.3 * t_max))


def _finite_series_tools(
    n: int, lam: float, t_max: float
) -> tuple[Callable[[np.ndarray], tuple], Callable[[np.ndarray], np.ndarray]]:
    """Newton and grid evaluators of the normalized finite-squeeze objective.

    The y = 0 boundary value factorizes as varphi_zero(s) times
    sum_m A_m (m+1)^{-s} with squeeze-only overlaps A_m, so one overlap
    pass serves the whole scan; the alternating sum is rendered by the
    iterated-averaging transform, which keeps relative accuracy at any
    height.  Values are divided by 2 to land on the eta scale.  The
    transform is the weighted sum sum_m u_m A_m (m+1)^{-s} of
    _euler_weights, so the Newton evaluator takes (f, df/dt) on an array of
    heights from one product, with
    df/dt = -i sum_m u_m A_m log(m+1) (m+1)^{-s}; the grid evaluator keeps f.
    """
    depth = _finite_depth(t_max)
    overlaps = _bare_overlaps(n, depth - 1, lam)
    logk = np.log(np.arange(1.0, depth + 1.0))
    averaged = 0.5 * _euler_weights(depth)[:, 0] * overlaps
    weights = np.column_stack([averaged, -1j * logk * averaged])

    def newton(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sums = np.exp(np.multiply.outer(-(0.5 + 1j * ts), logk)) @ weights
        return sums[:, 0], sums[:, 1]

    def grid(ts: np.ndarray) -> np.ndarray:
        return newton(ts)[0]

    return newton, grid


def _limit_newton(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eta and d eta / dt = i eta'(s) at s = 1/2 + i t."""
    values, deriv = _eta_sums(0.5 + 1j * ts, derivative=True)
    return values, 1j * deriv


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


# Work preflight: grid points times terms per point, in complex elements
# (2^24 of them take 256 MB, and building them up to twice that at the
# peak), checked before any array is built.
_MAX_SCAN_ELEMENTS = 2**24


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

    Grid minima of the normalized modulus qualify as candidates when they
    fall below 0.1 times the window median (robust against shallow dips
    between zeros); all candidates are Newton-refined together, each inside
    its bracket, with the analytic derivative of the objective.
    Unconverged candidates are flagged, never dropped.  Records come back
    sorted by t.  A grid whose points times terms per point exceeds
    _MAX_SCAN_ELEMENTS is refused with DomainError before any work.
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
    QuantumNumber(int(n))
    SqueezeParameter(float(lam))

    count = int(math.floor((t_hi - t_lo) / step + 1e-9)) + 1
    if mode == "limit":
        terms = _eta_depth(np.array([complex(0.5, t_hi)])) + 1
    else:
        terms = _finite_depth(float(t_hi))
    if (count + 1) * terms > _MAX_SCAN_ELEMENTS:
        raise DomainError(
            f"scan grid of {count} points x {terms} terms exceeds the work limit of "
            f"{_MAX_SCAN_ELEMENTS} elements; use a larger step or a shorter window"
        )
    ts = t_lo + step * np.arange(count)
    if ts[-1] < t_hi - 1e-12 * max(1.0, t_hi):
        ts = np.append(ts, t_hi)

    if mode == "limit":
        fgrid_vals = eta_grid(0.5 + 1j * ts)
        newton = _limit_newton
    else:
        newton, fgrid = _finite_series_tools(int(n), float(lam), float(t_hi))
        fgrid_vals = fgrid(ts)

    mags = np.abs(fgrid_vals)
    threshold = 0.1 * float(np.median(mags))
    candidates = [
        i
        for i in range(1, ts.size - 1)
        if mags[i] <= mags[i - 1] and mags[i] <= mags[i + 1] and mags[i] < threshold
    ]

    records = _refine_all(newton, ts[candidates], step, refine_tol, int(n)) if candidates else []
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
    tracks the remainder.  Reports the least-squares slope of
    log(abs_error) against lambda with its rms fit residual; e^{-lambda}
    decay shows up as slope -1, the corrected remainder as slope -2.
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
    QuantumNumber(int(n))

    records = []
    for lam in lams:
        if variant == "tilde-corrected":
            expansion = tilde_expansion_check(float(y), z, int(n), lam)
            value = expansion.exact
            reference = expansion.first_order
            err = expansion.residual
        else:
            kind = ORIGINAL if variant == "original" else TILDE
            value = psi_boundary(float(y), z, int(n), lam, variant=kind).value
            reference = psi_boundary_limit(z, float(y))
            err = abs(value - reference)
        records.append(
            ConvergenceRecord(
                lam=lam, observable=variant, value=value,
                reference=reference, abs_error=err,
            )
        )

    xs = np.array(lams)
    ys = np.log(np.maximum([r.abs_error for r in records], 1e-300))
    slope, intercept = np.polyfit(xs, ys, 1)
    fit_residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return ConvergenceStudy(
        observable=variant,
        records=tuple(records),
        slope=float(slope),
        intercept=float(intercept),
        fit_residual=fit_residual,
    )
