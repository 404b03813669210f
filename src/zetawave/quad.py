"""Half-line quadrature on panelled 12-point Gauss-Legendre grids.

Smooth exponentially decaying integrands go to integrate_halfline, which
applies the panels directly and reports an a posteriori error from panel
halving plus an explicit bound for the discarded tail.  Mellin integrals
(1/scale) int_0^inf u^{s-1} g(u)/(e^u - 1) du go to integrate_singular_log,
the engine behind every boundary value at y > 0: the substitution u = e^v
turns the algebraic endpoint into a pure Fourier mode e^{s v} times an
envelope that does not involve s, on a finite v-interval whose grid
doubles each round, for a whole batch of s in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "NODE_BUDGET",
    "default_spec",
    "tail_cutoff_for",
    "integrate_halfline",
    "integrate_singular_log",
]

# Hard ceiling on the Gauss nodes (12 per panel) of integrate_halfline
# after all refinement.
NODE_BUDGET = 400_000

# The 12-point Gauss-Legendre rule on [-1, 1], bitwise numpy's leggauss(12),
# which is symmetric: the positive nodes ascending, and their weights.
_HALF_NODES = np.array([
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_HALF_WEIGHTS = np.array([
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])
_GAUSS_NODES = np.concatenate((-_HALF_NODES[::-1], _HALF_NODES))
_GAUSS_WEIGHTS = np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS))
_ORDER = _GAUSS_NODES.size

# Rounds of grid doubling in integrate_singular_log after its first grid.
_MAX_BOUNDARY_ROUNDS = 5
# 40_000_000 // (24 * 12): the outer-node count at which the earlier budget
# on outer times inner quadrature nodes first stopped a boundary request.
_MAX_OUTER_NODES = 138_888


def _positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class QuadratureSpec:
    """Subdivision and tail handling for one half-line integral."""

    panels: int = 64
    tail_cutoff: float = 40.0
    target_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.panels < 1:
            raise DomainError("need panels >= 1")
        _positive_finite("tail_cutoff", self.tail_cutoff)
        _positive_finite("target_tol", self.target_tol)
        if self.panels * _ORDER > NODE_BUDGET:
            raise DomainError("requested node count exceeds the budget")


class QuadResult(NamedTuple):
    value: complex
    error: float
    tail_bound: float
    panels_used: int


def tail_cutoff_for(rate: float, target_tol: float) -> float:
    """Cutoff T >= 1 with e^{-rate*T} <= target_tol / 10."""
    _positive_finite("decay rate", rate)
    _positive_finite("target_tol", target_tol)
    return max(1.0, math.log(10.0 * max(1.0, target_tol) / target_tol) / rate)


def default_spec(*, tail_cutoff: float = 40.0, target_tol: float = 1e-10) -> QuadratureSpec:
    """Starting subdivision of about one 12-point panel per unit of u, at least 16."""
    _positive_finite("tail_cutoff", tail_cutoff)
    return QuadratureSpec(
        panels=max(16, int(math.ceil(tail_cutoff))),
        tail_cutoff=tail_cutoff,
        target_tol=target_tol,
    )


def _eval(f: Callable, u: np.ndarray) -> np.ndarray:
    """f on an array of nodes, as complex; f must map arrays elementwise."""
    out = np.asarray(f(u), dtype=complex)
    if out.shape != u.shape:
        raise DomainError("integrand must return one value per node")
    return out


def _gauss_panels(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, 12 points on each of panels
    equal panels of [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * _GAUSS_NODES[None, :]).ravel()
    return nodes, np.tile(half * _GAUSS_WEIGHTS, panels)


def _panel_sum(f: Callable, a: float, b: float, panels: int) -> complex:
    nodes, weights = _gauss_panels(a, b, panels)
    vals = _eval(f, nodes) * weights
    # Compensated final reduction: the oscillatory integrands cancel to
    # near the rounding floor and pairwise summation noise would show up
    # in the tightest downstream tolerances.
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def _refine(f: Callable, a: float, b: float, spec: QuadratureSpec) -> tuple[complex, float, int]:
    panels = spec.panels
    coarse = _panel_sum(f, a, b, panels)
    err = math.inf
    while True:
        if 2 * panels * _ORDER > NODE_BUDGET:
            raise NonConvergenceError(
                f"panel halving hit the node budget with error estimate {err:.3g}"
            )
        fine = _panel_sum(f, a, b, 2 * panels)
        err = abs(fine - coarse)
        panels *= 2
        coarse = fine
        if err <= spec.target_tol:
            return fine, err, panels


def _geometric_tail_bound(f: Callable, cutoff: float) -> float:
    """Bound the discarded upper tail by geometric extrapolation of |f|."""
    probes = _eval(f, np.array([cutoff, cutoff + 1.0, cutoff + 2.0]))
    m0, m1, m2 = (abs(v) for v in probes)
    if m0 == 0.0:
        return 0.0
    ratio = max(m1 / m0, m2 / max(m1, 1e-300))
    if not (ratio < 1.0):
        return math.inf
    # Integral of the fitted envelope m0 e^{ln(ratio) u}, plus one extra
    # sample of headroom so mild non-monotonicity cannot break the bound.
    return m0 * (1.0 / -math.log(ratio) + 1.0)


def integrate_halfline(f: Callable, spec: QuadratureSpec) -> QuadResult:
    """Integrate f over (0, infinity) under the given spec.

    f must be smooth on [0, tail_cutoff]; endpoint-singular Mellin
    integrands belong to integrate_singular_log.  The value carries an a
    posteriori error estimate from panel halving and an explicit tail bound
    for the mass beyond tail_cutoff.  Raises NonConvergenceError if halving
    cannot reach target_tol inside the node budget.
    """
    tail = _geometric_tail_bound(f, spec.tail_cutoff)
    value, err, used = _refine(f, 0.0, spec.tail_cutoff, spec)
    return QuadResult(value, err + tail, tail, used)


def integrate_singular_log(
    g: Callable,
    s_values: np.ndarray,
    head: float,
    scale: np.ndarray,
    tols: np.ndarray,
    envelope: float = 1.0,
) -> tuple[np.ndarray, float]:
    """(1/scale) int_0^inf u^{s-1} g(u)/(e^u - 1) du for a batch of s.

    Returns (values, err), err the largest change of the last doubling.
    Under u = e^v the integrand is e^{s v} g(e^v)/(e^{e^v} - 1): a Fourier
    mode times a kernel that does not involve s, so each grid evaluates g
    once and each point costs one phase sum.  The grid is 12-point
    Gauss-Legendre on [v_lo, ln 45], starting from one panel per 6 radians
    of the phase (1 + max|Im s|) v (at least 24 panels) and doubling until
    every point moves by at most its tolerance (tols broadcasts against
    s_values); NonConvergenceError after _MAX_BOUNDARY_ROUNDS doublings or
    once a grid would pass _MAX_OUTER_NODES nodes, before it is built.
    Above ln 45 the kernel is below e^{-45} times g; a tolerance so loose
    that v_lo would reach ln 45 raises DomainError.

    head is the u -> 0 limit of g(u)/(e^u - 1).  Below the cut u_lo = e^{v_lo}
    the integrand is u^{s-1} (head + O(envelope u)), so head u_lo^s / s is
    added back analytically and the cut only controls the next order: it
    discards less than min(tols) min|scale| / 10, the raw tolerance, for
    every point.  scale is a nonzero value or array that broadcasts
    against s_values, such as Gamma(s).
    """
    s = np.asarray(s_values, dtype=complex).reshape(-1)
    scale = np.asarray(scale, dtype=complex)
    tols = np.asarray(tols, dtype=float)
    moduli = np.abs(scale)
    if s.size == 0:
        raise DomainError("Mellin integral needs at least one point s")
    # NaN fails every comparison below, so these checks also reject it
    sig_min, t_max = float(s.real.min()), float(np.abs(s.imag).max())
    if not (sig_min > 0.0 and s.real.max() < math.inf and t_max < math.inf):
        raise DomainError("Mellin integral requires finite s with Re s > 0")
    tol_min, modulus_min = float(tols.min()), float(moduli.min())
    if not (tol_min > 0.0 and tols.max() < math.inf):
        raise DomainError("Mellin tolerances must be positive and finite")
    if not (modulus_min > 0.0 and moduli.max() < math.inf):
        raise DomainError("Mellin scale must be finite and nonzero")
    _positive_finite("envelope", envelope)
    raw_tol = tol_min * modulus_min
    if raw_tol == 0.0:
        raise DomainError("Mellin tolerance times |scale| underflows to 0")
    cut = math.log(raw_tol) - math.log(10.0) - math.log(envelope)
    v_lo = cut / (sig_min + 1.0) - 6.0
    v_hi = math.log(45.0)
    if not v_lo < v_hi:
        raise DomainError(
            f"Mellin tolerance {tol_min:.3g} is too loose: its lower cut passes u = 45"
        )
    head_term = head * np.exp(s * v_lo) / s
    panels = max(24, int(math.ceil((1.0 + t_max) * (v_hi - v_lo) / 6.0)))
    prev, err = None, math.inf
    for _ in range(_MAX_BOUNDARY_ROUNDS + 1):
        if panels * _ORDER > _MAX_OUTER_NODES:
            break
        v, w = _gauss_panels(v_lo, v_hi, panels)
        u = np.exp(v)
        kernel = w * g(u) / np.expm1(u)
        raw = np.empty(s.size, dtype=complex)
        # phases in blocks of 128 points, each freed before the next is built
        for lo in range(0, s.size, 128):
            raw[lo : lo + 128] = np.exp(np.multiply.outer(s[lo : lo + 128], v)) @ kernel
        vals = (raw + head_term) / scale
        if prev is not None:
            diffs = np.abs(vals - prev)
            err = float(np.max(diffs))
            if np.all(diffs <= tols):
                return vals, err
        prev = vals
        panels *= 2
    raise NonConvergenceError(f"Mellin quadrature stalled at discrepancy {err:.3g}")
