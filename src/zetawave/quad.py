"""Half-line quadrature: panelled Gauss-Legendre with panel halving.

Smooth exponentially decaying integrands go to integrate_halfline, which
applies the panels directly.  Endpoint-singular integrands u^{s-1} g(u)
go to integrate_singular_log, whose substitution u = e^v turns the
oscillatory algebraic singularity into a pure Fourier mode times a smooth
envelope on a finite v-interval, summed in 80-bit extended precision.
Both report an a posteriori error from panel halving plus an explicit
bound for the discarded tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
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

# Hard ceiling on panels * nodes_per_panel after all refinement.
NODE_BUDGET = 400_000


@dataclass(frozen=True)
class QuadratureSpec:
    """Subdivision and tail handling for one half-line integral."""

    panels: int = 64
    nodes_per_panel: int = 12
    tail_cutoff: float = 40.0
    target_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.panels < 1 or self.nodes_per_panel < 2:
            raise DomainError("need panels >= 1 and nodes_per_panel >= 2")
        if not (self.tail_cutoff > 0.0 and math.isfinite(self.tail_cutoff)):
            raise DomainError("tail_cutoff must be positive and finite")
        if not (self.target_tol > 0.0):
            raise DomainError("target_tol must be positive")
        if self.panels * self.nodes_per_panel > NODE_BUDGET:
            raise DomainError("requested node count exceeds the budget")


class QuadResult(NamedTuple):
    value: complex
    error: float
    tail_bound: float
    panels_used: int

    def __complex__(self) -> complex:
        return self.value


def tail_cutoff_for(rate: float, target_tol: float, scale: float = 1.0) -> float:
    """Cutoff T with scale * e^{-rate*T} <= target_tol / 10."""
    if rate <= 0.0:
        raise DomainError("decay rate must be positive")
    return max(1.0, math.log(10.0 * max(scale, target_tol) / target_tol) / rate)


def default_spec(*, tail_cutoff: float = 40.0, target_tol: float = 1e-10) -> QuadratureSpec:
    """Starting subdivision of about one order-12 panel per unit of u.

    integrate_singular_log raises the panel count further with the
    oscillation frequency Im s of its integrand.
    """
    return QuadratureSpec(
        panels=max(16, int(math.ceil(tail_cutoff))),
        nodes_per_panel=12,
        tail_cutoff=tail_cutoff,
        target_tol=target_tol,
    )


@lru_cache(maxsize=32)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _legendre_pair(x: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, order + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = order * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


@lru_cache(maxsize=32)
def _gauss_rule_extended(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule refined to 80-bit node placement.

    The double-precision nodes carry ~1 ulp placement error, which for an
    integrand with derivative ~|t| times its magnitude leaves an absolute
    floor near |t|*eps*mass.  Two Newton steps on the Legendre recurrence
    remove it.
    """
    x = _gauss_rule(order)[0].astype(np.longdouble)
    for _ in range(2):
        p, dp = _legendre_pair(x, order)
        x = x - p / dp
    _, dp = _legendre_pair(x, order)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


def _eval(f: Callable, u: np.ndarray) -> np.ndarray:
    """Evaluate f on an array, falling back to a Python loop for scalar-only f."""
    try:
        out = np.asarray(f(u))
        if out.shape == u.shape:
            if out.dtype in (np.clongdouble, np.longdouble):
                return out.astype(np.clongdouble, copy=False)
            return out.astype(complex, copy=False)
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(float(v))) for v in u], dtype=complex)


def _gauss_panels(
    a: float, b: float, panels: int, order: int, extended: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, order points on each of panels
    equal panels of [a, b]; extended=True builds them in longdouble from the
    80-bit rule of _gauss_rule_extended."""
    if extended:
        x, w = _gauss_rule_extended(order)
        edges = np.linspace(np.longdouble(a), np.longdouble(b), panels + 1)
    else:
        x, w = _gauss_rule(order)
        edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    return nodes, np.tile(half * w, panels)


def _panel_sum(
    f: Callable, a: float, b: float, panels: int, order: int, extended: bool = False
) -> complex:
    nodes, weights = _gauss_panels(a, b, panels, order, extended)
    vals = _eval(f, nodes)
    if vals.dtype == np.clongdouble:
        return complex(np.sum(vals * weights))
    vals = vals * weights
    # Compensated final reduction: the oscillatory integrands cancel to
    # near the rounding floor and pairwise summation noise would show up
    # in the tightest downstream tolerances.
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def _refine(
    f: Callable, a: float, b: float, spec: QuadratureSpec, extended: bool = False
) -> tuple[complex, float, int]:
    order = spec.nodes_per_panel
    panels = spec.panels
    coarse = _panel_sum(f, a, b, panels, order, extended)
    err = math.inf
    while True:
        if 2 * panels * order > NODE_BUDGET:
            raise NonConvergenceError(
                f"panel halving hit the node budget with error estimate {err:.3g}"
            )
        fine = _panel_sum(f, a, b, 2 * panels, order, extended)
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


def _log_lower_cut(target_tol: float, sigma: float) -> float:
    # Envelope on the v-line is bounded by C e^{sigma v}; this cut keeps
    # the discarded (-inf, v_lo] mass below target_tol/10 for C up to ~100.
    return (math.log(target_tol) - math.log(10.0)) / sigma - 6.0


def integrate_halfline(f: Callable, spec: QuadratureSpec) -> QuadResult:
    """Integrate f over (0, infinity) under the given spec.

    f must be smooth on [0, tail_cutoff]; endpoint-singular integrands
    belong to integrate_singular_log.  The value carries an a posteriori
    error estimate from panel halving and an explicit tail bound for the
    mass beyond tail_cutoff.  Raises NonConvergenceError if halving cannot
    reach target_tol inside the node budget.
    """
    tail = _geometric_tail_bound(f, spec.tail_cutoff)
    value, err, used = _refine(f, 0.0, spec.tail_cutoff, spec)
    return QuadResult(value, err + tail, tail, used)


def integrate_singular_log(f: Callable, s: complex, spec: QuadratureSpec) -> QuadResult:
    """Integrate u^{s-1} f(u) over (0, infinity) via u = e^v.

    f is the bounded factor g(u) only; the u^{s-1} endpoint behaviour is
    handled analytically by the substitution, under which the integrand
    becomes e^{s v} g(e^v): a pure Fourier mode in v times a smooth
    envelope.  Requires Re s > 0 for integrability at the endpoint.  The
    halving starts from at least enough panels for each order-12 panel to
    see about 6 radians of that mode's phase, |Im s| (v_hi - v_lo) / 6.
    """
    z = complex(s)
    sigma = z.real
    if sigma <= 0.0:
        raise DomainError("integrate_singular_log requires Re s > 0")
    v_lo = _log_lower_cut(spec.target_tol, sigma)
    v_hi = math.log(spec.tail_cutoff)
    panels = max(spec.panels, int(math.ceil(abs(z.imag) * (v_hi - v_lo) / 6.0)))

    def transformed(v: np.ndarray) -> np.ndarray:
        vl = v.astype(np.longdouble)
        # Envelope, phase, and abscissas at 80 bits: near an eta zero the
        # integral cancels to ~1e-16 of the term mass, beyond what
        # double-precision node values can resolve.  Integrands written
        # with numpy ufuncs inherit the extended precision.
        g = _eval(f, np.exp(vl)).astype(np.clongdouble)
        envelope = np.exp(np.longdouble(sigma) * vl)
        phase = np.longdouble(z.imag) * vl
        return envelope * (np.cos(phase) + 1j * np.sin(phase)) * g

    start = replace(spec, panels=panels)
    value, err, used = _refine(transformed, v_lo, v_hi, start, extended=True)

    def weighted(u: np.ndarray) -> np.ndarray:
        return u ** (z - 1.0) * _eval(f, u)

    tail = _geometric_tail_bound(weighted, spec.tail_cutoff)
    u_lo = math.exp(v_lo)
    head = abs(complex(_eval(f, np.array([u_lo]))[0])) * u_lo**sigma / sigma
    return QuadResult(value, err + tail + head, tail + head, used)
