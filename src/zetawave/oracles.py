"""Brute-force reference implementations for the verification suites.

Deliberately different algorithms from the production modules: raw
alternating partial sums instead of binomial acceleration, iterated
averaging level by level instead of binomial weights, composite
Simpson instead of adaptive Gauss panels, finite differences instead of
closed-form eigen-identities.  Agreement between the two families is
evidence rather than tautology; none of this is fast enough for
production use and none of it is imported by the production modules.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, StepSizeError
from .specfun import chi
from .waveform import phi_s

__all__ = [
    "eta_naive",
    "euler_naive",
    "apply_number_operator",
    "apply_bk_operator",
    "quad_naive",
]


def eta_naive(s: complex, terms: int = 200_000) -> complex:
    """Raw alternating sum for eta with one averaging step at the end.

    Returns the mean of the last two partial sums, which cancels the
    leading tail oscillation; the remaining error is about
    |s| terms^{-(sigma+1)} / 4.  Requires sigma > 0 and an even number of
    terms (so the average straddles one sign pair).
    """
    z = complex(s)
    if z.real <= 0.0:
        raise DomainError("raw series needs Re s > 0")
    if terms < 2 or terms % 2 != 0:
        raise DomainError("terms must be even and at least 2")
    m = np.arange(terms)
    a = np.exp(-z * np.log1p(m))
    a[1::2] *= -1.0
    total = complex(np.sum(a))
    return total - complex(a[-1]) / 2.0


def euler_naive(terms) -> tuple[complex, float]:
    """Euler transformation by literal iterated averaging of partial sums.

    Averages neighbouring partial sums level by level, O(N^2), until one
    value is left.  Returns it with the magnitude of the last correction
    (the final value minus the last entry of the level before; 0 for a
    single term).  The reference for the weighted transforms of the
    production modules.
    """
    row = np.cumsum(np.asarray(terms, dtype=complex))
    if row.size == 0:
        raise DomainError("need at least one term")
    value = complex(row[-1])
    change = 0.0
    while row.size > 1:
        row = 0.5 * (row[:-1] + row[1:])
        change = abs(complex(row[-1]) - value)
        value = complex(row[-1])
    return value, change


def apply_number_operator(n: int, y: float, h: float = 1e-4) -> float:
    """Finite-difference application of the half-line number operator.

    Computes [-(1/2)(y chi'' + (y chi)'') + (y/4 - 1/2) chi] / chi at y
    with central second differences on chi and on the product y chi,
    then one Richardson step combining h and h/2.  The exact ratio is n.
    """
    if n < 0 or n != int(n):
        raise DomainError("n must be a nonnegative integer")
    if h <= 0.0 or y <= 2.0 * h:
        raise DomainError("need y > 2h > 0")
    base = float(chi(n, y))
    if abs(base) < 1e-6:
        raise StepSizeError(
            f"y = {y:g} is too close to a node of the level-{n} eigenfunction"
        )

    def estimate(step: float) -> float:
        ym, yp = y - step, y + step
        cm = float(chi(n, ym))
        cp = float(chi(n, yp))
        d2_chi = (cp - 2.0 * base + cm) / (step * step)
        d2_ychi = (yp * cp - 2.0 * y * base + ym * cm) / (step * step)
        val = -0.5 * (y * d2_chi + d2_ychi) + (0.25 * y - 0.5) * base
        return val / base

    e1 = estimate(h)
    e2 = estimate(0.5 * h)
    return (4.0 * e2 - e1) / 3.0


def apply_bk_operator(s: complex, x: float, h: float = 1e-4) -> complex:
    """Finite-difference application of the symmetrized dilation generator.

    Computes -i (x phi'/phi + 1/2) on the generalized eigenfunction by
    central differences with one Richardson step; the exact value is
    i (s - 1/2).  Raises StepSizeError when the two difference levels
    disagree by more than 1e-5, which signals that h is too coarse for
    the local oscillation of phi.
    """
    z = complex(s)
    if h <= 0.0 or x <= 2.0 * h:
        raise DomainError("need x > 2h > 0")
    p0 = phi_s(x, z)

    def estimate(step: float) -> complex:
        d = (phi_s(x + step, z) - phi_s(x - step, z)) / (2.0 * step)
        return -1j * (x * d / p0 + 0.5)

    e1 = estimate(h)
    e2 = estimate(0.5 * h)
    if abs(e2 - e1) > 1e-5:
        raise StepSizeError(
            f"difference levels disagree by {abs(e2 - e1):.3g}; shrink h"
        )
    return (4.0 * e2 - e1) / 3.0


def quad_naive(f, a: float, b: float, panels: int = 4096):
    """Composite Simpson rule on a finite interval.

    Evaluates f on the 2*panels + 1 uniform nodes, vectorized when f
    accepts arrays.  Returns float or complex according to the values.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise DomainError("need finite a < b")
    if panels < 1:
        raise DomainError("need at least one panel")
    x = np.linspace(a, b, 2 * panels + 1)
    try:
        vals = np.asarray(f(x))
        if vals.shape != x.shape:
            raise TypeError
    except TypeError:
        vals = np.array([f(float(v)) for v in x])
    w = np.ones(x.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (b - a) / (2.0 * panels)
    total = (w * vals).sum() * (h / 3.0)
    return complex(total) if np.iscomplexobj(vals) else float(total)
