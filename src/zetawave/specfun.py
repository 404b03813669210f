"""Special functions for the critical strip, in plain double precision.

Everything is hand-rolled on top of numpy so each piece has a known,
separately testable error budget: a Lanczos gamma, Laguerre recurrences and
their exponentially weighted cousins, the modified Bessel function I0, and
the Dirichlet eta / zeta pair evaluated through a globally convergent
binomial double sum.  No arbitrary-precision arithmetic anywhere; the
contract region is sigma in [-2, 3], |t| <= 60.

Every alternating sum runs on one kernel, the Bin(n, 1/2) weights of
_binomial_weights: Euler's transform of sum_k (-1)^k a_k regroups exactly
into the weighted sum derived in eta_grid, and the iterated averaging of
waveform._euler_accelerated is the same identity on partial sums.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, OverflowRangeError

__all__ = [
    "SpectralParameter",
    "TruncationPolicy",
    "critical_point",
    "gamma_complex",
    "laguerre",
    "chi",
    "bessel_i0",
    "bessel_i0_scaled",
    "eta",
    "eta_grid",
    "zeta",
    "xi_aux",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class SpectralParameter:
    """Spectral point s = sigma + i t.

    Critical-line scans fix sigma = 1/2 exactly; the numerical contracts of
    this module are calibrated for sigma in [-2, 3] and |t| <= 60.
    """

    sigma: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise DomainError("spectral parameter must be finite")

    @property
    def value(self) -> complex:
        return complex(self.sigma, self.t)

    @classmethod
    def from_complex(cls, s: complex) -> "SpectralParameter":
        s = complex(s)
        return cls(s.real, s.imag)


@dataclass(frozen=True)
class TruncationPolicy:
    """Cutoff rules shared by every infinite sum in the package."""

    max_terms: int = 400
    abs_tol: float = 1e-12
    rel_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise DomainError("tolerances must be nonnegative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise DomainError("at least one tolerance must be positive")

    def converged(self, last_term: float, accumulated: float) -> bool:
        return last_term <= self.abs_tol + self.rel_tol * abs(accumulated)


def critical_point(t: float) -> complex:
    """s = 1/2 + i t."""
    return complex(0.5, t)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 607/128 with 15 coefficients (Godfrey's set).
# Order exceeds 13, uniform ~1e-14 relative accuracy for Re z >= 1/2;
# reflection covers the rest of the strip.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def gamma_complex(s: complex) -> complex:
    """Gamma function of a complex argument.

    Relative error is below 1e-12 for |Im s| <= 60 and -2 <= Re s <= 3
    (validated against an independent Euler-product oracle).  Nonpositive
    integers raise DomainError; results outside double range raise
    OverflowRangeError.
    """
    z = complex(s)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise DomainError(f"gamma pole at s = {z.real:g}")
    if z.real < 0.5:
        # Reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z).  |sin(pi z)|
        # grows like e^{pi |Im z|}/2, safe up to |Im z| ~ 225.
        sin_piz = cmath.sin(cmath.pi * z)
        if not (math.isfinite(sin_piz.real) and math.isfinite(sin_piz.imag)):
            raise OverflowRangeError("reflection factor overflows at this height")
        return cmath.pi / (sin_piz * gamma_complex(1.0 - z))
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z - 1.0 + k)
    w = z + _LANCZOS_G - 0.5
    log_gamma = (z - 0.5) * cmath.log(w) - w + 0.5 * math.log(2.0 * math.pi) + cmath.log(acc)
    if log_gamma.real > 709.0:
        raise OverflowRangeError("|Gamma(s)| exceeds double-precision range")
    return cmath.exp(log_gamma)


# ---------------------------------------------------------------------------
# Laguerre family
# ---------------------------------------------------------------------------


def laguerre(n: int, y):
    """Laguerre polynomial L_n(y) by the ascending three-term recurrence.

    Accepts a scalar or an ndarray for y.  The recurrence
    (m+1) L_{m+1} = (2m+1-y) L_m - m L_{m-1} is forward stable for the
    half-line arguments used here.
    """
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    prev = np.ones_like(arr)
    if n == 0:
        return float(prev[0]) if scalar else prev
    cur = 1.0 - arr
    for m in range(1, n):
        prev, cur = cur, ((2.0 * m + 1.0 - arr) * cur - m * prev) / (m + 1.0)
    return float(cur[0]) if scalar else cur


def chi(n: int, y):
    """Weighted Laguerre function chi_n(y) = e^{-y/2} L_n(y).

    The weight is folded into the seed of the recurrence, so every
    intermediate is bounded by 1 in magnitude and large y underflows
    gracefully instead of overflowing.
    """
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("chi is defined on the half-line y >= 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    prev = np.exp(-0.5 * arr)
    if n == 0:
        return float(prev[0]) if scalar else prev
    cur = (1.0 - arr) * prev
    for m in range(1, n):
        prev, cur = cur, ((2.0 * m + 1.0 - arr) * cur - m * prev) / (m + 1.0)
    return float(cur[0]) if scalar else cur


# ---------------------------------------------------------------------------
# Modified Bessel I0
# ---------------------------------------------------------------------------

_I0_SPLIT = 18.0


def _i0e_series(z: np.ndarray) -> np.ndarray:
    # exp(-z) * ascending series; all terms positive, no cancellation.
    acc = np.ones_like(z)
    term = np.ones_like(z)
    q = 0.25 * z * z
    for k in range(1, 60):
        term = term * q / (k * k)
        acc += term
        if np.all(term <= 1e-17 * acc):
            break
    return acc * np.exp(-z)


def _i0e_asym(z: np.ndarray) -> np.ndarray:
    # Asymptotic expansion of e^{-z} I0(z); optimal truncation leaves a
    # relative error ~e^{-2z}, below 3e-16 at the z = 18 handover.
    acc = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(1, 40):
        factor = (2.0 * k - 1.0) ** 2 / (8.0 * k)
        new = term * factor / z
        if np.all(np.abs(new) >= np.abs(term)):
            break
        term = new
        acc += term
        if np.all(np.abs(term) <= 1e-17 * acc):
            break
    return acc / np.sqrt(2.0 * math.pi * z)


def bessel_i0_scaled(z):
    """e^{-z} I0(z) for real z >= 0; bounded by 1, never overflows."""
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("bessel_i0_scaled requires z >= 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = arr <= _I0_SPLIT
    if np.any(small):
        out[small] = _i0e_series(arr[small])
    if np.any(~small):
        out[~small] = _i0e_asym(arr[~small])
    return float(out[0]) if scalar else out


def bessel_i0(z):
    """Modified Bessel function I0(z), real z >= 0.

    Relative error below 1e-13 for z <= 700.  Beyond z ~ 709 the value
    exceeds double range and OverflowRangeError is raised; callers that
    only need ratios should use bessel_i0_scaled.
    """
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("bessel_i0 requires z >= 0")
    if np.any(arr > 709.0):
        raise OverflowRangeError("I0(z) overflows for z > 709; use bessel_i0_scaled")
    scaled = bessel_i0_scaled(arr)
    return scaled * np.exp(arr) if isinstance(scaled, np.ndarray) else scaled * math.exp(arr)


# ---------------------------------------------------------------------------
# Dirichlet eta / zeta / the auxiliary combination
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=24)
def _binomial_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Bin(n, 1/2) probabilities p_j and tails P(Bin(n, 1/2) >= j).

    log p_j is accumulated outward from the mode, then normalized by the
    sum (2^{-n} underflows past n = 1074); the tails sum from the top.
    O(n), built on first use; at most 24 sizes are kept.
    """
    if n < 0:
        raise DomainError("binomial weights need n >= 0")
    ratio = np.log((n - np.arange(n)) / np.arange(1.0, n + 1.0))  # log C(n, j+1) / C(n, j)
    mode = n // 2
    log_p = np.zeros(n + 1)
    log_p[mode + 1 :] = np.cumsum(ratio[mode:])
    log_p[:mode] = -np.cumsum(ratio[:mode][::-1])[::-1]
    p = np.exp(log_p)
    p /= p.sum()
    tail = np.cumsum(p[::-1])[::-1]
    p.setflags(write=False)
    tail.setflags(write=False)
    return p, tail


def _eta_depth(s: np.ndarray) -> int:
    # Depth calibrated against extended-precision references over
    # sigma in [-2, 3], |t| <= 60; worst observed error ~5e-13.  A batch
    # takes its deepest point.
    depth = 64 + np.ceil(2.3 * np.abs(s.imag)) + np.where(s.real < 0.5, 16, 0)
    return int(min(np.max(depth), 420))


# Levels summed before weighting left of the critical line: (k+1)^{-s} is a
# polynomial of degree <= 2 in k at s = 0, -1, -2, so its third differences
# vanish exactly there, and near there they are far smaller than the terms.
_HEAD_LEVELS = 3


def _eta_sums(s_values, derivative: bool = False) -> tuple:
    """eta on a batch, and d eta / ds if asked (else None).

    With a_k = (k+1)^{-s} and (nabla a)_k = a_k - a_{k+1} the truncated
    double sum is sum_{m<=D} 2^{-(m+1)} (nabla^m a)_0.  If a point has
    sigma < 1/2, the first h = _HEAD_LEVELS levels are summed as they stand
    and the rest is the same sum at depth D - h on b = nabla^h a; h = 0
    gives the weight form of eta_grid.  One product yields the value and
    the levels m = D-5 .. D for the settle check; the derivative
    -sum_k (-1)^k w_k log(k+1) a_k is taken before the differencing.
    """
    arr = np.asarray(list(s_values), dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("eta requires finite s")
    if arr.size == 0:
        return arr, (arr if derivative else None)
    depth = _eta_depth(arr)
    base = np.arange(1.0, depth + 2.0)
    signs = np.where(np.arange(depth + 1) % 2 == 0, 1.0, -1.0)
    # (k+1)^{-s} built in place, the modulus by a real power (exact
    # integers at integer s); a batch on one vertical line, such as a scan
    # grid, needs only one row of moduli
    terms = np.empty((arr.size, depth + 1), dtype=complex)
    phase = terms.imag
    np.multiply.outer(-arr.imag, np.log(base), out=phase)
    np.cos(phase, out=terms.real)
    np.sin(phase, out=phase)
    one_line = np.all(arr.real == arr.real[0])
    terms *= np.power(base, -(arr.real[0] if one_line else arr.real[:, None]))
    deriv = None
    if derivative:
        deriv = terms @ (-np.log(base) * signs * _binomial_weights(depth + 1)[1][1:])
    head = _HEAD_LEVELS if np.any(arr.real < 0.5) else 0
    for level in range(head):
        terms[:, level + 1 :] = terms[:, level:-1] - terms[:, level + 1 :]
    # rows now (nabla^m a)_0 for m < h, then b_0 .. b_{D-h}; weight columns:
    # the value, then the levels m = D-5 .. D
    weights = np.zeros((depth + 1, 7))
    weights[:head, 0] = 0.5 ** np.arange(1, head + 1)
    weights[head:, 0] = 0.5**head * _binomial_weights(depth + 1 - head)[1][1:]
    for col, m in enumerate(range(depth - 5, depth + 1), start=1):
        weights[head : m + 1, col] = 0.5 ** (head + 1) * _binomial_weights(m - head)[0]
    weights[head:] *= signs[: depth + 1 - head, None]
    sums = terms @ weights
    # The levels decay geometrically until they hit the rounding floor of
    # the binomial inner products; by the calibrated depth the remaining
    # tail is negligible unless something is badly off.
    if not np.all(np.min(np.abs(sums[:, 1:]), axis=1) <= 1e-10 * (1.0 + np.abs(sums[:, 0]))):
        raise NonConvergenceError("eta double sum did not settle at calibrated depth")
    return sums[:, 0], deriv


def eta(s: complex) -> complex:
    """Dirichlet eta function, eta_grid([s])[0].

    Relative error <= 1e-10 on the contract region (sigma in [-2, 3],
    |t| <= 60); accuracy degrades gracefully outside.  Non-finite s raises
    DomainError.
    """
    return complex(eta_grid([complex(s)])[0])


def eta_grid(s_values) -> np.ndarray:
    """Dirichlet eta on a batch of points through one weighted sum.

    The globally convergent double sum
    eta(s) = sum_{m>=0} 2^{-(m+1)} sum_{k<=m} (-1)^k C(m,k) (k+1)^{-s},
    truncated at the calibrated depth D (the largest of the batch), regroups
    into sum_{k<=D} (-1)^k w_k (k+1)^{-s} with
    w_k = sum_{m=k}^{D} 2^{-(m+1)} C(m,k) = P(Bin(D+1, 1/2) >= k+1), since
    2^{-(m+1)} C(m,k) is the chance that the (k+1)-th head of a fair coin
    comes on toss m+1.  This is Euler's transform as a weight vector (Cohen,
    Rodriguez Villegas and Zagier, Experiment. Math. 9, 2000): O(D) per
    point and one matrix product per batch (a batch with sigma < 1/2 first
    splits off three levels, see _eta_sums).  Raises NonConvergenceError
    when none of the last six levels of the double sum settled below
    1e-10 (1 + |eta|).
    """
    return _eta_sums(s_values)[0]


def _eta_factor(s: complex) -> complex:
    return 1.0 - 2.0 ** (1.0 - s)


def _guard_eta_factor(s: complex, name: str) -> complex:
    """Denominator 1 - 2^{1-s} with pole and guard-region checks.

    The factor vanishes on the line sigma = 1 at t = 2 pi k / ln 2.  The
    k = 0 point is the genuine zeta pole; the k != 0 points are removable
    for zeta but are excluded by a guard radius instead of taking limits,
    since no critical-line scan ever lands there.
    """
    z = complex(s)
    if abs(z - 1.0) < 1e-8:
        raise DomainError(f"{name} pole at s = 1")
    k = round(z.imag * LN2 / (2.0 * math.pi))
    if k != 0:
        spur = complex(1.0, 2.0 * math.pi * k / LN2)
        if abs(z - spur) < 1e-3:
            raise DomainError(
                f"{name} guard: s within 1e-3 of the removable point 1 + 2*pi*{k}i/ln2; "
                "evaluate eta directly instead"
            )
    return _eta_factor(z)


def zeta(s: complex) -> complex:
    """Riemann zeta via eta: zeta(s) = eta(s) / (1 - 2^{1-s}).

    Raises DomainError at the s = 1 pole and inside a 1e-3 guard radius
    around the other zeros of the denominator (removable points that
    never occur on the critical line).
    """
    z = complex(s)
    den = _guard_eta_factor(z, "zeta")
    return eta(z) / den


def xi_aux(s: complex) -> complex:
    """Auxiliary combination zeta(s) - 2 (1 - 2^{2-s}) zeta(s-1) / (1 - 2^{1-s}).

    Evaluated as (eta(s) - 2 eta(s-1)) / (1 - 2^{1-s}), which is the same
    meromorphic function written without the zeta(s-1) detour.  In this
    form the would-be cancellation point at s = 2 is manifestly regular
    and the analytic limit value zeta(2) - 4 ln 2 comes out automatically;
    the only true poles are the zeros of 1 - 2^{1-s}.
    """
    z = complex(s)
    den = _guard_eta_factor(z, "xi_aux")
    return (eta(z) - 2.0 * eta(z - 1.0)) / den
