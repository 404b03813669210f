"""Wave-function chain on the half-line.

Generalized dilation eigenfunctions, the squeeze action, squeezed-basis
overlaps, the Mehler kernel in closed and series form, the full
position-space wave function, the boundary integral with its large-squeeze
limit, and the confined one-dimensional profile.

The boundary value takes its route by the transverse argument Y = e^lam y
(original variant) or e^-lam y (tilde).  Up to Y = 356 it is the level
sum varphi_zero(s) sum_m A_m chi_m(Y) (m+1)^{-s} over the bare overlaps
A_m (_bare_overlaps), summed by eta's kernel with relative accuracy at
every height; past it (or the row's depth cap, _row_depth) a quadrature
over the Mehler parameter u, whose inner integral is exact (_inner_profile).
Neither involves the spectral parameter, so batches of points share them.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, NonConvergenceError, OverflowRangeError
from .quad import _ORDER, _gauss_panels, integrate_singular_log, tail_cutoff_for
from .specfun import (
    _TINY,
    _binomial_weights,
    _complex_array,
    _complex_product,
    _eta_depth,
    _eta_sums,
    _laguerre_recurrence,
    _per_point,
    _serve_rest,
    bessel_i0_scaled,
    chi,
    eta,
    gamma_complex,
    laguerre,
)

__all__ = [
    "SqueezeParameter",
    "QuantumNumber",
    "WaveSample",
    "TildeExpansion",
    "MehlerSeriesResult",
    "ORIGINAL",
    "TILDE",
    "LIMIT",
    "phi_s",
    "squeeze_apply",
    "overlap_s1",
    "mehler_closed",
    "mehler_series",
    "varphi_zero",
    "psi_full",
    "psi_boundary",
    "psi_boundary_batch",
    "psi_boundary_limit",
    "phi_confined",
    "tilde_expansion_check",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
# principal log(-2i), the branch of varphi_zero's (-2i)^{1/2-s}
_LOG_MINUS_2I = complex(math.log(2.0), -0.5 * math.pi)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)

ORIGINAL = "original"
TILDE = "tilde"
LIMIT = "limit"
_VARIANTS = (ORIGINAL, TILDE, LIMIT)

# Original-variant boundary arguments scale like e^lambda * y; past this the
# Mehler exponent range is exhausted and the quadrature loses error control.
MAX_LAMBDA = 25.0

# Largest level index; work grows with n, and here a t = 10 boundary value at
# y > 0 takes ~0.3 s.
MAX_LEVEL = 10_000

# Absolute rounding floor of the outer oscillatory integral.  The integral
# itself is O(|Gamma(s)|), so the achievable accuracy on the eta-normalized
# scale degrades like e^{pi t / 2}; default tolerances sit above it.
_ABS_NOISE = 4e-16
# Default tolerance on that scale, (minimum, floor multiple); the level sum takes the minimum
_BOUNDARY_TOL_RULE = (1e-9, 30.0)
# Deepest level-sum row (_eta_depth's cap); a deeper _row_depth takes the quadrature
_LEVEL_DEPTH_CAP = 420
# Truncation of the level sum at its depth, relative to 1 + |value|: the
# depth rules' calibrated worst case (specfun._eta_depth, _row_depth)
_LEVEL_TRUNCATION = 5e-13
# Largest first-order term e^{-lam} (2n + 1 + y/2) of the tilde expansion
# (relative to its zero order) at which the expansion is taken: past it the
# remainder is not small against the term it corrects
_EXPANSION_REACH = 0.1


@dataclass(frozen=True)
class SqueezeParameter:
    """Dilation amount lambda, dimensionless, practical range [0, 40]."""

    lam: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam) or self.lam < 0.0:
            raise DomainError("squeeze parameter must be finite and nonnegative")
        if self.lam > 40.0:
            raise DomainError("squeeze parameter beyond the supported range [0, 40]")


@dataclass(frozen=True)
class QuantumNumber:
    """Level index n of the transverse number operator, 0 <= n <= MAX_LEVEL."""

    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_LEVEL or self.n != int(self.n):
            raise DomainError(f"quantum number must be an integer in [0, {MAX_LEVEL}]")


@dataclass(frozen=True)
class WaveSample:
    """One complex wave-function value with the parameters that made it.

    error is a diagnostic from the producing operation, on the scale it
    controlled: psi_boundary's eta-normalized one, the level sum's stated
    bound up to Y = 356 and the quadrature's estimate past it; psi_full's
    rounding bound on the value.
    """

    x: float
    y: float
    s: complex
    n: int
    lam: float
    value: complex
    variant: str
    error: float = 0.0

    def __post_init__(self) -> None:
        if self.x < 0.0 or self.y < 0.0:
            raise DomainError("wave samples live on the half-line: x, y >= 0")
        if self.variant not in _VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")


class TildeExpansion(NamedTuple):
    exact: complex
    zero_order: complex
    first_order: complex
    residual: float


class MehlerSeriesResult(NamedTuple):
    value: Union[float, np.ndarray]
    tail_bound: Union[float, np.ndarray]
    terms_used: int


# ---------------------------------------------------------------------------
# Eigenfunctions and the squeeze action
# ---------------------------------------------------------------------------


def phi_s(x, s: complex):
    """Generalized dilation eigenfunction x^{-s} / sqrt(2 pi), x > 0.

    Raises DomainError for non-finite x or s, and OverflowRangeError where
    |x^{-s}| = e^{Re(-s ln x)} passes the double range, for scalar and
    array x alike.  A scalar x (0-d arrays included) takes math and cmath
    on Python numbers, an array x numpy.
    """
    z = complex(s)
    scalar = isinstance(x, (float, int)) or np.ndim(x) == 0
    if scalar:
        x = float(x)
        finite, positive = math.isfinite(x), x > 0.0
    else:
        x = np.asarray(x, dtype=float)
        finite, positive = np.isfinite(x).all(), (x > 0.0).all()
    if not (cmath.isfinite(z) and finite):
        raise DomainError("phi_s needs finite x and s")
    if not positive:
        raise DomainError("phi_s is singular at x = 0; use varphi_zero for the boundary value")
    if scalar:
        exponent = -z * math.log(x)
        big = exponent.real > _LOG_DOUBLE_MAX
    else:
        exponent = -z * np.log(x)
        big = (exponent.real > _LOG_DOUBLE_MAX).any()
    if big:
        raise OverflowRangeError(f"|x^-s| exceeds double-precision range at s = {z}")
    return (cmath.exp(exponent) if scalar else np.exp(exponent)) / SQRT_2PI


def psi_full(x: float, y: float, s: complex, n: int, lam: float) -> WaveSample:
    """Position-space wave function off the boundary, phi_s(x) chi_n(y).

    In the level sum of A_m chi_m(e^lam y) (m+1)^{-s} phi_s(x/(m+1)) over m
    (oracles.psi_level_sum), each (m+1)^{-s} phi_s(x/(m+1)) is phi_s(x), and
    completeness sums the rest to chi_n(y).  lam does not enter, but lam <= 25
    is kept so x = 0 and x > 0 rows of one grid share the original variant's
    domain.  error is the rounding bound (|s ln x| + n + 2) 2^-52 |phi_s(x)|:
    phi_s carries the rounding of s ln x, and the chi_n recurrence, bounded
    by 1, adds about one unit per step (under 0.32 (n+1) for n <= 300).
    A value that is not a normal double (chi_n(y) underflows past its
    turning point 4n + 2, as at n = 0, y = 3000) raises OverflowRangeError,
    as the x = 0 rows do (psi_boundary_batch).  An exact zero of chi_n from
    a normal seed e^{-y/2} is a node, not an underflow (chi_1(1) = 0), and
    is returned as the value 0.
    """
    z = complex(s)
    p = SqueezeParameter(float(lam))
    if p.lam > MAX_LAMBDA:
        raise DomainError(f"psi_full supports lam <= {MAX_LAMBDA:g}")
    if not 0.0 < x < math.inf:
        raise DomainError("psi_full needs finite x > 0; the boundary value is psi_boundary")
    if not 0.0 <= y < math.inf:
        raise DomainError("y must be finite and >= 0")
    QuantumNumber(int(n))
    profile = phi_s(x, z)
    level = chi(int(n), y)
    value = profile * level
    node = level == 0.0 and math.exp(-0.5 * y) >= _TINY
    if not (node or _TINY <= abs(value) < math.inf):
        raise OverflowRangeError(
            f"|psi_full| = {abs(value):.3g} at x = {x:g}, y = {y:g}, s = {z} "
            "is not a normal double"
        )
    error = (abs(z * math.log(x)) + n + 2.0) * 2.0**-52 * abs(profile)
    return WaveSample(
        x=float(x), y=float(y), s=z, n=int(n), lam=p.lam,
        value=value, variant=ORIGINAL, error=error,
    )


def squeeze_apply(psi: Callable, lam: float) -> Callable:
    """Unitary squeeze: x maps to e^{-lam/2} psi(e^{-lam} x)."""
    p = SqueezeParameter(float(lam))
    amp = math.exp(-0.5 * p.lam)
    scale = math.exp(-p.lam)

    def squeezed(x):
        return amp * psi(scale * x)

    return squeezed


def _log_rho(lam: float) -> float:
    """ln tanh(lam/2), from lam = 1 on as -2 atanh(e^{-lam}): no log of a number near 1."""
    return math.log(math.tanh(0.5 * lam)) if lam < 1.0 else -2.0 * math.atanh(math.exp(-lam))


def _overlap_rounding(n: int, m, lam: float):
    """Rounding bound of _bare_overlaps(n, ., lam)[m] relative to the row's largest entry.

    4 (n |ln rho| + m + 1) 2^-52 for an int or array m: rho^n = e^{n ln rho}
    carries the rounding of n ln rho, and each step adds about one unit.
    Over 466 rows against mpmath's double sum (n <= 400, m <= 600, lam in
    [0.001, 24]) the worst level came to 1.09 of it without the factor 4.
    """
    if math.exp(-lam) == 1.0:
        return 0.0 * np.asarray(m)
    return 4.0 * (n * -_log_rho(lam) + np.asarray(m) + 1.0) * 2.0**-52


def _miller_top(n: int, m_max: int, grow: float, shrink: float, q: float) -> int:
    """Miller's start for _bare_overlaps: 40 of the roots' local log ratio past m_max.

    The ratio at level k is 2 acosh(x_k), x_k = |A_k's coefficient| /
    (2 q sqrt(k (k+1))) (at least 1); it tends to -2 ln rho but near n/eps
    is far smaller.  Returns the first k > m_max at which the running sum
    of the ratios from m_max + 1 reaches 40.  The levels go in numpy chunks
    that double in length, each summed by one cumsum carried over from the
    last: the same additions in the same order as one level at a time.
    """
    top, gap, size = m_max, 0.0, 64
    while True:
        k = np.arange(top + 1, top + size + 1)
        x = np.abs(grow * (k - n) - shrink * (2 * k + 1) + q * (2 * k + 1))
        steps = 2.0 * np.arccosh(np.maximum(1.0, x / (2.0 * q * np.sqrt(k * (k + 1.0)))))
        steps[0] += gap
        sums = np.cumsum(steps)
        past = np.flatnonzero(sums >= 40.0)
        if past.size:
            return top + 1 + int(past[0])
        top, gap, size = top + size, float(sums[-1]), 2 * size


def _bare_overlaps(n: int, m_max: int, lam: float) -> np.ndarray:
    """Half-line integrals A_m of chi_n(e^{-lam} y) chi_m(y) for m = 0..m_max.

    Their generating function 2 B^n / A^{n+1}, A = (1+eps) + t(1-eps),
    B = (1-eps) + t(1+eps), eps = e^{-lam}, solves
    A B G' = [n(1+eps) A - (n+1)(1-eps) B] G, so with q = 1 - eps^2
    q(m+1) A_{m+1} = [n(1+eps)^2 - (n+1)(1-eps)^2 - 2(1+eps^2) m] A_m - q m A_{m-1}
    from A_0 = 2 rho^n/(1+eps), rho = (1-eps)/(1+eps) (Gautschi, SIAM Rev.
    9, 1967).  The wanted solution dominates below eps n, both roots have
    unit modulus up to n/eps, and past it the wanted one is minimal.  So
    n = 0 is the closed form 2 (-rho)^m/(1+eps); up to n/eps the recurrence
    runs forward on B_m = (-1)^m A_m and its steps D_m = B_m - B_{m-1},
    q(m+1) D_{m+1} = (4 eps^2 m - 4 n eps - 2 eps(1-eps)) B_m + q m D_m,
    whose O(eps) coefficients keep the digits the plain form lost where the
    roots crowd -1 (1e-12 by m = 300 at lam = 6); past n/eps the same steps
    run backward (Miller) from where the other solution is e^{-40} below,
    matched to the two last forward levels by least squares.  A
    power-of-two scale keeps rho^n and the growth in range.  An e^{-lam}
    that rounds to 1 gives the identity A_m = delta_{mn}.  A row whose
    _overlap_rounding at m_max passes 1e-10 raises NonConvergenceError.
    """
    m_count = m_max + 1
    eps = math.exp(-lam)
    if eps == 1.0:
        out = np.zeros(m_count)
        if n <= m_max:
            out[n] = 1.0
        return out
    bound = float(_overlap_rounding(n, m_max, lam))
    if not bound <= 1e-10:
        raise NonConvergenceError(f"bare overlaps of level {n} at lambda {lam:g} to m = {m_max}: "
                                  f"rounding bound {bound:.3g} of their largest entry exceeds 1e-10")
    one_minus = -math.expm1(-lam)
    ln_rho = _log_rho(lam)
    ln_start = math.log(2.0 / (1.0 + eps)) + n * ln_rho
    if n == 0:
        m = np.arange(m_count)
        return np.where(m % 2 == 0, 1.0, -1.0) * np.exp(ln_start + m * ln_rho)
    q = one_minus * (1.0 + eps)
    # D's coefficient as 4 eps (k - n) - 2 eps (1-eps)(2k + 1), which cancels
    # only where it is small itself; entries are values * 2^twos
    grow, shrink = 4.0 * eps, 2.0 * eps * one_minus
    last = m_max if m_max < n / eps else math.ceil(n / eps)
    values = np.empty(m_count)
    twos = np.empty(m_count, dtype=int)
    b, d, two = 1.0, 0.0, 0
    values[0], twos[0] = b, two
    for k in range(last):
        d = ((grow * (k - n) - shrink * (2 * k + 1)) * b + q * k * d) / (q * (k + 1))
        b += d
        if abs(b) > 2.0**300:
            b, d, two = math.ldexp(b, -300), math.ldexp(d, -300), two + 300
        values[k + 1], twos[k + 1] = b, two
    if last < m_max:
        match = slice(last - 1, last + 1)
        forward = np.ldexp(values[match], twos[match] - twos[last])
        two_forward = twos[last]
        top = _miller_top(n, m_max, grow, shrink, q)
        # D_k from D_{k+1}, B_{k-1} = B_k - D_k, from B_{top+1} = 0, B_top = 1
        b, d, two = 1.0, -1.0, 0
        for k in range(top, last - 1, -1):
            d = (q * (k + 1) * d - (grow * (k - n) - shrink * (2 * k + 1)) * b) / (q * k)
            b -= d
            if abs(b) > 2.0**300:
                b, d, two = math.ldexp(b, -300), math.ldexp(d, -300), two + 300
            if k <= m_count:
                values[k - 1], twos[k - 1] = b, two
        twos[last - 1 :] -= twos[last]
        backward = np.ldexp(values[match], twos[match])
        values[last - 1 :] *= (forward @ backward) / (backward @ backward)
        twos[last - 1 :] += two_forward
    values[1::2] *= -1.0
    # times e^{ln_start} = e^{frac} 2^{whole}: an entry underflows only if it is tiny
    whole = math.floor(ln_start / math.log(2.0))
    return np.ldexp(values * math.exp(ln_start - whole * math.log(2.0)), twos + whole)


def overlap_s1(m: int, n: int, lam: float, *, bare: bool = False) -> float:
    """Squeezed-basis overlap e^{-lam/2} times the chi_m / squeezed-chi_n integral.

    Computed by half-line quadrature.  With bare=True the e^{-lam/2}
    prefactor is dropped; the bare integral tends to 2 (-1)^m as lam
    grows, for every n.  m and n must be nonnegative integers, and the
    grid's nodes times max(m, n) + 1 recurrence orders at most
    _MAX_OVERLAP_ELEMENTS (m up to 571 where n <= m), checked before any work.
    """
    if not all(isinstance(k, (int, np.integer)) and k >= 0 for k in (m, n)):
        raise DomainError("m and n must be nonnegative integers")
    p = SqueezeParameter(float(lam))
    value = _quadrature_overlaps(m, n, (p.lam,))[0]
    if bare:
        return value
    return math.exp(-0.5 * p.lam) * value


# Most Gauss nodes times recurrence orders one overlap_s1 grid may take; the
# nodes grow like m, so the work grows like m^2 (at the limit, m = 571, one
# overlap takes about 0.06 s on a 2-CPU x86-64 box)
_MAX_OVERLAP_ELEMENTS = 2**24


def _quadrature_overlaps(m: int, n: int, lams) -> list:
    """overlap_s1(m, n, lam, bare=True) for each lam, on one Gauss grid with chi_m taken once.

    chi_m oscillates out to roughly 4m + 2 and only then starts its
    exponential tail, so the cutoff scales with the order.  Raises
    DomainError before any work past _MAX_OVERLAP_ELEMENTS.
    """
    cutoff = 4.0 * m + 2.0 + 6.0 * (m + 1.0) ** (1.0 / 3.0) + tail_cutoff_for(0.3, 1e-13)
    panels = max(32, int(cutoff))
    elements = panels * _ORDER * (max(m, n) + 1)
    if elements > _MAX_OVERLAP_ELEMENTS:
        raise DomainError(
            f"overlap of levels {m} and {n} takes {elements} grid elements, past the work "
            f"limit of {_MAX_OVERLAP_ELEMENTS}"
        )
    nodes, weights = _gauss_panels(0.0, cutoff, panels)
    chi_m = chi(m, nodes)
    return [float(np.dot(weights * chi(n, math.exp(-lam) * nodes), chi_m)) for lam in lams]


# ---------------------------------------------------------------------------
# Mehler kernel
# ---------------------------------------------------------------------------


def mehler_closed(y, yp, t):
    """Closed form of sum_m chi_m(y) chi_m(y') t^m for 0 <= t < 1.

    Computed as exp(b - a) * [e^{-b} I0(b)] / (1 - t) with
    a = ((y + y')/2)(1+t)/(1-t) and b = 2 sqrt(y y' t)/(1-t), so the only
    exponential ever taken has a nonpositive argument:
    a - b >= sqrt(y y') (1 - sqrt(t))^2 / (1 - t) >= 0.  Non-finite
    arguments raise DomainError.
    """
    ya = np.asarray(y, dtype=float)
    yb = np.asarray(yp, dtype=float)
    ta = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ya) & np.isfinite(yb) & (ya >= 0.0) & (yb >= 0.0)):
        raise DomainError("Mehler kernel needs finite y, y' >= 0")
    if not np.all((ta >= 0.0) & (ta < 1.0)):
        raise DomainError("Mehler kernel parameter must satisfy 0 <= t < 1")
    scalar = ya.ndim == 0 and yb.ndim == 0 and ta.ndim == 0
    one_minus = 1.0 - ta
    a = 0.5 * (ya + yb) * (1.0 + ta) / one_minus
    b = 2.0 * np.sqrt(ya * yb * ta) / one_minus
    out = np.exp(b - a) * bessel_i0_scaled(b) / one_minus
    return float(out) if scalar else out


_MAX_MEHLER_TERMS = 2**22


def mehler_series(
    y, yp, t, *, max_terms: int = 400, abs_tol: float = 1e-12
) -> MehlerSeriesResult:
    """Direct Laguerre-basis sum of the Mehler kernel with a tail bound.

    y, yp and t are scalars or arrays that broadcast together.  Scalar
    input gives float value and tail_bound; any array input gives arrays of
    the broadcast shape for both, each element bitwise equal to the scalar
    call with that element's arguments.  terms_used is the int max_terms
    either way.  One all-orders Laguerre recurrence runs over the distinct
    y and y' values and powers are built once per distinct t, so a grid
    costs one table, not one recurrence per point.

    The tail bound uses the half-line envelope |chi_m| <= 1, giving
    tail <= t^{M+1}/(1-t) after terms up to m = M.  Raises DomainError
    when any y or y' is negative or not finite or any t lies outside
    [0, 1), when max_terms < 1 or abs_tol is not positive, and before any
    work when points times max_terms exceed _MAX_MEHLER_TERMS (the
    longdouble terms would pass 64 MB).  Raises NonConvergenceError when
    the last included term of any element still exceeds abs_tol.
    """
    ya, yb, ta = np.broadcast_arrays(
        np.asarray(y, dtype=float), np.asarray(yp, dtype=float), np.asarray(t, dtype=float)
    )
    if not np.all(np.isfinite(ya) & np.isfinite(yb) & (ya >= 0.0) & (yb >= 0.0)):
        raise DomainError("need finite y, y' >= 0")
    if not np.all((ta >= 0.0) & (ta < 1.0)):
        raise DomainError("need 0 <= t < 1")
    if max_terms < 1:
        raise DomainError("max_terms must be at least 1")
    if not abs_tol > 0.0:
        raise DomainError("abs_tol must be positive")
    m_max = max_terms - 1
    if ya.size * (m_max + 1) > _MAX_MEHLER_TERMS:
        raise DomainError(
            f"Mehler series of {ya.size} points x {m_max + 1} terms exceeds the work "
            f"limit of {_MAX_MEHLER_TERMS} terms"
        )
    # Extended precision: at widely separated y, y' the sum cancels about
    # eight digits below its largest term, which double-precision terms
    # cannot support at the contracted relative accuracy.
    args, arg_index = np.unique(np.concatenate([ya.ravel(), yb.ravel()]), return_inverse=True)
    args = args.astype(np.longdouble)
    # orders along the contiguous axis: each element's terms are summed in
    # the same pairwise order as a single row
    table = _laguerre_recurrence(m_max, args, np.exp(-0.5 * args), all_orders=True).T.copy()
    t_values, t_index = np.unique(ta.ravel(), return_inverse=True)
    powers = t_values.astype(np.longdouble)[:, None] ** np.arange(m_max + 1)
    size = ya.size
    terms = table[arg_index[:size]] * table[arg_index[size:]] * powers[t_index]
    values = np.sum(terms, axis=1).astype(float)
    lasts = np.abs(terms[:, -1].astype(float))
    converged = lasts <= abs_tol
    if not np.all(converged):
        last = float(lasts[np.argmin(converged)])
        raise NonConvergenceError(
            f"Mehler series term still {last:.3g} after {m_max + 1} terms"
        )
    tails = (powers[:, -1] * t_values / (1.0 - t_values)).astype(float)[t_index]
    if ya.ndim == 0:
        return MehlerSeriesResult(float(values[0]), float(tails[0]), m_max + 1)
    return MehlerSeriesResult(values.reshape(ya.shape), tails.reshape(ya.shape), m_max + 1)


# ---------------------------------------------------------------------------
# Rotated-profile boundary value
# ---------------------------------------------------------------------------


def varphi_zero(s):
    """Boundary value of the rotated eigenfunction, at one point or a 1-D array.

    Gamma(1-s) (-2i)^{1/2-s} / sqrt(2 pi) with the principal branch
    (-2i)^{1/2-s} = exp[(1/2-s)(ln 2 - i pi/2)]; continuous along the
    critical line and nonvanishing wherever Gamma(1-s) is finite.  On the
    line its modulus falls like e^{-pi t}: from t ~ 226 it is no longer a
    normal double (a subnormal keeps too few digits, and from t ~ 237 it
    is 0), and OverflowRangeError is raised instead, as it is for a factor
    or a value past the double range.

    A 1-D ndarray is bitwise the scalar calls in order, errors included:
    one gamma_complex array call and the scalar route's float operations on
    arrays (see specfun._lanczos_rows), with cmath.exp per point.
    """
    if isinstance(s, np.ndarray) and s.ndim == 1:
        return _varphi_zero_rows(s.astype(complex))
    z = complex(s)
    gamma = gamma_complex(1.0 - z)
    try:
        branch = cmath.exp((0.5 - z) * _LOG_MINUS_2I)
    except OverflowError:
        message = f"|(-2i)^(1/2-s)| exceeds double-precision range at s = {z}"
        raise OverflowRangeError(message) from None
    value = gamma * branch / SQRT_2PI
    magnitude = abs(value)
    if magnitude < _TINY:
        raise OverflowRangeError(f"|varphi_zero(s)| falls below double-precision range at s = {z}")
    if not magnitude < math.inf:
        raise OverflowRangeError(f"|varphi_zero(s)| exceeds double-precision range at s = {z}")
    return value


def _varphi_zero_rows(z: np.ndarray) -> np.ndarray:
    """varphi_zero on a 1-D complex array, bitwise the scalar calls in order.

    The scalar route's operations on real and imaginary parts (1.0 - z and
    0.5 - z as (1.0 - x, 0.0 - y), products as _Py_c_prod, the division by
    sqrt(2 pi) as Smith's quotient by (sqrt(2 pi), 0.0)); points whose
    exponential could overflow, or whose value is not plainly normal, take
    the scalar route.  If Gamma(1-s) fails at some point, the whole array
    takes the scalar loop, whose first error may come from an earlier point.
    """
    x, y = z.real, z.imag
    try:
        gamma = gamma_complex(_complex_array(1.0 - x, 0.0 - y))
    except (DomainError, OverflowRangeError):
        return np.array([varphi_zero(p) for p in z.tolist()], dtype=complex)
    with np.errstate(all="ignore"):
        re, im = _complex_product(0.5 - x, 0.0 - y, _LOG_MINUS_2I.real, _LOG_MINUS_2I.imag)
        # exp(re) <= e^708 cannot overflow in cmath.exp
        served = (re <= 708.0) & np.isfinite(im)
        branch = _per_point(cmath.exp, re[served], im[served])
        re, im = _complex_product(gamma.real[served], gamma.imag[served], branch.real, branch.imag)
        # over (sqrt(2 pi), 0.0): ratio 0.0, denominator sqrt(2 pi)
        re, im = (re + im * 0.0) / SQRT_2PI, (im - re * 0.0) / SQRT_2PI
        # normal by either part: the modulus (hypot) is then normal too
        normal = (np.maximum(np.abs(re), np.abs(im)) >= _TINY) & np.isfinite(re) & np.isfinite(im)
    values = np.empty(z.size, dtype=complex)
    values[served] = _complex_array(re, im)
    served[served] = normal
    return _serve_rest(varphi_zero, z, values, served)


# ---------------------------------------------------------------------------
# Alternating-sum acceleration
# ---------------------------------------------------------------------------


def _euler_weights(count: int) -> np.ndarray:
    """Full iterated averaging of count = N terms as two weight columns.

    N-1 averagings of the partial sums S_j leave sum_j C(N-1, j) S_j / 2^{N-1}
    = sum_k u_k a_k, u_k = P(Bin(N-1, 1/2) >= k).  The last correction (the
    value minus the last entry of the level before; the value at N = 1) has
    its own bump b_k = -C(N-2, k-1) / 2^{N-1}, which keeps it at the rounding
    level of the terms, where a difference of two sums would not.
    """
    weights = np.ones((count, 2))
    weights[:, 0] = _binomial_weights(count - 1)[1]
    if count > 1:
        weights[:, 1] = np.append(0.0, -0.5 * _binomial_weights(count - 2)[0])
    return weights


def _euler_accelerated(terms: np.ndarray) -> tuple[complex, float]:
    """Iterated averaging of partial sums (Euler transformation).

    One weighted sum (_euler_weights); returns the value and the magnitude
    of the last correction, 0 for a single term.
    """
    value, change = np.asarray(terms, dtype=complex) @ _euler_weights(len(terms))
    return complex(value), abs(change) if len(terms) > 1 else 0.0


def _euler_accelerated_rows(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full iterated averaging along axis 1 for a batch of term rows."""
    sums = np.asarray(terms, dtype=complex) @ _euler_weights(np.shape(terms)[1])
    return sums[:, 0], np.abs(sums[:, 1])


# ---------------------------------------------------------------------------
# Boundary integral
# ---------------------------------------------------------------------------

def _inner_profile(u: np.ndarray, Y: float, lam: float, n: int) -> np.ndarray:
    """Inner transverse integral, without the 1/(1-t) factor, per outer node.

    The integral of chi_n(eps y') e^{-(c/2)(Y+y')} I0(2 sqrt(Y y' t)/(1-t))
    over y' > 0, with t = e^{-u}, c = (1+t)/(1-t), eps = e^{-lam}, is
    exp(-Y((1-t) + eps(1+t))/(2 d1)) (2(1-t)/d1) (d2/d1)^n L_n(4 eps Y t/(d1 d2)),
    d1 = (1+eps) + t(1-eps), d2 = (1-eps) + t(1+eps).  Derivation: the
    integral of e^{-q x} I0(2 b sqrt(x)) over x > 0 is e^{b^2/q}/q (termwise
    from the I0 series); under sum_n L_n(a x) z^n = e^{-a x z/(1-z)}/(1-z)
    it sums to e^{b^2/q}/(q(1-z)), q = p + a z/(1-z), whose z^n coefficient
    is (e^{b^2/p}/p) ((p-a)/p)^n L_n(a b^2/(p(p-a))); here a = eps,
    b^2 = Y t/(1-t)^2, p = (eps + c)/2 = d1/(2(1-t)), p - a = d2/(2(1-t)).
    1-t and 1-eps come from expm1, so every factor is a sum of positive
    terms and nothing cancels as u -> 0 or eps -> 1.
    """
    t = np.exp(-u)
    one_minus_t = -np.expm1(-u)
    eps = math.exp(-lam)
    one_minus_eps = -math.expm1(-lam)
    d1 = (1.0 + eps) + t * one_minus_eps
    d2 = one_minus_eps + t * (1.0 + eps)
    x = 4.0 * eps * Y * t / (d1 * d2)
    decay = np.exp(-Y * (one_minus_t + eps * (1.0 + t)) / (2.0 * d1))
    return decay * (2.0 * one_minus_t / d1) * (d2 / d1) ** n * laguerre(n, x)


def _eta_scale_floor(s, gamma):
    """Achievable accuracy of the boundary quadrature on the eta scale, from Gamma(s)."""
    return _ABS_NOISE * (1.0 + np.abs(np.imag(s)) / 10.0) / np.abs(gamma)


def _boundary_eta_scale(s_values, Y, n, lam, target_tol) -> tuple:
    """Boundary integrals at Y > 0 divided by Gamma(s), and their error estimate.

    u^{s-1} e^{-u}/(1-e^{-u}) times the exact _inner_profile goes to
    quad.integrate_singular_log; the inner values do not involve s, so each
    point costs one phase sum.  Convergence is controlled on this
    eta-normalized scale, O(1) uniformly in t.  target_tol None gives each
    point max(minimum, multiple x its double-precision floor) by
    _BOUNDARY_TOL_RULE; the floor grows like e^{pi t/2} because the raw
    integral is O(|Gamma(s)|).  An explicit target_tol is met or refused.
    """
    gammas = np.array([gamma_complex(z) for z in s_values])
    if target_tol is None:
        minimum, multiple = _BOUNDARY_TOL_RULE
        tols = np.maximum(minimum, multiple * _eta_scale_floor(s_values, gammas))
    else:
        tols = float(target_tol)
    # Near u = 0 the integrand is u^{s-1} [J(0) + O(u) + O(Y u)], where
    # J(0) = chi_n(eps Y) is the limit of the inner profile over e^u - 1.
    return integrate_singular_log(
        lambda u: _inner_profile(u, Y, lam, n), s_values,
        float(chi(n, math.exp(-lam) * Y)), gammas, tols, envelope=1.0 + Y,
    )


def _level_coefficients(n: int, depth: int, lam: float) -> np.ndarray:
    """The y = 0 level sum's row (-1)^m A_m, m <= depth, for _eta_sums."""
    coeffs = _bare_overlaps(n, depth, lam)
    coeffs[1::2] *= -1.0
    return coeffs


def _row_depth(n: int, lam: float, Y: float) -> int:
    """Depth the level sum's row needs besides the height's, 64 + ceil(Y + 2.4 n p
    + 8 sqrt(n p)), p = 2/(1 + e^lam): Y for chi_m(Y), which alternates below
    its turning point Y/4, and the rest for overlaps that peak near level n
    at small lam.  Calibrated against depths 1200 and 1600 (CHANGES.md)."""
    p = 2.0 / (1.0 + math.exp(lam))
    return 64 + math.ceil(Y + 2.4 * n * p + 8.0 * math.sqrt(n * p))


def _level_sums(s_values: np.ndarray, n: int, lam: float, Y: float, tol: float) -> tuple:
    """Boundary values at transverse argument Y divided by varphi_zero(s), and their bound.

    sum_m A_m chi_m(Y) (m+1)^{-s} to depth D = max(_eta_depth, _row_depth) <=
    420: one row serves the batch, summed by specfun._eta_sums with its
    settle check, with relative accuracy at any height; chi_m(Y) is one
    all-orders recurrence on floats, skipped at Y = 0 where it is 1.  The
    bound is the row's rounding (_overlap_rounding, plus chi's (m+1) 2^-52
    at Y > 0, times the largest |A_m|, as |chi_m| <= 1) under Euler's weights
    P(Bin(D+1, 1/2) > k) (either head split) times (k+1)^{-sigma}, plus
    _LEVEL_TRUNCATION (1 + |value|) at the worst point; past tol, NonConvergenceError.
    """
    depth = min(max(_eta_depth(s_values), _row_depth(n, lam, Y)), _LEVEL_DEPTH_CAP)
    coeffs = _level_coefficients(n, depth, lam)
    largest = float(np.max(np.abs(coeffs)))
    levels = np.arange(depth + 1)
    rounding = _overlap_rounding(n, levels, lam)
    if Y > 0.0:
        coeffs *= _laguerre_recurrence(depth, Y, math.exp(-0.5 * Y), all_orders=True)
        rounding = rounding + (levels + 1.0) * 2.0**-52
    values = _eta_sums(s_values, coeffs=coeffs)[0]
    weights = _binomial_weights(depth + 1)[1][1:] * (levels + 1.0) ** -float(s_values.real.min())
    error = float(weights @ rounding) * largest
    error += _LEVEL_TRUNCATION * (1.0 + float(np.max(np.abs(values))))
    if not error <= tol:
        raise NonConvergenceError(f"level sum bound {error:.3g} exceeds the tolerance {tol:.3g}")
    return values, error


def _boundary_batch(s_values, y, n, lam, variant, target_tol) -> tuple[list, float]:
    """Boundary values at a batch of s for one squeeze, and the worst eta-scale error.

    One route per transverse argument Y = e^lam y (original) or e^-lam y
    (tilde): where _row_depth fits the cap 420 (Y <= 356, Y = 0 included)
    the level sum at target_tol or 1e-9, after Re s > 0 and varphi_zero(s)
    are checked; past it the Mellin quadrature, whose error estimate must
    stay below each value's eta-scale modulus (NonConvergenceError otherwise).
    """
    if not np.all(np.isfinite(s_values)):
        raise DomainError("boundary integral requires finite s")
    if target_tol is not None and not (math.isfinite(target_tol) and target_tol > 0.0):
        raise DomainError("boundary tolerance must be positive and finite")
    Y = (math.exp(lam) if variant == ORIGINAL else math.exp(-lam)) * y
    if _row_depth(n, lam, Y) <= _LEVEL_DEPTH_CAP:
        if float(s_values.real.min()) <= 0.0:
            raise DomainError("boundary value by the level sum requires Re s > 0")
        phis = [varphi_zero(z) for z in s_values]
        tol = _BOUNDARY_TOL_RULE[0] if target_tol is None else target_tol
        sums, err = _level_sums(s_values, n, lam, Y, tol)
    else:
        sums, err = _boundary_eta_scale(s_values, Y, n, lam, target_tol)
        phis = [varphi_zero(z) for z in s_values]
        for z, phi, v in zip(s_values, phis, sums):
            # a value that underflowed is left to its caller's normal-double check
            if not err < abs(v) and abs(phi * v) >= _TINY:
                raise NonConvergenceError(
                    f"|psi_boundary / varphi_zero| = {abs(v):.3g} at s = {z} is not above "
                    f"its error estimate {err:.3g}"
                )
    return [phi * complex(v) for phi, v in zip(phis, sums)], float(err)


def _check_boundary_args(y: float, n: int, lam: float, variant: str) -> None:
    if variant not in (ORIGINAL, TILDE):
        raise DomainError("variant must be 'original' or 'tilde'")
    if not (math.isfinite(y) and y >= 0.0):
        raise DomainError("y must be finite and >= 0")
    QuantumNumber(int(n))
    p = SqueezeParameter(float(lam))
    if variant == ORIGINAL and y > 0.0 and p.lam > MAX_LAMBDA:
        raise OverflowRangeError(
            f"original variant with y > 0 supports lam <= {MAX_LAMBDA:g}"
        )
    if variant == ORIGINAL and not math.isfinite(math.exp(p.lam) * y):
        raise DomainError(
            f"y = {y:g} at lambda = {p.lam:g} puts the squeezed argument e^lambda y "
            f"past the double range"
        )


def _boundary_squeezes(z: complex, y: float, n: int, lams: Sequence[float], variant: str,
                       target_tol: Optional[float] = None) -> list:
    """psi_boundary(y, z, n, lam, variant, target_tol).value for every lam in lams,
    bitwise; every squeeze is checked before any work."""
    lams = [float(lam) for lam in lams]
    for lam in lams:
        _check_boundary_args(y, n, lam, variant)
    batch, y, n = np.array([z]), float(y), int(n)
    return [_boundary_batch(batch, y, n, lam, variant, target_tol)[0][0] for lam in lams]


def psi_boundary(
    y: float,
    s: complex,
    n: int,
    lam: float,
    variant: str = ORIGINAL,
    target_tol: Optional[float] = None,
) -> WaveSample:
    """Boundary wave function at x = 0, from the level sum up to Y = 356 and
    the Mellin quadrature past it.

    The one-point psi_boundary_batch, bitwise, wrapped in a WaveSample.

    psi / varphi_zero = (1/Gamma(s)) int_0^inf u^{s-1} e^{-u} K(u) du, K
    the integral over y' of chi_n(e^{-lam} y') against the Mehler kernel at
    (Y, y', e^{-u}); Y = e^{lam} y, or e^{-lam} y for the tilde variant.  By
    the Laguerre generating function and the Laplace transform of I0 (see
    _inner_profile), K = exp(-Y((1-t) + eps(1+t))/(2 d1)) (2/d1) (d2/d1)^n
    L_n(4 eps Y t/(d1 d2)) with t = e^{-u}, eps = e^{-lam},
    d1 = (1+eps) + t(1-eps), d2 = (1-eps) + t(1+eps).  By Mehler's formula
    K is also sum_m A_m chi_m(Y) e^{-mu}, so the integral is the level sum
    sum_m A_m chi_m(Y) (m+1)^{-s} (_level_sums); it serves Y <= 356.

    target_tol, absolute on psi / varphi_zero, is met or refused:
    NonConvergenceError if the level sum's stated bound or the
    quadrature's discrepancy stays above it, DomainError if it is not
    positive and finite or, on the quadrature, so loose that its lower cut
    passes ln 45.  None is 1e-9 on the level sum, and on the quadrature 30x
    its rounding floor, which grows like e^{pi t/2}.  The bound or
    estimate is the sample's error; on the quadrature an estimate that is
    not below |psi / varphi_zero| raises NonConvergenceError, since the
    value would be all error (as from t ~ 23 at y = 0.5, lambda = 10).

    Approach to the limit: for y > 0 the original variant tends to 0 as
    varphi_zero(s) chi_n(y) (4 e^{-lam}/y)^s, with a relative correction
    of O(e^{-lam}); at y = 0 it tends to 2 varphi_zero(s) eta(s).  The
    transverse ratio |psi(y)| / |psi(0)| therefore falls like
    e^{-Re(s) lam}, e^{-lam/2} on the critical line.  Measured for
    n in {0, 1, 2}, y in {0.5, 2}, s in {0.5+10i, 0.8+5i}, the law holds
    to 2.5e-4 at lam = 12 and to 5e-6 at lam = 16.
    """
    z = complex(s)
    values, err = psi_boundary_batch([z], y, n, lam, variant, target_tol)
    return WaveSample(
        x=0.0, y=float(y), s=z, n=int(n), lam=float(lam),
        value=complex(values[0]), variant=variant, error=err,
    )


def psi_boundary_batch(
    s_values: Sequence[complex],
    y: float,
    n: int,
    lam: float,
    variant: str = ORIGINAL,
    target_tol: Optional[float] = None,
) -> tuple[np.ndarray, float]:
    """psi_boundary's values at many spectral points, and the worst eta-scale error.

    One level-sum row (up to Y = 356) or one inner integral K per grid
    serves the batch.  A value that is not a normal double (it underflowed,
    as at y = 1e300) raises OverflowRangeError.
    """
    _check_boundary_args(y, n, lam, variant)
    arr = np.asarray(list(s_values), dtype=complex)
    if arr.size == 0:
        return np.empty(0, dtype=complex), 0.0
    values, err = _boundary_batch(arr, float(y), int(n), float(lam), variant, target_tol)
    for z, value in zip(arr, values):
        if not _TINY <= abs(value) < math.inf:
            raise OverflowRangeError(
                f"|psi_boundary| = {abs(value):.3g} at s = {z} is not a normal double"
            )
    return np.array(values, dtype=complex), err


def psi_boundary_limit(s: complex, y: float = 0.0) -> complex:
    """Large-squeeze limit of the boundary value.

    2 varphi_zero(s) eta(s) at y = 0; exactly 0 for y > 0 (the limit
    concentrates on the boundary point).  Like varphi_zero, raises
    OverflowRangeError where the y = 0 value is no longer a normal
    double.  The finite-squeeze original
    variant approaches the y > 0 limit as varphi_zero(s) chi_n(y)
    (4 e^{-lam}/y)^s, with a relative correction of O(e^{-lam}), so the
    confinement rate is e^{-Re(s) lam}; see psi_boundary.
    """
    z = complex(s)
    if z.real <= 0.0:
        raise DomainError("limit formula requires Re s > 0")
    if not (math.isfinite(y) and y >= 0.0):
        raise DomainError("y must be finite and >= 0")
    if y > 0.0:
        return 0.0 + 0.0j
    value = 2.0 * varphi_zero(z) * eta(z)
    if abs(value) < _TINY:
        raise OverflowRangeError(
            f"|2 varphi_zero(s) eta(s)| falls below double-precision range at s = {z}"
        )
    return value


def phi_confined(x: float, s: complex) -> complex:
    """Confined profile 2 sum_m (-1)^m (m+1)^{-s} phi_s(x/(m+1)), in closed form.

    For x > 0 each term (m+1)^{-s} phi_s(x/(m+1)) is phi_s(x), so the series
    is 2 phi_s(x) sum_m (-1)^m, whose Euler (Abel) sum is phi_s(x).  At
    x = 0 each term carries the boundary value varphi_zero(s) instead, and
    the series is 2 varphi_zero(s) eta(s), psi_boundary_limit.  The profile
    is therefore discontinuous at x = 0: it grows like x^{-Re s} as x -> 0+
    but takes a finite value at 0.
    """
    z = complex(s)
    if z.real <= 0.0:
        raise DomainError("confined profile requires Re s > 0")
    if x < 0.0:
        raise DomainError("x must be >= 0")
    if x == 0.0:
        return psi_boundary_limit(z)
    return phi_s(x, z)


def tilde_expansion_check(
    y: float,
    s: complex,
    n: int,
    lam: float,
    target_tol: Optional[float] = None,
) -> TildeExpansion:
    """Compare the tilde boundary value against its large-squeeze expansion.

    zero_order is the limit value; first_order adds the e^{-lam} term
    with coefficient (2n + 1 + y/2) times
    2 varphi_zero(s) (eta(s) - 2 eta(s-1)); residual = |exact -
    first_order| is expected to scale like e^{-2 lam}.  target_tol None
    picks 1e-11 on the eta-normalized scale.  A first-order term
    e^{-lam} (2n + 1 + y/2) past 0.1 is outside the expansion's regime and
    raises DomainError.
    """
    return _tilde_expansions(y, complex(s), n, [lam], target_tol)[0]


def _tilde_expansions(y: float, z: complex, n: int, lams: Sequence[float],
                      target_tol: Optional[float] = None) -> list:
    """tilde_expansion_check at every squeeze in lams.

    One _boundary_squeezes call gives the exact values, on the level sum as
    the regime keeps Y <= 0.2; varphi_zero(s), eta(s), eta(s-1) are taken once.  A first-order
    term e^{-lam} (2n + 1 + y/2) past _EXPANSION_REACH at the smallest lam
    raises DomainError before any work.
    """
    if any(lam < 5.0 for lam in lams):
        raise DomainError("expansion regime needs lam >= 5")
    reach = math.exp(-min(lams)) * (2.0 * n + 1.0 + 0.5 * y)
    if reach > _EXPANSION_REACH:
        raise DomainError(
            f"expansion regime needs e^-lambda (2n + 1 + y/2) <= {_EXPANSION_REACH:g}; "
            f"it is {reach:.3g} at lambda = {min(lams):g}"
        )
    exact = _boundary_squeezes(z, y, n, lams, TILDE, 1e-11 if target_tol is None else target_tol)
    pref = 2.0 * varphi_zero(z)
    eta_s = eta(z)
    zero_order = pref * eta_s
    correction = (eta_s - 2.0 * eta(z - 1.0)) * (2.0 * n + 1.0 + 0.5 * y)
    expansions = []
    for lam, value in zip(lams, exact):
        first_order = zero_order + math.exp(-lam) * pref * correction
        expansions.append(TildeExpansion(
            exact=value,
            zero_order=zero_order,
            first_order=first_order,
            residual=abs(value - first_order),
        ))
    return expansions
