"""Wave-function chain on the half-line.

Generalized dilation eigenfunctions, the squeeze action, squeezed-basis
overlaps, the Mehler kernel in closed and series form, the full
position-space wave function, the boundary integral with its large-squeeze
limit, and the confined one-dimensional profile.

The boundary integral is a quadrature over the Mehler parameter u with an
oscillatory algebraic endpoint, through the log substitution of the quad
module; the inner transverse integral is exact, an exponential times a
Laguerre polynomial (see _inner_profile).  It does not involve the spectral
parameter, so batches of spectral points share its values.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, NonConvergenceError, OverflowRangeError
from .quad import _gauss_panels, tail_cutoff_for
from .specfun import (
    TruncationPolicy,
    _binomial_weights,
    _eta_depth,
    _eta_sums,
    _laguerre_recurrence,
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
    "EigenvalueRecord",
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
    "boundary_levels",
    "phi_confined",
    "tilde_expansion_check",
    "eigenvalue_of",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)

ORIGINAL = "original"
TILDE = "tilde"
LIMIT = "limit"
_VARIANTS = (ORIGINAL, TILDE, LIMIT)

# Original-variant boundary arguments scale like e^lambda * y; past this the
# Mehler exponent range is exhausted and the quadrature loses error control.
MAX_LAMBDA = 25.0

# Largest level index; work grows with n, and here a t = 10 boundary value takes ~2 s.
MAX_LEVEL = 10_000

# Absolute rounding floor of the outer oscillatory integral.  The integral
# itself is O(|Gamma(s)|), so the achievable accuracy on the eta-normalized
# scale degrades like e^{pi t / 2}; tolerances are clamped accordingly.
_ABS_NOISE = 4e-16


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

    error is a diagnostic from the producing operation: psi_boundary's
    quadrature estimate on the eta-normalized scale it controlled, or
    psi_full's rounding bound on the value.
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


@dataclass(frozen=True)
class EigenvalueRecord:
    s: complex
    n: int
    energy: complex
    real_energy: bool


class TildeExpansion(NamedTuple):
    exact: complex
    zero_order: complex
    first_order: complex
    residual: float


class MehlerSeriesResult(NamedTuple):
    value: Union[float, np.ndarray]
    tail_bound: Union[float, np.ndarray]
    terms_used: int


def eigenvalue_of(s: complex, n: int) -> EigenvalueRecord:
    """Eigenvalue record E = i(s - 1/2) + n; real exactly on the line."""
    z = complex(s)
    if n < 0:
        raise DomainError("n must be nonnegative")
    energy = 1j * (z - 0.5) + n
    return EigenvalueRecord(s=z, n=int(n), energy=energy, real_energy=(z.real == 0.5))


# ---------------------------------------------------------------------------
# Eigenfunctions and the squeeze action
# ---------------------------------------------------------------------------


def phi_s(x, s: complex):
    """Generalized dilation eigenfunction x^{-s} / sqrt(2 pi), x > 0.

    Raises DomainError for non-finite x or s, and OverflowRangeError where
    |x^{-s}| = e^{Re(-s ln x)} passes the double range, for scalar and
    array x alike.
    """
    z = complex(s)
    arr = np.asarray(x, dtype=float)
    if not (cmath.isfinite(z) and np.all(np.isfinite(arr))):
        raise DomainError("phi_s needs finite x and s")
    if np.any(arr <= 0.0):
        raise DomainError("phi_s is singular at x = 0; use varphi_zero for the boundary value")
    if arr.ndim == 0:
        exponent = -z * math.log(float(arr))
    else:
        exponent = -z * np.log(arr)
    if np.any(np.real(exponent) > _LOG_DOUBLE_MAX):
        raise OverflowRangeError(f"|x^-s| exceeds double-precision range at s = {z}")
    if arr.ndim == 0:
        return cmath.exp(exponent) / SQRT_2PI
    return np.exp(exponent) / SQRT_2PI


def psi_full(x: float, y: float, s: complex, n: int, lam: float) -> WaveSample:
    """Position-space wave function off the boundary, phi_s(x) chi_n(y).

    In the level sum of A_m chi_m(e^lam y) (m+1)^{-s} phi_s(x/(m+1)) over m
    (oracles.psi_level_sum), each (m+1)^{-s} phi_s(x/(m+1)) is phi_s(x), and
    completeness sums the rest to chi_n(y).  lam does not enter, but lam <= 25
    is kept so x = 0 and x > 0 rows of one grid share the original variant's
    domain.  error is the rounding bound (|s ln x| + n + 2) 2^-52 |phi_s(x)|:
    phi_s carries the rounding of s ln x, and the chi_n recurrence, bounded
    by 1, adds about one unit per step (under 0.32 (n+1) for n <= 300).
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
    error = (abs(z * math.log(x)) + n + 2.0) * 2.0**-52 * abs(profile)
    return WaveSample(
        x=float(x), y=float(y), s=z, n=int(n), lam=p.lam,
        value=profile * chi(int(n), y), variant=ORIGINAL, error=error,
    )


def squeeze_apply(psi: Callable, lam: float) -> Callable:
    """Unitary squeeze: x maps to e^{-lam/2} psi(e^{-lam} x)."""
    p = SqueezeParameter(float(lam))
    amp = math.exp(-0.5 * p.lam)
    scale = math.exp(-p.lam)

    def squeezed(x):
        return amp * psi(scale * x)

    return squeezed


def _bare_overlaps(n: int, m_max: int, lam: float) -> np.ndarray:
    """Half-line integrals of chi_n(e^{-lam} y) chi_m(y) for m = 0..m_max.

    The generating function of these integrals over m is 2 B^n / A^{n+1}
    with A = (1+eps) + t(1-eps), B = (1-eps) + t(1+eps), eps = e^{-lam}.
    Writing B = (A - 4 eps/(1+eps)) (1+eps)/(1-eps) expands the coefficient
    as a short sum over powers of 1/A, which keeps every summand on the
    scale of the answer instead of cancelling across binomials.  That sum
    still alternates in k, and for large n at a small squeeze (n = 20 at
    lam = 0.3, n = 40 at lam = 2) its rounding, up to (n+1) 2^-52 times the
    summed magnitudes, swamps the answer, which Cauchy-Schwarz bounds by
    |A_m| <= e^{lam/2}; NonConvergenceError is raised once that rounding
    could exceed 1e-10 e^{lam/2}.
    """
    m_count = m_max + 1
    if lam == 0.0:
        out = np.zeros(m_count)
        if n <= m_max:
            out[n] = 1.0
        return out
    eps = math.exp(-lam)
    ln_a0 = math.log1p(eps)
    ln_beta = math.log1p(eps) - math.log1p(-eps)
    ln_gam = math.log(4.0) - lam - math.log1p(-eps)
    ln_rho = math.log1p(-eps) - math.log1p(eps)
    m = np.arange(m_count, dtype=float)
    logs = np.empty((n + 1, m_count))
    # log C(m+j, j) = sum_{i <= j} log((m+i)/i), accumulated as j = n - k
    # steps up.
    log_cmj = np.zeros(m_count)
    for j in range(n + 1):
        if j > 0:
            log_cmj += np.log(m + j) - math.log(j)
        k = n - j
        log_cnk = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(j + 1)
        logs[k] = log_cnk + k * ln_beta + j * ln_gam + (k - n - 1) * ln_a0 + log_cmj
    signs = np.array([(-1.0) ** (n - k) for k in range(n + 1)])[:, None]
    peak = np.max(logs, axis=0)
    summands = np.exp(logs - peak[None, :])
    reduced = np.sum(signs * summands, axis=0)
    # the rounding bound is compared in log space: the envelope of a refused
    # call can pass the float range
    ln_lost = math.log((n + 1) * 2.0**-52) + float(
        np.max(peak + m * ln_rho + np.log(2.0 * np.sum(summands, axis=0)))
    )
    if not ln_lost <= math.log(1e-10) + 0.5 * lam:
        if ln_lost < 709.0:
            bound = f"{math.exp(ln_lost):.3g}"
        else:
            decade = int(ln_lost / math.log(10.0))
            bound = f"{math.exp(ln_lost - decade * math.log(10.0)):.3g}e+{decade}"
        raise NonConvergenceError(
            f"bare overlaps of level {n} at lambda {lam:g}: rounding bound {bound} "
            f"exceeds 1e-10 of their Cauchy-Schwarz bound e^(lambda/2)"
        )
    envelope = 2.0 * np.exp(peak + m * ln_rho)
    parity = np.where(np.arange(m_count) % 2 == 0, 1.0, -1.0)
    return parity * envelope * reduced


def overlap_s1(m: int, n: int, lam: float, *, bare: bool = False) -> float:
    """Squeezed-basis overlap e^{-lam/2} times the chi_m / squeezed-chi_n integral.

    Computed by half-line quadrature.  With bare=True the e^{-lam/2}
    prefactor is dropped; the bare integral tends to 2 (-1)^m as lam
    grows, for every n.
    """
    if m < 0 or n < 0:
        raise DomainError("m and n must be nonnegative")
    p = SqueezeParameter(float(lam))
    # chi_m oscillates out to roughly 4m + 2 and only then starts its
    # exponential tail, so the cutoff must scale with the order.
    cutoff = 4.0 * m + 2.0 + 6.0 * (m + 1.0) ** (1.0 / 3.0) + tail_cutoff_for(0.3, 1e-13)
    nodes, weights = _gauss_panels(0.0, cutoff, max(32, int(cutoff)), 12)
    value = float(np.dot(weights * chi(n, math.exp(-p.lam) * nodes), chi(m, nodes)))
    if bare:
        return value
    return math.exp(-0.5 * p.lam) * value


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


def mehler_series(y, yp, t, policy: Optional[TruncationPolicy] = None) -> MehlerSeriesResult:
    """Direct Laguerre-basis sum of the Mehler kernel with a tail bound.

    y, yp and t are scalars or arrays that broadcast together.  Scalar
    input gives float value and tail_bound; any array input gives arrays of
    the broadcast shape for both, each element bitwise equal to the scalar
    call with that element's arguments.  terms_used is the int
    policy.max_terms either way.  One all-orders Laguerre recurrence runs
    over the distinct y and y' values and powers are built once per distinct
    t, so a grid costs one table, not one recurrence per point.

    The tail bound uses the half-line envelope |chi_m| <= 1, giving
    tail <= t^{M+1}/(1-t) after terms up to m = M.  Raises DomainError
    when any y or y' is negative or not finite or any t lies outside
    [0, 1), and before any work when points times max_terms exceed
    _MAX_MEHLER_TERMS (the longdouble terms would pass 64 MB).  Raises
    NonConvergenceError when the last included term of any element still
    exceeds the policy tolerance.
    """
    ya, yb, ta = np.broadcast_arrays(
        np.asarray(y, dtype=float), np.asarray(yp, dtype=float), np.asarray(t, dtype=float)
    )
    if not np.all(np.isfinite(ya) & np.isfinite(yb) & (ya >= 0.0) & (yb >= 0.0)):
        raise DomainError("need finite y, y' >= 0")
    if not np.all((ta >= 0.0) & (ta < 1.0)):
        raise DomainError("need 0 <= t < 1")
    if policy is None:
        policy = TruncationPolicy(max_terms=400, abs_tol=1e-12)
    m_max = policy.max_terms - 1
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
    converged = policy.converged(lasts, values)
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


def varphi_zero(s: complex) -> complex:
    """Boundary value of the rotated eigenfunction.

    Gamma(1-s) (-2i)^{1/2-s} / sqrt(2 pi) with the principal branch
    (-2i)^{1/2-s} = exp[(1/2-s)(ln 2 - i pi/2)]; continuous along the
    critical line and nonvanishing wherever Gamma(1-s) is finite.
    """
    z = complex(s)
    branch = (0.5 - z) * complex(math.log(2.0), -0.5 * math.pi)
    return gamma_complex(1.0 - z) * cmath.exp(branch) / SQRT_2PI


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

_MAX_BOUNDARY_ROUNDS = 5
# 40_000_000 // (24 * 12): the outer-node count at which the earlier budget
# on outer times inner quadrature nodes first stopped a request.
_MAX_OUTER_NODES = 138_888


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


def _eta_scale_floor(s: complex) -> float:
    """Achievable accuracy of the boundary quadrature on the eta scale."""
    return _ABS_NOISE * (1.0 + abs(complex(s).imag) / 10.0) / abs(gamma_complex(s))


def _boundary_eta_scale(
    s_values: np.ndarray,
    y: float,
    n: int,
    lam: float,
    variant: str,
    target_tol: Optional[float],
) -> tuple[np.ndarray, float]:
    """Boundary integral divided by Gamma(s), batched over spectral points.

    The integrand, u^{s-1} e^{-u}/(1-e^{-u}) times the exact _inner_profile,
    is summed on a Gauss-Legendre grid in v = log u that doubles each round;
    the inner values do not involve s, so each point costs one phase sum.
    Convergence is controlled on
    this eta-normalized scale, which is O(1) uniformly in t; per-point
    tolerances are clamped to the double-precision floor, which grows like
    e^{pi t/2} because the raw integral is O(|Gamma(s)|).
    """
    if not np.all(np.isfinite(s_values)):
        raise DomainError("boundary integral requires finite s")
    if target_tol is not None and not math.isfinite(target_tol):
        raise DomainError("boundary tolerance must be finite")
    eps = math.exp(-lam)
    Y = (math.exp(lam) if variant == ORIGINAL else eps) * y
    sig_min = float(min(z.real for z in s_values))
    if sig_min <= 0.0:
        raise DomainError("boundary integral requires Re s > 0")
    t_max = float(max(abs(z.imag) for z in s_values))
    gammas = np.array([gamma_complex(z) for z in s_values])
    floors = np.array([_eta_scale_floor(z) for z in s_values])
    if target_tol is None:
        tols = np.maximum(1e-9, 30.0 * floors)
    else:
        tols = np.maximum(float(target_tol), 3.0 * floors)
    # The lower cut must discard less than the *raw* tolerance tol |Gamma|,
    # since the integral itself is O(|Gamma(s)|).  Below the cut the
    # integrand is u^{s-1} [J(0) + O(u) + O(Y u)] with J(0) = chi_n(eps Y),
    # so the J(0) u_lo^s / s head is restored analytically and the cut only
    # needs to control the next order, hence the sigma + 1 in the exponent.
    raw_tol = float(np.min(tols)) * float(np.min(np.abs(gammas)))
    v_lo = (math.log(raw_tol) - math.log(10.0) - math.log(1.0 + Y)) / (
        sig_min + 1.0
    ) - 6.0
    v_hi = math.log(45.0)
    head_amp = float(chi(n, eps * Y))
    head = head_amp * np.exp(s_values * v_lo) / s_values
    panels = max(24, int(math.ceil((1.0 + t_max) * (v_hi - v_lo) / 6.0)))
    order = 12
    prev = None
    err = math.inf
    for _ in range(_MAX_BOUNDARY_ROUNDS + 1):
        v, w = _gauss_panels(v_lo, v_hi, panels, order)
        u = np.exp(v)
        kernel = w * _inner_profile(u, Y, lam, n) / np.expm1(u)
        vals = np.empty(s_values.size, dtype=complex)
        for lo in range(0, s_values.size, 128):
            chunk = s_values[lo : lo + 128]
            vals[lo : lo + 128] = np.exp(np.multiply.outer(chunk, v)) @ kernel
        vals = (vals + head) / gammas
        if prev is not None:
            diffs = np.abs(vals - prev)
            err = float(np.max(diffs))
            if np.all(diffs <= tols):
                return vals, err
        prev = vals
        panels *= 2
        if panels * order > _MAX_OUTER_NODES:
            break
    raise NonConvergenceError(
        f"boundary quadrature stalled at eta-scale discrepancy {err:.3g}"
    )


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


def psi_boundary(
    y: float,
    s: complex,
    n: int,
    lam: float,
    variant: str = ORIGINAL,
    target_tol: Optional[float] = None,
) -> WaveSample:
    """Boundary wave function as a quadrature over the Mehler parameter.

    The one-point psi_boundary_batch, bitwise, wrapped in a WaveSample.

    psi / varphi_zero = (1/Gamma(s)) int_0^inf u^{s-1} e^{-u} K(u) du, K
    the integral over y' of chi_n(e^{-lam} y') against the Mehler kernel at
    (Y, y', e^{-u}); Y = e^{lam} y, or e^{-lam} y for the tilde variant.  By
    the Laguerre generating function and the Laplace transform of I0 (see
    _inner_profile), K = exp(-Y((1-t) + eps(1+t))/(2 d1)) (2/d1) (d2/d1)^n
    L_n(4 eps Y t/(d1 d2)) with t = e^{-u}, eps = e^{-lam},
    d1 = (1+eps) + t(1-eps), d2 = (1-eps) + t(1+eps).

    target_tol is an absolute tolerance on the eta-normalized value
    psi / varphi_zero; None picks a tolerance 30x above the rounding
    floor, and explicit values are clamped to 3x the floor (the floor
    grows like e^{pi t/2}, see _eta_scale_floor).  The achieved estimate
    is reported in the sample's error field.

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
    """Boundary values for many spectral points on one shared grid.

    Returns (values, worst eta-normalized error).  The integral is that of
    psi_boundary (this batch at one point); its exact inner integral K does
    not involve s, so a scan grid costs one phase sum per point on top of a
    single evaluation.  varphi_zero is applied by Python complex products.
    """
    _check_boundary_args(y, n, lam, variant)
    arr = np.asarray(list(s_values), dtype=complex)
    if arr.size == 0:
        return np.empty(0, dtype=complex), 0.0
    vals, err = _boundary_eta_scale(arr, float(y), int(n), float(lam), variant, target_tol)
    values = [varphi_zero(z) * complex(v) for z, v in zip(arr, vals)]
    return np.array(values, dtype=complex), err


def boundary_levels(s_values: Sequence[complex], n: int, lam: float) -> np.ndarray:
    """Boundary values at y = 0 through the level-sum route.

    The y = 0 boundary value equals varphi_zero(s) times
    sum_m A_m (m+1)^{-s}, where A_m is the bare overlap of level m with
    the squeezed level n; the overlaps do not involve s, so one overlap
    pass serves any number of spectral points.  The alternating sum runs
    on eta's kernel, specfun._eta_sums, with the coefficients (-1)^m A_m at
    eta's depth and its settle check (NonConvergenceError); it keeps
    *relative* accuracy at any height t, unlike the real-axis quadrature
    whose absolute floor ~4e-16 swamps the O(|Gamma(s)|) integral beyond
    t ~ 17.  Cross-checked against psi_boundary in the test suite on their
    common turf.
    """
    arr = np.asarray(list(s_values), dtype=complex)
    if arr.size == 0:
        return np.empty(0, dtype=complex)
    if any(z.real <= 0.0 for z in arr):
        raise DomainError("level route requires Re s > 0")
    QuantumNumber(int(n))
    SqueezeParameter(float(lam))
    coeffs = _bare_overlaps(int(n), _eta_depth(arr), float(lam))
    coeffs[1::2] *= -1.0  # (-1)^m A_m, which tend to 2 as the squeeze grows
    return np.array([varphi_zero(z) for z in arr]) * _eta_sums(arr, coeffs=coeffs)[0]


def psi_boundary_limit(s: complex, y: float = 0.0) -> complex:
    """Large-squeeze limit of the boundary value.

    2 varphi_zero(s) eta(s) at y = 0; exactly 0 for y > 0 (the limit
    concentrates on the boundary point).  The finite-squeeze original
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
    return 2.0 * varphi_zero(z) * eta(z)


def phi_confined(
    x: float,
    s: complex,
    policy: Optional[TruncationPolicy] = None,
) -> tuple[complex, float]:
    """Confined profile 2 sum_m (-1)^m (m+1)^{-s} phi_s(x/(m+1)).

    Euler-accelerated; returns (value, tail_estimate).  At x = 0 every
    term carries the boundary value varphi_zero(s), and the accelerated
    sum reproduces 2 varphi_zero(s) eta(s) numerically rather than by
    shortcut.  With max_terms = 1 the value is the single m = 0 term.
    """
    z = complex(s)
    if z.real <= 0.0:
        raise DomainError("confined profile requires Re s > 0")
    if x < 0.0:
        raise DomainError("x must be >= 0")
    if policy is None:
        policy = TruncationPolicy(max_terms=64, abs_tol=1e-12)
    m_idx = np.arange(policy.max_terms)
    signs = np.where(m_idx % 2 == 0, 1.0, -1.0)
    weights = np.exp(-z * np.log(m_idx + 1.0))
    if x == 0.0:
        prof = np.full(policy.max_terms, varphi_zero(z))
    else:
        prof = np.array([phi_s(x / (m + 1.0), z) for m in m_idx])
    terms = 2.0 * signs * weights * prof
    value, tail = _euler_accelerated(terms)
    if not policy.converged(tail, abs(value)):
        raise NonConvergenceError(
            f"alternating acceleration stalled at correction {tail:.3g}"
        )
    return value, tail


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
    first_order| is expected to scale like e^{-2 lam}.
    """
    z = complex(s)
    if lam < 5.0:
        raise DomainError("expansion regime needs lam >= 5")
    if target_tol is None:
        target_tol = max(1e-11, 10.0 * _eta_scale_floor(z))
    exact = psi_boundary(y, z, n, lam, variant=TILDE, target_tol=target_tol).value
    pref = 2.0 * varphi_zero(z)
    zero_order = pref * eta(z)
    correction = (eta(z) - 2.0 * eta(z - 1.0)) * (2.0 * n + 1.0 + 0.5 * y)
    first_order = zero_order + math.exp(-lam) * pref * correction
    return TildeExpansion(
        exact=exact,
        zero_order=zero_order,
        first_order=first_order,
        residual=abs(exact - first_order),
    )
