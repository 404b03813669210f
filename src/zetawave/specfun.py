"""Special functions for the critical strip, in plain double precision.

Everything is hand-rolled on top of numpy so each piece has a known,
separately testable error budget: a Lanczos gamma, one Laguerre recurrence
for L_n and its exponentially weighted cousin chi_n, the scaled modified
Bessel function e^{-z} I0(z), and the Dirichlet eta / zeta pair evaluated
through weighted alternating sums.  No arbitrary-precision
arithmetic anywhere; the contract region is sigma in [-2, 3], |t| <= 60.

Alternating sums sum_k (-1)^k c_k (k+1)^{-s} are one _eta_sums batch,
weighted by one of two families that one selector, _weight_rows, picks.
Borwein's (_borwein_weights) serve eta (c_k = 1) on every batch whose
points all have sigma >= 1/2, where his error bound is proved: about
20 + 0.9 |t| terms, 2.6 times fewer than Euler's for the same accuracy.
Euler's weights, the Bin(n, 1/2) tails of _binomial_weights, serve the
rest at the one depth rule _eta_depth: eta left of the critical line and
every coefficient row (the level sums of the squeezed boundary value,
see waveform._level_sums).  Euler's transform of
sum_k (-1)^k a_k regroups exactly into the weighted sum derived in
eta_grid, and the iterated averaging of waveform._euler_accelerated is
the same identity on partial sums.  A scan grid, evenly spaced heights on
the critical line, is the one exception to exact powers: _eta_line
factors its phases into block seeds times offsets and never builds the
points x terms matrix.  Both weight sets are upper tails of a unimodal
law, built in log space by one helper, _log_space_tails.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DomainError, NonConvergenceError, OverflowRangeError

__all__ = [
    "gamma_complex",
    "laguerre",
    "chi",
    "bessel_i0_scaled",
    "eta",
    "eta_grid",
    "zeta",
]

LN2 = math.log(2.0)
# smallest normal double, as a Python float so scalar comparisons stay off numpy
_TINY = float(np.finfo(float).tiny)


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
_LANCZOS_TERMS = tuple(enumerate(_LANCZOS_C))[1:]
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_GAMMA_MIN, _LOG_GAMMA_MAX = -708.0, 709.0  # log|Gamma| of a normal double


def gamma_complex(s):
    """Gamma function of one complex argument.

    Relative error is below 1e-12 for |Im s| <= 60 and -2 <= Re s <= 3
    (validated against an independent Euler-product oracle).  Non-finite s,
    nonpositive integers and arrays raise DomainError; results outside
    double range, above it or below it (log|Gamma| < -708, reached on the
    critical line from |t| ~ 451), raise OverflowRangeError, as does a
    reflection factor sin(pi s) past the double range (|Im s| from ~226
    left of Re s = 1/2).  For Re s >= 1/2 the range checks apply to the
    Lanczos log-sum of _lanczos_log, which stays finite below the range,
    where varphi_zero takes it.
    """
    if isinstance(s, np.ndarray) and s.ndim:
        raise DomainError("gamma takes one point, not an array")
    z = complex(s)
    if not cmath.isfinite(z):
        raise DomainError("gamma requires finite s")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise DomainError(f"gamma pole at s = {z.real:g}")
    if z.real < 0.5:
        # Reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z).  |sin(pi z)|
        # grows like e^{pi |Im z|}/2 and leaves the double range from
        # |Im z| ~ 226.1 (cmath raises), or at once for a pi z past it.
        try:
            sin_piz = cmath.sin(cmath.pi * z)
        except (OverflowError, ValueError):
            message = "reflection factor sin(pi s) exceeds double-precision range"
            raise OverflowRangeError(message) from None
        value = cmath.pi / (sin_piz * gamma_complex(1.0 - z))
        magnitude = abs(value)
        if magnitude == math.inf:
            raise OverflowRangeError("|Gamma(s)| exceeds double-precision range")
        if not magnitude >= _TINY:
            # sin(pi z) Gamma(1-z) past the double range leaves nan, or a subnormal
            raise OverflowRangeError("|Gamma(s)| falls below double-precision range")
        return value
    log_gamma = _lanczos_log(z)
    if log_gamma.real > _LOG_GAMMA_MAX:
        raise OverflowRangeError("|Gamma(s)| exceeds double-precision range")
    if not (cmath.isfinite(log_gamma) and log_gamma.real >= _LOG_GAMMA_MIN):
        raise OverflowRangeError("|Gamma(s)| falls below double-precision range")
    return cmath.exp(log_gamma)


def _lanczos_log(z, log=cmath.log):
    """log Gamma(z) by the Lanczos sum, for finite z with Re z >= 1/2.

    Finite wherever the sum is, also where Gamma(z) itself leaves the
    double range; gamma_complex checks the range on this value.  With
    log=np.log, a complex array in the same operation order, in numpy's
    arithmetic (waveform._varphi_zero_rows).
    """
    acc = _LANCZOS_C[0]
    shifted = z - 1.0
    for k, c in _LANCZOS_TERMS:
        acc = acc + c / (shifted + k)
    w = z + _LANCZOS_G - 0.5
    return (z - 0.5) * log(w) - w + _HALF_LOG_2PI + log(acc)


# ---------------------------------------------------------------------------
# Laguerre family
# ---------------------------------------------------------------------------

_RESCALE_BITS = 600


def _laguerre_recurrence(
    n: int,
    y: np.ndarray,
    seed: np.ndarray,
    all_orders: bool = False,
    exponent: np.ndarray | None = None,
) -> np.ndarray:
    """seed * L_m(y) by the ascending three-term recurrence, in seed's dtype.

    (m+1) L_{m+1} = (2m+1-y) L_m - m L_{m-1} from L_0 = 1, L_1 = 1 - y is
    forward stable for the half-line arguments used here.  Returns order n,
    keeping only two orders alive, or with all_orders=True every order
    m = 0..n stacked along a new first axis.  With exponent, a float array
    of base-2 exponents beside the seed, whenever an order passes 2^600 the
    pair drops by 2^-600 exactly and exponent (updated in place) carries
    the 600: the true value is the result times 2^exponent.
    """
    prev, cur = seed, (1.0 - y) * seed
    rows = [prev, cur]
    for m in range(1, n):
        prev, cur = cur, ((2.0 * m + 1.0 - y) * cur - m * prev) / (m + 1.0)
        if all_orders:
            rows.append(cur)
        if exponent is not None:
            big = np.maximum(np.abs(prev), np.abs(cur)) > 2.0**_RESCALE_BITS
            if big.any():
                prev[big] *= 2.0**-_RESCALE_BITS
                cur[big] *= 2.0**-_RESCALE_BITS
                exponent[big] += _RESCALE_BITS
    if all_orders:
        return np.array(rows[: n + 1])
    return cur if n > 0 else seed


def laguerre(n: int, y):
    """Laguerre polynomial L_n(y), scalar or ndarray y, by the ascending recurrence."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError("n must be a nonnegative integer")
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.isfinite(arr).all():
        raise DomainError("laguerre requires finite y")
    out = _laguerre_recurrence(n, arr, np.ones_like(arr))
    return float(out[0]) if np.ndim(y) == 0 else out


def chi(n: int, y):
    """Weighted Laguerre function chi_n(y) = e^{-y/2} L_n(y).

    The weight is folded into the seed of the recurrence, so every
    intermediate is bounded by 1 in magnitude and nothing overflows.
    Where the seed is not a normal double (y > 1416.8) its exponent is
    carried apart (see _chi_deep), so chi_n keeps its digits out to its
    turning point y = 4n + 2 and beyond.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError("n must be a nonnegative integer")
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.isfinite(arr).all():
        raise DomainError("chi requires finite y")
    if np.any(arr < 0.0):
        raise DomainError("chi is defined on the half-line y >= 0")
    seed = np.exp(-0.5 * arr)
    deep = seed < _TINY
    if deep.any():
        out = np.empty_like(arr)
        out[~deep] = _laguerre_recurrence(n, arr[~deep], seed[~deep])
        out[deep] = _chi_deep(n, arr[deep])
    else:
        out = _laguerre_recurrence(n, arr, seed)
    return float(out[0]) if np.ndim(y) == 0 else out


def _chi_deep(n: int, y: np.ndarray) -> np.ndarray:
    """chi_n(y) where the seed e^{-y/2} is not a normal double.

    e^{-y/2} = r 2^e with r in [1, 2): the recurrence runs from r and
    carries e (_laguerre_recurrence's exponent), so no order underflows;
    the result is r' 2^e, which rounds to a subnormal or 0 only if chi_n
    itself does.  Points where even the bound
    |chi_n(y)| <= e^{-y/2} (1 + y)^n lies below the smallest double are 0
    without a recurrence (this also keeps each step's growth, at most a
    factor 1 + y, far inside the double range).
    """
    out = np.zeros_like(y)
    live = n * np.log1p(y) - 0.5 * y > -746.0
    y = y[live]
    exponent = np.floor(-0.5 * y / LN2)
    mantissa = _laguerre_recurrence(n, y, np.exp(-0.5 * y - exponent * LN2), exponent=exponent)
    out[live] = np.ldexp(mantissa, exponent.astype(int))
    return out


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
    if not (arr >= 0.0).all():
        raise DomainError("bessel_i0_scaled requires z >= 0, not NaN")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = arr <= _I0_SPLIT
    if np.any(small):
        out[small] = _i0e_series(arr[small])
    if np.any(~small):
        out[~small] = _i0e_asym(arr[~small])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Dirichlet eta / zeta
# ---------------------------------------------------------------------------


def _log_space_tails(ratio: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only probabilities p_i and upper tails P(I >= i) of a unimodal law
    on 0..len(ratio) given its log ratios log(p_{i+1} / p_i), decreasing in i.

    log p_i is accumulated outward from the mode, so the terms that carry
    the mass have short, small partial sums, then normalized by the sum
    (the smallest p_i may underflow); the tails sum from the top.
    """
    mode = int(np.count_nonzero(ratio > 0.0))
    log_p = np.zeros(ratio.size + 1)
    log_p[mode + 1 :] = np.cumsum(ratio[mode:])
    log_p[:mode] = -np.cumsum(ratio[:mode][::-1])[::-1]
    p = np.exp(log_p)
    p /= p.sum()
    tail = np.cumsum(p[::-1])[::-1]
    p.setflags(write=False)
    tail.setflags(write=False)
    return p, tail


@functools.lru_cache(maxsize=24)
def _binomial_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Bin(n, 1/2) probabilities p_j and tails P(Bin(n, 1/2) >= j).

    Built in log space by _log_space_tails (2^{-n} underflows past
    n = 1074).  O(n), built on first use; at most 24 sizes are kept.
    """
    if n < 0:
        raise DomainError("binomial weights need n >= 0")
    return _log_space_tails(np.log((n - np.arange(n)) / np.arange(1.0, n + 1.0)))


# Deepest binomial row: _eta_depth's cap and the level sums' (a boundary row
# whose waveform._row_depth passes it takes the quadrature)
_DEPTH_CAP = 420


def _eta_depth(s: np.ndarray) -> int:
    """Binomial depth D of a batch: 64 + ceil(2.3 |t|), 16 more where sigma < 1/2,
    at most _DEPTH_CAP = 420; a batch takes its deepest point.

    It sizes Euler's weights: eta left of the critical line, and the
    coefficient rows whose length sets their depth (the finite scan, the
    level-sum boundary values, deeper where waveform._row_depth asks).
    Calibrated against extended-precision references over sigma in [-2, 3],
    |t| <= 60; worst observed error ~5e-13, the truncation
    waveform._level_sums states.  At y = 0, lam >= 5 the boundary value's
    level sums take this depth: against 176 more levels they differ by
    <= 1.6e-14 (1 + |f|) over lam in
    {5, 8, 12, 14, 16}, n <= 300, t <= 120.
    ceil is monotone, so the deepest point of each side of sigma = 1/2 is
    the one with the largest |t| there: two scalar ceilings, not one per
    point (the cap is applied first, so an infinite t gives the cap).
    """
    heights = np.abs(s.imag)
    depth = 64 + math.ceil(min(2.3 * float(heights.max()), _DEPTH_CAP))
    left = s.real < 0.5
    if left.any():
        depth = max(depth, 80 + math.ceil(min(2.3 * float(heights[left].max()), _DEPTH_CAP)))
    return min(depth, _DEPTH_CAP)


# Levels summed before weighting left of the critical line: (k+1)^{-s} is a
# polynomial of degree <= 2 in k at s = 0, -1, -2, so its third differences
# vanish exactly there, and near there they are far smaller than the terms.
_HEAD_LEVELS = 3


@functools.lru_cache(maxsize=64)
def _eta_weights(depth: int, head: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only rows of _eta_sums per (depth, head): log(k+1), the derivative
    weights -(-1)^k w_k log(k+1), and the value and level m = D-5 .. D columns
    applied after head levels (rows (nabla^m a)_0 for m < head, then b).
    """
    log_base = np.log(np.arange(1.0, depth + 2.0))
    signs = np.where(np.arange(depth + 1) % 2 == 0, 1.0, -1.0)
    deriv = -log_base * signs * _binomial_weights(depth + 1)[1][1:]
    weights = np.zeros((depth + 1, 7))
    weights[:head, 0] = 0.5 ** np.arange(1, head + 1)
    weights[head:, 0] = 0.5**head * _binomial_weights(depth + 1 - head)[1][1:]
    for col, m in enumerate(range(depth - 5, depth + 1), start=1):
        weights[head : m + 1, col] = 0.5 ** (head + 1) * _binomial_weights(m - head)[0]
    weights[head:] *= signs[: depth + 1 - head, None]
    for row in (log_base, deriv, weights):
        row.setflags(write=False)
    return log_base, deriv, weights


def _weight_rows(s: np.ndarray, coeffs=None, t_top: float = 0.0) -> tuple:
    """The read-only rows (log(k+1), derivative weights, value and settle
    columns) that sum the batch s in _eta_sums and _eta_line.

    Borwein's (_borwein_rows) where his bound is proved, c_k = 1 with every
    sigma >= 1/2, at the order of the larger of the batch's highest |t|
    and t_top.  Euler's (_eta_weights) elsewhere: a coefficient row at its
    own length, eta left of the critical line at _eta_depth, both after
    _HEAD_LEVELS levels where some sigma < 1/2.
    """
    head = _HEAD_LEVELS if float(s.real.min()) < 0.5 else 0
    if coeffs is not None:
        return _eta_weights(len(coeffs) - 1, head)
    if head:
        return _eta_weights(_eta_depth(s), head)
    return _borwein_rows(_borwein_order(max(float(np.abs(s.imag).max()), t_top)))


def _eta_sums(s_values, derivative: bool = False, coeffs=None, t_top: float = 0.0) -> tuple:
    """sum_k (-1)^k c_k (k+1)^{-s} on a batch, and d/ds of it if asked (else None).

    coeffs None is c_k = 1, eta: with every sigma >= 1/2 Borwein's order-n
    sum, n = _borwein_order of the larger of the highest |t| and t_top (a
    scan sizes every batch of one window for its top, so the window takes
    one weight table); otherwise Euler's at depth D = _eta_depth.  A real
    row c_0 .. c_D takes Euler's weights at the depth its length sets (the
    weight form holds for any alternating series: Cohen, Rodriguez
    Villegas and Zagier).  With a_k = c_k (k+1)^{-s} and
    (nabla a)_k = a_k - a_{k+1} Euler's truncated double sum is
    sum_{m<=D} 2^{-(m+1)} (nabla^m a)_0.  If a point has sigma < 1/2, the
    first h = _HEAD_LEVELS levels are summed as they stand and the rest is
    the same sum at depth D - h on b = nabla^h a; h = 0 gives the weight
    form of eta_grid.  One product yields the value and the six settle
    columns (_settled); the derivative -sum_k (-1)^k w_k log(k+1) a_k is
    taken before the differencing.
    """
    arr = np.asarray(s_values if isinstance(s_values, np.ndarray) else list(s_values), dtype=complex)
    if not np.isfinite(arr).all():
        raise DomainError("eta requires finite s")
    if arr.size == 0:
        return arr, (arr if derivative else None)
    log_base, deriv_weights, weights = _weight_rows(arr, coeffs, t_top)
    depth = log_base.size - 1
    sigma = arr.real
    sigma_lo, sigma_hi = float(sigma.min()), float(sigma.max())
    # (k+1)^{-s} built in place, the modulus by a real power (exact
    # integers at integer s); a batch on one vertical line takes its one
    # row of moduli from a cache
    terms = _phasors(arr.imag, log_base)
    if sigma_lo == sigma_hi:
        terms *= _moduli(depth, sigma_lo)
    else:
        terms *= np.power(np.arange(1.0, depth + 2.0), -sigma[:, None])
    if coeffs is not None:
        terms *= np.asarray(coeffs, dtype=float)
    deriv = terms @ deriv_weights if derivative else None
    for level in range(_HEAD_LEVELS if sigma_lo < 0.5 else 0):
        terms[:, level + 1 :] = terms[:, level:-1] - terms[:, level + 1 :]
    return _settled(terms @ weights, depth), deriv


@functools.lru_cache(maxsize=128)
def _moduli(depth: int, sigma: float) -> np.ndarray:
    """Read-only row (k+1)^{-sigma}, k <= depth: the moduli of a batch on one vertical line."""
    row = np.power(np.arange(1.0, depth + 2.0), -sigma)
    row.setflags(write=False)
    return row


def _phasors(heights: np.ndarray, log_base: np.ndarray) -> np.ndarray:
    """e^{-i t log(k+1)} for each height t (rows) and log(k+1) (columns), built in place."""
    out = np.empty((heights.size, log_base.size), dtype=complex)
    phase = out.imag
    np.multiply.outer(-heights, log_base, out=phase)
    np.cos(phase, out=out.real)
    np.sin(phase, out=phase)
    return out


def _settled(sums: np.ndarray, depth: int) -> np.ndarray:
    """The value column of a points x 7 product with _eta_weights or
    _borwein_weights, after the settle check.

    The levels decay geometrically until they hit the rounding floor of the
    inner products; by the calibrated depth the remaining tail is
    negligible unless something is badly off, so a point none of whose
    levels m = D-5 .. D (Borwein: differences from orders n-1 .. n-6) fell
    below 1e-10 (1 + |f|) raises NonConvergenceError.
    """
    mags = np.abs(sums)
    if not (mags[:, 1:].min(axis=1) <= 1e-10 * (1.0 + mags[:, 0])).all():
        raise NonConvergenceError(f"alternating double sum did not settle at depth {depth}")
    return sums[:, 0]


# Borwein's bound (see _borwein_order) falls by this factor per term
_BORWEIN_RATE = math.log(3.0 + math.sqrt(8.0))
# Most terms of Borwein's sum one point may take, checked before any work:
# 130 serve the scans' t <= 120, and 512 reach |t| ~ 548
_MAX_BORWEIN_ORDER = 512


def _borwein_order(t: float) -> int:
    """Terms n of Borwein's eta sum for an error below 3 e^{-34.5} ~ 3e-15 at 1/2 + i t.

    P. Borwein (CMS Conf. Proc. 27, 2000) bounds the error of the order-n
    sum for sigma >= 1/2 by 3 (1 + 2|t|) e^{pi |t| / 2} / (3 + sqrt 8)^n:
    36 terms at t = 16 and 130 at t = 120, against 101 and 341 binomial
    terms (_eta_depth).  A height that needs more than _MAX_BORWEIN_ORDER
    terms (|t| past about 548, or not finite) raises NonConvergenceError.
    """
    t = abs(t)
    order = (0.5 * math.pi * t + math.log(1.0 + 2.0 * t) + 34.5) / _BORWEIN_RATE
    if not order <= _MAX_BORWEIN_ORDER:
        raise NonConvergenceError(
            f"eta at |t| = {t:g} needs more than {_MAX_BORWEIN_ORDER} terms of Borwein's sum"
        )
    return math.ceil(order)


def _borwein_tails(n: int) -> np.ndarray:
    """Borwein's weights (d_n - d_k) / d_n for k < n, read-only, where
    d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!).

    The summands of d_n are a unimodal law on 0..n (mode near n / sqrt 2)
    whose weights are its upper tails P(I >= k+1), built in log space by
    _log_space_tails from the ratios 4 (n+i)(n-i) / ((2i+2)(2i+1)).
    """
    i = np.arange(n)
    return _log_space_tails(np.log(4.0 * (n + i) * (n - i) / ((2.0 * i + 2.0) * (2.0 * i + 1.0))))[1][1:]


def _borwein_weights(n: int) -> np.ndarray:
    """Read-only n x 7 columns of Borwein's eta sum in the shape of _eta_weights:
    column 0 is the order-n sum, columns 1-6 its differences from orders
    n-1 .. n-6 (each about the error of the shorter sum), signs (-1)^k in.

    Cohen, Rodriguez Villegas and Zagier (Experiment. Math. 9, 2000) derive
    the same weights from Chebyshev polynomials.  The differences shrink by
    about 3 + sqrt 8 per order until they meet the rounding floor, so the
    settle check of _settled applies unchanged.
    """
    if n < 7:
        raise DomainError("Borwein's settle columns need n >= 7")
    weights = np.zeros((n, 7))
    for col, m in enumerate(range(n, n - 7, -1)):
        weights[:m, col] = _borwein_tails(m)
    weights[:, 1:] = weights[:, :1] - weights[:, 1:]
    weights[1::2] *= -1.0
    weights.setflags(write=False)
    return weights


# one table per order a scan can take (20 .. 130) and room to spare
@functools.lru_cache(maxsize=128)
def _borwein_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only rows of _eta_sums for Borwein's order-n sum, in the shape of
    _eta_weights: log(k+1), the derivative weights -(-1)^k w_k log(k+1) and
    the columns of _borwein_weights, k < n.
    """
    weights = _borwein_weights(n)
    log_base = np.log(np.arange(1.0, n + 1.0))
    deriv = -log_base * weights[:, 0]
    for row in (log_base, deriv):
        row.setflags(write=False)
    return log_base, deriv, weights


def _eta_line(t_lo: float, step: float, count: int, coeffs=None, t_top: float = 0.0) -> np.ndarray:
    """The alternating series sum_k (-1)^k c_k (k+1)^{-s} at s = 1/2 + i t_j on
    the evenly spaced heights t_j = t_lo + j step, j < count, without the
    count x (D+1) matrix of powers.

    The weights are _eta_sums' (see _weight_rows) for a point at t_top,
    the top of the window the grid serves: a row c_0 .. c_D takes Euler's
    weights of _eta_weights(D, 0), and eta (coeffs None) the
    n = _borwein_order(t_top) columns of Borwein's, about 20 + 0.9 t terms
    against 64 + 2.3 t.  One point takes exact powers.

    Odlyzko and Schonhage (Trans. AMS 309, 1988) evaluate one Dirichlet sum
    at many evenly spaced heights from the fact that its rows of powers are
    shifted copies of one another.  With j = q a + b and q = ceil(sqrt(count)),
    c_k (k+1)^{-1/2 - i t_j} = seed_{a,k} offset_{b,k}, where
    seed_{a,k} = c_k (k+1)^{-1/2} e^{-i t_{qa} log(k+1)} and
    offset_{b,k} = e^{-i b step log(k+1)}.  Each factor is one direct
    exponential, with no recurrence to drift, so about 2 sqrt(count) (D+1)
    exponentials replace count (D+1); the value column and the six settle
    columns are one complex product (seeds * weight column) @ offsets^T,
    with the settle check of _eta_sums.  A point stands at t_{qa} + b step,
    off t_j by the rounding of that sum, a few ulp of t: measured within
    2e-13 (1 + |f|) of exact powers for t <= 120, with either weights.
    Used only on scan grids.
    """
    if count == 1:
        return _eta_sums([complex(0.5, t_lo)], coeffs=coeffs, t_top=t_top)[0]
    log_base, _, weights = _weight_rows(np.array([complex(0.5, t_top)]), coeffs)
    terms = log_base.size
    if coeffs is None:
        moduli = _moduli(terms - 1, 0.5)
    else:
        moduli = np.power(np.arange(1.0, terms + 1.0), -0.5) * np.asarray(coeffs, dtype=float)
    q = math.isqrt(count - 1) + 1
    seeds = _phasors(t_lo + step * (q * np.arange(-(-count // q))), log_base)
    offsets = _phasors(step * np.arange(q), log_base)
    blocks = (seeds[:, None, :] * (weights * moduli[:, None]).T).reshape(-1, terms) @ offsets.T
    sums = blocks.reshape(seeds.shape[0], 7, q).transpose(0, 2, 1).reshape(-1, 7)
    return _settled(sums[:count], terms - 1)


def eta(s: complex) -> complex:
    """Dirichlet eta function, eta_grid([s])[0].

    Relative error <= 1e-10 on the contract region (sigma in [-2, 3],
    |t| <= 60); accuracy degrades gracefully outside.  Non-finite s raises
    DomainError; sigma >= 1/2 past |t| ~ 548 raises NonConvergenceError
    (see _borwein_order).
    """
    return complex(eta_grid([complex(s)])[0])


def eta_grid(s_values) -> np.ndarray:
    """Dirichlet eta on a batch of points through one weighted sum.

    eta(s) = sum_k (-1)^k w_k (k+1)^{-s} for one of two weight rows (see
    _weight_rows).  With every sigma >= 1/2 the batch takes Borwein's
    order-n weights w_k = (d_n - d_k) / d_n (_borwein_weights), n sized
    for its highest |t|.  Otherwise the globally convergent double sum
    eta(s) = sum_{m>=0} 2^{-(m+1)} sum_{k<=m} (-1)^k C(m,k) (k+1)^{-s},
    truncated at the calibrated depth D (the largest of the batch), regroups
    into w_k = sum_{m=k}^{D} 2^{-(m+1)} C(m,k) = P(Bin(D+1, 1/2) >= k+1),
    since 2^{-(m+1)} C(m,k) is the chance that the (k+1)-th head of a fair
    coin comes on toss m+1.  This is Euler's transform as a weight vector
    (Cohen, Rodriguez Villegas and Zagier, Experiment. Math. 9, 2000; the
    batch first splits off three levels, see _eta_sums).  Either way O(n)
    per point and one matrix product per batch.  Raises
    NonConvergenceError when none of the six settle columns fell below
    1e-10 (1 + |eta|).
    """
    return _eta_sums(s_values)[0]


def zeta(s: complex) -> complex:
    """Riemann zeta via eta: zeta(s) = eta(s) / (1 - 2^{1-s}).

    Raises DomainError for non-finite s, at the s = 1 pole and inside a
    1e-3 guard radius around the other zeros of the denominator, on the
    line sigma = 1 at t = 2 pi k / ln 2: removable for zeta, but excluded
    instead of taking limits, since no critical-line scan ever lands there.
    """
    z = complex(s)
    if not cmath.isfinite(z):
        raise DomainError("zeta requires finite s")
    if abs(z - 1.0) < 1e-8:
        raise DomainError("zeta pole at s = 1")
    k = round(z.imag * LN2 / (2.0 * math.pi))
    if k != 0:
        spur = complex(1.0, 2.0 * math.pi * k / LN2)
        if abs(z - spur) < 1e-3:
            raise DomainError(
                f"zeta guard: s within 1e-3 of the removable point 1 + 2*pi*{k}i/ln2; "
                "evaluate eta directly instead"
            )
    den = 1.0 - 2.0 ** (1.0 - z)
    return eta(z) / den
