"""Brute-force reference implementations for the verification suites.

Deliberately different algorithms from the production modules: raw
alternating partial sums with four literal averaging rounds over the last
five instead of binomial acceleration (their powers n^{-s} by complete
multiplicativity, one exponential per prime and every composite as
p(n)^{-s} (n/p(n))^{-s} from a cached smallest-prime-factor table, where
production takes moduli and phases per term), iterated averaging level
by level instead of binomial weights, composite Simpson instead of
adaptive Gauss panels, finite differences instead of closed-form
eigen-identities.
Agreement between the two families is evidence rather than tautology;
none of this is fast enough for production use.  The package imports
it to export its names and verify to run its checks, so every command
loads it; no kernel (specfun, waveform, quad, spectra) calls it.

psi_level_sum sums waveform.psi_full's level series term by term; it refuses
past e^lam y = 800, as its levels lose digits to underflow from e^lam y = 1416.
euler_naive also averages a batch of rows along the last axis, each row
bitwise its own call, so a check with several series pays numpy's
per-call overhead once.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers

import numpy as np

from .errors import DomainError, NonConvergenceError, StepSizeError
from .specfun import _laguerre_recurrence, chi
from .waveform import QuantumNumber, _bare_overlaps, phi_s

__all__ = [
    "eta_naive",
    "euler_naive",
    "apply_number_operator",
    "apply_bk_operator",
    "quad_naive",
    "psi_level_sum",
]

LEVEL_SUM_REACH = 800.0  # largest e^lam y psi_level_sum sums
MAX_NAIVE_TERMS = 50_000  # largest eta_naive series; its factor table is cached
_TAIL_LEVELS = 4  # averaging rounds eta_naive applies to its last partial sums


@functools.lru_cache(maxsize=2)
def _factor_table(terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smallest prime factor p(n), cofactor n/p(n) and the primes, n <= terms.

    Read-only int64 arrays indexed by n (p(1) = cofactor(1) = 1, entry 0
    unused), the primes ascending: the table of Gries and Misra's linear
    sieve (CACM 21, 1978), written here by one slice assignment
    spf[p^2::p] = p per prime p up to sqrt(terms), those primes taken from
    a small Eratosthenes sieve.  A composite n has its smallest prime
    factor p <= sqrt(n) and lies in p's slice; the primes go in descending
    order, so the smallest one writes last.  The entries left 0 from 2 on
    are the primes.
    """
    root = math.isqrt(terms)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    spf = np.zeros(terms + 1, dtype=np.int64)
    for p in np.flatnonzero(small)[::-1].tolist():
        spf[p * p :: p] = p
    primes = np.flatnonzero(spf == 0)[2:]
    spf[primes] = primes
    spf[:2] = 1
    cof = np.arange(terms + 1) // spf
    for table in (spf, cof, primes):
        table.setflags(write=False)
    return spf, cof, primes


def _powers(z: complex, terms: int) -> np.ndarray:
    """n^{-z} for n = 1..terms by complete multiplicativity.

    Only the primes take an exponential; each dyadic block [2^j, 2^{j+1})
    is then one in-place gather-multiply a[p(n)] a[n/p(n)] of entries
    below it, operands in that order (a prime times a[1] = 1, exactly).
    """
    spf, cof, primes = _factor_table(terms)
    a = np.empty(terms + 1, dtype=complex)
    a[1] = 1.0
    a[primes] = np.exp(-z * np.log(primes))
    lo = 2
    while lo <= terms:
        hi = min(2 * lo, terms + 1)
        np.multiply(a[spf[lo:hi]], a[cof[lo:hi]], out=a[lo:hi])
        lo = hi
    return a[1:]


def eta_naive(s: complex, terms: int = 10_000) -> complex:
    """Raw alternating sum for eta with four averaging rounds at the end.

    Averages the last five partial sums S_{N-4} .. S_N of the N = terms
    series four times over (Euler's transform on the tail; Cohen, Rodriguez
    Villegas and Zagier, Experiment. Math. 9, 2000), by euler_naive on
    S_{N-4}, one pairwise sum of the first N-4 terms, and the last four
    terms.  The remaining error is about |s(s+1)(s+2)(s+3)| N^{-(sigma+4)}
    / 32, within 1e-14 of eta at verify's points on the default 10,000
    terms.  Requires finite s with sigma > 0 and an even number of terms,
    at least 6 and at most MAX_NAIVE_TERMS.  The powers take one
    exponential per prime and every composite as p(n)^{-s} (n/p(n))^{-s}
    (_powers), on the factor table cached for the last two term counts.
    """
    z = complex(s)
    if not cmath.isfinite(z):
        raise DomainError("raw series needs finite s")
    if z.real <= 0.0:
        raise DomainError("raw series needs Re s > 0")
    if terms < _TAIL_LEVELS + 2 or terms % 2 != 0:
        raise DomainError(f"terms must be even and at least {_TAIL_LEVELS + 2}")
    if terms > MAX_NAIVE_TERMS:
        raise DomainError(f"terms must be at most {MAX_NAIVE_TERMS:,}")
    a = _powers(z, int(terms))
    a[1::2] *= -1.0
    a[-_TAIL_LEVELS - 1] = np.sum(a[: -_TAIL_LEVELS])
    return euler_naive(a[-_TAIL_LEVELS - 1 :])[0]


def _eta_naive_estimate(s: complex, terms: int) -> float:
    """eta_naive's error estimate: prod_{j<4} (|s| + j) N^{-(sigma+4)}.

    The leading tail term |s(s+1)(s+2)(s+3)| N^{-(sigma+4)} / 32 with each
    |s + j| bounded by |s| + j and the 1/32 dropped; rounding is not in it.
    """
    z = complex(s)
    growth = math.prod(abs(z) + j for j in range(_TAIL_LEVELS))
    return growth * terms ** (-(z.real + _TAIL_LEVELS))


def euler_naive(terms):
    """Euler transformation by literal iterated averaging of partial sums.

    Averages neighbouring partial sums level by level, O(N^2), until one
    value is left.  Returns it with the magnitude of the last correction
    (the final value minus the last entry of the level before; 0 for a
    single term).  The reference for the weighted transforms of the
    production modules.  A 2-D batch averages each row along its last
    axis and returns an array of values and one of corrections, each row
    bitwise its own 1-D call; the magnitudes are Python's abs (hypot), as
    for one row.
    """
    row = np.cumsum(np.asarray(terms, dtype=complex), axis=-1)
    count = row.shape[-1]
    if count == 0:
        raise DomainError("need at least one term")
    while row.shape[-1] > 1:
        before, row = row[..., -1], 0.5 * (row[..., :-1] + row[..., 1:])
    values = row[..., 0]
    if count == 1:
        changes = [0.0] * values.size
    else:
        changes = [abs(d) for d in np.atleast_1d(values - before).tolist()]
    if row.ndim == 1:
        return complex(values), changes[0]
    return values, np.array(changes)


def apply_number_operator(n: int, y: float, h: float = 1e-4) -> float:
    """Finite-difference application of the half-line number operator.

    Computes [-(1/2)(y chi'' + (y chi)'') + (y/4 - 1/2) chi] / chi at y
    with central second differences on chi and on the product y chi,
    then one Richardson step combining h and h/2.  The exact ratio is n.
    chi takes the five points y, y -+ h, y -+ h/2 in one call.
    """
    if not (0 <= n < math.inf and n == int(n)):
        raise DomainError("n must be a nonnegative integer")
    if h <= 0.0 or y <= 2.0 * h:
        raise DomainError("need y > 2h > 0")
    half = 0.5 * h
    base, *sides = chi(int(n), np.array([y, y - h, y + h, y - half, y + half])).tolist()
    if abs(base) < 1e-6:
        raise StepSizeError(
            f"y = {y:g} is too close to a node of the level-{n} eigenfunction"
        )

    def estimate(step: float, cm: float, cp: float) -> float:
        ym, yp = y - step, y + step
        d2_chi = (cp - 2.0 * base + cm) / (step * step)
        d2_ychi = (yp * cp - 2.0 * y * base + ym * cm) / (step * step)
        val = -0.5 * (y * d2_chi + d2_ychi) + (0.25 * y - 0.5) * base
        return val / base

    e1 = estimate(h, *sides[:2])
    e2 = estimate(half, *sides[2:])
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
    if not isinstance(panels, numbers.Integral):
        raise DomainError("panels must be an integer")
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


def psi_level_sum(
    x: float, y: float, s: complex, n: int, lam: float, max_terms: int = 1024
) -> complex:
    """Off-boundary wave function by the direct level sum.

    Sums A_m chi_m(Y) (m+1)^{-s} phi_s(x/(m+1)) over m, Y = e^lam y, A_m the
    bare overlap of level m with the squeezed level n.  At Y = 0 the terms
    alternate and euler_naive converges; once chi_m(Y) oscillates, the terms
    decay like ((1-e^{-lam})/(1+e^{-lam}))^m and the plain sum settles.
    chi_m(Y) is negligible for 4m + 2 < Y, so the depth starts at the power
    of two at or above max(64, Y/2 + 64) and doubles until an estimate moves
    by at most 1e-12 of the largest term, within max_terms.  n is checked as
    psi_full checks it (QuantumNumber): 2.0 and numpy's 2 give the n = 2 sum.
    """
    QuantumNumber(n)
    Y = np.array([math.exp(lam) * y])
    if not 0.0 <= Y[0] <= LEVEL_SUM_REACH:
        raise NonConvergenceError(f"level sum: e^lambda y = {Y[0]:.6g} is past {LEVEL_SUM_REACH:g}")
    depth = 1 << math.ceil(math.log2(max(64.0, 0.5 * Y[0] + 64.0)))
    prev_plain = math.inf
    while depth <= max_terms:
        m = np.arange(depth)
        levels = _laguerre_recurrence(depth - 1, Y, np.exp(-0.5 * Y), all_orders=True)[:, 0]
        profile = np.exp(-s * np.log1p(m)) * phi_s(x / (m + 1.0), s)
        terms = _bare_overlaps(int(n), depth - 1, lam) * levels * profile
        tol = 1e-12 * float(np.max(np.abs(terms)))
        value, change = euler_naive(terms)
        plain = complex(np.sum(terms))
        if change <= tol or abs(plain - prev_plain) <= tol:
            return value if change <= tol else plain
        prev_plain, depth = plain, 2 * depth
    raise NonConvergenceError(f"level sum not converged within {max_terms} terms")
