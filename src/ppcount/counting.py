"""Counting functions for integers of the form p * m^k, their weighted
(von Mangoldt) analogues and short-interval counts, all plain numbers;
and, apart from them, the comparisons with the analytic main terms:
the per-m main term of C_k(x) beside its leading order zeta(k) li(x),
normalized errors, and short-interval deviations.

Two independent routes compute the headline count: summing pi(x / m^k)
over m (count_exact, every pi from the table or from the Lucy_Hedgehog
recurrence of arith.prime_counts_at) and classifying each n <= x by the
primality of its k-free part (count_oracle, with its own sieve). They
must agree exactly.
"""

from __future__ import annotations

import math
import numpy as np

from . import arith
from .analytic import exponents, interval_main_term, li, zeta_int
from .arith import PrimeTable, iroot
from .errors import CapacityError, DomainError

# Beyond k = 64 only m = 1 contributes for any feasible x; capping
# avoids needless giant-power arithmetic.
K_CAP = 64

ORACLE_CEILING = 10 ** 7

# count_interval builds its windows for this many m at a time, about
# 2 MB of int64 arrays
_M_BLOCK = 1 << 16


def _check_xk(x: int, k: int) -> int:
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    return min(k, K_CAP)


def _m_powers(x: int, k: int, base: PrimeTable) -> np.ndarray:
    """m^k for m = 1 .. x^(1/k), ascending, int64; x and k are checked,
    and the coverage of x, before anything is allocated."""
    k = _check_xk(x, k)
    base.check_covers(x)
    return np.arange(1, iroot(x, k) + 1, dtype=np.int64) ** k


def count_exact(x: int, k: int, base: PrimeTable) -> int:
    """C_k(x) as sum over m <= x^(1/k) of pi(x // m^k).

    One call of arith.prime_counts_at, handed the divisors m^k, resolves
    the whole ladder: a table lookup for x <= base.limit, else one
    Lucy_Hedgehog recurrence for x, in O(x^(3/4)) time and O(x^(1/2))
    memory, which sieves nothing.
    """
    return int(np.sum(arith.prime_counts_at(_m_powers(x, k, base), x, base)))


def _oracle_hits(x: int, k: int) -> np.ndarray:
    """hits[n] for n = 0..x: whether n = p * m^k, by per-n k-free
    classification.

    Independent of the pi-summation route: n = p * m^k exactly when
    the k-free part of n (n with p^k divided out once per multiple of
    p^k, p^2k, ...) is prime, looked up in the oracle's own sieve.
    """
    k = _check_xk(x, k)
    if x > ORACLE_CEILING:
        raise CapacityError(
            f"oracle route capped at {ORACLE_CEILING}, got x = {x}")
    prime = np.ones(x + 1, dtype=bool)
    prime[:2] = False
    kfree = np.arange(x + 1, dtype=np.int64)
    for p in range(2, math.isqrt(x) + 1):
        if prime[p]:
            prime[p * p:: p] = False
            q = pk = p ** k
            while q <= x:
                kfree[q:: q] //= pk
                q *= pk
    return prime[kfree]


def count_oracle_prefix(x: int, k: int) -> np.ndarray:
    """Cumulative C_k(t) for t = 0..x by the k-free route."""
    return np.cumsum(_oracle_hits(x, k), dtype=np.int64)


def count_oracle(x: int, k: int) -> int:
    """#{n <= x : the k-free part of n is prime}; no int64 prefix array
    is built for one count."""
    return int(np.count_nonzero(_oracle_hits(x, k)))


def cstar(x: int, k: int, base: PrimeTable) -> float:
    """C*_k(x) = sum of Lambda(n) over n m^k <= x, via psi(x // m^k).

    One call of arith.weighted_lambda_sums_at, handed the divisors m^k,
    reads every psi off one Lucy recurrence that carries theta beside
    pi, plus the table's proper prime powers, so it sieves nothing
    beyond the base and reaches count_exact's x. In float64, within
    about 5e-15 relative; (10^10, 2) took 0.16-0.18 s and (10^12, 2)
    3.4-4.3 s.
    """
    psis = arith.weighted_lambda_sums_at(_m_powers(x, k, base), x, base)
    return math.fsum(psis.tolist())


def prime_power_correction(x: int, k: int, base: PrimeTable) -> float:
    """The higher-prime-power part of C*_k(x), the sum of log p over
    p^r m^k <= x with r >= 2: each proper prime power p^r <= x of the
    table contributes log p once per m with m^k <= x // p^r."""
    mk = _m_powers(x, k, base)
    n, p = base.proper_powers
    j = np.searchsorted(n, x, side="right")
    m_count = np.searchsorted(mk, x // n[:j], side="right")
    return math.fsum((np.log(p[:j].astype(np.float64)) * m_count).tolist())


def count_interval(x: int, h: int, k: int, base: PrimeTable, *,
                   seg_len: int = arith.DEFAULT_SEGMENT_LENGTH) -> int:
    """#{n in (x, x+h] : n = p * m^k}, counting only the per-m windows
    (x // m^k, (x+h) // m^k]; nothing below x is ever sieved.

    The coverage of x + h is checked first. The windows are built in
    int64 for _M_BLOCK values of m at a time, and only the non-empty
    ones reach arith.prime_count_interval: once m^k > h a window holds
    at most one integer, and the empty ones, most of the m at large x,
    cost no Python loop turn.
    """
    k = _check_xk(x, k)
    if h < 1:
        raise DomainError(f"interval length h must be >= 1, got {h}")
    base.check_covers(x + h)  # before the int64 windows
    m_top = iroot(x + h, k)
    total = 0
    for m0 in range(1, m_top + 1, _M_BLOCK):
        mk = np.arange(m0, min(m0 + _M_BLOCK, m_top + 1),
                       dtype=np.int64) ** k
        lo, hi = x // mk, (x + h) // mk
        full = hi > lo
        for a, b in zip(lo[full].tolist(), hi[full].tolist()):
            total += arith.prime_count_interval(max(a, 1), b, base,
                                                seg_len=seg_len)
    return total


def normalized_error(diff: float, x: int, k: int) -> float:
    """diff / (x^(1/2) log^A(k) x), the scale of the RH-conditional error
    term; 0.0 for x < 2."""
    if x < 2:
        return 0.0
    return diff / (math.sqrt(x) * math.log(x) ** exponents(k))


def count_main_terms(x: int, k: int) -> tuple[float, float]:
    """(main, leading) terms for C_k(x): the per-m main term, the sum
    over m of the integral of dt/log t over [2, x/m^k], and the leading
    order zeta(k) li(x).

    The count is the sum of pi(x / m^k), so the per-m term is the one it
    follows. zeta(k) li(x) misses a secondary term of order x / log^2 x,
    and e_k against it grows with x: 4.23 (k = 2) and 35.6 (k = 3) at
    x = 10^12, where the per-m term gives -0.0022 and -0.0050. Both are
    0.0 for x < 2.
    """
    k = _check_xk(x, k)
    if x < 2:
        return 0.0, 0.0
    return interval_main_term(1, x - 1, k), zeta_int(k) * li(x)


def interval_deviation(x: int, h: int, k: int,
                       count: int) -> tuple[float, float]:
    """(expected, relative deviation) of a count on (x, x+h] against the
    per-m main term; the one comparison behind `ppcount interval` and
    the short-interval check."""
    expected = interval_main_term(x, h, k)
    if expected == 0.0:
        raise DomainError(
            f"no main term on ({x}, {x + h}]: it lies at or below t = 2")
    return expected, count / expected - 1.0


def interval_scaling(x: int, f: float, k: int) -> tuple[int, int]:
    """(h, delta) for the short-interval experiment at x: h = f * scale
    and delta = f^(1/2) * scale, rounded, with scale = x^(1/2) log^A(k) x
    and 2 <= delta <= h."""
    if x < 1 or not f > 1.0:
        raise DomainError("the interval scaling requires x >= 1 and f > 1, "
                          f"got x = {x}, f = {f}")
    scale = math.sqrt(x) * math.log(x) ** exponents(k)
    if not math.isfinite(f * scale):
        raise DomainError(f"h = f * x^(1/2) log^A x overflows at f = {f}")
    h = max(2, int(round(f * scale)))
    return h, min(h, max(2, int(round(math.sqrt(f) * scale))))
