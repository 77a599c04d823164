"""Exact integer-side arithmetic: sieves, von Mangoldt values, psi and
interval prime counts.

All interval operations are segmented, so queries near 10^12 only ever
need a base table of primes up to 10^6. Segments are processed and
merged in a fixed order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, CoverageError, DomainError

DEFAULT_SEGMENT_LENGTH = 1 << 20
DEFAULT_SIEVE_BUDGET = 10 ** 8

# Windows at most this long are counted by per-candidate primality
# testing instead of sieving; cheaper once the window is much shorter
# than the base prime list.
MR_WINDOW = 64

# Miller-Rabin to the prime bases up to 41 is deterministic below psi_13;
# up to 37, only below psi_12 = 318665857834031151167461, a composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981  # psi_13
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                 47, 53, 59, 61)


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending. Immutable; safe to share."""

    limit: int
    primes: np.ndarray  # int64, ascending

    def check_covers(self, hi: int) -> None:
        """CoverageError unless the table certifies every prime up to hi."""
        if self.limit * self.limit < hi:
            raise CoverageError(
                f"base table to {self.limit} cannot certify primes up to {hi}")

    @cached_property
    def log_cumsum(self) -> np.ndarray:
        """theta at the primes: entry j is the sum of log p over the
        first j primes of the table, so entry 0 is 0."""
        return np.concatenate(
            ([0.0], np.cumsum(np.log(self.primes.astype(np.float64)))))


@dataclass(frozen=True)
class LambdaSegment:
    """Prime powers in the half-open range (lo, hi].

    Parallel arrays: n = p**r runs ascending, log_p = log(p).
    """

    lo: int
    hi: int
    n: np.ndarray        # int64
    log_p: np.ndarray    # float64


def sieve_primes(limit: int) -> PrimeTable:
    """Complete prime table up to ``limit`` (inclusive)."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > DEFAULT_SIEVE_BUDGET:
        raise CapacityError(f"sieve limit {limit} exceeds memory budget "
                            f"{DEFAULT_SIEVE_BUDGET}")
    is_comp = np.zeros(limit + 1, dtype=bool)
    is_comp[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not is_comp[p]:
            is_comp[p * p:: p] = True
    primes = np.nonzero(~is_comp)[0].astype(np.int64)
    return PrimeTable(limit=limit, primes=primes)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below psi_13 (about 3.3 * 10^24)."""
    if n >= MR_LIMIT:
        raise DomainError(f"is_prime is deterministic only below {MR_LIMIT}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(n: int, r: int) -> int:
    """Largest integer a with a**r <= n."""
    if n < 0 or r < 1:
        raise DomainError(f"iroot({n}, {r})")
    if n == 0:
        return 0
    if r >= n.bit_length():
        return 1  # n < 2**r, and 2**r itself is never formed
    a = int(round(n ** (1.0 / r)))
    while a > 0 and a ** r > n:
        a -= 1
    while (a + 1) ** r <= n:
        a += 1
    return a


def _check_interval(lo: int, hi: int, base: PrimeTable) -> None:
    if not 0 <= lo <= hi:
        raise DomainError(f"need 0 <= lo <= hi, got ({lo}, {hi})")
    base.check_covers(hi)


def _segment_primes(lo: int, hi: int, base: PrimeTable) -> np.ndarray:
    """Primes in (lo, hi] by odd-only sieving with the base table."""
    out_two = lo < 2 <= hi
    o0 = lo + 1
    if o0 % 2 == 0:
        o0 += 1
    if o0 > hi:
        return np.array([2], dtype=np.int64) if out_two else \
            np.empty(0, dtype=np.int64)
    n_odds = (hi - o0) // 2 + 1
    mask = np.ones(n_odds, dtype=bool)
    if o0 == 1:
        mask[0] = False
    root = math.isqrt(hi)
    odd_primes = base.primes[1: bisect_right(base.primes, root)]
    for p in odd_primes.tolist():
        start = max(p * p, ((o0 + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start <= hi:
            mask[(start - o0) // 2:: p] = False
    primes = o0 + 2 * np.nonzero(mask)[0].astype(np.int64)
    if out_two:
        primes = np.concatenate(([2], primes))
    return primes


def _segments(lo: int, hi: int, seg_len: int):
    s = lo
    while s < hi:
        e = min(s + seg_len, hi)
        yield s, e
        s = e


def prime_count_interval(lo: int, hi: int, base: PrimeTable, *,
                         seg_len: int = DEFAULT_SEGMENT_LENGTH) -> int:
    """#{p prime : lo < p <= hi}."""
    if lo < 1:
        raise DomainError(f"prime_count_interval requires lo >= 1, got {lo}")
    _check_interval(lo, hi, base)
    if lo == hi:
        return 0
    if hi <= base.limit:
        return int(np.searchsorted(base.primes, hi, side="right")
                   - np.searchsorted(base.primes, lo, side="right"))
    if hi - lo <= MR_WINDOW:
        return sum(1 for n in range(lo + 1, hi + 1) if is_prime(n))
    return sum(len(_segment_primes(s, e, base))
               for s, e in _segments(lo, hi, seg_len))


def prime_counts_at(thresholds, base: PrimeTable, *,
                    seg_len: int = DEFAULT_SEGMENT_LENGTH) -> np.ndarray:
    """pi(t) for every t in ``thresholds``, via one growing sieve pass.

    Far cheaper than independent interval counts when many thresholds
    share the range, e.g. the x // m**k ladder of the counting module.
    """
    ts = np.asarray(thresholds, dtype=np.int64)
    if ts.size == 0:
        return np.zeros(0, dtype=np.int64)
    hi = int(ts.max())
    if hi < 1:
        return np.zeros(ts.shape, dtype=np.int64)
    if hi <= base.limit:
        return np.searchsorted(base.primes, ts, side="right").astype(np.int64)
    _check_interval(1, hi, base)
    order = np.unique(ts)
    counts = np.zeros(order.size, dtype=np.int64)
    running = 0
    for s, e in _segments(0, hi, seg_len):
        ps = _segment_primes(s, e, base)
        i0, i1 = np.searchsorted(order, [s, e], side="right")
        counts[i0:i1] = running + np.searchsorted(ps, order[i0:i1],
                                                  side="right")
        running += len(ps)
    return counts[np.searchsorted(order, ts)]


def lambda_segment(lo: int, hi: int, base: PrimeTable,
                   seg_len: int = DEFAULT_SEGMENT_LENGTH) -> LambdaSegment:
    """All n in (lo, hi] with Lambda(n) != 0, with log p."""
    _check_interval(lo, hi, base)
    parts = [_segment_primes(s, e, base) for s, e in _segments(lo, hi, seg_len)]
    # higher powers: p <= sqrt(hi) always lies within the base table
    powers, roots = [], []
    for p in base.primes[: bisect_right(base.primes, math.isqrt(hi))].tolist():
        pr = p * p
        while pr <= hi:
            if pr > lo:
                powers.append(pr)
                roots.append(p)
            pr *= p
    n_all = np.concatenate(parts + [np.array(powers, dtype=np.int64)])
    p_all = np.concatenate(parts + [np.array(roots, dtype=np.int64)])
    order = np.argsort(n_all)
    return LambdaSegment(lo=lo, hi=hi, n=n_all[order],
                         log_p=np.log(p_all[order].astype(np.float64)))


def lambda_segments(lo: int, hi: int, base: PrimeTable,
                    seg_len: int = DEFAULT_SEGMENT_LENGTH):
    """lambda_segment(s, e) for each segment (s, e] of (lo, hi], ascending,
    after one coverage check; no segment outlives its turn."""
    _check_interval(lo, hi, base)
    for s, e in _segments(lo, hi, seg_len):
        yield lambda_segment(s, e, base, seg_len)


def psi(x, base: PrimeTable) -> float:
    """Chebyshev psi(x) = sum of Lambda(n) over n <= x.

    The one-threshold case of weighted_lambda_sums_at: per-segment sums
    are merged with math.fsum, so the accumulated rounding error stays
    at a few ulps even for 10^8-term sums.
    """
    xf = math.floor(x)
    if xf < 1:
        raise DomainError(f"psi requires x >= 1, got {x}")
    base.check_covers(xf)  # before any int64 conversion
    return float(weighted_lambda_sums_at([xf], base)[0])


def weighted_lambda_sums_at(thresholds, base: PrimeTable, *,
                            seg_len: int = DEFAULT_SEGMENT_LENGTH
                            ) -> np.ndarray:
    """psi(t) for each threshold, in one segmented pass."""
    ts = np.asarray(thresholds, dtype=np.int64)
    if ts.size == 0:
        return np.zeros(0, dtype=np.float64)
    hi = int(ts.max())
    if hi < 2:
        return np.zeros(ts.shape, dtype=np.float64)
    order = np.unique(ts)
    vals = np.zeros(order.size, dtype=np.float64)
    running: list[float] = []
    for seg in lambda_segments(1, hi, base, seg_len):
        i0, i1 = np.searchsorted(order, [seg.lo, seg.hi], side="right")
        for i in range(i0, i1):
            j = np.searchsorted(seg.n, order[i], side="right")
            vals[i] = math.fsum(running + [float(np.sum(seg.log_p[:j]))])
        running.append(float(np.sum(seg.log_p)))
    return vals[np.searchsorted(order, ts)]
