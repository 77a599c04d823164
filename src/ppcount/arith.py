"""Exact integer-side arithmetic: sieves, von Mangoldt values, psi and
prime counts.

One odd-only Eratosthenes kernel, ``_segment_primes``, sieves every
window into a mask of its odd candidates. ``_list_primes`` lists the
primes the mask leaves, for the base table (built from the table up
to its square root) and ``lambda_segment``; ``prime_count_interval``
only counts them, one ``np.count_nonzero`` per segment. The kernel
strikes in two orders. The sparse base primes, those above 1/32 of
the window's odd candidates and so striking it at most 32 times, are
struck together, rank by rank, as in Bays and Hudson's segmented sieve
(BIT 17, 1977), once more of them strike the window than the rank loop
has turns to pay for (most of the base, in a window far above the
table); every other prime takes its own slice. So no Python loop turn
goes to each prime that strikes only a few times. The table itself
lists the proper prime powers p^r (r >= 2) it certifies, once
(``PrimeTable.proper_powers``); every prime-power walk takes its slice
of that list. Interval operations are segmented, so queries near 10^12
only ever need a base table of primes up to 10^6. Segments are
processed and merged in a fixed order. The pi and psi ladders of the
counting module sieve nothing: handed the divisors n = m^k and x,
``prime_counts_at`` answers pi(x // n) from the table, or above it from
the Lucy_Hedgehog recurrence over the table's primes, which gives pi at
every x // n at once. The recurrence strikes in two orders too: the
primes up to x^(1/3) one loop turn each, and the primes above it, which
read only values that none of them writes, all at once in blocks of
(i, p) pairs; at x near 10^9 that is 3 233 of its 3 401 primes.
``weighted_lambda_sums_at`` answers psi(x // n) through the same body:
the recurrence carries theta beside pi when asked (log is additive, so
the n = p*j it strikes take log p each plus the sum of their log j), in
float64, measured within 4.9e-15 relative, and the table's proper prime
powers up to x // n add the rest. Each carried sum strikes by one
chained expression, the same in both orders: log p times the strike
of the sum before it, plus its own difference. Both reach
x = LUCY_ROOT_LIMIT^2, about 10^14.

No window is tested candidate by candidate: ``is_prime`` (Miller-Rabin)
serves only callers that test single numbers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import floordiv

import numpy as np

from .errors import CapacityError, CoverageError, DomainError

DEFAULT_SEGMENT_LENGTH = 1 << 20
DEFAULT_SIEVE_BUDGET = 10 ** 8

# No window is tested candidate by candidate: every window above the
# table is sieved, however short (on the 654 windows of at most 64
# integers of count_interval(10^12 + 140891, 10^7), k = 2 and 3,
# Miller-Rabin tests took 27 ms and the counted masks 13 ms, 2-vCPU VM).
# The constant stays, at 0, only because the benchmark's tracer
# (perfbench/tracing.py) reads it to classify windows; no library code
# reads it.
MR_WINDOW = 0

# A base prime above n_odds / _FEW_STRIKES, n_odds the window's odd
# candidates, is sparse there: it strikes at most _FEW_STRIKES times. The
# sparse primes are struck together, rank by rank, once more than
# _RANK_MIN of them strike the window: that loop's at most _FEW_STRIKES
# turns of five numpy calls each cost about as much as 5 * _FEW_STRIKES
# slice assignments. Fewer sparse primes take their slices.
_FEW_STRIKES = 32
_RANK_MIN = 5 * _FEW_STRIKES

# The Lucy recurrence's int64 arrays take 184 MB at hi = 10^13; this
# bound on isqrt(hi) caps hi near 10^14, about 0.5 GB
LUCY_ROOT_LIMIT = 10 ** 7

# _lucy_batch strikes the primes above hi^(1/3) in blocks of whole i
# values of about this many (i, p) pairs, 128 KB per int64 array; 2^16
# took no less time, and count-ladder's jobs run 40 times in one
# process peaked 0.6-0.8 MB higher with it
_LUCY_BLOCK = 1 << 14

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
    def proper_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, p): every p**r <= limit**2 with r >= 2, n ascending, with
        its prime p; int64, built on first use."""
        hi = self.limit * self.limit
        ps, pr, powers, roots = self.primes, self.primes * self.primes, [], []
        while ps.size:
            powers.append(pr)
            roots.append(ps)
            keep = pr <= hi // ps
            ps = ps[keep]
            pr = pr[keep] * ps
        n, p = np.concatenate(powers), np.concatenate(roots)
        order = np.argsort(n)
        return n[order], p[order]

    @cached_property
    def psi_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, cum): every prime power n <= limit, ascending, and
        cum[j] = the sum of log p over the first j of them, summed in
        long double (cum[0] = 0); built on first use."""
        seg = _with_powers(self.primes, 0, self.limit, self)
        return seg.n, np.cumsum(np.concatenate(([0.0], seg.log_p)),
                                dtype=np.longdouble)


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
    """Complete prime table up to ``limit`` (inclusive): one sieve of
    (0, limit] with the table up to sqrt(limit)."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > DEFAULT_SIEVE_BUDGET:
        raise CapacityError(f"sieve limit {limit} exceeds memory budget "
                            f"{DEFAULT_SIEVE_BUDGET}")
    primes = (np.arange(2, limit + 1, dtype=np.int64) if limit < 4 else
              _list_primes(0, limit, sieve_primes(math.isqrt(limit))))
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
    # n < 2^bits, so 2^ceil(bits / r) is above the root, and Newton's
    # integer step descends to the root from any start above it
    a = 1 << -(-n.bit_length() // r)
    while True:
        b = ((r - 1) * a + n // a ** (r - 1)) // r
        if b >= a:
            return a
        a = b


def _check_interval(lo: int, hi: int, base: PrimeTable) -> None:
    if not 0 <= lo <= hi:
        raise DomainError(f"need 0 <= lo <= hi, got ({lo}, {hi})")
    base.check_covers(hi)


def _segment_primes(lo: int, hi: int,
                    base: PrimeTable) -> tuple[np.ndarray, int]:
    """(mask, o0): the odd-only sieve of (lo, hi] with the base table.
    mask[i] is True exactly when o0 + 2*i is prime, o0 = max(3, first
    odd > lo); each odd base prime p <= sqrt(hi) strikes its odd
    multiples from max(p*p, o0) on, and a p with none in the mask costs
    no loop turn. The prime 2 is the caller's: _list_primes lists the
    primes, prime_count_interval counts them.

    Two strike orders share the mask, split by one rule. The sparse
    primes are the suffix of the base above n_odds / _FEW_STRIKES, found
    by one bisection; none strikes more than _FEW_STRIKES times. When
    more than _RANK_MIN of them strike the window, they are struck rank
    by rank, one numpy assignment per rank for all of them at once, so
    at most _FEW_STRIKES turns; windows far above the table, where most
    base primes strike once or twice, take this order. Every other
    prime that strikes takes one slice assignment, a loop turn per
    prime. A window that stays below the gate (a full segment on a
    small base, or one that only the primes near sqrt(hi) strike, from
    p*p on) builds no array beyond the hit filter."""
    o0 = max(3, (lo + 1) | 1)
    n_odds = max(0, (hi - o0) // 2 + 1)
    mask = np.ones(n_odds, dtype=bool)
    ps = base.primes[1: bisect_right(base.primes, math.isqrt(hi))]
    # mask index of p * m, m the least odd m >= max(p, o0 / p)
    js = ((np.maximum(ps, -(-o0 // ps)) | 1) * ps - o0) // 2
    hit = js < n_odds
    # the sparse primes ps[i0:] exceed n_odds / _FEW_STRIKES, so each
    # strikes at most _FEW_STRIKES times
    i0 = bisect_right(ps, n_odds // _FEW_STRIKES)
    if np.count_nonzero(hit[i0:]) > _RANK_MIN:
        rs, rj = ps[i0:][hit[i0:]], js[i0:][hit[i0:]]
        hit[i0:] = False
        while rj.size:
            mask[rj] = False
            rj = rj + rs
            keep = rj < n_odds
            rs, rj = rs[keep], rj[keep]
    for p, j in zip(ps[hit].tolist(), js[hit].tolist()):
        mask[j::p] = False
    return mask, o0


def _list_primes(lo: int, hi: int, base: PrimeTable) -> np.ndarray:
    """Primes in (lo, hi], ascending, int64: 2 when lo < 2 <= hi, then
    the odd candidates that one _segment_primes mask leaves standing."""
    mask, o0 = _segment_primes(lo, hi, base)
    two = np.array([2] if lo < 2 <= hi else [], dtype=np.int64)
    return np.concatenate((two, o0 + 2 * np.flatnonzero(mask)))


def _segments(lo: int, hi: int, seg_len: int):
    s = lo
    while s < hi:
        e = min(s + seg_len, hi)
        yield s, e
        s = e


def prime_count_interval(lo: int, hi: int, base: PrimeTable, *,
                         seg_len: int = DEFAULT_SEGMENT_LENGTH) -> int:
    """#{p prime : lo < p <= hi}.

    However short the window, and inside the table or above it, segment
    by segment, each segment's _segment_primes mask counted with
    np.count_nonzero, plus 1 for p = 2 when lo < 2 <= hi; no prime is
    listed. count_interval looks the windows inside the table up itself.
    """
    if lo < 1:
        raise DomainError(f"prime_count_interval requires lo >= 1, got {lo}")
    _check_interval(lo, hi, base)
    return (lo < 2 <= hi) + sum(
        int(np.count_nonzero(_segment_primes(s, e, base)[0]))
        for s, e in _segments(lo, hi, seg_len))


def check_lucy_reach(hi: int) -> None:
    """CapacityError once isqrt(hi) passes LUCY_ROOT_LIMIT, where the
    Lucy recurrence's arrays would pass about 0.5 GB. Both ladders, and
    count, sweep and cstar before they sieve, refuse through it."""
    r = math.isqrt(hi)
    if r > LUCY_ROOT_LIMIT:
        raise CapacityError(f"ladder to {hi} needs the Lucy recurrence to "
                            f"isqrt {r}, beyond its bound {LUCY_ROOT_LIMIT}")


def prime_counts_at(ns, hi: int, base: PrimeTable) -> np.ndarray:
    """pi(hi // n) for every n >= 1 in ``ns``, as on the x // m**k
    ladder of the counting module.

    Up to hi <= base.limit, one lookup in the table. Above it, pi is
    read off the Lucy_Hedgehog recurrence for hi, O(hi^(3/4)) time,
    O(hi^(1/2)) memory; CapacityError once isqrt(hi) passes
    LUCY_ROOT_LIMIT.
    """
    return _ladder(ns, hi, base, theta=False)


def _ladder(ns, hi: int, base: PrimeTable, theta: bool) -> np.ndarray:
    """pi(hi // n), or psi(hi // n) when ``theta`` is set, for every n
    in ``ns``: the body of prime_counts_at and weighted_lambda_sums_at,
    which read the last pair of _lucy_counts(hi, base, theta)."""
    base.check_covers(hi)
    ns = np.asarray(ns, dtype=np.int64)
    if hi <= base.limit:
        n, cum = base.psi_table if theta else (base.primes, None)
        at = np.searchsorted(n, hi // ns, side="right")
        return cum[at].astype(np.float64) if theta else at.astype(np.int64)
    check_lucy_reach(hi)
    got = _at_quotients(ns, hi, *_lucy_counts(hi, base, theta)[-1])
    if theta:
        n, p = base.proper_powers
        j = np.searchsorted(n, hi, side="right")
        cum = np.cumsum(np.concatenate(([0.0],
                                        np.log(p[:j].astype(np.float64)))))
        got = got + cum[np.searchsorted(n[:j], hi // ns, side="right")]
    return got


def _at_quotients(ns: np.ndarray, hi: int, small: np.ndarray,
                  large: np.ndarray) -> np.ndarray:
    """S(hi // n) for every n in ``ns`` from one (small, large) pair of
    _lucy_counts: large[n] for n <= isqrt(hi), small[hi // n] otherwise."""
    r = math.isqrt(hi)
    return np.where(ns <= r, large[np.minimum(ns, r)],
                    small[hi // np.maximum(ns, r + 1)])


def _lucy_counts(hi: int, base: PrimeTable,
                 theta: bool = False) -> list[tuple[np.ndarray, np.ndarray]]:
    """[(small, large)] for S = pi, followed by the same pair for
    S = theta when ``theta`` is set: small[v] = S(v) for v <= r =
    isqrt(hi) and large[i] = S(hi // i) for 1 <= i <= r.

    pi starts as v - 1, the count of 2..v, and theta as log(v!), the sum
    of log n over 2..v (math.lgamma, float64). Each table prime p <= r
    strikes the n = p*j whose least prime factor is p, for v >= p*p,
    each carried sum by one chained expression, log p times the strike
    of the sum before it (none for pi) plus its own difference:

        pi(v) -= d = pi(v // p) - pi(p - 1)
        theta(v) -= log p * d + (theta(v // p) - theta(p - 1))

    One statement writes each region of each pair; the rows v = p*p .. r
    are chained on the r/p values of v // p, before one np.repeat.

    It strikes in two orders, split at c = iroot(hi, 3). The primes
    p <= c strike in turn, one loop turn each; every right-hand side of
    p is formed before its pair is written, so it reads S as it was
    before p. The primes above c strike together, in _lucy_batch, by
    the same chain, from one snapshot: none of them reads a value
    another writes. small is written only by the p with p*p <= r, all
    below c, so it is final by then. A p with p**3 > hi writes large[i]
    only for i <= hi // p**2, which is below p, and reads large[i*p]
    only at i*p >= p; so every index written by a prime above c lies
    below every index read by one, and their subtractions commute.
    """
    r = math.isqrt(hi)
    # q[i] = hi // i for i >= 1
    q = hi // np.maximum(np.arange(r + 1, dtype=np.int64), 1)
    pairs = [(np.maximum(np.arange(-1, r, dtype=np.int64), 0), q - 1)]
    if theta:
        # log(v!) = lgamma(v + 1) at v + 1 = 1 .. r + 1, and at
        # hi // i + 1 = (hi + i) // i, read off ranges: no list of Python
        # ints is built (large[0] = lgamma(hi + 1), as large[1])
        q1 = map(floordiv, range(hi + 1, hi + r + 1), range(1, r + 1))
        pairs.append(tuple(np.fromiter(map(math.lgamma, v), np.float64, r + 1)
                           for v in (range(1, r + 2), chain([hi + 1], q1))))
    small, large = pairs[0]
    ic = bisect_right(base.primes, iroot(hi, 3))
    for p in base.primes[:ic].tolist():
        sp, top = small[p - 1], min(r, hi // (p * p))
        # pi(v // p) - pi(p - 1) for v = hi // i, 1 <= i <= top, where
        # hi // i // p = hi // (i*p) is large[i*p] while i*p <= r
        mid = min(top, r // p)
        j = q[mid + 1: top + 1] // p
        d_mid = large[p: mid * p + 1: p] - sp
        d_top = small[j] - sp
        # the same for v = p*p .. r, once per value of v // p
        d_row = small[p: r // p + 1] - sp if p * p <= r else None
        for k, (sm, lg) in enumerate(pairs):
            if k:  # a later sum: chain the strikes of the one before it
                lp, sp = math.log(p), sm[p - 1]
                d_mid = lp * d_mid + (lg[p: mid * p + 1: p] - sp)
                d_top = lp * d_top + (sm[j] - sp)
                if d_row is not None:
                    d_row = lp * d_row + (sm[p: r // p + 1] - sp)
            lg[1: mid + 1] -= d_mid
            lg[mid + 1: top + 1] -= d_top
            if d_row is not None:
                sm[p * p:] -= np.repeat(d_row, p)[: r + 1 - p * p]
    _lucy_batch(hi, base.primes[ic: bisect_right(base.primes, r)], pairs)
    return pairs


def _lucy_batch(hi: int, ps: np.ndarray,
                pairs: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Strike the primes ``ps``, all with p**3 > hi, into _lucy_counts's
    ``pairs`` at once, by the loop's chain: for each i, each pair's
    large[i] loses the sum over the p with p*p <= hi // i of its strike
    at v = hi // i, S(hi // (i*p)) read by _at_quotients's rule, minus
    S(p - 1), plus log p times the previous pair's strike. The pairs
    (i, p) run i-major, p ascending, in blocks of whole i of about
    _LUCY_BLOCK pairs; np.add.reduceat sums each i's terms, in int64 for
    pi."""
    if not ps.size:
        return
    # n[i - 1] = #{p in ps : p*p <= hi // i}, at least 1 up to i_max
    i_max = hi // int(ps[0]) ** 2
    n = np.searchsorted(ps * ps, hi // np.arange(1, i_max + 1), side="right")
    starts = np.concatenate(([0], np.cumsum(n)))
    a = 0
    while a < i_max:
        # i = a + 1 .. b: the whole i that fit in _LUCY_BLOCK pairs, or one
        b = max(a + 1, int(np.searchsorted(starts, starts[a] + _LUCY_BLOCK,
                                           side="right")) - 1)
        at = starts[a:b] - starts[a]
        p = ps[np.arange(starts[b] - starts[a]) - np.repeat(at, n[a:b])]
        ip = np.repeat(np.arange(a + 1, b + 1, dtype=np.int64), n[a:b]) * p
        d = None
        for small, large in pairs:
            e = _at_quotients(ip, hi, small, large) - small[p - 1]
            d = e if d is None else np.log(p.astype(np.float64)) * d + e
            large[a + 1: b + 1] -= np.add.reduceat(d, at)
        a = b


def lambda_segment(lo: int, hi: int, base: PrimeTable) -> LambdaSegment:
    """All n in (lo, hi] with Lambda(n) != 0, with log p: the primes of
    one sieve of (lo, hi] and the table's proper prime powers there."""
    _check_interval(lo, hi, base)
    return _with_powers(_list_primes(lo, hi, base), lo, hi, base)


def _with_powers(primes: np.ndarray, lo: int, hi: int,
                 base: PrimeTable) -> LambdaSegment:
    """The primes of (lo, hi] merged with the table's proper prime
    powers there."""
    n, p = base.proper_powers
    i0, i1 = np.searchsorted(n, [lo, hi], side="right")
    at = np.searchsorted(primes, n[i0:i1])
    return LambdaSegment(
        lo=lo, hi=hi, n=np.insert(primes, at, n[i0:i1]),
        log_p=np.log(np.insert(primes, at, p[i0:i1]).astype(np.float64)))


def lambda_segments(lo: int, hi: int, base: PrimeTable):
    """lambda_segment(s, e) for each segment (s, e] of (lo, hi], ascending,
    after one coverage check; no segment outlives its turn."""
    _check_interval(lo, hi, base)
    for s, e in _segments(lo, hi, DEFAULT_SEGMENT_LENGTH):
        yield lambda_segment(s, e, base)


def psi(x, base: PrimeTable) -> float:
    """Chebyshev psi(x) = sum of Lambda(n) over n <= x.

    The one-threshold case of weighted_lambda_sums_at, with its
    accuracy.
    """
    xf = math.floor(x)
    if xf < 1:
        raise DomainError(f"psi requires x >= 1, got {x}")
    return float(weighted_lambda_sums_at([1], xf, base)[0])


def weighted_lambda_sums_at(ns, hi: int, base: PrimeTable) -> np.ndarray:
    """psi(hi // n) for every n >= 1 in ``ns``, as prime_counts_at gives
    pi there.

    Up to hi <= base.limit, one lookup in ``PrimeTable.psi_table``.
    Above it, theta(hi // n) from the Lucy recurrence for hi, which
    carries theta beside pi, plus the log p of the table's proper prime
    powers up to hi // n, one searchsorted into their cumulative sum;
    nothing is sieved. The reach is prime_counts_at's: CapacityError
    once isqrt(hi) passes LUCY_ROOT_LIMIT. All in float64: theta starts
    at log(v!), about log v times theta(v), and is struck once per prime
    up to isqrt(v). Against an extended-precision sum of the same log p
    values, over every distinct hi // n, the result measured at most
    4.9e-15 relative off for hi from 10^6 to 3 * 10^8. The recurrence
    with theta took 0.12-0.16 s at hi = 10^10 and 3.1-3.9 s at 10^12
    on a 2-vCPU VM, about three times as long as pi alone.
    """
    return _ladder(ns, hi, base, theta=True)
