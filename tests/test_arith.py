import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppcount import arith
from ppcount.errors import CapacityError, CoverageError, DomainError

from conftest import (dense_lambda, lucy_reference, naive_lambda,
                      trial_division_primes)


class TestSievePrimes:
    def test_small_tables(self):
        assert arith.sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
        assert arith.sieve_primes(2).primes.tolist() == [2]

    def test_against_trial_division(self):
        got = arith.sieve_primes(1000).primes.tolist()
        assert got == trial_division_primes(1000)

    @pytest.mark.parametrize("limit", [2, 3, 4, 8, 9, 24, 25, 48, 49, 120,
                                       121, 10 ** 4 + 7])
    def test_recursion_base_and_squares(self, limit):
        table = arith.sieve_primes(limit)
        assert table.limit == limit and table.primes.dtype == np.int64
        assert table.primes.tolist() == trial_division_primes(limit)

    def test_domain_and_budget(self, monkeypatch):
        with pytest.raises(DomainError):
            arith.sieve_primes(1)
        # refused before the sieve mask is allocated
        monkeypatch.setattr(arith.np, "ones", None)
        with pytest.raises(CapacityError):
            arith.sieve_primes(arith.DEFAULT_SIEVE_BUDGET + 1)

    def test_check_covers(self, base100):
        base100.check_covers(100 ** 2)
        with pytest.raises(CoverageError):
            base100.check_covers(100 ** 2 + 1)

    @pytest.mark.parametrize("limit", [2, 3, 4, 10, 100, 1007])
    def test_proper_powers_against_trial_division(self, limit):
        want = []
        for p in trial_division_primes(limit):
            pr = p * p
            while pr <= limit ** 2:
                want.append((pr, p))
                pr *= p
        n, p = arith.sieve_primes(limit).proper_powers
        assert n.dtype == p.dtype == np.int64
        assert list(zip(n.tolist(), p.tolist())) == sorted(want)


class TestSegmentPrimes:
    @pytest.mark.parametrize("lo, hi", [
        (0, 0), (0, 1), (0, 2), (1, 2), (2, 3), (1, 9), (8, 9), (24, 25),
        (48, 49), (120, 121),
        (9000, 97 ** 2),           # ends at the largest base prime's square
        (97 ** 2, 9800),           # starts there
        (9410, 9500),              # 97 <= sqrt(hi) has no odd multiple here
    ])
    def test_against_trial_division(self, base100, lo, hi):
        got = arith._list_primes(lo, hi, base100)
        assert got.dtype == np.int64
        assert got.tolist() == trial_division_primes(hi, lo)

    def test_beyond_small_base(self, base_1e4):
        lo, hi = 10 ** 6, 10 ** 6 + 1000
        assert (arith._list_primes(lo, hi, base_1e4).tolist()
                == trial_division_primes(hi, lo))

    def test_near_1e12(self, base_1e6):
        lo, hi = 10 ** 12 - 1000, 10 ** 12 + 1000
        want = [n for n in range(lo + 1, hi + 1) if arith.is_prime(n)]
        assert arith._list_primes(lo, hi, base_1e6).tolist() == want

    def test_both_strike_orders_near_1e12(self, base_1e6):
        # 50 000 odd candidates: the primes below 1 563 strike more than
        # _FEW_STRIKES times, the rest of the primes to 10^6 at most that
        lo, hi = 10 ** 12 - 37, 10 ** 12 + 100_000
        assert ranked(lo, hi, base_1e6)
        want = [n for n in range(lo + 1, hi + 1) if arith.is_prime(n)]
        assert arith._list_primes(lo, hi, base_1e6).tolist() == want

    @pytest.mark.parametrize("limit", [100, 10 ** 3, 10 ** 4, 10 ** 5])
    def test_seeded_windows_against_is_prime(self, limit):
        base = arith.sieve_primes(limit)
        rng = random.Random(limit)
        widest = min(7 * 10 ** 4, limit * limit // 2)
        for _ in range(12):
            width = int(10 ** rng.uniform(1, math.log10(widest)))
            top = limit * limit - width
            lo = int(10 ** rng.uniform(0, math.log10(top + 1))) - 1
            got = arith._list_primes(lo, lo + width, base).tolist()
            assert got == [n for n in range(lo + 1, lo + width + 1)
                           if arith.is_prime(n)], (lo, width)
            # the count reads the same mask without listing it
            assert arith.prime_count_interval(max(lo, 1), lo + width,
                                              base) == len(got), (lo, width)

    # Near 10^12 the window's n_odds odd candidates start at o0 = p * m0,
    # and p = 1009 strikes every p-th of them from there. p is sparse when
    # p > n_odds // _FEW_STRIKES: there it is rank-struck exactly 32 times,
    # just above the bar; on it, p takes its slice. p's 32nd multiple,
    # p * (m0 + 62), has no other factor below 10^6, so a rank loop cut
    # short of its 32nd turn leaves it unstruck.
    @pytest.mark.parametrize("n_odds, sparse, strikes", [
        (32 * 1008, True, 32), (32 * 1008 + 31, True, 32),
        (32 * 1009, False, 32), (32 * 1009 + 1, False, 33)])
    def test_strike_count_threshold(self, base_1e6, n_odds, sparse,
                                    strikes):
        p = 1009
        m0 = next(m for m in range(10 ** 12 // p | 1, 10 ** 12, 2)
                  if arith.is_prime(m + 62))
        lo, hi = p * m0 - 1, p * m0 + 2 * (n_odds - 1)
        assert arith._FEW_STRIKES == 32
        assert (p > n_odds // arith._FEW_STRIKES) == sparse
        assert len(range(p * m0, hi + 1, 2 * p)) == strikes
        assert ranked(lo, hi, base_1e6)
        want = [n for n in range(lo + 1, hi + 1) if arith.is_prime(n)]
        assert p * (m0 + 62) <= hi and p * (m0 + 62) not in want
        assert arith._list_primes(lo, hi, base_1e6).tolist() == want

    @pytest.mark.parametrize("lo, hi, rank_order", [
        (0, 10 ** 4, False),                    # 3 from 9, 97 from 97^2
        (53 ** 2 - 2, 53 ** 2 + 4000, False),   # 53 from its square
        (101 ** 2 - 50, 101 ** 2 + 5000, False),
        (9973 ** 2 - 50, 9973 ** 2 + 5000, True),
    ])
    def test_first_strike_at_square(self, base100, base_1e4, lo, hi,
                                    rank_order):
        base = base100 if hi <= 100 ** 2 else base_1e4
        assert ranked(lo, hi, base) == rank_order
        want = [n for n in range(lo + 1, hi + 1) if arith.is_prime(n)]
        assert arith._list_primes(lo, hi, base).tolist() == want

    @pytest.mark.parametrize("lo, hi", [
        (10 ** 6, 10 ** 6 + 1000),      # 137 sparse primes
        (3 * 10 ** 7, 3 * 10 ** 7 + 200),
    ])
    def test_few_sparse_primes_take_slices(self, base_1e4, lo, hi):
        assert 0 < sparse_hits(lo, hi, base_1e4) <= arith._RANK_MIN
        got = arith._list_primes(lo, hi, base_1e4)
        assert got.tolist() == [n for n in range(lo + 1, hi + 1)
                                if arith.is_prime(n)]

    def test_short_window_far_above_table(self, base_1e6):
        # every base prime above 1 is sparse in 50 odd candidates, but
        # at most _RANK_MIN of them hit: all take their slices
        lo, hi = 10 ** 12, 10 ** 12 + 100
        assert base_1e6.primes.size > arith._RANK_MIN
        assert 0 < sparse_hits(lo, hi, base_1e6) <= arith._RANK_MIN
        assert arith._list_primes(lo, hi, base_1e6).tolist() == [
            n for n in range(lo + 1, hi + 1) if arith.is_prime(n)]


def sparse_hits(lo: int, hi: int, base) -> int:
    """The sieve's sparse primes that strike (lo, hi]: the odd base
    primes up to sqrt(hi) above n_odds / _FEW_STRIKES (one bisection)
    with an odd multiple in the window from p * p on."""
    n_odds = (hi - max(3, (lo + 1) | 1)) // 2 + 1
    ps = [p for p in base.primes[1:].tolist() if p * p <= hi]
    count = 0
    for p in ps[bisect_right(ps, n_odds // arith._FEW_STRIKES):]:
        first = max(p * p, (lo // p + 1) * p)
        first += p * (first % 2 == 0)
        count += first <= hi
    return count


def ranked(lo: int, hi: int, base) -> bool:
    """Whether the sieve strikes the window's sparse primes rank by rank:
    more than _RANK_MIN of them strike it."""
    return sparse_hits(lo, hi, base) > arith._RANK_MIN


class TestIsPrime:
    def test_small(self):
        primes = set(trial_division_primes(2000))
        for n in range(2000):
            assert arith.is_prime(n) == (n in primes), n

    def test_large_known(self):
        assert arith.is_prime(10 ** 12 + 39)          # next prime after 1e12
        assert not arith.is_prime(10 ** 12 + 37)
        assert arith.is_prime(2 ** 61 - 1)            # Mersenne prime
        assert not arith.is_prime(2 ** 67 - 1)        # 193707721 * 761838257287

    def test_base_41_range(self):
        # psi_12 passes bases 2..37; base 41 exposes it
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert not arith.is_prime(psi12)
        assert arith.is_prime(10 ** 24 + 7)
        assert not arith.is_prime(arith.MR_LIMIT - 1)  # even
        with pytest.raises(DomainError):
            arith.is_prime(arith.MR_LIMIT)  # psi_13, composite


class TestIroot:
    @given(st.integers(0, 10 ** 18), st.integers(1, 64))
    def test_defining_property(self, n, r):
        a = arith.iroot(n, r)
        assert a ** r <= n < (a + 1) ** r

    def test_huge_exponent(self):
        assert arith.iroot(10 ** 18, 10 ** 29) == 1
        assert arith.iroot(2 ** 64, 64) == 2
        assert arith.iroot(2 ** 64 - 1, 64) == 1
        # past the largest double: no float root is formed
        assert arith.iroot(10 ** 400, 2) == 10 ** 200
        assert arith.iroot(10 ** 400 - 1, 2) == 10 ** 200 - 1

    @pytest.mark.parametrize("a, r", [
        (722191973998701852311568902, 2),
        (872960969526523965054785300, 3),
        (647765588843096668021, 7)])
    def test_float_guess_below_root(self, a, r):
        # round(n ** (1/r)) falls short of a by up to 3 * 10^12 here, too
        # far for a correction one unit at a time
        assert round((a ** r) ** (1.0 / r)) < a
        assert arith.iroot(a ** r, r) == a
        assert arith.iroot(a ** r - 1, r) == a - 1

    def test_errors(self):
        with pytest.raises(DomainError):
            arith.iroot(-1, 2)
        with pytest.raises(DomainError):
            arith.iroot(4, 0)


class TestPrimeCountInterval:
    def test_within_base(self, base_1e4):
        assert arith.prime_count_interval(1, 100, base_1e4) == 25
        assert arith.prime_count_interval(100, 100, base_1e4) == 0
        assert arith.prime_count_interval(2, 3, base_1e4) == 1

    def test_beyond_base_against_trial_division(self, base100):
        lo, hi = 9000, 9500
        want = sum(1 for p in trial_division_primes(hi) if p > lo)
        assert arith.prime_count_interval(lo, hi, base100) == want

    def test_short_window_above_table(self, base_1e4):
        # a 50-integer window above base.limit, sieved like a long one
        lo = 10 ** 6
        want = sum(1 for n in range(lo + 1, lo + 51)
                   if all(n % d for d in range(2, math.isqrt(n) + 1)))
        assert arith.prime_count_interval(lo, lo + 50, base_1e4) == want

    def test_sieve_branch_counts_two(self):
        # on a table to 10, every window here lies above it, so the sieve
        # branch must add p = 2 itself
        base = arith.sieve_primes(10)
        assert 66 - 1 > arith.MR_WINDOW
        assert arith.prime_count_interval(1, 100, base) == 25
        assert arith.prime_count_interval(1, 66, base) == 18
        assert arith.prime_count_interval(2, 100, base) == 24

    def test_short_windows_counted_without_is_prime(self, base_1e4,
                                                    base_1e6, monkeypatch):
        # every window (lo, lo + w], w = 0 .. 65: below 10^12 (lo of both
        # parities), across the table's end, up to its coverage end 10^8,
        # and from lo = 1, 2, 3 on a table to 10, where p = 2 is added to
        # the masks; none is tested candidate by candidate
        is_prime = arith.is_prime

        def refuse(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(arith, "is_prime", refuse)
        base_10 = arith.sieve_primes(10)
        ws = range(66)
        cases = [(base_1e6, lo, w) for lo in
                 (10 ** 12 - 140891, 10 ** 12 - 4000, 10 ** 12 - 65)
                 for w in ws]
        cases += [(base_1e4, lo, w) for lo in (10 ** 4 - 33, 10 ** 4 - 2)
                  for w in ws]
        cases += [(base_1e4, 10 ** 8 - w, w) for w in ws]
        cases += [(base_10, lo, w) for lo in (1, 2, 3) for w in ws]
        for base, lo, w in cases:
            want = sum(map(is_prime, range(lo + 1, lo + w + 1)))
            assert arith.prime_count_interval(lo, lo + w, base) == want, (
                base.limit, lo, w)

    def test_additivity(self, base_1e4):
        lo, mid, hi = 10 ** 5, 10 ** 5 + 7777, 10 ** 5 + 30000
        assert (arith.prime_count_interval(lo, mid, base_1e4)
                + arith.prime_count_interval(mid, hi, base_1e4)
                == arith.prime_count_interval(lo, hi, base_1e4))

    def test_segment_length_independence(self, base_1e4):
        lo, hi = 10 ** 6, 10 ** 6 + 10 ** 5
        want = arith.prime_count_interval(lo, hi, base_1e4)
        for seg_len in (2 ** 14, 3 << 12):
            assert arith.prime_count_interval(lo, hi, base_1e4,
                                              seg_len=seg_len) == want

    def test_errors(self, base100):
        with pytest.raises(DomainError):
            arith.prime_count_interval(0, 10, base100)
        with pytest.raises(DomainError):
            arith.prime_count_interval(20, 10, base100)
        with pytest.raises(CoverageError):
            arith.prime_count_interval(1, 100 ** 2 + 1, base100)


class TestPrimeCountsAt:
    def test_matches_interval_counts(self, base_1e4):
        # every divisor n = 1 .. hi + 1, shuffled, on the table path (a
        # table to hi) and on the Lucy path (base_1e4); the reference
        # chains the segmented interval route over the sorted distinct
        # hi // n, across its 2^20 segment boundaries. With r = isqrt(hi)
        # = 1450, the prime 1451 = hi // r lies above hi // (r + 1)
        hi = 1450 * 1451
        ns = np.random.default_rng(15).permutation(np.arange(1, hi + 2))
        ts, where = np.unique(hi // ns, return_inverse=True)
        bounds = [1, *np.maximum(ts, 1).tolist()]
        want = np.cumsum([arith.prime_count_interval(a, b, base_1e4)
                          for a, b in zip(bounds, bounds[1:])])[where]
        for base in (arith.sieve_primes(hi), base_1e4):
            assert np.array_equal(arith.prime_counts_at(ns, hi, base), want)

    def test_published_powers_of_ten(self):
        # pi(10^n) for n = 1..11, published values (Lagarias, Miller and
        # Odlyzko 1985; Deleglise and Rivat 1996): on a minimal base,
        # the Lucy path above 100, and up to 10^7 on a table covering x
        published = [4, 25, 168, 1229, 9592, 78498, 664579, 5761455,
                     50847534, 455052511, 4118054813]
        table = arith.sieve_primes(10 ** 7)
        for n, want in enumerate(published, start=1):
            x = 10 ** n
            bases = [arith.sieve_primes(max(100, math.isqrt(x) + 1))]
            if x <= table.limit:
                bases.append(table)
            for base in bases:
                got = arith.prime_counts_at([1], x, base).tolist()
                assert got == [want], (n, base.limit)

    def test_lucy_memory_bound(self):
        r = arith.LUCY_ROOT_LIMIT + 1
        with pytest.raises(CapacityError, match=str(arith.LUCY_ROOT_LIMIT)):
            arith.prime_counts_at([1], r * r, arith.sieve_primes(r + 1))

    def test_quotients_from_1e8_to_1e9(self):
        # spot values in 10^8..10^9 against the segmented interval
        # route, chained over the sorted quotients: pi(t_i) is the sum
        # of prime_count_interval(t_(j-1), t_j) for j <= i
        rng = random.Random(1509)
        for hi in (10 ** 8 + rng.randrange(10 ** 6),
                   6 * 10 ** 8 + rng.randrange(10 ** 6)):
            base = arith.sieve_primes(math.isqrt(hi) + 1)
            ns = sorted({*range(1, 40), *(m ** 2 for m in range(1, 200)),
                         *(m ** 3 for m in range(1, 60)),
                         *(rng.randrange(1, hi) for _ in range(40))})
            pi, prev = {}, 1
            for t in sorted({hi // n for n in ns}):
                pi[t] = (pi.get(prev, 0)
                         + arith.prime_count_interval(prev, max(t, 1), base))
                prev = max(t, 1)
            got = arith.prime_counts_at(ns, hi, base)
            assert got.tolist() == [pi[hi // n] for n in ns], hi

    def test_empty(self, base100):
        assert arith.prime_counts_at([], 5, base100).size == 0

    def test_coverage_checked_before_int64_cast(self, base100):
        with pytest.raises(CoverageError):
            arith.prime_counts_at([1, 2], 2 ** 64, base100)


class TestLambdaSegment:
    def test_first_decade(self, base100):
        seg = arith.lambda_segment(1, 10, base100)
        assert seg.n.tolist() == [2, 3, 4, 5, 7, 8, 9]
        assert seg.log_p.tolist() == [math.log(p)
                                      for p in (2, 3, 2, 5, 7, 2, 3)]

    def test_against_naive_lambda(self, base_1e4, lambda_upto_1e4):
        seg = arith.lambda_segment(0, 10 ** 4, base_1e4)
        dense = np.zeros(10 ** 4 + 1)
        dense[seg.n] = seg.log_p
        assert np.allclose(dense, lambda_upto_1e4, atol=1e-12)

    def test_segmentation_invariance(self, base_1e4):
        lo, hi = 2 ** 20 - 5000, 2 ** 21 + 5000
        segs = list(arith.lambda_segments(lo, hi, base_1e4))
        whole = arith.lambda_segment(lo, hi, base_1e4)
        assert np.concatenate([s.n for s in segs]).tolist() == \
            whole.n.tolist()
        assert np.concatenate([s.log_p for s in segs]).tolist() == \
            whole.log_p.tolist()

    def test_segments_walk(self, base_1e4):
        lo, hi = 2 ** 20 - 5000, 2 ** 21 + 5000
        step = arith.DEFAULT_SEGMENT_LENGTH
        segs = list(arith.lambda_segments(lo, hi, base_1e4))
        assert [(s.lo, s.hi) for s in segs] == [(lo, lo + step),
                                                (lo + step, hi)]
        whole = arith.lambda_segment(lo, hi, base_1e4)
        assert np.concatenate([s.n for s in segs]).tolist() == \
            whole.n.tolist()
        with pytest.raises(CoverageError):
            next(arith.lambda_segments(0, 10 ** 8 + 1, base_1e4))


class TestPsi:
    def test_known_values(self, base100, lambda_upto_1e4):
        assert arith.psi(1, base100) == 0.0
        want10 = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
        assert arith.psi(10, base100) == pytest.approx(want10, abs=1e-12)

    def test_against_naive(self, base_1e4, lambda_upto_1e4):
        cum = np.cumsum(lambda_upto_1e4)
        for x in (2, 100, 1234, 10 ** 4):
            assert arith.psi(x, base_1e4) == pytest.approx(cum[x], rel=1e-12)

    def test_step_is_lambda(self, base_1e4):
        for x in (8, 9, 10, 31, 32, 97, 128):
            step = arith.psi(x, base_1e4) - arith.psi(x - 1, base_1e4)
            assert step == pytest.approx(naive_lambda(x), abs=1e-10)

    def test_domain(self, base100):
        with pytest.raises(DomainError):
            arith.psi(0, base100)
        with pytest.raises(CoverageError):
            arith.psi(2 ** 64, base100)  # beyond int64, and beyond 100^2


def assert_lucy_matches_reference(hi, base):
    """_lucy_counts(hi) against the one-prime-per-turn reference at every
    small[v] and large[i]: pi exactly, theta within 1e-13 relative."""
    (ps, pl), (ts, tl) = arith._lucy_counts(hi, base, theta=True)
    (ws, wl), (wts, wtl) = lucy_reference(hi, True)
    assert ps.dtype == pl.dtype == np.int64
    assert np.array_equal(ps, ws) and np.array_equal(pl, wl), hi
    for got, want in ((ts, wts), (tl, wtl)):
        assert np.allclose(got, want, rtol=1e-13, atol=0), hi


class TestLucyBatch:
    """The primes p with p**3 > hi strike in one batch (_lucy_batch)."""

    def test_every_hi_to_3000(self, base100):
        for hi in range(1, 3001):
            assert_lucy_matches_reference(hi, base100)

    @pytest.mark.parametrize("p", [101, 1009])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_cube_edges(self, p, shift):
        # hi = p^3 - 1 puts p in the batch, p^3 keeps it in the loop
        hi = p ** 3 + shift
        base = arith.sieve_primes(math.isqrt(hi) + 1)
        assert_lucy_matches_reference(hi, base)

    def test_near_1e9(self):
        hi = 10 ** 9 + 12345
        assert_lucy_matches_reference(hi, arith.sieve_primes(
            math.isqrt(hi) + 1))

    def test_many_blocks(self, base_1e4, monkeypatch):
        # three pairs per block: 196 blocks for the 201 values of i with
        # a batch prime p, p * p <= hi // i
        calls, real = [], arith._at_quotients

        def counting_at_quotients(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(arith, "_LUCY_BLOCK", 3)
        monkeypatch.setattr(arith, "_at_quotients", counting_at_quotients)
        assert_lucy_matches_reference(10 ** 7 + 4321, base_1e4)
        # one call per block for pi and one for theta
        assert len(calls) >= 2 * 150


class TestWeightedLambdaSumsAt:
    def test_psi_ladder(self, base_1e4):
        # every divisor n = 1 .. hi + 1, on the table path (a table to
        # 2^21 + 777) and the segmented path (base_1e4), whose segments
        # from 1 end at 2^20 + 1 and 2^21 + 1. The quotients hi // 1 and
        # hi // 2 of the hi below land on 2^20 .. 2^20 + 2 and on
        # 2^21 + 1, 2^21 + 2, each side of both segment ends; the
        # reference sums a dense Lambda in extended precision
        top = 2 ** 21 + 777
        cum = np.cumsum(dense_lambda(top), dtype=np.longdouble)
        table = arith.sieve_primes(top)
        for hi in (top, 2 ** 20, 2 ** 20 + 1, 2 ** 21 + 1, 2 ** 21 + 2,
                   2 ** 21 + 4):
            ns = np.arange(1, hi + 2)
            want = cum[hi // ns].astype(np.float64)
            for base in (table, base_1e4):
                got = arith.weighted_lambda_sums_at(ns, hi, base)
                assert np.allclose(got, want, rtol=1e-12, atol=0), hi

    def test_theta_route_against_segment_walk(self, base_1e4):
        # above the table psi is theta from the Lucy recurrence plus the
        # proper prime powers; the reference walks Lambda over (1, hi]
        # one segment at a time with long-double prefix sums, at every
        # n <= 2 * 10^4 and on the m^2 and m^3 ladders
        hi = 10 ** 8
        ns = np.concatenate((np.arange(1, 2 * 10 ** 4 + 1),
                             np.arange(1, arith.iroot(hi, 2) + 1) ** 2,
                             np.arange(1, arith.iroot(hi, 3) + 1) ** 3))
        ts = np.unique(hi // ns)
        want = np.zeros(ts.size, dtype=np.longdouble)
        total = np.longdouble(0.0)
        for seg in arith.lambda_segments(1, hi, base_1e4):
            prefix = np.cumsum(np.concatenate(([total], seg.log_p)),
                               dtype=np.longdouble)
            i0, i1 = np.searchsorted(ts, [seg.lo, seg.hi], side="right")
            want[i0:i1] = prefix[np.searchsorted(seg.n, ts[i0:i1],
                                                 side="right")]
            total = prefix[-1]
        want = want[np.searchsorted(ts, hi // ns)].astype(np.float64)
        got = arith.weighted_lambda_sums_at(ns, hi, base_1e4)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_lucy_memory_bound(self):
        r = arith.LUCY_ROOT_LIMIT + 1
        with pytest.raises(CapacityError, match=str(arith.LUCY_ROOT_LIMIT)):
            arith.weighted_lambda_sums_at([1], r * r,
                                          arith.sieve_primes(r + 1))

    def test_no_thresholds(self, base100):
        got = arith.weighted_lambda_sums_at([], 100, base100)
        assert got.dtype == np.float64 and got.size == 0

    def test_coverage_checked_before_int64_cast(self, base100):
        with pytest.raises(CoverageError):
            arith.weighted_lambda_sums_at([1], 2 ** 64, base100)
