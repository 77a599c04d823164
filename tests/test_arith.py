import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppcount import arith
from ppcount.errors import CapacityError, CoverageError, DomainError

from conftest import naive_lambda, trial_division_primes


class TestSievePrimes:
    def test_small_tables(self):
        assert arith.sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
        assert arith.sieve_primes(2).primes.tolist() == [2]

    def test_against_trial_division(self):
        got = arith.sieve_primes(1000).primes.tolist()
        assert got == trial_division_primes(1000)

    def test_log_cumsum(self, base100):
        cs = base100.log_cumsum
        assert cs[0] == 0.0 and len(cs) == 26
        want = math.fsum(math.log(p) for p in trial_division_primes(100))
        assert cs[-1] == pytest.approx(want, rel=1e-13)
        assert base100.log_cumsum is cs  # computed once per table

    def test_domain_and_budget(self, monkeypatch):
        with pytest.raises(DomainError):
            arith.sieve_primes(1)
        # refused before the sieve array is allocated
        monkeypatch.setattr(arith.np, "zeros", None)
        with pytest.raises(CapacityError):
            arith.sieve_primes(arith.DEFAULT_SIEVE_BUDGET + 1)

    def test_check_covers(self, base100):
        base100.check_covers(100 ** 2)
        with pytest.raises(CoverageError):
            base100.check_covers(100 ** 2 + 1)


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

    def test_short_window_mr_path(self, base_1e4):
        # window below MR_WINDOW, above base.limit: per-candidate testing
        lo = 10 ** 6
        want = sum(1 for n in range(lo + 1, lo + 51)
                   if all(n % d for d in range(2, math.isqrt(n) + 1)))
        assert arith.prime_count_interval(lo, lo + 50, base_1e4) == want

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
    def test_matches_interval_counts(self, base100):
        thresholds = [0, 1, 2, 100, 5000, 9999, 9999, 37]
        got = arith.prime_counts_at(thresholds, base100, seg_len=1024)
        want = [0 if t < 2 else arith.prime_count_interval(1, t, base100)
                for t in thresholds]
        assert got.tolist() == want

    def test_empty(self, base100):
        assert arith.prime_counts_at([], base100).size == 0


class TestLambdaSegment:
    def test_first_decade(self, base100):
        seg = arith.lambda_segment(1, 10, base100)
        assert seg.n.tolist() == [2, 3, 4, 5, 7, 8, 9]
        assert seg.log_p.tolist() == [math.log(p)
                                      for p in (2, 3, 2, 5, 7, 2, 3)]

    def test_against_naive_lambda(self, base_1e4, lambda_upto_1e4):
        seg = arith.lambda_segment(0, 10 ** 4, base_1e4, seg_len=999)
        dense = np.zeros(10 ** 4 + 1)
        dense[seg.n] = seg.log_p
        assert np.allclose(dense, lambda_upto_1e4, atol=1e-12)

    def test_segmentation_invariance(self, base_1e4):
        a = arith.lambda_segment(50, 5000, base_1e4, seg_len=64)
        b = arith.lambda_segment(50, 5000, base_1e4, seg_len=10 ** 6)
        assert a.n.tolist() == b.n.tolist()
        assert a.log_p.tolist() == b.log_p.tolist()

    def test_segments_walk(self, base_1e4):
        segs = list(arith.lambda_segments(50, 5000, base_1e4, seg_len=999))
        assert [(s.lo, s.hi) for s in segs] == [
            (50, 1049), (1049, 2048), (2048, 3047), (3047, 4046),
            (4046, 5000)]
        whole = arith.lambda_segment(50, 5000, base_1e4)
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


class TestWeightedLambdaSumsAt:
    def test_psi_ladder(self, base_1e4, lambda_upto_1e4):
        cum = np.cumsum(lambda_upto_1e4)
        ts = [1, 10, 100, 100, 9999]
        got = arith.weighted_lambda_sums_at(ts, base_1e4, seg_len=777)
        assert np.allclose(got, [cum[t] for t in ts], rtol=1e-12)
