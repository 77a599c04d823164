import math
import random

import numpy as np
import pytest

from ppcount import arith, counting
from ppcount.analytic import li, zeta_int
from ppcount.errors import CapacityError, CoverageError, DomainError

from conftest import trial_division_primes


def brute_count(x, k):
    """#{n <= x : n = p * m^k} by direct pair enumeration."""
    hits = set()
    for p in trial_division_primes(x):
        m = 1
        while p * m ** k <= x:
            hits.add(p * m ** k)
            m += 1
    return len(hits)


def brute_cstar(x, k):
    """sum of Lambda(n) over n * m^k <= x, by direct double loop."""
    from conftest import naive_lambda
    total = 0.0
    m = 1
    while m ** k <= x:
        t = x // m ** k
        total += math.fsum(naive_lambda(n) for n in range(2, t + 1))
        m += 1
    return total


class TestCountExact:
    def test_known_values(self, base100):
        assert counting.count_exact(10, 2, base100).count == 5
        assert counting.count_exact(100, 2, base100).count == 46
        assert counting.count_exact(10, 3, base100).count == 4
        assert counting.count_exact(1, 2, base100).count == 0

    def test_against_pair_enumeration(self, base_1e4):
        for k in (2, 3, 5):
            for x in (30, 100, 777, 2000):
                assert (counting.count_exact(x, k, base_1e4).count
                        == brute_count(x, k)), (x, k)

    def test_matches_oracle_route(self, base_1e4):
        for k in (2, 3, 4):
            for x in (10 ** 3, 10 ** 4, 12345):
                assert (counting.count_exact(x, k, base_1e4).count
                        == counting.count_oracle(x, k))

    def test_large_k_saturates(self, base100):
        # beyond k = 64 only m = 1 can contribute, so C_k(x) = pi(x)
        assert counting.count_exact(100, 500, base100).count == 25
        assert (counting.count_exact(100, 500, base100).count
                == counting.count_exact(100, 64, base100).count)

    def test_monotonicity_and_floor(self, base_1e4):
        prev = -1
        for x in range(1, 400):
            c = counting.count_exact(x, 2, base_1e4).count
            assert c >= prev
            # m = 1 alone gives pi(x)
            assert c >= np.searchsorted(base_1e4.primes, x, side="right")
            prev = c
        # larger k never counts more (each n = p m^k is also counted
        # against a weaker constraint only if its k-free part allows it)
        for x in (100, 1000, 9999):
            cs = [counting.count_exact(x, k, base_1e4).count
                  for k in (2, 3, 4, 5)]
            assert all(a >= b for a, b in zip(cs, cs[1:]))

    def test_annotation_fields(self, base_1e4):
        r = counting.count_exact(10 ** 4, 2, base_1e4)
        assert r.main_term == pytest.approx(zeta_int(2) * li(10 ** 4),
                                            rel=1e-12)
        want = (r.count - r.main_term) / (100.0 * math.log(10 ** 4) ** 2)
        assert r.normalized_error == pytest.approx(want, rel=1e-12)
        assert r.method == "pair-enumeration"

    def test_errors(self, base100):
        with pytest.raises(DomainError):
            counting.count_exact(100, 1, base100)
        with pytest.raises(DomainError):
            counting.count_exact(0, 2, base100)

    def test_coverage_checked_first(self, base100):
        # x^(1/2) = 2^32 thresholds would be built if this came later
        with pytest.raises(CoverageError):
            counting.count_exact(2 ** 64, 2, base100)


class TestCountOracle:
    def test_prefix_is_count_function(self, base_1e4):
        prefix = counting.count_oracle_prefix(500, 2)
        for x in (1, 10, 100, 499, 500):
            assert int(prefix[x]) == brute_count(x, 2)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            counting.count_oracle(counting.ORACLE_CEILING + 1, 2)


class TestCstar:
    def test_small_value(self, base100):
        # C*_2(10) = psi(10) + psi(2) = 7.83... + log 2
        want = brute_cstar(10, 2)
        assert counting.cstar(10, 2, base100).value == pytest.approx(
            want, rel=1e-12)

    def test_against_brute(self, base_1e4):
        for k in (2, 3):
            for x in (50, 300, 1000):
                assert counting.cstar(x, k, base_1e4).value == pytest.approx(
                    brute_cstar(x, k), rel=1e-10)

    def test_trivial_and_main_term(self, base100):
        r = counting.cstar(1, 2, base100)
        assert r.value == 0.0
        r = counting.cstar(1000, 2, sieve := arith.sieve_primes(1000))
        assert r.main_term == pytest.approx(zeta_int(2) * 1000, rel=1e-12)

    def test_coverage_checked_first(self, base100):
        with pytest.raises(CoverageError):
            counting.cstar(2 ** 64, 2, base100)


class TestPrimePowerCorrection:
    def test_hand_value(self, base100):
        # contributions <= 10 with k = 2: p^r m^2 with r >= 2 are
        # 4, 8, 9 (m = 1), giving log 2 + log 2 + log 3
        r = counting.prime_power_correction(10, 2, base100)
        assert r.value == pytest.approx(2 * math.log(2) + math.log(3),
                                        rel=1e-12)

    def test_identity_with_theta_sum(self, base_1e4):
        # cstar - correction must equal sum over p m^k <= x of log p
        for k in (2, 3):
            for x in (100, 999, 5000):
                lhs = (counting.cstar(x, k, base_1e4).value
                       - counting.prime_power_correction(x, k, base_1e4).value)
                want = math.fsum(
                    math.log(p)
                    for p in trial_division_primes(x)
                    for m in range(1, arith.iroot(x // p, k) + 1))
                assert lhs == pytest.approx(want, rel=1e-10)

    def test_scale_ratio_stays_bounded(self, base_1e4):
        for x in (10 ** 3, 10 ** 5, 10 ** 7):
            r = counting.prime_power_correction(x, 2, base_1e4)
            assert 0.0 < r.scale_ratio < 3.0


class TestCountInterval:
    def test_matches_count_difference(self, base_1e4):
        for x, h, k in ((1000, 500, 2), (10 ** 4, 333, 3), (10 ** 5, 1, 2)):
            want = (counting.count_exact(x + h, k, base_1e4).count
                    - counting.count_exact(x, k, base_1e4).count)
            assert counting.count_interval(x, h, k, base_1e4) == want

    def test_empty_window(self, base_1e4):
        # (113, 126] contains no prime and no p * m^2 hits... verify by brute
        for x, h in ((113, 8), (2, 1)):
            want = brute_count(x + h, 2) - brute_count(x, 2)
            assert counting.count_interval(x, h, 2, base_1e4) == want

    def test_segment_length_independence(self, base_1e4):
        want = counting.count_interval(10 ** 6, 10 ** 5, 2, base_1e4)
        for seg_len in (2 ** 14, 3 << 12):
            assert counting.count_interval(10 ** 6, 10 ** 5, 2, base_1e4,
                                           seg_len=seg_len) == want

    def test_domain(self, base100):
        with pytest.raises(DomainError):
            counting.count_interval(100, 0, 2, base100)


class TestTheorem3Experiment:
    def test_h_scaling_per_k(self, base_1e4):
        x, f = 10 ** 6, 2.0
        r2 = counting.theorem3_experiment(x, f, 2, base_1e4)
        r3 = counting.theorem3_experiment(x, f, 3, base_1e4)
        lx = math.log(x)
        assert r2.h == pytest.approx(f * math.sqrt(x) * lx ** 2, abs=1.0)
        assert r3.h == pytest.approx(f * math.sqrt(x) * lx, abs=1.0)
        assert r2.delta == pytest.approx(math.sqrt(f) * math.sqrt(x) * lx ** 2,
                                         abs=1.0)
        assert r2.predicted_scale == pytest.approx(f ** -0.5)

    def test_report_consistency(self, base_1e4):
        r = counting.theorem3_experiment(10 ** 6, 4.0, 3, base_1e4)
        assert r.count == counting.count_interval(10 ** 6, r.h, 3, base_1e4)
        assert r.rel_deviation == pytest.approx(r.count / r.expected - 1.0)
        assert r.delta <= r.h

    def test_larger_f_tightens_deviation(self, base_1e4):
        # widening the window (f: 4 -> 64) should shrink the relative
        # deviation for most x; assert the median shrinks
        rng = random.Random(7)
        xs = [rng.randrange(10 ** 6, 10 ** 7) for _ in range(9)]
        devs = {f: sorted(abs(counting.theorem3_experiment(
            x, f, 3, base_1e4).rel_deviation) for x in xs)
            for f in (4.0, 64.0)}
        assert devs[64.0][4] < devs[4.0][4]

    def test_domain(self, base100):
        with pytest.raises(DomainError):
            counting.theorem3_experiment(10 ** 4, 1.0, 2, base100)
        for x, f in ((0, 4.0), (10 ** 4, float("nan")), (10 ** 4, 1e308)):
            with pytest.raises(DomainError):
                counting.interval_scaling(x, f, 2)
