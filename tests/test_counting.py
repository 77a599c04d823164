import json
import math
import random

import mpmath
import numpy as np
import pytest

from ppcount import arith, cli, counting
from ppcount.analytic import interval_main_term, li, zeta_int
from ppcount.errors import CapacityError, CoverageError, DomainError

from conftest import dense_lambda, trial_division_primes


def brute_count(x, k):
    """#{n <= x : n = p * m^k} by direct pair enumeration."""
    hits = set()
    for p in trial_division_primes(x):
        m = 1
        while p * m ** k <= x:
            hits.add(p * m ** k)
            m += 1
    return len(hits)


def cli_row(capsys, *argv):
    """The one row `ppcount --format json <argv>` prints."""
    assert cli.main(["--format", "json", *argv]) == 0
    return json.loads(capsys.readouterr().out)["rows"][0]


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
        assert counting.count_exact(10, 2, base100) == 5
        assert counting.count_exact(100, 2, base100) == 46
        assert counting.count_exact(10, 3, base100) == 4
        assert counting.count_exact(1, 2, base100) == 0

    def test_against_pair_enumeration(self, base_1e4):
        for k in (2, 3, 5):
            for x in (30, 100, 777, 2000):
                assert (counting.count_exact(x, k, base_1e4)
                        == brute_count(x, k)), (x, k)

    def test_matches_oracle_route(self, base_1e4):
        for k in (2, 3, 4):
            for x in (10 ** 3, 10 ** 4, 12345):
                assert (counting.count_exact(x, k, base_1e4)
                        == counting.count_oracle(x, k))

    def test_lucy_route_against_oracle(self):
        # each x on its minimal base, sieve_primes(isqrt(x) + 1), so
        # every x >= 3 takes the Lucy route of prime_counts_at, never
        # the table lookup
        rng = random.Random(15)
        xs = list(range(1, 401)) + rng.sample(range(401, 2 * 10 ** 5), 200)
        bases = {}
        for x in xs:
            limit = math.isqrt(x) + 1
            if limit not in bases:
                bases[limit] = arith.sieve_primes(limit)
        for k in (2, 3, 4, 5):
            prefix = counting.count_oracle_prefix(2 * 10 ** 5, k)
            for x in xs:
                base = bases[math.isqrt(x) + 1]
                assert (counting.count_exact(x, k, base)
                        == prefix[x]), (x, k)

    def test_large_k_saturates(self, base100):
        # beyond k = 64 only m = 1 can contribute, so C_k(x) = pi(x)
        assert counting.count_exact(100, 500, base100) == 25
        assert (counting.count_exact(100, 500, base100)
                == counting.count_exact(100, 64, base100))

    def test_large_k_is_reported_as_given(self, base100, capsys):
        # K_CAP bounds the arithmetic, not the k a row reports
        for fn in (counting.count_exact, counting.cstar,
                   counting.prime_power_correction):
            assert fn(1000, 99, base100) == fn(1000, 64, base100)
        assert cli_row(capsys, "count", "--x", "1000", "--k", "99")["k"] == 99

    def test_monotonicity_and_floor(self, base_1e4):
        prev = -1
        for x in range(1, 400):
            c = counting.count_exact(x, 2, base_1e4)
            assert c >= prev
            # m = 1 alone gives pi(x)
            assert c >= np.searchsorted(base_1e4.primes, x, side="right")
            prev = c
        # larger k never counts more (each n = p m^k is also counted
        # against a weaker constraint only if its k-free part allows it)
        for x in (100, 1000, 9999):
            cs = [counting.count_exact(x, k, base_1e4)
                  for k in (2, 3, 4, 5)]
            assert all(a >= b for a, b in zip(cs, cs[1:]))

    def test_main_terms(self):
        # the per-m term is the sum over m of li(x / m^k) - li(2), here
        # at 30 digits
        x = 10 ** 4
        main, leading = counting.count_main_terms(x, 2)
        with mpmath.workdps(30):
            want = mpmath.fsum(
                mpmath.li(mpmath.mpf(x) / m ** 2) - mpmath.li(2)
                for m in range(1, arith.iroot(x // 2, 2) + 1))
        assert abs(main / want - 1) < 1e-12
        assert main == interval_main_term(1, x - 1, 2)
        assert leading == pytest.approx(zeta_int(2) * li(x), rel=1e-12)
        assert counting.normalized_error(main, x, 2) == pytest.approx(
            main / (100.0 * math.log(x) ** 2), rel=1e-12)
        # no window reaches above t = 2 until x > 2
        assert counting.count_main_terms(2, 2) == (0.0, zeta_int(2) * li(2))
        assert counting.count_main_terms(1, 3) == (0.0, 0.0)
        assert counting.normalized_error(5.0, 1, 2) == 0.0
        with pytest.raises(DomainError):
            counting.count_main_terms(100, 1)

    def test_main_terms_at_1e12(self):
        # C_2 and C_3 at 10^12 from the Lucy recurrence: the per-m term
        # holds e_k near 0, where zeta(k) li(x) leaves e_2 > 4, e_3 > 30
        x = 10 ** 12
        for k, count, lo in ((2, 65_093_427_117, 4.0),
                             (3, 46_191_465_512, 30.0)):
            main, leading = counting.count_main_terms(x, k)
            assert abs(counting.normalized_error(count - main, x, k)) < 0.01
            assert counting.normalized_error(count - leading, x, k) > lo

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
    def test_prefix_is_count_function(self):
        primes = trial_division_primes(2000)
        for k in (2, 3, 4, 5):
            hit = np.zeros(2001, dtype=np.int64)
            for p in primes:
                for m in range(1, arith.iroot(2000 // p, k) + 1):
                    hit[p * m ** k] = 1
            prefix = counting.count_oracle_prefix(2000, k)
            assert prefix.tolist() == np.cumsum(hit).tolist(), k
            assert counting.count_oracle(2000, k) == prefix[2000]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            counting.count_oracle(counting.ORACLE_CEILING + 1, 2)


class TestCstar:
    def test_small_value(self, base100):
        # C*_2(10) = psi(10) + psi(2) = 7.83... + log 2
        want = brute_cstar(10, 2)
        assert counting.cstar(10, 2, base100) == pytest.approx(
            want, rel=1e-12)

    def test_against_brute(self, base_1e4):
        for k in (2, 3):
            for x in (50, 300, 1000):
                assert counting.cstar(x, k, base_1e4) == pytest.approx(
                    brute_cstar(x, k), rel=1e-10)

    def test_above_table(self, base100, base_1e4):
        # base100 takes the segmented psi path, base_1e4 the table
        for k in (2, 3):
            for x in (1000, 5000, 10 ** 4):
                got = counting.cstar(x, k, base100)
                assert got == pytest.approx(counting.cstar(x, k, base_1e4),
                                            rel=1e-12)
                assert got == pytest.approx(brute_cstar(x, k), rel=1e-12)

    def test_across_segment_boundary(self, base_1e4):
        # x // m^k on both sides of the 2^20 segment boundary, against a
        # dense Lambda cumulative sum in extended precision
        x = 2 ** 21 + 777
        cum = np.cumsum(dense_lambda(x), dtype=np.longdouble).astype(
            np.float64)
        for k in (2, 3):
            want = math.fsum(cum[x // m ** k]
                             for m in range(1, arith.iroot(x, k) + 1))
            assert counting.cstar(x, k, base_1e4) == pytest.approx(
                want, rel=1e-12)

    def test_trivial_and_main_term(self, base100, capsys):
        assert counting.cstar(1, 2, base100) == 0.0
        row = cli_row(capsys, "cstar", "--x", "1000", "--k", "2")
        assert row["main_term"] == pytest.approx(zeta_int(2) * 1000,
                                                 rel=1e-12)

    def test_coverage_checked_first(self, base100):
        with pytest.raises(CoverageError):
            counting.cstar(2 ** 64, 2, base100)


class TestPrimePowerCorrection:
    def test_hand_value(self, base100):
        # contributions <= 10 with k = 2: p^r m^2 with r >= 2 are
        # 4, 8, 9 (m = 1), giving log 2 + log 2 + log 3
        assert counting.prime_power_correction(10, 2, base100) == (
            pytest.approx(2 * math.log(2) + math.log(3), rel=1e-12))

    def test_identity_with_theta_sum(self, base_1e4):
        # cstar - correction must equal sum over p m^k <= x of log p
        for k in (2, 3):
            for x in (100, 999, 5000):
                lhs = (counting.cstar(x, k, base_1e4)
                       - counting.prime_power_correction(x, k, base_1e4))
                want = math.fsum(
                    math.log(p)
                    for p in trial_division_primes(x)
                    for m in range(1, arith.iroot(x // p, k) + 1))
                assert lhs == pytest.approx(want, rel=1e-10)

    def test_against_triple_loop(self, base_1e4):
        # every (p, r >= 2, m) with p^r m^k <= x, enumerated in Python
        for k in (2, 3):
            for x in (100, 999, 5000, 10 ** 4):
                terms = []
                for p in trial_division_primes(math.isqrt(x)):
                    pr = p * p
                    while pr <= x:
                        m = 1
                        while pr * m ** k <= x:
                            terms.append(math.log(p))
                            m += 1
                        pr *= p
                got = counting.prime_power_correction(x, k, base_1e4)
                assert got == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_scale_ratio_stays_bounded(self, capsys):
        for x in ("1e3", "1e5", "1e7"):
            row = cli_row(capsys, "cstar", "--x", x, "--k", "2")
            assert 0.0 < row["correction_scale_ratio"] < 3.0


class TestCountInterval:
    def test_matches_count_difference(self, base_1e4):
        for x, h, k in ((1000, 500, 2), (10 ** 4, 333, 3), (10 ** 5, 1, 2)):
            want = (counting.count_exact(x + h, k, base_1e4)
                    - counting.count_exact(x, k, base_1e4))
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

    def test_block_edge_against_lucy_difference(self):
        # m = 2^16 ends the first block of m, m = 2^16 + 1 starts the
        # next; both windows are (1, 2] and count p = 2
        x, h, k = 2 ** 33 - 5, 10 ** 6, 2
        assert counting._M_BLOCK == 2 ** 16
        for m in (2 ** 16, 2 ** 16 + 1):
            assert (x // m ** k, (x + h) // m ** k) == (1, 2)
        base = arith.sieve_primes(math.isqrt(x + h) + 1)
        want = (counting.count_exact(x + h, k, base)
                - counting.count_exact(x, k, base))
        assert counting.count_interval(x, h, k, base) == want

    def test_coverage_checked_first(self, base100, monkeypatch):
        # refused before any window is built or sieved
        monkeypatch.setattr(counting, "np", None)
        monkeypatch.setattr(counting.arith, "prime_count_interval", None)
        with pytest.raises(CoverageError):
            counting.count_interval(9000, 1001, 2, base100)
        with pytest.raises(CoverageError):
            counting.count_interval(2 ** 64, 1, 2, base100)


class TestTheorem3Experiment:
    def test_h_scaling_per_k(self):
        x, f = 10 ** 6, 2.0
        h2, delta2 = counting.interval_scaling(x, f, 2)
        h3, _ = counting.interval_scaling(x, f, 3)
        lx = math.log(x)
        assert h2 == pytest.approx(f * math.sqrt(x) * lx ** 2, abs=1.0)
        assert h3 == pytest.approx(f * math.sqrt(x) * lx, abs=1.0)
        assert delta2 == pytest.approx(math.sqrt(f) * math.sqrt(x) * lx ** 2,
                                       abs=1.0)

    def test_larger_f_tightens_deviation(self, base_1e4):
        # widening the window (f: 4 -> 64) should shrink the relative
        # deviation for most x; assert the median shrinks
        rng = random.Random(7)
        xs = [rng.randrange(10 ** 6, 10 ** 7) for _ in range(9)]

        def deviation(x, f):
            h, _ = counting.interval_scaling(x, f, 3)
            count = counting.count_interval(x, h, 3, base_1e4)
            return abs(counting.interval_deviation(x, h, 3, count)[1])

        devs = {f: sorted(deviation(x, f) for x in xs) for f in (4.0, 64.0)}
        assert devs[64.0][4] < devs[4.0][4]

    def test_domain(self):
        for x, f in ((10 ** 4, 1.0), (0, 4.0), (10 ** 4, float("nan")),
                     (10 ** 4, 1e308)):
            with pytest.raises(DomainError):
                counting.interval_scaling(x, f, 2)
