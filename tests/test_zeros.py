import math

import numpy as np
import pytest

from ppcount import zeros
from ppcount.errors import (CoverageError, DomainError, IntegrityError,
                            TableParseError)

# First three zero ordinates, to 9 decimals (standard reference values).
GAMMA_1 = 14.134725142
GAMMA_2 = 21.022039639
GAMMA_3 = 25.010857580


class TestBuiltinTables:
    def test_first100(self, zeros100):
        assert len(zeros100) == 100
        got = zeros100.ordinates[:3]
        assert np.allclose(got, [GAMMA_1, GAMMA_2, GAMMA_3], atol=1e-6)

    def test_10k(self, zeros10k):
        assert len(zeros10k) >= 10 ** 4
        assert zeros10k.max_ordinate > 9000.0
        assert np.allclose(zeros10k.ordinates[:3],
                           [GAMMA_1, GAMMA_2, GAMMA_3], atol=1e-6)

    def test_limit(self):
        t = zeros.builtin_table("10k", limit=100)
        assert len(t) == 100
        # gamma_100 = 236.524...
        assert 236.0 < t.max_ordinate < 237.0

    def test_never_empty(self, zeros100):
        with pytest.raises(IntegrityError, match="empty"):
            zeros.builtin_table("10k", limit=0)
        with pytest.raises(IntegrityError, match="empty"):
            zeros100.truncate(0)
        with pytest.raises(IntegrityError, match="empty"):
            zeros.ZeroTable(ordinates=np.array([]), source_label="none")

    def test_truncate(self, zeros100):
        t = zeros100.truncate(10)
        assert len(t) == 10
        assert t.max_ordinate == zeros100.ordinates[9]


class TestLoadAndParse:
    def test_roundtrip(self, tmp_path, zeros100):
        p = tmp_path / "z.txt"
        p.write_text("# comment\n\n" + "\n".join(
            f"{g:.9f}" for g in zeros100.ordinates) + "\n")
        t = zeros.load_zeros(p)
        assert len(t) == 100
        t = zeros.load_zeros(p, limit=7)
        assert len(t) == 7

    def test_non_numeric_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.134725142\nnot-a-number\n")
        with pytest.raises(TableParseError) as e:
            zeros.load_zeros(p)
        assert e.value.line_no == 2

    def test_descending_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("# hdr\n21.022039639\n14.134725142\n")
        with pytest.raises(TableParseError) as e:
            zeros.load_zeros(p)
        assert e.value.line_no == 3

    def test_nonpositive(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("-3.0\n")
        with pytest.raises(TableParseError):
            zeros.load_zeros(p)

    def test_empty_table(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing\n")
        with pytest.raises(IntegrityError, match="empty"):
            zeros.load_zeros(p)


class TestValidationGates:
    def test_first_ordinate_gate(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("12.0\n14.134725142\n")
        with pytest.raises(IntegrityError):
            zeros.load_zeros(p)

    def test_rvm_drift_gate(self, tmp_path, zeros100):
        # dropping a block of ordinates drives |N(T) - RvM(T)| past 2
        kept = np.concatenate([zeros100.ordinates[:20],
                               zeros100.ordinates[60:]])
        p = tmp_path / "gappy.txt"
        p.write_text("\n".join(f"{g:.9f}" for g in kept) + "\n")
        with pytest.raises(IntegrityError, match="RvM"):
            zeros.load_zeros(p)


class TestRvmEstimate:
    def test_tracks_true_counts(self, zeros100):
        # N(100) = 29, N(50) = 10 for the actual zeta zeros
        assert abs(zeros.rvm_estimate(100.0) - 29) < 2
        assert abs(zeros.rvm_estimate(50.0) - 10) < 2

    def test_domain(self):
        with pytest.raises(DomainError):
            zeros.rvm_estimate(10.0)


class TestCountBelow:
    def test_known_counts(self, zeros100):
        assert zeros.count_below(zeros100, 14.0) == 0
        assert zeros.count_below(zeros100, 50.0) == 10
        assert zeros.count_below(zeros100, 100.0) == 29

    def test_boundary_is_strict(self, zeros100):
        g1 = float(zeros100.ordinates[0])
        assert zeros.count_below(zeros100, g1) == 0
        assert zeros.count_below(zeros100, g1 + 1e-9) == 1

    def test_coverage(self, zeros100):
        with pytest.raises(CoverageError):
            zeros.count_below(zeros100, zeros100.max_ordinate + 1.0)


class TestSumInvGamma:
    def test_small_cases(self, zeros100):
        assert zeros.sum_inv_gamma(zeros100, 14.0) == 0.0
        one = zeros.sum_inv_gamma(zeros100, 15.0)
        assert one == pytest.approx(1.0 / GAMMA_1, rel=1e-9)
        want3 = 1 / GAMMA_1 + 1 / GAMMA_2 + 1 / GAMMA_3
        assert zeros.sum_inv_gamma(zeros100, 26.0) == pytest.approx(
            want3, rel=1e-9)

    def test_log_squared_growth(self, zeros10k):
        # sum_{gamma < T} 1/gamma ~ (1/4pi) log^2 T with O(log T) slack
        for T in (100.0, 1000.0, 10 ** 4):
            s = zeros.sum_inv_gamma(zeros10k, T)
            slack = abs(s - math.log(T) ** 2 / (4 * math.pi)) / math.log(T)
            assert slack <= 2.0


class TestInvGammaSqTail:
    def test_beyond_table(self, zeros100):
        in_table, bound = zeros.sum_inv_gamma_sq_tail(
            zeros100, zeros100.max_ordinate + 10.0)
        assert in_table == 0.0
        assert bound > 0.0

    def test_in_table_part(self, zeros100):
        in_table, _ = zeros.sum_inv_gamma_sq_tail(zeros100, 26.0)
        want = math.fsum(1.0 / zeros100.ordinates[3:] ** 2)
        assert in_table == pytest.approx(want, rel=1e-12)

    def test_bound_dominates_true_tail(self, zeros10k):
        # the analytic bound at M must exceed the actual in-table sum
        # beyond M (checked against the 10k table itself)
        for M in (100.0, 500.0, 2000.0):
            n_below = zeros.count_below(zeros10k, M)
            bound = zeros.inv_gamma_sq_beyond(M, n_below)
            actual, _ = zeros.sum_inv_gamma_sq_tail(zeros10k, M)
            assert bound >= actual * 0.99  # actual itself is truncated

    def test_bound_shrinks(self):
        b = [zeros.inv_gamma_sq_beyond(M, 0) for M in (10, 100, 1000, 10 ** 4)]
        assert all(x > y for x, y in zip(b, b[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            zeros.inv_gamma_sq_beyond(6.0, 0)
