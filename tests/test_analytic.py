import math

import mpmath
import pytest

from ppcount import analytic, counting
from ppcount.arith import iroot
from ppcount.errors import CapacityError, DomainError


class TestLi:
    def test_spot_values(self):
        # li(2) = 1.04516378..., li(10) = 6.16559898... (quadrature oracle)
        assert analytic.li(2.0) == pytest.approx(1.0451637801174927, rel=1e-12)
        assert analytic.li(10.0) == pytest.approx(6.1655995047872979, rel=1e-12)

    def test_against_quadrature(self):
        # li(x2) - li(x1) must equal the direct integral of dt/log t
        for x1, x2 in ((2.0, 10.0), (10.0, 1e4), (1e4, 1e6), (1e6, 1e8)):
            want = float(mpmath.quad(lambda t: 1 / mpmath.log(t), [x1, x2]))
            got = analytic.li_interval(x1, x2)
            assert got == pytest.approx(want, rel=1e-9)

    def test_relative_error_against_mpmath(self):
        # the documented accuracy: relative error below 1e-14 from 2 to
        # 10^15, so absolute error grows with x
        with mpmath.workdps(40):
            for x in [2.0, 10.0] + [10.0 ** (3 + i / 5) for i in range(61)]:
                want = mpmath.li(x)
                assert abs((analytic.li(x) - want) / want) < 1e-14, x

    @pytest.mark.parametrize("x1,x2", [
        (1e12, 1e12 + 1),          # a difference of two li lost 7e-4 here
        (1e6, 1e6 + 1),
        (2.0, 2.0 + 1e-9),
        # both ends on grid lines u = log 2 + j/2 of the quadrature
        (2 * math.exp(10), 2 * math.exp(20)),
    ])
    def test_interval_against_mpmath(self, x1, x2):
        with mpmath.workdps(30):
            want = mpmath.li(x2) - mpmath.li(x1)
        assert abs(analytic.li_interval(x1, x2) / want - 1) < 1e-12

    def test_strictly_increasing(self):
        vals = [analytic.li(x) for x in (2, 5, 10, 1e3, 1e6, 1e12, 1e15)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        for x in (1.5, 1.0, 0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                analytic.li(x)
        for x1, x2 in ((10.0, 2.0), (1.5, 10.0), (10.0, math.inf)):
            with pytest.raises(DomainError):
                analytic.li_interval(x1, x2)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_exact_on_even_powers(self, n):
        # the n-point rule integrates z^(2j) over [-1, 1] exactly for
        # j < n; weights from P_n' off the node missed by up to 8.9e-15
        nodes, weights = analytic._gauss_legendre(n)
        assert abs(math.fsum(weights) - 2) <= 2e-15
        for j in range(n):
            got = math.fsum(w * z ** (2 * j) for z, w in zip(nodes, weights))
            assert abs(got - 2 / (2 * j + 1)) <= 2e-15, j


def per_window_li(x, h, k):
    """Reference route at 30 digits: li(hi) - li(lo) over each window
    (x/m^k, (x+h)/m^k] with exact rational ends, clipped below at 2."""
    parts = []
    with mpmath.workdps(30):
        for m in range(1, iroot(x + h, k) + 1):
            lo = max(mpmath.mpf(x) / m ** k, 2)
            hi = mpmath.mpf(x + h) / m ** k
            if hi > lo:
                parts.append(mpmath.li(hi) - mpmath.li(lo))
        return mpmath.fsum(parts)


class TestIntervalMainTerm:
    @pytest.mark.parametrize("x,h,k", [
        (10 ** 6, 10 ** 4, 2),
        (10 ** 6, 10 ** 6, 2),     # m in 708..999 straddle t = 2
        (10 ** 5, 10 ** 5, 3),     # m in 37..46 straddle t = 2
        (10 ** 12, 10 ** 7, 3),
        (10, 10 ** 6, 2),          # windows many panels wide
    ])
    def test_against_per_window_li(self, x, h, k):
        want = per_window_li(x, h, k)
        assert abs(analytic.interval_main_term(x, h, k) / want - 1) < 1e-12

    @pytest.mark.parametrize("x,h,k", [
        (1, 10 ** 8 - 1, 2),       # two blocks of m, each sized alone
        (1, 10 ** 9 - 1, 3),
        # the block from m = 4097 opens on (2, 2 + 4097^-5], a window
        # that rounds to width <= 0 in log t
        (4097 ** 5 + 1, 4097 ** 5, 5),
    ])
    def test_blocks_of_m(self, x, h, k):
        want = per_window_li(x, h, k)
        assert abs(analytic.interval_main_term(x, h, k) / want - 1) < 1e-12

    def test_against_quadrature(self):
        # (5, 25], k = 2: windows (5, 25], (1.25, 6.25] and
        # (5/9, 25/9], the last two clipped to start at t = 2
        want = 0.0
        for lo, hi in ((5, 25), (2, 6.25), (2, 25 / 9)):
            want += float(mpmath.quad(lambda t: 1 / mpmath.log(t), [lo, hi]))
        assert analytic.interval_main_term(5, 20, 2) == pytest.approx(
            want, rel=1e-9)

    def test_below_two_is_zero(self):
        assert analytic.interval_main_term(1, 1, 2) == 0.0
        # (1, 3]: only [2, 3] counts
        assert analytic.interval_main_term(1, 2, 2) == pytest.approx(
            analytic.li_interval(2.0, 3.0), rel=1e-12)

    def test_exceeds_leading_order(self):
        # the m >= 2 windows add the secondary term, 4-5% at 10^12, k = 2
        x, h = 10 ** 12, 10 ** 8
        ratio = (analytic.interval_main_term(x, h, 2)
                 / (analytic.zeta_int(2) * analytic.li_interval(x, x + h)))
        assert 1.04 < ratio < 1.06

    def test_domain(self):
        for x, h, k in ((0, 10, 2), (10, 0, 2), (10, 10, 1)):
            with pytest.raises(DomainError):
                analytic.interval_main_term(x, h, k)

    def test_window_budget(self, monkeypatch):
        # past 10^8 windows of m, refused before any window is summed
        monkeypatch.setattr(analytic, "_log_integral", None)
        for x in (10 ** 300, 10 ** 400):
            with pytest.raises(CapacityError):
                analytic.interval_main_term(x, 10, 2)
        with pytest.raises(CapacityError):
            counting.count_main_terms(10 ** 17, 2)


class TestZetaInt:
    def test_known_closed_forms(self):
        assert analytic.zeta_int(2) == pytest.approx(math.pi ** 2 / 6,
                                                     abs=1e-12)
        assert analytic.zeta_int(4) == pytest.approx(math.pi ** 4 / 90,
                                                     abs=1e-12)
        assert analytic.zeta_int(3) == pytest.approx(1.2020569031595943,
                                                     abs=1e-12)

    def test_series_bracketing(self):
        # partial sum < zeta(k) < partial sum + integral tail bound
        for k in (2, 3, 5, 10):
            M = 1000
            partial = sum(m ** -k for m in range(1, M + 1))
            tail = M ** (1 - k) / (k - 1)
            # epsilon absorbs the final-ulp rounding of the partial sum
            eps = 1e-14
            assert partial - eps < analytic.zeta_int(k) < partial + tail + eps

    def test_monotone_to_one(self):
        vals = [analytic.zeta_int(k) for k in range(2, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert analytic.zeta_int(64) - 1.0 < 1e-18
        assert analytic.zeta_int(100) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            analytic.zeta_int(1)


class TestExponents:
    def test_table(self):
        assert analytic.exponents(2) == 2
        assert analytic.exponents(3) == 1
        assert analytic.exponents(7) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            analytic.exponents(1)
