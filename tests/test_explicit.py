import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ppcount import arith, explicit
from ppcount.errors import CoverageError, DomainError

from conftest import naive_lambda


class TestTrapezoidWeight:
    def test_plateau_ramps_support(self):
        w = explicit.TrapezoidWeight(x=100.0, h=50.0, delta=10.0)
        assert explicit.weight_eval(w, 100.0) == 1.0
        assert explicit.weight_eval(w, 150.0) == 1.0
        assert explicit.weight_eval(w, 125.0) == 1.0
        assert explicit.weight_eval(w, 90.0) == 0.0
        assert explicit.weight_eval(w, 160.0) == 0.0
        assert explicit.weight_eval(w, 95.0) == 0.5
        assert explicit.weight_eval(w, 155.0) == 0.5
        assert explicit.weight_eval(w, 50.0) == 0.0
        assert explicit.weight_eval(w, 1000.0) == 0.0

    def test_invalid_shapes(self):
        with pytest.raises(DomainError):
            explicit.TrapezoidWeight(x=100.0, h=50.0, delta=1.0)
        with pytest.raises(DomainError):
            explicit.TrapezoidWeight(x=100.0, h=200.0, delta=10.0)
        with pytest.raises(DomainError):
            explicit.TrapezoidWeight(x=10.0, h=50.0, delta=5.0)

    @given(st.floats(2.0, 100.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_range_and_symmetry(self, d, a, b):
        h = d + 100.0 * a
        x = h + 1000.0 * b
        if x < h:  # float fuzz guard
            return
        w = explicit.TrapezoidWeight(x=x, h=h, delta=d)
        for t in np.linspace(x - 2 * d, x + h + 2 * d, 41):
            v = explicit.weight_eval(w, float(t))
            assert 0.0 <= v <= 1.0
            # the weight is symmetric about the plateau midpoint
            mirror = (2 * x + h) - float(t)
            assert v == pytest.approx(explicit.weight_eval(w, mirror),
                                      abs=1e-9)


class TestPsi1Exact:
    def test_tiny_values(self, base100):
        assert explicit.psi1_exact(1.0, base100) == 0.0
        assert explicit.psi1_exact(2.0, base100) == 0.0
        assert explicit.psi1_exact(3.0, base100) == pytest.approx(math.log(2))
        # direct: sum (10 - n) Lambda(n) for n in {2,3,4,5,7,8,9}
        want10 = ((10 - 2) * math.log(2) + (10 - 3) * math.log(3)
                  + (10 - 4) * math.log(2) + (10 - 5) * math.log(5)
                  + (10 - 7) * math.log(7) + (10 - 8) * math.log(2)
                  + (10 - 9) * math.log(3))
        assert explicit.psi1_exact(10.0, base100) == pytest.approx(
            want10, abs=1e-10)

    def test_integral_of_psi(self, base_1e4):
        # psi_1(x) = integral of psi(t) dt from 2 to x; psi is constant on
        # [n, n+1), so the integral is an exact finite sum
        x = 1000
        cum = 0.0
        integral = 0.0
        for n in range(2, x):
            cum += naive_lambda(n)
            integral += cum
        assert explicit.psi1_exact(float(x), base_1e4) == pytest.approx(
            integral, rel=1e-12)

    def test_slope_is_psi(self, base_1e4):
        # between consecutive integers, d(psi_1)/dx = psi(floor(x))
        for x in (100.3, 1009.5, 5000.25):
            eps = 0.125
            slope = (explicit.psi1_exact(x + eps, base_1e4)
                     - explicit.psi1_exact(x - eps, base_1e4)) / (2 * eps)
            assert slope == pytest.approx(
                arith.psi(math.floor(x), base_1e4), rel=1e-9)

    def test_domain(self, base100):
        with pytest.raises(DomainError):
            explicit.psi1_exact(0.5, base100)

    def test_across_segments_against_dense(self):
        # (1, x] spans four 2^20 segments; the reference sets
        # Lambda(p^r) = log p densely from a complete prime table
        x = 3 * 2 ** 20 + 0.5
        table = arith.sieve_primes(math.floor(x))
        lam = np.zeros(math.floor(x) + 1)
        for p in table.primes.tolist():
            pr = p
            while pr <= x:
                lam[pr] = math.log(p)
                pr *= p
        n = np.nonzero(lam)[0]
        want = math.fsum(((x - n) * lam[n]).tolist())
        got = explicit.psi1_exact(x, arith.sieve_primes(2000))
        assert got == pytest.approx(want, rel=1e-12)


class TestSDelta:
    def test_direct_against_naive(self, base_1e4):
        x, h, d = 1000.0, 100.0, 10.0
        w = explicit.TrapezoidWeight(x=x, h=h, delta=d)
        want = math.fsum(naive_lambda(n) * explicit.weight_eval(w, float(n))
                         for n in range(2, 1200))
        assert explicit.s_delta_direct(x, h, d, base_1e4) == pytest.approx(
            want, rel=1e-12)

    def test_psi1_route_matches_direct(self, base_1e4):
        # the last three supports straddle the segment boundaries near
        # 2^20 and 3*2^20
        for x, h, d in ((1000.0, 100.0, 10.0), (5000.0, 2500.0, 2500.0),
                        (300.5, 30.25, 2.0), (10 ** 5 + 0.5, 10.0, 3.0),
                        (2.0 ** 20 - 1000.5, 3000.25, 500.0),
                        (3 * 2.0 ** 20 - 10.0, 50.0, 20.5),
                        (1.5 * 2 ** 20, 1.5 * 2 ** 20 - 1.0, 4000.0)):
            a = explicit.s_delta_direct(x, h, d, base_1e4)
            b = explicit.s_delta_via_psi1(x, h, d, base_1e4)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-9)

    def test_psi1_route_walks_once(self, base_1e4, monkeypatch):
        calls, real = [], arith.lambda_segment

        def counting_segment(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(arith, "lambda_segment", counting_segment)
        explicit.s_delta_via_psi1(10 ** 5 + 0.5, 5000.0, 300.0, base_1e4)
        assert calls == [(1, 10 ** 5 + 5300)]

    def test_direct_route_sieves_one_segment_at_a_time(self, base_1e4,
                                                       monkeypatch):
        widths, real = [], arith.lambda_segment

        def counting_segment(lo, hi, *args, **kwargs):
            widths.append(hi - lo)
            return real(lo, hi, *args, **kwargs)

        monkeypatch.setattr(arith, "lambda_segment", counting_segment)
        # support (x - delta, x + h + delta] is just over 3 * 2^20 long
        x, h, d = 4 * 2.0 ** 20, 3 * 2.0 ** 20, 1000.0
        explicit.s_delta_direct(x, h, d, base_1e4)
        assert sum(widths) == 3 * 2 ** 20 + 2000
        assert max(widths) <= arith.DEFAULT_SEGMENT_LENGTH

    def test_dominates_interval_psi(self, base_1e4):
        # weight is 1 on (x, x+h], so S_Delta >= psi(x+h) - psi(x)
        x, h, d = 2000.0, 500.0, 100.0
        sd = explicit.s_delta_direct(x, h, d, base_1e4)
        assert sd >= (arith.psi(x + h, base_1e4)
                      - arith.psi(x, base_1e4)) - 1e-9

    def test_prime_power_free_ramps(self, base_1e4):
        # put both ramps inside prime gaps free of prime powers: (896,900)
        # sits in the gap (887,907), (1340,1344) in (1327,1361); then the
        # ramps contribute nothing and S_Delta collapses to the psi diff
        x, h, d = 900.0, 440.0, 4.0
        sd = explicit.s_delta_direct(x, h, d, base_1e4)
        want = arith.psi(x + h, base_1e4) - arith.psi(x, base_1e4)
        assert sd == pytest.approx(want, rel=1e-12)


class TestSRho:
    def test_four_point_stencil_at_rho_one(self):
        # the same second-difference stencil at rho = 1 telescopes to
        # Delta * (h + Delta) exactly
        x, h, d = 1000.0, 100.0, 10.0
        num = sum(s * t ** 2 for s, t in
                  ((1, x + h + d), (-1, x + h), (-1, x), (1, x - d)))
        assert num / 2.0 == pytest.approx(d * (h + d), rel=1e-12)

    def test_matches_double_integral(self):
        # S(rho) = int_{x+h}^{x+h+D} int_{u-h-D}^{u} t^{rho-1} dt du
        x, h, d = 50.0, 20.0, 5.0
        gamma = 14.134725142
        rho = 0.5 + 1j * gamma

        def integrand(t, part):
            v = t ** (rho - 1.0)
            return v.real if part == "re" else v.imag

        def inner(u, part):
            val, _ = integrate.quad(integrand, u - h - d, u, args=(part,),
                                    limit=400)
            return val

        re, _ = integrate.quad(inner, x + h, x + h + d, args=("re",),
                               limit=400)
        im, _ = integrate.quad(inner, x + h, x + h + d, args=("im",),
                               limit=400)
        got = explicit.s_rho(gamma, x, h, d)
        assert got.real == pytest.approx(re, abs=1e-7)
        assert got.imag == pytest.approx(im, abs=1e-7)

    def test_magnitude_bound(self):
        # |S(rho)| <= 4 (x+h+D)^{3/2} / gamma^2 since each endpoint power
        # has modulus t^{3/2} and |rho(rho+1)| >= gamma^2
        x, h, d = 1e5, 1e3, 1e2
        for gamma in (14.1347, 50.0, 333.3, 1000.0, 9999.0):
            bound = 4.0 * (x + h + d) ** 1.5 / gamma ** 2
            assert abs(explicit.s_rho(gamma, x, h, d)) <= bound

    def test_conjugate_pairing_is_real(self):
        x, h, d = 1000.0, 100.0, 10.0
        g = 21.022039639
        paired = explicit.s_rho(g, x, h, d) + explicit.s_rho(-g, x, h, d)
        ends = explicit.TrapezoidWeight(x=x, h=h, delta=d).ends
        folded = explicit._s_rho_sums(np.array([g]), ends)[0]
        assert paired.imag == pytest.approx(0.0, abs=1e-9)
        assert folded == pytest.approx(paired.real, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            explicit.s_rho(0.0, 1000.0, 100.0, 10.0)


class TestTrivialZeroTail:
    def test_leading_term(self):
        # dominated by x^{-1}/2 for large x
        assert explicit.trivial_zero_tail(1e8) == pytest.approx(
            0.5e-8, rel=1e-8)

    def test_series_value(self):
        x = 10.0
        want = math.fsum(x ** (1 - 2 * r) / ((2 * r) * (2 * r - 1))
                         for r in range(1, 40))
        assert explicit.trivial_zero_tail(x) == pytest.approx(want, rel=1e-12)


class TestPsi1ViaZeros:
    def test_converges_to_exact(self, base_1e4, zeros10k):
        x = 1e4
        exact = explicit.psi1_exact(x, base_1e4)
        gaps = []
        for n in (10, 100, 1000, 10 ** 4):
            val, bound = explicit.psi1_via_zeros(x, zeros10k.truncate(n))
            gaps.append(abs(val - exact) / exact)
            assert bound > 0
        assert gaps[-1] < 1e-3
        assert gaps[-1] < gaps[0]

    def test_gap_within_bound(self, base_1e4, zeros10k):
        x = 500.0
        exact = explicit.psi1_exact(x, base_1e4)
        val, bound = explicit.psi1_via_zeros(x, zeros10k)
        assert abs(val - exact) <= bound * 10.0

    def test_per_zero_terms(self, zeros100):
        # 2*Re x^(rho+1) / (rho(rho+1)) in Python complex arithmetic
        for x in (10.0, 1e4, 3e7):
            want = [2.0 * (x ** (rho + 1) / (rho * (rho + 1))).real
                    for rho in (0.5 + 1j * g
                                for g in zeros100.ordinates.tolist())]
            got = explicit._s_rho_sums(zeros100.ordinates, ((1.0, x),))
            assert got == pytest.approx(want, rel=1e-12)

    def test_returns_real_float(self, zeros100):
        val, bound = explicit.psi1_via_zeros(50.0, zeros100)
        assert isinstance(val, float) and isinstance(bound, float)

    def test_domain(self, zeros100):
        with pytest.raises(DomainError):
            explicit.psi1_via_zeros(1.5, zeros100)


class TestSDeltaViaZeros:
    def test_prediction_within_bound(self, base_1e4, zeros10k):
        for x, h, d in ((1000.0, 100.0, 10.0), (5000.0, 500.0, 50.0)):
            direct = explicit.s_delta_direct(x, h, d, base_1e4)
            pred, bound = explicit.s_delta_via_zeros(x, h, d, zeros10k)
            assert abs(pred - direct) <= bound * 10.0

    def test_main_term_shape(self, zeros10k):
        # prediction = h + delta - zero sum / delta, and the
        # zero part is small compared with h at this scale
        x, h, d = 10000.0, 1000.0, 100.0
        pred, _ = explicit.s_delta_via_zeros(x, h, d, zeros10k)
        assert abs(pred - (h + d)) < h


class TestZeroSumBreakdown:
    def test_partition_sums_to_total(self, zeros10k):
        x, h, d = 1e5, 1e3, 1e2
        bd = explicit.zero_sum_breakdown(x, h, d, zeros10k)
        ends = explicit.TrapezoidWeight(x=x, h=h, delta=d).ends
        full = math.fsum(
            explicit._s_rho_sums(zeros10k.ordinates, ends)[::-1])
        assert abs(bd.total - full) <= 1e-9 * max(abs(full), 1.0)

    def test_ratios_bounded(self, zeros10k):
        bd = explicit.zero_sum_breakdown(1e5, 1e3, 1e2, zeros10k)
        assert all(r <= 10.0 for r in bd.ratios)
        assert bd.remainder_bound > 0

    def test_degenerate_delta_equals_h(self, zeros10k):
        bd = explicit.zero_sum_breakdown(1e4, 1e2, 1e2, zeros10k)
        assert bd.mid == 0
        assert bd.ratios[1] == 0.0

    def test_coverage_error(self, zeros100):
        with pytest.raises(CoverageError):
            explicit.zero_sum_breakdown(1e6, 1e3, 1e2, zeros100)
