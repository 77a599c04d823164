import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_float, mpf_cos_sin, mpf_mul, mpf_sqrt, to_fixed

from ppcount import arith, explicit
from ppcount.errors import CapacityError, CoverageError, DomainError

from conftest import naive_lambda, s_rho_reference


def weight_eval(w: explicit.TrapezoidWeight, n: float) -> float:
    """The trapezoid weight at one point, branch by branch: the scalar
    reference for explicit._weights_vec and the naive S_Delta sum."""
    x, h, d = w.x, w.h, w.delta
    if n <= x - d or n >= x + h + d:
        return 0.0
    if n < x:
        return (n - x + d) / d
    if n <= x + h:
        return 1.0
    return (x + h + d - n) / d


def scan_triples(seed: int) -> list[tuple[float, float, float]]:
    """The 60 (x, h, delta) triples of the benchmark's explicit-scan
    workload for this seed, drawn as it draws them: x on a log grid over
    [1e5, 1e6]."""
    rng = random.Random(seed)
    rng.randrange(10 ** 5), rng.randrange(10 ** 5)  # its psi and cstar x
    triples = []
    for i in range(60):
        x = round(10 ** (5 + i / 60)) + rng.randrange(1000)
        d = math.ceil(x / rng.uniform(1000, 9500))
        h = min(x, d * rng.randrange(2, 41))
        triples.append((float(x), float(h), float(d)))
    return triples


def s_rho(gamma: float, x: float, h: float, delta: float) -> complex:
    """S(rho) for the one zero rho = 1/2 + i*gamma (gamma != 0), by
    complex powers: the scalar reference for explicit._s_rho_sums."""
    w = explicit.TrapezoidWeight(x=x, h=h, delta=delta)
    rho = 0.5 + 1j * gamma
    num = 0.0 + 0.0j
    for sign, t in w.ends:
        if t > 0.0:
            num += sign * complex(t) ** (rho + 1.0)
    return num / (rho * (rho + 1.0))


class TestTrapezoidWeight:
    def test_plateau_ramps_support(self):
        w = explicit.TrapezoidWeight(x=100.0, h=50.0, delta=10.0)
        assert weight_eval(w, 100.0) == 1.0
        assert weight_eval(w, 150.0) == 1.0
        assert weight_eval(w, 125.0) == 1.0
        assert weight_eval(w, 90.0) == 0.0
        assert weight_eval(w, 160.0) == 0.0
        assert weight_eval(w, 95.0) == 0.5
        assert weight_eval(w, 155.0) == 0.5
        assert weight_eval(w, 50.0) == 0.0
        assert weight_eval(w, 1000.0) == 0.0

    def test_vector_matches_scalar(self):
        # both ramps, the plateau, the support's ends and beyond
        for x, h, d in ((100.0, 50.0, 10.0), (1000.5, 30.25, 7.125)):
            w = explicit.TrapezoidWeight(x=x, h=h, delta=d)
            ns = np.linspace(x - 2 * d, x + h + 2 * d, 97)
            ns = np.concatenate((ns, [x - d, x, x + h, x + h + d]))
            got = explicit._weights_vec(w, ns)
            want = [weight_eval(w, n) for n in ns.tolist()]
            assert got.tolist() == pytest.approx(want, abs=1e-12)

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
            v = weight_eval(w, float(t))
            assert 0.0 <= v <= 1.0
            # the weight is symmetric about the plateau midpoint
            mirror = (2 * x + h) - float(t)
            assert v == pytest.approx(weight_eval(w, mirror),
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

    def test_term_arrays_sum_exactly(self, base100):
        # the arrays' exact sum is sum (t - n) * log p with no rounding:
        # t - n is exact below 2^53 and the two-product keeps the rest
        seg = arith.lambda_segment(0, 5000, base100)
        rng = random.Random(16)
        ts = [2.0, 2.5, 4999.5, 5000.0, 2.0 ** 40 + 0.5]
        for i in range(26):
            t = math.exp(rng.uniform(math.log(2.0), math.log(1e10)))
            ts.append(float(math.floor(t)) if i % 2 else t)
        assert sum(t != math.floor(t) for t in ts) >= 15
        for t in ts:
            got = sum(Fraction(v) for a in explicit._psi1_term_arrays(t, seg)
                      for v in a.tolist())
            want = sum((Fraction(t) - n) * Fraction(lp)
                       for n, lp in zip(seg.n.tolist(), seg.log_p.tolist())
                       if n <= t)
            assert got == want, t

    def test_sum_is_correctly_rounded(self, base100):
        # one endpoint and the four signed trapezoid endpoints: the float
        # nearest the exact sum of sign * (t - n) * log p over the table's
        # log p values, fractional and integral t alike
        seg = arith.lambda_segment(0, 10 ** 4, base100)
        terms = list(zip(seg.n.tolist(), seg.log_p.tolist()))

        def exact_psi1(t):
            return sum((Fraction(t) - n) * Fraction(lp) for n, lp in terms
                       if n <= t)

        cases = [((1.0, t),) for t in (2.0, 7.5, 1000.0, 4321.25, 4999.0)]
        cases += [explicit.TrapezoidWeight(x, h, d).ends
                  for x, h, d in ((1000.0, 100.0, 10.0), (2500.5, 40.0, 2.0),
                                  (3000.0, 1500.0, 999.5), (17.0, 17.0, 16.0),
                                  (1234.5678, 321.25, 7.125))]
        for signed in cases:
            want = float(sum(Fraction(sign) * exact_psi1(t)
                             for sign, t in signed))
            assert explicit._psi1_sum(signed, base100) == want, signed

    def test_fsum_stream_stays_short(self, base_1e4, monkeypatch):
        # the terms are reduced per binary exponent before fsum sees
        # them: a few floats per term array, not one per prime power
        fed = []
        fsum = math.fsum

        def counting_fsum(values):
            values = list(values)
            fed.append(len(values))
            return fsum(values)

        monkeypatch.setattr(explicit.math, "fsum", counting_fsum)
        explicit.psi1_exact(10 ** 6 + 0.5, base_1e4)
        assert fed and sum(fed) <= 2000

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


def exact_sum(values) -> Fraction:
    """sum(Fraction(v) for v in values), as one integer over 2^1074."""
    total = 0
    for v in values:
        n, d = v.as_integer_ratio()
        total += n << (1075 - d.bit_length())
    return Fraction(total, 1 << 1074)


class TestExactParts:
    @pytest.mark.parametrize("values", [
        [],
        [0.0, -0.0, 0.0, -0.0],
        [0.0, -0.0, 1.5, -0.0, -2.25, 0.0],
        [2.0 ** 60, 1.0, -2.0 ** 60, 2.0 ** -60],
        [1.0, 2.0 ** -53, 2.0 ** -53, -1.0, 3.0 * 2.0 ** 52, -(2.0 ** 53)],
    ])
    def test_small_arrays(self, values):
        a = np.array(values, dtype=np.float64)
        parts = explicit._exact_parts(a)
        assert exact_sum(parts.tolist()) == exact_sum(values)

    def test_mixed_signs_and_exponents(self):
        rng = np.random.default_rng(17)
        k = np.repeat(np.arange(-80, 61), 50)
        a = rng.uniform(0.5, 1.0, k.size) * 2.0 ** k
        a *= rng.choice([-1.0, 1.0], k.size)
        parts = explicit._exact_parts(a)
        assert len(parts) == 2 * 141
        assert exact_sum(parts.tolist()) == exact_sum(a.tolist())

    def test_full_binade(self):
        # every value at the top of one binade: the per-exponent sums
        # of the halves are at their largest
        a = np.full(2 ** 16, 1.0 - 2.0 ** -53)
        a[1::3] = -np.nextafter(1.0, 0.0) / 1.5
        parts = explicit._exact_parts(a)
        assert exact_sum(parts.tolist()) == exact_sum(a.tolist())

    def test_seeded_large_array(self):
        rng = np.random.default_rng(2015)
        a = (rng.standard_normal(2 ** 20)
             * 2.0 ** rng.integers(-80, 61, 2 ** 20))
        parts = explicit._exact_parts(a)
        assert exact_sum(parts.tolist()) == exact_sum(a.tolist())

    def test_refuses_2_26_values(self):
        # past 2^26 values a bucket sum could round; a zero table that
        # long would reach here through every zero sum. broadcast_to
        # allocates nothing
        with pytest.raises(CapacityError, match="2\\^26"):
            explicit._exact_parts(np.broadcast_to(1.0, (1 << 26,)))


class TestSDelta:
    def test_direct_against_naive(self, base_1e4):
        x, h, d = 1000.0, 100.0, 10.0
        w = explicit.TrapezoidWeight(x=x, h=h, delta=d)
        want = math.fsum(naive_lambda(n) * weight_eval(w, float(n))
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
        # the support (x - delta, x + h + delta]: below it the four
        # signed terms of each prime power cancel exactly
        assert calls == [(10 ** 5 - 300, 10 ** 5 + 5300)]

    def test_support_walk_equals_full_walk(self, base_1e4):
        # integral triples, so every endpoint is exact: the supports
        # straddle the full walk's segment boundaries near 2^20 and
        # 3*2^20, the third is longer than one segment, and x = delta
        # starts the walk at 0
        for x, h, d in ((2 ** 20 - 1000, 3000, 500),
                        (3 * 2 ** 20 - 10, 50, 20),
                        (3 * 2 ** 19, 3 * 2 ** 19 - 1, 4000),
                        (10 ** 4, 10 ** 4, 10 ** 4)):
            x, h, d = float(x), float(h), float(d)
            w = explicit.TrapezoidWeight(x=x, h=h, delta=d)
            full = explicit._psi1_sum(w.ends, base_1e4, 1) / d
            assert explicit.s_delta_via_psi1(x, h, d, base_1e4) == full

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

    def test_left_end_at_zero(self, base_1e4, zeros10k):
        # delta = h = x puts the trapezoid's left end x - delta at 0,
        # the endpoint the zero route skips: t^(rho+1) is 0 there
        x = h = d = 1e4
        a = explicit.s_delta_direct(x, h, d, base_1e4)
        b = explicit.s_delta_via_psi1(x, h, d, base_1e4)
        assert abs(a - b) / max(abs(a), 1.0) <= 1e-8
        pred, _ = explicit.s_delta_via_zeros(x, h, d, zeros10k)
        bd = explicit.zero_sum_breakdown(x, h, d, zeros10k)
        assert math.isfinite(pred)
        assert pred == pytest.approx(h + d - bd.total / d, rel=1e-12)

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

        def inner(u):
            return mpmath.quad(lambda t: t ** (rho - 1), [u - h - d, u])

        want = complex(mpmath.quad(inner, [x + h, x + h + d]))
        got = s_rho(gamma, x, h, d)
        assert got.real == pytest.approx(want.real, abs=1e-7)
        assert got.imag == pytest.approx(want.imag, abs=1e-7)

    def test_magnitude_bound(self):
        # |S(rho)| <= 4 (x+h+D)^{3/2} / gamma^2 since each endpoint power
        # has modulus t^{3/2} and |rho(rho+1)| >= gamma^2
        x, h, d = 1e5, 1e3, 1e2
        for gamma in (14.1347, 50.0, 333.3, 1000.0, 9999.0):
            bound = 4.0 * (x + h + d) ** 1.5 / gamma ** 2
            assert abs(s_rho(gamma, x, h, d)) <= bound

    def test_conjugate_pairing_is_real(self):
        x, h, d = 1000.0, 100.0, 10.0
        g = 21.022039639
        paired = s_rho(g, x, h, d) + s_rho(-g, x, h, d)
        ends = explicit.TrapezoidWeight(x=x, h=h, delta=d).ends
        folded = explicit._s_rho_sums(np.array([g]), ends)[0]
        assert paired.imag == pytest.approx(0.0, abs=1e-9)
        assert folded == pytest.approx(paired.real, rel=1e-9)


def mp_zero_terms(gammas: np.ndarray, signed) -> np.ndarray:
    """explicit._s_rho_sums from mpmath at the kernel's own rounded
    phases gamma * log t: each t^1.5 * cos and t^1.5 * sin to 90 bits,
    summed in fixed point with units of 2^-120, then divided by
    rho(rho+1) in integers and rounded once."""
    ends = []
    for sign, t in signed:
        if t > 0.0:
            tf = from_float(t)
            ends.append((int(sign), mpf_mul(tf, mpf_sqrt(tf, 90), 90),
                         math.log(t)))
    out = []
    for g in gammas.tolist():
        nr = ni = 0
        for sign, amp, lt in ends:
            c, s = mpf_cos_sin(from_float(g * lt), 90)
            nr += sign * to_fixed(mpf_mul(amp, c, 90), 120)
            ni += sign * to_fixed(mpf_mul(amp, s, 90), 120)
        num, den = g.as_integer_ratio()
        # 4 den^2 rho(rho+1) = p + iq
        p, q = 3 * den * den - 4 * num * num, 8 * num * den
        out.append(8 * den * den * (p * nr + q * ni)
                   / ((p * p + q * q) << 120))
    return np.array(out)


def term_scale(gammas: np.ndarray, signed) -> np.ndarray:
    """m(gamma) = 2 * sum over t of t^1.5 / |rho(rho+1)|, the size of
    each endpoint's part of a term before cancellation."""
    amp = sum(t ** 1.5 for _, t in signed if t > 0.0)
    rho = 0.5 + 1j * gammas
    return 2.0 * amp / np.abs(rho * (rho + 1.0))


# the kernel's error contract: within 4 ulps of m(gamma)
KERNEL_ULPS = 4.0


def kernel_ulps(gammas: np.ndarray, signed) -> float:
    """The kernel's largest error against mpmath, in 2^-52 * m(gamma)."""
    got = explicit._s_rho_sums(gammas, signed)
    want = mp_zero_terms(gammas, signed)
    return float(np.max(np.abs(got - want) / term_scale(gammas, signed))
                 / 2.0 ** -52)


class TestZeroSumKernel:
    def test_polynomials_on_half_period(self):
        # Horner's sin r and cos r on |r| <= pi/2 against mpmath, within
        # 1.25 * 2^-52 (measured 1.0 and 0.81); sin through r^19 only
        # reads 1.5 near r = pi/2
        r = np.linspace(-math.pi / 2, math.pi / 2, 4001)
        r2 = r * r
        sin_r = explicit._horner(r2, explicit._SIN, np.empty_like(r)) * r
        cos_r = explicit._horner(r2, explicit._COS, np.empty_like(r))
        for v, s, c in zip(r.tolist(), sin_r.tolist(), cos_r.tolist()):
            want_c, want_s = (mpmath.mpf(w) for w in
                              mpf_cos_sin(from_float(v), 90))
            assert abs(s - want_s) <= 1.25 * 2.0 ** -52, v
            assert abs(c - want_c) <= 1.25 * 2.0 ** -52, v

    @pytest.mark.parametrize("t", [10.0, 1e4, 3e7 + 123, 2.0 ** 599])
    def test_single_endpoint_against_mpmath(self, zeros10k, t):
        ulps = kernel_ulps(zeros10k.ordinates, ((1.0, t),))
        assert ulps <= KERNEL_ULPS, ulps

    @pytest.mark.parametrize("i", [0, 15, 30, 45, 59])
    def test_scan_triple_against_mpmath(self, zeros10k, i):
        x, h, d = scan_triples(1)[i]
        ends = explicit.TrapezoidWeight(x=x, h=h, delta=d).ends
        ulps = kernel_ulps(zeros10k.ordinates, ends)
        assert ulps <= KERNEL_ULPS, (x, h, d, ulps)

    @pytest.mark.parametrize("t", [0.5, 0.999, 7.0, 1e4])
    def test_phases_on_and_beside_multiples_of_half_pi(self, t):
        # q flips where the phase crosses an odd multiple of pi/2, and
        # sin r or cos r vanishes at the multiples; t < 1 gives negative
        # phases, and ordinate 0 or the endpoint t = 1 phase 0
        lt = abs(math.log(t))
        g = [0.0]
        for k in (1, 2, 3, 4, 7, 8, 1001, 1002, 2 ** 20 + 1, 2 ** 20 + 2,
                  2 ** 33 - 3, 2 ** 33 - 4):
            v = k * (math.pi / 2) / lt
            g += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf),
                  v * (1 - 2.0 ** -40), v * (1 + 2.0 ** -40)]
        g = np.array(g)
        for ends in (((1.0, t),),
                     ((1.0, t), (-1.0, 1.0), (-1.0, math.sqrt(t)))):
            ulps = kernel_ulps(g, ends)
            assert ulps <= KERNEL_ULPS, (ends, ulps)

    def test_phase_refusal(self):
        # q * pi is exact only for |q| < 2^32: the largest phase the
        # kernel reduces has q = 2^32 - 1, and the next multiple of pi is
        # refused, like an endpoint from 2^600 on
        lt = math.log(2.0)
        top = (2 ** 32 - 1) * math.pi / lt
        assert kernel_ulps(np.array([14.134725141734695, top]),
                           ((1.0, 2.0),)) <= KERNEL_ULPS
        for big in (2 ** 32 * math.pi / lt, 1e30, math.inf, math.nan):
            with pytest.raises(DomainError, match="2\\^32"):
                explicit._s_rho_sums(np.array([14.134725141734695, big]),
                                     ((1.0, 2.0),))
        # log t < 0 the same way: the phase bound is on |gamma * log t|
        with pytest.raises(DomainError, match="2\\^32"):
            explicit._s_rho_sums(np.array([2 ** 32 * math.pi / lt]),
                                 ((1.0, 0.5),))

    def test_scan_sums_against_complex_exponentials(self, zeros10k):
        # explicit-scan's seed-1 zero sums against complex exponentials
        # and complex division, relative to the sum of m(gamma)
        g = zeros10k.ordinates
        for x, h, d in scan_triples(1):
            ends = explicit.TrapezoidWeight(x=x, h=h, delta=d).ends
            got = explicit._exact_sum(explicit._s_rho_sums(g, ends))
            want = explicit._exact_sum(s_rho_reference(g, ends))
            rel = abs(got - want) / term_scale(g, ends).sum()
            assert rel <= 1e-15, (x, h, d, rel)


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

    def test_endpoint_limit(self, zeros100):
        # the terms grow as t^1.5 and their exact reduction needs them
        # below 2^900: endpoints from 2^600 on are refused, where t**1.5
        # used to overflow from about 1e206 on
        below = explicit._s_rho_sums(zeros100.ordinates, ((1.0, 2.0 ** 599),))
        assert np.all(np.isfinite(below))
        assert explicit._exact_sum(below) == math.fsum(below.tolist())
        for t in (2.0 ** 600, 1e206, math.inf):
            with pytest.raises(DomainError, match="2\\^600"):
                explicit.psi1_via_zeros(t, zeros100)
        with pytest.raises(DomainError, match="2\\^600"):
            explicit.s_delta_via_zeros(1e206, 1e205, 1e204, zeros100)


class TestSDeltaViaZeros:
    def test_prediction_within_bound(self, base_1e4, zeros10k):
        for x, h, d in ((1000.0, 100.0, 10.0), (5000.0, 500.0, 50.0)):
            direct = explicit.s_delta_direct(x, h, d, base_1e4)
            pred, bound = explicit.s_delta_via_zeros(x, h, d, zeros10k)
            assert abs(pred - direct) <= bound * 10.0

    def test_sum_is_correctly_rounded(self, zeros10k):
        # the per-exponent reduction before fsum leaves the correctly
        # rounded sum of the per-zero terms
        x, h, d = 1e5 + 0.5, 1e3, 1e2
        ends = explicit.TrapezoidWeight(x=x, h=h, delta=d).ends
        terms = explicit._s_rho_sums(zeros10k.ordinates, ends).tolist()
        pred, _ = explicit.s_delta_via_zeros(x, h, d, zeros10k)
        assert pred == h + d - math.fsum(terms) / d

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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_total_is_correctly_rounded(self, zeros10k, seed):
        # low + mid + high, each rounded on its own, misses the correctly
        # rounded sum in 68 of the 180 triples of seeds 1-3
        for x, h, d in scan_triples(seed):
            bd = explicit.zero_sum_breakdown(x, h, d, zeros10k)
            ends = explicit.TrapezoidWeight(x=x, h=h, delta=d).ends
            assert bd.total == explicit._exact_sum(
                explicit._s_rho_sums(zeros10k.ordinates, ends)), (x, h, d)
            assert bd.s_delta[0] == h + d - bd.total / d, (x, h, d)

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
