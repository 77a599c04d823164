"""Both sides of the smoothed explicit formula: the weighted prime-power
sums psi_1 and S_Delta(x, h) computed from sieves, and their spectral
counterparts computed from zeta-zero ordinates.

Sign conventions: the trapezoid weight is the second difference of the
integrated Chebyshev function, so

    S_Delta(x, h) = (psi1(x+h+D) - psi1(x+h) - psi1(x) + psi1(x-D)) / D

with coefficients (+, -, -, +); the direct-sum equality tests pin this
down numerically.

psi_1 and both sieve routes to S_Delta walk the prime powers once,
one segment at a time, so memory stays at one segment. psi_1 walks
(1, x]; both S_Delta routes walk only the trapezoid's support
(x - delta, x + h + delta], because below it the four signed psi_1
terms of each prime power cancel exactly. Each psi_1 term
(x - n) * log p is kept exactly: x - n is exact, and one error-free
transform, a Dekker two-product built in place on Veltkamp splits,
keeps the product's rounding error, which the cancellation of psi_1
values near x^2/2 down to order h in S_Delta would otherwise expose.
Each segment's term arrays are reduced exactly in numpy to two floats
per binary exponent (an exponent-indexed accumulator, as in Neal 2015),
and one fsum rounds the total once.

Zero sums pair each rho = 1/2 + i*gamma with its conjugate (computed as
2*Re in real arithmetic) and are summed correctly rounded, through the
same per-exponent reduction and one fsum, so small terms are never
swamped. Each term is formed without complex numbers: the phase
gamma * log t is reduced modulo pi with pi split in three parts (Cody
and Waite 1980), the parity of the quotient goes into the amplitude
t^1.5, and sin and cos of the reduced phase come from their Taylor
polynomials by Horner's rule. A term is within 4 ulps of its own scale,
2 * sum over t of t^1.5 / |rho(rho+1)|, of the exact value at the
rounded phase; the phase is exact to rounding only while its quotient
by pi stays below 2^32, and larger phases are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .arith import LambdaSegment, PrimeTable, lambda_segments
from .errors import CapacityError, DomainError
from .zeros import ZeroTable, inv_gamma_sq_beyond

# zeta'/zeta at 0 and -1; the constant and slope of the explicit formula.
ZETA_LOGDERIV_0 = 1.8378770664093454   # = log(2*pi)
ZETA_LOGDERIV_M1 = 1.9850537244054112


@dataclass(frozen=True)
class TrapezoidWeight:
    """Isosceles-trapezoid weight: 1 on [x, x+h], linear ramps of width
    delta on both sides, 0 outside (x-delta, x+h+delta)."""

    x: float
    h: float
    delta: float

    def __post_init__(self):
        if not 2.0 <= self.delta <= self.h <= self.x:
            raise DomainError(
                f"need 2 <= delta <= h <= x, got "
                f"(x={self.x}, h={self.h}, delta={self.delta})")

    @property
    def ends(self) -> tuple[tuple[float, float], ...]:
        """The (sign, t) endpoints of the second difference that turns
        psi_1, or t^(rho+1) / (rho(rho+1)), into the trapezoid sum."""
        x, h, d = self.x, self.h, self.delta
        return ((1.0, x + h + d), (-1.0, x + h), (-1.0, x), (1.0, x - d))


def _weights_vec(w: TrapezoidWeight, ns: np.ndarray) -> np.ndarray:
    x, h, d = w.x, w.h, w.delta
    up = np.clip((ns - (x - d)) / d, 0.0, 1.0)
    down = np.clip(((x + h + d) - ns) / d, 0.0, 1.0)
    return np.minimum(up, down)


# Dekker splitting constant (2^27 + 1) for exact two-product expansion.
_SPLIT = 134217729.0


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == a exactly, each half with at most 26
    significant bits, so a product of two halves is exact. Allocates
    the two halves and nothing else."""
    hi = a * _SPLIT
    lo = hi - a
    hi -= lo
    np.subtract(a, hi, out=lo)
    return hi, lo


def _psi1_term_arrays(x: float, seg: LambdaSegment) -> list[np.ndarray]:
    """Float arrays whose exact real sum is sum_{n<=x in seg} (x-n)*Lambda(n).

    Needs x < 2^53. Each difference d = x - n is then exact: with
    0 < n <= floor(x), ulp(x) <= 1, so x - n is a multiple of ulp(x) no
    larger than x, hence a double. Only the product d * log p rounds,
    and a Dekker two-product recovers its error, so no information is
    lost before a final exactly-rounded fsum.
    """
    j = np.searchsorted(seg.n, math.floor(x), side="right")
    lp = seg.log_p[:j]
    d = seg.n[:j].astype(np.float64)
    np.subtract(x, d, out=d)
    p = d * lp
    # Dekker two-product: p + perr == d * lp exactly, with perr
    # ((ah*bh - p) + ah*bl + al*bh) + al*bl summed in that order
    ah, al = _split(d)
    bh, bl = _split(lp)
    perr = ah * bh
    perr -= p
    ah *= bl
    perr += ah
    bh *= al
    perr += bh
    al *= bl
    perr += al
    return [p, perr]


def _exact_parts(a: np.ndarray) -> np.ndarray:
    """A few floats whose exact real sum is the exact real sum of ``a``:
    two per binary exponent present in ``a``.

    Needs finite values, no subnormals, |a| < 2^900 and fewer than 2^26
    values; CapacityError from 2^26 values on. A Veltkamp split writes
    each value with exponent e (as frexp gives it) as hi + lo, hi a
    multiple of 2^(e-26) and lo of 2^(e-53), each at most 2^26 such
    units. Summed per exponent, the halves stay below 2^52 units in
    every order, so each bucket sum is exact in float64.
    """
    if a.size >= 1 << 26:
        raise CapacityError(f"exact sums take fewer than 2^26 values, "
                            f"got {a.size}")
    if a.size == 0:
        return a
    e = np.frexp(a)[1]
    e -= e.min()
    hi, lo = _split(a)
    return np.concatenate((np.bincount(e, weights=hi),
                           np.bincount(e, weights=lo)))


def _exact_sum(a: np.ndarray) -> float:
    """The correctly rounded sum of ``a``, under _exact_parts's
    conditions: one fsum over its per-exponent parts, a few floats in
    place of one per value."""
    return math.fsum(_exact_parts(a).tolist())


def _psi1_sum(signed, base: PrimeTable, lo: int = 1) -> float:
    """The sum of sign * psi_1(t) over (sign, t) pairs, correctly rounded,
    leaving out the prime powers n <= lo: one walk over
    (lo, floor(max t)] reduces each segment's term arrays exactly to a
    few floats per binary exponent, and one fsum rounds their total
    once. The caller vouches that the terms left out sum to 0 exactly."""
    hi = max(math.floor(t) for _, t in signed)
    return math.fsum(chain.from_iterable(
        (sign * _exact_parts(a)).tolist()
        for seg in lambda_segments(lo, hi, base)
        for sign, t in signed for a in _psi1_term_arrays(t, seg)))


def psi1_exact(x: float, base: PrimeTable) -> float:
    """psi_1(x) = sum over n <= x of (x - n) * Lambda(n), correctly
    rounded with respect to the table's log p values, in one walk."""
    if x < 1:
        raise DomainError(f"psi1_exact requires x >= 1, got {x}")
    return _psi1_sum([(1.0, x)], base)


def s_delta_direct(x: float, h: float, delta: float,
                   base: PrimeTable) -> float:
    """S_Delta(x, h) = sum of Lambda(n) * w_{x,h,delta}(n) by direct
    enumeration of prime powers in the support, one segment at a time."""
    w = TrapezoidWeight(x=x, h=h, delta=delta)
    lo = max(0, math.floor(x - delta))
    hi = math.floor(x + h + delta)
    return math.fsum(
        float(np.sum(_weights_vec(w, seg.n.astype(np.float64)) * seg.log_p))
        for seg in lambda_segments(lo, hi, base))


def s_delta_via_psi1(x: float, h: float, delta: float,
                     base: PrimeTable) -> float:
    """The same sum through the second difference of psi_1:

        (psi1(x+h+D) - psi1(x+h) - psi1(x) + psi1(x-D)) / D.

    Must agree with s_delta_direct to rounding. The four psi_1 sums
    share one walk over the support (x - D, x + h + D] and are combined
    exactly (each signed product and its Dekker two-product error,
    reduced per binary exponent, then rounded once by one fsum), so the
    cancellation of the x^2/2-sized main terms costs no precision.

    A prime power n <= x - D lies at or below all four endpoints t, so
    it adds (sum sign*t - n * sum sign) * log p = (sum sign*t) * log p.
    That is 0 when the endpoints are exact, as they are for integral
    inputs below 2^53, so leaving those terms out changes neither the
    exact sum nor its rounding. When an endpoint rounds (x + h + D,
    x + h or x - D of non-integral inputs), sum sign*t is a few ulps,
    not 0, and a walk from 1 would add that times psi(x - D), an
    artefact of the rounding; the support walk, like s_delta_direct,
    reads Lambda on the support only.
    """
    w = TrapezoidWeight(x=x, h=h, delta=delta)
    return _psi1_sum(w.ends, base, max(0, math.floor(x - delta))) / delta


# pi in three parts (Cody and Waite 1980): 21, 21 and 53 bits, so
# q * _PI_PARTS[0] and q * _PI_PARTS[1] are exact for integers |q| < 2^32,
# and the three sum to pi within 2^-102.
_PI_PARTS = (float.fromhex("0x1.921fbp+1"), float.fromhex("0x1.5110bp-21"),
             float.fromhex("0x1.18469898cc517p-43"))
_INV_PI = 1.0 / math.pi
# the largest |gamma * log t| / pi whose nearest integer is below 2^32
_Q_LIMIT = 2.0 ** 32 - 0.5
# Taylor coefficients of sin r / r and cos r in r^2: through r^21 and
# r^22, which truncates below 2^-59 on |r| <= pi/2
_SIN = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(11))
_COS = tuple((-1) ** k / math.factorial(2 * k) for k in range(12))


def _horner(r2: np.ndarray, coeffs: tuple[float, ...],
            out: np.ndarray) -> np.ndarray:
    """out = sum of coeffs[k] * r2^k, by Horner's rule in place."""
    np.multiply(r2, coeffs[-1], out=out)
    for c in coeffs[-2:0:-1]:
        out += c
        out *= r2
    out += coeffs[0]
    return out


def _s_rho_sums(gammas: np.ndarray, signed) -> np.ndarray:
    """2*Re of the sum over (sign, t) pairs of sign * t^(rho+1) /
    (rho(rho+1)), for each positive ordinate (conjugate pair folded in).

    For each endpoint the phase phi = gamma * log t is rounded once and
    reduced to r = phi - q*pi, q the integer nearest phi/pi, with pi in
    three parts: q times each of the first two is exact, and q times
    the third, below 2^-10, rounds by less than 2^-63, so r is
    phi - q*pi to about an ulp of pi/2. The factor (-1)^q goes into the
    amplitude sign * t^1.5, and sin r and cos r on |r| <= pi/2 come from
    their Taylor polynomials through r^21 and r^22, by Horner's rule in
    r^2. C and S, the sums of amplitude times cos and sin, give
    2*(C*Dr + S*Di) / (Dr^2 + Di^2) with
    Dr + i*Di = rho(rho+1) = (0.75 - gamma^2) + 2i*gamma. Each term is
    within 4 * 2^-52 * 2 * sum over t of t^1.5 / |rho(rho+1)| of its
    exact value at the rounded phases.

    Every term is at most about 0.02 * t^1.5 per endpoint
    (|rho(rho+1)| > 200), so endpoints below 2^600 keep the terms below
    the 2^900 that _exact_sum needs; DomainError from there on. A phase
    whose nearest multiple of pi is 2^32 * pi or more is past the exact
    reduction and is refused too.
    """
    n = len(gammas)
    gmax = float(np.max(np.abs(gammas), initial=0.0))
    c, s = np.zeros(n), np.zeros(n)
    r, q, m, r2, p = (np.empty(n) for _ in range(5))
    for sign, t in signed:
        if not t < 2.0 ** 600:
            raise DomainError(f"zero sums need endpoints t below 2^600, "
                              f"got t = {t}")
        if t <= 0.0:
            continue
        lt = math.log(t)
        # the kernel's largest |q|: rounding is monotone, so the largest
        # |gamma| gives the largest |phi| and |phi / pi|
        if not gmax * abs(lt) * _INV_PI < _Q_LIMIT:
            raise DomainError(f"zero sums need |gamma * log t| / pi below "
                              f"2^32, got gamma = {gmax} at t = {t}")
        amp = sign * t ** 1.5
        np.multiply(gammas, lt, out=r)
        np.multiply(r, _INV_PI, out=q)
        np.rint(q, out=q)
        for part in _PI_PARTS:
            np.multiply(q, part, out=p)
            r -= p
        # m = amp * (-1)^q: q/2 - floor(q/2) is 0 or 1/2
        np.multiply(q, 0.5, out=m)
        np.floor(m, out=p)
        m -= p
        m *= -4.0 * amp
        m += amp
        np.multiply(r, r, out=r2)
        _horner(r2, _SIN, p)
        p *= r
        p *= m
        s += p
        _horner(r2, _COS, p)
        p *= m
        c += p
    dr = 0.75 - gammas * gammas
    di = 2.0 * gammas
    return 2.0 * (c * dr + s * di) / (dr * dr + di * di)


def trivial_zero_tail(x: float) -> float:
    """Contribution of the trivial zeros: sum over r >= 1 of
    x^(1-2r) / ((2r)(2r-1)); psi1_via_zeros counts it in its bound."""
    total, r = 0.0, 1
    while True:
        term = x ** (1 - 2 * r) / ((2 * r) * (2 * r - 1))
        total += term
        if term < 1e-18 * max(total, 1e-300):
            return total
        r += 1


def _zero_tail(t: float, table: ZeroTable) -> float:
    """t^1.5 times the bound on sum 1/gamma^2 beyond the table, which
    bounds the sum of |t^(rho+1) / (rho(rho+1))| over the zeros left out."""
    return t ** 1.5 * inv_gamma_sq_beyond(table.max_ordinate, len(table))


def psi1_via_zeros(x: float, table: ZeroTable) -> tuple[float, float]:
    """psi_1(x) from the explicit formula, truncated at the table's end.

    Returns (value, remainder_bound); the bound covers the zeros beyond
    the table via the Riemann-von Mangoldt density, plus the trivial
    zeros, whose term the value leaves out.
    """
    if x < 2:
        raise DomainError(f"psi1_via_zeros requires x >= 2, got {x}")
    zsum = _exact_sum(_s_rho_sums(table.ordinates, ((1.0, x),)))
    value = (x * x / 2.0 - zsum - ZETA_LOGDERIV_0 * x + ZETA_LOGDERIV_M1)
    bound = 2.0 * _zero_tail(x, table) + trivial_zero_tail(x)
    return value, bound


def s_delta_via_zeros(x: float, h: float, delta: float,
                      table: ZeroTable) -> tuple[float, float]:
    """Spectral prediction h + delta - (1/delta) * sum S(rho), truncated
    at the table; returns (value, remainder_bound)."""
    w = TrapezoidWeight(x=x, h=h, delta=delta)
    return _spectral(w, _exact_sum(_s_rho_sums(table.ordinates, w.ends)),
                     8.0 * _zero_tail(x + h + delta, table))


def _spectral(w: TrapezoidWeight, zsum: float,
              remainder: float) -> tuple[float, float]:
    """s_delta_via_zeros's (value, remainder_bound) from the correctly
    rounded sum of S(rho) over the table and the bound on the sum of
    |S(rho)| beyond it."""
    return (w.h + w.delta - zsum / w.delta,
            remainder / w.delta + 1.0 / (w.delta * w.x))


@dataclass(frozen=True)
class ZeroSumBreakdown:
    """The truncated sum of S(rho) split over the three ordinate ranges
    of the short-interval argument, with each range's empirical ratio to
    its O-bound expression."""

    low: float          # |gamma| <= x/h            (bound: delta*sqrt(x)*log x)
    mid: float          # x/h < |gamma| <= x/delta  (bound: h*sqrt(x)*log x)
    high: float         # x/delta < |gamma| <= table end (bound as low)
    remainder_bound: float
    ratios: tuple[float, float, float]
    # the correctly rounded sum of S(rho) over the table, which
    # low + mid + high, each rounded on its own, need not be
    total: float
    # s_delta_via_zeros(x, h, delta, table), from the same terms
    s_delta: tuple[float, float]


def zero_sum_breakdown(x: float, h: float, delta: float,
                       table: ZeroTable) -> ZeroSumBreakdown:
    w = TrapezoidWeight(x=x, h=h, delta=delta)
    table.check_covers(x / delta)
    g = table.ordinates
    terms = _s_rho_sums(g, w.ends)
    i_low = np.searchsorted(g, x / h, side="right")
    i_mid = np.searchsorted(g, x / delta, side="right")
    parts = [_exact_parts(terms[:i_low]), _exact_parts(terms[i_low:i_mid]),
             _exact_parts(terms[i_mid:])]
    low, mid, high = (math.fsum(p.tolist()) for p in parts)
    sx_lx = math.sqrt(x) * math.log(x)
    bounds = (delta * sx_lx, h * sx_lx, delta * sx_lx)
    remainder = 8.0 * _zero_tail(x + h + delta, table)
    # the three ranges' parts sum exactly to all the terms, so one fsum
    # over them rounds as s_delta_via_zeros's sum does
    zsum = math.fsum(np.concatenate(parts).tolist())
    return ZeroSumBreakdown(
        low=low, mid=mid, high=high, remainder_bound=remainder,
        ratios=(abs(low) / bounds[0], abs(mid) / bounds[1],
                abs(high) / bounds[2]),
        total=zsum, s_delta=_spectral(w, zsum, remainder))
