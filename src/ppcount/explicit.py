"""Both sides of the smoothed explicit formula: the weighted prime-power
sums psi_1 and S_Delta(x, h) computed from sieves, and their spectral
counterparts computed from zeta-zero ordinates.

Sign conventions: the trapezoid weight is the second difference of the
integrated Chebyshev function, so

    S_Delta(x, h) = (psi1(x+h+D) - psi1(x+h) - psi1(x) + psi1(x-D)) / D

with coefficients (+, -, -, +); the direct-sum equality tests pin this
down numerically.

psi_1 and both sieve routes to S_Delta walk the prime powers once,
one segment at a time, and fsum what they stream, so memory stays at
one segment.

Zero sums pair each rho = 1/2 + i*gamma with its conjugate (computed as
2*Re in real arithmetic) and accumulate with correctly rounded (fsum)
summation, so small terms are never swamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .arith import LambdaSegment, PrimeTable, lambda_segments
from .errors import DomainError
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


def weight_eval(w: TrapezoidWeight, n: float) -> float:
    x, h, d = w.x, w.h, w.delta
    if n <= x - d or n >= x + h + d:
        return 0.0
    if n < x:
        return (n - x + d) / d
    if n <= x + h:
        return 1.0
    return (x + h + d - n) / d


def _weights_vec(w: TrapezoidWeight, ns: np.ndarray) -> np.ndarray:
    x, h, d = w.x, w.h, w.delta
    up = np.clip((ns - (x - d)) / d, 0.0, 1.0)
    down = np.clip(((x + h + d) - ns) / d, 0.0, 1.0)
    return np.minimum(up, down)


# Dekker splitting constant (2^27 + 1) for exact two-product expansion.
_SPLIT = 134217729.0


def _psi1_term_arrays(x: float, seg: LambdaSegment) -> list[np.ndarray]:
    """Float arrays whose exact real sum is sum_{n<=x in seg} (x-n)*Lambda(n).

    Each product (x - n) * log p is expanded with a branchless two-sum
    (for the subtraction) and a Dekker two-product, so no information is
    lost before a final exactly-rounded fsum. This matters for the
    second difference in s_delta_via_psi1, where psi_1 values near x^2/2
    cancel down to order h and naive rounding would dominate the result.
    """
    j = np.searchsorted(seg.n, math.floor(x), side="right")
    n = seg.n[:j].astype(np.float64)
    lp = seg.log_p[:j]
    d = x - n
    # Knuth two-sum: d + derr == x - n exactly
    bv = d - x
    av = d - bv
    derr = (x - av) + (-n - bv)
    p = d * lp
    # Dekker two-product: p + perr == d * lp exactly
    a1 = d * _SPLIT
    ah = a1 - (a1 - d)
    al = d - ah
    b1 = lp * _SPLIT
    bh = b1 - (b1 - lp)
    bl = lp - bh
    perr = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return [p, perr, derr * lp]


def _psi1_sum(signed, base: PrimeTable) -> float:
    """The sum of sign * psi_1(t) over (sign, t) pairs, correctly rounded:
    one walk over (1, floor(max t)] feeds every signed term to one fsum."""
    hi = max(math.floor(t) for _, t in signed)
    return math.fsum(chain.from_iterable(
        (sign * a).tolist() for seg in lambda_segments(1, hi, base)
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
    share one walk over the prime powers and are combined term-exactly
    (one fsum over all signed compensated terms), so the cancellation of
    the x^2/2-sized main terms costs no precision.
    """
    w = TrapezoidWeight(x=x, h=h, delta=delta)
    return _psi1_sum(w.ends, base) / delta


def _s_rho_sums(gammas: np.ndarray, signed) -> np.ndarray:
    """2*Re of the sum over (sign, t) pairs of sign * t^(rho+1) /
    (rho(rho+1)), for each positive ordinate (conjugate pair folded in).

    Each endpoint power t^(rho+1) is evaluated as t^1.5 * e^{i g log t}
    with an independently computed phase, so there is no phase drift
    across endpoints or ordinates.
    """
    rho = 0.5 + 1j * gammas
    denom = rho * (rho + 1.0)
    num = np.zeros(len(gammas), dtype=np.complex128)
    for sign, t in signed:
        if t <= 0.0:
            continue
        lt = math.log(t)
        num += sign * t ** 1.5 * np.exp(1j * (gammas * lt))
    return 2.0 * np.real(num / denom)


def s_rho(gamma: float, x: float, h: float, delta: float) -> complex:
    """S(rho) for a single zero rho = 1/2 + i*gamma."""
    if gamma == 0.0:
        raise DomainError("s_rho requires gamma != 0")
    w = TrapezoidWeight(x=x, h=h, delta=delta)
    rho = 0.5 + 1j * gamma
    num = 0.0 + 0.0j
    for sign, t in w.ends:
        if t > 0.0:
            num += sign * complex(t) ** (rho + 1.0)
    return num / (rho * (rho + 1.0))


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
    zsum = math.fsum(_s_rho_sums(table.ordinates, ((1.0, x),)))
    value = (x * x / 2.0 - zsum - ZETA_LOGDERIV_0 * x + ZETA_LOGDERIV_M1)
    bound = 2.0 * _zero_tail(x, table) + trivial_zero_tail(x)
    return value, bound


def s_delta_via_zeros(x: float, h: float, delta: float,
                      table: ZeroTable) -> tuple[float, float]:
    """Spectral prediction h + delta - (1/delta) * sum S(rho), truncated
    at the table; returns (value, remainder_bound)."""
    w = TrapezoidWeight(x=x, h=h, delta=delta)
    terms = _s_rho_sums(table.ordinates, w.ends)
    value = h + delta - math.fsum(terms) / delta
    bound = (8.0 * _zero_tail(x + h + delta, table) / delta
             + 1.0 / (delta * x))
    return value, bound


@dataclass(frozen=True)
class ZeroSumBreakdown:
    """The truncated sum of S(rho) split over the three ordinate ranges
    of the short-interval argument, with each range's empirical ratio to
    its O-bound expression."""

    low: complex        # |gamma| <= x/h            (bound: delta*sqrt(x)*log x)
    mid: complex        # x/h < |gamma| <= x/delta  (bound: h*sqrt(x)*log x)
    high: complex       # x/delta < |gamma| <= table end (bound as low)
    remainder_bound: float
    ratios: tuple[float, float, float]

    @property
    def total(self) -> complex:
        return self.low + self.mid + self.high


def zero_sum_breakdown(x: float, h: float, delta: float,
                       table: ZeroTable) -> ZeroSumBreakdown:
    w = TrapezoidWeight(x=x, h=h, delta=delta)
    table.check_covers(x / delta)
    g = table.ordinates
    terms = _s_rho_sums(g, w.ends)
    i_low = np.searchsorted(g, x / h, side="right")
    i_mid = np.searchsorted(g, x / delta, side="right")
    low = math.fsum(terms[:i_low])
    mid = math.fsum(terms[i_low:i_mid])
    high = math.fsum(terms[i_mid:])
    sx_lx = math.sqrt(x) * math.log(x)
    bounds = (delta * sx_lx, h * sx_lx, delta * sx_lx)
    remainder = 8.0 * _zero_tail(x + h + delta, table)
    return ZeroSumBreakdown(
        low=complex(low), mid=complex(mid), high=complex(high),
        remainder_bound=remainder,
        ratios=(abs(low) / bounds[0], abs(mid) / bounds[1],
                abs(high) / bounds[2]))
