"""Counting functions for integers of the form p * m^k, their weighted
(von Mangoldt) analogues, short-interval counts, normalized errors
against the zeta(k) * li(x) main term, and short-interval deviations
against the per-m main term (analytic.interval_main_term).

Two independent routes compute the headline count: summing pi(x / m^k)
over m (count_exact) and classifying each n <= x by the primality of
its k-free part (count_oracle). They must agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import arith
from .analytic import exponents, interval_main_term, li, zeta_int
from .arith import PrimeTable, iroot
from .errors import CapacityError, DomainError
from .explicit import s_delta_direct

# Beyond k = 64 only m = 1 contributes for any feasible x; capping
# avoids needless giant-power arithmetic.
K_CAP = 64

ORACLE_CEILING = 10 ** 7


@dataclass(frozen=True)
class CountResult:
    """Exact count with its analytic main term and normalized error
    e_k(x) = (count - zeta(k) li(x)) / (x^(1/2) log^A(k) x)."""

    x: int
    k: int
    count: int
    main_term: float
    normalized_error: float
    method: str  # "pair-enumeration" | "kfree-oracle"


@dataclass(frozen=True)
class CstarResult:
    """Weighted count C*_k(x) = sum of Lambda(n) over n m^k <= x, with
    the normalized error (C* - zeta(k) x)/(x^(1/2) log^A x)."""

    x: int
    k: int
    value: float
    main_term: float
    normalized_error: float


def _check_xk(x: int, k: int) -> int:
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    return min(k, K_CAP)


def _normalized(diff: float, x: int, k: int) -> float:
    if x < 2:
        return 0.0
    return diff / (math.sqrt(x) * math.log(x) ** exponents(k))


def annotate_count(x: int, k: int, count: int,
                   method: str = "pair-enumeration") -> CountResult:
    """Attach the main term and normalized error to a raw count."""
    main = zeta_int(k) * li(x) if x > 1 else 0.0
    return CountResult(x=x, k=k, count=count, main_term=main,
                       normalized_error=_normalized(count - main, x, k),
                       method=method)


def count_exact(x: int, k: int, base: PrimeTable) -> CountResult:
    """C_k(x) as sum over m <= x^(1/k) of pi(x // m^k).

    The pi ladder is resolved in one growing segmented-sieve pass, so
    the dominant m = 1 term shares work with all smaller thresholds.
    """
    k = _check_xk(x, k)
    base.check_covers(x)  # before the x^(1/k) thresholds are built
    mmax = iroot(x, k)
    # m descending <=> thresholds ascending
    thresholds = [x // m ** k for m in range(mmax, 0, -1)]
    counts = arith.prime_counts_at(thresholds, base)
    return annotate_count(x, k, int(np.sum(counts)))


def count_oracle_prefix(x: int, k: int) -> np.ndarray:
    """Cumulative C_k(t) for t = 0..x by per-n k-free classification.

    Independent of the pi-summation route: n = p * m^k exactly when
    the k-free part of n (n with p^k divided out once per multiple of
    p^k, p^2k, ...) is prime, looked up in the oracle's own sieve.
    """
    k = _check_xk(x, k)
    if x > ORACLE_CEILING:
        raise CapacityError(
            f"oracle route capped at {ORACLE_CEILING}, got x = {x}")
    prime = np.ones(x + 1, dtype=bool)
    prime[:2] = False
    kfree = np.arange(x + 1, dtype=np.int64)
    for p in range(2, math.isqrt(x) + 1):
        if prime[p]:
            prime[p * p:: p] = False
            q = pk = p ** k
            while q <= x:
                kfree[q:: q] //= pk
                q *= pk
    return np.cumsum(prime[kfree], dtype=np.int64)


def count_oracle(x: int, k: int) -> int:
    """#{n <= x : the k-free part of n is prime}."""
    return int(count_oracle_prefix(x, k)[x])


def cstar(x: int, k: int, base: PrimeTable) -> CstarResult:
    """C*_k(x) = sum of Lambda(n) over n m^k <= x, via psi(x // m^k)."""
    k = _check_xk(x, k)
    base.check_covers(x)  # before the x^(1/k) thresholds are built
    mmax = iroot(x, k)
    thresholds = [x // m ** k for m in range(mmax, 0, -1)]
    psis = arith.weighted_lambda_sums_at(thresholds, base)
    value = math.fsum(psis.tolist())
    main = zeta_int(k) * x
    return CstarResult(x=x, k=k, value=value, main_term=main,
                       normalized_error=_normalized(value - main, x, k))


@dataclass(frozen=True)
class PrimePowerCorrection:
    """The higher-prime-power contribution sum_{p^r m^k <= x, r >= 2}
    log p, with its ratio to the proof-shaped scale
    x^(1/2) * (log x if k = 2 else 1)."""

    x: int
    k: int
    value: float
    scale_ratio: float


def prime_power_correction(x: int, k: int,
                           base: PrimeTable) -> PrimePowerCorrection:
    """Each proper prime power p^r <= x (r >= 2) contributes log p once
    per m with m^k <= x // p^r."""
    k = _check_xk(x, k)
    base.check_covers(x)  # before the int64 arrays are built
    mk = np.arange(1, iroot(x, k) + 1, dtype=np.int64) ** k
    ps, parts = base.primes, []
    for r in range(2, x.bit_length()):  # 2^r <= x
        ps = ps[: np.searchsorted(ps, iroot(x, r), side="right")]
        m_count = np.searchsorted(mk, x // ps ** r, side="right")
        parts.extend((np.log(ps.astype(np.float64)) * m_count).tolist())
    value = math.fsum(parts)
    if x >= 2:
        scale = math.sqrt(x) * (math.log(x) if k == 2 else 1.0)
        ratio = value / scale
    else:
        ratio = 0.0
    return PrimePowerCorrection(x=x, k=k, value=value, scale_ratio=ratio)


def count_interval(x: int, h: int, k: int, base: PrimeTable, *,
                   seg_len: int = arith.DEFAULT_SEGMENT_LENGTH) -> int:
    """#{n in (x, x+h] : n = p * m^k}, sieving only the per-m windows
    (x // m^k, (x+h) // m^k]; nothing below x is ever sieved."""
    k = _check_xk(x, k)
    if h < 1:
        raise DomainError(f"interval length h must be >= 1, got {h}")
    total = 0
    for m in range(1, iroot(x + h, k) + 1):
        mk = m ** k
        lo, hi = x // mk, (x + h) // mk
        if hi > lo:
            total += arith.prime_count_interval(
                max(lo, 1), hi, base, seg_len=seg_len)
    return total


def interval_deviation(x: int, h: int, k: int,
                       count: int) -> tuple[float, float]:
    """(expected, relative deviation) of a count on (x, x+h] against the
    per-m main term; the one comparison behind `ppcount interval`, the
    theorem-3 experiment and the short-interval check."""
    expected = interval_main_term(x, h, k)
    if expected == 0.0:
        raise DomainError(
            f"no main term on ({x}, {x + h}]: it lies at or below t = 2")
    return expected, count / expected - 1.0


def interval_scaling(x: int, f: float, k: int) -> tuple[int, int]:
    """(h, delta) for the short-interval experiment at x: h = f * scale
    and delta = f^(1/2) * scale, rounded, with scale = x^(1/2) log^A(k) x
    and 2 <= delta <= h."""
    if x < 1 or not f > 1.0:
        raise DomainError("the interval scaling requires x >= 1 and f > 1, "
                          f"got x = {x}, f = {f}")
    scale = math.sqrt(x) * math.log(x) ** exponents(k)
    if not math.isfinite(f * scale):
        raise DomainError(f"h = f * x^(1/2) log^A x overflows at f = {f}")
    h = max(2, int(round(f * scale)))
    return h, min(h, max(2, int(round(math.sqrt(f) * scale))))


@dataclass(frozen=True)
class Theorem3Report:
    """One short-interval experiment, with h and delta chosen by
    interval_scaling."""

    x: int
    k: int
    f: float
    h: int
    delta: int
    count: int
    expected: float
    rel_deviation: float
    predicted_scale: float  # f^(-1/2)
    s_delta: float


def theorem3_experiment(x: int, f: float, k: int,
                        base: PrimeTable) -> Theorem3Report:
    k = _check_xk(x, k)
    h, delta = interval_scaling(x, f, k)
    count = count_interval(x, h, k, base)
    expected, rel = interval_deviation(x, h, k, count)
    sd = s_delta_direct(float(x), float(h), float(delta), base)
    return Theorem3Report(
        x=x, k=k, f=f, h=h, delta=delta, count=count, expected=expected,
        rel_deviation=rel, predicted_scale=f ** -0.5, s_delta=sd)
