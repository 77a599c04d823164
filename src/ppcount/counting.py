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

DEFAULT_COUNT_CEILING = 10 ** 10

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
    return diff / (math.sqrt(x) * math.log(x) ** exponents(k).A)


def annotate_count(x: int, k: int, count: int,
                   method: str = "pair-enumeration") -> CountResult:
    """Attach the main term and normalized error to a raw count."""
    main = zeta_int(k) * li(x) if x > 1 else 0.0
    return CountResult(x=x, k=k, count=count, main_term=main,
                       normalized_error=_normalized(count - main, x, k),
                       method=method)


def count_exact(x: int, k: int, base: PrimeTable, *,
                ceiling: int = DEFAULT_COUNT_CEILING,
                seg_len: int = arith.DEFAULT_SEGMENT_LENGTH) -> CountResult:
    """C_k(x) as sum over m <= x^(1/k) of pi(x // m^k).

    The pi ladder is resolved in one growing segmented-sieve pass, so
    the dominant m = 1 term shares work with all smaller thresholds.
    """
    k = _check_xk(x, k)
    if x > ceiling:
        raise CapacityError(f"x = {x} beyond count ceiling {ceiling}")
    mmax = iroot(x, k)
    # m descending <=> thresholds ascending
    thresholds = [x // m ** k for m in range(mmax, 0, -1)]
    counts = arith.prime_counts_at(thresholds, base, seg_len=seg_len)
    return annotate_count(x, k, int(np.sum(counts)))


def smallest_factor_sieve(x: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n, for 0 <= n <= x."""
    spf = np.zeros(x + 1, dtype=np.int64)
    for p in range(2, x + 1):
        if spf[p] == 0:
            view = spf[p:: p]
            view[view == 0] = p
    return spf


def count_oracle_prefix(x: int, k: int) -> np.ndarray:
    """Cumulative C_k(t) for t = 0..x by per-n k-free classification.

    Independent of the pi-summation route: factors every n with a
    smallest-prime-factor sieve and tests whether the k-free part is a
    prime.
    """
    k = _check_xk(x, k)
    if x > ORACLE_CEILING:
        raise CapacityError(
            f"oracle route capped at {ORACLE_CEILING}, got x = {x}")
    spf_list = smallest_factor_sieve(x).tolist()
    # n = p * m^k exactly when the k-free part is a single prime to the
    # first power: every exponent e has e mod k == 0 except one with
    # e mod k == 1
    out = np.zeros(x + 1, dtype=np.int64)
    for n0 in range(2, x + 1):
        n = n0
        q_primes = 0
        ok = True
        while n > 1:
            p = spf_list[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            rem = e % k
            if rem == 1:
                q_primes += 1
                if q_primes > 1:
                    ok = False
                    break
            elif rem != 0:
                ok = False
                break
        out[n0] = 1 if (ok and q_primes == 1) else 0
    return np.cumsum(out)


def count_oracle(x: int, k: int) -> int:
    """#{n <= x : the k-free part of n is prime}."""
    return int(count_oracle_prefix(x, k)[x])


def cstar(x: int, k: int, base: PrimeTable) -> CstarResult:
    """C*_k(x) = sum of Lambda(n) over n m^k <= x, via psi(x // m^k)."""
    k = _check_xk(x, k)
    mmax = iroot(x, k)
    thresholds = [x // m ** k for m in range(mmax, 0, -1)]
    psis = arith.weighted_lambda_sums_at(thresholds, base)
    value = math.fsum(psis.tolist())
    main = zeta_int(k) * x
    return CstarResult(x=x, k=k, value=value, main_term=main,
                       normalized_error=_normalized(value - main, x, k))


def _theta_from_table(y: int, base: PrimeTable) -> float:
    """theta(y) = sum of log p over p <= y, from the base table."""
    if y > base.limit:
        raise CapacityError(
            f"theta({y}) needs primes beyond base limit {base.limit}")
    j = int(np.searchsorted(base.primes, y, side="right"))
    return float(base.log_cumsum[j])


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
    k = _check_xk(x, k)
    parts = []
    for m in range(1, iroot(x, k) + 1):
        t = x // m ** k
        r = 2
        while True:
            y = iroot(t, r)
            if y < 2:
                break
            parts.append(_theta_from_table(y, base))
            r += 1
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
    scale = math.sqrt(x) * math.log(x) ** exponents(k).A
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
