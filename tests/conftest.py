"""Shared fixtures: prime tables at several scales, the bundled zero
tables, and tiny brute-force oracles used across test modules."""

import math

import numpy as np
import pytest

from ppcount import arith, zeros


@pytest.fixture(scope="session")
def base100():
    return arith.sieve_primes(100)


@pytest.fixture(scope="session")
def base_1e4():
    return arith.sieve_primes(10 ** 4)


@pytest.fixture(scope="session")
def base_1e6():
    return arith.sieve_primes(10 ** 6)


@pytest.fixture(scope="session")
def zeros100():
    return zeros.builtin_table("first100")


@pytest.fixture(scope="session")
def zeros10k():
    return zeros.builtin_table("10k")


def trial_division_primes(limit, lo=0):
    """Independent oracle: primes in (lo, limit] by pure trial division."""
    out = []
    for n in range(max(lo + 1, 2), limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def naive_lambda(n):
    """Von Mangoldt Lambda(n) by direct factorization."""
    if n < 2:
        return 0.0
    p = None
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            p = d
            break
    if p is None:
        return math.log(n)
    while n % p == 0:
        n //= p
    return math.log(p) if n == 1 else 0.0


def dense_lambda(limit):
    """Lambda(n) for n = 0..limit, set to log p at every p^r from a
    complete prime table."""
    lam = np.zeros(limit + 1)
    for p in arith.sieve_primes(limit).primes.tolist():
        pr = p
        while pr <= limit:
            lam[pr] = math.log(p)
            pr *= p
    return lam


@pytest.fixture(scope="session")
def lambda_upto_1e4():
    return np.array([naive_lambda(n) for n in range(10 ** 4 + 1)])


def lucy_reference(hi, theta):
    """arith._lucy_counts(hi, base, theta) with one loop turn per prime
    p <= isqrt(hi), each forming its right-hand sides before it writes;
    the reference for the batched strike of the primes above hi^(1/3).
    It keeps the two-statement form on purpose: theta's strikes are
    written out beside pi's, not chained through a list of sums as in
    arith, so the reference does not share the kernel's chain."""
    r = math.isqrt(hi)
    idx = np.arange(r + 1, dtype=np.int64)
    small = np.maximum(idx - 1, 0)
    q = hi // np.maximum(idx, 1)  # q[i] = hi // i for i >= 1
    large = q - 1
    if theta:
        tsmall, tlarge = (np.fromiter(map(math.lgamma, (v + 1).tolist()),
                                      np.float64, v.size) for v in (idx, q))
    primes = arith.sieve_primes(r).primes.tolist() if r >= 2 else []
    for p in primes:
        sp, top = small[p - 1], min(r, hi // (p * p))
        mid = min(top, r // p)
        j = q[mid + 1: top + 1] // p
        d_mid = large[p: mid * p + 1: p] - sp
        d_top = small[j] - sp
        if theta:
            lp, tp = math.log(p), tsmall[p - 1]
            tlarge[1: mid + 1] -= lp * d_mid + (tlarge[p: mid * p + 1: p]
                                                - tp)
            tlarge[mid + 1: top + 1] -= lp * d_top + (tsmall[j] - tp)
        large[1: mid + 1] -= d_mid
        large[mid + 1: top + 1] -= d_top
        if p * p <= r:
            d_small = np.repeat(small[p: r // p + 1] - sp, p)[: r + 1 - p * p]
            if theta:
                tsmall[p * p:] -= lp * d_small + np.repeat(
                    tsmall[p: r // p + 1] - tp, p)[: r + 1 - p * p]
            small[p * p:] -= d_small
    return [(small, large)] + ([(tsmall, tlarge)] if theta else [])


def s_rho_reference(gammas, signed):
    """explicit._s_rho_sums by complex exponentials and one complex
    division per ordinate: 2*Re of sum sign * t^1.5 * e^{i gamma log t}
    / (rho(rho+1)); the reference for the real-arithmetic kernel."""
    rho = 0.5 + 1j * gammas
    denom = rho * (rho + 1.0)
    num = np.zeros(len(gammas), dtype=np.complex128)
    for sign, t in signed:
        if t <= 0.0:
            continue
        lt = math.log(t)
        num += sign * t ** 1.5 * np.exp(1j * (gammas * lt))
    return 2.0 * np.real(num / denom)
