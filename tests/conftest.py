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
