"""Self-contained verification suite at desk scale.

Each check returns a CheckResult; `run_all` executes a preset. The
"small" preset covers everything except the x = 10^12 short-interval
experiment, which the "medium" preset adds.

All expected values here are either brute-force enumerations computed
on the spot or bounded-ratio properties; none are tuned to the
implementation under test.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import arith, counting, explicit, zeros
from .analytic import li_interval, zeta_int


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_ms: float = 0.0


def _result(name, passed, detail, t0):
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       elapsed_ms=(time.time() - t0) * 1000.0)


def check_oracle_equivalence() -> CheckResult:
    """count_exact == count_oracle exhaustively to 10^4 (k in 2..5) and
    at spot values 10^5, 10^6 (k in 2, 3). The exhaustive part reads pi
    from the table; the spot values take a minimal base, primes up to
    isqrt(x) + 1, so their pi come from the Lucy recurrence, as count's
    do above the table."""
    t0 = time.time()
    base = arith.sieve_primes(10 ** 4)
    bad = []
    for k in (2, 3, 4, 5):
        prefix = counting.count_oracle_prefix(10 ** 4, k)
        for x in range(1, 10 ** 4 + 1):
            got = counting.count_exact(x, k, base)
            if got != int(prefix[x]):
                bad.append((x, k, got, int(prefix[x])))
                break
    for x in (10 ** 5, 10 ** 6):
        base = arith.sieve_primes(math.isqrt(x) + 1)
        for k in (2, 3):
            got = counting.count_exact(x, k, base)
            want = counting.count_oracle(x, k)
            if got != want:
                bad.append((x, k, got, want))
    detail = "all equal" if not bad else f"mismatches: {bad[:3]}"
    return _result("oracle-equivalence", not bad, detail, t0)


def check_known_values() -> CheckResult:
    """Hand-checkable values: C_2(10)=5, C_2(100)=46, C_3(10)=4,
    psi(10), psi_1(10) as direct log sums."""
    t0 = time.time()
    base = arith.sieve_primes(100)
    psi10 = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    psi1_10 = (16 * math.log(2) + 8 * math.log(3) + 5 * math.log(5)
               + 3 * math.log(7))
    checks = [
        ("C_2(10)", counting.count_exact(10, 2, base), 5, 0),
        ("C_2(100)", counting.count_exact(100, 2, base), 46, 0),
        ("C_3(10)", counting.count_exact(10, 3, base), 4, 0),
        ("psi(10)", arith.psi(10, base), psi10, 1e-6),
        ("psi1(10)", explicit.psi1_exact(10, base), psi1_10, 1e-6),
    ]
    bad = [(n, g, w) for n, g, w, tol in checks if abs(g - w) > tol]
    detail = "all match" if not bad else f"failed: {bad}"
    return _result("known-values", not bad, detail, t0)


def check_trapezoid_identity() -> CheckResult:
    """s_delta_direct == s_delta_via_psi1 to 1e-8 relative on 50
    randomized (x, h, delta) with 2 <= delta <= h <= x <= 10^6."""
    t0 = time.time()
    rng = random.Random(20260823)
    base = arith.sieve_primes(10 ** 4)
    worst = 0.0
    for _ in range(50):
        x = math.exp(rng.uniform(math.log(1e3), math.log(1e6)))
        h = math.exp(rng.uniform(math.log(2.0), math.log(x)))
        d = math.exp(rng.uniform(math.log(2.0), math.log(h)))
        a = explicit.s_delta_direct(x, h, d, base)
        b = explicit.s_delta_via_psi1(x, h, d, base)
        rel = abs(a - b) / max(abs(a), 1.0)
        worst = max(worst, rel)
    return _result("trapezoid-identity", worst <= 1e-8,
                   f"worst relative gap {worst:.2e} over 50 triples", t0)


def check_explicit_consistency() -> CheckResult:
    """psi_1(10^4) from the first 10^4 zeros within 1e-3 relative of the
    sieve value; truncation error shrinks from 10 zeros to 10^4."""
    t0 = time.time()
    table = zeros.builtin_table("10k", limit=10 ** 4)
    base = arith.sieve_primes(200)
    x = 1e4
    exact = explicit.psi1_exact(x, base)
    rel_gaps = []
    for n in (10, 100, 1000, 10 ** 4):
        val, _ = explicit.psi1_via_zeros(x, table.truncate(n))
        rel_gaps.append(abs(val - exact) / exact)
    ok = rel_gaps[-1] < 1e-3 and rel_gaps[-1] < rel_gaps[0]
    detail = ("rel gaps at 10/10^2/10^3/10^4 zeros: "
              + ", ".join(f"{g:.2e}" for g in rel_gaps))
    return _result("explicit-formula-consistency", ok, detail, t0)


def check_zero_table_gates() -> CheckResult:
    """|N(T) - RvM(T)| < 2 on a grid; reciprocal sum tracks
    (1/4pi) log^2 T with O(log T) slack (constant <= 2)."""
    t0 = time.time()
    table = zeros.builtin_table("10k")
    bad = []
    for T in (50, 100, 500, 1000, 5000):
        gap = abs(zeros.count_below(table, T) - zeros.rvm_estimate(T))
        if gap >= 2:
            bad.append(f"N({T}) gap {gap:.2f}")
    for T in (100, 1000, 10 ** 4):
        s = zeros.sum_inv_gamma(table, T)
        ratio = abs(s - math.log(T) ** 2 / (4 * math.pi)) / math.log(T)
        if ratio > 2:
            bad.append(f"sum 1/gamma at {T}: ratio {ratio:.2f}")
    detail = "gates hold" if not bad else "; ".join(bad)
    return _result("zero-table-gates", not bad, detail, t0)


def check_three_range_bounds() -> CheckResult:
    """Each of the three zero-sum ranges at (x,h,delta)=(1e5,1e3,1e2)
    stays within 10x its bound expression."""
    t0 = time.time()
    bd = explicit.zero_sum_breakdown(1e5, 1e3, 1e2,
                                     zeros.builtin_table("10k"))
    ok = all(r <= 10.0 for r in bd.ratios)
    detail = ("ratios low/mid/high = "
              + ", ".join(f"{r:.3f}" for r in bd.ratios)
              + f"; remainder bound {bd.remainder_bound:.3e}")
    return _result("three-range-bounds", ok, detail, t0)


def check_normalized_error() -> CheckResult:
    """|e_k(x)| <= 3 against the per-m main term on a 20-point log grid
    x in [10^3, 10^8], k in {2, 3}. The largest |e_k| per k is reported
    against that term and against the leading order zeta(k) li(x)."""
    t0 = time.time()
    base = arith.sieve_primes(10 ** 4)
    grid = np.unique(np.logspace(3, 8, 20).astype(np.int64))
    worst = {2: [0.0, 0.0], 3: [0.0, 0.0]}  # k: [per-m, leading]
    for k, w in worst.items():
        for x in grid.tolist():
            count = counting.count_exact(x, k, base)
            for i, term in enumerate(counting.count_main_terms(x, k)):
                e = abs(counting.normalized_error(count - term, x, k))
                w[i] = max(w[i], e)
    return _result(
        "normalized-error-envelope", max(w[0] for w in worst.values()) <= 3.0,
        "max |e_k(x)| against the per-m main term / zeta(k) li(x): "
        + ", ".join(f"k = {k} {m:.4f} / {lead:.4f}"
                    for k, (m, lead) in worst.items()), t0)


def check_short_interval() -> CheckResult:
    """x = 10^12, h = 10^8, k = 2: interval count within 1% of the
    per-m main term, the sum over m of the integral of dt/log t over
    (x/m^2, (x+h)/m^2] (analytic.interval_main_term).

    The detail also reports the deviation from the leading-order term
    zeta(2) * integral of dt/log t over (x, x+h], about 4.9% here: that
    expression misses the secondary term 2|zeta'(2)|/(zeta(2) log x) of
    the asymptotic, which decays only like 1/log x.
    """
    t0 = time.time()
    x, h = 10 ** 12, 10 ** 8
    base = arith.sieve_primes(math.isqrt(x + h) + 1)
    got = counting.count_interval(x, h, 2, base)
    want, rel = counting.interval_deviation(x, h, 2, got)
    dev = abs(rel)
    leading = zeta_int(2) * li_interval(x, x + h)
    ldev = abs(got / leading - 1.0)
    return _result(
        "short-interval", dev < 0.01,
        f"count {got}, per-m main term {want:.1f}, deviation {dev:.5f}"
        f" (vs leading-order zeta(2)*li {leading:.1f}: {ldev:.5f})", t0)


def check_cstar_identity() -> CheckResult:
    """cstar - prime_power_correction equals the brute-force
    sum_{p m^k <= x} log p within 1e-9 relative, for x <= 10^4."""
    t0 = time.time()
    base = arith.sieve_primes(10 ** 4)
    logs = np.log(base.primes.astype(np.float64))
    worst = 0.0
    for k in (2, 3):
        # brute-force oracle: accumulate log p at every p * m^k <= x
        acc = np.zeros(10 ** 4 + 1)
        for m in range(1, arith.iroot(10 ** 4, k) + 1):
            mk = m ** k
            sel = base.primes * mk <= 10 ** 4
            np.add.at(acc, base.primes[sel] * mk, logs[sel])
        oracle = np.cumsum(acc)
        for x in range(1, 10 ** 4 + 1):
            lhs = (counting.cstar(x, k, base)
                   - counting.prime_power_correction(x, k, base))
            rel = abs(lhs - oracle[x]) / max(oracle[x], 1.0)
            worst = max(worst, rel)
    return _result("cstar-identity", worst <= 1e-9,
                   f"worst relative gap {worst:.2e}", t0)


SMALL_CHECKS = (
    check_oracle_equivalence,
    check_known_values,
    check_trapezoid_identity,
    check_explicit_consistency,
    check_zero_table_gates,
    check_three_range_bounds,
    check_normalized_error,
    check_cstar_identity,
)


def run_all(scale: str = "small") -> list[CheckResult]:
    if scale not in ("small", "medium"):
        raise ValueError(f"unknown scale preset {scale!r}")
    checks = list(SMALL_CHECKS)
    if scale == "medium":
        checks.append(check_short_interval)
    return [c() for c in checks]
