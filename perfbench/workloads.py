"""Workloads of the ppcount benchmark: seeded job lists, the checks on
their outputs, and the untimed probe of a known defect.

CLI jobs run in-process through ``ppcount.cli.main([..., "--format",
"json"])`` at default settings (no ``--threads``, no config file), the
way a user's shell would run them. Library functions are looked up
through their modules at call time, so the traced run's wrappers see
every call.

Seeds move each x by a small offset only, so the work of a run, and its
time, does not depend on the seed. Checks run outside the timed region,
each through another route than the job's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ppcount import arith, cli, counting, explicit, zeros


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]                # returns a JSON-able result
    check: Callable[[object], "str | None"]  # failure reason, or None


def run_cli(argv: list[str]) -> dict:
    """``ppcount --format json <argv>`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(["--format", "json", *argv])
        except SystemExit as e:  # argparse rejected the arguments
            rc = e.code
    rows = None
    if rc == 0:
        try:
            rows = json.loads(out.getvalue())["rows"]
        except (ValueError, KeyError, TypeError):
            pass
    return {"rc": rc, "rows": rows, "stderr": err.getvalue().strip()}


def cli_job(name: str, argv: list[str],
            check_rows: Callable[[list], "str | None"]) -> Job:
    def check(result: dict):
        if result["rc"] != 0:
            last = result["stderr"].splitlines()[-1:] or [""]
            return f"exit {result['rc']}: {last[0]}"
        if result["rows"] is None:
            return "stdout is not a JSON document with rows"
        return check_rows(result["rows"])
    return Job(name, partial(run_cli, argv), check)


# ---------------------------------------------------------------- checks

def prime_pi_quotients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """pi(v) for every v of the form n // i, by the Lucy_Hedgehog
    recurrence S(v) -= S(v // p) - S(p - 1) over primes p <= sqrt(n).

    Returns (small, large): small[v] = pi(v) for v <= isqrt(n), and
    large[i] = pi(n // i) for 1 <= i <= isqrt(n). It shares no code with
    the library's segmented sieve, so it checks count_exact from outside.
    """
    r = math.isqrt(n)
    idx = np.arange(r + 1, dtype=np.int64)
    small = idx - 1
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = n // idx[1:] - 1
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite
        sp, p2 = small[p - 1], p * p
        # Each right-hand side is evaluated in full before the update,
        # so it reads S from before this p, as the recurrence requires.
        top = min(r, n // p2)
        inner = min(top, r // p)  # n // i // p = n // (i*p) with i*p <= r
        large[1:inner + 1] -= large[p:inner * p + 1:p] - sp
        large[inner + 1:top + 1] -= (
            small[n // (idx[inner + 1:top + 1] * p)] - sp)
        if p2 <= r:
            small[p2:] -= small[idx[p2:] // p] - sp
    return small, large


def count_pmk(n: int, k: int) -> int:
    """C_k(n) = sum over m of pi(n // m^k), each pi from the quotients."""
    small, large = prime_pi_quotients(n)
    r = len(small) - 1
    total, m = 0, 1
    while m ** k <= n:
        q = m ** k
        total += int(large[q]) if q <= r else int(small[n // q])
        m += 1
    return total


def count_pmk_window(lo: int, hi: int, k: int) -> int:
    """#{n in (lo, hi] : n = p m^k}, one Miller-Rabin test per candidate p."""
    q = np.arange(1, arith.iroot(hi, k) + 1, dtype=np.int64) ** k
    q = q[hi // q > lo // q].tolist()  # the m^k with a multiple in the window
    return sum(1 for d in q for p in range(lo // d + 1, hi // d + 1)
               if arith.is_prime(p))


def _check_count(x: int, k: int, rows: list):
    want = count_pmk(x, k)
    got = rows[0]["count"]
    return None if got == want else f"C_{k}({x}) = {got}, Lucy route {want}"


def _check_both(x: int, rows: list):
    if [r["method"] for r in rows] != ["pair-enumeration", "kfree-oracle"]:
        return f"unexpected methods {[r['method'] for r in rows]}"
    exact, oracle = ({key: v for key, v in r.items() if key != "method"}
                     for r in rows)
    if exact != oracle:
        return f"exact row {exact} != oracle row {oracle}"
    return _check_count(x, 2, rows)


# Width of the sub-window counted candidate by candidate, and a segment
# length that is not a power of two, so the split route sieves segments
# with other boundaries than the job did.
INTERVAL_WINDOW = 20_000
CHECK_SEGMENT_LENGTH = 3 << 18


def _check_interval(x: int, h: int, k: int, split: int, rows: list):
    base = arith.sieve_primes(math.isqrt(x + h) + 1)
    a, b = x + split, x + split + INTERVAL_WINDOW
    want = (counting.count_interval(x, split, k, base,
                                    seg_len=CHECK_SEGMENT_LENGTH)
            + count_pmk_window(a, b, k)
            + counting.count_interval(b, x + h - b, k, base,
                                      seg_len=CHECK_SEGMENT_LENGTH))
    got = rows[0]["count"]
    return None if got == want else (
        f"count({x}, {h}, k={k}) = {got}, split route at {a}..{b} {want}")


def _check_explicit(rows: list):
    r = rows[0]
    if r["zeros_used"] != 10500:
        return f"zeros_used = {r['zeros_used']}, want 10500"
    if not r["abs_gap"] <= r["remainder_bound"]:
        return f"|psi1 gap| {r['abs_gap']} above bound {r['remainder_bound']}"
    return None


def _check_cstar(rows: list):
    # RH-sized error: |C* - zeta(k) x| <= sqrt(x) log^A x
    r = rows[0]
    if not abs(r["normalized_error"]) <= 1.0:
        return f"normalized error {r['normalized_error']} outside [-1, 1]"
    if not r["prime_power_correction"] > 0:
        return f"prime-power correction {r['prime_power_correction']} <= 0"
    return None


def _check_zeros_stats(rows: list):
    # N(100) and N(1000) are classical; the table's last ordinate is
    # counted with a strict "<", so 10500 ordinates give N = 10499.
    got = [r["N"] for r in rows]
    return None if got == [29, 649, 10499] else f"N(T) = {got}"


# criterion 3 of the acceptance suite: direct vs psi_1 route
TRAPEZOID_RTOL = 1e-8
# s_delta_via_zeros sums all ordinates with one fsum, the breakdown with
# three; the two may differ by a few ulps of the total
BREAKDOWN_RTOL = 1e-12


def _check_triple(x: float, h: float, d: float, r: dict):
    if not abs(r["direct"] - r["via_psi1"]) <= TRAPEZOID_RTOL * abs(
            r["via_psi1"]):
        return f"S_Delta direct {r['direct']} vs psi1 {r['via_psi1']}"
    from_breakdown = h + d - r["breakdown_total"] / d
    if not abs(r["via_zeros"] - from_breakdown) <= BREAKDOWN_RTOL * abs(
            from_breakdown):
        return f"via_zeros {r['via_zeros']} vs breakdown {from_breakdown}"
    return None


# ------------------------------------------------------------- workloads

def count_ladder(rng: random.Random) -> list[Job]:
    x = 10 ** 9 + rng.randrange(10 ** 5)
    x_small = 10 ** 6 + rng.randrange(10 ** 4)
    jobs = [cli_job(f"count-k{k}", ["count", "--x", str(x), "--k", str(k)],
                    partial(_check_count, x, k)) for k in (2, 3)]
    jobs.append(cli_job("count-both", ["count", "--x", str(x_small), "--k",
                                       "2", "--method", "both"],
                        partial(_check_both, x_small)))
    return jobs


def interval_far(rng: random.Random) -> list[Job]:
    x, h = 10 ** 12 + rng.randrange(10 ** 6), 10 ** 7
    return [cli_job(f"interval-k{k}",
                    ["interval", "--x", str(x), "--h", "1e7", "--k", str(k)],
                    partial(_check_interval, x, h, k,
                            rng.randrange(1, h - INTERVAL_WINDOW)))
            for k in (2, 3)]


SCAN_TRIPLES = 60


def explicit_scan(rng: random.Random) -> list[Job]:
    x_psi = 3 * 10 ** 7 + rng.randrange(10 ** 5)
    x_cstar = 10 ** 8 + rng.randrange(10 ** 5)
    jobs = [cli_job("explicit", ["explicit", "--x", str(x_psi)],
                    _check_explicit),
            cli_job("cstar", ["cstar", "--x", str(x_cstar), "--k", "2"],
                    _check_cstar),
            cli_job("zeros-stats", ["zeros-stats"], _check_zeros_stats)]
    # x on a fixed log grid over [1e5, 1e6] (the psi_1 route costs ~x),
    # moved by a seeded offset; x/delta stays inside the 10k table
    triples = []
    for i in range(SCAN_TRIPLES):
        x = round(10 ** (5 + i / SCAN_TRIPLES)) + rng.randrange(1000)
        d = math.ceil(x / rng.uniform(1000, 9500))
        h = min(x, d * rng.randrange(2, 41))
        triples.append((float(x), float(h), float(d)))
    shared = {}

    def load():
        shared["table"] = zeros.builtin_table("10k")
        shared["base"] = arith.sieve_primes(
            math.isqrt(int(max(x + h + d for x, h, d in triples))) + 1)
        return {"zeros": len(shared["table"])}

    def triple(x, h, d):
        base, table = shared["base"], shared["table"]
        bd = explicit.zero_sum_breakdown(x, h, d, table)
        return {"direct": explicit.s_delta_direct(x, h, d, base),
                "via_psi1": explicit.s_delta_via_psi1(x, h, d, base),
                "via_zeros": explicit.s_delta_via_zeros(x, h, d, table)[0],
                "breakdown_total": bd.total.real}

    jobs.append(Job("scan-load", load, lambda r: None if r["zeros"] == 10500
                    else f"table has {r['zeros']} ordinates"))
    jobs += [Job(f"scan-{i}", partial(triple, *t), partial(_check_triple, *t))
             for i, t in enumerate(triples)]
    return jobs


# name -> (function making the job list, the set-up a fresh interpreter runs before the
# workload's first job can start)
WORKLOADS = {
    "count-ladder": (count_ladder, "import ppcount.cli"),
    "interval-far": (interval_far, "import ppcount.cli"),
    "explicit-scan": (explicit_scan, "import ppcount.cli, ppcount.zeros; "
                                     "ppcount.zeros.builtin_table('10k')"),
}

# Known defects: (name, workload, argv, expected exit, expected stderr
# text). Probed once per run of the workload, untimed, and reported by
# name; they count toward neither attempted nor failed jobs. When the
# defect is fixed the job moves into the workload in a change of its own.
KNOWN_DEFECTS = [
    # cmd_interval sizes the sieve base to sqrt(x + h); S_Delta needs
    # sqrt(x + h + delta), so every scaled --f --with-zeros run fails
    ("interval-f-with-zeros-base", "explicit-scan",
     ["interval", "--x", "1e8", "--f", "4", "--k", "2", "--with-zeros"],
     6, "cannot certify primes up to"),
]
