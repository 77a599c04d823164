"""Command-line surface.

Subcommands: count, sweep, cstar, explicit, interval, zeros-stats,
verify. Every setting is an argument: the global --sieve-ceiling
bounds the one sieve that grows with the input, x for explicit and h
for interval, and --zeros PATH picks a zero table in place of the
bundled one. count, sweep and cstar sieve only their base, to sqrt(x),
and read the rest off the Lucy recurrence, whose reach is their one
bound. Every command prints its rows through one writer, as a table,
or as csv or json with --format, with the run's manifest: its id is a
column of the table and csv rows and the "manifest" member of the json
document. verify prints one row per check.

Exit codes: 1 a verify check failed, 2 usage, 3 capacity, 4 I/O,
6 validation (5 is retired).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import uuid
from dataclasses import asdict, dataclass, field
from decimal import Decimal, InvalidOperation

import numpy as np

from . import __version__, arith, counting, explicit, verify, zeros
from .analytic import LI_CONVENTION, exponents, zeta_int
from .errors import (CapacityError, CoverageError, DomainError,
                     IntegrityError, TableParseError)

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_IO = 4
EXIT_VALIDATION = 6

CSV_SCHEMA_VERSION = "3"

# the largest x of explicit, or h of interval, a command sieves
DEFAULT_SIEVE_CEILING = 10 ** 10

# np.logspace allocates the whole grid before the first count
MAX_SWEEP_POINTS = 10 ** 4


@dataclass
class RunManifest:
    command: str
    parameters: dict
    li_convention: str = LI_CONVENTION
    zero_table_source: str = ""
    truncation: int = 0
    timings_ms: dict = field(default_factory=dict)
    version: str = __version__
    schema_version: str = CSV_SCHEMA_VERSION
    manifest_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])


# what the manifest leaves out of the parsed arguments
NOT_PARAMETERS = ("cmd", "fn", "format")


def _zero_table(args) -> zeros.ZeroTable:
    if args.zeros:
        return zeros.load_zeros(args.zeros, limit=args.limit)
    return zeros.builtin_table("10k", limit=args.limit)


def _manifest(args, table: zeros.ZeroTable | None,
              started: float) -> RunManifest:
    """The record of one run: its subcommand, the parsed arguments, the
    zero table it read, and its wall time so far."""
    return RunManifest(
        command=args.cmd,
        parameters={key: v for key, v in vars(args).items()
                    if key not in NOT_PARAMETERS},
        zero_table_source=table.source_label if table is not None else "",
        truncation=len(table) if table is not None else 0,
        timings_ms={"total": (time.time() - started) * 1000})


def _emit(rows: list[dict], manifest: RunManifest, fmt: str) -> None:
    """Print the rows with the run's manifest as a table, csv or json,
    and flush them, so a closed pipe shows here."""
    out = sys.stdout
    if fmt == "json":
        json.dump({"manifest": asdict(manifest), "rows": rows}, out,
                  indent=2)
        out.write("\n")
    else:
        for row in rows:
            row.setdefault("manifest_id", manifest.manifest_id)
        cols = list(rows[0].keys()) if rows else []
        if fmt == "csv":
            w = csv.DictWriter(out, fieldnames=cols)
            w.writeheader()
            w.writerows(rows)
        else:
            lines = [cols] + [[_fmt_cell(r[c]) for c in cols] for r in rows]
            widths = [max(len(line[i]) for line in lines)
                      for i in range(len(cols))]
            for line in lines:
                out.write("  ".join(v.ljust(w) for v, w in
                                    zip(line, widths)).rstrip() + "\n")
    out.flush()


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _check_ceiling(name: str, n, ceiling: int) -> None:
    """CapacityError, before any sieving, when n passes the ceiling."""
    if n > ceiling:
        raise CapacityError(f"{name} = {n} beyond sieve ceiling {ceiling}")


def _base_for(x: int) -> arith.PrimeTable:
    """The prime table every command sieves with: it certifies all
    primes up to x."""
    return arith.sieve_primes(max(100, math.isqrt(x) + 1))


# Each command returns its rows and the zero table it read, or None;
# main prints them.

def _count_row(x: int, k: int, count: int) -> dict:
    """A row of count or sweep: C_k(x) against its per-m main term, with
    the leading order zeta(k) li(x) beside it."""
    main, leading = counting.count_main_terms(x, k)
    return {"x": x, "k": k, "count": count, "main_term": main,
            "leading_term": leading, "error": count - main,
            "normalized_error": counting.normalized_error(count - main, x, k),
            "A": exponents(k)}


def cmd_count(args):
    x, k = args.x, args.k
    # the oracle refuses x past its own ceiling before it allocates, so
    # nothing is sieved for a refused run
    oracle = counting.count_oracle(x, k) if args.method != "exact" else None
    rows = []
    if args.method != "oracle":
        arith.check_lucy_reach(x)
        count = counting.count_exact(x, k, _base_for(x))
        rows.append({**_count_row(x, k, count), "method": "pair-enumeration"})
    if oracle is not None:
        rows.append({**_count_row(x, k, oracle), "method": "kfree-oracle"})
    return rows, None


def _sweep_grid(x_min: int, x_max: int, points: int) -> np.ndarray:
    """Distinct integers nearest to ``points`` log-spaced values from
    x_min to x_max, ascending; rounding, not truncation, keeps both
    ends exactly as given."""
    return np.unique(np.rint(np.logspace(math.log10(x_min),
                                         math.log10(x_max),
                                         points)).astype(np.int64))


def cmd_sweep(args):
    if not 2 <= args.points <= MAX_SWEEP_POINTS:
        raise DomainError(f"sweep needs 2 <= points <= {MAX_SWEEP_POINTS}, "
                          f"got {args.points}")
    if not 1 <= args.x_min <= args.x_max:
        raise DomainError("sweep needs 1 <= x_min <= x_max, got "
                          f"x_min = {args.x_min}, x_max = {args.x_max}")
    # before the grid's int64 cast, which x_max past 2^63 would overflow
    arith.check_lucy_reach(args.x_max)
    grid = _sweep_grid(args.x_min, args.x_max, args.points)
    base = _base_for(args.x_max)
    return [_count_row(x, args.k, counting.count_exact(x, args.k, base))
            for x in grid.tolist()], None


def cmd_cstar(args):
    x, k = args.x, args.k
    # psi(x // m^k) comes from the Lucy recurrence, as count's pi does
    arith.check_lucy_reach(x)
    base = _base_for(x)
    value = counting.cstar(x, k, base)
    corr = counting.prime_power_correction(x, k, base)
    main = zeta_int(k) * x
    # the correction's proof-shaped scale: x^(1/2) (log x if k = 2 else 1)
    scale = math.sqrt(x) * (math.log(x) if k == 2 else 1.0)
    rows = [{"x": x, "k": k, "cstar": value, "main_term": main,
             "normalized_error": counting.normalized_error(value - main,
                                                           x, k),
             "prime_power_correction": corr,
             "correction_scale_ratio": corr / scale if x >= 2 else 0.0}]
    return rows, None


def cmd_explicit(args):
    _check_ceiling("x", args.x, args.sieve_ceiling)
    table = _zero_table(args)
    base = _base_for(int(args.x))
    exact = explicit.psi1_exact(args.x, base)
    value, bound = explicit.psi1_via_zeros(args.x, table)
    rows = [{"x": args.x, "psi1_exact": exact, "psi1_via_zeros": value,
             "abs_gap": abs(value - exact),
             # psi_1 = 0 for x < 3: no relative gap, and JSON has no inf
             "rel_gap": abs(value - exact) / exact if exact else None,
             "remainder_bound": bound, "zeros_used": len(table)}]
    return rows, table


def cmd_interval(args):
    x, k = args.x, args.k
    if not args.with_zeros and (args.zeros, args.limit) != (None, None):
        raise DomainError("--zeros and --limit need --with-zeros")
    if args.f is not None:
        h, delta = counting.interval_scaling(x, args.f, k)
    elif args.h is None or args.h < 1:
        raise DomainError("interval needs --h >= 1 or --f > 1")
    else:
        h, delta = args.h, max(2, args.h // 10)
    _check_ceiling("h", h, args.sieve_ceiling)
    table = None
    if args.with_zeros:
        table = _zero_table(args)
        # the diagnostics' domain, refused before any sieving
        w = explicit.TrapezoidWeight(float(x), float(h), float(delta))
        table.check_covers(x / delta)
    # sized for S_Delta, which reads prime powers up to x + h + delta
    base = _base_for(x + h + delta)
    count = counting.count_interval(x, h, k, base)
    expected, rel = counting.interval_deviation(x, h, k, count)
    row = {"x": x, "h": h, "k": k, "count": count, "expected": expected,
           "rel_deviation": rel}
    if args.f is not None:
        row["f"] = args.f
        row["delta"] = delta
        row["predicted_scale"] = args.f ** -0.5
    if table is not None:
        direct = explicit.s_delta_direct(w.x, w.h, w.delta, base)
        bd = explicit.zero_sum_breakdown(w.x, w.h, w.delta, table)
        via_zeros, bound = bd.s_delta
        row["s_delta_direct"] = direct
        row["s_delta_via_zeros"] = via_zeros
        row["s_delta_gap"] = abs(via_zeros - direct)
        row["s_delta_bound"] = bound
        row["ratio_low"], row["ratio_mid"], row["ratio_high"] = bd.ratios
        row["zero_sum_remainder_bound"] = bd.remainder_bound
    return [row], table


def cmd_zeros_stats(args):
    table = _zero_table(args)
    # every T is clipped to the table's end, and the Riemann-von Mangoldt
    # term holds only above 2*pi*e
    if table.max_ordinate <= zeros.TWO_PI * math.e:
        raise DomainError(
            f"zeros-stats needs a zero table past 2*pi*e = "
            f"{zeros.TWO_PI * math.e}: '{table.source_label}' ends at "
            f"{table.max_ordinate}")
    rows = []
    # each T clipped to the table's end, without repeats
    for T in dict.fromkeys(min(T, table.max_ordinate) for T in
                           args.T or [100.0, 1000.0, table.max_ordinate]):
        n = zeros.count_below(table, T)
        row = {"T": T, "N": n, "rvm_estimate": zeros.rvm_estimate(T),
               "sum_inv_gamma": zeros.sum_inv_gamma(table, T)}
        tail, bound = zeros.sum_inv_gamma_sq_tail(table, T)
        row["inv_gamma_sq_tail"] = tail
        row["inv_gamma_sq_tail_bound"] = bound
        rows.append(row)
    return rows, table


def cmd_verify(args):
    return [asdict(r) for r in verify.run_all(args.scale)], None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ppcount",
        description="Counting numbers of the form p * m^k, with analytic "
                    "main terms and explicit-formula diagnostics.")
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")
    p.add_argument("--sieve-ceiling", type=_int_arg,
                   default=DEFAULT_SIEVE_CEILING,
                   help="the largest x (explicit) or h (interval) sieved")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("count", help="exact C_k(x) with main term")
    c.add_argument("--x", type=_int_arg, required=True)
    c.add_argument("--k", type=_int_arg, required=True)
    c.add_argument("--method", choices=("exact", "oracle", "both"),
                   default="exact")
    c.set_defaults(fn=cmd_count)

    c = sub.add_parser("sweep", help="normalized-error curve")
    c.add_argument("--k", type=_int_arg, required=True)
    c.add_argument("--x-min", type=_int_arg, required=True)
    c.add_argument("--x-max", type=_int_arg, required=True)
    c.add_argument("--points", type=_int_arg, default=10)
    c.set_defaults(fn=cmd_sweep)

    c = sub.add_parser("cstar", help="weighted count C*_k(x)")
    c.add_argument("--x", type=_int_arg, required=True)
    c.add_argument("--k", type=_int_arg, required=True)
    c.set_defaults(fn=cmd_cstar)

    c = sub.add_parser("explicit", help="psi_1 vs the zero-sum formula")
    c.add_argument("--x", type=_float_arg, required=True)
    c.add_argument("--zeros", default=None)
    c.add_argument("--limit", type=_int_arg, default=None)
    c.set_defaults(fn=cmd_explicit)

    c = sub.add_parser("interval", help="short-interval count")
    c.add_argument("--x", type=_int_arg, required=True)
    c.add_argument("--k", type=_int_arg, required=True)
    g = c.add_mutually_exclusive_group()
    g.add_argument("--h", type=_int_arg, default=None)
    g.add_argument("--f", type=_float_arg, default=None)
    c.add_argument("--zeros", default=None)
    c.add_argument("--limit", type=_int_arg, default=None)
    c.add_argument("--with-zeros", action="store_true",
                   help="add S_Delta, summed directly and from the zeros, "
                        "and the zero-sum breakdown")
    c.set_defaults(fn=cmd_interval)

    c = sub.add_parser("zeros-stats", help="zero-table statistics")
    c.add_argument("--zeros", default=None)
    c.add_argument("--limit", type=_int_arg, default=None)
    c.add_argument("--T", type=_float_arg, nargs="*", default=None)
    c.set_defaults(fn=cmd_zeros_stats)

    c = sub.add_parser("verify", help="run the acceptance checks")
    c.add_argument("--scale", choices=("small", "medium"), default="small")
    c.set_defaults(fn=cmd_verify)
    return p


def _int_arg(s: str) -> int:
    """An integer in [0, 10^30), parsed exactly: plain digits, or
    1e6-style notation whose value is integral."""
    try:
        v = Decimal(s)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {s!r}") from None
    if not (v.is_finite() and 0 <= v < 10 ** 30
            and v == v.to_integral_value()):
        raise argparse.ArgumentTypeError(
            f"not an integer in [0, 10^30): {s!r}")
    return int(v)


def _float_arg(s: str) -> float:
    """A finite, non-negative number."""
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {s!r}") from None
    if not (math.isfinite(v) and v >= 0):
        raise argparse.ArgumentTypeError(
            f"not a finite non-negative number: {s!r}")
    return v


# the exit code of each failure a command may raise; the first class
# that matches wins
_EXIT_CODES = {
    CapacityError: EXIT_CAPACITY,
    TableParseError: EXIT_VALIDATION,
    IntegrityError: EXIT_VALIDATION,
    CoverageError: EXIT_VALIDATION,
    DomainError: EXIT_USAGE,
    OSError: EXIT_IO,
}


def main(argv=None) -> int:
    started = time.time()
    args = build_parser().parse_args(argv)
    try:
        rows, table = args.fn(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(e, cls))
    try:
        _emit(rows, _manifest(args, table, started), args.format)
    except BrokenPipeError:
        # the reader closed the pipe, as `| head` does: point stdout's
        # descriptor, fd 1, at devnull, so that the interpreter's final
        # flush of what is left cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    # only verify's rows carry "passed"
    if any(row.get("passed") is False for row in rows):
        return EXIT_CHECK_FAILED
    return 0

if __name__ == "__main__":
    sys.exit(main())
