"""Command-line surface.

Subcommands: count, sweep, cstar, explicit, interval, zeros-stats,
fetch-zeros, verify. Output defaults to a human-readable table; --format
csv or json makes it machine-readable. File-producing commands write a
JSON manifest sidecar (<output>.manifest.json) and every result payload
carries the manifest id.

Exit codes: 2 usage, 3 capacity, 4 I/O, 5 network, 6 validation.
"""

from __future__ import annotations

import argparse
import csv
import io
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
from .analytic import LI_CONVENTION, exponents
from .errors import (CapacityError, CoverageError, DomainError,
                     IntegrityError, TableParseError)

EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_IO = 4
EXIT_NETWORK = 5
EXIT_VALIDATION = 6

ZEROS_ENV_VAR = "PPC_ZEROS_PATH"

CSV_SCHEMA_VERSION = "2"

# the largest x (x_max for sweep, h for interval) a command sieves
DEFAULT_SIEVE_CEILING = 10 ** 10


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


@dataclass
class Settings:
    """Effective configuration: the --config file's values and --format."""

    sieve_ceiling: int = DEFAULT_SIEVE_CEILING
    zeros_path: str = ""
    fmt: str = "table"


CONFIG_KEYS = ("sieve_ceiling", "zeros_path")


def _settings(args) -> Settings:
    """Reads the key = value lines of --config; a malformed line, an
    unknown key or a bad value is a DomainError."""
    s = Settings(fmt=args.format)
    if not args.config:
        return s
    with open(args.config) as f:
        lines = [line.strip() for line in f]
    for line in lines:
        if not line or line.startswith("#"):
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        if not eq or key not in CONFIG_KEYS:
            raise DomainError(f"config {args.config}: bad line {line!r}; "
                              f"keys are {', '.join(CONFIG_KEYS)}")
        if key == "zeros_path":
            s.zeros_path = val
            continue
        try:
            s.sieve_ceiling = _int_arg(val)
        except argparse.ArgumentTypeError as e:
            raise DomainError(f"config {args.config}: {key}: {e}") from None
    return s


def _zero_table(args, settings: Settings) -> zeros.ZeroTable:
    path = (getattr(args, "zeros", None) or settings.zeros_path
            or os.environ.get(ZEROS_ENV_VAR, ""))
    limit = getattr(args, "limit", None)
    if path:
        return zeros.load_zeros(path, limit=limit)
    return zeros.builtin_table("10k", limit=limit)


def _emit(rows: list[dict], manifest: RunManifest, fmt: str,
          stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump({"manifest": asdict(manifest), "rows": rows}, stream,
                  indent=2)
        stream.write("\n")
        return
    for row in rows:
        row.setdefault("manifest_id", manifest.manifest_id)
    cols = list(rows[0].keys()) if rows else []
    if fmt == "csv":
        w = csv.DictWriter(stream, fieldnames=cols)
        w.writeheader()
        w.writerows(rows)
        return
    widths = {c: max(len(c), *(len(_fmt_cell(r[c])) for r in rows))
              for c in cols} if rows else {}
    stream.write("  ".join(c.ljust(widths[c]) for c in cols) + "\n")
    for r in rows:
        stream.write("  ".join(
            _fmt_cell(r[c]).ljust(widths[c]) for c in cols) + "\n")


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _write_manifest_sidecar(output: str, manifest: RunManifest) -> None:
    with open(output + ".manifest.json", "w") as f:
        json.dump(asdict(manifest), f, indent=2)
        f.write("\n")


def _check_ceiling(name: str, n, settings: Settings) -> None:
    """CapacityError, before any sieving, when n passes sieve_ceiling."""
    if n > settings.sieve_ceiling:
        raise CapacityError(f"{name} = {n} beyond sieve ceiling "
                            f"{settings.sieve_ceiling}")


def _base_for(x: int) -> arith.PrimeTable:
    """The prime table every command sieves with: it certifies all
    primes up to x."""
    return arith.sieve_primes(max(100, math.isqrt(x) + 1))


def cmd_count(args, settings: Settings) -> int:
    t0 = time.time()
    x, k = args.x, args.k
    _check_ceiling("x", x, settings)
    base = _base_for(x)
    rows = []
    methods = {"exact": ("exact",), "oracle": ("oracle",),
               "both": ("exact", "oracle")}[args.method]
    for method in methods:
        if method == "exact":
            r = counting.count_exact(x, k, base)
        else:
            r = counting.annotate_count(x, k, counting.count_oracle(x, k),
                                        method="kfree-oracle")
        rows.append({"x": x, "k": k, "count": r.count,
                     "main_term": r.main_term,
                     "normalized_error": r.normalized_error,
                     "A": exponents(k).A, "method": r.method})
    manifest = RunManifest(command="count",
                           parameters={"x": x, "k": k, "method": args.method},
                           timings_ms={"total": (time.time() - t0) * 1000})
    _emit(rows, manifest, settings.fmt)
    return 0


def cmd_sweep(args, settings: Settings) -> int:
    t0 = time.time()
    if args.points < 2:
        raise DomainError("sweep needs points >= 2")
    if not 1 <= args.x_min <= args.x_max:
        raise DomainError("sweep needs 1 <= x_min <= x_max, got "
                          f"x_min = {args.x_min}, x_max = {args.x_max}")
    _check_ceiling("x_max", args.x_max, settings)
    grid = np.unique(np.logspace(math.log10(args.x_min),
                                 math.log10(args.x_max),
                                 args.points).astype(np.int64))
    base = _base_for(int(grid[-1]))
    rows = []
    for x in grid.tolist():
        r = counting.count_exact(int(x), args.k, base)
        rows.append({"x": r.x, "k": r.k, "count": r.count,
                     "main_term": r.main_term,
                     "error": r.count - r.main_term,
                     "normalized_error": r.normalized_error})
    manifest = RunManifest(
        command="sweep",
        parameters={"k": args.k, "x_min": args.x_min, "x_max": args.x_max,
                    "points": args.points, "output": args.output},
        timings_ms={"total": (time.time() - t0) * 1000})
    try:
        with open(args.output, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=["x", "k", "count", "main_term",
                                              "error", "normalized_error"])
            w.writeheader()
            w.writerows(rows)
        _write_manifest_sidecar(args.output, manifest)
    except OSError as e:
        print(f"error: cannot write {args.output}: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(rows)} rows to {args.output} "
          f"(manifest {manifest.manifest_id})")
    return 0


def cmd_cstar(args, settings: Settings) -> int:
    t0 = time.time()
    _check_ceiling("x", args.x, settings)
    base = _base_for(args.x)
    r = counting.cstar(args.x, args.k, base)
    corr = counting.prime_power_correction(args.x, args.k, base)
    rows = [{"x": r.x, "k": r.k, "cstar": r.value, "main_term": r.main_term,
             "normalized_error": r.normalized_error,
             "prime_power_correction": corr.value,
             "correction_scale_ratio": corr.scale_ratio}]
    manifest = RunManifest(command="cstar",
                           parameters={"x": args.x, "k": args.k},
                           timings_ms={"total": (time.time() - t0) * 1000})
    _emit(rows, manifest, settings.fmt)
    return 0


def cmd_explicit(args, settings: Settings) -> int:
    t0 = time.time()
    _check_ceiling("x", args.x, settings)
    table = _zero_table(args, settings)
    base = _base_for(int(args.x))
    exact = explicit.psi1_exact(args.x, base)
    value, bound = explicit.psi1_via_zeros(args.x, table,
                                           include_trivial_tail=args.tail)
    rows = [{"x": args.x, "psi1_exact": exact, "psi1_via_zeros": value,
             "abs_gap": abs(value - exact),
             "rel_gap": abs(value - exact) / exact if exact else math.inf,
             "remainder_bound": bound, "zeros_used": len(table)}]
    manifest = RunManifest(
        command="explicit",
        parameters={"x": args.x, "limit": args.limit, "tail": args.tail},
        zero_table_source=table.source_label, truncation=len(table),
        timings_ms={"total": (time.time() - t0) * 1000})
    _emit(rows, manifest, settings.fmt)
    return 0


def cmd_interval(args, settings: Settings) -> int:
    t0 = time.time()
    x, k = args.x, args.k
    if args.f is not None:
        h, delta = counting.interval_scaling(x, args.f, k)
    elif args.h is None or args.h < 1:
        raise DomainError("interval needs --h >= 1 or --f > 1")
    else:
        h, delta = args.h, max(2, args.h // 10)
    _check_ceiling("h", h, settings)
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
    table_src, trunc = "", 0
    if args.with_zeros:
        table = _zero_table(args, settings)
        table_src, trunc = table.source_label, len(table)
        d = float(delta)
        row["s_delta_direct"] = explicit.s_delta_direct(float(x), float(h),
                                                        d, base)
        if x / d <= table.max_ordinate:
            bd = explicit.zero_sum_breakdown(float(x), float(h), d, table)
            row["ratio_low"], row["ratio_mid"], row["ratio_high"] = bd.ratios
            row["zero_sum_remainder_bound"] = bd.remainder_bound
    manifest = RunManifest(
        command="interval",
        parameters={"x": x, "h": h, "k": k, "f": args.f},
        zero_table_source=table_src, truncation=trunc,
        timings_ms={"total": (time.time() - t0) * 1000})
    _emit([row], manifest, settings.fmt)
    return 0


def cmd_zeros_stats(args, settings: Settings) -> int:
    t0 = time.time()
    table = _zero_table(args, settings)
    rows = []
    for T in args.T or [100.0, 1000.0, table.max_ordinate]:
        T = min(T, table.max_ordinate)
        n = zeros.count_below(table, T)
        row = {"T": T, "N": n, "rvm_estimate": zeros.rvm_estimate(T),
               "sum_inv_gamma": zeros.sum_inv_gamma(table, T)}
        tail, bound = zeros.sum_inv_gamma_sq_tail(table, T)
        row["inv_gamma_sq_tail"] = tail
        row["inv_gamma_sq_tail_bound"] = bound
        rows.append(row)
    manifest = RunManifest(
        command="zeros-stats", parameters={"T": args.T},
        zero_table_source=table.source_label, truncation=len(table),
        timings_ms={"total": (time.time() - t0) * 1000})
    _emit(rows, manifest, settings.fmt)
    return 0


def cmd_fetch_zeros(args, settings: Settings) -> int:
    # imported here: no other command needs the HTTP stack
    import urllib.parse
    import urllib.request

    try:
        scheme = urllib.parse.urlsplit(args.url).scheme
        if scheme not in ("http", "https"):
            raise ValueError(f"need an http or https URL, got {args.url!r}")
        with urllib.request.urlopen(args.url, timeout=60) as resp:
            body = resp.read()
    except (OSError, ValueError) as e:  # URLError and HTTPError are OSErrors
        print(f"error: fetch failed: {e}", file=sys.stderr)
        return EXIT_NETWORK
    try:
        ordinates = zeros._parse_lines(io.StringIO(body.decode("utf-8")),
                                       args.url, limit=args.limit)
        zeros.validate_table(ordinates, args.url)
        if len(ordinates) == 0:
            raise IntegrityError("no ordinates in download")
    except (TableParseError, IntegrityError, UnicodeDecodeError) as e:
        print(f"error: downloaded table failed validation: {e}",
              file=sys.stderr)
        return EXIT_VALIDATION
    with open(args.output, "w") as f:
        for v in ordinates:
            f.write(f"{v:.9f}\n")
    print(f"wrote {len(ordinates)} ordinates to {args.output}")
    return 0


def cmd_verify(args, settings: Settings) -> int:
    results = verify.run_all(args.scale)
    manifest = RunManifest(command="verify",
                           parameters={"scale": args.scale})
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail} "
              f"({r.elapsed_ms:.0f} ms) [manifest {manifest.manifest_id}]")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ppcount",
        description="Counting numbers of the form p * m^k, with analytic "
                    "main terms and explicit-formula diagnostics.")
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")
    p.add_argument("--config", default=None,
                   help="file of key = value lines: "
                        + ", ".join(CONFIG_KEYS))
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("count", help="exact C_k(x) with main term")
    c.add_argument("--x", type=_int_arg, required=True)
    c.add_argument("--k", type=_int_arg, required=True)
    c.add_argument("--method", choices=("exact", "oracle", "both"),
                   default="exact")
    c.set_defaults(fn=cmd_count)

    c = sub.add_parser("sweep", help="normalized-error curve to CSV")
    c.add_argument("--k", type=_int_arg, required=True)
    c.add_argument("--x-min", type=_int_arg, required=True)
    c.add_argument("--x-max", type=_int_arg, required=True)
    c.add_argument("--points", type=_int_arg, default=10)
    c.add_argument("--output", required=True)
    c.set_defaults(fn=cmd_sweep)

    c = sub.add_parser("cstar", help="weighted count C*_k(x)")
    c.add_argument("--x", type=_int_arg, required=True)
    c.add_argument("--k", type=_int_arg, required=True)
    c.set_defaults(fn=cmd_cstar)

    c = sub.add_parser("explicit", help="psi_1 vs the zero-sum formula")
    c.add_argument("--x", type=_float_arg, required=True)
    c.add_argument("--zeros", default=None)
    c.add_argument("--limit", type=_int_arg, default=None)
    c.add_argument("--tail", action="store_true",
                   help="include the trivial-zero tail")
    c.set_defaults(fn=cmd_explicit)

    c = sub.add_parser("interval", help="short-interval count")
    c.add_argument("--x", type=_int_arg, required=True)
    c.add_argument("--k", type=_int_arg, required=True)
    c.add_argument("--h", type=_int_arg, default=None)
    c.add_argument("--f", type=_float_arg, default=None)
    c.add_argument("--zeros", default=None)
    c.add_argument("--limit", type=_int_arg, default=None)
    c.add_argument("--with-zeros", action="store_true",
                   help="add S_Delta and zero-sum breakdown diagnostics")
    c.set_defaults(fn=cmd_interval)

    c = sub.add_parser("zeros-stats", help="zero-table statistics")
    c.add_argument("--zeros", default=None)
    c.add_argument("--limit", type=_int_arg, default=None)
    c.add_argument("--T", type=_float_arg, nargs="*", default=None)
    c.set_defaults(fn=cmd_zeros_stats)

    c = sub.add_parser("fetch-zeros", help="download and validate a table")
    c.add_argument("--url", required=True)
    c.add_argument("--output", required=True)
    c.add_argument("--limit", type=_int_arg, default=None)
    c.set_defaults(fn=cmd_fetch_zeros)

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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _settings(args)
        return args.fn(args, settings)
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except (TableParseError, IntegrityError, CoverageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
