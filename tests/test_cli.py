import argparse
import ast
import csv
import importlib
import io
import json
import os
import random
import socket
import subprocess
import sys
import warnings
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

from ppcount import cli, counting, explicit, verify, zeros
from ppcount.analytic import interval_main_term
from ppcount.arith import sieve_primes


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestCount:
    def test_known_value_csv(self, capsys):
        rc, out, _ = run(capsys, "--format", "csv",
                         "count", "--x", "100", "--k", "2")
        assert rc == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["count"] == "46"
        assert rows[0]["method"] == "pair-enumeration"
        assert rows[0]["manifest_id"]

    def test_both_methods_agree(self, capsys):
        rc, out, _ = run(capsys, "--format", "csv",
                         "count", "--x", "1e4", "--k", "3",
                         "--method", "both")
        assert rc == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        assert rows[0]["count"] == rows[1]["count"]
        assert {r["method"] for r in rows} == {"pair-enumeration",
                                               "kfree-oracle"}

    def test_rows_against_main_terms(self, capsys):
        # count and sweep print the same columns; count adds method
        rc, out, _ = run(capsys, "--format", "json", "count", "--x", "1e6",
                         "--k", "3", "--method", "both")
        assert rc == 0
        exact, oracle = json.loads(out)["rows"]
        assert exact.pop("method") == "pair-enumeration"
        assert oracle.pop("method") == "kfree-oracle"
        assert exact == oracle
        main, leading = counting.count_main_terms(10 ** 6, 3)
        assert exact["main_term"] == main == interval_main_term(
            1, 10 ** 6 - 1, 3)
        assert exact["leading_term"] == leading
        assert exact["error"] == exact["count"] - main
        assert exact["normalized_error"] == counting.normalized_error(
            exact["count"] - main, 10 ** 6, 3)
        rc, out, _ = run(capsys, "--format", "json", "sweep", "--k", "3",
                         "--x-min", "1e3", "--x-max", "1e6", "--points", "2")
        assert rc == 0
        assert json.loads(out)["rows"][-1] == exact

    def test_scientific_notation_accepted(self, capsys):
        rc, out, _ = run(capsys, "--format", "json",
                         "count", "--x", "1e3", "--k", "2")
        assert rc == 0
        payload = json.loads(out)
        assert payload["rows"][0]["x"] == 1000

    def test_usage_error(self, capsys):
        rc, _, err = run(capsys, "count", "--x", "100", "--k", "1")
        assert rc == cli.EXIT_USAGE
        assert "error" in err

    def test_non_integer_x_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["count", "--x", "1.5", "--k", "2"])
        assert e.value.code == 2


class TestArguments:
    @pytest.mark.parametrize("argv", [
        ["count", "--x", "1e400", "--k", "2"],
        ["count", "--x", "inf", "--k", "2"],
        ["count", "--x", "-5", "--k", "2"],
        ["count", "--x", "1e30", "--k", "2"],
        ["explicit", "--x", "-3"],
        ["explicit", "--x", "inf"],
        ["explicit", "--x", "nan"],
        ["interval", "--x", "1e6", "--k", "2", "--f", "nan"],
        ["interval", "--x", "1e8", "--h", "5", "--f", "4", "--k", "2"],
        ["--threads", "2", "count", "--x", "100", "--k", "2"],
        ["--config", "ppc.cfg", "count", "--x", "100", "--k", "2"],
        ["sweep", "--k", "2", "--x-min", "10", "--x-max", "100",
         "--output", "s.csv"],
    ])
    def test_bad_argument_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == cli.EXIT_USAGE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("x_min, x_max", [("0", "100"), ("500", "100")])
    def test_bad_sweep_range_is_usage_error(self, capsys, x_min, x_max):
        rc, out, err = run(capsys, "sweep", "--k", "2", "--x-min", x_min,
                           "--x-max", x_max)
        assert rc == cli.EXIT_USAGE
        assert out == "" and "x_min <= x_max" in err

    def test_too_many_sweep_points_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "sweep", "--k", "2", "--x-min", "1",
                           "--x-max", "100", "--points", "1e20")
        assert rc == cli.EXIT_USAGE
        assert out == "" and "points" in err

    def test_non_number_float_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["explicit", "--x", "abc"])
        assert e.value.code == cli.EXIT_USAGE
        assert "not a number: 'abc'" in capsys.readouterr().err

    def test_integers_parsed_exactly(self):
        parser = cli.build_parser()
        for text, want in (("1000000000000000001", 10 ** 18 + 1),
                           ("9007199254740993", 2 ** 53 + 1),
                           ("1e6", 10 ** 6), ("2.5e1", 25)):
            args = parser.parse_args(["count", "--x", text, "--k", "2"])
            assert args.x == want and type(args.x) is int

    def test_f_at_most_one_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "interval", "--x", "1e6", "--k", "2",
                         "--f", "0.5")
        assert rc == cli.EXIT_USAGE
        assert "f > 1" in err


class TestConfig:
    """Every setting is an argument: the global --sieve-ceiling, and
    --zeros for the zero table."""

    def test_capacity_from_sieve_ceiling(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.arith, "sieve_primes", None)
        for argv in (["explicit", "--x", "1e6"],
                     ["interval", "--x", "1e6", "--h", "1e4", "--k", "2"]):
            rc, out, err = run(capsys, "--sieve-ceiling", "1e3", *argv)
            assert rc == cli.EXIT_CAPACITY, argv
            assert out == "" and "ceiling 1000" in err, argv

    @pytest.mark.parametrize("argv", [
        ["count", "--x", "1e6", "--k", "2"],
        ["sweep", "--k", "2", "--x-min", "10", "--x-max", "1e6"],
        ["cstar", "--x", "1e6", "--k", "2"],
    ])
    def test_ladders_ignore_sieve_ceiling(self, capsys, argv):
        # count, sweep and cstar sieve only their base, to sqrt(x): the
        # ceiling neither bounds them nor changes their rows
        rows = []
        for flag in (["--sieve-ceiling", "1e3"], []):
            rc, out, _ = run(capsys, "--format", "csv", *flag, *argv)
            assert rc == 0
            rows.append([{c: v for c, v in row.items() if c != "manifest_id"}
                         for row in parse_csv(out)])
        assert rows[0] == rows[1] and rows[0]

    def test_ceiling_in_manifest(self, capsys):
        for ceiling, want in ((None, cli.DEFAULT_SIEVE_CEILING),
                              ("1e6", 10 ** 6)):
            flag = ["--sieve-ceiling", ceiling] if ceiling else []
            rc, out, _ = run(capsys, "--format", "json", *flag,
                             "cstar", "--x", "1e3", "--k", "2")
            assert rc == 0
            params = json.loads(out)["manifest"]["parameters"]
            assert params["sieve_ceiling"] == want

    def test_bad_ceiling_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["--sieve-ceiling", "12.5", "count", "--x", "100",
                      "--k", "2"])
        assert e.value.code == cli.EXIT_USAGE
        assert "--sieve-ceiling" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["explicit", "--x", "1e12"],
        ["interval", "--x", "1e12", "--h", "1e12", "--k", "2"],
    ])
    def test_default_ceiling(self, capsys, argv, monkeypatch):
        # refused before any prime table is sieved
        monkeypatch.setattr(cli.arith, "sieve_primes", None)
        rc, _, err = run(capsys, *argv)
        assert rc == cli.EXIT_CAPACITY
        assert f"sieve ceiling {cli.DEFAULT_SIEVE_CEILING}" in err

    def test_ladders_reach_the_lucy_bound(self, capsys, monkeypatch):
        # count, sweep and cstar sieve only to sqrt(x): at the default
        # ceiling they reach x = LUCY_ROOT_LIMIT^2, about 10^14; the
        # ladders are stubbed, so only the base to 10^7 is sieved
        top = cli.arith.LUCY_ROOT_LIMIT ** 2
        seen = []

        def fake_ladder(x, k, base):
            seen.append(x)
            return 0

        monkeypatch.setattr(cli.counting, "count_exact", fake_ladder)
        monkeypatch.setattr(cli.counting, "cstar", fake_ladder)
        for argv in (["count", "--x", str(top), "--k", "2"],
                     ["cstar", "--x", str(top), "--k", "2"],
                     ["sweep", "--k", "2", "--x-min", "1e6", "--x-max",
                      str(top), "--points", "2"]):
            rc, out, _ = run(capsys, "--format", "json", *argv)
            assert rc == 0, argv
            assert json.loads(out)["rows"][-1]["x"] == top, argv
        assert seen == [top, top, 10 ** 6, top]

    def test_lucy_bound(self, capsys, monkeypatch):
        # past the Lucy recurrence's bound: refused before the base
        # table to sqrt(x) is sieved
        monkeypatch.setattr(cli.arith, "sieve_primes", None)
        r = cli.arith.LUCY_ROOT_LIMIT + 1
        for argv in (["count", "--x", str(r * r), "--k", "2"],
                     ["cstar", "--x", str(r * r), "--k", "2"],
                     ["sweep", "--k", "2", "--x-min", "1e6", "--x-max",
                      "2e14", "--points", "3"]):
            rc, out, err = run(capsys, *argv)
            assert rc == cli.EXIT_CAPACITY, argv
            assert out == "" and "needs the Lucy recurrence" in err, argv
            assert str(cli.arith.LUCY_ROOT_LIMIT) in err, argv

    def test_sweep_past_int64(self, capsys, monkeypatch):
        # x_max = 10^19 passes 2^63: refused before the grid's int64 cast
        monkeypatch.setattr(cli.arith, "sieve_primes", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "sweep", "--k", "2", "--x-min", "1",
                               "--x-max", "1e19", "--points", "3")
        assert rc == cli.EXIT_CAPACITY
        assert out == "" and "needs the Lucy recurrence" in err

    @pytest.mark.parametrize("name", ["missing.txt", "a-directory"])
    def test_unreadable_zeros_is_io_error(self, capsys, monkeypatch,
                                          tmp_path, name):
        monkeypatch.setattr(cli.arith, "sieve_primes", None)
        (tmp_path / "a-directory").mkdir()
        rc, out, err = run(capsys, "zeros-stats",
                           "--zeros", str(tmp_path / name))
        assert rc == cli.EXIT_IO
        assert out == "" and name in err

    @pytest.mark.parametrize("argv, code, text", [
        (["interval", "--x", "1e9", "--h", "1e3", "--k", "2",
          "--with-zeros"], cli.EXIT_VALIDATION, "ordinates up to"),
        (["interval", "--x", "1e10", "--h", "1", "--k", "2",
          "--with-zeros"], cli.EXIT_USAGE, "2 <= delta <= h <= x"),
        (["interval", "--x", "50", "--h", "100", "--k", "2",
          "--with-zeros"], cli.EXIT_USAGE, "2 <= delta <= h <= x"),
        (["count", "--x", "3e8", "--k", "2", "--method", "both"],
         cli.EXIT_CAPACITY, "oracle route capped"),
        (["interval", "--x", "1e6", "--h", "1e4", "--k", "2", "--limit", "0",
          "--zeros", "/nonexistent"], cli.EXIT_USAGE, "need --with-zeros"),
        (["interval", "--x", "1e6", "--h", "1e4", "--k", "2", "--limit",
          "5"], cli.EXIT_USAGE, "need --with-zeros"),
    ])
    def test_refused_before_sieving(self, capsys, monkeypatch, argv, code,
                                    text):
        monkeypatch.setattr(cli.arith, "sieve_primes", None)
        rc, out, err = run(capsys, *argv)
        assert rc == code
        assert out == "" and text in err

    def test_zeros_path(self, capsys, tmp_path, zeros100):
        zp = tmp_path / "z.txt"
        zp.write_text("\n".join(f"{g:.9f}" for g in zeros100.ordinates))
        rc, out, _ = run(capsys, "--format", "json", "zeros-stats",
                         "--zeros", str(zp), "--T", "50", "100")
        assert rc == 0
        payload = json.loads(out)
        assert payload["manifest"]["zero_table_source"] == str(zp)
        assert [r["N"] for r in payload["rows"]] == [10, 29]

    @pytest.mark.parametrize("argv", [["zeros-stats"],
                                      ["explicit", "--x", "1e4"]])
    def test_non_utf8_zeros_is_validation_error(self, capsys, monkeypatch,
                                                tmp_path, argv):
        monkeypatch.setattr(cli.arith, "sieve_primes", None)
        zp = tmp_path / "latin1.txt"
        zp.write_bytes(b"# z\xe9ros\n14.134725142\n")
        rc, out, err = run(capsys, *argv, "--zeros", str(zp))
        assert rc == cli.EXIT_VALIDATION
        assert out == "" and f"{zp}:1: not UTF-8" in err


class TestSweep:
    def test_csv_rows(self, capsys, base_1e4):
        rc, out, _ = run(capsys, "--format", "csv", "sweep", "--k", "2",
                         "--x-min", "100", "--x-max", "1e4", "--points", "6")
        assert rc == 0
        assert out.splitlines()[0] == ("x,k,count,main_term,leading_term,"
                                       "error,normalized_error,A,"
                                       "manifest_id")
        rows = parse_csv(out)
        assert len(rows) == 6
        xs = [int(r["x"]) for r in rows]
        assert xs == sorted(xs) and xs[0] == 100 and xs[-1] == 10 ** 4
        for r in rows:
            want = counting.count_exact(int(r["x"]), 2, base_1e4)
            assert int(r["count"]) == want
        assert len({r["manifest_id"] for r in rows}) == 1

    def test_large_k_reported_as_given(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "sweep", "--k", "99",
                         "--x-min", "100", "--x-max", "1000", "--points", "3")
        assert rc == 0
        payload = json.loads(out)
        assert [r["k"] for r in payload["rows"]] == [99] * 3
        assert payload["manifest"]["parameters"]["points"] == 3

    def test_too_few_points(self, capsys):
        rc, _, _ = run(capsys, "sweep", "--k", "2", "--x-min", "100",
                       "--x-max", "200", "--points", "1")
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("x_max", [74900082078727, (10 ** 7 + 1) ** 2])
    def test_grid_ends_at_x_max(self, x_max):
        # truncating the log-spaced floats gave x_max - 1 here
        grid = cli._sweep_grid(100, x_max, 5).tolist()
        assert grid[0] == 100 and grid[-1] == x_max
        assert grid == sorted(set(grid))

    def test_grid_ends_seeded(self):
        rng = random.Random(2000)
        for _ in range(2000):
            x_min = rng.choice((1, 100, rng.randrange(1, 10 ** 6)))
            x_max = rng.randrange(10 ** 6, 10 ** 14)
            grid = cli._sweep_grid(x_min, x_max, rng.randrange(2, 50))
            assert (grid[0], grid[-1]) == (x_min, x_max)


class TestCstar:
    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "--format", "json",
                         "cstar", "--x", "1000", "--k", "2")
        assert rc == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        base = sieve_primes(1000)
        want = counting.cstar(1000, 2, base)
        assert row["cstar"] == pytest.approx(want, rel=1e-12)
        assert row["prime_power_correction"] > 0
        assert payload["manifest"]["li_convention"]

    def test_ladder_reach(self, capsys):
        # psi comes from the Lucy recurrence, which sieves only the base
        # to sqrt(x), so cstar reaches past the sieve ceiling, as count
        rc, out, _ = run(capsys, "--format", "json", "--sieve-ceiling",
                         "1e6", "cstar", "--x", "1e8", "--k", "2")
        assert rc == 0
        want = counting.cstar(10 ** 8, 2, cli._base_for(10 ** 8))
        assert json.loads(out)["rows"][0]["cstar"] == want

    def test_large_k_reported_as_given(self, capsys):
        rc, out, _ = run(capsys, "--format", "json",
                         "cstar", "--x", "2", "--k", "99")
        assert rc == 0
        assert json.loads(out)["rows"][0]["k"] == 99


class TestExplicit:
    def test_self_consistency(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "explicit",
                         "--x", "1e4")
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert row["rel_gap"] < 1e-3
        assert row["zeros_used"] >= 10 ** 4

    def test_no_relative_gap_below_three(self, capsys):
        # psi_1 = 0 on [2, 3): the output must stay strict JSON
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        rc, out, _ = run(capsys, "--format", "json", "explicit", "--x", "2")
        assert rc == 0
        row = json.loads(out, parse_constant=refuse)["rows"][0]
        assert row["psi1_exact"] == 0.0 and row["rel_gap"] is None

    def test_zero_limit_is_validation_error(self, capsys, monkeypatch):
        # the empty table is refused before any sieving or counting
        calls = []
        monkeypatch.setattr(cli.arith, "lambda_segment",
                            lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(cli.counting, "count_interval",
                            lambda *a, **kw: calls.append(a))
        rc, _, err = run(capsys, "explicit", "--x", "1e4", "--limit", "0")
        assert rc == cli.EXIT_VALIDATION
        assert "empty" in err
        rc, _, err = run(capsys, "interval", "--x", "1e8", "--h", "1e4",
                         "--k", "2", "--with-zeros", "--limit", "0")
        assert rc == cli.EXIT_VALIDATION
        assert "empty" in err
        assert calls == []

    def test_corrupt_table_is_validation_error(self, capsys, tmp_path):
        zp = tmp_path / "bad.txt"
        zp.write_text("14.134725142\nbogus\n")
        rc, _, err = run(capsys, "explicit", "--x", "1e4",
                         "--zeros", str(zp))
        assert rc == cli.EXIT_VALIDATION


class TestVerify:
    def test_failing_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.verify, "run_all", lambda scale: [
            verify.CheckResult("good", True, "held", 1.0),
            verify.CheckResult("bad", False, "broke", 2.0)])
        rc, out, _ = run(capsys, "--format", "json", "verify")
        assert rc == 1
        payload = json.loads(out)
        assert payload["rows"] == [
            {"name": "good", "passed": True, "detail": "held",
             "elapsed_ms": 1.0},
            {"name": "bad", "passed": False, "detail": "broke",
             "elapsed_ms": 2.0}]
        assert payload["manifest"]["command"] == "verify"

    def test_all_passing_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.verify, "run_all", lambda scale: [
            verify.CheckResult("good", True, "held")] * 2)
        rc, out, _ = run(capsys, "--format", "csv", "verify")
        assert rc == 0
        rows = parse_csv(out)
        assert [(r["name"], r["passed"]) for r in rows] == [
            ("good", "True")] * 2


class TestInterval:
    def test_fixed_h(self, capsys, base_1e4):
        rc, out, _ = run(capsys, "--format", "json", "interval",
                         "--x", "1e6", "--k", "2", "--h", "1e4")
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert row["count"] == counting.count_interval(10 ** 6, 10 ** 4, 2,
                                                       base_1e4)
        assert abs(row["rel_deviation"]) < 0.5

    def test_f_scaling(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "interval",
                         "--x", "1e6", "--k", "3", "--f", "4.0")
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert row["f"] == 4.0
        assert row["predicted_scale"] == pytest.approx(0.5)
        assert 2 <= row["delta"] <= row["h"]
        assert (row["h"], row["delta"]) == counting.interval_scaling(
            10 ** 6, 4.0, 3)

    def test_f_scaling_with_zeros(self, capsys):
        # S_Delta reads up to x + h + delta, beyond sqrt(x + h)^2
        argv = ["interval", "--x", "1e8", "--k", "2", "--f", "4",
                "--with-zeros"]
        rc, out, _ = run(capsys, "--format", "json", *argv)
        assert rc == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        for key in ("s_delta_direct", "ratio_low", "ratio_mid",
                    "ratio_high"):
            assert key in row
        # S_Delta from the zeros: 20 360 833.66 against the direct
        # 20 360 834.23, inside the truncation bound of about 250
        assert row["s_delta_gap"] == abs(row["s_delta_via_zeros"]
                                         - row["s_delta_direct"])
        assert row["s_delta_gap"] <= row["s_delta_bound"]
        assert row["s_delta_via_zeros"] == pytest.approx(20360833.661,
                                                         abs=0.01)
        # the manifest records the parsed arguments, not the derived h
        params = payload["manifest"]["parameters"]
        parsed = vars(cli.build_parser().parse_args(argv))
        assert params == {key: v for key, v in parsed.items()
                          if key not in cli.NOT_PARAMETERS}
        assert params["with_zeros"] is True
        assert params["f"] == 4.0 and params["h"] is None

    def test_with_zeros_sums_zeros_once(self, capsys, monkeypatch,
                                        zeros10k):
        calls, real = [], explicit._s_rho_sums

        def counting_sums(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(explicit, "_s_rho_sums", counting_sums)
        rc, out, _ = run(capsys, "--format", "json", "interval", "--x",
                         "1e8", "--f", "4", "--k", "2", "--with-zeros")
        assert rc == 0
        assert len(calls) == 1
        row = json.loads(out)["rows"][0]
        assert row["s_delta_via_zeros"] == pytest.approx(20360833.661,
                                                         abs=0.01)
        # the values the two public zero-sum functions give on their own
        x, h, d = (float(row[key]) for key in ("x", "h", "delta"))
        assert ((row["s_delta_via_zeros"], row["s_delta_bound"])
                == explicit.s_delta_via_zeros(x, h, d, zeros10k))
        bd = explicit.zero_sum_breakdown(x, h, d, zeros10k)
        assert ((row["ratio_low"], row["ratio_mid"], row["ratio_high"],
                 row["zero_sum_remainder_bound"])
                == (*bd.ratios, bd.remainder_bound))

    def test_with_zeros_diagnostics(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "interval",
                         "--x", "1e5", "--k", "2", "--h", "1e3",
                         "--with-zeros")
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert "s_delta_direct" in row
        assert "ratio_low" in row
        assert row["s_delta_gap"] <= row["s_delta_bound"]

    def test_missing_h_and_f(self, capsys):
        rc, _, _ = run(capsys, "interval", "--x", "1e6", "--k", "2")
        assert rc == cli.EXIT_USAGE

    def test_window_below_two_is_usage_error(self, capsys):
        # (1, 2] has a zero main term, so no relative deviation exists
        rc, out, err = run(capsys, "interval", "--x", "1", "--h", "1",
                           "--k", "2")
        assert rc == cli.EXIT_USAGE
        assert out == ""
        assert "t = 2" in err

    def test_expected_is_per_m_main_term(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "interval",
                         "--x", "1e6", "--k", "2", "--h", "1e6")
        assert rc == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["expected"] == interval_main_term(10 ** 6, 10 ** 6, 2)
        assert row["rel_deviation"] == pytest.approx(
            row["count"] / row["expected"] - 1.0)
        assert payload["manifest"]["schema_version"] == "3"


class TestZerosStats:
    def test_clipped_T_not_repeated(self, capsys):
        # the default T list is 100, 1000 and the table's end: with three
        # zeros all three clip to gamma_3
        rc, out, _ = run(capsys, "--format", "json", "zeros-stats",
                         "--limit", "3")
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert [(r["T"], r["N"]) for r in rows] == [(25.01085758, 2)]

    @pytest.mark.parametrize("T", [[], ["--T", "20"]])
    def test_table_below_two_pi_e_refused(self, capsys, T):
        # one zero ends the table at gamma_1 = 14.13 < 2*pi*e = 17.08, so
        # every T clips below the Riemann-von Mangoldt term's domain; the
        # refusal names the table's end, not a T the user never passed
        rc, out, err = run(capsys, "zeros-stats", "--limit", "1", *T)
        assert rc == 2
        assert out == ""
        assert "needs a zero table past 2*pi*e = 17.079468445347132" in err
        assert "ends at 14.134725142" in err

    def test_table_format_default(self, capsys):
        rc, out, _ = run(capsys, "zeros-stats", "--limit", "100")
        assert rc == 0
        assert out.splitlines()[0].startswith("T")


# one small run of every subcommand
EVERY_COMMAND = [
    ["count", "--x", "100", "--k", "2"],
    ["sweep", "--k", "2", "--x-min", "10", "--x-max", "100", "--points", "2"],
    ["cstar", "--x", "100", "--k", "2"],
    ["explicit", "--x", "100", "--limit", "100"],
    ["interval", "--x", "1e4", "--h", "100", "--k", "2"],
    ["zeros-stats", "--limit", "100"],
    ["verify"],
]


class TestEmit:
    def test_every_subcommand_listed(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == {argv[0] for argv in EVERY_COMMAND}

    @pytest.mark.parametrize("argv", EVERY_COMMAND,
                             ids=[argv[0] for argv in EVERY_COMMAND])
    def test_json_document(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli.verify, "run_all", lambda scale: [
            verify.CheckResult("good", True, "held")])

        # every command runs offline: tables come from files
        def no_socket(*args, **kwargs):
            raise AssertionError("a command opened a socket")

        monkeypatch.setattr(socket, "socket", no_socket)
        rc, out, _ = run(capsys, "--format", "json", *argv)
        assert rc == 0
        payload = json.loads(out)
        assert set(payload) == {"manifest", "rows"}
        assert payload["rows"]
        assert payload["manifest"]["command"] == argv[0]

    def test_stdout_only_through_emit(self):
        # every print goes to stderr, and only _emit names sys.stdout
        tree = ast.parse(Path(cli.__file__).read_text())
        writers = set()
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and node.attr == "stdout"
                        or isinstance(node, ast.Call)
                        and getattr(node.func, "id", "") == "print"
                        and "file=sys.stderr" not in ast.unparse(node)):
                    writers.add(fn.name)
        assert writers == {"_emit"}

    @pytest.mark.parametrize("argv", [
        ["count", "--x", "100", "--k", "2", "--method", "both"],
        ["zeros-stats", "--limit", "100"],
    ], ids=["count", "zeros-stats"])
    def test_table_lines_end_without_spaces(self, capsys, argv):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) >= 2
        assert [line for line in lines if line != line.rstrip()] == []

    @pytest.mark.parametrize("argv", [
        # more rows than stdout buffers, so the writes meet the closed
        # pipe inside _emit; and a single row, met at its final flush
        ["--format", "csv", "sweep", "--k", "2", "--x-min", "1e3",
         "--x-max", "1e6", "--points", "1000"],
        ["--format", "json", "count", "--x", "1e4", "--k", "2"],
    ], ids=["csv-sweep", "json-count"])
    def test_closed_pipe_exits_cleanly(self, argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ppcount.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        # the reader is gone before the child writes its first byte
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
        assert err == ""


class TestEntryPoint:
    def test_console_script_registered(self):
        # the repo's own packaging declares the script, whether or not a
        # ppcount distribution is installed
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts["ppcount"] == "ppcount.cli:main"
        module, _, attr = scripts["ppcount"].partition(":")
        assert getattr(importlib.import_module(module), attr) is cli.main
        # an installed distribution must carry the same entry point
        try:
            dist = metadata.distribution("ppcount")
        except metadata.PackageNotFoundError:
            return
        installed = [e.value for e in dist.entry_points
                     if e.group == "console_scripts" and e.name == "ppcount"]
        assert installed == [scripts["ppcount"]]
