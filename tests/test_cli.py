import csv
import functools
import http.server
import importlib
import io
import json
import os
import sys
import threading
from importlib import metadata
from pathlib import Path

import pytest

from ppcount import cli, counting, zeros
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
        ["--threads", "2", "count", "--x", "100", "--k", "2"],
    ])
    def test_bad_argument_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == cli.EXIT_USAGE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("x_min, x_max", [("0", "100"), ("500", "100")])
    def test_bad_sweep_range_is_usage_error(self, capsys, tmp_path,
                                            x_min, x_max):
        out_path = tmp_path / "s.csv"
        rc, out, err = run(capsys, "sweep", "--k", "2", "--x-min", x_min,
                           "--x-max", x_max, "--output", str(out_path))
        assert rc == cli.EXIT_USAGE
        assert out == "" and "x_min <= x_max" in err
        assert not out_path.exists()

    def test_too_many_sweep_points_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        rc, out, err = run(capsys, "sweep", "--k", "2", "--x-min", "1",
                           "--x-max", "100", "--points", "1e20",
                           "--output", str(out_path))
        assert rc == cli.EXIT_USAGE
        assert out == "" and "points" in err
        assert not out_path.exists()
        assert not (tmp_path / "s.csv.manifest.json").exists()

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
    @pytest.mark.parametrize("text, needle", [
        ("sieve_ceiling = abc\n", "sieve_ceiling"),
        ("sieve_ceiling = 12.5\n", "sieve_ceiling"),
        ("threads = 4\n", "threads"),
        ("segment_size = 65536\n", "segment_size"),
        ("sieve_ceiling 1000\n", "bad line"),
    ])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, text, needle):
        cfg = tmp_path / "ppc.cfg"
        cfg.write_text(text)
        rc, out, err = run(capsys, "--config", str(cfg),
                           "count", "--x", "100", "--k", "2")
        assert rc == cli.EXIT_USAGE
        assert out == ""
        assert needle in err

    def test_capacity_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "ppc.cfg"
        cfg.write_text("# limits\nsieve_ceiling = 1e3\n")
        out_csv = tmp_path / "s.csv"
        for argv in (["count", "--x", "1e6", "--k", "2"],
                     ["sweep", "--k", "2", "--x-min", "10", "--x-max", "1e6",
                      "--output", str(out_csv)],
                     ["cstar", "--x", "1e6", "--k", "2"],
                     ["explicit", "--x", "1e6"],
                     ["interval", "--x", "1e6", "--h", "1e4", "--k", "2"]):
            rc, out, err = run(capsys, "--config", str(cfg), *argv)
            assert rc == cli.EXIT_CAPACITY, argv
            assert out == "" and "ceiling" in err, argv
        assert not out_csv.exists()

    @pytest.mark.parametrize("argv", [
        ["cstar", "--x", "1e13", "--k", "2"],
        ["explicit", "--x", "1e12"],
        ["interval", "--x", "1e12", "--h", "1e12", "--k", "2"],
    ])
    def test_default_ceiling(self, capsys, argv, monkeypatch):
        # refused before any prime table is sieved
        monkeypatch.setattr(cli.arith, "sieve_primes", None)
        rc, _, err = run(capsys, *argv)
        assert rc == cli.EXIT_CAPACITY
        assert f"sieve ceiling {cli.DEFAULT_SIEVE_CEILING}" in err

    def test_config_zeros_path(self, capsys, tmp_path, zeros100):
        zp = tmp_path / "z.txt"
        zp.write_text("\n".join(f"{g:.9f}" for g in zeros100.ordinates))
        cfg = tmp_path / "ppc.cfg"
        cfg.write_text(f"zeros_path = {zp}\n")
        rc, out, _ = run(capsys, "--format", "json", "--config", str(cfg),
                         "zeros-stats", "--T", "100")
        assert rc == 0
        payload = json.loads(out)
        assert payload["manifest"]["zero_table_source"] == str(zp)
        assert payload["rows"][0]["N"] == 29


class TestSweep:
    def test_csv_and_manifest_sidecar(self, capsys, tmp_path, base_1e4):
        out_path = tmp_path / "sweep.csv"
        rc, out, _ = run(capsys, "sweep", "--k", "2", "--x-min", "100",
                         "--x-max", "1e4", "--points", "6",
                         "--output", str(out_path))
        assert rc == 0
        with open(out_path) as f:
            text = f.read()
        assert text.splitlines()[0] == "x,k,count,main_term,error,normalized_error"
        rows = parse_csv(text)
        assert len(rows) == 6
        xs = [int(r["x"]) for r in rows]
        assert xs == sorted(xs) and xs[0] == 100 and xs[-1] == 10 ** 4
        for r in rows:
            want = counting.count_exact(int(r["x"]), 2, base_1e4).count
            assert int(r["count"]) == want
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json")
                              .read_text())
        assert manifest["command"] == "sweep"
        assert manifest["parameters"]["points"] == 6
        assert manifest["manifest_id"] in out

    def test_unwritable_output(self, capsys, tmp_path):
        rc, _, err = run(capsys, "sweep", "--k", "2", "--x-min", "100",
                         "--x-max", "200", "--points", "2",
                         "--output", str(tmp_path / "no-dir" / "o.csv"))
        assert rc == cli.EXIT_IO
        assert "error" in err

    def test_too_few_points(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "sweep", "--k", "2", "--x-min", "100",
                       "--x-max", "200", "--points", "1",
                       "--output", str(tmp_path / "o.csv"))
        assert rc == cli.EXIT_USAGE


class TestCstar:
    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "--format", "json",
                         "cstar", "--x", "1000", "--k", "2")
        assert rc == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        base = sieve_primes(1000)
        want = counting.cstar(1000, 2, base)
        assert row["cstar"] == pytest.approx(want.value, rel=1e-12)
        assert row["prime_power_correction"] > 0
        assert payload["manifest"]["li_convention"]


class TestExplicit:
    def test_self_consistency(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "explicit",
                         "--x", "1e4")
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert row["rel_gap"] < 1e-3
        assert row["zeros_used"] >= 10 ** 4

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
        rc, out, _ = run(capsys, "--format", "json", "interval",
                         "--x", "1e8", "--k", "2", "--f", "4",
                         "--with-zeros")
        assert rc == 0
        row = json.loads(out)["rows"][0]
        for key in ("s_delta_direct", "ratio_low", "ratio_mid",
                    "ratio_high"):
            assert key in row

    def test_with_zeros_diagnostics(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "interval",
                         "--x", "1e5", "--k", "2", "--h", "1e3",
                         "--with-zeros")
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert "s_delta_direct" in row
        assert "ratio_low" in row

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
        assert payload["manifest"]["schema_version"] == "2"


class TestZerosStats:
    def test_env_var_source(self, capsys, tmp_path, monkeypatch, zeros100):
        zp = tmp_path / "env.txt"
        zp.write_text("\n".join(f"{g:.9f}" for g in zeros100.ordinates))
        monkeypatch.setenv(cli.ZEROS_ENV_VAR, str(zp))
        rc, out, _ = run(capsys, "--format", "json", "zeros-stats",
                         "--T", "50", "100")
        assert rc == 0
        payload = json.loads(out)
        assert payload["manifest"]["zero_table_source"] == str(zp)
        assert [r["N"] for r in payload["rows"]] == [10, 29]

    def test_table_format_default(self, capsys):
        rc, out, _ = run(capsys, "zeros-stats", "--limit", "100")
        assert rc == 0
        assert out.splitlines()[0].startswith("T")


@pytest.fixture()
def zero_server(tmp_path, zeros100):
    good = "\n".join(f"{g:.9f}" for g in zeros100.ordinates) + "\n"
    (tmp_path / "good.txt").write_text(good)
    (tmp_path / "bad.txt").write_text("21.02\n14.13\n")
    (tmp_path / "blank.txt").write_text("# no ordinates\n")
    handler = functools.partial(http.server.SimpleHTTPRequestHandler,
                                directory=str(tmp_path))
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=srv.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()


class TestFetchZeros:
    def test_fetch_and_validate(self, capsys, tmp_path, zero_server):
        out_path = tmp_path / "fetched.txt"
        rc, out, _ = run(capsys, "fetch-zeros",
                         "--url", zero_server + "/good.txt",
                         "--output", str(out_path), "--limit", "50")
        assert rc == 0
        table = zeros.load_zeros(out_path)
        assert len(table) == 50

    def test_corrupt_download_rejected(self, capsys, tmp_path, zero_server):
        out_path = tmp_path / "fetched.txt"
        rc, _, err = run(capsys, "fetch-zeros",
                         "--url", zero_server + "/bad.txt",
                         "--output", str(out_path))
        assert rc == cli.EXIT_VALIDATION
        assert not out_path.exists()

    def test_empty_download_rejected(self, capsys, tmp_path, zero_server):
        out_path = tmp_path / "fetched.txt"
        rc, _, err = run(capsys, "fetch-zeros",
                         "--url", zero_server + "/blank.txt",
                         "--output", str(out_path))
        assert rc == cli.EXIT_VALIDATION
        assert "is empty" in err
        assert not out_path.exists()

    def test_fetch_without_requests(self, capsys, tmp_path, zero_server,
                                    monkeypatch):
        # the standard library alone fetches; requests is not a dependency
        monkeypatch.setitem(sys.modules, "requests", None)
        out_path = tmp_path / "fetched.txt"
        rc, _, _ = run(capsys, "fetch-zeros",
                       "--url", zero_server + "/good.txt",
                       "--output", str(out_path))
        assert rc == 0
        assert len(zeros.load_zeros(out_path)) == 100

    def test_missing_file_is_network_error(self, capsys, tmp_path,
                                           zero_server):
        rc, _, err = run(capsys, "fetch-zeros",
                         "--url", zero_server + "/absent.txt",
                         "--output", str(tmp_path / "o.txt"))
        assert rc == cli.EXIT_NETWORK
        assert "404" in err

    @pytest.mark.parametrize("url", ["notaurl", "file:///etc/hostname"])
    def test_non_http_url_is_network_error(self, capsys, tmp_path, url):
        rc, _, err = run(capsys, "fetch-zeros", "--url", url,
                         "--output", str(tmp_path / "o.txt"))
        assert rc == cli.EXIT_NETWORK
        assert "http" in err
        assert not (tmp_path / "o.txt").exists()

    def test_unreachable_host(self, capsys, tmp_path):
        rc, _, err = run(capsys, "fetch-zeros",
                         "--url", "http://127.0.0.1:1/zeros.txt",
                         "--output", str(tmp_path / "o.txt"))
        assert rc == cli.EXIT_NETWORK


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
