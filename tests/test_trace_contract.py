"""The benchmark's traced run wraps library functions by name and
computes its work counters from their arguments and results
(perfbench/tracing.py). A layer it cannot find, or a counter that no
longer fits, is reported as null. This guard runs small jobs of every
workload under the tracer and fails when any layer or counter would
read null."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in a child interpreter: Tracer.install rebinds module attributes,
# which must not leak into the other tests.
SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracing, workloads
from ppcount import arith, explicit, zeros

tracer = tracing.Tracer()
tracer.install()
tracer.on = True
jobs = [["count", "--x", "1e4", "--k", "2", "--method", "both"],
        ["interval", "--x", "1e6", "--h", "1e4", "--k", "2"],
        ["explicit", "--x", "1e4"],
        ["cstar", "--x", "1e4", "--k", "2"],
        ["zeros-stats"]]
exits = [workloads.run_cli(argv)["rc"] for argv in jobs]
x, h, d = 1e5, 1e3, 1e2
base = arith.sieve_primes(400)
table = zeros.builtin_table("10k")
explicit.s_delta_direct(x, h, d, base)
explicit.s_delta_via_psi1(x, h, d, base)
explicit.s_delta_via_zeros(x, h, d, table)
explicit.zero_sum_breakdown(x, h, d, table)
print(json.dumps({{"exits": exits, "missing": sorted(tracer.missing),
                  "missing_counters": sorted(tracer.missing_counters)}}))
"""


def test_every_traced_layer_and_counter_is_found():
    code = SCRIPT.format(src=str(ROOT / "src"),
                         perfbench=str(ROOT / "perfbench"))
    r = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert result == {"exits": [0] * 5, "missing": [],
                      "missing_counters": []}
