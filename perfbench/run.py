"""ppcount benchmark: run one workload, check every job's output, and
print the metrics as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload count-ladder --seed 1 \\
        --seconds 30 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/`` as it stands, nothing is installed. Workloads, jobs and checks
are in ``workloads.py``, the span recorder in ``tracing.py``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall
time of one pass over the workload's jobs, after one untimed warm-up
pass), ``peak_rss_mb`` (this process's peak RSS) and ``setup_s`` (median
cost of a fresh interpreter's set-up, measured in child processes).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the traced spans' coverage and the tracing overhead;
it also writes the last traced pass's spans to ``.perfbench/``.

Failed jobs (non-zero exit, exception or failed check) are counted in
``failed`` with their reasons on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 7


def measure_setup(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(jobs, tracer=None) -> tuple[float, list]:
    """Run every job once; returns (wall seconds, [(result, error)])."""
    results = []
    t0 = time.perf_counter()
    for job in jobs:
        try:
            result = job.run() if tracer is None else tracer.run_job(
                job.name, job.run)
            results.append((result, None))
        except Exception as e:  # a failed job is counted; the run goes on
            results.append((None, f"{type(e).__name__}: {e}"))
    return time.perf_counter() - t0, results


class Outcomes:
    """Attempted and failed jobs over all passes of a run.

    Each distinct output of a job is checked once; later passes that
    reproduce it exactly reuse the verdict.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._verdicts: dict = {}

    def record(self, jobs, results) -> None:
        for job, (result, error) in zip(jobs, results):
            self.attempted += 1
            if error is None:
                key = (job.name, json.dumps(result, sort_keys=True))
                if key not in self._verdicts:
                    try:
                        self._verdicts[key] = job.check(result)
                    except Exception as e:  # a broken output fails its job
                        self._verdicts[key] = (
                            f"check raised {type(e).__name__}: {e}")
                error = self._verdicts[key]
            if error is not None:
                self.failures.append(f"{job.name}: {error}")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".mask_bytes"):
        return "bytes_computed"
    if name.startswith("trace."):
        return "fraction"
    return "count"


def _median_or_none(values):
    if None in values:
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)  # a count stays a whole number
    return statistics.median(values)


def traced_metrics(tracing, tracer, plain, traced, cpu, pass_spans) -> dict:
    totals = [tracer.layer_totals(s) for s in pass_spans]
    out = {key: _median_or_none([t[key] for t in totals])
           for key in totals[0]}
    out["process.cpu_s"] = statistics.median(cpu)
    out["trace.overhead_frac"] = (statistics.median(traced)
                                  / statistics.median(plain) - 1.0)
    out["trace.job_coverage_frac"] = statistics.median(
        tracing.job_seconds(s) / wall for s, wall in zip(pass_spans, traced))
    return out


def probe_known_defects(workloads, workload: str) -> None:
    for name, where, argv, code, text in workloads.KNOWN_DEFECTS:
        if where != workload:
            continue
        r = workloads.run_cli(argv)
        status = ("reproduced" if r["rc"] == code and text in r["stderr"]
                  else "CHANGED (fixed? move the job into the workload)")
        print(f"known-defect {name}: {status}; ppcount {' '.join(argv)} "
              f"-> exit {r['rc']}: {r['stderr']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "ppcount" / "__init__.py").is_file():
        print(f"perfbench: no ppcount sources under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build, setup_code = workloads.WORKLOADS[args.workload]

    setup_s = None if args.trace else measure_setup(setup_code)
    jobs = build(random.Random(args.seed))
    outcomes = Outcomes()
    warm, results = run_pass(jobs)  # untimed warm-up
    outcomes.record(jobs, results)

    if not args.trace:
        walls = []
        for _ in range(max(2, round(args.seconds / warm))):
            wall, results = run_pass(jobs)
            walls.append(wall)
            outcomes.record(jobs, results)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"pass walls (s): warm-up {warm:.3f}, timed "
              + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
        metrics = {"wall_s": statistics.median(walls),
                   "peak_rss_mb": peak_mb, "setup_s": setup_s}
    else:
        tracer = tracing.Tracer()
        tracer.install()
        plain, traced, cpu, pass_spans = [], [], [], []
        for _ in range(max(1, round(args.seconds / (2 * warm)))):
            c0 = time.process_time()
            wall, results = run_pass(jobs)
            cpu.append(time.process_time() - c0)
            plain.append(wall)
            outcomes.record(jobs, results)
            tracer.on = True
            wall, results = run_pass(jobs, tracer)
            tracer.on = False
            traced.append(wall)
            pass_spans.append(tracer.take())
            outcomes.record(jobs, results)
        metrics = traced_metrics(tracing, tracer, plain, traced, cpu,
                                 pass_spans)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                  "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent", "job",
                                  "work"],
                       "spans": pass_spans[-1]}, f)

    probe_known_defects(workloads, args.workload)
    for reason in sorted(set(outcomes.failures)):
        print(f"failed x{outcomes.failures.count(reason)}: {reason}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not outcomes.failures,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
