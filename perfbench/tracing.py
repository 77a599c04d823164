"""Outside-in span recorder for the ppcount benchmark.

The library carries no tracing of its own, so the traced run wraps the
library's layer functions from here: every module of the ``ppcount``
package that holds a layer function, under any name, gets the wrapper
instead (``explicit.lambda_segment`` and ``counting.s_delta_direct`` are
aliases bound at import time, for example). Each wrapped call records a
span (name, start, end, parent, job id) and work counters computed from
its arguments or result, so the library needs no change. Spans stay in
memory until the run ends.

A layer whose function no longer exists is reported as missing (value
``None``), never as zero, so a renamed private function cannot pass for
a layer that stopped doing work. Counters whose arguments no longer fit
go missing the same way; the traced call itself is never disturbed.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from ppcount import arith, counting


def _segment_work(out, lo, hi, base, *_, **__):
    o0 = lo + 1 if lo % 2 == 0 else lo + 2  # first odd candidate above lo
    visited = int(np.searchsorted(base.primes, math.isqrt(hi), side="right"))
    return {"ints": hi - lo,
            "base_primes_visited": max(0, visited - 1),
            # one bool per odd candidate; computed, not measured
            "mask_bytes": max(0, (hi - o0) // 2 + 1)}


def _thresholds(out, thresholds, *_, **__):
    return {"thresholds": len(thresholds)}


def _window_kind(out, lo, hi, base, *_, **__):
    # mirrors the branch order of arith.prime_count_interval
    if hi <= base.limit:
        kind = "windows_table"
    elif hi - lo <= arith.MR_WINDOW:
        kind = "windows_mr"
    else:
        kind = "windows_sieve"
    return {kind: 1}


def _entries(out, *_, **__):
    return {"entries": len(out.n)}


def _m_values(out, x, h, k, *_, **__):
    return {"m_values": arith.iroot(x + h, min(k, counting.K_CAP))}


def _terms(out, *_, **__):
    return {"terms": sum(len(a) for a in out)}


def _zeros_used(out, gammas, *_, **__):
    return {"zeros_used": len(gammas)}


def _ordinates(out, *_, **__):
    return {"ordinates": len(out)}


@dataclass(frozen=True)
class Layer:
    metric: str           # metric prefix, "<module>.<layer>"
    module: str           # ppcount submodule that defines the function
    attr: str             # the function's name there
    counters: tuple = ()  # counter names the work function returns
    work: object = None   # (result, *args, **kwargs) -> {counter: n}


LAYERS = (
    Layer("arith.sieve_primes", "arith", "sieve_primes"),
    Layer("arith.segment_sieve", "arith", "_segment_primes",
          ("ints", "base_primes_visited", "mask_bytes"), _segment_work),
    Layer("arith.prime_counts_at", "arith", "prime_counts_at",
          ("thresholds",), _thresholds),
    Layer("arith.prime_count_interval", "arith", "prime_count_interval",
          ("windows_table", "windows_mr", "windows_sieve"), _window_kind),
    Layer("arith.is_prime", "arith", "is_prime"),
    Layer("arith.lambda_segment", "arith", "lambda_segment",
          ("entries",), _entries),
    Layer("arith.weighted_lambda_sums_at", "arith",
          "weighted_lambda_sums_at"),
    Layer("counting.count_exact", "counting", "count_exact"),
    Layer("counting.count_oracle", "counting", "count_oracle"),
    Layer("counting.count_interval", "counting", "count_interval",
          ("m_values",), _m_values),
    Layer("counting.cstar", "counting", "cstar"),
    Layer("counting.prime_power_correction", "counting",
          "prime_power_correction"),
    Layer("explicit.psi1_terms", "explicit", "_psi1_term_arrays",
          ("terms",), _terms),
    Layer("explicit.psi1_exact", "explicit", "psi1_exact"),
    Layer("explicit.s_delta_via_psi1", "explicit", "s_delta_via_psi1"),
    Layer("explicit.s_delta_direct", "explicit", "s_delta_direct"),
    Layer("explicit.zero_sums", "explicit", "_s_rho_sums",
          ("zeros_used",), _zeros_used),
    Layer("explicit.psi1_via_zeros", "explicit", "psi1_via_zeros"),
    Layer("explicit.s_delta_via_zeros", "explicit", "s_delta_via_zeros"),
    Layer("explicit.zero_sum_breakdown", "explicit", "zero_sum_breakdown"),
    Layer("zeros.builtin_table", "zeros", "builtin_table",
          ("ordinates",), _ordinates),
    Layer("analytic.li", "analytic", "li"),
    Layer("cli.main", "cli", "main"),
)

JOB = "job"  # name of the top-level span around each benchmark job


class Tracer:
    """Records spans of wrapped calls while ``on``; one thread only."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, work]
        self.on = False
        self.missing: set[str] = set()           # layers not found
        self.missing_counters: set[str] = set()  # counters not computable
        self._stack: list[int] = []
        self._job = None

    def install(self) -> None:
        """Wrap every layer function in every ppcount module that holds it."""
        for layer in LAYERS:
            module = sys.modules.get(f"ppcount.{layer.module}")
            fn = getattr(module, layer.attr, None)
            if fn is None:
                self.missing.add(layer.metric)
                continue
            wrapped = self._wrap(layer, fn)
            for name, mod in list(sys.modules.items()):
                if name != "ppcount" and not name.startswith("ppcount."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)

    def _wrap(self, layer: Layer, fn):
        tracer, name, work = self, layer.metric, layer.work

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if work is not None:
                try:
                    span[5] = work(out, *args, **kwargs)
                except Exception:  # the layer's signature changed
                    tracer.missing_counters.add(name)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._job, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def run_job(self, job_id: str, fn):
        """Call ``fn()`` inside a top-level job span."""
        self._job = job_id
        span = self._open(JOB)
        try:
            return fn()
        finally:
            self._close(span)
            self._job = None

    def layer_totals(self, spans: list[list]) -> dict:
        """Per-layer calls, self time and counters summed over ``spans``.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the jobs run on one thread.
        """
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for layer in LAYERS:
            gone = layer.metric in self.missing
            for key in ("calls", "self_s"):
                out[f"{layer.metric}.{key}"] = None if gone else 0
            gone = gone or layer.metric in self.missing_counters
            for key in layer.counters:
                out[f"{layer.metric}.{key}"] = None if gone else 0
        for i, (name, start, end, _, _, work) in enumerate(spans):
            if name == JOB:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]
            if name not in self.missing_counters:
                for key, n in (work or {}).items():
                    out[f"{name}.{key}"] += n
        return out


def job_seconds(spans: list[list]) -> float:
    """Total duration of the top-level job spans."""
    return sum(end - start for name, start, end, *_ in spans if name == JOB)
