"""Timed passes over a workload's items, untraced and traced."""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_spec():
    """The per-layer metrics of the traced run, as BENCHMARK.json lists them.

    Each name is "<tracer stat name>.<field>", except ``trace.overhead_frac``.
    """
    with open(SPEC_FILE) as f:
        return json.load(f)["per_layer"]


class PassResult:
    """Timings and outcomes of one pass over a workload's items."""

    def __init__(self):
        self.setup_s = 0.0
        self.verify_s = 0.0
        self.failed = []
        self.texts = {}


def run_pass(items, tracer=None):
    """Run every item once, timing set-up and verification separately."""
    res = PassResult()
    clock = time.perf_counter
    for item in items:
        gc.collect()
        span = tracer.span("item:" + item.name) if tracer else contextlib.nullcontext()
        try:
            with span:
                t0 = clock()
                state = item.setup()
                t1 = clock()
                reports, extras = item.verify(state)
                t2 = clock()
                text = workloads.render(reports, extras)
        except Exception:  # an item that raises is a failed item; go on
            traceback.print_exc()
            res.failed.append(item.name)
            continue
        res.setup_s += t1 - t0
        res.verify_s += t2 - t1
        res.texts[item.name] = text
        ok = all(r.ok for r in reports)
        if not ok or workloads.digest(text) != item.expected:
            print("item %s failed: %s" % (
                item.name, "report not ok" if not ok else "digest mismatch"),
                file=sys.stderr)
            res.failed.append(item.name)
    return res


# Set-up is about 2% of a pass, too short to be steady from one sample per
# pass, so every pass is followed by this many more timed set-up rounds.
SETUP_ROUNDS = 4


def time_setup(items):
    """Wall time of one more round of the items' set-up, results dropped."""
    total = 0.0
    for item in items:
        gc.collect()
        t0 = time.perf_counter()
        state = item.setup()
        total += time.perf_counter() - t0
        del state
    return total


def measure(items, seconds):
    """Closed-loop passes until the next one would overrun ``seconds``.

    Returns the passes and the set-up samples: each pass's own set-up time
    and SETUP_ROUNDS more after it.
    """
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        p = run_pass(items)
        passes.append(p)
        setups.append(p.setup_s)
        if not p.failed:
            setups.extend(time_setup(items) for _ in range(SETUP_ROUNDS))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes, setups


def end_to_end(items, seconds):
    """(attempted, failed, metrics) of the untraced run.

    ``verify_s`` is the verification time per pass over the whole run, so
    every pass weighs in; ``setup_s`` is the median of the set-up samples.
    """
    passes, setups = measure(items, seconds)
    for k, p in enumerate(passes):
        print("pass %d: setup_s %.4f verify_s %.4f failed %d"
              % (k, p.setup_s, p.verify_s, len(p.failed)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "verify_s": {"value": statistics.fmean(p.verify_s for p in passes),
                     "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    failed = sum(len(p.failed) for p in passes)
    return len(items) * len(passes), failed, metrics


def traced_pass(items):
    """One untraced pass, then one traced pass: (untraced, traced, tracer)."""
    base = run_pass(items)
    with Tracer() as tracer:
        traced = run_pass(items, tracer)
    return base, traced, tracer


def per_layer(items, trace_file):
    """(attempted, failed, metrics) of the traced run; writes the trace."""
    base, traced, tracer = traced_pass(items)
    changed = [name for name, text in traced.texts.items()
               if name in base.texts and base.texts[name] != text]
    for name in changed:
        print("item %s: traced output differs from untraced" % name,
              file=sys.stderr)
    # with every item failed there is no verification time to compare
    overhead = traced.verify_s / base.verify_s - 1.0 if base.verify_s else 0.0
    print("untraced verify_s %.4f, traced verify_s %.4f"
          % (base.verify_s, traced.verify_s))
    metrics = {}
    for m in per_layer_spec():
        name = m["name"]
        value = overhead if name == "trace.overhead_frac" else tracer.value(name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    trace_file.parent.mkdir(exist_ok=True)
    with open(trace_file, "w") as f:
        json.dump({"spans": tracer.spans, "metrics": metrics}, f, indent=1)
    failed = len(base.failed) + len(traced.failed) + len(changed)
    return 2 * len(items), failed, metrics
