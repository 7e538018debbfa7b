"""Runs one workload in a fresh interpreter and prints its figures.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--t0 T] [--setup-only]

`--t0` is the parent's `time.perf_counter()` just before it started this
interpreter (CLOCK_MONOTONIC, shared by all processes), so that `setup_s`
runs from interpreter start to the first timed operation.  The last line
of standard output is one JSON object with the raw figures; `run.py`
turns them into the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ops below this count per pass have no tail latency worth reporting
TAIL_MIN_OPS = 100
TAIL_BEYOND = 10


def run_pass(wl, tracer=None, op_base=0):
    state, times, results = {}, [], []
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = op_base + i
        t = time.perf_counter()
        try:
            result = op(state)
        except Exception as exc:  # a raising operation counts as failed
            result = exc
        times.append(time.perf_counter() - t)
        results.append(result)
    return time.perf_counter() - start, times, results


def check_pass(wl, results, label):
    """Failed ops of one pass, with a note on the first few."""
    failed, notes = 0, []
    for i, result in enumerate(results):
        try:
            ok = (not isinstance(result, Exception)
                  and wl.check(i, result, results))
        except Exception as exc:
            ok, result = False, exc
        if not ok:
            failed += 1
            if len(notes) < 3:
                notes.append(f"{label} op {i}: {result!r}"[:300])
    return failed, notes


Pass = namedtuple("Pass", "wall times failed notes layers")


def measure(wl, budget, tracer=None, label="pass", first_pass_rss=None):
    """Timed passes while their summed wall time stays within `budget`
    seconds (at least one).  Each pass is checked right after it, outside
    its timing, and its results are then dropped, so memory does not grow
    with the number of passes."""
    passes, spent = [], 0.0
    while True:
        if tracer is not None:
            tracer.reset_counts()
            tracer.install()
        try:
            wall, times, results = run_pass(
                wl, tracer, len(passes) * len(wl.ops))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if first_pass_rss is not None and not passes:
            first_pass_rss.append(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
        layers = tracer.metrics(0.0) if tracer is not None else None
        failed, notes = check_pass(wl, results, f"{label} {len(passes)}")
        del results
        passes.append(Pass(wall, times, failed, notes, layers))
        spent += wall
        if spent + statistics.median(p.wall for p in passes) > budget:
            return passes


def latency_figures(passes):
    """Per-op latency is the median over passes; p50 and tail over ops."""
    n_ops = len(passes[0].times)
    lat = sorted(statistics.median(p.times[i] for p in passes)
                 for i in range(n_ops))
    out = {"op_p50_ms": statistics.median(lat) * 1e3, "op_samples": n_ops}
    if n_ops >= TAIL_MIN_OPS:
        out["op_tail_ms"] = lat[n_ops - TAIL_BEYOND - 1] * 1e3
        out["op_tail_percentile"] = 100.0 * (n_ops - TAIL_BEYOND) / n_ops
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None,
                    help="file for the spans of a traced run")
    args = ap.parse_args(argv)
    t0 = time.perf_counter() if args.t0 is None else args.t0

    src = ROOT / "src"
    if not (src / "monograd" / "__init__.py").is_file():
        print(f"error: no monograd sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import monograd
    if Path(monograd.__file__).resolve().parent != (src / "monograd").resolve():
        print(f"error: imported monograd from {monograd.__file__}",
              file=sys.stderr)
        return 2
    import workloads

    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        doc = {"setup_s": setup_s, "inputs": wl.summary(),
               "ops_per_pass": len(wl.ops)}
        rss = []
        timed = measure(wl, args.seconds / 2 if args.trace else args.seconds,
                        first_pass_rss=rss)
        passes = list(timed)
        if args.trace:
            from tracer import Tracer

            # the untraced passes above give the overhead ratio
            tracer = Tracer()
            traced = measure(wl, args.seconds / 2, tracer, label="traced")
            passes += traced
            layers = {name: statistics.median(p.layers[name] for p in traced)
                      for name in traced[0].layers}
            layers["trace.overhead_ratio"] = (
                statistics.median(p.wall for p in traced)
                / statistics.median(p.wall for p in timed))
            doc["per_layer"] = layers
            doc["traced_pass_walls_s"] = [p.wall for p in traced]
            if args.spans:
                Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
                tracer.write_spans(args.spans)
                doc["spans_file"] = args.spans
        doc["peak_rss_mb"] = rss[0]
        doc["pass_walls_s"] = [p.wall for p in timed]
        doc["wall_s"] = statistics.median(p.wall for p in timed)
        doc.update(latency_figures(timed))
        doc["attempted"] = len(passes) * len(wl.ops)
        doc["failed"] = sum(p.failed for p in passes)
        doc["failure_notes"] = [n for p in passes for n in p.notes][:5]
        print(json.dumps(doc))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
