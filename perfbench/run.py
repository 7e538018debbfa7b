"""monograd benchmark.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload homology --seed 0 --seconds 20 --trace 0

Every workload at one seed, each metric printed by name with its unit:

    python3 perfbench/run.py --seed 0

Two result sets compared metric by metric (see `--record`):

    python3 perfbench/run.py --compare BENCH_a.json BENCH_b.json

Each workload runs in its own fresh interpreter (`worker.py`).  With
`--trace 0` the last line of standard output is one JSON object with the
end-to-end metrics named in BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics of a traced run instead, whose spans are written to
.perfbench/spans/<workload>-seed<seed>.jsonl.gz.  `setup_s` is the median of
several set-ups, each in a fresh interpreter, from interpreter start to
the first timed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("homology", "gradient-large", "paper-suites")

# set-ups measured per untraced run, each in its own interpreter; the
# measured run's own set-up is one of them
SETUPS_PER_RUN = 5
# a run, with its set-ups, must end within this many seconds
RUN_DEADLINE_S = 170
# end-to-end figures printed and recorded but not gated by BENCHMARK.json:
# paper-suites has 11 operations of very different cost, so its median
# operation changes suite from seed to seed, and its tail is undefined;
# fail_ratio is 0 on a correct program
REPORTED_ONLY = ("op_p50_ms", "op_tail_ms", "fail_ratio")

def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_start": list(os.getloadavg()), "seed": seed}


def git_sha():
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn_worker(args, deadline):
    t0 = time.perf_counter()
    cmd = [sys.executable, str(WORKER), *args, "--t0", repr(t0)]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    """One run of one workload: its raw record with every figure."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    env = environment(seed)
    setups = []
    if not trace:
        for _ in range(SETUPS_PER_RUN - 1):
            setups.append(spawn_worker(
                base + ["--seconds", "0", "--setup-only"], deadline)["setup_s"])
    # relative to the checkout, which is the worker's working directory
    spans = f".perfbench/spans/{name}-seed{seed}.jsonl.gz"
    extra = ["--spans", spans] if trace else []
    doc = spawn_worker(base + ["--seconds", str(seconds), "--trace",
                               str(int(trace))] + extra, deadline)
    setups.append(doc["setup_s"])
    doc["setup_s"] = statistics.median(setups)
    doc["setup_samples_s"] = setups
    doc["fail_ratio"] = doc["failed"] / doc["attempted"]
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "env": env, **doc}


def metrics_of(record, spec):
    section = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    source = record["per_layer"] if record["trace"] else record
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
            for m in section}


def print_report(record, spec):
    w = record["workload"]
    print(f"# {w} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['pass_walls_s'])} "
          f"ops/pass={record['ops_per_pass']}")
    print(f"#   env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"#   inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    for name, m in metrics_of(record, spec).items():
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        print(f"{w} op_p50_ms = {record['op_p50_ms']:.6g} ms "
              f"({record['op_samples']} samples)")
        if "op_tail_ms" in record:
            print(f"{w} op_tail_ms = {record['op_tail_ms']:.6g} ms "
                  f"(p{record['op_tail_percentile']:.2f}, "
                  f"{record['op_samples']} samples)")
        else:
            print(f"{w} op_tail_ms: omitted, {record['op_samples']} ops "
                  "per pass are too few")
        print(f"{w} fail_ratio = {record['fail_ratio']:.6g} ratio "
              f"({record['failed']}/{record['attempted']})")
    for note in record["failure_notes"]:
        print(f"{w} FAILED {note}")


def append_record(path, record):
    path = Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# compare mode

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a, path_b, spec):
    """Per workload and end-to-end metric: each side's quartiles, and
    "worse" beyond the metric's bound, "unresolved" where the run-to-run
    spread of either side is wider than the bound."""
    runs = {}
    for side, path in (("a", path_a), ("b", path_b)):
        for r in json.loads(Path(path).read_text())["runs"]:
            if not r["trace"]:
                runs.setdefault((r["workload"], side), []).append(r)
    worse = 0
    print(f"{'workload':<15} {'metric':<12} {'A q1/median/q3':>28} "
          f"{'B q1/median/q3':>28} {'change':>8}  verdict")
    for w in WORKLOAD_NAMES:
        if (w, "a") not in runs or (w, "b") not in runs:
            continue
        for name in REPORTED_ONLY:
            a = [r[name] for r in runs[w, "a"] if name in r]
            b = [r[name] for r in runs[w, "b"] if name in r]
            if a and b:
                qa, qb = quartiles(a), quartiles(b)
                print(f"{w:<15} {name:<12} {_fmt(qa):>28} {_fmt(qb):>28} "
                      f"{'':>8}  reported only, no bound")
        for m in spec["end_to_end"]:
            a = [r[m["name"]] for r in runs[w, "a"]]
            b = [r[m["name"]] for r in runs[w, "b"]]
            qa, qb = quartiles(a), quartiles(b)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            if spread > m["bound"] and not all(
                    sign * (y - x) < 0 for x in a for y in b):
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
            elif -change > (qa[2] - qa[0]) / qa[1]:
                verdict = "better"
            else:
                verdict = "same"
            worse += verdict == "worse"
            print(f"{w:<15} {m['name']:<12} "
                  f"{_fmt(qa):>28} {_fmt(qb):>28} {change:>+8.1%}  "
                  f"{verdict} (bound {m['bound']:.0%}, spread {spread:.1%}, "
                  f"n={len(a)}/{len(b)})")
    return 1 if worse else 0


def _fmt(q):
    return "/".join(f"{v:.4g}" for v in q)


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="append this run's full record to a result set")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "monograd" / "__init__.py").is_file():
        print(f"error: no monograd sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            record = run_workload(name, args.seed, seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if args.record:
            append_record(args.record, record)
        print_report(record, spec)
    if args.workload != "all":
        print(json.dumps({"correct": record["failed"] == 0,
                          "attempted": record["attempted"],
                          "failed": record["failed"],
                          "metrics": metrics_of(record, spec)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
