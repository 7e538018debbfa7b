"""Print one sha256 over monograd's answers on a fixed set of inputs.

Run it at two commits and compare the hashes: equal hashes mean
byte-identical exit codes, stdout and stderr.  The inputs are

- the queries of the benchmark's homology workload for seeds 0-5, each
  answered by `betti --json`, by `reg --json` and by `reg --engine
  hochster --json` (which walks the lcm lattice even where a
  linear-quotients certificate would answer), and those on at most
  `KOSZUL_MAX_N` = 5 variables also by `betti --engine koszul --json`
  (the queries are built by `perfbench/workloads.py`, which this script
  imports without changing anything under `perfbench/`);
- `verify <id> --seed 0 --json` for every verify suite;
- `verify thm6.1 --seed 0 --json` with `--param n_max=1` to `4`, with
  `--param k=1` and with `--param k=3` (past the lq-generators cap, exit
  2), and `verify thm6.1 --seed 0` as text.

A second hash covers every other command, each in text and in JSON, on
the fixed ideals and graphs of `IDEALS` and `GRAPHS` below: `stats` with
and without `--no-minimalize`, `grad --order 2`, `check` with every
property, `family thm22/thm23`, `graph edge/cedge` (an edgeless graph
among the inputs) and `kk rep/shadow/closed`, and three exit-2 paths: an
unknown verify id, a missing file and a malformed `MONOGRAD_CAPS`.

Each command enters its hash with a label naming it, its seed and query
(not the temporary file path), its exit code, stdout and stderr.  The
first line printed is the hash of the Betti, regularity and verify
answers, the second that of the other commands.

    python tools/same_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(6)
IDEALS = {
    "4-cycle": {"n": 4, "gens": ["x1*x2", "x2*x3", "x3*x4", "x1*x4"]},
    "redundant": {"n": 3, "gens": [[2, 0, 0], [1, 1, 0], [2, 1, 0],
                                   [0, 0, 3], [1, 1, 1], [1, 1, 0]]},
    "stable": {"n": 3, "gens": ["x1^2", "x1*x2", "x2^2", "x1*x3"]},
    "mixed": {"n": 4, "gens": ["x1^3*x2", "x2^2*x3", "x3*x4^2", "x1*x4"]},
    "complete-intersection": {"n": 3, "gens": ["x1^2", "x2^3", "x3"]},
    "windows": {"n": 6, "gens": ["x1*x2*x3", "x2*x3*x4", "x3*x4*x5",
                                 "x4*x5*x6"]},
    "unit": {"n": 2, "gens": ["1"]},
    "zero": {"n": 2, "gens": []},
}
GRAPHS = {
    "5-cycle": {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]]},
    "paw": {"n": 4, "edges": [[1, 2], [2, 3], [1, 3], [3, 4]]},
    "co-chordal": {"n": 7, "edges": [
        [int(e[0]), int(e[1])] for e in "12 13 15 17 23 24 25 26 27 34 35 "
        "36 37 46 56 67".split()]},
    "edgeless": {"n": 3, "edges": []},  # exit 0 with a one-line warning
}
CHECKS = ("linear-resolution", "differential-linear-resolution",
          "linear-quotients", "vertex-splittable", "polymatroidal",
          "componentwise-polymatroidal", "stable", "strongly-stable",
          "complete-intersection")


def _workloads():
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv):
    """(exit code, stdout, stderr) of `monograd <argv>`, run in-process."""
    from monograd.cli import run_cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def outputs():
    """(label, exit code, stdout, stderr) of every command, in a fixed
    order."""
    workloads = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            queries = workloads.Homology(seed, Path(tmp) / f"seed{seed}")
            for i, path in enumerate(queries.paths):
                for command in ("betti", "reg"):
                    yield (f"{command} seed={seed} query={i}",
                           *_run([command, path, "--json"]))
                yield (f"reg hochster seed={seed} query={i}",
                       *_run(["reg", path, "--engine", "hochster", "--json"]))
                if queries.queries[i][0] <= workloads.KOSZUL_MAX_N:
                    yield (f"betti koszul seed={seed} query={i}",
                           *_run(["betti", path, "--engine", "koszul",
                                  "--json"]))
    from monograd.verify import VERIFY_IDS

    for vid in VERIFY_IDS:
        yield (f"verify {vid} seed=0",
               *_run(["verify", vid, "--seed", "0", "--json"]))
    for param in [f"n_max={n}" for n in range(1, 5)] + ["k=1", "k=3"]:
        yield (f"verify thm6.1 {param} seed=0",
               *_run(["verify", "thm6.1", "--param", param, "--seed", "0",
                      "--json"]))
    yield ("verify thm6.1 seed=0 text",
           *_run(["verify", "thm6.1", "--seed", "0"]))


def _commands(tmp):
    """(label, argv) of every command the second hash covers."""
    for name, doc in IDEALS.items():
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(doc))
        yield f"stats {name}", ["stats", str(path)]
        yield f"stats raw {name}", ["stats", str(path), "--no-minimalize"]
        yield f"grad 2 {name}", ["grad", str(path), "--order", "2"]
        for prop in CHECKS:
            yield f"check {prop} {name}", ["check", prop, str(path)]
    for name, doc in GRAPHS.items():
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(doc))
        for kind in ("edge", "cedge"):
            yield f"graph {kind} {name}", ["graph", kind, str(path)]
    for a in (-1, 0, 1, 3):
        yield f"family thm22 {a}", ["family", "thm22", "--a", str(a)]
    for d in (2, 3, 5):
        yield f"family thm23 {d}", ["family", "thm23", "--d", str(d)]
    for a, d in ((1, 1), (10, 3), (100, 4), (2**40, 7)):
        for kind in ("rep", "shadow"):
            yield (f"kk {kind} {a} {d}",
                   ["kk", kind, "--a", str(a), "--d", str(d)])
    for n, d in ((3, 2), (6, 3), (10, 4)):
        yield f"kk closed {n} {d}", ["kk", "closed", "--n", str(n),
                                     "--d", str(d)]
    yield "verify unknown id", ["verify", "no-such-id"]
    yield "reg missing file", ["reg", "no/such/ideal.json"]


def cli_outputs():
    """(label, exit code, stdout, stderr) of the commands of the second
    hash, each in text and in JSON, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in _commands(tmp):
            yield (label, *_run(argv))
            yield (f"{label} json", *_run([*argv, "--json"]))
        with mock.patch.dict(os.environ, MONOGRAD_CAPS="no-such-cap=1"):
            yield ("reg malformed caps",
                   *_run(["reg", str(Path(tmp) / "4-cycle.json")]))


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    for produce in (outputs, cli_outputs):
        digest = hashlib.sha256()
        for label, code, out, err in produce():
            digest.update(f"{label}\t{code}\n{out}\n{err}\n".encode())
        print(digest.hexdigest())


if __name__ == "__main__":
    main()
