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

Each command enters the hash with a label naming it, its seed and query
(not the temporary file path), its exit code, stdout and stderr.

    python tools/same_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(6)


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


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    digest = hashlib.sha256()
    for label, code, out, err in outputs():
        digest.update(f"{label}\t{code}\n{out}\n{err}\n".encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
