"""The benchmark's own tests.

    python3 perfbench/selftest.py

Wrong answers injected into a pass raise the failed-operation count (and
so `fail_ratio`); the tracer counts and restores what it wraps; compare
mode flags a regression and an unresolved spread; and the command fails
without printing a result where no program sources are present.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _work_dir():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))


class InjectedFaults(unittest.TestCase):
    """A pass with one wrong answer fails exactly that operation."""

    def run_prefix(self, wl, n_ops):
        wl.ops = wl.ops[:n_ops]
        _, _, results = worker.run_pass(wl)
        failed, _ = worker.check_pass(wl, results, "clean")
        self.assertEqual(failed, 0)
        return results

    def assert_detected(self, wl, results, i, wrong):
        bad = list(results)
        bad[i] = wrong
        failed, notes = worker.check_pass(wl, bad, "injected")
        self.assertGreaterEqual(failed, 1, notes)
        self.assertGreater(failed / len(bad), 0.0)

    def test_homology(self):
        work = _work_dir()
        try:
            wl = workloads.Homology(0, work)
            results = self.run_prefix(wl, 10)
            rc, out = results[0]
            doc = json.loads(out)
            doc["entries"][0][2] += 1
            self.assert_detected(wl, results, 0, (rc, json.dumps(doc)))
            self.assert_detected(wl, results, 1, (2, ""))
            self.assert_detected(wl, results, 2, RuntimeError("raised"))
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_gradient_large(self):
        wl = workloads.GradientLarge(0, None)
        per_state = 1 + workloads.READ_BATCHES
        results = self.run_prefix(wl, per_state * 2)
        self.assert_detected(wl, results, per_state, results[0])
        flipped = list(results[1])
        flipped[0] = not flipped[0]
        self.assert_detected(wl, results, 1, flipped)

    def test_paper_suites(self):
        wl = workloads.PaperSuites(0, None)
        results = self.run_prefix(wl, 2)
        rc, out = results[1]
        doc = json.loads(out)
        doc["pass"] = False
        self.assert_detected(wl, results, 1, (rc, json.dumps(doc)))
        self.assert_detected(wl, results, 1, (1, out))


class TracerBasics(unittest.TestCase):
    def test_counts_and_restores(self):
        import monograd
        from monograd import complexes, resolution

        originals = (complexes.sparse_rank, monograd.betti_table,
                     monograd.MonomialIdeal.__init__)
        work = _work_dir()
        try:
            wl = workloads.Homology(0, work)
            tr = tracer.Tracer()
            tr.install()
            try:
                self.assertIsNot(complexes.sparse_rank, originals[0])
                self.assertIs(complexes.sparse_rank, resolution.sparse_rank)
                for op in wl.ops[:5]:
                    op({})
            finally:
                tr.uninstall()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertEqual((complexes.sparse_rank, monograd.betti_table,
                          monograd.MonomialIdeal.__init__), originals)
        m = tr.metrics(1.0)
        self.assertEqual(set(m), set(tracer.metric_names()))
        self.assertEqual(m["cli.run_cli.calls"], 5)
        self.assertEqual(m["resolution.betti_table.calls"], 5)
        self.assertGreater(m["exact_rank.sparse_rank.calls"], 0)
        self.assertEqual(m["structure.lq.calls"], 0)
        self.assertEqual(m["trace.spans"], len(tr.col_name))
        # self times add up to no more than the root spans' durations
        roots = sum(tr.col_dur[i] for i in range(len(tr.col_name))
                    if tr.col_parent[i] == -1)
        self.assertLessEqual(sum(tr.self_ns.values())
                             - tr.self_ns["exact_rank.large"], roots)

    def test_spec_lists_every_metric(self):
        spec = run.load_spec()
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         tracer.metric_names())


class CompareMode(unittest.TestCase):
    def write_set(self, path, walls):
        runs = [{"workload": "homology", "trace": 0, "setup_s": 1.0,
                 "wall_s": w, "op_p50_ms": 1.0, "peak_rss_mb": 20.0}
                for w in walls]
        path.write_text(json.dumps({"runs": runs}))

    def test_verdicts(self):
        spec = run.load_spec()
        work = _work_dir()
        try:
            a, b, c = work / "a.json", work / "b.json", work / "c.json"
            self.write_set(a, [1.0 + 0.001 * k for k in range(10)])
            self.write_set(b, [2.0 + 0.001 * k for k in range(10)])
            self.write_set(c, [0.5 + 0.4 * k for k in range(10)])
            for other, code, verdict in ((a, 0, "same"), (b, 1, "worse"),
                                         (c, 0, "unresolved")):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    self.assertEqual(run.compare(a, other, spec), code)
                wall = [ln for ln in out.getvalue().splitlines()
                        if " wall_s " in ln]
                self.assertIn(verdict, wall[0])
        finally:
            shutil.rmtree(work, ignore_errors=True)


class BareCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        work = _work_dir()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", work)
            shutil.copytree(HERE, work / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "homology",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=work, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
