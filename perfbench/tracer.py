"""Traced run: spans and counters around monograd's public functions.

Tracing lives in the benchmark, not in the program.  `Tracer.install`
replaces each traced function at every `monograd.*` module attribute (and
every module-level dict value) bound to it, found by identity, so that
`from .exact_rank import sparse_rank` inside `complexes` is traced too.
Methods are replaced on their class.  `uninstall` puts the originals back.

Spans are kept in memory as columns (name, start, duration, parent span,
operation id) and written out by `write_spans` when the run ends.  All
timestamps are on a virtual clock that stops while the tracer does its
own bookkeeping and counting, so that work done for the trace is kept out
of the spans it measures.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# sparse_rank calls with at least this many nonzeros form the "large" class
LARGE_NNZ = 256

_ENGINES = {"hochster": "resolution.engine.hochster",
            "hochster+polarization": "resolution.engine.hochster_polarization",
            "koszul": "resolution.engine.koszul"}

# (module, attribute path, span name); a missing target is skipped with a
# warning, so the benchmark keeps running while the program is refactored
TARGETS = [
    ("cli", "run_cli", "cli.run_cli"),
    ("ioformats", "parse_ideal", "ioformats.parse_ideal"),
    ("monomials", "MonomialIdeal.__init__", "monomials.ideal_new"),
    ("monomials", "MonomialIdeal.contains", "monomials.contains"),
    ("monomials", "MonomialIdeal.__add__", "monomials.arith"),
    ("monomials", "MonomialIdeal.__mul__", "monomials.arith"),
    ("monomials", "MonomialIdeal.__pow__", "monomials.arith"),
    ("monomials", "MonomialIdeal.colon_variable", "monomials.arith"),
    ("monomials", "MonomialIdeal.degree_component", "monomials.arith"),
    ("gradient", "gradient", "gradient.gradient"),
    *[("graphs", f, "graphs") for f in (
        "edge_ideal", "complementary_edge_ideal", "is_connected",
        "peel_order", "underlying_graph", "quadratic_decomposition",
        "gradient_power_closed_form", "family_reg_gap",
        "family_overlap_run")],
    *[("kruskal", f, "kruskal") for f in (
        "macaulay_rep", "shadow_bound", "colex_shadow_oracle",
        "many_generators_threshold", "closed_form_count",
        "closed_form_shadow")],
    ("complexes", "SimplicialComplex.faces_by_cardinality",
     "complexes.faces"),
    ("complexes", "SimplicialComplex.boundary_matrix",
     "complexes.boundary_matrix"),
    *[("complexes", f"SimplicialComplex.{f}", "complexes.homology") for f in (
        "reduced_homology_dim", "homology_profile", "top_nonzero_homology")],
    ("exact_rank", "sparse_rank", "exact_rank.sparse_rank"),
    ("exact_rank", "bareiss_rank", "exact_rank.bareiss"),
    ("resolution", "betti_table", "resolution.betti_table"),
    ("resolution", "regularity", "resolution.regularity"),
    ("resolution", "polarize", "resolution.polarize"),
    ("resolution", "koszul_betti", "resolution.koszul"),
    ("structure", "linear_quotients_order", "structure.lq"),
    ("structure", "vertex_split_tree", "structure.vsplit"),
    *[("structure", f, "structure.checks") for f in (
        "is_polymatroidal", "is_componentwise_polymatroidal", "is_stable",
        "is_strongly_stable", "has_linear_quotients",
        "is_vertex_splittable")],
    *[("structure", f, "structure.closure") for f in (
        "stable_closure", "strongly_stable_closure")],
    ("verify", "verify_theorem", "verify"),
    *[("verify", f, "verify.generators") for f in (
        "random_ideal", "random_veronese_type",
        "random_complete_intersection", "random_stable_ideal",
        "connected_graphs", "two_linear_edge_ideals")],
]

VERIFY_IDS = ("cor2.4", "kk-remark", "lem3.2", "prop2.1", "prop3.3",
              "thm2.2", "thm2.3", "thm3.1", "thm4.3", "thm5.1", "thm6.1")

# spans whose calls and self time are reported as <name>.calls/.self_s
_CALLS_AND_SELF = (
    "cli.run_cli", "ioformats.parse_ideal", "monomials.ideal_new",
    "monomials.contains", "gradient.gradient", "graphs", "kruskal",
    "complexes.faces", "complexes.boundary_matrix", "complexes.homology",
    "exact_rank.sparse_rank", "exact_rank.large", "exact_rank.bareiss",
    "resolution.betti_table", "resolution.regularity",
    "resolution.polarize", "resolution.koszul", "structure.lq",
    "structure.vsplit")
_SELF_ONLY = ("verify.generators", "monomials.arith", "structure.checks",
              "structure.closure")
_COUNTS = (
    "monomials.gens_in", "monomials.gens_kept", "gradient.gens_emitted",
    "gradient.gens_out", "complexes.faces_enumerated", "exact_rank.nnz_in",
    "exact_rank.rank_out", "resolution.engine.hochster",
    "resolution.engine.hochster_polarization", "resolution.engine.koszul",
    "resolution.cap_fallbacks", "structure.lq.found", "structure.lq.none",
    "structure.lq.undecided")


def metric_names():
    """Every per-layer metric a traced pass reports, in report order."""
    names = []
    for s in _CALLS_AND_SELF:
        names += [f"{s}.calls", f"{s}.self_s"]
    names += [f"{s}.self_s" for s in _SELF_ONLY]
    names += [f"verify.{v}.s" for v in VERIFY_IDS]
    names += list(_COUNTS)
    names += ["monomials.keep_ratio", "complexes.face_cache_hit_ratio",
              "resolution.auto_lq.calls", "resolution.auto_lq.miss_s",
              "resolution.auto_lq.hit_ratio", "trace.spans",
              "trace.overhead_ratio"]
    return names


class Tracer:
    def __init__(self):
        self.excluded = 0  # ns the tracer spent on itself so far
        self.op = -1
        self.stack = []  # frames: [span index, child ns, ctx]
        self.name_ids = {}
        self.names = []
        self.col_name = array("i")
        self.col_start = array("q")
        self.col_dur = array("q")
        self.col_parent = array("i")
        self.col_op = array("i")
        self._patches = []
        self.reset_counts()

    def reset_counts(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.first_span = len(self.col_name)

    # -- spans ------------------------------------------------------------
    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name, fn, args, kwargs, pre=None, post=None):
        """Run fn(*args, **kwargs) as a span; pre/post count outside it."""
        t = perf_counter_ns()
        ctx = pre(self, args, kwargs) if pre else None
        idx = len(self.col_name)
        self.col_name.append(self._name_id(name))
        self.col_parent.append(self.stack[-1][0] if self.stack else -1)
        self.col_op.append(self.op)
        frame = [idx, 0, ctx]
        self.stack.append(frame)
        t0 = perf_counter_ns()
        self.excluded += t0 - t
        start = t0 - self.excluded
        self.col_start.append(start)
        self.col_dur.append(0)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = perf_counter_ns()
            dur = t1 - self.excluded - start
            self.stack.pop()
            self.col_dur[idx] = dur
            if self.stack:
                self.stack[-1][1] += dur
            self_ns = dur - frame[1]
            self.calls[name] += 1
            self.self_ns[name] += self_ns
            self.incl_ns[name] += dur
            if post and ok:
                post(self, result, ctx, args, dur, self_ns)
            self.excluded += perf_counter_ns() - t1

    # -- installation -------------------------------------------------------
    def install(self):
        mods = {k: m for k, m in list(sys.modules.items())
                if k == "monograd" or k.startswith("monograd.")}
        for mod, path, name in TARGETS:
            owner = mods.get(f"monograd.{mod}")
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p, None)
            orig = owner is not None and getattr(owner, parts[-1], None)
            if not callable(orig):
                print(f"trace: monograd.{mod}.{path} not found, not traced",
                      file=sys.stderr)
                continue
            wrapper = self._wrapper(name, orig)
            if len(parts) > 1:  # a method: replace it on the class
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        self._patches.append((owner, key, orig))
                        setattr(owner, key, wrapper)
                continue
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)
                    elif isinstance(val, dict):
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                self._patches.append((val, k2, orig))
                                val[k2] = wrapper

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches = []

    def _wrapper(self, name, fn):
        tr = self
        pre, post = _HOOKS.get(name, (None, None))
        if name == "verify":
            def wrapper(theorem_id, *args, **kwargs):
                return tr.call(f"verify.{theorem_id}", fn,
                               (theorem_id,) + args, kwargs)
        elif name == "monomials.ideal_new":
            def wrapper(self_, n, gens=()):
                tr.call(name, _init_counted, (fn, self_, n, gens), {},
                        post=_post_ideal_new)
        elif inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = tr.call(name, next, (it,), {})
                    except StopIteration:
                        return
                    yield item
        else:
            def wrapper(*args, **kwargs):
                return tr.call(name, fn, args, kwargs, pre, post)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------
    def metrics(self, overhead_ratio):
        """Per-layer metrics for the spans since the last reset_counts."""
        c, s, n = self.calls, self.self_ns, self.counts
        out = {}
        for name in _CALLS_AND_SELF:
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name] / 1e9
        for name in _SELF_ONLY:
            out[f"{name}.self_s"] = s[name] / 1e9
        for v in VERIFY_IDS:
            out[f"verify.{v}.s"] = self.incl_ns[f"verify.{v}"] / 1e9
        for name in _COUNTS:
            out[name] = n[name]
        out["monomials.keep_ratio"] = _ratio(n["monomials.gens_kept"],
                                             n["monomials.gens_in"])
        out["complexes.face_cache_hit_ratio"] = _ratio(
            n["complexes.face_cache_hits"], c["complexes.faces"])
        out["resolution.auto_lq.calls"] = n["resolution.auto_lq.calls"]
        out["resolution.auto_lq.miss_s"] = n["resolution.auto_lq.miss_ns"] / 1e9
        out["resolution.auto_lq.hit_ratio"] = _ratio(
            n["resolution.auto_lq.hits"], n["resolution.auto_lq.calls"])
        out["trace.spans"] = len(self.col_name) - self.first_span
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path):
        """All spans as gzipped JSON lines: name, start_ns, dur_ns,
        parent (span index or -1) and op (operation id or -1)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.col_name)):
                fh.write(json.dumps([self.names[self.col_name[i]],
                                     self.col_start[i], self.col_dur[i],
                                     self.col_parent[i], self.col_op[i]]))
                fh.write("\n")


def _ratio(a, b):
    return a / b if b else 0.0


def _init_counted(init, self_, n, gens):
    if not hasattr(gens, "__len__"):
        gens = list(gens)
    init(self_, n, gens)
    return len(gens)


def _post_ideal_new(tr, n_in, ctx, args, dur, self_ns):
    tr.counts["monomials.gens_in"] += n_in
    tr.counts["monomials.gens_kept"] += len(args[1].gens)


def _pre_gradient(tr, args, kwargs):
    return sum(1 for u in args[0].gens for e in u if e)


def _post_gradient(tr, result, emitted, args, dur, self_ns):
    if result is not args[0]:  # zero and unit ideals are returned as is
        tr.counts["gradient.gens_emitted"] += emitted
    tr.counts["gradient.gens_out"] += len(result.gens)


def _pre_faces(tr, args, kwargs):
    delta = args[0]
    within = args[1] if len(args) > 1 else kwargs.get("within")
    if within is None:
        within = (1 << delta.n) - 1
    return within in getattr(delta, "_face_cache", ())


def _post_faces(tr, result, hit, args, dur, self_ns):
    if hit:
        tr.counts["complexes.face_cache_hits"] += 1
    else:
        tr.counts["complexes.faces_enumerated"] += sum(
            len(v) for v in result.values())


def _pre_rank(tr, args, kwargs):
    return sum(len(col) for col in args[0])


def _post_rank(tr, result, nnz, args, dur, self_ns):
    tr.counts["exact_rank.nnz_in"] += nnz
    tr.counts["exact_rank.rank_out"] += result
    if nnz >= LARGE_NNZ:
        tr.calls["exact_rank.large"] += 1
        tr.self_ns["exact_rank.large"] += self_ns


def _pre_engine(tr, args, kwargs):
    engine = args[1] if len(args) > 1 else kwargs.get("engine", "auto")
    return {"auto": engine == "auto", "koszul": False}


def _post_betti(tr, result, ctx, args, dur, self_ns):
    key = _ENGINES.get(result.engine)
    if key:
        tr.counts[key] += 1
    _post_regularity(tr, result, ctx, args, dur, self_ns)


def _post_regularity(tr, result, ctx, args, dur, self_ns):
    if ctx["auto"] and ctx["koszul"]:
        tr.counts["resolution.cap_fallbacks"] += 1


def _pre_koszul(tr, args, kwargs):
    # inside an auto-engine betti_table/regularity, Koszul runs only as the
    # fallback after a resource cap was hit
    for _, _, ctx in reversed(tr.stack):
        if isinstance(ctx, dict) and "koszul" in ctx:
            ctx["koszul"] = True
            break


def _pre_lq(tr, args, kwargs):
    if not tr.stack:
        return False
    idx, _, ctx = tr.stack[-1]
    return (tr.names[tr.col_name[idx]] == "resolution.regularity"
            and ctx["auto"])


def _post_lq(tr, result, in_auto, args, dur, self_ns):
    if result is None:
        kind = "none"
    elif repr(result) == "UNDECIDED":
        kind = "undecided"
    else:
        kind = "found"
    tr.counts[f"structure.lq.{kind}"] += 1
    if in_auto:
        tr.counts["resolution.auto_lq.calls"] += 1
        if kind == "found":
            tr.counts["resolution.auto_lq.hits"] += 1
        else:
            tr.counts["resolution.auto_lq.miss_ns"] += dur


_HOOKS = {
    "gradient.gradient": (_pre_gradient, _post_gradient),
    "complexes.faces": (_pre_faces, _post_faces),
    "exact_rank.sparse_rank": (_pre_rank, _post_rank),
    "resolution.betti_table": (_pre_engine, _post_betti),
    "resolution.regularity": (_pre_engine, _post_regularity),
    "resolution.koszul": (_pre_koszul, None),
    "structure.lq": (_pre_lq, _post_lq),
}
