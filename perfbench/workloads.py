"""The benchmark's workloads: seeded inputs, timed operations, checks.

Each workload builds its inputs from the seed alone and exposes `ops`, a
list of callables `op(state) -> result` that make up one timed pass (state
is a dict shared by the ops of one pass), `warm_up()`, `check(i, result,
results)` which says whether op i answered correctly given every result
of its pass, and `summary()`, which describes the generated inputs.

Why each workload exists, and which layers it loads:

- homology: `betti --json` queries through `run_cli`.  `exact_rank` and
  `complexes` do most of the work; `structure` does none, since `betti`
  never runs the linear-quotients search.  A fifth of the queries repeat
  an earlier ideal under a relabeling of the variables, so a result cache
  would show here and nowhere else.
- gradient-large: large minimalizations (ideal construction, gradients up
  to order 3, powers) and batches of `contains` reads on the same ideals.
  The monomial core dominates; neither `exact_rank` nor `structure` runs.
- paper-suites: every verify suite with its default parameters through
  `run_cli`; the linear-quotients search and thousands of small ideal
  constructions dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
from itertools import product

VERIFY_IDS = ("cor2.4", "kk-remark", "lem3.2", "prop2.1", "prop3.3",
              "thm2.2", "thm2.3", "thm3.1", "thm4.3", "thm5.1", "thm6.1")

# largest variable count at which the Koszul oracle checks a whole table
KOSZUL_MAX_N = 5


def _cli(argv):
    from monograd.cli import run_cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = run_cli(argv)
    return rc, buf.getvalue()


def canonical_key(u):
    """monograd's documented generator order: degree ascending, then
    lexicographically descending exponent vectors."""
    return (sum(u), tuple(-e for e in u))


def minimal_set(gens):
    """Divisibility-minimal elements, by comparison with lower degrees."""
    by_deg = sorted(set(gens), key=sum)
    kept = []
    for u in by_deg:
        if not any(all(a <= b for a, b in zip(v, u)) for v in kept):
            kept.append(u)
    return sorted(kept, key=canonical_key)


def is_member(u, gens_set):
    """u lies in the ideal iff one of its divisors is a generator."""
    nz = [i for i, e in enumerate(u) if e]
    for exps in product(*(range(u[i] + 1) for i in nz)):
        d = [0] * len(u)
        for i, e in zip(nz, exps):
            d[i] = e
        if tuple(d) in gens_set:
            return True
    return False


def taylor_euler(gens):
    """Graded Euler characteristic sum_i (-1)^i beta_{i,j}(I) for each j,
    by inclusion-exclusion over generator subsets (the Taylor complex),
    with the subsets grouped by their lcm."""
    acc = {}
    for g in gens:
        new = dict(acc)
        for m, c in acc.items():
            lcm = tuple(max(a, b) for a, b in zip(m, g))
            new[lcm] = new.get(lcm, 0) - c
        new[g] = new.get(g, 0) + 1
        acc = new
    chi = {}
    for m, c in acc.items():
        chi[sum(m)] = chi.get(sum(m), 0) + c
    return {j: c for j, c in chi.items() if c}


# ---------------------------------------------------------------------------
# homology

# base ideals per schedule: squarefree (n, generators) shapes on 6-10
# variables, weighted towards 9-10 where homology has large boundary
# matrices, and non-squarefree ones on 3-5; every fifth base is one of the
# latter.  A fixed schedule keeps the work of a pass steady across seeds.
_SQ_SHAPES = [(n, mu) for mu in range(3, 11)
              for n in (6, 7, 8, 9, 9, 10, 10, 10)]
_NSQ_SHAPES = [(3 + k % 3, 3 + (k // 3) % 3) for k in range(16)]
_CANDIDATES, _TYPICAL_DRAWS = 7, 15


class Homology:
    name = "homology"

    def __init__(self, seed, workdir):
        from monograd import MonomialIdeal, gradient

        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        typical = {shape: _typical_cost(*shape) for shape in set(_SQ_SHAPES)}
        sq, nsq = iter(_SQ_SHAPES), iter(_NSQ_SHAPES)
        bases = []
        for k in range(len(_SQ_SHAPES) + len(_NSQ_SHAPES)):
            if k % 5 == 4:
                bases.append(_nonsquarefree(rng, *next(nsq)))
            else:
                shape = next(sq)
                bases.append(_squarefree(rng, *shape, typical[shape]))
        # queries: (n, gens, index of the query it repeats or None)
        self.queries = []
        for b in range(0, len(bases), 2):
            block = []
            for n, gens in bases[b:b + 2]:
                block.append(len(self.queries))
                self.queries.append((n, gens, None))
                grad = gradient(MonomialIdeal(n, gens))
                self.queries.append((n, list(grad.gens), None))
                block.append(len(self.queries) - 1)
            src = block[(b // 2) % len(block)]
            n, gens, _ = self.queries[src]
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = [tuple(u[perm[i]] for i in range(n)) for u in gens]
            self.queries.append((n, relabeled, src))
        self.paths = []
        for i, (n, gens, _) in enumerate(self.queries):
            path = workdir / f"q{i:04d}.json"
            path.write_text(json.dumps({"n": n,
                                        "gens": [list(u) for u in gens]}))
            self.paths.append(str(path))
        self.ops = [self._op(p) for p in self.paths]
        self._expected = {}

    @staticmethod
    def _op(path):
        return lambda state: _cli(["betti", path, "--json"])

    def warm_up(self):
        for op in self.ops[:3]:
            op({})

    def summary(self):
        small = [q for q in self.queries if q[0] <= KOSZUL_MAX_N]
        large = [q for q in self.queries if q[0] > KOSZUL_MAX_N]
        polarized = [sum(max(u[i] for u in g) for i in range(n))
                     for n, g, _ in small
                     if any(e > 1 for u in g for e in u)]
        repeats = sum(1 for q in self.queries if q[2] is not None)
        return {"queries": len(self.queries), "repeats": repeats,
                "repeat_share": repeats / len(self.queries),
                "euler_checked": _ranges(large),
                "koszul_checked": _ranges(small),
                "polarized_vars": _span(polarized)}

    def _expect(self, i):
        """("table", entries) from the Koszul oracle for small n, else
        ("euler", graded Euler characteristic)."""
        src = self.queries[i][2]
        key = i if src is None else src
        if key not in self._expected:
            n, gens, _ = self.queries[key]
            if n <= KOSZUL_MAX_N:
                from monograd import MonomialIdeal, koszul_betti_table

                table = koszul_betti_table(MonomialIdeal(n, gens))
                self._expected[key] = ("table", table.ideal_entries())
            else:
                self._expected[key] = ("euler", taylor_euler(gens))
        return self._expected[key]

    def check(self, i, result, results):
        rc, out = result
        if rc != 0:
            return False
        doc = json.loads(out)
        entries = {(a, b): c for a, b, c in doc["entries"]}
        if not entries or doc["convention"] != "ideal":
            return False
        if doc["regularity"] != max(j - a for a, j in entries) or \
                doc["projective_dimension"] != max(a for a, _ in entries):
            return False
        src = self.queries[i][2]
        if src is not None and results[src] != result:
            return False
        kind, expected = self._expect(i)
        if kind == "table":
            return entries == expected
        chi = {}
        for (a, j), b in entries.items():
            chi[j] = chi.get(j, 0) + (-1) ** a * b
        return {j: c for j, c in chi.items() if c} == expected


def _squarefree(rng, n, mu, target):
    """Of several seeded draws, the one whose estimated cost is closest to
    `target`, so that the work of a pass varies little from seed to seed."""
    drawn = [_draw_squarefree(rng, n, mu) for _ in range(_CANDIDATES)]
    cost, gens = min(drawn, key=lambda d: abs(math.log(d[0] / target)))
    return n, gens


def _typical_cost(n, mu):
    """Median estimated cost of a shape, from a stream independent of the
    workload seed."""
    rng = random.Random(f"typical-{n}-{mu}")
    return statistics.median(_draw_squarefree(rng, n, mu)[0]
                             for _ in range(_TYPICAL_DRAWS))


def _draw_squarefree(rng, n, mu):
    """(estimated cost, mu distinct squarefree monomials of degrees 2, 3,
    4, 2, ... in turn).  The estimate, the sum of 2^|W| over the unions W
    of generator supports of the ideal and of its gradient, follows the
    time of their Hochster Betti tables closely."""
    from monograd import MonomialIdeal, gradient

    while True:
        gens = set()
        while len(gens) < mu:
            support = rng.sample(range(n), 2 + len(gens) % 3)
            gens.add(tuple(1 if v in support else 0 for v in range(n)))
        I = MonomialIdeal(n, gens)
        if I.mu >= 3:
            cost = _hochster_cost(I.gens) + _hochster_cost(gradient(I).gens)
            return cost, sorted(gens)


def _hochster_cost(gens):
    unions = {0}
    for u in gens:
        mask = sum(1 << i for i, e in enumerate(u) if e)
        unions |= {w | mask for w in unions}
    return sum(1 << bin(w).count("1") for w in unions)


def _nonsquarefree(rng, n, mu):
    from monograd import MonomialIdeal

    while True:
        gens = set()
        while len(gens) < mu:
            u = [0] * n
            for _ in range(rng.randint(2, 3)):
                u[rng.randrange(n)] += 1
            gens.add(tuple(u))
        I = MonomialIdeal(n, gens)
        if not I.is_squarefree:
            return n, sorted(gens)


def _span(values):
    return [min(values), max(values)] if values else None


def _ranges(queries):
    return {"count": len(queries),
            "n": _span([q[0] for q in queries]),
            "mu": _span([len(q[1]) for q in queries]),
            "degree": _span([sum(u) for q in queries for u in q[1]])}


# ---------------------------------------------------------------------------
# gradient-large

# (variables, raw generators) of the non-squarefree ideals, degrees 5-6
_LARGE_SHAPES = [(9, 500), (11, 300)]
EDGE_VERTICES, EDGE_CHORDS = 28, 4
GRADIENT_ORDER = 3
ROUNDS = 2
READ_BATCHES, BATCH_SIZE = 3, 70


class GradientLarge:
    name = "gradient-large"

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.chains = []  # (kind, n, raw input, contains queries)
        for n, m in _LARGE_SHAPES:
            raw = set()
            while len(raw) < m:
                u = [0] * n
                for _ in range(rng.randint(5, 6)):
                    u[rng.randrange(n)] += 1
                raw.add(tuple(u))
            raw = sorted(raw)
            rng.shuffle(raw)
            self.chains.append(("ideal", n, raw, _queries(rng, n, raw, 3, 6)))
        nv = EDGE_VERTICES
        edges = [(v, v % nv + 1) for v in range(1, nv + 1)]
        while len(edges) < nv + EDGE_CHORDS:
            a, b = sorted(rng.sample(range(1, nv + 1), 2))
            if b - a not in (1, nv - 1) and (a, b) not in edges:
                edges.append((a, b))
        squares = [tuple(int(v in e) + int(v in f) for v in range(1, nv + 1))
                   for e in edges for f in edges]
        self.chains.append(("edge-square", nv, edges,
                            _queries(rng, nv, squares, 1, 4)))
        self.ops, self.labels = [], []
        for _ in range(ROUNDS):
            for c, (kind, n, raw, queries) in enumerate(self.chains):
                for s, op in enumerate(self._chain_ops(c, kind, n, raw)):
                    self.labels.append((c, s, None))
                    self.ops.append(op)
                    for b in range(READ_BATCHES):
                        batch = queries[b * BATCH_SIZE:(b + 1) * BATCH_SIZE]
                        self.labels.append((c, s, b))
                        self.ops.append(_read_op(c, s, batch))
        self._expected_states = {}
        self._expected_reads = {}

    @staticmethod
    def _chain_ops(c, kind, n, raw):
        # functions are looked up at call time, so that a traced run sees
        # the traced versions
        import monograd as mg

        def put(s, fn):
            def op(state):
                state[c, s] = fn(state)
                return state[c, s]
            return op

        if kind == "ideal":
            ops = [put(0, lambda st: mg.MonomialIdeal(n, raw))]
        else:
            ops = [put(0, lambda st: mg.edge_ideal(mg.SimpleGraph(n, raw))),
                   put(1, lambda st: st[c, 0] ** 2)]
        for s in range(len(ops), len(ops) + GRADIENT_ORDER):
            ops.append(put(s, lambda st, s=s: mg.gradient(st[c, s - 1])))
        return ops

    def warm_up(self):
        from monograd import MonomialIdeal, gradient

        n, raw = self.chains[0][1], self.chains[0][2][:20]
        gradient(MonomialIdeal(n, raw)).contains(raw[0])

    def summary(self):
        out = []
        for kind, n, raw, queries in self.chains:
            gens = raw if kind == "ideal" else [
                tuple(int(v in e) for v in range(1, n + 1)) for e in raw]
            out.append({"kind": kind, "n": n, "raw_generators": len(gens),
                        "degree": _span([sum(u) for u in gens]),
                        "contains_queries": len(queries)})
        return {"chains": out, "rounds": ROUNDS,
                "write_ops": sum(1 for lb in self.labels if lb[2] is None),
                "read_ops": sum(1 for lb in self.labels if lb[2] is not None),
                "batch_size": BATCH_SIZE}

    def _expect_states(self, c):
        """Expected generator tuples of every state of chain c."""
        if c not in self._expected_states:
            from monograd import MonomialIdeal, gradient_via_colon

            kind, n, raw, _ = self.chains[c]
            if kind == "ideal":
                # the colon-ideal oracle, independent of gradient()
                J = MonomialIdeal(n, minimal_set(raw))
                states = [J.gens]
                for _ in range(GRADIENT_ORDER):
                    J = gradient_via_colon(J)
                    states.append(J.gens)
            else:
                # equigenerated: every distinct quotient is minimal
                edges = {tuple(int(v in e) for v in range(1, n + 1))
                         for e in raw}
                cur = {tuple(a + b for a, b in zip(u, v))
                       for u in edges for v in edges}
                states = [edges, cur]
                for _ in range(GRADIENT_ORDER):
                    cur = {u[:i] + (u[i] - 1,) + u[i + 1:]
                           for u in cur for i in range(n) if u[i]}
                    states.append(cur)
                states = [tuple(sorted(s, key=canonical_key)) for s in states]
            self._expected_states[c] = states
        return self._expected_states[c]

    def check(self, i, result, results):
        c, s, b = self.labels[i]
        gens = self._expect_states(c)[s]
        if b is None:
            return (getattr(result, "n", None) == self.chains[c][1]
                    and result.gens == gens)
        key = (c, s, b)
        if key not in self._expected_reads:
            queries = self.chains[c][3][b * BATCH_SIZE:(b + 1) * BATCH_SIZE]
            gens_set = set(gens)
            self._expected_reads[key] = [is_member(u, gens_set)
                                         for u in queries]
        return result == self._expected_reads[key]


def _queries(rng, n, gens, lo, hi):
    """Membership queries: multiples of generators and random monomials."""
    out = []
    for k in range(READ_BATCHES * BATCH_SIZE):
        if k % 2:
            u = list(rng.choice(gens))
            for _ in range(rng.randint(0, 1)):
                u[rng.randrange(n)] += 1
        else:
            u = [0] * n
            for _ in range(rng.randint(lo, hi)):
                u[rng.randrange(n)] += 1
        out.append(tuple(u))
    return out


def _read_op(c, s, batch):
    def op(state):
        ideal = state[c, s]
        return [ideal.contains(u) for u in batch]
    return op


# ---------------------------------------------------------------------------
# paper-suites

class PaperSuites:
    name = "paper-suites"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.ops = [self._op(v) for v in VERIFY_IDS]

    def _op(self, vid):
        argv = ["verify", vid, "--seed", str(self.seed), "--json"]
        return lambda state: _cli(argv)

    def warm_up(self):
        _cli(["verify", "kk-remark", "--seed", str(self.seed), "--json"])

    def summary(self):
        return {"suites": list(VERIFY_IDS), "seed": self.seed,
                "parameters": "defaults"}

    def check(self, i, result, results):
        rc, out = result
        if rc != 0:
            return False
        doc = json.loads(out)
        return doc.get("pass") is True and doc.get("theorem_id") == VERIFY_IDS[i]


WORKLOADS = {w.name: w for w in (Homology, GradientLarge, PaperSuites)}
