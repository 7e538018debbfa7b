"""Seeded verification suites producing structured, reproducible reports.

Each suite exercises one named claim about the gradient operator against
independently computed values.  Reports are deterministic functions of
(theorem_id, parameters, seed) and serialize to stable JSON.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, permutations
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import DomainError
from .gradient import gradient, gradient_chain
from .graphs import (SimpleGraph, complementary_edge_ideal, edge_ideal,
                     family_overlap_run, family_reg_gap,
                     gradient_power_closed_forms, is_connected,
                     quadratic_decompositions)
from .ioformats import ideal_to_json
from .kruskal import (closed_form_count, closed_form_shadow,
                      colex_shadow_oracle, macaulay_rep,
                      many_generators_threshold, shadow_bound)
from .monomials import (MonomialIdeal, _support_mask, monomials_of_degree,
                        squarefree_monomials_of_degree, veronese_type)
from .complexes import stanley_reisner_complex
from .resolution import (has_differential_linear_resolution, hochster_betti,
                         regularity)
from .structure import (has_linear_quotients, is_polymatroidal, is_stable,
                        is_strongly_stable, is_vertex_splittable,
                        linear_quotients_order, stable_closure,
                        strongly_stable_closure)
from .verify_ids import VERIFY_IDS

DEFAULT_SAMPLES = 200


class Check(NamedTuple):
    description: str
    expected: object
    computed: object
    passed: bool


class Report:
    def __init__(self, theorem_id: str, parameters: Dict[str, object],
                 seed: Optional[int] = None):
        self.theorem_id = theorem_id
        self.parameters = parameters
        self.seed = seed
        self.checks, self.engine_notes = [], []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, description: str, expected, computed,
            ideal: Optional[MonomialIdeal] = None) -> bool:
        ok = expected == computed
        self.checks.append(Check(description, _plain(expected),
                                 _plain(computed), ok))
        if not ok and ideal is not None:
            self.engine_notes.append("replay ideal: " + ideal_to_json(ideal))
        return ok

    def note(self, text: str) -> None:
        self.engine_notes.append(text)

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "parameters": {k: _plain(v) for k, v in sorted(self.parameters.items())},
            "checks": [{"description": c.description, "expected": c.expected,
                        "computed": c.computed, "pass": c.passed}
                       for c in self.checks],
            "engine_notes": list(self.engine_notes),
            "seed": self.seed,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _plain(v):
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    if isinstance(v, list):
        return [_plain(x) for x in v]
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    return str(v)


# ---------------------------------------------------------------------------
# seeded generators

def random_ideal(n: int, d_min: int, d_max: int, count: int,
                 squarefree: bool = False, seed: Optional[int] = None,
                 rng: Optional[random.Random] = None) -> MonomialIdeal:
    """Seeded sample of `count` distinct monomials, minimalized.

    Same (parameters, seed) always yields the same ideal; minimalization
    may shrink the generating set when sampled monomials divide each other.
    """
    if rng is None:
        rng = random.Random(seed)
    pool = []
    for d in range(d_min, d_max + 1):
        if squarefree:
            if d <= n:
                pool.extend(squarefree_monomials_of_degree(n, d))
        else:
            pool.extend(monomials_of_degree(n, d))
    if not 0 <= count <= len(pool):
        raise DomainError(f"cannot sample {count} of the {len(pool)} "
                          "available monomials")
    # the pool holds checked monomials, so the draw skips the constructor's
    # checks and goes straight to minimalization
    return MonomialIdeal._trusted(n, {u: (sum(u), _support_mask(u))
                                      for u in rng.sample(pool, count)})


def random_veronese_type(rng: random.Random) -> MonomialIdeal:
    """A Veronese-type ideal on 2..5 variables in degree 2..4."""
    while True:
        n = rng.randint(2, 5)
        d = rng.randint(2, 4)
        bounds = tuple(rng.randint(1, d) for _ in range(n))
        if sum(bounds) >= d:
            return veronese_type(n, bounds, d)


def random_complete_intersection(rng: random.Random) -> MonomialIdeal:
    """1..3 generators of degree 2..3 on 6 variables, on disjoint supports
    of 1 or 2 variables each."""
    n = 6
    m = rng.randint(1, 3)
    vars_left = list(range(n))
    rng.shuffle(vars_left)
    gens = []
    for _ in range(m):
        size = rng.randint(1, 2)
        picked = [vars_left.pop() for _ in range(size)]
        deg = rng.randint(2, 3)
        exps = [0] * n
        for i in picked:
            exps[i] = 1
        for _ in range(deg - size):
            exps[rng.choice(picked)] += 1
        gens.append(tuple(exps))
    return MonomialIdeal(n, gens)


def random_stable_ideal(rng: random.Random, strongly: bool) -> MonomialIdeal:
    """The (strongly) stable closure of 1..3 monomials of degree 1..4 on
    2..4 variables."""
    n = rng.randint(2, 4)
    seeds = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 4)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        seeds.append(tuple(exps))
    closure = strongly_stable_closure if strongly else stable_closure
    return closure(n, seeds)


def connected_graphs(n: int):
    """All connected labeled graphs on vertices 1..n."""
    slots = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        G = SimpleGraph(n, edges)
        if is_connected(G):
            yield G


def two_linear_edge_ideals(n_max: int = 5):
    """Distinct compressed edge ideals on <= n_max vertices whose
    regularity is exactly 2, in order of first occurrence."""
    return (J for J, _ in _two_linear_screen(n_max, by_class=False))


def _two_linear_screen(n_max: int, by_class: bool):
    """(J, count) for the ideals J of two_linear_edge_ideals: each with
    count 1, or by_class the first of each isomorphism class, counting its
    labeled members (regularity does not change under relabeling)."""
    seen = set()  # the compressed graphs, as masks over the slots
    slots = list(combinations(range(1, n_max + 1), 2))
    bits = {e: 1 << i for i, e in enumerate(slots)}
    for mask in range(1, 1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        # compress the graph before building its ideal: renumber the
        # vertices in use from 1 in order
        used = sorted({v for e in edges for v in e})
        rank = {v: k for k, v in enumerate(used, 1)}
        edges = [(rank[a], rank[b]) for a, b in edges]
        if sum(map(bits.__getitem__, edges)) in seen:
            continue
        ids = range(1, len(used) + 1)  # the members relabel a as s[a - 1]
        orbit = {sum(bits[min(s[a - 1], s[b - 1]), max(s[a - 1], s[b - 1])]
                     for a, b in edges)
                 for s in (permutations(ids) if by_class else [ids])}
        seen |= orbit
        J = edge_ideal(SimpleGraph(len(used), edges))
        if regularity(J) == 2:
            yield J, len(orbit)


# ---------------------------------------------------------------------------
# suites

def _samples(params: dict, default: int) -> int:
    samples = int(params.get("samples", default))
    if samples < 0:
        raise DomainError(f"samples must be >= 0, got {samples}")
    return samples


def _failures(rep: Report, draws, holds) -> int:
    """The number of draws for which holds fails, each noted for replay in
    order; the draws repeat, so each distinct one is decided once."""
    decided: Dict[MonomialIdeal, bool] = {}
    bad = 0
    for I in draws:
        if I not in decided:
            decided[I] = holds(I)
        if not decided[I]:
            bad += 1
            rep.note("replay ideal: " + ideal_to_json(I))
    return bad


def _suite_thm22(rep: Report, params: dict, rng: random.Random) -> None:
    a_values = [int(params["a"])] if "a" in params else list(range(-4, 5))
    for a in a_values:
        fam = family_reg_gap(a)
        r = regularity(fam.ideal)
        rg = regularity(gradient(fam.ideal))
        rep.add(f"a={a}: reg(I)", fam.expected_reg, r, fam.ideal)
        rep.add(f"a={a}: reg(grad(I))", fam.expected_reg_gradient, rg, fam.ideal)
        rep.add(f"a={a}: reg(I) - reg(grad(I))", a, r - rg, fam.ideal)


# witness cycle for the overlapping-window family of Theorem 2.3

class CycleCertificate(NamedTuple):
    d: int
    no_top_faces: bool
    all_pairs_are_faces: bool
    chain_is_nonzero_cycle: bool
    chain_support_size: int
    failures: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (self.no_top_faces and self.all_pairs_are_faces
                and self.chain_is_nonzero_cycle)

    def __bool__(self):
        return self.passed


def cycle_certificate(d: int) -> CycleCertificate:
    """Builds the witness cycle showing the gradient of the overlapping
    window family has a nonvanishing Betti number in degree 2d-2."""
    if d < 3:
        raise DomainError("cycle certificate needs d >= 3")
    I = family_overlap_run(d)
    delta = stanley_reisner_complex(gradient(I))
    n = 2 * d
    W = sorted(set(range(1, d)) | set(range(d + 2, n + 1)))
    wmask = sum(1 << (v - 1) for v in W)
    failures = []

    # (a) no faces of cardinality 2d-3 inside W
    faces = delta.faces_by_cardinality(within=wmask)
    no_top = not faces.get(2 * d - 3)
    if not no_top:
        failures.append(f"found {len(faces[2 * d - 3])} faces of size {2*d-3}")

    # (b) every W \ {p,q} with p in the low block, q in the high block
    low = list(range(1, d))
    high = list(range(d + 2, n + 1))
    pairs_ok = True
    chain: Dict[int, int] = {}
    for p in low:
        for q in high:
            m = wmask & ~(1 << (p - 1)) & ~(1 << (q - 1))
            if not delta._is_face_mask(m):
                pairs_ok = False
                failures.append(f"W minus {{{p},{q}}} is not a face")
            chain[m] = (-1) ** (p + q)

    # (c) the signed chain is nonzero with vanishing boundary
    boundary: Dict[int, int] = {}
    for m, coeff in chain.items():
        verts = sorted(v + 1 for v in range(n) if m >> v & 1)
        for k, p in enumerate(verts):
            g = m & ~(1 << (p - 1))
            sign = -1 if k % 2 else 1
            boundary[g] = boundary.get(g, 0) + coeff * sign
    is_cycle = bool(chain) and any(chain.values()) and \
        all(v == 0 for v in boundary.values())
    if not is_cycle:
        bad = [g for g, v in boundary.items() if v][:3]
        failures.append(f"boundary does not vanish on {len(bad)}+ faces")

    return CycleCertificate(
        d=d,
        no_top_faces=no_top,
        all_pairs_are_faces=pairs_ok,
        chain_is_nonzero_cycle=is_cycle,
        chain_support_size=len(chain),
        failures=tuple(failures),
    )


def _suite_thm23(rep: Report, params: dict, rng: random.Random) -> None:
    d_values = [int(params["d"])] if "d" in params else [3, 4, 5]
    for d in d_values:
        I = family_overlap_run(d)
        gI = gradient(I)
        rep.add(f"d={d}: reg(I)", d, regularity(I), I)
        rep.add(f"d={d}: reg(grad(I))", 2 * d - 3, regularity(gI), gI)
        b = hochster_betti(gI, 2, 2 * d - 2)
        rep.add(f"d={d}: betti(grad(I), 2, {2*d-2}) >= 1", True, b >= 1, gI)
        cert = cycle_certificate(d)
        rep.add(f"d={d}: witness cycle certificate", True, cert.passed)
        if not cert.passed:
            rep.note(f"certificate failures: {cert.failures}")


def _suite_prop21(rep: Report, params: dict, rng: random.Random) -> None:
    samples = _samples(params, 50)

    def bound(I):  # sum(deg) - 2*mu + 1
        return sum(sum(u) for u in I.gens) - 2 * I.mu + 1

    draws = (random_complete_intersection(rng) for _ in range(samples))
    bad = _failures(rep, draws, lambda I: regularity(gradient(I)) == bound(I))
    rep.add(f"{samples} complete intersections: reg(grad(I)) == "
            "sum(deg) - 2*mu + 1", 0, bad)
    draws = (random_ideal(rng.randint(3, 5), 2, 3, rng.randint(2, 4), rng=rng)
             for _ in range(samples))
    bad = _failures(rep, draws, lambda I:
                    I.alpha - 1 <= regularity(gradient(I)) <= bound(I))
    rep.add(f"{samples} random ideals: alpha - 1 <= reg(grad(I)) <= "
            "sum(deg) - 2*mu + 1", 0, bad)


def _suite_cor24(rep: Report, params: dict, rng: random.Random) -> None:
    samples = _samples(params, 50)
    bad = 0
    first_lq: Dict[int, int] = {}
    for idx in range(samples):
        n = rng.randint(2, 4)
        I = random_ideal(n, 2, 3, rng.randint(1, 3), rng=rng)
        m = MonomialIdeal.maximal(n)
        gI = gradient(I)
        for k in (1, 2, 3):
            mk = m ** k
            if gradient(mk * I) != mk * gI:
                bad += 1
                rep.note("replay ideal: " + ideal_to_json(I))
                break
        else:
            for k in range(1, 6):
                if linear_quotients_order((m ** k) * gI) is not None:
                    first_lq[k] = first_lq.get(k, 0) + 1
                    break
            else:
                first_lq[-1] = first_lq.get(-1, 0) + 1
    rep.add(f"{samples} ideals: grad(m^k * I) == m^k * grad(I) for k=1..3",
            0, bad)
    for k in sorted(first_lq):
        label = "none within k<=5" if k == -1 else f"k={k}"
        rep.note(f"first power with linear quotients of m^k*grad(I): "
                 f"{label} for {first_lq[k]} samples (report only)")


def _suite_thm31(rep: Report, params: dict, rng: random.Random) -> None:
    samples = _samples(params, DEFAULT_SAMPLES)
    bad = _failures(rep, (random_veronese_type(rng) for _ in range(samples)),
                    lambda I: is_polymatroidal(gradient(I)))
    rep.add(f"{samples} polymatroidal ideals: grad(I) is polymatroidal",
            0, bad)


def _suite_lem32(rep: Report, params: dict, rng: random.Random) -> None:
    samples = _samples(params, DEFAULT_SAMPLES)

    def holds(I):
        gI = gradient(I)
        return all(gI.degree_component(j)
                   == gradient(I.degree_component(j + 1))
                   for j in range(0, I.omega + 3))

    draws = (random_ideal(rng.randint(2, 4), 1, 4, rng.randint(1, 4), rng=rng)
             for _ in range(samples))
    rep.add(f"{samples} ideals: grad(I)_<j> == grad(I_<j+1>) for all "
            "j <= omega + 2", 0, _failures(rep, draws, holds))


def _suite_prop33(rep: Report, params: dict, rng: random.Random) -> None:
    samples = _samples(params, DEFAULT_SAMPLES)
    for strongly, label in ((True, "strongly stable"), (False, "stable")):
        check = is_strongly_stable if strongly else is_stable

        def holds(I):
            gI = gradient(I)
            # a degree-1 generator sends the gradient to the unit ideal,
            # which is vacuously (strongly) stable
            return ((gI.is_unit or check(gI))
                    and regularity(gI) <= regularity(I))

        draws = (random_stable_ideal(rng, strongly) for _ in range(samples))
        rep.add(f"{samples} {label} ideals: grad(I) is {label} and "
                "reg does not grow", 0, _failures(rep, draws, holds))


def _suite_thm43(rep: Report, params: dict, rng: random.Random) -> None:
    n_values = [int(params["n"])] if "n" in params else [4]
    split_memo: Dict = {}  # splitting trees, shared by every graph and level
    for n in n_values:
        count = 0
        bad = 0
        for G in connected_graphs(n):
            count += 1
            J = complementary_edge_ideal(G)
            for ell, H in enumerate(gradient_chain(J, n - 2)):
                if not (is_vertex_splittable(H, split_memo)
                        and regularity(H) == n - 2 - ell):
                    bad += 1
                    rep.note("replay ideal: " + ideal_to_json(H))
        rep.add(f"n={n}: all {count} connected graphs, all levels: "
                "grad^l of the complementary edge ideal is vertex "
                "splittable with reg n-2-l", 0, bad)


def _suite_thm51(rep: Report, params: dict, rng: random.Random) -> None:
    samples = _samples(params, 50)
    if ("n" in params) != ("d" in params):
        raise DomainError("thm5.1 reads n and d together")
    if "n" in params:
        pairs = [(int(params["n"]), int(params["d"]))]
    else:
        pairs = [(6, 3), (8, 3), (8, 4)]
    for n, d in pairs:
        mu = many_generators_threshold(n, d)
        # vertex splitting trees and level regularities, shared by the samples
        split_memo: Dict = {}
        reg_memo: Dict = {}
        bad = 0
        for _ in range(samples):
            I = random_ideal(n, d, d, mu, squarefree=True, rng=rng)
            result = has_differential_linear_resolution(I, _memo=reg_memo)
            splittable = all(is_vertex_splittable(J, split_memo)
                             for *_, J in result.levels)
            if not (result and splittable):
                bad += 1
                rep.note("replay ideal: " + ideal_to_json(I))
        rep.add(f"(n,d)=({n},{d}): {samples} ideals with mu={mu}: "
                "differential linear resolution and per-level vertex "
                "splittability", 0, bad)
    mismatches = 0
    for d in range(3, 9):
        for n in range(2 * d, 21):
            a = many_generators_threshold(n, d)
            if closed_form_count(n, d) != macaulay_rep(a, d):
                mismatches += 1
            if closed_form_shadow(n, d) != shadow_bound(a, d):
                mismatches += 1
    rep.add("closed forms match greedy expansion and shadow for "
            "2d <= n <= 20, 3 <= d <= 8", 0, mismatches)


def _suite_kk_remark(rep: Report, params: dict, rng: random.Random) -> None:
    a, d = 1107, 17
    greedy = shadow_bound(a, d)
    oracle = colex_shadow_oracle(a, d)
    rep.add("greedy shadow and colex enumeration agree on a=1107, d=17",
            greedy, oracle)
    rep.note(f"macaulay expansion: {macaulay_rep(a, d)}")
    threshold = many_generators_threshold(20, d - 1)
    reported = 4813
    if greedy == reported:
        rep.note(f"computed 1107^(16) = {greedy}; matches previously "
                 "reported value")
    else:
        rep.note(f"computed 1107^(16) = {greedy}; previously reported "
                 f"value {reported} differs by {greedy - reported} "
                 "(flagged, does not fail the build)")
    rep.add("comparison against reported value 4813 recorded",
            True, len(rep.engine_notes) >= 2)
    rep.note(f"threshold C(20,16) - 2*16 + 1 = {threshold}; computed value "
             + ("meets" if greedy >= threshold else "misses")
             + " the threshold (reported as computed)")


def _suite_thm61(rep: Report, params: dict, rng: random.Random) -> None:
    """Relabeling the variables changes no check below: I^k, its gradients,
    their linear quotients, m^p and the closed forms from (v, N, P, J) all
    relabel with the graph.  So the direct side runs once per isomorphism
    class H of compressed 2-linear graphs, and the closed forms once per
    valid vertex v of H: a labeled s(H), split at its top valid vertex u,
    is the pair (H, s^-1(u)), and each valid v is the top one of a labeling
    giving v the top label.  A class counts (or fails) once per member."""
    n_max = int(params.get("n_max", 5))
    ks = (int(params["k"]),) if "k" in params else (1, 2)
    if ks[0] < 1:
        raise DomainError(f"k must be >= 1, got {ks[0]}")
    screened = bad = 0
    tails: Dict[Tuple[int, int], tuple] = {}  # (n, p) -> m^p, its LQ check
    for I, count in _two_linear_screen(n_max, by_class=True):
        screened += count
        decs = list(quadratic_decompositions(I))
        if not decs:
            bad += count
            rep.note("no decomposition: " + ideal_to_json(I))
            continue
        ok = True
        levels = {k: tuple(gradient_chain(I ** k, 2 * k)) for k in ks}
        for k in ks:  # levels[k][l] is grad^l(I^k) for l = 0..2k
            for ell, direct in enumerate(levels[k]):
                if ell >= k:  # should be m^p, and then shares its decision
                    p = 2 * k - ell
                    if (I.n, p) not in tails:
                        mp = MonomialIdeal.maximal(I.n) ** p
                        tails[I.n, p] = mp, mp.is_unit or has_linear_quotients(mp)
                    ok &= (direct, True) == tails[I.n, p]
                elif not direct.is_unit and linear_quotients_order(direct) is None:
                    ok = False
        for dec in decs:
            for k in ks:
                ok &= gradient_power_closed_forms(dec, I.n, k) == levels[k]
            gJ = gradient(dec.J)
            ok &= dec.P * dec.P + dec.J + dec.P * gJ == dec.P * (dec.P + gJ)
        if not ok:
            bad += count
            rep.note("replay ideal: " + ideal_to_json(I))
    rep.add(f"{screened} screened 2-linear edge ideals (n <= {n_max}): "
            "closed form, linear quotients at every level, pure-power "
            "tail, and the product identity all hold", 0, bad)


_DISPATCH = {  # each suite with the parameters it reads
    "thm2.2": (_suite_thm22, {"a"}),
    "thm2.3": (_suite_thm23, {"d"}),
    "prop2.1": (_suite_prop21, {"samples"}),
    "cor2.4": (_suite_cor24, {"samples"}),
    "thm3.1": (_suite_thm31, {"samples"}),
    "lem3.2": (_suite_lem32, {"samples"}),
    "prop3.3": (_suite_prop33, {"samples"}),
    "thm4.3": (_suite_thm43, {"n"}),
    "thm5.1": (_suite_thm51, {"samples", "n", "d"}),
    "kk-remark": (_suite_kk_remark, set()),
    "thm6.1": (_suite_thm61, {"n_max", "k"}),
}


def verify_theorem(theorem_id: str, parameters: Optional[dict] = None,
                   seed: int = 0) -> Report:
    if theorem_id not in _DISPATCH:
        raise DomainError(f"unknown verification id: {theorem_id!r}; "
                          f"known ids: {', '.join(VERIFY_IDS)}")
    suite, known = _DISPATCH[theorem_id]
    parameters = dict(parameters or {})
    if unknown := sorted(set(parameters) - known):
        raise DomainError(f"{theorem_id} reads no parameter "
                          f"{', '.join(unknown)}; it reads: "
                          f"{', '.join(sorted(known)) or 'none'}")
    rep = Report(theorem_id=theorem_id, parameters=parameters, seed=seed)
    suite(rep, parameters, random.Random(seed))
    return rep
