import random
from collections import Counter

import pytest

from monograd.caps import Caps
from monograd.complexes import SimplicialComplex, _antichain
from monograd.errors import DomainError, ResourceCapError
from monograd.gradient import gradient, iterated_gradient
from monograd.graphs import family_overlap_run, family_reg_gap
from monograd.ioformats import parse_ideal
from monograd.monomials import (MonomialIdeal, _exact_masks, divides,
                                monomials_of_degree, variable, veronese_type)
import monograd.resolution as resolution
from monograd.resolution import (DifferentialLinearReport, betti_table,
                                 has_differential_linear_resolution,
                                 has_linear_resolution, hochster_betti,
                                 koszul_betti, koszul_betti_table, polarize,
                                 regularity)
from monograd.structure import UNDECIDED, linear_quotients_order
from monograd.verify import (CycleCertificate, cycle_certificate,
                             random_ideal, random_stable_ideal,
                             random_veronese_type)


def I(n, *strs):
    return parse_ideal({"n": n, "gens": list(strs)})


def test_square_edge_ideal_betti_table():
    # 4-cycle: 4 quadrics, 4 linear syzygies, one second syzygy
    sq = I(4, "x1*x2", "x2*x3", "x3*x4", "x1*x4")
    for engine in ("hochster", "koszul"):
        t = betti_table(sq, engine=engine)
        assert t.ideal_entries() == {(0, 2): 4, (1, 3): 4, (2, 4): 1}
        assert t.regularity() == 2
        assert t.projective_dimension() == 2


def test_empty_betti_table_raises_domain_error():
    empty = resolution.BettiTable({})
    for read in (empty.regularity, empty.projective_dimension):
        with pytest.raises(DomainError):
            read()
    assert resolution.BettiTable({(1, 2): 1}).projective_dimension() == 0


def test_hochster_betti_single_values():
    sq = I(4, "x1*x2", "x2*x3", "x3*x4", "x1*x4")
    # quotient convention: beta_{1,2}(S/I) counts the generators
    assert hochster_betti(sq, 1, 2) == 4
    assert hochster_betti(sq, 3, 4) == 1
    assert hochster_betti(sq, 2, 4) == 0
    assert koszul_betti(sq, 1, 2) == 4


def test_polarization_preserves_betti_numbers():
    J = I(2, "x1^2", "x1*x2", "x2^3")
    expected = {(0, 2): 2, (0, 3): 1, (1, 3): 1, (1, 4): 1}
    t = betti_table(J, engine="hochster")
    assert t.engine == "hochster"
    assert t.ideal_entries() == expected
    assert betti_table(J, engine="koszul").ideal_entries() == expected
    P = polarize(J)
    assert P.ideal.is_squarefree and P.ideal.n == 5
    assert betti_table(P.ideal).entries == t.entries


# largest lcm degree per variable count that keeps the Koszul oracle cheap
_SWEEP_LCM_DEGREE = {2: 10, 3: 9, 4: 8, 5: 7}


def _non_squarefree_sweep():
    """40 seeded ideals, 10 for each n in 2..5, some exponent >= 3."""
    rng = random.Random(1934)
    sweep = []
    for n, bound in _SWEEP_LCM_DEGREE.items():
        while sum(J.n == n for J in sweep) < 10:
            J = random_ideal(n, 2, 4, rng.randint(2, 6), rng=rng)
            lcm = [max(u[k] for u in J.gens) for k in range(n)]
            if max(lcm) >= 3 and sum(lcm) <= bound:
                sweep.append(J)
    return sweep


def test_lattice_engine_matches_oracles_on_non_squarefree_sweep():
    sweep = _non_squarefree_sweep()
    assert sum(J.mu >= 3 for J in sweep) > 15
    for J in sweep:
        t = betti_table(J, engine="hochster")
        oracle = koszul_betti_table(J)  # regularity(engine="koszul") reads it
        assert t.engine == "hochster"
        assert t.entries == oracle.entries, J
        assert regularity(J, engine="hochster") == oracle.regularity(), J
        top = sum(max(u[k] for u in J.gens) for k in range(J.n))
        for i in range(J.n + 2):
            for j in range(top + 2):
                expected = 1 if (i, j) == (0, 0) else t.entries.get((i, j), 0)
                assert hochster_betti(J, i, j) == expected, (J, i, j)
        assert betti_table(polarize(J).ideal).entries == t.entries, J


def _small_sweep():
    """The non-squarefree sweep and 35 seeded squarefree ideals on 1-7
    variables."""
    rng = random.Random(1999)
    return _non_squarefree_sweep() + [
        random_ideal(n, 1, n, rng.randint(1, min(8, 2 ** n - 1)),
                     squarefree=True, rng=rng)
        for n in (1, 2, 3, 4, 5, 6, 7) for _ in range(5)]


def _lcm_lattice(J):
    """The lcm lattice of the generators, its bottom (the empty lcm)
    included, by closing them under lcm: the oracle of the search."""
    lattice = {(0,) * J.n}
    for g in J.gens:
        lattice |= {tuple(map(max, b, g)) for b in lattice}
    return lattice


def _tight_columns(J, b):
    """(G_b, {1 << k: A_k for k in supp b}) of a lattice element b, without
    the exponent index: the mask of the generators dividing x^b, by a scan,
    and for each k the mask of those with g_k = b_k, from the exact
    exponent masks of the generator column at x_k."""
    divisors = sum(1 << j for j, g in enumerate(J.gens) if divides(g, b))
    full = (1 << J.mu) - 1
    return divisors, {
        1 << k: divisors & _exact_masks([g[k] for g in J.gens], full)[b[k]]
        for k in range(J.n) if b[k]}


def _element_betti(J, b):
    """resolution._element_betti of b, its columns looked up."""
    return resolution._element_betti(J, *_tight_columns(J, b))


def test_mask_built_dual_matches_public_constructor():
    voids = 0
    for J in _small_sweep():
        for b in _lcm_lattice(J):
            w, dual = _koszul_dual_scan(J, b)
            assert w == sum(1 << k for k, c in enumerate(b) if c)
            tight = [[k + 1 for k in range(J.n) if b[k] and g[k] == b[k]]
                     for g in J.gens
                     if all(gk <= bk for gk, bk in zip(g, b))]
            public = SimplicialComplex(J.n, tight)
            assert dual.void == public.void, (J, b)
            assert dual.faces_by_cardinality(w) == \
                public.faces_by_cardinality(w), (J, b)
            assert dual == public, (J, b)
            voids += dual.void
    assert voids > 0  # some generator lies below b on all of supp b


def _koszul_dual_scan(J, b):
    """(w, D) for a lattice element b, w the mask of supp b and D on w the
    Alexander dual of the upper Koszul complex K^b, by screening every
    generator: its minimal nonfaces are the minimal tight sets {k : g_k =
    b_k > 0} of the generators g dividing x^b."""
    w = sum(1 << k for k, e in enumerate(b) if e)
    tight = [sum(1 << k for k in range(J.n) if g[k] == b[k] > 0)
             for g in J.gens if all(gk <= bk for gk, bk in zip(g, b))]
    return w, SimplicialComplex._from_masks(J.n, _antichain(tight))


def _walk_dual(J, members, columns):
    """(w, D) as _koszul_dual_scan, from an element's G_b and the tight
    columns the lattice walk derives from the exponent index; a generator
    tight nowhere is in no column and makes D void."""
    tight = list(resolution._tight_sets(columns).values())
    if len(tight) < members.bit_count():
        tight.append(0)
    return sum(columns), SimplicialComplex._from_masks(J.n, _antichain(tight))


def _wide_exponent_ideals():
    """Ideals whose exponents stress the index: up to 2^31 - 1, and
    several values per variable."""
    return [MonomialIdeal(2, [(2**31 - 1, 0), (2**31 - 2, 1), (0, 2**31 - 1)]),
            I(3, "x1^3*x2", "x1*x2^3", "x2^2*x3^2", "x3^4")]


def test_index_built_dual_matches_generator_scan():
    checked = 0
    for J in _element_sweep() + _wide_exponent_ideals():
        for b, members, columns in resolution._lattice(J, Caps()):
            assert _walk_dual(J, members, columns) == \
                _koszul_dual_scan(J, b), (J, b)
            checked += 1
    assert checked > 3500


def test_mask_search_matches_the_closure_and_the_lookups():
    # (chordal edge ideal)^2 on 7 vertices: mu = 108, past one machine word
    edges = "12 13 15 17 23 24 25 26 27 34 35 36 37 46 56 67".split()
    square = I(7, *(f"x{e[0]}*x{e[1]}" for e in edges)) ** 2
    assert square.mu == 108
    elements = 0
    for J in _element_sweep() + _wide_exponent_ideals() + [square]:
        found = list(resolution._lattice(J, Caps()))
        assert len(found) == len(_lcm_lattice(J)), J
        assert {b for b, _, _ in found} == _lcm_lattice(J), J
        for b, members, columns in found:
            assert (members, columns) == _tight_columns(J, b), (J, b)
        elements += len(found)
    assert len(found) == 1892 and elements > 5000
    # the bottom: no generator divides 1, and it has no column
    assert ((0,) * 7, 0, {}) in found
    for J, cap in ((square, 1000), (I(4, "x1*x2", "x3*x4"), 3)):
        with pytest.raises(ResourceCapError) as err:
            list(resolution._lattice(J, Caps(nonface_unions=cap)))
        assert (err.value.cap_name, err.value.limit) == ("nonface-unions",
                                                         cap)
        assert err.value.needed > cap


def _homology_shaped(rng, n, mu):
    """mu distinct squarefree monomials of degrees 2, 3, 4, 2, ... in turn,
    the shape of the benchmark's Betti tables."""
    gens = set()
    while len(gens) < mu:
        support = rng.sample(range(n), 2 + len(gens) % 3)
        gens.add(tuple(int(v in support) for v in range(n)))
    return MonomialIdeal(n, gens)


def _element_sweep():
    """The small sweep and 20 homology-shaped ideals on 8-10 variables,
    with their gradients."""
    rng = random.Random(1999)
    ideals = _small_sweep() + [_homology_shaped(rng, 8 + t % 3, 3 + t % 8)
                               for t in range(20)]
    return ideals + [gradient(J) for J in ideals]


def _by_dual(J, b):
    """{i: beta_{i,b}(S/I)} from the dual on all of supp b."""
    w, dual = _koszul_dual_scan(J, b)
    return {w.bit_count() - s - 1: h
            for s, h in dual.homology_profile(within=w).items()}


def _peel_reference(J, b):
    """The peel rules of _element_betti replayed on vertex sets, one member
    per generator dividing x^b: ("zero", s) or ("sphere", s) for an
    element they decide after s peels, ("left", s, w, F) for one left on
    the antichain F covering w."""
    w = {k for k in range(J.n) if b[k]}
    family = [frozenset(k for k in w if g[k] == b[k]) for g in J.gens
              if all(gk <= bk for gk, bk in zip(g, b))]
    s = 0
    while True:
        if frozenset() in family or set().union(*family) != w:
            return "zero", s
        if len(family) == 1:
            return "sphere", s
        owners = {v: [N for N in family if v in N] for v in w}
        private = [v for v in sorted(w) if len(owners[v]) == 1]
        if not private:
            minimal = {N for N in family if not any(M < N for M in family)}
            if len(minimal) == len(family):
                return "left", s, w, minimal
            family = list(minimal)
            continue
        N = owners[private[0]][0]
        w = w - N
        family.remove(N)
        family = [M - N for M in family]
        s += 1


def _mask(vertices):
    return sum(1 << k for k in vertices)


@pytest.fixture
def face_spy(monkeypatch):
    """Records ("dual", within) for every face enumeration of a
    SimplicialComplex."""
    calls = []
    faces_by_cardinality = SimplicialComplex.faces_by_cardinality

    def dual(self, within=None):
        calls.append(("dual", within))
        return faces_by_cardinality(self, within)

    monkeypatch.setattr(SimplicialComplex, "faces_by_cardinality", dual)
    return calls


def test_element_betti_matches_the_dual(face_spy):
    duals = narrow = 0
    for J in _element_sweep() + _wide_exponent_ideals():
        if J.is_unit:
            continue
        for b in _lcm_lattice(J):
            expected = _by_dual(J, b)
            face_spy.clear()
            assert _element_betti(J, b) == expected, (J, b)
            # only an element the peel rules leave reaches the dual, and it
            # is built on the reduced w'
            left = _peel_reference(J, b) if any(b) else ("bottom",)
            dual = left[0] == "left"
            assert face_spy == ([("dual", _mask(left[2]))] if dual else []), \
                (J, b)
            duals += dual
            # fewer minimal nonfaces than vertices of w'
            narrow += dual and len(left[3]) < len(left[2])
    assert narrow > 10 and duals > 250  # 14 and 268 seen


def test_element_betti_edge_cases(face_spy):
    # (ideal, element, expected profile); the peel rules decide every one
    # of these, so no face is enumerated
    cases = [
        # the bottom: beta_{0,0} = 1
        (I(3, "x1*x2", "x3^2"), (0, 0, 0), {0: 1}),
        # a void dual: x1*x2 divides x^b and meets no exponent of b
        (I(2, "x1*x2", "x1^2", "x2^2"), (2, 2), {}),
        # one generator of degree 4 on 3 variables: the boundary of a
        # 2-simplex, and a sphere at once
        (I(3, "x1^2*x2*x3"), (2, 1, 1), {1: 1}),
        # m = 1 and N = w = {1}: the dual {emptyset} has no vertices
        (I(2, "x1^3", "x2"), (3, 0), {1: 1}),
        # every nonface a singleton: the dual is {emptyset}; two peels,
        # then a sphere
        (I(3, "x1^2", "x2^3", "x3"), (2, 3, 1), {3: 1}),
    ]
    for J, b, expected in cases:
        assert b in _lcm_lattice(J)
        face_spy.clear()
        assert _element_betti(J, b) == expected, (J, b)
        assert face_spy == [], (J, b)
        assert _by_dual(J, b) == expected, (J, b)
    _, dual = _koszul_dual_scan(*cases[1][:2])
    assert dual.void and dual.nonface_masks == ()


def _wide_non_squarefree_sweep():
    """30 seeded non-squarefree ideals on 4-7 variables and their
    gradients."""
    rng = random.Random(3141)
    sweep = [random_ideal(4 + t % 4, 2, 4, rng.randint(3, 7), rng=rng)
             for t in range(30)]
    return sweep + [gradient(J) for J in sweep]


def test_peeled_elements_match_the_dual(face_spy):
    routes = Counter()
    for J in _element_sweep() + _wide_non_squarefree_sweep():
        if J.is_unit:
            continue
        for b in _lcm_lattice(J):
            if not any(b):
                continue
            expected = _by_dual(J, b)
            face_spy.clear()
            assert _element_betti(J, b) == expected, (J, b)
            route = _peel_reference(J, b)
            if route[0] == "left":
                routes["partial peel" if route[1] else "no peel"] += 1
                assert face_spy == [("dual", _mask(route[2]))], (J, b)
            else:
                # a decided element enumerates no face
                assert face_spy == [], (J, b)
                assert expected == ({route[1] + 1: 1}
                                    if route[0] == "sphere" else {}), (J, b)
                routes[route[0]] += 1
    # 4907 spheres, 846 zeros, 315 partial peels and 105 unpeeled seen
    assert routes["sphere"] > 4000 and routes["zero"] > 600, routes
    assert routes["partial peel"] > 250 and routes["no peel"] > 80, routes

    # (ideal, element, profile, route by _peel_reference)
    pinned = [
        # a single generator: one member equal to w
        (I(3, "x1^2*x2"), (2, 1, 0), {1: 1}, ("sphere", 0)),
        # two disjoint generators: a peel, then a sphere at i = 2
        (I(4, "x1*x2", "x3*x4"), (1, 1, 1, 1), {2: 1}, ("sphere", 1)),
        # a generator tight nowhere: x1*x2 below (2, 2) is a cone apex
        (I(2, "x1*x2", "x1^2", "x2^2"), (2, 2), {}, ("zero", 0)),
        # duplicated tight sets {2}, {2}: after peeling {1, 3} neither has
        # a private vertex, and the antichain {2} is a sphere
        (I(3, "x1*x2^2", "x2^2*x3", "x1^2*x3^2"), (2, 2, 2), {2: 1},
         ("sphere", 1)),
        # after peeling {2}, {1}, {1, 3}, {3} leave no private vertex;
        # the antichain {1}, {3} peels on to a sphere
        (I(3, "x1*x2", "x1*x3", "x2*x3", "x2^3"), (1, 3, 1), {3: 1},
         ("sphere", 2)),
        # a partial peel that ends on the dual (4 members on 3 vertices)
        (I(4, "x2*x3", "x2*x4^2", "x1^3*x4", "x1*x3*x4^2"), (3, 1, 1, 2),
         {3: 2}, ("left", 1)),
        # a partial peel that ends on the dual (3 members on 4 vertices)
        (I(5, "x1*x2", "x1*x4*x5^2", "x2*x4*x5^2", "x3^3*x5", "x4^2*x5^2"),
         (1, 1, 3, 1, 2), {3: 2}, ("left", 1)),
    ]
    for J, b, expected, route in pinned:
        assert b in _lcm_lattice(J)
        assert _by_dual(J, b) == expected, (J, b)
        assert _peel_reference(J, b)[:2] == route, (J, b)
        face_spy.clear()
        assert _element_betti(J, b) == expected, (J, b)
        if route[0] != "left":
            assert face_spy == [], (J, b)
        else:
            # the dual is built on the reduced w', not on supp b
            w_left = _mask(_peel_reference(J, b)[2])
            assert face_spy == [("dual", w_left)], (J, b)
            assert w_left != _koszul_dual_scan(J, b)[0]


def test_most_lattice_elements_enumerate_no_face(face_spy):
    rng = random.Random(2718)
    ideals = [_homology_shaped(rng, 8 + t % 3, 3 + t % 8) for t in range(20)]
    elements = faceless = 0
    for J in ideals + [gradient(J) for J in ideals]:
        for b in _lcm_lattice(J):
            if any(b):
                face_spy.clear()
                _element_betti(J, b)
                elements += 1
                faceless += not face_spy
    # 1808 of 1974 seen: a walk without the peel enumerates faces for all
    assert elements > 1500 and faceless >= 0.85 * elements, \
        (faceless, elements)


def test_truncated_element_betti_reads_the_full_profile():
    # the non-squarefree sweep meets the Koszul table in its own test
    koszul_checked = set(_non_squarefree_sweep())
    for J in _element_sweep():
        if J.is_unit or J.is_zero:
            continue
        r = regularity(J, engine="hochster")
        assert r == betti_table(J, engine="hochster").regularity(), J
        if J.n <= 5 and J not in koszul_checked:
            assert r == regularity(J, engine="koszul"), J
            koszul_checked.add(J)
    assert len(koszul_checked) > 90  # 96 distinct ideals seen


def test_regularity_walk_decides_no_element_of_degree_at_most_omega_plus_1(
        monkeypatch):
    # reg >= omega, and an element away from the generators has i >= 2, so
    # the walk starts at best = omega and stops once j <= best + 1
    decided = []
    element_betti = resolution._element_betti

    def spy(J, members, columns):
        # the degree of b = lcm of the generators in G_b
        below = [g for t, g in enumerate(J.gens) if members >> t & 1]
        decided.append(sum(map(max, zip(*below))) if below else 0)
        return element_betti(J, members, columns)

    monkeypatch.setattr(resolution, "_element_betti", spy)
    # the edges of two triangles sharing x5, and x1*x2 times each other
    # vertex: b = x^(1,1,1,1,0,1,1) carries beta_{3,b} = beta_{4,b} = 1,
    # and only the least i, 6 - 3 + 1, reaches reg = 4
    bowtie = I(7, "x3*x4", "x3*x5", "x4*x5", "x5*x6", "x5*x7", "x6*x7",
               *(f"x1*x2*x{k}" for k in (3, 4, 6, 7)))
    assert _element_betti(bowtie, (1, 1, 1, 1, 0, 1, 1)) == \
        {3: 1, 4: 1}
    assert regularity(bowtie, engine="hochster") == 4
    walked = above_omega = 0
    for J in _element_sweep() + _wide_non_squarefree_sweep() + [bowtie]:
        if J.is_unit or J.is_zero:
            continue
        decided.clear()
        r = regularity(J, engine="hochster")
        assert all(j > J.omega + 1 for j in decided), J
        walked += bool(decided)
        above_omega += r > J.omega
        assert r == betti_table(J, engine="hochster").regularity(), J
    # 176 of 225 ideals walked, 91 with reg > omega seen
    assert walked > 150 and above_omega > 80, (walked, above_omega)


def test_koszul_table_builds_each_basis_and_ranks_each_differential_once(
        monkeypatch):
    built, ranked, level_lists = Counter(), [], set()
    basis, rank = resolution._koszul_basis, resolution.sparse_rank

    def spy_basis(J, i, j, caps, levels):
        built[i, j] += 1
        level_lists.add(id(levels))
        return basis(J, i, j, caps, levels)

    def spy_rank(columns):
        ranked.append(len(columns))
        return rank(columns)

    monkeypatch.setattr(resolution, "_koszul_basis", spy_basis)
    monkeypatch.setattr(resolution, "sparse_rank", spy_rank)
    for J in (I(4, "x1*x2", "x2*x3", "x3*x4", "x1*x4"),
              I(3, "x1^2", "x2^3", "x1*x3"), MonomialIdeal.maximal(3) ** 2):
        built.clear()
        ranked.clear()
        level_lists.clear()
        koszul_betti_table(J)
        # every strand grows its standard monomials on the table's one list
        assert len(level_lists) == 1, J
        # B_i in degree j is nonempty iff 0 <= i <= n and some monomial of
        # degree j - i lies outside J
        top = sum(map(max, zip(*J.gens)))
        nonempty = {(i, j) for j in range(1, top + 1)
                    for i in range(min(J.n, j) + 1)
                    if any(not J.contains(w)
                           for w in monomials_of_degree(J.n, j - i))}
        assert max(built.values()) == 1, J
        assert nonempty <= set(built), J
        assert len(ranked) == sum((i - 1, j) in nonempty
                                  for i, j in nonempty), J
        assert 0 not in ranked


def test_koszul_betti_builds_no_neighbour_of_an_empty_basis():
    m = MonomialIdeal.maximal(10)
    # every monomial of degree 9 lies in m, so B_1 in degree 10 is empty
    # and beta_{1,10} is 0 without B_2, which is past the cap
    assert koszul_betti(m, 1, 10, caps=Caps()) == 0
    with pytest.raises(ResourceCapError) as err:
        resolution._koszul_basis(m, 2, 10, Caps(), [[((0,) * 10, 0)]])
    assert err.value.needed == 45 * 24310  # C(10, 2) * C(17, 8)


def test_koszul_table_cap_names_the_first_basis_past_it():
    cube = MonomialIdeal.maximal(4) ** 3
    for cap, need in ((10, 16), (30, 40), (100, 140), (300, 336)):
        with pytest.raises(ResourceCapError) as err:
            koszul_betti_table(cube, caps=Caps(component_enum=cap))
        assert (err.value.cap_name, err.value.needed) == ("component-enum",
                                                          need)
    J = I(3, "x1^2", "x2^3", "x1*x3")
    for cap, need in ((10, 18), (30, 45)):
        with pytest.raises(ResourceCapError) as err:
            koszul_betti_table(J, caps=Caps(component_enum=cap))
        assert err.value.needed == need
    assert koszul_betti_table(J, caps=Caps(component_enum=100)).entries == \
        {(1, 2): 2, (1, 3): 1, (2, 3): 1, (2, 5): 2, (3, 6): 1}


def test_power_of_maximal_ideal_betti_table():
    J = I(3, "x1", "x2", "x3") ** 6
    t = betti_table(J, engine="hochster")
    assert t.entries == koszul_betti_table(J).entries
    assert t.regularity() == 6


def test_polarization_cap():
    J = I(2, "x1^5", "x2^5")
    with pytest.raises(ResourceCapError):
        polarize(J, caps=Caps(polarized_vars=4))


def test_auto_falls_back_to_koszul_past_the_lattice_cap():
    # each lattice has 4 elements, bottom included, so a cap of 3 trips
    capped = Caps(nonface_unions=3)
    for J in (I(4, "x1*x2", "x3*x4"), I(2, "x1^2", "x2^2")):
        with pytest.raises(ResourceCapError):
            betti_table(J, engine="hochster", caps=capped)
        with pytest.raises(ResourceCapError):
            regularity(J, engine="hochster", caps=capped)
        t = betti_table(J, caps=capped)
        assert t.engine == "koszul"
        assert t.entries == betti_table(J, engine="hochster").entries
        assert regularity(J, caps=capped) == regularity(J, engine="hochster")


def test_regularity_conventions():
    assert regularity(MonomialIdeal.unit(3)) == 0
    with pytest.raises(DomainError):
        regularity(MonomialIdeal.zero(3))
    for J in (MonomialIdeal.unit(3), MonomialIdeal.maximal(3)):
        with pytest.raises(DomainError):  # an unknown engine, even at 1
            regularity(J, engine="linear-quotients")
    m = MonomialIdeal.maximal(3)
    for k in range(1, 4):
        assert regularity(m ** k) == k


def test_regularity_engines_agree():
    rng = random.Random(5150)
    for _ in range(25):
        n = rng.randint(2, 4)
        J = random_ideal(n, 1, 3, rng.randint(1, 4), rng=rng)
        vals = {regularity(J, engine=e)
                for e in ("auto", "hochster", "koszul")}
        assert len(vals) == 1, J


def test_complete_intersection_regularity():
    # reg = sum(deg) - mu + 1 for complete intersections
    J = I(4, "x1*x2", "x3^2", "x4^3")
    assert regularity(J) == 7 - 3 + 1


def test_prescribed_gap_family():
    fam = family_reg_gap(-1)
    assert regularity(fam.ideal) == 4
    assert regularity(gradient(fam.ideal)) == 5
    overlap = family_overlap_run(3)
    assert regularity(overlap) == 3
    assert regularity(gradient(overlap)) == 3
    assert hochster_betti(gradient(overlap), 2, 4) == 1


def test_linear_resolution():
    assert has_linear_resolution(I(3, "x1*x2", "x1*x3"))
    assert not has_linear_resolution(I(4, "x1*x2", "x3*x4"))
    # not equigenerated
    assert not has_linear_resolution(I(2, "x1", "x2^2"))


def test_differential_linear_resolution_report():
    rep = has_differential_linear_resolution(I(3, "x1*x2", "x1*x3", "x2*x3"))
    assert bool(rep) and rep.holds
    assert [lvl[0] for lvl in rep.levels] == [0, 1, 2]
    rep2 = has_differential_linear_resolution(I(4, "x1*x2", "x3*x4"))
    assert not rep2
    # truth follows holds, not the record's length
    assert not DifferentialLinearReport(False, ())
    assert DifferentialLinearReport(True, ())


def test_differential_linear_resolution_memo_shares_levels(monkeypatch):
    # with one memo over many samples, each distinct level's regularity is
    # computed once, a level that repeats is differentiated at most twice,
    # and every report is the one computed without the memo
    rng = random.Random(51)
    ideals = [random_ideal(6, 3, 3, rng.choice((4, 16)), squarefree=True,
                           rng=rng) for _ in range(30)]
    plain = [has_differential_linear_resolution(J) for J in ideals]
    seen, differentiated = [], Counter()
    reg, grad = resolution.regularity, resolution.gradient
    monkeypatch.setattr(resolution, "regularity",
                        lambda J, **kw: seen.append(J.gens) or reg(J, **kw))
    monkeypatch.setattr(resolution, "gradient",
                        lambda J: differentiated.update([J.gens]) or grad(J))
    memo = {}
    shared = [has_differential_linear_resolution(J, _memo=memo)
              for J in ideals]
    assert shared == plain
    levels = {lvl[3].gens for rep in plain for lvl in rep.levels
              if not lvl[3].is_unit}
    assert sorted(seen) == sorted(levels)
    assert len(levels) < sum(len(rep.levels) for rep in plain) - 30
    assert any(plain) and not all(plain)
    # every level but the last is differentiated, at most twice however
    # often it recurs
    visits = Counter(lvl[3].gens for rep in plain for lvl in rep.levels[:-1])
    assert set(differentiated) == set(visits)
    assert all(differentiated[g] <= min(visits[g], 2) for g in visits)
    assert max(visits.values()) > 2


def test_cycle_certificate():
    for d in (3, 4):
        cert = cycle_certificate(d)
        assert cert.passed
        assert cert.chain_support_size == (d - 1) ** 2
    with pytest.raises(DomainError):
        cycle_certificate(2)
    # truth follows passed, which needs all three parts of the witness
    for parts in ((True, True, False), (True, False, True),
                  (False, True, True)):
        assert not CycleCertificate(3, *parts, 4)
    assert CycleCertificate(3, True, True, True, 4)


def test_regularity_monotone_under_variable_colon():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 4)
        J = random_ideal(n, 2, 3, rng.randint(1, 3), rng=rng)
        r = regularity(J)
        for i in range(1, n + 1):
            Q = J.colon_variable(i)
            if not (Q.is_unit or Q.is_zero):
                assert regularity(Q) <= r, (J, i)


# ---------------------------------------------------------------------------
# the auto engine's linear-quotients pre-search

@pytest.fixture
def lq_spy(monkeypatch):
    """Records (ideal, node_budget, result) of every linear-quotients search
    that regularity() starts."""
    calls = []

    def spy(I, caps=None, node_budget=None):
        result = linear_quotients_order(I, caps=caps, node_budget=node_budget)
        calls.append((I, node_budget, result))
        return result

    monkeypatch.setattr(resolution, "linear_quotients_order", spy)
    return calls


def test_overlap_gradient_regularity_auto_matches_hochster(lq_spy):
    for d in range(3, 7):
        gI = gradient(family_overlap_run(d))
        assert regularity(gI) == 2 * d - 3
        assert regularity(gI, engine="hochster") == 2 * d - 3
    # no order exists, and the search gives up within its budget
    assert [r for _, _, r in lq_spy] == [UNDECIDED] * 4


def test_auto_lq_budget_is_derived_from_the_ideal(lq_spy):
    ideals = [gradient(family_overlap_run(4)),
              I(3, "x1*x2", "x1*x3", "x2*x3"),
              I(4, "x1*x2", "x3*x4"),
              MonomialIdeal.maximal(5) ** 2]
    for J in ideals:
        regularity(J)
    assert [(J, b) for J, b, _ in lq_spy] == [(J, J.mu * J.n) for J in ideals]


def test_auto_regularity_agrees_with_exact_engines(lq_spy):
    rng = random.Random(6061)
    koszul_checked = 0
    for t in range(70):
        if t % 2:
            n = rng.randint(4, 7)
            J = random_ideal(n, 2, 3, rng.randint(2, 8), squarefree=True,
                             rng=rng)
        else:
            n = rng.randint(2, 5)
            J = random_ideal(n, 1, 3, rng.randint(1, 6), rng=rng)
        if J.is_unit:
            continue
        r = regularity(J)
        assert r == regularity(J, engine="hochster"), J
        if n <= 5:
            assert r == regularity(J, engine="koszul"), J
            koszul_checked += 1
    # windows of length d in 2d variables have an order; their gradients,
    # which have none, are test_overlap_gradient_regularity_auto_matches_hochster's
    for d in (3, 4, 5):
        J = family_overlap_run(d)
        assert regularity(J) == regularity(J, engine="hochster"), J
    results = [r for _, _, r in lq_spy]
    assert koszul_checked > 20
    # some random ideals exhaust the budget, others have no order at all
    assert results.count(UNDECIDED) > 0 and results.count(None) > 0
    assert sum(r not in (None, UNDECIDED) for r in results) > 20


# ---------------------------------------------------------------------------
# the linear-quotients certificate

def _certificate_sweep():
    """Seeded strongly stable, stable, Veronese-type, transversal
    polymatroidal, squarefree Veronese and random ideals, and the
    gradients of all of them."""
    rng = random.Random(2002)
    pool = []
    for t in range(12):
        pool.append(random_stable_ideal(rng, strongly=True))
        pool.append(random_stable_ideal(rng, strongly=False))
        pool.append(random_veronese_type(rng))
        # a product of ideals generated by variables is polymatroidal
        n = rng.randint(3, 6)
        factors = [MonomialIdeal(n, [variable(n, i) for i in rng.sample(
            range(1, n + 1), rng.randint(1, n))]) for _ in range(3)]
        pool.append(factors[0] * factors[1] * factors[2])
        n = rng.randint(4, 7)
        pool.append(veronese_type(n, (1,) * n, rng.randint(2, n - 1)))
        n = rng.randint(3, 6)
        pool.append(random_ideal(n, 1, 3, rng.randint(2, 6),
                                 squarefree=t % 2 == 0, rng=rng))
    pool += [gradient(J) for J in pool]
    return [J for J in pool if not J.is_zero and not J.is_unit]


def test_certificate_tables_match_lattice_walk_and_koszul():
    certified = koszul_checked = 0
    for J in _certificate_sweep():
        t = betti_table(J)
        assert t.entries == betti_table(J, engine="hochster").entries, J
        assert regularity(J) == t.regularity(), J
        if J.n <= 5:
            assert t.entries == koszul_betti_table(J).entries, J
            koszul_checked += 1
        certified += t.engine == "linear-quotients"
    assert certified > 100 and koszul_checked > 50


def test_certificate_search_stays_within_the_generator_cap(lq_spy):
    # mu = 120: certified with a budget of mu * n nodes once the cap admits
    # it, and past the cap no search starts at all
    J = MonomialIdeal.maximal(8) ** 3
    caps = Caps(lq_generators=120)
    assert betti_table(J, caps=caps).engine == "linear-quotients"
    assert regularity(J, caps=caps) == 3
    assert [b for _, b, _ in lq_spy] == [960, 960]
    K = MonomialIdeal.maximal(3) ** 2
    assert betti_table(K, caps=Caps(lq_generators=5)).engine == "hochster"
    assert regularity(K, caps=Caps(lq_generators=5)) == 2
    assert len(lq_spy) == 2
