import random
import sys
from itertools import permutations
from math import comb

import pytest

from monograd.caps import Caps
from monograd.errors import DomainError, ResourceCapError
from monograd.gradient import gradient
from monograd import structure
from monograd.ioformats import parse_ideal
from monograd.monomials import (MonomialIdeal, divide_by_variable, mono_mul,
                                supp, variable, veronese_type)
from monograd.structure import (UNDECIDED, QuotientOrder, _colon_row,
                                has_linear_quotients,
                                is_componentwise_polymatroidal,
                                is_polymatroidal, is_stable,
                                is_strongly_stable, is_vertex_splittable,
                                linear_quotients_order, stable_closure,
                                strongly_stable_closure, vertex_split_tree)
from monograd.verify import random_ideal, two_linear_edge_ideals


def I(n, *strs):
    return parse_ideal({"n": n, "gens": list(strs)})


def _is_variable_colon(prev, u, n):
    """Check that (prev) : u is generated by variables."""
    colon = MonomialIdeal(n, [tuple(max(p - e, 0) for p, e in zip(v, u))
                              for v in prev])
    return all(sum(g) == 1 for g in colon.gens)


def test_linear_quotients_witness_is_valid():
    J = I(4, "x1*x2", "x1*x3^3", "x2*x4^3")
    order = linear_quotients_order(J)
    assert order is not None
    gens = list(order.order)
    assert sorted(gens) == sorted(J.gens)
    for k in range(1, len(gens)):
        assert _is_variable_colon(gens[:k], gens[k], 4)


def test_linear_quotients_agrees_with_permutation_oracle():
    # at most 6 generators: an order exists exactly when some permutation
    # of G(J) passes the colon check at every step
    rng = random.Random(5)
    found = exhausted = 0
    for t in range(120):
        n = rng.randint(4, 6)
        J = random_ideal(n, 2, 3, rng.randint(3, 6), squarefree=t % 2 == 0,
                         rng=rng)
        oracle = any(
            all(_is_variable_colon(p[:k], p[k], n) for k in range(1, len(p)))
            for p in permutations(J.gens))
        order = linear_quotients_order(J)
        assert (order is not None) == oracle, J
        if order is not None:
            gens = list(order.order)
            assert sorted(gens) == sorted(J.gens)
            assert all(_is_variable_colon(gens[:k], gens[k], n)
                       for k in range(1, len(gens))), (J, gens)
        found += oracle
        exhausted += not oracle
    assert found > 10 and exhausted > 10


def test_no_linear_quotients():
    assert linear_quotients_order(I(4, "x1*x2", "x3*x4")) is None
    assert not has_linear_quotients(I(4, "x1*x2", "x3*x4"))


def test_linear_quotients_budget_undecided():
    J = veronese_type(5, (1, 1, 1, 1, 1), 3)
    assert linear_quotients_order(J, node_budget=1) is UNDECIDED
    with pytest.raises(TypeError):
        bool(UNDECIDED)


def test_vertex_splittable():
    assert is_vertex_splittable(MonomialIdeal.maximal(4))
    assert is_vertex_splittable(I(3, "x1*x2", "x1*x3", "x2*x3"))
    assert not is_vertex_splittable(I(4, "x1*x2", "x3*x4"))
    # base cases
    assert is_vertex_splittable(MonomialIdeal.zero(2))
    assert is_vertex_splittable(MonomialIdeal.unit(2))
    assert is_vertex_splittable(I(3, "x1^2*x3"))


def test_vertex_split_tree_witness():
    tree = vertex_split_tree(I(2, "x1^2", "x1*x2"))
    assert tree is not None and "split_variable" in tree


def _replay_split_tree(J, tree):
    """Replays a vertex splitting witness of J through the public
    constructor; returns a description of the first fault, or None."""
    if "base" in tree:
        base = ("zero" if J.is_zero else "unit" if J.is_unit
                else "principal" if J.mu == 1 else None)
        return None if tree["base"] == base else f"base {tree['base']} at {J}"
    i = tree["split_variable"]
    if i not in J.support:
        return f"x{i} outside the support of {J}"
    div = [u for u in J.gens if u[i - 1]]
    I1 = MonomialIdeal(J.n, [divide_by_variable(u, i) for u in div])
    I2 = MonomialIdeal(J.n, [u for u in J.gens if not u[i - 1]])
    xi = variable(J.n, i)
    # x_i*G(I1) is the part of G(J) divisible by x_i and G(I2) the rest
    if sorted(mono_mul(xi, u) for u in I1.gens) != sorted(div):
        return f"x{i}*I1 and I2 do not partition G({J})"
    if not I1.contains_ideal(I2):
        return f"I1 does not contain I2 at x{i} in {J}"
    return (_replay_split_tree(I1, tree["divisible_part"])
            or _replay_split_tree(I2, tree["rest"]))


def _split_tree_reference(J, memo):
    """vertex_split_tree as a plain recursion, splitting through the
    validating constructor, over its own memo."""
    if J.gens in memo:
        return memo[J.gens]
    tree = ({"base": "zero"} if J.is_zero else {"base": "unit"} if J.is_unit
            else {"base": "principal"} if J.mu == 1 else None)
    for i in sorted(J.support) if tree is None else ():
        I1 = MonomialIdeal(J.n, [divide_by_variable(u, i)
                                 for u in J.gens if u[i - 1]])
        I2 = MonomialIdeal(J.n, [u for u in J.gens if not u[i - 1]])
        if (I1.contains_ideal(I2)
                and (t1 := _split_tree_reference(I1, memo)) is not None
                and (t2 := _split_tree_reference(I2, memo)) is not None):
            tree = {"split_variable": i, "divisible_part": t1, "rest": t2}
            break
    memo[J.gens] = tree
    return tree


def test_vertex_split_stack_matches_the_recursion():
    # the explicit stack returns the trees the recursion did and fills the
    # memo with the same entries; each tree's parts are the memo's objects
    rng = random.Random(11)
    memo, ref = {}, {}
    splittable = 0
    for t in range(1500):
        n = rng.randint(3, 6)
        J = random_ideal(n, 1, 3, rng.randint(1, 6), squarefree=t % 3 > 0,
                         rng=rng)
        tree = vertex_split_tree(J, memo if t % 2 else None)
        assert tree == _split_tree_reference(J, {})
        if t % 2:
            assert tree == _split_tree_reference(J, ref)
            assert tree is memo[J.gens]
        splittable += tree is not None
    assert memo == ref and len(memo) > 600
    assert 1000 < splittable < 1400
    held = {id(tree) for tree in memo.values()}
    for tree in memo.values():
        if tree is not None and "rest" in tree:
            assert {id(tree["divisible_part"]), id(tree["rest"])} <= held


def test_vertex_split_tree_deeper_than_the_recursion_limit():
    # each split of (x1^3000, x1^2999*x2) lowers the x1 exponent by one
    memo = {}
    tree = vertex_split_tree(I(2, "x1^3000", "x1^2999*x2"), memo)
    depth = 0
    while "rest" in tree:
        tree, depth = tree["divisible_part"], depth + 1
    assert depth > sys.getrecursionlimit() and tree == {"base": "unit"}
    assert len(memo) > depth


def test_vertex_split_witnesses_replay():
    J = I(5, "x1*x2", "x1*x4", "x2*x4", "x2*x5", "x3*x4")
    tree = vertex_split_tree(J)
    assert tree is not None and _replay_split_tree(J, tree) is None
    rng = random.Random(1)
    splittable = 0
    for _ in range(3000):
        n = rng.randint(3, 7)
        d = rng.randint(1, 3)
        J = random_ideal(n, d, d, rng.randint(1, comb(n, d)),
                         squarefree=True, rng=rng)
        tree = vertex_split_tree(J)
        if tree is not None:
            splittable += 1
            assert _replay_split_tree(J, tree) is None
    assert splittable > 2500


def test_polymatroidal():
    assert is_polymatroidal(MonomialIdeal.maximal(3) ** 2)
    assert is_polymatroidal(veronese_type(4, (2, 1, 1, 2), 3))
    assert not is_polymatroidal(I(4, "x1*x2", "x3*x4"))
    # not equigenerated
    assert not is_polymatroidal(I(2, "x1", "x2^2"))


def _polymatroidal_oracle(I):
    """The exchange property by trying every exchange on exponent lists."""
    if I.alpha != I.omega:
        return False
    bases = set(I.gens)
    for u in bases:
        for v in bases:
            for i in range(I.n):
                if u[i] <= v[i]:
                    continue
                found = False
                for j in range(I.n):
                    if u[j] < v[j]:
                        w = list(u)
                        w[i] -= 1
                        w[j] += 1
                        if tuple(w) in bases:
                            found = True
                            break
                if not found:
                    return False
    return True


def test_polymatroidal_matches_exchange_oracle():
    rng = random.Random(1212)
    ideals = []
    for _ in range(60):
        n, d = rng.randint(2, 5), rng.randint(1, 4)
        # polymatroidal: Veronese type, products of Veronese type, and
        # transversal ideals (products of ideals of variables)
        V = veronese_type(n, [d] + [rng.randint(0, d) for _ in range(n - 1)],
                          d)
        W = veronese_type(n, [2] + [rng.randint(0, 2) for _ in range(n - 1)],
                          2)
        T = MonomialIdeal.unit(n)
        for _ in range(rng.randint(1, 3)):
            T = T * MonomialIdeal(n, [variable(n, k + 1) for k in
                                      rng.sample(range(n), rng.randint(1, n))])
        ideals += [J for J in (V, V * W, T, gradient(V)) if not J.is_unit
                   and not J.is_zero]
        # mostly not: seeded equigenerated ideals and generators dropped
        # from polymatroidal ones
        ideals.append(random_ideal(n, d, d, rng.randint(1, min(6, comb(
            n + d - 1, d))), rng=rng))
        if V.mu > 1:
            ideals.append(MonomialIdeal(n, rng.sample(V.gens, V.mu - 1)))
    seen = {True: 0, False: 0}
    for J in ideals:
        expected = _polymatroidal_oracle(J)
        assert is_polymatroidal(J) == expected, J
        seen[expected] += 1
    assert min(seen.values()) > 40, seen


def test_componentwise_polymatroidal():
    assert is_componentwise_polymatroidal(I(2, "x1^2", "x1*x2", "x2^3"))
    assert not is_componentwise_polymatroidal(I(4, "x1*x2", "x3*x4"))
    # no component above omega is enumerated: degree 4 would need 5
    assert is_componentwise_polymatroidal(I(2, "x1^2", "x1*x2", "x2^3"),
                                          caps=Caps(component_enum=4))


def test_stable_checks():
    assert is_strongly_stable(I(2, "x1^2", "x1*x2"))
    assert not is_stable(I(2, "x2"))
    # stable but not strongly stable: x1*(x2*x3/x2) = x1*x3 is missing
    J = I(3, "x1^2", "x1*x2", "x2^2", "x2*x3")
    assert is_stable(J) and not is_strongly_stable(J)
    with pytest.raises(DomainError):
        is_stable(MonomialIdeal.zero(2))


def test_closures():
    assert strongly_stable_closure(3, [(0, 0, 1)]) == \
        I(3, "x1", "x2", "x3")
    assert stable_closure(2, [(0, 2)]) == I(2, "x1^2", "x1*x2", "x2^2")
    S = strongly_stable_closure(3, [(1, 0, 1)])
    assert is_strongly_stable(S)
    assert S == I(3, "x1^2", "x1*x2", "x1*x3")


def test_gradient_preserves_structure_classes():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        seeds = [tuple(rng.randint(0, 2) for _ in range(n))]
        if sum(seeds[0]) < 2:
            continue
        S = strongly_stable_closure(n, seeds)
        gS = gradient(S)
        if not gS.is_unit:
            assert is_strongly_stable(gS)


def test_splittable_implies_linear_quotients():
    rng = random.Random(77)
    checked = 0
    for _ in range(80):
        n = rng.randint(2, 4)
        J = random_ideal(n, 1, 3, rng.randint(1, 4), rng=rng)
        if is_vertex_splittable(J) and not (J.is_unit or J.is_zero):
            checked += 1
            assert linear_quotients_order(J) is not None, J
    assert checked > 10


# ---------------------------------------------------------------------------
# colon tables of the linear-quotients search

def _colon_masks_oracle(gens):
    """The colon tables by direct comparison of every pair of generators."""
    n = len(gens[0])
    cover, step = [], []
    for u in gens:
        cov, stp = [0] * n, [0] * n
        for j, v in enumerate(gens):
            ks = [k for k in range(n) if v[k] > u[k]]
            for k in ks:
                cov[k] |= 1 << j
            if len(ks) == 1 and v[ks[0]] - u[ks[0]] == 1:
                stp[ks[0]] |= 1 << j
        cover.append(cov)
        step.append(stp)
    return cover, step


def _colon_cases():
    rng = random.Random(4242)
    cases = [((0,),), ((3,),), ((1, 0, 2),),  # n = 1 and mu = 1
             ((2, 0), (1, 1), (0, 2)),
             ((3, 3, 0), (3, 0, 3), (0, 3, 3), (4, 1, 1)),
             ((2**31 - 1, 0), (2**31 - 2, 1), (0, 2**31 - 1))]
    for t in range(150):
        n = rng.randint(1, 7)
        top = (1, 2, 3, 5)[t % 4]  # squarefree, then exponents up to 5
        gens = {tuple(rng.randint(0, top) for _ in range(n))
                for _ in range(rng.randint(1, 14))}
        cases.append(tuple(sorted(gens)))
    return cases


def _colon_rows(gens):
    table = structure._colon_table(gens)
    return [_colon_row(table, u) for u in gens]


def _colon_rows_oracle(gens):
    """The oracle's tables as colon rows: the (step_k, cover_k) pairs of
    each candidate with step_k nonzero."""
    cover, step = _colon_masks_oracle(gens)
    return [[(s, c) for c, s in zip(cov, stp) if s]
            for cov, stp in zip(cover, step)]


def test_colon_masks_match_pairwise_oracle():
    for gens in _colon_cases():
        assert _colon_rows(gens) == _colon_rows_oracle(gens), gens
    # ideals the search actually sees: minimal generating sets
    rng = random.Random(17)
    for t in range(60):
        n = rng.randint(3, 6)
        J = random_ideal(n, 1, 4, rng.randint(1, 7), squarefree=t % 2 == 0,
                         rng=rng)
        assert _colon_rows(J.gens) == _colon_rows_oracle(J.gens), J



def test_degree_ordered_search_decides_linear_quotients():
    # Jahan-Zheng: an ideal with linear quotients has them in a
    # degree-nondecreasing order, so the search, which builds only those,
    # finds one exactly when some permutation of G(J) passes the colon
    # check; every ideal here mixes degrees
    rng = random.Random(2010)
    found = exhausted = 0
    while found + exhausted < 300:
        n = rng.randint(3, 5)
        J = random_ideal(n, rng.randint(1, 2), 4, rng.randint(3, 6), rng=rng)
        if J.is_equigenerated:
            continue
        oracle = any(
            all(_is_variable_colon(p[:k], p[k], n) for k in range(1, len(p)))
            for p in permutations(J.gens))
        order = linear_quotients_order(J)
        assert (order is not None) == oracle, J
        if order is not None:
            gens = list(order.order)
            assert sorted(gens) == sorted(J.gens)
            assert [sum(u) for u in gens] == sorted(sum(u) for u in gens)
            # r_k is the number of variables generating the colon ideal
            for k, (u, r) in enumerate(zip(gens, order.colon_sizes)):
                colon = MonomialIdeal(n, [tuple(max(p - e, 0)
                                                for p, e in zip(v, u))
                                          for v in gens[:k]])
                assert all(sum(g) == 1 for g in colon.gens), (J, gens)
                assert r == colon.mu, (J, gens)
        found += oracle
        exhausted += not oracle
    assert found > 50 and exhausted > 50


def test_budgeted_search_finds_the_stored_order_first():
    # the stored order of a power of the maximal ideal is a witness on its
    # own, with r_k = max(supp u_k) - 1 (Eliahou-Kervaire); a budget does
    # not lift the generator cap
    J = MonomialIdeal.maximal(4) ** 3
    order = linear_quotients_order(J, node_budget=J.mu)
    assert order.order == J.gens
    assert order.colon_sizes == tuple(max(supp(u)) - 1 for u in J.gens)
    with pytest.raises(ResourceCapError):
        linear_quotients_order(J, caps=Caps(lq_generators=4),
                               node_budget=J.mu)


def test_search_tries_only_the_least_degree_left():
    # the two quadrics exclude each other, so the ideal has no order;
    # after x1*x2 every cubic x1*x3*x_k is admissible, and a search that
    # tried them would need far more than three nodes to find that out
    J = I(10, "x1*x2", "x3*x4", *(f"x1*x3*x{k}" for k in range(5, 11)))
    assert J.mu == 8 and not J.is_equigenerated
    assert linear_quotients_order(J, node_budget=3) is None


def test_search_backtracks_out_of_a_dead_prefix():
    # made-up colon rows on which the first branch dies: after u0 only u1
    # is admissible, and after {u0, u1} nothing is; the search then finds
    # u1, u2, u0 in five nodes, skipping the dead {u0, u1} on the way
    rows = [[(0b110, 0b110)], [(0b001, 0b001)], [(0b010, 0b010)]]
    gens, degs = ("u0", "u1", "u2"), (2, 2, 2)
    witness = QuotientOrder(("u1", "u2", "u0"), (0, 1, 1))
    assert structure._search_order(gens, degs, rows, None) == witness
    assert structure._search_order(gens, degs, rows, 5) == witness
    assert structure._search_order(gens, degs, rows, 4) is UNDECIDED


# ---------------------------------------------------------------------------
# the stored-order check against the plain search

def _lq_reference(J, node_budget=None):
    """The backtracking search on its own, over colon tables from the
    pairwise oracle: the stored order first, degree-nondecreasing
    prefixes, dead prefixes memoized."""
    gens, degs, m = J.gens, J._degs, J.mu
    if m == 1:
        return QuotientOrder((gens[0],), (0,))
    cover, step = _colon_masks_oracle(gens)
    full = (1 << m) - 1
    dead = set()
    nodes = 0
    budget_hit = False

    def colon_size(prefix_mask, i):
        covered = r = 0
        for s, c in zip(step[i], cover[i]):
            if s & prefix_mask:
                covered |= c
                r += 1
        return None if prefix_mask & ~covered else r

    def dfs(prefix_mask, path):
        nonlocal nodes, budget_hit
        if prefix_mask == full:
            return path
        if prefix_mask in dead:
            return None
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            budget_hit = True
            return None
        low = ((prefix_mask + 1) & ~prefix_mask).bit_length() - 1
        for i in range(low, m):
            if degs[i] != degs[low]:
                break
            if prefix_mask >> i & 1 or (r := colon_size(prefix_mask, i)) is None:
                continue
            res = dfs(prefix_mask | (1 << i), path + [(i, r)])
            if res is not None:
                return res
            if budget_hit:
                return None
        dead.add(prefix_mask)
        return None

    result = dfs(0, [])
    if result is not None:
        return QuotientOrder(tuple(gens[i] for i, _ in result),
                             tuple(r for _, r in result))
    return UNDECIDED if budget_hit else None


def _lq_sweep():
    rng = random.Random(1505)
    for t in range(400):
        n = rng.randint(2, 6)
        J = random_ideal(n, 1, 4, rng.randint(1, 9),
                         squarefree=t % 3 == 0 and n >= 4, rng=rng)
        for K in (J, gradient(J)):
            if not (K.is_zero or K.is_unit):
                yield K
    for n, p in ((3, 2), (4, 3)):
        yield MonomialIdeal.maximal(n) ** p
    yield veronese_type(5, (1, 1, 1, 1, 1), 3)
    yield I(4, "x1*x2", "x3*x4")


def test_search_matches_reference_on_every_budget():
    # the stored-order check returns exactly what the search alone would:
    # the same witness, None or UNDECIDED, whatever the budget
    stored = searched = undecided = 0
    for J in _lq_sweep():
        m = J.mu
        for budget in (None, m * J.n, m, m - 1, 1):
            got = linear_quotients_order(J, node_budget=budget)
            assert got == _lq_reference(J, budget), (J, budget)
            if budget is None and got is not None:
                stored += got.order == J.gens
                searched += got.order != J.gens
            undecided += got is UNDECIDED
    assert stored > 300 and searched > 10 and undecided > 1000, \
        (stored, searched, undecided)


def test_search_matches_reference_on_thm61_levels():
    # every level the thm6.1 suite searches at n_max = 4: I, I^2 and
    # grad(I^2) of each 2-linear edge ideal, which all have linear
    # quotients, on the budgets of the suite and of the certificate and
    # on budgets that cut the search short
    stored = searched = undecided = 0
    for J in two_linear_edge_ideals(4):
        square = J ** 2
        for K in (J, square, gradient(square)):
            m = K.mu
            for budget in (m * K.n, m, m - 1, 1):
                got = linear_quotients_order(K, node_budget=budget)
                assert got == _lq_reference(K, budget), (K, budget)
                undecided += got is UNDECIDED
            got = linear_quotients_order(K)
            assert got == _lq_reference(K), K
            stored += got.order == K.gens
            searched += got.order != K.gens
    assert stored > 100 and searched >= 10 and undecided > 200, \
        (stored, searched, undecided)


def test_stored_order_witness_skips_the_search(monkeypatch):
    # when the stored order is a witness and the budget covers its mu
    # nodes, the stored-order pass builds one colon row per generator, in
    # stored order, and the search never runs; otherwise the pass stops at
    # the first inadmissible generator (or does not run when the budget is
    # below mu) and the search gets a fresh row for every generator
    rows, searches = [], []
    row, search = structure._colon_row, structure._search_order
    monkeypatch.setattr(structure, "_colon_row",
                        lambda table, u: rows.append(u) or row(table, u))
    monkeypatch.setattr(structure, "_search_order",
                        lambda *a: searches.append(a) or search(*a))
    skipped = stopped = 0
    for J in _lq_sweep():
        if J.mu == 1:
            continue
        ref = _lq_reference(J)
        on_stored = ref is not None and ref.order == J.gens
        for budget in (None, J.mu, J.mu - 1):
            rows.clear()
            searches.clear()
            got = linear_quotients_order(J, node_budget=budget)
            if on_stored and budget != J.mu - 1:
                assert got.order == J.gens and not searches, J
                assert rows == list(J.gens), J
                skipped += 1
            else:
                assert len(searches) == 1, J
                visits, built = rows[:-J.mu], rows[-J.mu:]
                assert built == list(J.gens) == list(searches[0][0]), J
                assert len(searches[0][2]) == J.mu, J
                if budget == J.mu - 1:
                    assert not visits, J
                else:  # the pass stopped at its first inadmissible u
                    assert 1 < len(visits) <= J.mu, J
                    assert visits == list(J.gens[:len(visits)]), J
                    stopped += 1
    assert skipped > 600 and stopped > 400, (skipped, stopped)
