from itertools import combinations

import pytest

import monograd
from monograd.errors import DomainError
from monograd.gradient import gradient, gradient_chain
from monograd.graphs import (QuadraticDecomposition, SimpleGraph,
                             complementary_edge_ideal, edge_ideal,
                             family_overlap_run, family_reg_gap,
                             gradient_power_closed_forms, is_connected,
                             quadratic_decompositions, underlying_graph)
from monograd.ioformats import parse_ideal
from monograd.monomials import MonomialIdeal, variable
from monograd.verify import two_linear_edge_ideals


def I(n, *strs):
    return parse_ideal({"n": n, "gens": list(strs)})


def _reconstruct(dec, n):
    """x_v * P + J, the ideal a decomposition splits."""
    return MonomialIdeal(n, [variable(n, dec.v)]) * dec.P + dec.J


def test_graph_validation():
    with pytest.raises(DomainError):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(DomainError):
        SimpleGraph(3, [(1, 4)])
    with pytest.raises(DomainError):
        SimpleGraph(3, [(0, 1)])
    G = SimpleGraph(3, [(2, 1), (1, 2), [3, 2]])
    assert G.edge_pairs() == [(1, 2), (2, 3)]
    assert (G.n, G.edges) == (3, frozenset({frozenset({1, 2}),
                                             frozenset({2, 3})}))


def test_graph_is_an_immutable_value():
    G, H = SimpleGraph(3, [(1, 2), (2, 3)]), SimpleGraph(3, [(3, 2), (2, 1)])
    assert G == H and hash(G) == hash(H) and len({G, H}) == 1
    assert G != SimpleGraph(4, [(1, 2), (2, 3)])
    for name in ("n", "edges", "label"):
        with pytest.raises(AttributeError):
            setattr(G, name, 0)
    assert G == SimpleGraph(3, [(1, 2), (2, 3)])


def test_edge_ideals():
    tri = SimpleGraph(3, [(1, 2), (1, 3), (2, 3)])
    assert edge_ideal(tri) == I(3, "x1*x2", "x1*x3", "x2*x3")
    assert complementary_edge_ideal(tri) == I(3, "x1", "x2", "x3")
    sq = SimpleGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert complementary_edge_ideal(sq) == \
        I(4, "x3*x4", "x2*x3", "x1*x4", "x1*x2")
    with pytest.warns(UserWarning):
        assert edge_ideal(SimpleGraph(2, [])).is_zero


def test_underlying_graph_round_trip():
    sq = SimpleGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert underlying_graph(edge_ideal(sq)) == sq
    with pytest.raises(DomainError):
        underlying_graph(I(2, "x1^2"))


def test_connectivity():
    path = SimpleGraph(4, [(1, 2), (2, 3), (3, 4)])
    assert is_connected(path)
    assert not is_connected(SimpleGraph(4, [(1, 2), (3, 4)]))
    # isolated vertices disconnect
    assert not is_connected(SimpleGraph(3, [(1, 2)]))


def test_quadratic_decomposition():
    path = I(3, "x1*x2", "x2*x3")
    dec = next(quadratic_decompositions(path), None)
    assert dec is not None and dec.v == 3
    assert dec.P == I(3, "x2") and dec.J == I(3, "x1*x2")
    assert _reconstruct(dec, 3) == path
    assert not list(quadratic_decompositions(I(4, "x1*x2", "x3*x4")))


def test_quadratic_decompositions_are_the_valid_vertices_descending():
    # on every graph with at most 5 vertices and none isolated: the splits
    # are those at the v whose J (the edges off v) lies in P (the variables
    # next to v), in descending v, as the validating constructor builds
    # them, and each sums back to the edge ideal
    splits = valid = stars = 0
    for n in range(2, 6):
        slots = list(combinations(range(1, n + 1), 2))
        for pick in range(1, 1 << len(slots)):
            edges = [slots[i] for i in range(len(slots)) if pick >> i & 1]
            if len({v for e in edges for v in e}) < n:
                continue
            E = edge_ideal(SimpleGraph(n, edges))
            expected = []
            for v in range(n, 0, -1):
                P = MonomialIdeal(n, [variable(n, w) for e in edges
                                      if v in e for w in e if w != v])
                J = MonomialIdeal(n, [tuple(int(w in e) for w in
                                            range(1, n + 1))
                                      for e in edges if v not in e])
                if P.contains_ideal(J):
                    expected.append((v, P.gens, J.gens))
            decs = list(quadratic_decompositions(E))
            assert [(d.v, d.P.gens, d.J.gens) for d in decs] == expected
            assert all(_same(d.J, MonomialIdeal(n, d.J.gens)) for d in decs)
            assert all(_reconstruct(d, n) == E for d in decs)
            splits += len(decs)
            valid += bool(decs)
            stars += sum(d.J.is_zero for d in decs)  # J = 0: v meets all
    assert splits > 2000 and valid > 700 and stars > 10
    with pytest.raises(DomainError):
        next(quadratic_decompositions(I(3, "x1*x2")))


def test_closed_form_matches_direct_gradient():
    tri = I(3, "x1*x2", "x1*x3", "x2*x3")
    dec = next(quadratic_decompositions(tri))
    for k in (1, 2):
        Ik = tri ** k
        forms = gradient_power_closed_forms(dec, 3, k)
        assert len(forms) == 2 * k + 1
        for ell, direct in enumerate(gradient_chain(Ik, 2 * k)):
            assert forms[ell] == direct
    m = MonomialIdeal.maximal(3)
    assert gradient_power_closed_forms(dec, 3, 2)[3] == m
    # the package root exports the decompositions its closed forms take
    assert monograd.quadratic_decompositions is quadratic_decompositions


def _closed_form_oracle(dec, n, k, ell):
    """The closed form of grad^ell(I^k) evaluated as ideal arithmetic."""
    if k <= ell:
        return MonomialIdeal.maximal(n) ** (2 * k - ell)
    v, P, J = dec.v, dec.P, dec.J
    xv = MonomialIdeal(n, [variable(n, v)])
    nn = MonomialIdeal(n, [variable(n, i) for i in range(1, n + 1) if i != v])
    out = MonomialIdeal.zero(n)
    if ell == 0:
        for r in range(k + 1):
            out = out + (xv ** (k - r)) * (P ** (k - r)) * (J ** r)
        return out
    for r in range(ell + 1):
        out = out + (xv ** (k - r)) * (nn ** r) * (P ** (k - ell))
    for s in range(ell + 1, k + 1):
        out = out + ((xv ** (k - s)) * (nn ** ell) * (P ** (k - s))
                     * (J ** (s - ell)))
    return out


def _same(A, B):
    """Equal ideals with equal stored degrees and support masks."""
    return (A.n, A.gens, A._degs, A._masks) == (B.n, B.gens, B._degs, B._masks)


def test_closed_forms_match_ideal_arithmetic():
    # every decomposition at its top valid vertex and every k <= 3 equals
    # the oracle, stored degrees and support masks included
    decs = 0
    for J in two_linear_edge_ideals(5):
        dec = next(quadratic_decompositions(J))
        decs += 1
        for k in (1, 2, 3):
            forms = gradient_power_closed_forms(dec, J.n, k)
            assert len(forms) == 2 * k + 1
            for ell, form in enumerate(forms):
                assert _same(form, _closed_form_oracle(dec, J.n, k, ell)), \
                    (J, k, ell)
    assert decs > 600
    with pytest.raises(DomainError):
        gradient_power_closed_forms(dec, J.n, 0)


def test_closed_form_memo_keys_keep_decompositions_apart():
    # the same P with another v, in another ambient ring, or with another
    # J (the zero ideal among them): each call equals the oracle, in either
    # order and called twice, so no call depends on an earlier one
    x2 = I(3, "x2")
    cases = [(QuadraticDecomposition(3, x2, I(3, "x1*x2")), 3),
             (QuadraticDecomposition(1, x2, I(3, "x2*x3")), 3),
             (QuadraticDecomposition(1, x2, MonomialIdeal.zero(3)), 3),
             (QuadraticDecomposition(3, I(4, "x2"), I(4, "x1*x2", "x2*x4")),
              4)]
    for order in (cases, cases[::-1]):
        for dec, n in order * 2:
            for k in (2, 1, 3):
                forms = gradient_power_closed_forms(dec, n, k)
                for ell, form in enumerate(forms):
                    assert _same(form, _closed_form_oracle(dec, n, k, ell)), \
                        (dec, k, ell)


def test_library_built_ideals_match_the_validating_constructor():
    # edge ideals, complementary edge ideals and the P and J of a
    # decomposition skip the constructor's checks: on every graph with at
    # most 5 vertices they equal what the constructor builds, stored
    # degrees and support masks included
    decs = 0
    for n in range(2, 6):
        slots = list(combinations(range(1, n + 1), 2))
        for pick in range(1, 1 << len(slots)):
            edges = [slots[i] for i in range(len(slots)) if pick >> i & 1]
            G = SimpleGraph(n, edges)
            E = edge_ideal(G)
            assert _same(E, MonomialIdeal(n, [
                tuple(int(v in e) for v in range(1, n + 1)) for e in edges]))
            assert _same(complementary_edge_ideal(G), MonomialIdeal(n, [
                tuple(int(v not in e) for v in range(1, n + 1))
                for e in edges]))
            if E.support != frozenset(range(1, n + 1)):
                continue
            dec = next(quadratic_decompositions(E), None)
            if dec is None:
                continue
            decs += 1
            nbrs = G.neighbors(dec.v)
            assert _same(dec.P, MonomialIdeal(n, [variable(n, w)
                                                  for w in nbrs]))
            assert _same(dec.J, MonomialIdeal(n, [
                tuple(int(v in e) for v in range(1, n + 1))
                for e in edges if dec.v not in e]))
    assert decs > 500


def test_family_reg_gap_branches():
    neg = family_reg_gap(-2)
    assert dict(neg.parameters)["b"] == 4
    assert neg.expected_reg == 5 and neg.expected_reg_gradient == 7
    zero = family_reg_gap(0)
    assert zero.expected_reg == zero.expected_reg_gradient == 3
    pos = family_reg_gap(3)
    assert pos.expected_reg == 4 and pos.expected_reg_gradient == 1
    assert pos.ideal.n == 2


def test_family_overlap_run():
    J = family_overlap_run(3)
    assert J.n == 6 and J.mu == 4 and J.is_equigenerated and J.alpha == 3
    with pytest.raises(DomainError):
        family_overlap_run(2)


def test_gradient_of_cedge_is_equigenerated():
    sq = SimpleGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    J = complementary_edge_ideal(sq)
    gJ = gradient(J)
    assert gJ.is_equigenerated and gJ.alpha == 1
