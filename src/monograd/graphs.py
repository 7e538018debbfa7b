"""Graph-backed ideal constructions and parameterized ideal families.

Covers edge ideals, complementary edge ideals, connectivity and peel
orders, the x_v*P + J decomposition of quadratic squarefree ideals, the
closed-form iterated gradients of powers, and two explicit families
realizing prescribed regularity gaps.

Edge ideals, complementary edge ideals and the P and J of a
decomposition are built from distinct squarefree monomials of one degree,
which are minimal, so they skip the constructor's checks.  The closed
forms of grad^l(I^k) are unions of products of exponent-tuple sets,
formed per call from the decomposition alone.
"""

from __future__ import annotations

import warnings
from operator import add
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from .caps import default_caps
from .errors import DomainError, ResourceCapError
from .monomials import MonomialIdeal, _to_mask, supp, variable


class _Graph(NamedTuple):
    n: int
    edges: FrozenSet[FrozenSet[int]]


class SimpleGraph(_Graph):
    __slots__ = ()

    def __new__(cls, n: int, edges):
        norm = set()
        for e in edges:
            a, b = sorted(e)
            if a == b:
                raise DomainError(f"loop at vertex {a}")
            if not (1 <= a and b <= n):
                raise DomainError(f"edge {{{a},{b}}} out of range 1..{n}")
            norm.add(frozenset((a, b)))
        return super().__new__(cls, n, frozenset(norm))

    def neighbors(self, v: int) -> set:
        return {next(iter(e - {v})) for e in self.edges if v in e}

    def edge_pairs(self) -> List[Tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self.edges)


def _equigenerated(n: int, d: int, masks: dict) -> MonomialIdeal:
    """The ideal on distinct monomials u of degree d, given as {u: support
    mask of u}.  They are minimal, and sorted lexicographically descending
    they are in canonical order."""
    return MonomialIdeal._trusted(n, {u: (d, masks[u])
                                      for u in sorted(masks, reverse=True)},
                                  minimal=True)


def _squarefree(n: int, d: int, masks) -> MonomialIdeal:
    """The ideal on distinct squarefree monomials of degree d, given by
    their support masks."""
    return _equigenerated(n, d, {tuple(m >> i & 1 for i in range(n)): m
                                 for m in masks})


def edge_ideal(G: SimpleGraph) -> MonomialIdeal:
    """Quadratic squarefree ideal on the edges of G."""
    if not G.edges:
        warnings.warn("edgeless graph: edge ideal is the zero ideal",
                      stacklevel=2)
        return MonomialIdeal.zero(G.n)
    return _squarefree(G.n, 2, map(_to_mask, G.edges))


def complementary_edge_ideal(G: SimpleGraph) -> MonomialIdeal:
    """Generators x_[n]/(x_i x_j) over edges {i,j}; degree n-2 each."""
    if G.n < 2:
        raise DomainError("complementary edge ideal needs n >= 2")
    if not G.edges:
        warnings.warn("edgeless graph: complementary edge ideal is zero",
                      stacklevel=2)
        return MonomialIdeal.zero(G.n)
    full = (1 << G.n) - 1
    return _squarefree(G.n, G.n - 2, [full ^ _to_mask(e) for e in G.edges])


def is_connected(G: SimpleGraph) -> bool:
    """Connectivity over all of [n]; isolated vertices disconnect."""
    return _connected_on(list(range(1, G.n + 1)), G.edges)


def peel_order(G: SimpleGraph) -> List[int]:
    """Vertices in removal order such that every remaining graph stays
    connected; picks the largest-labeled non-cut vertex each step."""
    if not is_connected(G):
        raise DomainError("peel order requires a connected graph")
    remaining = list(range(1, G.n + 1))
    edges = set(G.edges)
    order = []
    while len(remaining) > 1:
        # a connected graph always has a non-cut vertex
        chosen = next(v for v in sorted(remaining, reverse=True)
                      if _connected_on([w for w in remaining if w != v],
                                       [e for e in edges if v not in e]))
        order.append(chosen)
        remaining.remove(chosen)
        edges = {e for e in edges if chosen not in e}
    order.extend(remaining)
    return order


def _connected_on(vertices: List[int], edges) -> bool:
    if not vertices:
        return True
    adj = {v: set() for v in vertices}
    for e in edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


# ---------------------------------------------------------------------------
# x_v * P + J decomposition of quadratic squarefree ideals

class QuadraticDecomposition(NamedTuple):
    """I = x_v * P + J with P a variable-generated prime and J inside P."""

    v: int
    P: MonomialIdeal
    J: MonomialIdeal

    def reconstruct(self, n: int) -> MonomialIdeal:
        xv = MonomialIdeal(n, (variable(n, self.v),))
        return xv * self.P + self.J


def underlying_graph(I: MonomialIdeal) -> SimpleGraph:
    """The graph whose edges are the generator supports (quadratic
    squarefree input required)."""
    if I.is_zero or not I.is_equigenerated or I.alpha != 2 or not I.is_squarefree:
        raise DomainError("need a squarefree ideal equigenerated in degree 2")
    return SimpleGraph(I.n, [tuple(sorted(supp(u))) for u in I.gens])


def quadratic_decomposition(I: MonomialIdeal) -> Optional[QuadraticDecomposition]:
    """The first of quadratic_decompositions(I), in descending v, or None
    when no vertex qualifies (possible without linear resolution)."""
    return next(quadratic_decompositions(I), None)


def quadratic_decompositions(I: MonomialIdeal):
    """Every valid x_v*P + J split of I, in descending v.

    P is generated by the variables adjacent to v, J is the edge ideal of
    the graph minus v; v is valid when J is contained in P.
    """
    G = underlying_graph(I)
    if I.support != frozenset(range(1, I.n + 1)):
        raise DomainError("decomposition requires full support; compress first")
    for v in range(I.n, 0, -1):
        nbrs = G.neighbors(v)  # not empty, as I has full support
        rest_edges = [e for e in G.edge_pairs() if v not in e]
        # J subseteq P iff every remaining edge touches a neighbor of v
        if all(a in nbrs or b in nbrs for a, b in rest_edges):
            P = _squarefree(I.n, 1, [1 << (w - 1) for w in nbrs])
            J = _squarefree(I.n, 2, map(_to_mask, rest_edges))  # 0 if none
            yield QuadraticDecomposition(v, P, J)


def gradient_power_closed_forms(dec: QuadraticDecomposition, n: int,
                                k: int) -> Tuple[MonomialIdeal, ...]:
    """The closed forms of grad^l(I^k) for l = 0..2k, with I = x_v*P + J:

        l < k:   sum over r = 0..l of x_v^(k-r) N^r P^(k-l)
                 + sum over s = l+1..k of x_v^(k-s) N^l P^(k-s) J^(s-l)
        l >= k:  m^(2k-l)

    where N is generated by the variables other than x_v, so that m^p is
    the sum of the x_v^a N^(p-a).  So the first sum is (x_v P)^(k-l) m^l,
    and the second is N^l J I^(k-l-1), as I^q is the sum over t = 0..q of
    (x_v P)^(q-t) J^t.  Each call forms its powers and products afresh, as
    sets of exponent tuples with their support masks.  Every term of a
    level is generated in degree 2k - l, so the union of its product sets
    is its minimal generating set, and products distribute over unions.
    """
    if k < 1:
        raise DomainError("k must be >= 1")

    def times(A, B):  # the products of two sets, as {u: support mask of u}
        return {tuple(map(add, u, w)): m | wm
                for u, m in A.items() for w, wm in B.items()}

    def chain(A, X, top):  # A X^q for q = 0..top
        out = [A]
        for _ in range(top):
            out.append(times(out[-1], X))
        return out

    xs = {variable(n, i): 1 << (i - 1) for i in range(1, n + 1)}
    xv = {variable(n, dec.v): 1 << (dec.v - 1)}
    M = chain({(0,) * n: 0}, xs, k)
    N = chain(M[0], {u: b for u, b in xs.items() if u not in xv}, k - 1)
    xvP = times(xv, dict(zip(dec.P.gens, dec.P._masks)))
    J = dict(zip(dec.J.gens, dec.J._masks))
    # (x_v P)^(q+1) and J I^q for q = k-1-l
    firsts, seconds = chain(xvP, xvP, k - 1), chain(J, {**xvP, **J}, k - 1)
    forms = []
    for ell in range(k):
        masks = times(firsts[k - 1 - ell], M[ell])
        masks.update(times(N[ell], seconds[k - 1 - ell]))
        forms.append(_equigenerated(n, 2 * k - ell, masks))
    forms += [_equigenerated(n, p, M[p]) for p in range(k, -1, -1)]
    return tuple(forms)


def gradient_power_closed_form(dec: QuadraticDecomposition, n: int,
                               k: int, ell: int) -> MonomialIdeal:
    """The closed form of the ell-th gradient of the k-th power of
    I = x_v*P + J (see gradient_power_closed_forms)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if not 0 <= ell <= 2 * k:
        raise DomainError(f"ell={ell} out of range 0..{2*k}")
    return gradient_power_closed_forms(dec, n, k)[ell]


# ---------------------------------------------------------------------------
# families with prescribed regularity gaps

class RegGapFamily(NamedTuple):
    ideal: MonomialIdeal
    expected_reg: int
    expected_reg_gradient: int
    parameters: Tuple[Tuple[str, int], ...] = ()


def family_reg_gap(a: int) -> RegGapFamily:
    """An ideal whose regularity exceeds that of its gradient by exactly a."""
    if a <= -1:
        b = 2 - a
        gens = [(1, 1, 0, 0), (1, 0, b, 0), (0, 1, 0, b)]
        return RegGapFamily(MonomialIdeal(4, gens), b + 1, 2 * b - 1,
                            (("b", b),))
    if a == 0:
        return RegGapFamily(family_overlap_run(3), 3, 3, (("d", 3),))
    c = 2
    b = a + 1
    gens = [(c - i, i) for i in range(c)] + [(0, b)]
    return RegGapFamily(MonomialIdeal(2, gens), b, c - 1,
                        (("b", b), ("c", c)))


def family_overlap_run(d: int) -> MonomialIdeal:
    """The d+1 consecutive windows of length d in 2d variables.

    Their (d+1)*2d exponents are bounded by the component-enum cap."""
    if d < 3:
        raise DomainError("overlap family needs d >= 3")
    n = 2 * d
    size, cap = (d + 1) * n, default_caps().component_enum
    if size > cap:
        raise ResourceCapError("component-enum", cap, size)
    return MonomialIdeal(n, [tuple(int(i <= v < i + d) for v in range(1, n + 1))
                             for i in range(1, d + 2)])
