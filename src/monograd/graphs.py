"""Graph-backed ideal constructions and parameterized ideal families.

Covers edge ideals, complementary edge ideals, connectivity and peel
orders, the x_v*P + J decomposition of quadratic squarefree ideals, the
closed-form iterated gradient of powers, and two explicit families
realizing prescribed regularity gaps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from .caps import default_caps
from .errors import DomainError, ResourceCapError
from .monomials import MonomialIdeal, supp, variable


@dataclass(frozen=True)
class SimpleGraph:
    n: int
    edges: FrozenSet[FrozenSet[int]]

    def __init__(self, n: int, edges):
        norm = set()
        for e in edges:
            a, b = sorted(e)
            if a == b:
                raise DomainError(f"loop at vertex {a}")
            if not (1 <= a and b <= n):
                raise DomainError(f"edge {{{a},{b}}} out of range 1..{n}")
            norm.add(frozenset((a, b)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))

    def neighbors(self, v: int) -> set:
        return {next(iter(e - {v})) for e in self.edges if v in e}

    def edge_pairs(self) -> List[Tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self.edges)


def edge_ideal(G: SimpleGraph) -> MonomialIdeal:
    """Quadratic squarefree ideal on the edges of G."""
    if not G.edges:
        warnings.warn("edgeless graph: edge ideal is the zero ideal",
                      stacklevel=2)
        return MonomialIdeal.zero(G.n)
    return MonomialIdeal(G.n, [tuple(int(v in e) for v in range(1, G.n + 1))
                               for e in G.edge_pairs()])


def complementary_edge_ideal(G: SimpleGraph) -> MonomialIdeal:
    """Generators x_[n]/(x_i x_j) over edges {i,j}; degree n-2 each."""
    if G.n < 2:
        raise DomainError("complementary edge ideal needs n >= 2")
    if not G.edges:
        warnings.warn("edgeless graph: complementary edge ideal is zero",
                      stacklevel=2)
        return MonomialIdeal.zero(G.n)
    return MonomialIdeal(G.n, [
        tuple(int(v not in e) for v in range(1, G.n + 1))
        for e in G.edge_pairs()])


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

@dataclass(frozen=True)
class QuadraticDecomposition:
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
    """Search vertices in descending order for a valid x_v*P + J split.

    P is generated by the variables adjacent to v, J is the edge ideal of
    the graph minus v; the first v with J contained in P wins.  Returns
    None when no vertex qualifies (possible without linear resolution).
    """
    G = underlying_graph(I)
    if I.support != frozenset(range(1, I.n + 1)):
        raise DomainError("decomposition requires full support; compress first")
    for v in range(I.n, 0, -1):
        nbrs = G.neighbors(v)
        if not nbrs:
            continue
        rest_edges = [e for e in G.edge_pairs() if v not in e]
        # J subseteq P iff every remaining edge touches a neighbor of v
        if all(a in nbrs or b in nbrs for a, b in rest_edges):
            P = MonomialIdeal(I.n, [variable(I.n, w) for w in sorted(nbrs)])
            J = edge_ideal(SimpleGraph(I.n, rest_edges)) if rest_edges \
                else MonomialIdeal.zero(I.n)
            return QuadraticDecomposition(v, P, J)
    return None


def gradient_power_closed_form(dec: QuadraticDecomposition, n: int,
                               k: int, ell: int) -> MonomialIdeal:
    """Closed form for the ell-th gradient of the k-th power of
    I = x_v*P + J, evaluated as explicit ideal arithmetic."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if not 0 <= ell <= 2 * k:
        raise DomainError(f"ell={ell} out of range 0..{2*k}")
    if k <= ell:
        return MonomialIdeal.maximal(n) ** (2 * k - ell)
    v, P, J = dec.v, dec.P, dec.J
    # single variables are minimal sets, canonical in increasing index
    xv = MonomialIdeal._trusted(n, {variable(n, v): (1, 1 << (v - 1))},
                                minimal=True)
    nn = MonomialIdeal._trusted(n, {variable(n, i): (1, 1 << (i - 1))
                                    for i in range(1, n + 1) if i != v},
                                minimal=True)
    if ell == 0:
        out = MonomialIdeal.zero(n)
        for r in range(k + 1):
            out = out + (xv ** (k - r)) * (P ** (k - r)) * (J ** r)
        return out
    out = MonomialIdeal.zero(n)
    for r in range(ell + 1):
        out = out + (xv ** (k - r)) * (nn ** r) * (P ** (k - ell))
    for s in range(ell + 1, k + 1):
        out = out + (xv ** (k - s)) * (nn ** ell) * (P ** (k - s)) * (J ** (s - ell))
    return out


# ---------------------------------------------------------------------------
# families with prescribed regularity gaps

@dataclass(frozen=True)
class RegGapFamily:
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
