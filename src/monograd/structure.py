"""Decision procedures for structural classes of monomial ideals:
linear quotients, vertex splittability, (componentwise) polymatroidality,
and (strong) stability.  The linear-quotients search reads one colon
table of G(I) (per variable and exponent, the generators above it and
those one above), the polymatroidal test the exponent index of G(I).

The search checks the stored order first, in one pass that builds each
candidate's colon row off the table and drops it after use; only when
that order is not a witness are the rows of all generators built for the
backtracking search.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from itertools import compress, count
from operator import and_, getitem
from typing import Dict, NamedTuple, Optional, Tuple, Union

from .caps import Caps, default_caps
from .errors import DomainError, ResourceCapError
from .monomials import (
    MonomialIdeal,
    _exact_masks,
    divide_by_variable,
    mono_mul,
    supp,
    variable,
)


class _Undecided:
    """Sentinel: a budgeted search ran out of nodes without an answer."""

    def __repr__(self):
        return "UNDECIDED"

    def __bool__(self):
        raise TypeError("undecided search result has no truth value")


UNDECIDED = _Undecided()


# ---------------------------------------------------------------------------
# linear quotients

class QuotientOrder(NamedTuple):
    order: Tuple[tuple, ...]  # permutation of the generators, by degree
    # r_k, the number of variables generating (u_1..u_{k-1}) : u_k
    colon_sizes: Tuple[int, ...]


def _colon_table(gens):
    """For each variable x_k, {e: (cover, next)} over the exponents e at x_k
    in gens: the masks of the u_j with u_j[k] > e and with u_j[k] = e + 1."""
    full = (1 << len(gens)) - 1
    table = []
    for col in zip(*gens):
        exact = _exact_masks(col, full)
        above, pairs = full, {}
        for e in sorted(exact):
            above ^= exact[e]
            pairs[e] = above, exact.get(e + 1, 0)
        table.append(pairs)
    return table


def _colon_row(table, u: tuple):
    """The colon row of candidate u: the pairs (step_k, cover_k), for the
    x_k with step_k nonzero, of the masks of the u_j with x_k dividing
    u_j : u and with u_j : u = x_k (u_j[k] = u[k] + 1, no other cover)."""
    pairs = list(map(getitem, table, u))
    once = twice = 0  # the u_j covered by at least one / two variables
    for c, _ in pairs:
        twice |= once & c
        once |= c
    single = once ^ twice
    return [(s, c) for c, x in pairs if (s := x & single)]


def _colon_size(row, prefix_mask: int) -> Optional[int]:
    """r, the number of variables generating (prefix) : u for the colon row
    of u, or None when they do not generate it.  The variables that are
    colons u_j : u, j in the prefix, generate (prefix) : u iff they divide
    every such colon."""
    covered = r = 0
    for s, c in row:
        if s & prefix_mask:
            covered |= c
            r += 1
    return None if prefix_mask & ~covered else r


def linear_quotients_order(
        I: MonomialIdeal, caps: Optional[Caps] = None,
        node_budget: Optional[int] = None,
) -> Union[QuotientOrder, None, _Undecided]:
    """Search for a degree-nondecreasing order of G(I) with
    variable-generated colon ideals.

    An ideal with linear quotients has them in such an order (Jahan-Zheng,
    JCTA 117, 2010), so each node tries only the remaining generators of
    least degree.  The stored order is checked first, in one pass over the
    colon table that holds one candidate's row at a time; when it is a witness
    the search below would find it first, spending mu nodes.  Otherwise
    the colon rows of all generators are built and the search backtracks
    over prefixes, the stored order first; admissibility of the next
    generator depends only on the prefix as a set, so dead prefixes are
    memoized.  Returns a witness order, None when the search space is
    exhausted, or UNDECIDED when a node budget is given and runs out.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("linear-quotients search needs a proper nonzero ideal")
    caps = caps or default_caps()
    m = I.mu
    if m > caps.lq_generators:
        raise ResourceCapError("lq-generators", caps.lq_generators, m)
    if m == 1:
        return QuotientOrder((I.gens[0],), (0,))

    gens, table = I.gens, _colon_table(I.gens)
    if node_budget is None or node_budget >= m:
        sizes = []
        for i, u in enumerate(gens):
            if (r := _colon_size(_colon_row(table, u), (1 << i) - 1)) is None:
                break
            sizes.append(r)
        else:
            return QuotientOrder(gens, tuple(sizes))
    return _search_order(gens, I._degs, [_colon_row(table, u) for u in gens],
                         node_budget)


def _search_order(gens, degs, rows, node_budget):
    """Backtracking over degree-nondecreasing prefixes of gens, given the
    colon row of every generator, on an explicit stack: one frame (prefix
    mask, its untried candidates) per live prefix on the path, and one
    step (i, r) from each frame to the next prefix."""
    full = (1 << len(gens)) - 1
    dead = set()
    nodes = 0
    stack, path = [], []
    prefix = 0
    while prefix != full:
        if prefix in dead:
            path.pop()
        else:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return UNDECIDED
            # G(I) is stored by degree: the least degree left starts at
            # the lowest generator not in the prefix
            low = ((prefix + 1) & ~prefix).bit_length() - 1
            high = bisect_right(degs, degs[low])
            stack.append((prefix, iter(range(low, high))))
        while stack:
            top, candidates = stack[-1]
            step = next(((i, r) for i in candidates if not top >> i & 1 and
                         (r := _colon_size(rows[i], top)) is not None), None)
            if step is not None:
                break
            dead.add(top)
            stack.pop()
            if path:
                path.pop()
        else:
            return None
        path.append(step)
        prefix = top | 1 << step[0]
    return QuotientOrder(tuple(gens[i] for i, _ in path),
                         tuple(r for _, r in path))


def has_linear_quotients(I: MonomialIdeal, caps: Optional[Caps] = None) -> bool:
    return linear_quotients_order(I, caps=caps) is not None


# ---------------------------------------------------------------------------
# vertex splittability

def is_vertex_splittable(I: MonomialIdeal,
                         _memo: Optional[Dict] = None) -> bool:
    return vertex_split_tree(I, _memo) is not None


def vertex_split_tree(I: MonomialIdeal, _memo: Optional[Dict] = None):
    """Recursion witness for vertex splittability, or None.

    Leaves are the base cases (zero, unit, principal); internal nodes record
    the splitting variable and the two parts.  The memo is keyed by the
    generators, which fix the variable indices a tree records.  Splits run
    on an explicit stack, as their depth can reach the sum of exponents.
    """
    memo = _memo if _memo is not None else {}
    stack, out = [], I
    while True:
        if not isinstance(out, MonomialIdeal):  # the tree of the top frame
            stack.pop()
            tree = out
        elif out.gens in memo:  # a part whose tree is wanted
            tree = memo[out.gens]
        elif out.mu < 2:  # zero, unit or principal: a leaf
            tree = memo[out.gens] = {"base": "zero" if out.is_zero else
                                     "unit" if out.is_unit else "principal"}
        else:
            stack.append(_split_steps(out, memo))
            tree = None
        if not stack:
            return tree
        out = stack[-1].send(tree)


def _split_steps(I: MonomialIdeal, memo: Dict):
    """vertex_split_tree on an I of two or more generators, not in the memo,
    as a frame: it yields each part it needs the tree of, is sent it, then
    stores and yields I's tree."""
    tree = None
    for i in sorted(I.support):
        # dividing by x_i keeps the multiples of x_i minimal and
        # canonically sorted, so x_i*G(I1) and G(I2) partition G(I)
        div, rest = I._split(i)
        I1 = MonomialIdeal._trusted(I.n, div, minimal=True)
        I2 = MonomialIdeal._trusted(I.n, rest, minimal=True)
        if (I1.contains_ideal(I2)
                and (t1 := (yield I1)) is not None
                and (t2 := (yield I2)) is not None):
            tree = {"split_variable": i, "divisible_part": t1, "rest": t2}
            break
    memo[I.gens] = tree
    yield tree


# ---------------------------------------------------------------------------
# polymatroidal / componentwise polymatroidal

def is_polymatroidal(I: MonomialIdeal) -> bool:
    """Bases exchange property on the exponent vectors of G(I): for u, v
    in G(I) and u_i > v_i, some j with u_j < v_j has u x_j / x_i in G(I).
    With these j as the targets of (u, i), the v no target serves have
    v_i < u_i and v_j <= u_j at every target: an AND of index masks."""
    if I.is_zero or I.is_unit:
        raise DomainError("polymatroidal test needs a proper nonzero ideal")
    if I.alpha != I.omega:
        return False
    targets = {}  # w -> the k with w x_k in G(I), over the w = g / x_k
    for g in I.gens:
        for k in compress(count(), g):
            targets.setdefault(divide_by_variable(g, k + 1), []).append(k)
    le = I._exponent_index().le
    for u in I.gens:
        for i in compress(count(), u):
            if reduce(and_, (le[j][u[j]] for j in
                             targets[divide_by_variable(u, i + 1)]),
                      le[i][u[i] - 1]):
                return False
    return True


def is_componentwise_polymatroidal(I: MonomialIdeal,
                                   caps: Optional[Caps] = None) -> bool:
    """Checks polymatroidality of every degree component.

    Degrees alpha..omega suffice: above omega each component is the
    product of m with the one below it, and products of polymatroidal
    ideals are polymatroidal.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("componentwise test needs a proper nonzero ideal")
    caps = caps or default_caps()
    for j in range(I.alpha, I.omega + 1):
        comp = I.degree_component(j, caps)
        if comp.is_zero:
            continue
        if not is_polymatroidal(comp):
            return False
    return True


# ---------------------------------------------------------------------------
# stability

def is_stable(I: MonomialIdeal) -> bool:
    return _is_stable(I, strongly=False)


def is_strongly_stable(I: MonomialIdeal) -> bool:
    return _is_stable(I, strongly=True)


def _is_stable(I: MonomialIdeal, strongly: bool) -> bool:
    """Every shift of every u in G(I) lies in I (see _shifts)."""
    if I.is_zero or I.is_unit:
        raise DomainError("stability test needs a proper nonzero ideal")
    return all(I.contains(w) for u in I.gens for w in _shifts(u, strongly))


def _shifts(u: tuple, strongly: bool):
    """The monomials u x_i / x_j for i < j, where j is the largest index in
    supp u, or any index there if strongly; none for u = 1."""
    for j in supp(u) if strongly else sorted(supp(u))[-1:]:
        shifted = divide_by_variable(u, j)
        for i in range(1, j):
            yield mono_mul(shifted, variable(len(u), i))


# ---------------------------------------------------------------------------
# closures, used by the verification harness to generate test ideals

def stable_closure(n: int, seeds) -> MonomialIdeal:
    """Smallest stable ideal containing the given monomials."""
    return _closure(n, seeds, strongly=False)


def strongly_stable_closure(n: int, seeds) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the given monomials."""
    return _closure(n, seeds, strongly=True)


def _closure(n: int, seeds, strongly: bool) -> MonomialIdeal:
    pool = {tuple(u) for u in seeds}
    frontier = list(pool)
    while frontier:
        for w in _shifts(frontier.pop(), strongly):
            if w not in pool:
                pool.add(w)
                frontier.append(w)
    return MonomialIdeal(n, pool)
