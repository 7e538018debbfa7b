"""Betti numbers and Castelnuovo-Mumford regularity.

One walk over the lcm lattice of the minimal generators gives the graded
Betti numbers, since only lattice degrees b carry any (Gasharov-Peeva-
Welker, 1999).  For b != 0, with w = supp b and G_b the generators
dividing x^b, each g in G_b has the tight set T_g = {k : g_k = b_k > 0},
and beta_{i,b}(S/I) = dim H~_{i-2}(C) for the Taylor complex restricted
below b, C = {S subseteq G_b : the union of the T_g, g in S, is not w}.
The family of the T_g, one member per generator (a set may repeat),
decides most elements by three rules, s counting the peels made:

- zero: if some member is empty (its g is a cone apex) or some vertex
  of w is in no member (C is a full simplex), C is contractible;
- sphere: if one member is left, it equals w, and C is homotopy
  equivalent to an (s-1)-sphere: beta_{s+1,b} = 1 and every other
  beta_{i,b} is zero;
- peel: if a member N has a vertex in no other member, C is homotopy
  equivalent to the suspension of the complex of the other members less
  N below w - N, so peel N (the one holding the lowest such vertex) and
  add 1 to s; an empty w is the zero rule again.

When no member has a private vertex, the family is cut to its antichain
(the minimal nonfaces of D below) and peeled again.  What is left then
has no singleton, and its homology, with i shifted by s, is that of the
Alexander dual D on w of the upper Koszul complex K^b = {F subseteq
supp b : x^(b-F) in I} (Miller-Sturmfels, Thm 1.34), k = |w| vertices:
beta_{i,b} = dim H~_{k-i-1}(D).  The minimal nonfaces of D are the
minimal tight sets; for squarefree I, D is Delta_W, W = supp b, and the
formula is Hochster's.  At s = 0 this is the presentation of b itself.
A top-down search over generator masks on the exponent index of G(I)
builds the lattice with each element's tight sets; the bottom b = 0
carries beta_{0,0} = 1.  An independent Koszul-strand oracle computes
the same Tor dimensions; polarization is a public utility and oracle.

Engine "auto" walks the lattice only when no certificate turns up: a
degree-nondecreasing linear-quotients order u_1..u_m, with r_k variables
generating (u_1..u_{k-1}) : u_k, gives beta_{i,i+j}(I) = the sum of
C(r_k, i) over the u_k of degree j (Herzog-Takayama 2002) and reg = omega.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache, reduce
from itertools import combinations, pairwise, product
from operator import or_
from typing import Dict, NamedTuple, Optional, Tuple

from .caps import Caps, default_caps
from .complexes import SimplicialComplex, _antichain
from .errors import DomainError, ResourceCapError
from .exact_rank import sparse_rank
from .gradient import gradient
from .monomials import MonomialIdeal
from .structure import UNDECIDED, QuotientOrder, linear_quotients_order


# ---------------------------------------------------------------------------
# Betti tables

class BettiTable(NamedTuple):
    """Graded Betti numbers, stored in the quotient convention.

    entries[(i, j)] = beta_{i,j}(S/I) for i >= 1; the ideal convention is
    the shift beta_{i,j}(I) = beta_{i+1,j}(S/I).  engine names what
    computed them: "linear-quotients" (read off a certificate), "hochster"
    (the lattice walk) or "koszul".
    """

    entries: Dict[Tuple[int, int], int]
    engine: str = "hochster"

    def quotient_entries(self) -> Dict[Tuple[int, int], int]:
        return dict(self.entries)

    def ideal_entries(self) -> Dict[Tuple[int, int], int]:
        return {(i - 1, j): b for (i, j), b in self.entries.items()}

    def regularity(self) -> int:
        if not self.entries:
            raise DomainError("empty Betti table has no regularity")
        return max(j - i + 1 for (i, j) in self.entries)

    def projective_dimension(self) -> int:
        if not self.entries:
            raise DomainError("empty Betti table has no projective dimension")
        return max(i - 1 for (i, j) in self.entries)


# ---------------------------------------------------------------------------
# the lcm lattice

def _lattice(I: MonomialIdeal, caps: Caps):
    """Yield (b, G_b, columns) for each element b of the lcm lattice, the
    bottom included: G_b masks the generators dividing x^b, and columns =
    {1 << k: A_k for k in supp b}, A_k those of G_b with g_k = b_k.  From
    the full mask, b_k is the largest e whose exponent mask meets G_b, the
    meet is A_k, and G_b less A_k masks the element below b that lowers
    b_k, so a stack search reaches every element; nonface-unions caps them.
    The exponent mask of e at x_k is the XOR of the consecutive masks
    le[k][d] and le[k][e] of the exponent index, d the exponent below e
    there; the walk derives each once."""
    index = I._exponent_index()
    # per variable, its nonzero exponents from the largest down, with masks
    tables = [(k, [(e, le[e] ^ le[d]) for d, e in pairwise(le.exps)][::-1])
              for k, le in enumerate(index.le)]
    seen, stack, cap = {index.full}, [index.full], caps.nonface_unions
    while stack:
        G = stack.pop()
        b, columns = [0] * I.n, {}
        for k, exponents in tables:
            for e, a in exponents:
                if a & G:
                    b[k], columns[1 << k] = e, a & G
                    if (child := G & ~a) not in seen:
                        seen.add(child)
                        stack.append(child)
                    break
        if len(seen) > cap:
            raise ResourceCapError("nonface-unions", cap, len(seen))
        yield tuple(b), G, columns


def _tight_sets(columns) -> dict:
    """{g: T_g}: the tight set {k : g_k = b_k > 0} of each generator bit g
    in some column, as a mask."""
    tight = {}
    for v, a in columns.items():
        while a:
            g = a & -a
            tight[g] = tight.get(g, 0) | v
            a ^= g
    return tight


def _element_betti(I: MonomialIdeal, members, columns) -> Dict[int, int]:
    """The Betti numbers beta_{i,b}(S/I) of a lattice element b, as
    {i: beta_{i,b}} over the nonzero ones, from G_b and its columns.

    The rules of the module docstring run on the columns A_k of the tight
    sets: a member is a generator bit, and a vertex k is private to a
    member when A_k is that one bit.  What is left after s peels is read
    off the dual D on w, with i shifted by s.
    """
    if not members:  # the bottom: beta_{0,0} = 1, the free part of S/I
        return {0: 1}
    s = 0
    while True:
        masks = columns.values()
        if 0 in masks or reduce(or_, masks, 0) != members:
            return {}  # a member tight nowhere or a vertex in none: a cone
        if not members & (members - 1):  # one member, equal to w
            return {s + 1: 1}
        for g in masks:
            if not g & (g - 1):
                # g holds the lowest private vertex: C is the suspension
                # of the complex of the other members less g's
                columns = {v: a for v, a in columns.items() if not a & g}
                members ^= g
                s += 1
                break
        else:
            tight = _tight_sets(columns)
            minimal = _antichain(tight.values())
            if len(minimal) == len(tight):
                # i = k - t - 1 + s for H~_t(D)
                w, k = sum(columns), len(columns)
                dual = SimplicialComplex._from_masks(I.n, minimal)
                return {k - t - 1 + s: h for t, h in
                        dual.homology_profile(within=w).items()}
            # keep one member per minimal tight set and peel again
            keep = {N: g for g, N in tight.items()}
            members = sum(keep[N] for N in minimal)
            columns = {v: a & members for v, a in columns.items()}


def _lattice_betti(I: MonomialIdeal, caps: Caps,
                   degree: Optional[int] = None) -> Dict[Tuple[int, int], int]:
    """Quotient-convention Betti numbers of S/I, (0, 0) included, from the
    lattice elements of the given degree only if one is given.  The whole
    lattice is built first, so that past a cap no element is decided."""
    entries: Dict[Tuple[int, int], int] = {}
    for b, members, columns in list(_lattice(I, caps)):
        if (j := sum(b)) == degree or degree is None:
            for i, h in _element_betti(I, members, columns).items():
                entries[i, j] = entries.get((i, j), 0) + h
    return entries


def hochster_betti(I: MonomialIdeal, i: int, j: int) -> int:
    """Quotient-indexed beta_{i,j}(S/I) for proper I, from the lcm-lattice
    elements of degree j."""
    if i < 0 or j < 0:
        raise DomainError("Betti indices must be nonnegative")
    if I.is_unit:
        raise DomainError("hochster_betti requires a proper ideal")
    return _lattice_betti(I, default_caps(), degree=j).get((i, j), 0)


def _hochster_regularity(I: MonomialIdeal, caps: Caps) -> int:
    """reg(I) = max over the lattice of j - i + 1 for nonzero
    beta_{i,j}(S/I), i >= 1."""
    # a generator of degree omega carries beta_1, so reg >= omega; every
    # other element has i >= 2, so once j <= best + 1 none can raise best
    best = I.omega
    # distinct elements have distinct masks G, so no columns are compared
    for j, members, columns in sorted(((sum(b), G, columns) for b, G, columns
                                       in _lattice(I, caps)), reverse=True):
        if j <= best + 1:
            break
        if profile := _element_betti(I, members, columns):
            best = max(best, j - min(profile) + 1)
    return best


# ---------------------------------------------------------------------------
# polarization

class Polarization(NamedTuple):
    """A squarefree model of I with the variable bookkeeping.

    variables[k] = (original 1-based index, slot) for new variable k+1.
    """

    ideal: MonomialIdeal
    variables: Tuple[Tuple[int, int], ...]


def polarize(I: MonomialIdeal, caps: Optional[Caps] = None) -> Polarization:
    """Standard polarization; the graded Betti tables agree entrywise."""
    if I.is_zero or I.is_unit:
        raise DomainError("polarization needs a proper nonzero ideal")
    caps = caps or default_caps()
    slots = tuple((i + 1, t) for i, col in enumerate(zip(*I.gens))
                  for t in range(1, max(col) + 1))
    if len(slots) > caps.polarized_vars:
        raise ResourceCapError("polarized-vars", caps.polarized_vars,
                               len(slots))
    # x_i^e becomes the product of the slot variables (i, 1..e)
    gens = [tuple(int(t <= u[i - 1]) for i, t in slots) for u in I.gens]
    return Polarization(MonomialIdeal(len(slots), gens), slots)


# ---------------------------------------------------------------------------
# Koszul strand oracle

def _koszul_basis(I: MonomialIdeal, i: int, j: int, caps: Caps,
                  levels: list) -> dict:
    """B_i = Lambda^i (x) (S/I)_{j-i} as {(F, w): row}, F an i-subset of
    the 0-based variables and w a standard monomial of degree j - i.
    levels[e] lists those of degree e as (w, the first variable w may still
    gain), from [[((0,) * n, 0)]]; a missing degree grows from the one below
    as an order ideal, once per list."""
    n, d = I.n, j - i
    if not 0 <= i <= n or d < 0:
        return {}
    need = math.comb(n, i) * (math.comb(n + d - 1, d) if n else (d == 0))
    if need > caps.component_enum:
        raise ResourceCapError("component-enum", caps.component_enum, need)
    while len(levels) <= d:
        levels.append([(v, k) for w, low in levels[-1] for k in range(low, n)
                       if not I._contains(
                           v := w[:k] + (w[k] + 1,) + w[k + 1:])])
    return {Fw: r for r, Fw in enumerate(product(combinations(range(n), i),
                                                 (w for w, _ in levels[d])))}


def _koszul_strand(I: MonomialIdeal, j: int, caps: Caps, rows,
                   levels: list) -> Dict[int, int]:
    """{i: beta_{i,j}(S/I)} over the i in rows with a nonzero value, from
    the degree-j strand of the Koszul complex on x_1..x_n tensored with
    S/I: beta_{i,j} = |B_i| - rk d_i - rk d_{i+1}, with d_i sending (F, w)
    to the sum over k of (-1)^k (F less F_k, w x_{F_k}), a term dropped
    when w x_{F_k} is in I.  Each basis is built and each d_i ranked at
    most once, and only for a row with B_i nonempty: an empty B_i is 0
    and builds no neighbour.  levels is as in _koszul_basis."""
    basis = cache(lambda i: _koszul_basis(I, i, j, caps, levels))

    @cache
    def rank(i):
        source, target = basis(i), basis(i - 1)
        return sparse_rank([
            {target[key]: -1 if k % 2 else 1 for k, p in enumerate(F)
             if (key := (F[:k] + F[k + 1:],
                         w[:p] + (w[p] + 1,) + w[p + 1:])) in target}
            for F, w in source]) if source and target else 0

    return {i: b for i in rows
            if basis(i) and (b := len(basis(i)) - rank(i) - rank(i + 1))}


def koszul_betti(I: MonomialIdeal, i: int, j: int,
                 caps: Optional[Caps] = None) -> int:
    """Quotient-indexed beta_{i,j}(S/I) from the degree-j Koszul strand.

    Independent of Hochster's formula: builds the strand of the Koszul
    complex on x_1..x_n tensored with S/I and takes exact homology ranks.
    """
    if i < 0 or j < 0:
        raise DomainError("Betti indices must be nonnegative")
    if I.is_unit:
        raise DomainError("koszul_betti requires a proper ideal")
    return _koszul_strand(I, j, caps or default_caps(), (i,),
                          [[((0,) * I.n, 0)]]).get(i, 0)


def koszul_betti_table(I: MonomialIdeal,
                       caps: Optional[Caps] = None) -> BettiTable:
    """Full quotient-convention table via the Koszul oracle, one strand
    per internal degree j.

    Internal degrees are bounded by deg(lcm of the generators), the Taylor
    complex support bound.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("Betti table needs a proper nonzero ideal")
    caps = caps or default_caps()
    entries, levels = {}, [[((0,) * I.n, 0)]]
    for j in range(1, sum(map(max, zip(*I.gens))) + 1):
        strand = _koszul_strand(I, j, caps, range(1, min(I.n, j) + 1), levels)
        entries.update(((i, j), b) for i, b in strand.items())
    return BettiTable(entries, engine="koszul")


# ---------------------------------------------------------------------------
# engine selection

def _certificate(I: MonomialIdeal, caps: Caps) -> Optional[QuotientOrder]:
    """A degree-nondecreasing linear-quotients order found within mu * n
    search nodes, or None; no search runs past the lq-generators cap."""
    if I.mu > caps.lq_generators:
        return None
    order = linear_quotients_order(I, caps=caps, node_budget=I.mu * I.n)
    return None if order is UNDECIDED else order


def betti_table(I: MonomialIdeal, engine: str = "auto",
                caps: Optional[Caps] = None) -> BettiTable:
    """Graded Betti table of S/I.  Engine "hochster" is the lcm-lattice
    walk; "auto" first looks for a linear-quotients certificate (see
    regularity) and reads the table off it, then walks the lattice, then
    falls back to the Koszul oracle past a cap."""
    if I.is_zero or I.is_unit:
        raise DomainError("Betti table needs a proper nonzero ideal")
    caps = caps or default_caps()
    if engine == "koszul":
        return koszul_betti_table(I, caps=caps)
    if engine not in ("auto", "hochster"):
        raise DomainError(f"unknown Betti engine: {engine}")
    if engine == "auto" and (q := _certificate(I, caps)) is not None:
        entries = Counter()  # beta_{i+1,i+j}(S/I) += C(r_k, i)
        for u, r in zip(q.order, q.colon_sizes):
            for i in range(r + 1):
                entries[i + 1, i + sum(u)] += math.comb(r, i)
        return BettiTable(dict(entries), engine="linear-quotients")
    try:
        entries = _lattice_betti(I, caps)
    except ResourceCapError:
        if engine == "hochster":
            raise
        return koszul_betti_table(I, caps=caps)
    del entries[(0, 0)]  # the free part of S/I, not a syzygy of I
    return BettiTable(entries)


def regularity(I: MonomialIdeal, engine: str = "auto",
               caps: Optional[Caps] = None) -> int:
    """Castelnuovo-Mumford regularity in the ideal convention.

    Engine "auto" first looks for a degree-nondecreasing linear-quotients
    order within a budget of mu * n search nodes, up to the lq-generators
    cap (a witness gives reg = omega), then walks the lcm lattice as
    engine "hochster" does, then, past a cap, uses the Koszul oracle.
    Deciding linear quotients is NP-hard; a witness usually turns up
    within about mu nodes, and when the budget runs out the exact engines
    answer instead.
    """
    if engine not in ("auto", "hochster", "koszul"):
        raise DomainError(f"unknown regularity engine: {engine}")
    if I.is_zero:
        raise DomainError("regularity undefined for the zero ideal")
    if I.is_unit:
        return 0
    caps = caps or default_caps()
    if engine == "koszul":
        return koszul_betti_table(I, caps=caps).regularity()
    if engine == "hochster":
        return _hochster_regularity(I, caps)
    if _certificate(I, caps) is not None:
        return I.omega
    try:
        return _hochster_regularity(I, caps)
    except ResourceCapError:
        return koszul_betti_table(I, caps=caps).regularity()


# ---------------------------------------------------------------------------
# linear resolution predicates

def has_linear_resolution(I: MonomialIdeal,
                          caps: Optional[Caps] = None) -> bool:
    if I.is_zero or I.is_unit:
        raise DomainError("linear-resolution test needs a proper nonzero ideal")
    if I.alpha != I.omega:
        return False
    return regularity(I, caps=caps) == I.alpha


class DifferentialLinearReport(NamedTuple):
    holds: bool
    # (ell, regularity, ok, grad^ell(I))
    levels: Tuple[Tuple[int, int, bool, MonomialIdeal], ...]

    def __bool__(self):
        return self.holds


def has_differential_linear_resolution(
        I: MonomialIdeal, caps: Optional[Caps] = None,
        _memo: Optional[Dict] = None) -> DifferentialLinearReport:
    """True iff every iterated gradient up to alpha has linear resolution.
    The memo, if given, holds [regularity, gradient or None] of each level
    by its generators, for callers that test many ideals with one set of
    caps.  A level keeps its gradient from its second visit on, so that
    the memo pins no gradient of a level that is seen once.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("test needs a proper nonzero ideal")
    if I.alpha != I.omega:
        raise DomainError("differential linear resolution requires an "
                          "equigenerated ideal")
    memo = _memo if _memo is not None else {}
    a = I.alpha
    levels, J = [], I
    for ell in range(a + 1):
        entry = memo.get(J.gens)
        hit = entry is not None
        if not hit:
            entry = memo[J.gens] = [
                0 if J.is_unit else regularity(J, caps=caps), None]
        r = entry[0]
        ok = (r == a - ell) and (J.is_unit or J.omega == a - ell)
        levels.append((ell, r, ok, J))
        if ell < a:
            J = entry[1] if entry[1] is not None else gradient(J)
            if hit:
                entry[1] = J
    return DifferentialLinearReport(all(ok for _, _, ok, _ in levels),
                                    tuple(levels))
