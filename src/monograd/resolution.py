"""Betti numbers and Castelnuovo-Mumford regularity.

Hochster's formula drives the squarefree path; non-squarefree ideals go
through polarization, which preserves the graded Betti table.  An
independent Koszul-strand oracle computes the same Tor dimensions by exact
rank computation and is used as a cross-check everywhere both apply.

Only vertex subsets W in which every vertex lies in some minimal nonface
contained in W can contribute to Hochster's sum (otherwise the restricted
complex is a cone, hence acyclic), so the sum runs over unions of minimal
nonfaces rather than all 2^n subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .caps import Caps, default_caps
from .complexes import SimplicialComplex, stanley_reisner_complex
from .errors import DomainError, ResourceCapError
from .exact_rank import sparse_rank
from .gradient import gradient_chain
from .monomials import (
    MonomialIdeal,
    deg,
    mono_mul,
    monomials_of_degree,
    supp,
    variable,
)
from .structure import UNDECIDED, linear_quotients_order


# ---------------------------------------------------------------------------
# Betti tables

@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers, stored in the quotient convention.

    entries[(i, j)] = beta_{i,j}(S/I) for i >= 1; the ideal convention is
    the shift beta_{i,j}(I) = beta_{i+1,j}(S/I).
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
        return max(i - 1 for (i, j) in self.entries)


# ---------------------------------------------------------------------------
# Hochster's formula

def _nonface_unions(delta: SimplicialComplex, caps: Caps) -> List[int]:
    """All unions of minimal nonfaces (bitmasks), the empty union included."""
    unions = {0}
    for m in delta.nonface_masks:
        unions |= {u | m for u in unions}
        if len(unions) > caps.nonface_unions:
            raise ResourceCapError("nonface-unions", caps.nonface_unions,
                                   len(unions))
    return sorted(unions)


def hochster_betti(I: MonomialIdeal, i: int, j: int) -> int:
    """Quotient-indexed beta_{i,j}(S/I) for squarefree proper I."""
    if i < 0 or j < 0:
        raise DomainError("Betti indices must be nonnegative")
    if not I.is_squarefree:
        raise DomainError("hochster_betti requires a squarefree ideal")
    if I.is_unit:
        raise DomainError("hochster_betti requires a proper ideal")
    if j > I.n:
        return 0
    delta = stanley_reisner_complex(I)
    s = j - i - 1
    total = 0
    for w in _nonface_unions(delta, default_caps()):
        if bin(w).count("1") != j:
            continue
        total += delta.reduced_homology_dim(s, within=w)
    return total


def _hochster_table(I: MonomialIdeal, caps: Caps) -> BettiTable:
    delta = stanley_reisner_complex(I)
    entries: Dict[Tuple[int, int], int] = {}
    for w in _nonface_unions(delta, caps):
        j = bin(w).count("1")
        for s, h in delta.homology_profile(within=w).items():
            i = j - s - 1
            if (i, j) == (0, 0):
                continue  # the free part of S/I, not a syzygy of I
            entries[(i, j)] = entries.get((i, j), 0) + h
    return BettiTable(entries, engine="hochster")


def _hochster_regularity(I: MonomialIdeal, caps: Caps) -> int:
    """reg(I) = 2 + max dimension of nonvanishing restricted homology."""
    delta = stanley_reisner_complex(I)
    best = -2  # below any dimension, including H_{-1} of the empty complex
    # larger W first: lets top-down scans stop early on dominated subsets
    for w in sorted(_nonface_unions(delta, caps),
                    key=lambda m: -bin(m).count("1")):
        if w == 0:
            continue
        card = bin(w).count("1")
        if card - 2 <= best:
            continue  # any homology here cannot beat the current max
        s = delta.top_nonzero_homology(within=w, stop_below=best)
        if s is not None and s > best:
            best = s
    if best == -2 and not I.is_zero:
        # proper nonzero squarefree ideals always exhibit homology at the
        # support of a single generator, so this branch is unreachable
        raise AssertionError("no Hochster homology found for a nonzero ideal")
    return best + 2


# ---------------------------------------------------------------------------
# polarization

@dataclass(frozen=True)
class Polarization:
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
    max_exp = [max((u[i] for u in I.gens), default=0) for i in range(I.n)]
    slots: List[Tuple[int, int]] = []
    offset = {}
    for i in range(I.n):
        offset[i] = len(slots)
        for t in range(max_exp[i]):
            slots.append((i + 1, t + 1))
    total = len(slots)
    if total > caps.polarized_vars:
        raise ResourceCapError("polarized-vars", caps.polarized_vars, total)
    gens = []
    for u in I.gens:
        w = [0] * total
        for i, e in enumerate(u):
            for t in range(e):
                w[offset[i] + t] = 1
        gens.append(tuple(w))
    return Polarization(MonomialIdeal(total, gens), tuple(slots))


# ---------------------------------------------------------------------------
# Koszul strand oracle

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
    caps = caps or default_caps()
    n = I.n
    if i > n:
        return 0

    def strand_basis(ii: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        d = j - ii
        if d < 0 or ii < 0 or ii > n:
            return []
        count = math.comb(n, ii) * (math.comb(n + d - 1, d) if n else (d == 0))
        if count > caps.component_enum:
            raise ResourceCapError("component-enum", caps.component_enum, count)
        from itertools import combinations

        basis = []
        for F in combinations(range(1, n + 1), ii):
            for w in monomials_of_degree(n, d):
                if not I.contains(w):
                    basis.append((F, w))
        return basis

    def differential(source, target_index):
        cols = []
        for F, w in source:
            col = {}
            for k, p in enumerate(F):
                G = F[:k] + F[k + 1:]
                v = mono_mul(w, variable(len(w), p))
                row = target_index.get((G, v))
                if row is not None:
                    col[row] = -1 if k % 2 else 1
            cols.append(col)
        return cols

    b_i = strand_basis(i)
    if not b_i:
        return 0
    b_prev = strand_basis(i - 1)
    b_next = strand_basis(i + 1)
    idx_prev = {fw: r for r, fw in enumerate(b_prev)}
    idx_i = {fw: r for r, fw in enumerate(b_i)}
    rk_i = sparse_rank(differential(b_i, idx_prev)) if b_prev else 0
    rk_next = sparse_rank(differential(b_next, idx_i)) if b_next else 0
    return len(b_i) - rk_i - rk_next


def koszul_betti_table(I: MonomialIdeal, max_j: Optional[int] = None,
                       caps: Optional[Caps] = None) -> BettiTable:
    """Full quotient-convention table via the Koszul oracle.

    Internal degrees are bounded by deg(lcm of the generators), the Taylor
    complex support bound.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("Betti table needs a proper nonzero ideal")
    if max_j is None:
        lcm = [max(u[k] for u in I.gens) for k in range(I.n)]
        max_j = sum(lcm)
    entries = {}
    for i in range(1, I.n + 1):
        for j in range(i, max_j + 1):
            b = koszul_betti(I, i, j, caps)
            if b:
                entries[(i, j)] = b
    return BettiTable(entries, engine="koszul")


# ---------------------------------------------------------------------------
# engine selection

def betti_table(I: MonomialIdeal, engine: str = "auto",
                caps: Optional[Caps] = None) -> BettiTable:
    if I.is_zero or I.is_unit:
        raise DomainError("Betti table needs a proper nonzero ideal")
    caps = caps or default_caps()
    if engine == "koszul":
        return koszul_betti_table(I, caps=caps)
    if engine in ("auto", "hochster"):
        if I.is_squarefree:
            return _hochster_table(I, caps)
        try:
            pol = polarize(I, caps)
        except ResourceCapError:
            if engine == "hochster":
                raise
            return koszul_betti_table(I, caps=caps)
        table = _hochster_table(pol.ideal, caps)
        return BettiTable(table.entries, engine="hochster+polarization")
    raise DomainError(f"unknown Betti engine: {engine}")


def regularity(I: MonomialIdeal, engine: str = "auto",
               caps: Optional[Caps] = None) -> int:
    """Castelnuovo-Mumford regularity in the ideal convention.

    Engine "auto" first looks for a linear-quotients order within a budget
    of mu * n search nodes (a witness gives reg = omega), then uses
    Hochster on the (polarized) Stanley-Reisner complex, then the Koszul
    oracle.  Deciding linear quotients is NP-hard; a witness usually turns
    up within about mu nodes, and when the budget runs out the exact
    engines answer instead.
    """
    if I.is_zero:
        raise DomainError("regularity undefined for the zero ideal")
    if I.is_unit:
        return 0
    caps = caps or default_caps()
    if engine == "linear-quotients":
        if linear_quotients_order(I, caps=caps) is None:
            raise DomainError("no linear-quotients order exists")
        return I.omega
    if engine == "koszul":
        return koszul_betti_table(I, caps=caps).regularity()
    if engine == "hochster":
        return _regularity_hochster_path(I, caps)
    if engine != "auto":
        raise DomainError(f"unknown regularity engine: {engine}")

    if I.mu <= caps.lq_generators:
        order = linear_quotients_order(I, caps=caps,
                                       node_budget=I.mu * I.n)
        if order is not None and order is not UNDECIDED:
            return I.omega
    try:
        return _regularity_hochster_path(I, caps)
    except ResourceCapError:
        return koszul_betti_table(I, caps=caps).regularity()


def _regularity_hochster_path(I: MonomialIdeal, caps: Caps) -> int:
    if I.is_squarefree:
        return _hochster_regularity(I, caps)
    pol = polarize(I, caps)
    return _hochster_regularity(pol.ideal, caps)


# ---------------------------------------------------------------------------
# linear resolution predicates

def has_linear_resolution(I: MonomialIdeal, engine: str = "auto",
                          caps: Optional[Caps] = None) -> bool:
    if I.is_zero or I.is_unit:
        raise DomainError("linear-resolution test needs a proper nonzero ideal")
    if I.alpha != I.omega:
        return False
    return regularity(I, engine=engine, caps=caps) == I.alpha


@dataclass(frozen=True)
class DifferentialLinearReport:
    holds: bool
    # (ell, regularity, ok, grad^ell(I))
    levels: Tuple[Tuple[int, int, bool, MonomialIdeal], ...]

    def __bool__(self):
        return self.holds


def has_differential_linear_resolution(
        I: MonomialIdeal, engine: str = "auto",
        caps: Optional[Caps] = None) -> DifferentialLinearReport:
    """True iff every iterated gradient up to alpha has linear resolution."""
    if I.is_zero or I.is_unit:
        raise DomainError("test needs a proper nonzero ideal")
    if I.alpha != I.omega:
        raise DomainError("differential linear resolution requires an "
                          "equigenerated ideal")
    a = I.alpha
    levels = []
    for ell, J in enumerate(gradient_chain(I, a)):
        r = 0 if J.is_unit else regularity(J, engine=engine, caps=caps)
        ok = (r == a - ell) and (J.is_unit or J.omega == a - ell)
        levels.append((ell, r, ok, J))
    return DifferentialLinearReport(all(ok for _, _, ok, _ in levels),
                                    tuple(levels))
