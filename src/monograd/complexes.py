"""Simplicial complexes presented by their minimal nonfaces.

Vertex sets are subsets of [n] = {1,...,n}, stored internally as bitmasks
(bit i-1 for vertex i).  Chain groups are dimension-indexed: C_s is spanned
by the faces of cardinality s+1, and H~_s = Ker(d_s)/Im(d_{s+1}), with
H~_{-1} of the complex {emptyset} one-dimensional.

The void complex (no faces at all, not even the empty face) is a distinct
flagged value; all its homology vanishes by convention.

Homology reduces the boundary maps from the top dimension down, with
clearing (Chen-Kerber, "Persistent homology computation with a twist",
2011): every face that is a pivot row of the reduced d_{s+1} is the
lowest entry of a cycle, so its column of d_s depends on earlier columns
and is never built.  The ranks over Q, and so every homology dimension,
are those of the full matrices.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import DomainError
from .exact_rank import sparse_rank
from .monomials import MonomialIdeal, _to_mask, supp


def _from_mask(mask: int) -> FrozenSet[int]:
    return frozenset(v for v in range(1, mask.bit_length() + 1)
                     if mask >> (v - 1) & 1)


def _antichain(masks: Iterable[int]) -> Tuple[int, ...]:
    masks = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: List[int] = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return tuple(kept)


class SimplicialComplex:
    """Complex on [n] determined by its minimal nonfaces."""

    __slots__ = ("n", "nonface_masks", "void")

    def __init__(self, n: int, minimal_nonfaces: Iterable[Iterable[int]] = (),
                 void: bool = False):
        masks = [_to_mask(f) for f in minimal_nonfaces]
        if any(m >> n for m in masks):
            raise DomainError(f"nonface vertices out of range 1..{n}")
        self._fill(n, _antichain(masks), void)

    @classmethod
    def _from_masks(cls, n: int,
                    nonface_masks: Tuple[int, ...]) -> "SimplicialComplex":
        """The complex on [n] with the given minimal nonfaces, masks inside
        [n] as `_antichain` returns them, taken as they are: neither
        converted from vertex lists nor cut to an antichain again."""
        delta = object.__new__(cls)
        delta._fill(n, nonface_masks, False)
        return delta

    def _fill(self, n, masks, void):
        if not void and 0 in masks:
            # the empty set as a nonface means no faces at all
            void, masks = True, ()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nonface_masks", () if void else masks)
        object.__setattr__(self, "void", void)

    def __setattr__(self, *args):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def void_complex(cls, n: int) -> "SimplicialComplex":
        return cls(n, void=True)

    @property
    def minimal_nonfaces(self) -> FrozenSet[FrozenSet[int]]:
        return frozenset(_from_mask(m) for m in self.nonface_masks)

    def _is_face_mask(self, w: int) -> bool:
        if self.void:
            return False
        return not any(m & w == m for m in self.nonface_masks)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.n, self.void, self.nonface_masks) == \
            (other.n, other.void, other.nonface_masks)

    def __hash__(self):
        return hash((self.n, self.void, self.nonface_masks))

    def __repr__(self):
        if self.void:
            return f"SimplicialComplex({self.n}, void)"
        nf = sorted(tuple(sorted(f)) for f in self.minimal_nonfaces)
        return f"SimplicialComplex({self.n}, nonfaces={nf})"

    # -- faces ----------------------------------------------------------
    def faces_by_cardinality(self, within: Optional[int] = None) -> Dict[int, List[int]]:
        """All face masks contained in `within` (a mask; default: full set),
        grouped by cardinality.  Grown incrementally so only actual faces
        are ever visited.

        Each list is in canonical order (sorted vertex tuples, compared
        lexicographically): a face is extended only by vertices above its
        maximum, in increasing order, and its parents come in that order.
        """
        if within is None:
            within = (1 << self.n) - 1
        out: Dict[int, List[int]] = {}
        if self.void:
            return out
        out[0] = [0]
        frontier = [0]
        card = 0
        vbits = [i for i in range(self.n) if within >> i & 1]
        # f + i is a face unless it contains a minimal nonface through i,
        # and only those inside `within` can be contained in it
        through = {i: [m for m in self.nonface_masks
                       if m >> i & 1 and m & within == m] for i in vbits}
        while frontier:
            card += 1
            nxt = []
            for f in frontier:
                # extend by vertices above the current max: every face is
                # reached exactly once since complexes are downward closed
                start = f.bit_length()
                for i in vbits:
                    if i < start:
                        continue
                    g = f | (1 << i)
                    if not any(m & g == m for m in through[i]):
                        nxt.append(g)
            if nxt:
                out[card] = nxt
            frontier = nxt
        return out

    # -- homology -------------------------------------------------------
    def homology_profile(self, within: Optional[int] = None) -> Dict[int, int]:
        """All nonzero reduced homology dimensions, by dimension s."""
        faces = self.faces_by_cardinality(within)
        out = {}
        rank_above = 0
        for c, rank in _boundary_ranks(faces):
            h = len(faces[c]) - rank - rank_above
            if h:
                out[c - 1] = h
            rank_above = rank
        return dict(reversed(out.items()))


def _boundary_columns(faces: Dict[int, List[int]], card: int,
                      cleared=()) -> List[Dict[int, int]]:
    """Columns of the boundary map from the faces of cardinality `card` to
    those of cardinality card - 1, indexed by position in `faces`; the
    columns at the positions in `cleared` are left out."""
    index = {f: i for i, f in enumerate(faces.get(card - 1, ()))}
    cols = []
    for i, f in enumerate(faces.get(card, ())):
        if i in cleared:
            continue
        col = {}
        sign = 1  # (-1)^k for the k-th smallest vertex of f
        rest = f
        while rest:
            low = rest & -rest
            col[index[f ^ low]] = sign
            sign = -sign
            rest ^= low
        cols.append(col)
    return cols


def _boundary_ranks(faces: Dict[int, List[int]]):
    """(c, rank of d_c) for c from the top cardinality down to 0, each d_c
    built without the columns of the pivot rows of d_{c+1}."""
    cleared = set()
    for c in range(len(faces) - 1, -1, -1):
        pivots = set()
        yield c, sparse_rank(_boundary_columns(faces, c, cleared),
                             pivot_rows=pivots)
        cleared = pivots


# ---------------------------------------------------------------------------
# Stanley-Reisner correspondence

def stanley_reisner_complex(I: MonomialIdeal) -> SimplicialComplex:
    """Complex whose minimal nonfaces are the generator supports of I."""
    if I.is_unit:
        return SimplicialComplex.void_complex(I.n)
    for u in I.gens:
        if any(e > 1 for e in u):
            raise DomainError(
                f"stanley_reisner requires a squarefree ideal; offender: {u}"
            )
    return SimplicialComplex(I.n, [sorted(supp(u)) for u in I.gens])
