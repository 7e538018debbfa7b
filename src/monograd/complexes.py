"""Simplicial complexes presented by their minimal nonfaces.

Vertex sets are subsets of [n] = {1,...,n}, stored internally as bitmasks
(bit i-1 for vertex i).  Chain groups are dimension-indexed: C_s is spanned
by the faces of cardinality s+1, and H~_s = Ker(d_s)/Im(d_{s+1}), with
H~_{-1} of the complex {emptyset} one-dimensional.

The void complex (no faces at all, not even the empty face) is a distinct
flagged value; all its homology vanishes by convention.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import DomainError
from .exact_rank import sparse_rank
from .monomials import MonomialIdeal, supp


def _to_mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _from_mask(mask: int) -> FrozenSet[int]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return frozenset(out)


def _antichain(masks: Iterable[int]) -> Tuple[int, ...]:
    masks = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    kept: List[int] = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return tuple(kept)


class SimplicialComplex:
    """Complex on [n] determined by its minimal nonfaces."""

    __slots__ = ("n", "nonface_masks", "void", "_face_cache")

    def __init__(self, n: int, minimal_nonfaces: Iterable[Iterable[int]] = (),
                 void: bool = False):
        masks = _antichain(_to_mask(f) for f in minimal_nonfaces)
        if not void and 0 in masks:
            # the empty set as a nonface means no faces at all
            void, masks = True, ()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nonface_masks", () if void else masks)
        object.__setattr__(self, "void", void)
        object.__setattr__(self, "_face_cache", {})

    def __setattr__(self, *args):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def void_complex(cls, n: int) -> "SimplicialComplex":
        return cls(n, void=True)

    @property
    def minimal_nonfaces(self) -> FrozenSet[FrozenSet[int]]:
        return frozenset(_from_mask(m) for m in self.nonface_masks)

    def is_face(self, vertices: Iterable[int]) -> bool:
        if self.void:
            return False
        w = _to_mask(vertices)
        if w >> self.n:
            return False
        return not any(m & w == m for m in self.nonface_masks)

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
        cached = self._face_cache.get(within)
        if cached is not None:
            return cached
        out: Dict[int, List[int]] = {}
        if self.void:
            self._face_cache[within] = out
            return out
        out[0] = [0]
        frontier = [0]
        card = 0
        vbits = [i for i in range(self.n) if within >> i & 1]
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
                    if self._is_face_mask(g):
                        nxt.append(g)
            if nxt:
                out[card] = nxt
            frontier = nxt
        self._face_cache[within] = out
        return out

    # -- restriction ------------------------------------------------------
    def restrict(self, vertices: Iterable[int]) -> "SimplicialComplex":
        """Restriction to a vertex subset, relabeled to 1..|W|."""
        w = sorted(set(vertices))
        if any(v < 1 or v > self.n for v in w):
            raise DomainError("restriction vertices out of range")
        if self.void:
            return SimplicialComplex.void_complex(len(w))
        relabel = {v: i + 1 for i, v in enumerate(w)}
        wmask = _to_mask(w)
        # minimal nonfaces of the restriction: minimal non-faces among
        # subsets of W = minimal elements of {N : N nonface, N subseteq W}
        nfs = [m for m in self.nonface_masks if m & wmask == m]
        out_nf = [[relabel[v] for v in _from_mask(m)] for m in nfs]
        return SimplicialComplex(len(w), out_nf)

    # -- boundary maps and homology ---------------------------------------
    def boundary_matrix(self, s: int, within: Optional[int] = None):
        """Matrix of d_s : C_s -> C_{s-1} as (columns, nrows, ncols).

        Columns are dicts row->entry; rows/columns follow the canonical
        face order (cardinality, then sorted vertex tuples).
        """
        faces = self.faces_by_cardinality(within)
        source = faces.get(s + 1, [])
        target = faces.get(s, [])
        tindex = {f: i for i, f in enumerate(target)}
        cols = []
        for f in source:
            col = {}
            verts = sorted(_from_mask(f))
            for k, p in enumerate(verts):
                g = f & ~(1 << (p - 1))
                # sgn(p;F) = number of q in F with q < p
                col[tindex[g]] = -1 if k % 2 else 1
            cols.append(col)
        return cols, len(target), len(source)

    def _rank_of_boundary(self, s: int, within: Optional[int],
                          memo: Dict[int, int]) -> int:
        if s in memo:
            return memo[s]
        cols, _, _ = self.boundary_matrix(s, within)
        r = sparse_rank(cols)
        memo[s] = r
        return r

    def reduced_homology_dim(self, s: int, within: Optional[int] = None,
                             _memo: Optional[Dict[int, int]] = None) -> int:
        """dim of the s-th reduced homology over the rationals."""
        if self.void:
            return 0
        faces = self.faces_by_cardinality(within)
        dim_cs = len(faces.get(s + 1, []))
        if dim_cs == 0:
            return 0
        memo = _memo if _memo is not None else {}
        rk_s = self._rank_of_boundary(s, within, memo)
        rk_s1 = self._rank_of_boundary(s + 1, within, memo)
        return dim_cs - rk_s - rk_s1

    def homology_profile(self, within: Optional[int] = None) -> Dict[int, int]:
        """All nonzero reduced homology dimensions, by dimension s."""
        if self.void:
            return {}
        faces = self.faces_by_cardinality(within)
        if not faces:
            return {}
        memo: Dict[int, int] = {}
        top = max(faces)
        out = {}
        for s in range(-1, top):
            h = self.reduced_homology_dim(s, within, memo)
            if h:
                out[s] = h
        return out

    def top_nonzero_homology(self, within: Optional[int] = None,
                             stop_below: int = -1) -> Optional[int]:
        """Largest s with nonzero reduced homology, scanning top-down.

        Dimensions <= stop_below are not examined (returns None if nothing
        above them is nonzero)."""
        if self.void:
            return None
        faces = self.faces_by_cardinality(within)
        if not faces:
            return None
        memo: Dict[int, int] = {}
        top = max(faces) - 1
        for s in range(top, stop_below, -1):
            if self.reduced_homology_dim(s, within, memo):
                return s
        return None


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


def stanley_reisner_ideal(delta: SimplicialComplex) -> MonomialIdeal:
    """Inverse map: squarefree ideal generated on the minimal nonfaces."""
    if delta.void:
        return MonomialIdeal.unit(delta.n)
    gens = []
    for f in delta.minimal_nonfaces:
        u = [0] * delta.n
        for v in f:
            u[v - 1] = 1
        gens.append(tuple(u))
    return MonomialIdeal(delta.n, gens)
