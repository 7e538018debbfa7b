"""Exact monomials and monomial ideals.

A monomial is a plain tuple of nonnegative integer exponents; the tuple
length is the ambient variable count n.  A MonomialIdeal stores the unique
minimal monomial generating set, canonically ordered (degree ascending,
then lexicographically descending on exponent vectors), so equal ideals
compare equal structurally and all outputs are byte-deterministic.

Every ideal keeps the degree and support bitmask of each generator, and
derived ideals take them from their operands: uv has degree d_u + d_v
and mask m_u | m_v, u/x_i has degree d_u - 1 and keeps bit i - 1 unless
x_i divides u only once, and a sum keeps both operands' entries.

Divisibility is tested by a scan of the generators of degree <= deg u
whose support mask lies inside that of u, or by the exponent index, an
AND of n bitmasks.  The index keeps one table per variable: for each
exponent e that occurs there, the mask of the generators with exponent
<= e.  It is used exactly when it would hold more monomials than there
are variables: a scan visits at most mu of them and a lookup costs n
ANDs, so while mu <= n the index cannot pay for itself, and past n its
one-time build (n + sum |supp g| steps, one per support bit and one per
table entry) pays off over the batches of queries every caller makes.
The lcm-lattice walk and the polymatroidal test build it whatever mu
is; the walk derives the masks of each exact exponent from it.  The
linear-quotients search builds its own colon table
(`structure._colon_table`) from the same per-exponent masks
(`_exact_masks`).

Variables are 1-based throughout the public API, matching x_1,...,x_n.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import combinations, compress, count, repeat
from operator import add, and_, getitem, itemgetter, le, or_
from typing import Iterable, NamedTuple, Optional, Sequence

from .caps import Caps, default_caps
from .errors import (DimensionMismatchError, DomainError,
                     ExponentOverflowError, ResourceCapError)

Monomial = tuple

EXPONENT_BOUND = 2**31 - 1


# ---------------------------------------------------------------------------
# monomial helpers

def supp(u: Monomial) -> frozenset:
    """Support of u: 1-based indices of variables dividing u."""
    return frozenset(i + 1 for i, e in enumerate(u) if e > 0)


def variable(n: int, i: int) -> Monomial:
    if not 1 <= i <= n:
        raise DomainError(f"variable index {i} out of range 1..{n}")
    return (0,) * (i - 1) + (1,) + (0,) * (n - i)


def divides(u: Monomial, v: Monomial) -> bool:
    return all(map(le, u, v))


def _add_exponents(u: Monomial, v: Monomial) -> Monomial:
    return tuple(map(add, u, v))


def mono_mul(u: Monomial, v: Monomial) -> Monomial:
    w = tuple(map(add, u, v))
    if max(w, default=0) > EXPONENT_BOUND:
        raise ExponentOverflowError(f"exponent exceeds bound {EXPONENT_BOUND}")
    return w


def divide_by_variable(u: Monomial, i: int) -> Monomial:
    """u / x_i by lowering u[i-1]; requires x_i | u, which is not checked."""
    return u[:i - 1] + (u[i - 1] - 1,) + u[i:]


def monomial_str(u: Monomial) -> str:
    """Render as e.g. 'x1^2*x3'; the unit monomial renders as '1'."""
    parts = []
    for i, e in enumerate(u, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def monomials_of_degree(n: int, d: int):
    """Yield all degree-d monomials in n variables, lexicographically
    descending on exponent vectors (x_1^d first, x_n^d last)."""
    if n == 0 or d < 0:
        if n == d == 0:
            yield ()
        return
    u = [0] * n
    u[0] = d
    while True:
        yield tuple(u)
        # u[i+1:n-1] is zero for the last i < n-1 with u[i] > 0, so moving
        # one unit from u[i] to u[i+1] together with all of u[n-1] gives
        # the next exponent vector in descending lex order
        i = n - 2
        while i >= 0 and not u[i]:
            i -= 1
        if i < 0:
            return
        rest = u[-1] + 1
        u[-1] = 0
        u[i] -= 1
        u[i + 1] = rest


def squarefree_monomials_of_degree(n: int, d: int):
    for S in combinations(range(n), d):
        u = [0] * n
        for i in S:
            u[i] = 1
        yield tuple(u)


def _is_exponent_list(u) -> bool:
    """Every entry an int (not a bool) and nonnegative."""
    kinds = set(map(type, u))  # bool is an int subclass, not an exponent
    return ((kinds <= {int} or bool not in kinds
             and all(map(issubclass, kinds, repeat(int))))
            and not (u and min(u) < 0))


def _check_monomial(u, n: Optional[int]) -> Monomial:
    try:
        u = tuple(u)
    except TypeError:
        raise DomainError(f"monomial {u!r} is not an exponent list") from None
    if n is not None and len(u) != n:
        raise DimensionMismatchError(
            f"monomial {u} has length {len(u)}, expected {n}"
        )
    if not u:
        return u
    if not _is_exponent_list(u):
        raise DomainError(f"monomial {u} has a negative or non-integer exponent")
    if max(u) > EXPONENT_BOUND:
        raise ExponentOverflowError(f"exponent exceeds bound {EXPONENT_BOUND}")
    return u


def _check_ambient(n: int) -> int:
    if n < 0:
        raise DomainError("ambient variable count must be >= 0")
    return n


def _to_mask(vertices: Iterable[int]) -> int:
    """Bit v - 1 set for each vertex v (vertices start at 1)."""
    m = 0
    for v in vertices:
        if v < 1:
            raise DomainError(f"vertex {v} out of range, vertices start at 1")
        m |= 1 << (v - 1)
    return m


def _support_mask(u: Monomial) -> int:
    """Bit k set iff x_{k+1} divides u."""
    m = 0
    for k in compress(count(), u):
        m |= 1 << k
    return m


# ---------------------------------------------------------------------------
# ideals

class GeneratorStats(NamedTuple):
    alpha: int
    omega: int
    mu: int
    support: frozenset


class _AtMost(dict):
    """Exponent e -> mask of the monomials with exponent <= e at a variable,
    stored for the exponents in `exps`; any other e is rounded down."""

    __slots__ = ("exps",)

    def __missing__(self, e):
        return self[self.exps[bisect_right(self.exps, e) - 1]]


def _exact_masks(col, full: int) -> dict:
    """{e: the mask of the j with col[j] = e} over the exponents e in col,
    0 included; bit j of full stands for col[j]."""
    exact = {}
    for j, e in compress(enumerate(col), col):
        exact[e] = exact.get(e, 0) | 1 << j
    exact[0] = full ^ sum(exact.values())  # the masks are disjoint
    return exact


class _ExponentIndex:
    """Bit-sliced exponent table of monomials u_0..u_{M-1}, bit j of each
    mask standing for u_j: le[k][e] is the mask of the u_j with exponent
    <= e at x_{k+1}, for the e that occur there (0 included, le[k].exps
    ascending, the top entry `full` itself); the u_j dividing u are the
    AND over k of le[k][u_k].  The build visits each support bit (the
    exponent-0 masks are complements), then each table entry: its build
    size is n + sum |supp u_j| steps.  The mask of the u_j with exponent
    exactly e is le[k][e] XOR the entry below it.
    """

    __slots__ = ("full", "le")

    def __init__(self, gens: Sequence[Monomial]):
        self.full = full = (1 << len(gens)) - 1
        self.le = []
        for col in zip(*gens):
            exact = _exact_masks(col, full)
            le = _AtMost()
            le.exps = exps = tuple(sorted(exact))
            acc = 0
            for e in exps[:-1]:
                acc = le[e] = acc | exact[e]
            le[exps[-1]] = full
            self.le.append(le)

    def divisors(self, u) -> int:
        """The mask of the u_j dividing u."""
        return reduce(and_, map(getitem, self.le, u), self.full)


def _minimal_elements(entries: dict) -> dict:
    """The divisibility-minimal entries of {u: (deg u, support mask of u)},
    in canonical order.

    Only monomials of lower degree divide u (other than u), so entries of
    the least degree are minimal, and only the entries below the top
    degree can divide the others.  Each other u is tested against them in
    their exponent index if they outnumber n, and otherwise by a scan of
    the kept lower-degree entries whose support mask lies inside that of u.
    """
    ordered = sorted(entries.items(), reverse=True)
    ordered.sort(key=lambda e: e[1][0])  # stable: the canonical order
    if not ordered or ordered[0][1][0] == ordered[-1][1][0]:
        return dict(ordered)
    degrees = list(map(itemgetter(0), map(itemgetter(1), ordered)))
    below_top = bisect_left(degrees, degrees[-1])
    if below_top > len(ordered[0][0]):
        least = bisect_right(degrees, degrees[0])
        index = _ExponentIndex([u for u, _ in ordered[:below_top]])
        # bit j is u_j itself, if u_j is in the index, and any other
        # divisor of u_j has lower degree
        return dict(ordered[:least] + [
            (u, e) for j, (u, e) in enumerate(ordered[least:], least)
            if not index.divisors(u) & ~(1 << j)])
    kept = {}
    lower, level, top = [], [], 0  # kept (v, mask) of degree < top, = top
    for u, (d, m) in ordered:
        if d > top:
            lower += level
            level, top = [], d
        outside = ~m
        for v, vm in lower:
            if not vm & outside and divides(v, u):
                break
        else:
            kept[u] = d, m
            level.append((u, m))
    return kept


class MonomialIdeal:
    """A monomial ideal, held as its canonical minimal generating set.

    Immutable; all operations return fresh ideals.  The zero ideal has no
    generators, the unit ideal is generated by the unit monomial.
    """

    __slots__ = ("n", "gens", "_degs", "_masks", "_index")

    def __init__(self, n: int, gens: Iterable = ()):
        _check_ambient(n)
        checked = [_check_monomial(u, n) for u in gens]
        self._fill(n, _minimal_elements(
            {u: (sum(u), _support_mask(u)) for u in checked}))

    def _fill(self, n, entries):
        values = entries.values()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", tuple(entries))
        # the divisibility screen of each generator, for contains()
        object.__setattr__(self, "_degs", tuple(map(itemgetter(0), values)))
        object.__setattr__(self, "_masks", tuple(map(itemgetter(1), values)))
        # the exponent index of gens, None until it is built
        object.__setattr__(self, "_index", None)

    @classmethod
    def _trusted(cls, n: int, entries: dict, minimal=False) -> "MonomialIdeal":
        """The ideal on entries {u: (deg u, support mask of u)} of checked
        monomials, built without the constructor's checks.  With minimal
        set, the entries must be minimal and canonically ordered."""
        I = object.__new__(cls)
        I._fill(n, entries if minimal else _minimal_elements(entries))
        return I

    def __setattr__(self, *args):
        raise AttributeError("MonomialIdeal is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls._trusted(_check_ambient(n), {}, minimal=True)

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls._trusted(_check_ambient(n), {(0,) * n: (0, 0)},
                            minimal=True)

    @classmethod
    def maximal(cls, n: int) -> "MonomialIdeal":
        """The graded maximal ideal (x_1, ..., x_n)."""
        return cls._trusted(_check_ambient(n), {
            variable(n, i): (1, 1 << (i - 1)) for i in range(1, n + 1)},
            minimal=True)

    # -- basic queries -------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self._degs == (0,)

    @property
    def is_squarefree(self) -> bool:
        # a generator is squarefree iff its degree is the size of its support
        return tuple(map(int.bit_count, self._masks)) == self._degs

    @property
    def alpha(self) -> int:
        if self.is_zero:
            raise DomainError("alpha undefined for the zero ideal")
        return self._degs[0]

    @property
    def omega(self) -> int:
        if self.is_zero:
            raise DomainError("omega undefined for the zero ideal")
        return self._degs[-1]

    @property
    def mu(self) -> int:
        return len(self.gens)

    @property
    def is_equigenerated(self) -> bool:
        return (not self.is_zero) and self.alpha == self.omega

    @property
    def support(self) -> frozenset:
        m = reduce(or_, self._masks, 0)
        return frozenset(k + 1 for k in range(m.bit_length()) if m >> k & 1)

    def stats(self) -> GeneratorStats:
        if self.is_zero:
            raise DomainError("generator stats undefined for the zero ideal")
        return GeneratorStats(self.alpha, self.omega, self.mu, self.support)

    def _check_same_ambient(self, other: "MonomialIdeal"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"ambient mismatch: {self.n} vs {other.n}"
            )

    def contains(self, u) -> bool:
        return self._contains(_check_monomial(u, self.n))

    def _contains(self, u, d=None, mask=None) -> bool:
        """Membership of a checked u (of degree d and support mask `mask`):
        a lookup in the exponent index if G(I) has more than n generators,
        otherwise a scan of the generators of degree <= d whose support
        mask lies inside `mask` (see the module docstring)."""
        if self.mu > self.n:
            return self._exponent_index().divisors(u) != 0
        if d is None:
            d, mask = sum(u), _support_mask(u)
        outside = ~mask
        for g, gd, gm in zip(self.gens, self._degs, self._masks):
            if gd > d:
                return False  # generators are degree-ascending
            if not gm & outside and divides(g, u):
                return True
        return False

    def _exponent_index(self) -> _ExponentIndex:
        """The exponent index of G(I), built now if it is not yet."""
        index = self._index
        if index is None:
            index = _ExponentIndex(self.gens)
            object.__setattr__(self, "_index", index)
        return index

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff other <= self as ideals."""
        self._check_same_ambient(other)
        return all(map(self._contains, other.gens, other._degs, other._masks))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        if self.is_zero:
            return f"MonomialIdeal({self.n}, zero)"
        body = ", ".join(monomial_str(u) for u in self.gens)
        return f"MonomialIdeal({self.n}, ({body}))"

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_same_ambient(other)
        entries = dict(zip(self.gens, zip(self._degs, self._masks)))
        entries.update(zip(other.gens, zip(other._degs, other._masks)))
        return MonomialIdeal._trusted(self.n, entries)

    def __mul__(self, other) -> "MonomialIdeal":
        if isinstance(other, tuple):
            other = MonomialIdeal(self.n, (other,))
        self._check_same_ambient(other)
        # no exponent of a product exceeds its degree, so mono_mul checks
        # the products only where the largest degrees could pass the bound
        top = sum(self._degs[-1:] + other._degs[-1:])
        mul = mono_mul if top > EXPONENT_BOUND else _add_exponents
        return MonomialIdeal._trusted(self.n, {
            mul(u, v): (du + dv, mu | mv)
            for u, du, mu in zip(self.gens, self._degs, self._masks)
            for v, dv, mv in zip(other.gens, other._degs, other._masks)})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MonomialIdeal":
        if k < 0:
            raise DomainError("ideal power requires k >= 0")
        if k == 0:
            return MonomialIdeal.unit(self.n)
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def colon_variable(self, i: int) -> "MonomialIdeal":
        """(I : x_i)."""
        if not 1 <= i <= self.n:
            raise DomainError(f"variable index {i} out of range 1..{self.n}")
        div, rest = self._split(i)
        return MonomialIdeal._trusted(self.n, {**rest, **div})

    def _quotients(self) -> dict:
        """Entries of u / x_i for the u in G(I) and the x_i dividing u: each
        u is copied to one list, lowered at one variable at a time."""
        entries = {}
        for u, d, m in zip(self.gens, self._degs, self._masks):
            w, d = list(u), d - 1
            for k in compress(count(), u):
                w[k] -= 1
                entries[tuple(w)] = d, m if w[k] else m ^ 1 << k
                w[k] = u[k]
        return entries

    def _split(self, i: int):
        """Entries u / x_i of the u in G(I) that x_i divides, and the rest."""
        k, bit = i - 1, 1 << (i - 1)
        div, rest = {}, {}
        for u, d, m in zip(self.gens, self._degs, self._masks):
            if m & bit:
                e = u[k]
                div[u[:k] + (e - 1,) + u[i:]] = (d - 1, m if e > 1 else m ^ bit)
            else:
                rest[u] = (d, m)
        return div, rest

    def degree_component(self, j: int, caps: Optional[Caps] = None) -> "MonomialIdeal":
        """The ideal generated by every degree-j monomial lying in I."""
        if j < 0:
            raise DomainError("degree must be >= 0")
        caps = caps or default_caps()
        total = math.comb(self.n + j - 1, j) if self.n > 0 else (1 if j == 0 else 0)
        if total > caps.component_enum:
            raise ResourceCapError("component-enum", caps.component_enum, total)
        # the products uw have degree j and support mask m_u | m_w, and
        # exponents of at most j
        mul = mono_mul if j > EXPONENT_BOUND else _add_exponents
        cofactors, entries = {}, {}
        for u, d, m in zip(self.gens, self._degs, self._masks):
            if d > j:
                break
            if j - d not in cofactors:
                cofactors[j - d] = [(w, _support_mask(w)) for w in
                                    monomials_of_degree(self.n, j - d)]
            for w, mw in cofactors[j - d]:
                entries[mul(u, w)] = j, m | mw
        return MonomialIdeal._trusted(self.n, entries)


# ---------------------------------------------------------------------------
# module-level constructors and predicates

def veronese_type(n: int, a: Sequence[int], d: int) -> MonomialIdeal:
    """Veronese-type ideal: all degree-d monomials with exponents <= a."""
    a = tuple(a)
    if len(a) != n:
        raise DimensionMismatchError(f"bound vector length {len(a)} != n={n}")
    if any(e < 0 for e in a):
        raise DomainError("exponent bounds must be nonnegative")
    if d > sum(a):
        warnings.warn(
            f"veronese_type: d={d} exceeds |a|={sum(a)}; returning zero ideal",
            stacklevel=2,
        )
        return MonomialIdeal.zero(n)

    # bounded compositions of d in descending lexicographic order: fill
    # greedily from the left, then lower the rightmost exponent whose tail
    # can still absorb one more unit and refill that tail
    cap = [0] * (n + 1)  # cap[i] = a[i] + ... + a[n-1]
    for i in range(n - 1, -1, -1):
        cap[i] = cap[i + 1] + a[i]
    gens = []
    e = [0] * n
    i, s = -1, d
    while s >= 0:
        for j in range(i + 1, n):
            e[j] = min(a[j], s)
            s -= e[j]
        gens.append(tuple(e))
        s = 0
        for i in range(n - 1, -1, -1):
            if e[i] and s < cap[i + 1]:
                e[i] -= 1
                s += 1
                break
            s += e[i]
        else:
            break
    return MonomialIdeal(n, gens)


def is_complete_intersection(I: MonomialIdeal) -> bool:
    """Monomial regular sequence test: pairwise disjoint generator supports."""
    if I.is_zero or I.is_unit:
        raise DomainError("complete-intersection test needs a proper nonzero ideal")
    # the supports are disjoint iff their sizes add up to their union's
    return (sum(map(int.bit_count, I._masks))
            == reduce(or_, I._masks).bit_count())
