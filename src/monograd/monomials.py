"""Exact monomials and monomial ideals.

A monomial is a plain tuple of nonnegative integer exponents; the tuple
length is the ambient variable count n.  A MonomialIdeal stores the unique
minimal monomial generating set, canonically ordered (degree ascending,
then lexicographically descending on exponent vectors), so equal ideals
compare equal structurally and all outputs are byte-deterministic.

Divisibility tests in the core are screened before any exponents are
compared: a monomial of degree d is divisible only by monomials of degree
< d (or itself), and v can divide u only if the support bitmask of v lies
inside that of u.

Variables are 1-based throughout the public API, matching x_1,...,x_n.
"""

from __future__ import annotations

import math
import warnings
from itertools import combinations, compress, count, repeat
from operator import le, neg
from typing import Iterable, NamedTuple, Optional, Sequence

from .caps import Caps, default_caps
from .errors import (DimensionMismatchError, DomainError,
                     ExponentOverflowError, ResourceCapError)

Monomial = tuple

EXPONENT_BOUND = 2**31 - 1


# ---------------------------------------------------------------------------
# monomial helpers

def deg(u: Monomial) -> int:
    return sum(u)


def supp(u: Monomial) -> frozenset:
    """Support of u: 1-based indices of variables dividing u."""
    return frozenset(i + 1 for i, e in enumerate(u) if e > 0)


def unit_monomial(n: int) -> Monomial:
    return (0,) * n


def variable(n: int, i: int) -> Monomial:
    if not 1 <= i <= n:
        raise DomainError(f"variable index {i} out of range 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def divides(u: Monomial, v: Monomial) -> bool:
    return all(map(le, u, v))


def mono_mul(u: Monomial, v: Monomial) -> Monomial:
    w = tuple(a + b for a, b in zip(u, v))
    if any(e > EXPONENT_BOUND for e in w):
        raise ExponentOverflowError(f"exponent exceeds bound {EXPONENT_BOUND}")
    return w


def mono_div(u: Monomial, v: Monomial) -> Monomial:
    """u / v, assuming v divides u."""
    if not divides(v, u):
        raise DomainError(f"{v} does not divide {u}")
    return tuple(a - b for a, b in zip(u, v))


def mono_gcd(u: Monomial, v: Monomial) -> Monomial:
    return tuple(min(a, b) for a, b in zip(u, v))


def mono_lcm(u: Monomial, v: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(u, v))


def is_squarefree_monomial(u: Monomial) -> bool:
    return all(e <= 1 for e in u)


def monomial_str(u: Monomial) -> str:
    """Render as e.g. 'x1^2*x3'; the unit monomial renders as '1'."""
    parts = []
    for i, e in enumerate(u, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def canonical_key(u: Monomial):
    # degree ascending, then lexicographically descending exponent vectors
    return (sum(u), tuple(map(neg, u)))


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


def _check_monomial(u, n: Optional[int]) -> Monomial:
    u = tuple(u)
    if n is not None and len(u) != n:
        raise DimensionMismatchError(
            f"monomial {u} has length {len(u)}, expected {n}"
        )
    if not u:
        return u
    if not all(map(isinstance, u, repeat(int))) or min(u) < 0:
        raise DomainError(f"monomial {u} has a negative or non-integer exponent")
    if max(u) > EXPONENT_BOUND:
        raise ExponentOverflowError(f"exponent exceeds bound {EXPONENT_BOUND}")
    return u


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


def _minimal_elements(gens: Sequence[Monomial]):
    """Divisibility-minimal elements, canonically sorted.

    Returns (kept, degrees, support masks) as three parallel tuples.  Each
    u is compared only with kept generators of strictly lower degree whose
    support mask lies inside that of u, so equigenerated inputs need no
    comparisons at all.
    """
    kept, degs, masks = [], [], []
    lower = []  # (v, mask) for kept v with deg(v) < the current degree
    for u in sorted(set(gens), key=canonical_key):
        d = sum(u)
        k = len(lower)
        while k < len(kept) and degs[k] < d:
            lower.append((kept[k], masks[k]))
            k += 1
        m = _support_mask(u)
        outside = ~m
        for v, vm in lower:
            if not vm & outside and divides(v, u):
                break
        else:
            kept.append(u)
            degs.append(d)
            masks.append(m)
    return tuple(kept), tuple(degs), tuple(masks)


class MonomialIdeal:
    """A monomial ideal, held as its canonical minimal generating set.

    Immutable; all operations return fresh ideals.  The zero ideal has no
    generators, the unit ideal is generated by the unit monomial.
    """

    __slots__ = ("n", "gens", "_degs", "_masks")

    def __init__(self, n: int, gens: Iterable = ()):
        if n < 0:
            raise DomainError("ambient variable count must be >= 0")
        checked = [_check_monomial(u, n) for u in gens]
        kept, degs, masks = _minimal_elements(checked)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", kept)
        # the divisibility screen of each generator, for contains()
        object.__setattr__(self, "_degs", degs)
        object.__setattr__(self, "_masks", masks)

    def __setattr__(self, *args):
        raise AttributeError("MonomialIdeal is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, (unit_monomial(n),))

    @classmethod
    def maximal(cls, n: int) -> "MonomialIdeal":
        """The graded maximal ideal (x_1, ..., x_n)."""
        return cls(n, (variable(n, i) for i in range(1, n + 1)))

    @classmethod
    def from_strings(cls, n: int, gens: Iterable[str]) -> "MonomialIdeal":
        from .ioformats import parse_monomial_string

        return cls(n, (parse_monomial_string(s, n) for s in gens))

    # -- basic queries -------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and deg(self.gens[0]) == 0

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    @property
    def is_squarefree(self) -> bool:
        return all(is_squarefree_monomial(u) for u in self.gens)

    @property
    def alpha(self) -> int:
        if self.is_zero:
            raise DomainError("alpha undefined for the zero ideal")
        return deg(self.gens[0])

    @property
    def omega(self) -> int:
        if self.is_zero:
            raise DomainError("omega undefined for the zero ideal")
        return deg(self.gens[-1])

    @property
    def mu(self) -> int:
        return len(self.gens)

    @property
    def is_equigenerated(self) -> bool:
        return (not self.is_zero) and self.alpha == self.omega

    @property
    def support(self) -> frozenset:
        s = frozenset()
        for u in self.gens:
            s |= supp(u)
        return s

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
        u = _check_monomial(u, self.n)
        d = sum(u)
        outside = ~_support_mask(u)
        for g, gd, gm in zip(self.gens, self._degs, self._masks):
            if gd > d:
                return False  # generators are degree-ascending
            if not gm & outside and divides(g, u):
                return True
        return False

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff other <= self as ideals."""
        self._check_same_ambient(other)
        return all(self.contains(u) for u in other.gens)

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
        return MonomialIdeal(self.n, self.gens + other.gens)

    def __mul__(self, other) -> "MonomialIdeal":
        if isinstance(other, tuple):
            other = MonomialIdeal(self.n, (other,))
        self._check_same_ambient(other)
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.n)
        prods = [mono_mul(u, v) for u in self.gens for v in other.gens]
        return MonomialIdeal(self.n, prods)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MonomialIdeal":
        if k < 0:
            raise DomainError("ideal power requires k >= 0")
        result = MonomialIdeal.unit(self.n)
        for _ in range(k):
            result = result * self
        return result

    def colon_variable(self, i: int) -> "MonomialIdeal":
        """(I : x_i)."""
        xi = variable(self.n, i)
        new = [
            mono_div(u, xi) if u[i - 1] > 0 else u for u in self.gens
        ]
        return MonomialIdeal(self.n, new)

    def degree_component(self, j: int, caps: Optional[Caps] = None) -> "MonomialIdeal":
        """The ideal generated by every degree-j monomial lying in I."""
        if j < 0:
            raise DomainError("degree must be >= 0")
        caps = caps or default_caps()
        total = math.comb(self.n + j - 1, j) if self.n > 0 else (1 if j == 0 else 0)
        if total > caps.component_enum:
            raise ResourceCapError("component-enum", caps.component_enum, total)
        out = set()
        for u in self.gens:
            r = j - deg(u)
            if r < 0:
                continue
            for w in monomials_of_degree(self.n, r):
                out.add(mono_mul(u, w))
        return MonomialIdeal(self.n, out)

    # -- restriction / relabeling ---------------------------------------
    def compress(self):
        """Drop unused variables; returns (ideal, sorted original indices)."""
        used = sorted(self.support)
        idx = [i - 1 for i in used]
        gens = [tuple(u[i] for i in idx) for u in self.gens]
        return MonomialIdeal(len(used), gens), used


# ---------------------------------------------------------------------------
# module-level constructors and predicates

def minimalize(gens: Iterable, n: Optional[int] = None) -> MonomialIdeal:
    gens = [tuple(u) for u in gens]
    if n is None:
        if not gens:
            raise DomainError("cannot infer ambient size from an empty set")
        n = len(gens[0])
    return MonomialIdeal(n, gens)


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
    supports = [supp(u) for u in I.gens]
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] & supports[j]:
                return False
    return True
