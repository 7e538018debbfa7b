"""Macaulay binomial expansions and Kruskal-Katona shadow bounds.

Everything is exact big-integer arithmetic.  The colex oracle enumerates
an initial segment of d-subsets and takes its literal shadow, giving an
independent check of the numeric bound.
"""

from __future__ import annotations

import math
from itertools import count
from typing import List, NamedTuple, Optional, Tuple

from .caps import Caps, default_caps
from .errors import DomainError, ResourceCapError


class MacaulayRep(NamedTuple):
    """a = sum of C(a_i, i) with a_d > a_{d-1} > ... > a_t >= t >= 1."""

    d: int
    terms: Tuple[Tuple[int, int], ...]  # (a_i, i), i descending from d

    @property
    def value(self) -> int:
        return sum(math.comb(top, low) for top, low in self.terms)

    def __str__(self):
        return " + ".join(f"C({top},{low})" for top, low in self.terms)


def macaulay_rep(a: int, d: int) -> MacaulayRep:
    """Greedy d-th binomial expansion of a."""
    if a < 1 or d < 1:
        raise DomainError("macaulay_rep needs a >= 1 and d >= 1")
    terms: List[Tuple[int, int]] = []
    rest = a
    i = d
    while rest > 0:
        # largest a_i with C(a_i, i) <= rest: double the step past a_i,
        # then bisect, keeping C(ai, i) <= rest < C(ai + step, i)
        ai, step = i, 1
        while math.comb(ai + step, i) <= rest:
            ai, step = ai + step, 2 * step
        while step > 1:
            step //= 2
            if math.comb(ai + step, i) <= rest:
                ai += step
        terms.append((ai, i))
        rest -= math.comb(ai, i)
        i -= 1
    return MacaulayRep(d, tuple(terms))


def shadow_bound(a: int, d: int) -> int:
    """The Kruskal-Katona lower bound a^(d-1) on the shadow size."""
    if d < 2:
        raise DomainError("shadow_bound needs d >= 2")
    if a == 0:
        return 0
    rep = macaulay_rep(a, d)
    return sum(math.comb(top, low - 1) for top, low in rep.terms)


def _colex_masks(a: int, d: int, cap: int):
    """The first a d-subsets of the positive integers in colex order, as
    masks (bit k-1 for k).  Colex order is the numeric order of the masks,
    so these are the a smallest integers with d bits set; Gosper's rule
    steps from one to the next.  The segment fills the d-subsets of [m]
    for m = d, d + 1, ... until C(m, d) >= a, each within the cap."""
    for m in count(d):
        if (size := math.comb(m, d)) > cap:
            raise ResourceCapError("colex-enum", cap, size)
        if size >= a:
            break
    v = (1 << d) - 1
    for _ in range(a):
        yield v
        low = v & -v
        top = v + low
        v = top | ((top ^ v) >> 2) // low


def colex_shadow_oracle(a: int, d: int, caps: Optional[Caps] = None) -> int:
    """Exact shadow size of the colex initial segment of a d-subsets."""
    if a < 0 or d < 2:
        raise DomainError("colex oracle needs a >= 0 and d >= 2")
    if a == 0:
        return 0
    caps = caps or default_caps()
    # the (d-1)-subsets, as masks: each member less one of its elements
    return len({S ^ 1 << k for S in _colex_masks(a, d, caps.colex_enum)
                for k in range(S.bit_length()) if S >> k & 1})


def many_generators_threshold(n: int, d: int) -> int:
    if not 1 <= d <= n:
        raise DomainError("need 1 <= d <= n")
    return math.comb(n, d) - 2 * d + 1


def closed_form_count(n: int, d: int) -> MacaulayRep:
    """Case-split closed form for the expansion of C(n,d) - 2d + 1."""
    if d < 3:
        raise DomainError("closed form needs d >= 3")
    if n < 2 * d:
        raise DomainError("closed form requires n >= 2d")
    terms = [(n - i, d - i + 1) for i in range(1, d - 1)]
    if 2 * d <= n <= 3 * d - 3:
        terms.append((n - d, 2))
        terms.append((2 * n - 4 * d + 2, 1))
    elif n == 3 * d - 2:
        terms.append((n - d + 1, 2))
    else:  # n >= 3d - 1
        terms.append((n - d + 1, 2))
        terms.append((n - 3 * d + 2, 1))
    return MacaulayRep(d, tuple(terms))


def closed_form_shadow(n: int, d: int) -> int:
    """Closed form for (C(n,d) - 2d + 1)^(d-1)."""
    if d < 3:
        raise DomainError("closed form needs d >= 3")
    if n < 2 * d:
        raise DomainError("closed form requires n >= 2d")
    if n <= 3 * d - 2:
        return math.comb(n, d - 1) - 1
    return math.comb(n, d - 1)
