"""The gradient operator on monomial ideals.

Characteristic is fixed to zero, so the operator is purely combinatorial:
divide each minimal generator by each variable in its support.  A second
implementation via colon ideals serves as a cross-check oracle.
"""

from itertools import accumulate, repeat
from typing import Iterator

from .errors import DomainError
from .monomials import MonomialIdeal


def gradient(I: MonomialIdeal) -> MonomialIdeal:
    """Ideal generated by u/x_i for u in G(I), i in supp(u)."""
    if I.is_zero or I.is_unit:
        return I
    return MonomialIdeal._trusted(I.n, I._quotients())


def gradient_via_colon(I: MonomialIdeal) -> MonomialIdeal:
    """Sum of (I : x_i) over all variables; agrees with gradient()."""
    if I.is_zero or I.is_unit:
        return I
    out = MonomialIdeal.zero(I.n)
    for i in range(1, I.n + 1):
        out = out + I.colon_variable(i)
    return out


def gradient_chain(I: MonomialIdeal, ell: int) -> Iterator[MonomialIdeal]:
    """The ell + 1 levels I, grad(I), ..., grad^ell(I), each computed once
    (gradient() returns the zero and unit ideals unchanged)."""
    if ell < 0:
        raise DomainError("iteration count must be >= 0")
    return accumulate(repeat(None, ell), lambda J, _: gradient(J), initial=I)


def iterated_gradient(I: MonomialIdeal, ell: int) -> MonomialIdeal:
    """grad^ell(I), the last level of gradient_chain(I, ell), found without
    walking the chain past the zero or unit ideal."""
    for J in gradient_chain(I, ell):
        if J.is_zero or J.is_unit:
            break
    return J
