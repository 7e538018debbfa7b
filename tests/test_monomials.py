import math
import random
from itertools import product

import pytest

from monograd.errors import DomainError, ExponentOverflowError, ResourceCapError
from monograd.caps import Caps
from monograd.monomials import (EXPONENT_BOUND, MonomialIdeal, canonical_key,
                                deg, divides, is_complete_intersection,
                                minimalize, mono_div, mono_gcd, mono_lcm,
                                mono_mul, monomial_str, monomials_of_degree,
                                squarefree_monomials_of_degree, supp,
                                veronese_type)


def I(n, *strs):
    return MonomialIdeal.from_strings(n, list(strs))


def test_monomial_helpers():
    u = (2, 0, 1)
    assert deg(u) == 3
    assert supp(u) == frozenset({1, 3})
    assert monomial_str(u) == "x1^2*x3"
    assert monomial_str((0, 0, 0)) == "1"
    assert divides((1, 0, 1), (2, 0, 1))
    assert not divides((2, 0, 1), (1, 0, 1))
    assert mono_mul((1, 0), (0, 2)) == (1, 2)
    assert mono_div((2, 1), (1, 0)) == (1, 1)
    assert mono_gcd((2, 1), (1, 3)) == (1, 1)
    assert mono_lcm((2, 1), (1, 3)) == (2, 3)


def test_minimalization_and_canonical_order():
    # x1^2 is swallowed by x1; ties in degree break lexicographically
    # by descending exponent vector
    J = I(3, "x1", "x1^2", "x2*x3", "x2^2")
    assert [monomial_str(u) for u in J.gens] == ["x1", "x2^2", "x2*x3"]


def test_zero_and_unit():
    Z = MonomialIdeal.zero(3)
    U = MonomialIdeal.unit(3)
    assert Z.is_zero and not Z.is_unit
    assert U.is_unit and not U.is_proper
    assert Z + U == U
    assert (Z * U).is_zero
    assert U.contains((5, 0, 0))
    assert not Z.contains((0, 0, 0))
    with pytest.raises(DomainError):
        Z.stats()


def test_stats_and_flags():
    J = I(4, "x1*x2", "x1*x3^3", "x2*x4^3")
    s = J.stats()
    assert (s.alpha, s.omega, s.mu) == (2, 4, 3)
    assert s.support == frozenset({1, 2, 3, 4})
    assert not J.is_equigenerated and not J.is_squarefree
    assert I(2, "x1*x2").is_squarefree


def test_arithmetic():
    A = I(2, "x1")
    B = I(2, "x2")
    assert (A + B) == I(2, "x1", "x2")
    assert (A * B) == I(2, "x1*x2")
    assert A ** 3 == I(2, "x1^3")
    assert (A ** 0).is_unit
    m = MonomialIdeal.maximal(3)
    assert m ** 2 == minimalize(monomials_of_degree(3, 2), 3)


def test_colon_by_variable():
    J = I(3, "x1^2*x2", "x2*x3")
    assert J.colon_variable(2) == I(3, "x1^2", "x3")
    assert J.colon_variable(1) == I(3, "x1*x2", "x2*x3")


def test_degree_component():
    J = I(2, "x1^2", "x1*x2")
    assert J.degree_component(3) == I(2, "x1^3", "x1^2*x2", "x1*x2^2")
    assert J.degree_component(1).is_zero
    assert MonomialIdeal.unit(2).degree_component(0).is_unit


def test_degree_component_cap():
    J = I(3, "x1")
    tight = Caps(component_enum=1)
    with pytest.raises(ResourceCapError):
        J.degree_component(5, caps=tight)


def test_compress():
    J = I(4, "x1*x3", "x3^2")
    K, used = J.compress()
    assert K.n == 2 and tuple(used) == (1, 3)
    assert K == I(2, "x1*x2", "x2^2")


def test_contains_ideal():
    big = I(3, "x1", "x2")
    small = I(3, "x1*x2", "x2^2")
    assert big.contains_ideal(small)
    assert not small.contains_ideal(big)


def test_veronese_type():
    V = veronese_type(3, (1, 1, 1), 2)
    assert V == I(3, "x1*x2", "x1*x3", "x2*x3")
    V2 = veronese_type(2, (2, 1), 2)
    assert V2 == I(2, "x1^2", "x1*x2")
    with pytest.warns(UserWarning):
        assert veronese_type(2, (1, 1), 3).is_zero


def test_veronese_type_matches_filtered_enumeration():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = [rng.randint(0, 3) for _ in range(n)]
        d = rng.randint(0, sum(a))
        expected = [u for u in monomials_of_degree(n, d)
                    if all(e <= b for e, b in zip(u, a))]
        assert veronese_type(n, a, d) == MonomialIdeal(n, expected)
    assert veronese_type(0, (), 0).is_unit
    assert veronese_type(3, (1, 1, 1), -1).is_zero


def test_veronese_type_many_variables():
    # no recursion depth proportional to n
    assert veronese_type(1500, [1] * 1500, 1) == MonomialIdeal.maximal(1500)


def test_complete_intersection():
    assert is_complete_intersection(I(4, "x1*x2", "x3^2"))
    assert not is_complete_intersection(I(3, "x1*x2", "x2*x3"))
    with pytest.raises(DomainError):
        is_complete_intersection(MonomialIdeal.zero(2))


def test_monomial_enumeration():
    assert len(list(squarefree_monomials_of_degree(4, 2))) == 6
    assert list(squarefree_monomials_of_degree(2, 3)) == []
    # monomials_of_degree yields in descending lex order
    assert list(monomials_of_degree(3, 2)) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert list(monomials_of_degree(2, 3)) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert list(monomials_of_degree(4, 1)) == [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert list(monomials_of_degree(1, 3)) == [(3,)]
    assert list(monomials_of_degree(3, 0)) == [(0, 0, 0)]
    assert list(monomials_of_degree(0, 0)) == [()]
    assert list(monomials_of_degree(0, 2)) == []
    for n in range(1, 6):
        for d in range(6):
            out = list(monomials_of_degree(n, d))
            assert out == sorted(set(out), reverse=True)
            assert all(sum(u) == d for u in out)
            assert len(out) == math.comb(n + d - 1, d)


def test_monomials_of_degree_many_variables():
    # one generator per variable: no recursion depth proportional to n
    m = MonomialIdeal.maximal(1500)
    assert m.degree_component(1) == m


def test_exponent_overflow_is_typed():
    with pytest.raises(ExponentOverflowError):
        MonomialIdeal(2, [(EXPONENT_BOUND + 1, 0)])
    with pytest.raises(ExponentOverflowError):
        mono_mul((EXPONENT_BOUND, 0), (1, 0))
    with pytest.raises(OverflowError):
        MonomialIdeal(1, [(1,)]).contains((EXPONENT_BOUND + 1,))
    assert MonomialIdeal(1, [(EXPONENT_BOUND,)]).contains((EXPONENT_BOUND,))


# ---------------------------------------------------------------------------
# oracle for the screened minimalization and membership test

def _divides(v, u):
    return all(a <= b for a, b in zip(v, u))


def _brute_minimal(gens):
    """All-pairs minimalization, canonically sorted."""
    distinct = set(gens)
    return tuple(sorted((u for u in distinct
                         if not any(v != u and _divides(v, u) for v in distinct)),
                        key=canonical_key))


def _member_by_divisor_lookup(u, gens):
    """u lies in the ideal iff one of its divisors is a generator; divisors
    are enumerated over the exponent values the generators use."""
    gens_set = set(gens)
    choices = [sorted({g[k] for g in gens if g[k] <= e})
               for k, e in enumerate(u)]
    return any(d in gens_set for d in product(*choices))


def _oracle_cases():
    """(n, raw generators, membership queries) on seeded draws."""
    rng = random.Random(2024)

    def draw(n, degree, top, support=None):
        u = [0] * n
        places = rng.sample(range(n), support) if support else range(n)
        for _ in range(degree):
            u[rng.choice(places)] += 1
        return tuple(min(e, top) for e in u)

    def noisy(n, gens):
        # duplicates and non-minimal multiples of the drawn generators
        raw = list(gens)
        for _ in range(len(gens) // 2 + 1):
            if gens:
                raw.append(rng.choice(gens))
                raw.append(tuple(e + rng.randint(0, 2)
                                 for e in rng.choice(gens)))
        rng.shuffle(raw)
        return raw

    def queries(n, gens, count):
        out = []
        for k in range(count):
            if gens and k % 3 == 0:
                u = list(rng.choice(gens))  # a generator, multiple or divisor
                i = rng.randrange(n)
                u[i] = max(0, u[i] + rng.choice((-1, 0, 1, 2)))
                out.append(tuple(u))
            else:
                out.append(draw(n, rng.randint(0, 8), 8))
        return out

    cases = []
    for _ in range(40):  # mixed degrees, not squarefree
        n = rng.randint(2, 7)
        gens = [draw(n, rng.randint(1, 7), 4) for _ in range(rng.randint(1, 25))]
        cases.append((n, noisy(n, gens), queries(n, gens, 40)))
    for _ in range(15):  # equigenerated, squarefree and not
        n, d = rng.randint(3, 8), rng.randint(2, 4)
        gens = [draw(n, d, 1 if rng.random() < 0.5 else d)
                for _ in range(rng.randint(1, 30))]
        gens = [u for u in gens if sum(u) == d] or [draw(n, d, d)]
        cases.append((n, gens + gens[:3], queries(n, gens, 40)))
    for _ in range(10):  # exponents up to the bound
        n = rng.randint(1, 3)
        values = (0, 1, 2, EXPONENT_BOUND - 1, EXPONENT_BOUND,
                  rng.randint(3, EXPONENT_BOUND))
        gens = [tuple(rng.choice(values) for _ in range(n))
                for _ in range(rng.randint(1, 8))]
        qs = [tuple(rng.choice(values) for _ in range(n)) for _ in range(30)]
        cases.append((n, gens, qs + gens))
    for n in (70, 130):  # support masks wider than 64 bits
        for _ in range(5):
            gens = [draw(n, rng.randint(1, 5), 3, support=4)
                    for _ in range(rng.randint(5, 40))]
            qs = queries(n, gens, 20)
            qs += [draw(n, rng.randint(1, 8), 4, support=6) for _ in range(20)]
            cases.append((n, noisy(n, gens), qs))
    for n in (0, 1, 3, 70):  # zero and unit ideals
        unit = (0,) * n
        qs = [unit] + ([draw(n, 2, 2)] if n else [])
        cases.append((n, [], qs))
        cases.append((n, [unit, unit] + ([draw(n, 3, 3)] if n else []), qs))
    return cases


def test_screened_minimalization_and_contains_match_oracles():
    checked = 0
    for n, raw, queries in _oracle_cases():
        ideal = MonomialIdeal(n, raw)
        assert ideal.gens == _brute_minimal(raw), (n, raw)
        for u in queries:
            assert ideal.contains(u) == _member_by_divisor_lookup(u, ideal.gens), \
                (n, raw, u)
            checked += 1
    assert checked > 2500
