import math
import random
from itertools import product

import pytest

import monograd.monomials as monomials
from monograd.errors import DomainError, ExponentOverflowError, ResourceCapError
from monograd.caps import Caps
from monograd.gradient import gradient
from monograd.ioformats import parse_ideal
from monograd.monomials import (EXPONENT_BOUND, MonomialIdeal,
                                divide_by_variable, divides,
                                is_complete_intersection, mono_mul,
                                monomial_str, monomials_of_degree,
                                squarefree_monomials_of_degree, supp,
                                veronese_type)


def I(n, *strs):
    return parse_ideal({"n": n, "gens": list(strs)})


def test_monomial_helpers():
    u = (2, 0, 1)
    assert supp(u) == frozenset({1, 3})
    assert monomial_str(u) == "x1^2*x3"
    assert monomial_str((0, 0, 0)) == "1"
    assert divides((1, 0, 1), (2, 0, 1))
    assert not divides((2, 0, 1), (1, 0, 1))
    assert mono_mul((1, 0), (0, 2)) == (1, 2)
    assert divide_by_variable((2, 1), 1) == (1, 1)
    assert divide_by_variable((2, 0, 1), 3) == (2, 0, 0)


def test_minimalization_and_canonical_order():
    # x1^2 is swallowed by x1; ties in degree break lexicographically
    # by descending exponent vector
    J = I(3, "x1", "x1^2", "x2*x3", "x2^2")
    assert [monomial_str(u) for u in J.gens] == ["x1", "x2^2", "x2*x3"]


def test_zero_and_unit():
    Z = MonomialIdeal.zero(3)
    U = MonomialIdeal.unit(3)
    assert Z.is_zero and not Z.is_unit
    assert U.is_unit
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
    assert m ** 2 == MonomialIdeal(3, monomials_of_degree(3, 2))


def test_colon_by_variable():
    J = I(3, "x1^2*x2", "x2*x3")
    assert J.colon_variable(2) == I(3, "x1^2", "x3")
    assert J.colon_variable(1) == I(3, "x1*x2", "x2*x3")
    assert J.colon_variable(3) == I(3, "x1^2*x2", "x2")
    for i in (0, 4, -1):
        with pytest.raises(DomainError):
            J.colon_variable(i)


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


def _canonical_key(u):
    # degree ascending, then lexicographically descending exponent vectors
    return (sum(u), tuple(-e for e in u))


def _brute_minimal(gens):
    """All-pairs minimalization, canonically sorted."""
    distinct = set(gens)
    return tuple(sorted((u for u in distinct
                         if not any(v != u and _divides(v, u) for v in distinct)),
                        key=_canonical_key))


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


# ---------------------------------------------------------------------------
# the exponent index and the rule that chooses it over a scan: more
# monomials than variables

def _index_cases():
    """(ideal, membership queries): the unit and zero ideals, n = 0, and
    seeded ideals that leave variables out, queried past every exponent
    of the generators and outside their support."""
    rng = random.Random(31)
    cases = []
    for n in (0, 1, 4):
        qs = [(0,) * n] + [tuple(rng.randint(0, 3) for _ in range(n))
                           for _ in range(5)]
        cases += [(MonomialIdeal.unit(n), qs), (MonomialIdeal.zero(n), qs)]
    for _ in range(60):
        n = rng.randint(2, 8)
        support = rng.sample(range(n), rng.randint(1, n - 1))
        gens = []
        for _ in range(rng.randint(1, 14)):
            u = [0] * n
            for _ in range(rng.randint(1, 6)):
                u[rng.choice(support)] += 1
            gens.append(tuple(u))
        J = MonomialIdeal(n, gens)
        top = max(map(max, J.gens))
        outside = [k for k in range(n) if k not in support]
        qs = [(top + 1,) * n, (EXPONENT_BOUND,) * n]
        for _ in range(20):
            u = list(rng.choice(J.gens))
            u[rng.choice(outside)] += 1  # support outside the ideal's
            qs.append(tuple(u))
            u = list(rng.choice(J.gens))
            k = rng.randrange(n)
            u[k] = rng.choice((u[k] - (u[k] > 0), u[k] + 1, top + 1,
                               EXPONENT_BOUND))
            qs.append(tuple(u))
            qs.append(tuple(rng.randint(0, top + 1) for _ in range(n)))
            qs.append(tuple(rng.randint(0, 2) if k in outside else 0
                            for k in range(n)))
        cases.append((J, qs))
    return cases


def test_index_and_scan_membership_match_divisor_lookup():
    built = scanned = 0
    for J, qs in _index_cases():
        expected = [_member_by_divisor_lookup(u, J.gens) for u in qs]
        for u, member in zip(qs, expected):
            fresh = MonomialIdeal(J.n, J.gens)  # the path the rule names
            assert fresh._index is None
            assert fresh.contains(u) == member, (J, u)
            scanned += fresh._index is None
        J._exponent_index()
        assert [J.contains(u) for u in qs] == expected, J
        built += len(qs)
    assert built > 4500 and scanned > 4500, (built, scanned)


def test_index_and_scan_contains_ideal_match_divisor_lookup():
    cases = [J for J, _ in _index_cases()]
    checked = 0
    for J in cases:
        for K in cases:
            if J.n != K.n:
                continue
            expected = all(_member_by_divisor_lookup(u, J.gens)
                           for u in K.gens)
            assert MonomialIdeal(J.n, J.gens).contains_ideal(K) == expected
            J._exponent_index()
            assert J.contains_ideal(K) == expected, (J, K)
            checked += 1
    assert checked > 500


def test_contains_builds_the_index_exactly_when_mu_exceeds_n():
    m = MonomialIdeal.maximal(3)
    queries = [(1, 1, 0), (0, 0, 1), (0, 0, 2), (0, 3, 0), (1, 0, 0),
               (0, 0, 0), (2, 2, 2)] * 5
    # m^2 on 3 variables (mu = 6 > 3) builds it on its first query, m
    # (mu = 3) and the zero ideal never do, however many queries
    for J, builds in ((m ** 2, True), (m, False),
                      (MonomialIdeal.zero(3), False)):
        assert J._index is None
        for u in queries:
            assert J.contains(u) == _member_by_divisor_lookup(u, J.gens)
            assert (J._index is not None) == builds, (J, u)
            assert J._index is None or type(J._index) is \
                monomials._ExponentIndex
        for K in (m ** 2, m ** 3, m):
            assert J.contains_ideal(K) == all(
                _member_by_divisor_lookup(u, J.gens) for u in K.gens)
        assert (J._index is not None) == builds, J


@pytest.fixture
def index_builds(monkeypatch):
    """Records the number of monomials of every exponent index built."""
    sizes = []

    class Spy(monomials._ExponentIndex):
        __slots__ = ()

        def __init__(self, gens):
            sizes.append(len(gens))
            super().__init__(gens)

    monkeypatch.setattr(monomials, "_ExponentIndex", Spy)
    return sizes


def test_minimalization_by_index_and_by_scan_match_brute_force(index_builds):
    rng = random.Random(808)
    by_index = by_scan = 0

    def draw(n, degree):
        u = [0] * n
        for _ in range(degree):
            u[rng.randrange(n)] += 1
        return tuple(u)

    for t in range(120):
        n = rng.randint(2, 9)
        if t % 2:  # at most n entries below the top degree: the scan
            top = rng.randint(2, 6)
            raw = ([draw(n, rng.randint(1, top - 1))
                    for _ in range(rng.randint(1, n))]
                   + [draw(n, top) for _ in range(rng.randint(1, 12))])
        else:  # many entries: mostly the index
            raw = [draw(n, rng.randint(1, 6))
                   for _ in range(rng.randint(60, 400))]
        index_builds.clear()
        J = MonomialIdeal(n, raw)
        assert J.gens == _brute_minimal(raw), (n, raw)
        top = max(map(sum, raw))
        below_top = len({u for u in raw if sum(u) < top})
        # the index holds the entries below the top degree, if they
        # outnumber n
        assert index_builds == ([below_top] if below_top > n else []), raw
        if below_top:  # not all of one degree
            by_index += bool(index_builds)
            by_scan += not index_builds
        _assert_rebuilds(J, raw[:10])
        assert gradient(J).gens == _brute_minimal(
            [divide_by_variable(u, k + 1) for u in J.gens
             for k in range(n) if u[k]])
    assert by_index > 30 and by_scan > 30, (by_index, by_scan)


def test_monomials_must_be_integer_sequences():
    built = I(2, "x1")
    built._exponent_index()
    for bad in ((True, 1), (0, False), (1.0, 1), ("1", 0), None, 3):
        with pytest.raises(DomainError):
            MonomialIdeal(2, [bad])
        for J in (I(2, "x1"), built):
            with pytest.raises(DomainError):
                J.contains(bad)


# ---------------------------------------------------------------------------
# ideals built from already checked monomials skip the constructor's checks

def _assert_rebuilds(J, queries):
    """J equals its generators passed through the public constructor."""
    K = MonomialIdeal(J.n, J.gens)
    assert (J.n, J.gens, J._degs, J._masks) == (K.n, K.gens, K._degs, K._masks)
    for u in queries:
        assert J.contains(u) == K.contains(u), (J, u)


def test_trusted_arithmetic_matches_public_constructor():
    checked = 0
    seen = {"mixed sum": 0, "mixed product": 0, "gradient, exponents 1 and 2+": 0}
    for n, raw, queries in _oracle_cases():
        A = MonomialIdeal(n, raw)
        B = MonomialIdeal(n, raw[1::3])
        gA = gradient(A)
        results = [gA, A + B, gA + B, A ** 0, A ** 1,
                   MonomialIdeal.maximal(n),
                   MonomialIdeal.zero(n), MonomialIdeal.unit(n)]
        seen["mixed sum"] += len({*gA._degs, *B._degs}) > 1
        exps = {e for u in A.gens for e in u}
        seen["gradient, exponents 1 and 2+"] += 1 in exps and max(exps) >= 2
        # products of the cases with exponents near the bound overflow
        if max((e for u in A.gens + B.gens for e in u), default=0) < 2**30:
            results += [A * B, A ** 2, A * gA, gA * B, gradient(A * B)]
            seen["mixed product"] += not (A.is_zero or A.is_equigenerated)
        results += [A.colon_variable(i) for i in range(1, min(n, 4) + 1)]
        for i in sorted(A.support)[:4]:
            # the two parts of a vertex splitting at x_i
            div, rest = A._split(i)
            assert len(div) + len(rest) == A.mu
            results += [MonomialIdeal._trusted(n, div, minimal=True),
                        MonomialIdeal._trusted(n, rest, minimal=True)]
        for J in results:
            _assert_rebuilds(J, queries[:15] if J.n == n else [])
            checked += 1
        # containment reads the other ideal's carried degrees and masks
        for X in results[:6]:
            for Y in results:
                if X.n == Y.n:
                    assert X.contains_ideal(Y) == \
                        all(X.contains(u) for u in Y.gens), (X, Y)
                    checked += 1
    assert checked > 4000
    assert min(seen.values()) >= 20, seen


def test_zero_variable_ideals():
    Z, U = MonomialIdeal.zero(0), MonomialIdeal.unit(0)
    assert Z.gens == () and U.gens == ((),)
    assert MonomialIdeal.maximal(0) == Z
    for J in (Z, U):
        _assert_rebuilds(J, [()])
        for K in (Z, U):
            _assert_rebuilds(J + K, [()])
            _assert_rebuilds(J * K, [()])
            assert J.contains_ideal(K) == (J == U or K == Z)
        assert gradient(J) == J and J ** 0 == U and J ** 3 == J
    assert U * () == U and (Z * ()).is_zero


def test_trusted_powers_and_overflow():
    A = I(3, "x1^2", "x1*x2*x3")
    assert A ** 0 == MonomialIdeal.unit(3) and (A ** 0).is_unit
    assert A ** 1 == A
    assert A ** 3 == MonomialIdeal(3, [tuple(map(sum, zip(u, v, w)))
                                       for u in A.gens for v in A.gens
                                       for w in A.gens])
    Z = MonomialIdeal.zero(3)
    assert (Z ** 0).is_unit
    for k in (1, 2, 5):
        assert (Z ** k).is_zero and (Z ** k).n == 3
    assert MonomialIdeal.unit(2) ** 4 == MonomialIdeal.unit(2)
    with pytest.raises(DomainError):
        MonomialIdeal.maximal(-1)
    big = MonomialIdeal(2, [(EXPONENT_BOUND - 1, 0), (0, 1)])
    with pytest.raises(ExponentOverflowError):
        big * I(2, "x1^2")
    with pytest.raises(ExponentOverflowError):
        big ** 2
    assert (big * I(2, "x1")).gens == ((1, 1), (EXPONENT_BOUND, 0))


def test_product_past_the_bound_only_in_its_largest_exponents():
    # the largest exponents sum past the bound, but they sit in different
    # variables, so every single product stays within it
    A = MonomialIdeal(2, [(EXPONENT_BOUND - 1, 0), (0, 1)])
    B = MonomialIdeal(2, [(1, 0), (0, EXPONENT_BOUND - 1)])
    P = A * B
    assert P == MonomialIdeal(2, [mono_mul(u, v) for u in A.gens for v in B.gens])
    assert P.gens == ((1, 1), (EXPONENT_BOUND, 0), (0, EXPONENT_BOUND))
    _assert_rebuilds(P, [(EXPONENT_BOUND, 1), (EXPONENT_BOUND - 1, 0)])
    # one product past the bound still raises
    with pytest.raises(ExponentOverflowError):
        A * MonomialIdeal(2, [(2, 0), (0, EXPONENT_BOUND - 1)])
