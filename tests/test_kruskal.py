from itertools import combinations
from math import comb

import pytest

from monograd.caps import Caps
from monograd.errors import DomainError, ResourceCapError
from monograd.kruskal import (_colex_masks, closed_form_count,
                              closed_form_shadow, colex_shadow_oracle,
                              macaulay_rep, many_generators_threshold,
                              shadow_bound)


def test_macaulay_rep_examples():
    rep = macaulay_rep(5, 2)
    assert rep.terms == ((3, 2), (2, 1))
    assert rep.value == 5
    rep = macaulay_rep(15, 3)
    assert rep.terms == ((5, 3), (3, 2), (2, 1))
    assert str(rep) == "C(5,3) + C(3,2) + C(2,1)"


def test_macaulay_rep_uniqueness_and_reconstruction():
    for d in (2, 3, 4):
        for a in range(1, 200):
            rep = macaulay_rep(a, d)
            # strictly decreasing tops, valid binomials
            tops = [t for t, _ in rep.terms]
            assert tops == sorted(tops, reverse=True)
            assert rep.value == a


def test_shadow_bound_examples():
    assert shadow_bound(5, 2) == 4
    assert shadow_bound(15, 3) == 14
    assert shadow_bound(comb(6, 3), 3) == comb(6, 2)


def test_shadow_exact_on_colex_segments():
    # the greedy transform is exactly the shadow of a colex initial segment
    for d in (2, 3):
        for a in range(1, comb(7, d) + 1):
            assert shadow_bound(a, d) == colex_shadow_oracle(a, d), (a, d)


def test_colex_oracle_cap():
    with pytest.raises(ResourceCapError) as raised:
        colex_shadow_oracle(10 ** 5, 3, caps=Caps(colex_enum=100))
    # C(10, 3) = 120 is the first C(m, 3) past the cap
    assert raised.value.needed == 120


def test_colex_masks_are_the_brute_force_colex_segment():
    for d in range(1, 5):
        for m in range(d, 10):
            segment = sorted(combinations(range(1, m + 1), d),
                             key=lambda S: S[::-1])
            masks = list(_colex_masks(len(segment), d, comb(m, d)))
            assert masks == [sum(1 << (k - 1) for k in S)
                             for S in segment], (d, m)


def test_threshold():
    assert many_generators_threshold(20, 17) == 1107
    assert many_generators_threshold(20, 16) == 4814
    assert many_generators_threshold(6, 3) == comb(6, 3) - 5


def test_closed_forms_match_greedy():
    for d in range(3, 9):
        for n in range(2 * d, 21):
            a = many_generators_threshold(n, d)
            assert closed_form_count(n, d) == macaulay_rep(a, d)
            assert closed_form_shadow(n, d) == shadow_bound(a, d)
    with pytest.raises(DomainError):
        closed_form_count(5, 3)


def test_large_case_both_methods():
    # the two independent methods agree; the value is frozen here
    assert shadow_bound(1107, 17) == 4817
    assert colex_shadow_oracle(1107, 17) == 4817
    # and it is not below the next threshold
    assert 4817 >= many_generators_threshold(20, 16)


def test_shadow_degenerate():
    assert shadow_bound(0, 3) == 0
    with pytest.raises(DomainError):
        shadow_bound(3, 1)
