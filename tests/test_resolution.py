import random

import pytest

from monograd.caps import Caps
from monograd.errors import DomainError, ResourceCapError
from monograd.gradient import gradient, iterated_gradient
from monograd.graphs import family_overlap_run, family_reg_gap
from monograd.monomials import MonomialIdeal
from monograd.resolution import (betti_table,
                                 has_differential_linear_resolution,
                                 has_linear_resolution, hochster_betti,
                                 koszul_betti, polarize, regularity)
from monograd.verify import cycle_certificate, random_ideal


def I(n, *strs):
    return MonomialIdeal.from_strings(n, list(strs))


def test_square_edge_ideal_betti_table():
    # 4-cycle: 4 quadrics, 4 linear syzygies, one second syzygy
    sq = I(4, "x1*x2", "x2*x3", "x3*x4", "x1*x4")
    for engine in ("hochster", "koszul"):
        t = betti_table(sq, engine=engine)
        assert t.ideal_entries() == {(0, 2): 4, (1, 3): 4, (2, 4): 1}
        assert t.regularity() == 2
        assert t.projective_dimension() == 2


def test_hochster_betti_single_values():
    sq = I(4, "x1*x2", "x2*x3", "x3*x4", "x1*x4")
    # quotient convention: beta_{1,2}(S/I) counts the generators
    assert hochster_betti(sq, 1, 2) == 4
    assert hochster_betti(sq, 3, 4) == 1
    assert hochster_betti(sq, 2, 4) == 0
    assert koszul_betti(sq, 1, 2) == 4


def test_polarization_preserves_betti_numbers():
    J = I(2, "x1^2", "x1*x2", "x2^3")
    expected = {(0, 2): 2, (0, 3): 1, (1, 3): 1, (1, 4): 1}
    t = betti_table(J, engine="hochster")
    assert t.engine == "hochster+polarization"
    assert t.ideal_entries() == expected
    assert betti_table(J, engine="koszul").ideal_entries() == expected
    P = polarize(J)
    assert P.ideal.is_squarefree and P.ideal.n == 5


def test_polarization_cap():
    J = I(2, "x1^5", "x2^5")
    with pytest.raises(ResourceCapError):
        polarize(J, caps=Caps(polarized_vars=4))


def test_regularity_conventions():
    assert regularity(MonomialIdeal.unit(3)) == 0
    with pytest.raises(DomainError):
        regularity(MonomialIdeal.zero(3))
    m = MonomialIdeal.maximal(3)
    for k in range(1, 4):
        assert regularity(m ** k) == k


def test_regularity_engines_agree():
    rng = random.Random(5150)
    for _ in range(25):
        n = rng.randint(2, 4)
        J = random_ideal(n, 1, 3, rng.randint(1, 4), rng=rng)
        vals = {regularity(J, engine=e)
                for e in ("auto", "hochster", "koszul")}
        assert len(vals) == 1, J


def test_complete_intersection_regularity():
    # reg = sum(deg) - mu + 1 for complete intersections
    J = I(4, "x1*x2", "x3^2", "x4^3")
    assert regularity(J) == 7 - 3 + 1


def test_prescribed_gap_family():
    fam = family_reg_gap(-1)
    assert regularity(fam.ideal) == 4
    assert regularity(gradient(fam.ideal)) == 5
    overlap = family_overlap_run(3)
    assert regularity(overlap) == 3
    assert regularity(gradient(overlap)) == 3
    assert hochster_betti(gradient(overlap), 2, 4) == 1


def test_linear_resolution():
    assert has_linear_resolution(I(3, "x1*x2", "x1*x3"))
    assert not has_linear_resolution(I(4, "x1*x2", "x3*x4"))
    # not equigenerated
    assert not has_linear_resolution(I(2, "x1", "x2^2"))


def test_differential_linear_resolution_report():
    rep = has_differential_linear_resolution(I(3, "x1*x2", "x1*x3", "x2*x3"))
    assert bool(rep) and rep.holds
    assert [lvl[0] for lvl in rep.levels] == [0, 1, 2]
    rep2 = has_differential_linear_resolution(I(4, "x1*x2", "x3*x4"))
    assert not rep2


def test_cycle_certificate():
    for d in (3, 4):
        cert = cycle_certificate(d)
        assert cert.passed
        assert cert.chain_support_size == (d - 1) ** 2
    with pytest.raises(DomainError):
        cycle_certificate(2)


def test_regularity_monotone_under_variable_colon():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 4)
        J = random_ideal(n, 2, 3, rng.randint(1, 3), rng=rng)
        r = regularity(J)
        for i in range(1, n + 1):
            Q = J.colon_variable(i)
            if Q.is_proper and not Q.is_zero:
                assert regularity(Q) <= r, (J, i)
