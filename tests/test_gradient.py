import importlib
import random

import pytest

from monograd.errors import DomainError
from monograd.gradient import (gradient, gradient_chain, gradient_via_colon,
                               iterated_gradient)
from monograd.ioformats import parse_ideal
from monograd.monomials import MonomialIdeal, _support_mask
from monograd.verify import random_ideal


def I(n, *strs):
    return parse_ideal({"n": n, "gens": list(strs)})


def test_gradient_examples():
    assert gradient(I(3, "x1*x2*x3")) == I(3, "x1*x2", "x1*x3", "x2*x3")
    assert gradient(I(2, "x1^3")) == I(2, "x1^2")
    assert gradient(I(4, "x1*x2", "x1*x3^3", "x2*x4^3")) == \
        I(4, "x1", "x2", "x3^3", "x4^3")


def test_gradient_fixed_points():
    assert gradient(MonomialIdeal.zero(3)).is_zero
    assert gradient(MonomialIdeal.unit(3)).is_unit
    # gradient of the maximal ideal is the unit ideal
    assert gradient(MonomialIdeal.maximal(3)).is_unit


def test_gradient_of_powers_of_maximal():
    m = MonomialIdeal.maximal(4)
    for k in range(1, 5):
        assert gradient(m ** k) == m ** (k - 1)


def test_iterated():
    J = I(3, "x1*x2*x3")
    assert iterated_gradient(J, 0) == J
    assert iterated_gradient(J, 2) == MonomialIdeal.maximal(3)
    assert iterated_gradient(J, 3).is_unit
    assert iterated_gradient(J, 7).is_unit


def test_gradient_chain_matches_colon_oracle():
    rng = random.Random(20261018)
    ideals = [MonomialIdeal.zero(3), MonomialIdeal.unit(3),
              MonomialIdeal.maximal(4)]
    for squarefree in (True, False):
        for _ in range(40):
            n = rng.randint(2, 5)
            ideals.append(random_ideal(n, 1, 4, rng.randint(1, 3),
                                       squarefree=squarefree, rng=rng))
    # wide ones: 20-24 variables, supports of 1-3 and exponents up to 3,
    # the first generator with an exponent >= 2
    for _ in range(8):
        n, gens = rng.randint(20, 24), []
        for g in range(rng.randint(2, 6)):
            u = [0] * n
            for k in rng.sample(range(n), rng.randint(1, 3)):
                u[k] = rng.randint(2 if g == 0 else 1, 3)
            gens.append(u)
        J = MonomialIdeal(n, gens)
        assert any(e >= 2 for u in J.gens for e in u), J
        ideals.append(J)
    for J in ideals:
        # the narrow generators have degree <= 4, so ell = 6 runs past
        # their fixed point
        for ell in (0, 1, 6):
            chain = list(gradient_chain(J, ell))
            oracle = [J]
            for _ in range(ell):
                oracle.append(gradient_via_colon(oracle[-1]))
            assert chain == oracle
            assert iterated_gradient(J, ell) == chain[-1]
            # the (degree, support mask) each level took from its operand
            for K in chain:
                assert K._degs == tuple(map(sum, K.gens)), K
                assert K._masks == tuple(map(_support_mask, K.gens)), K
        with pytest.raises(DomainError):
            gradient_chain(J, -1)
        with pytest.raises(DomainError):
            iterated_gradient(J, -1)


def test_iterated_gradient_stops_at_fixed_point(monkeypatch):
    J = I(3, "x1*x2^2", "x3^3")
    calls = []

    def counted(K):
        calls.append(K)
        assert len(calls) <= J.omega + 1, "gradient() past the unit ideal"
        return gradient(K)

    monkeypatch.setattr(importlib.import_module("monograd.gradient"),
                        "gradient", counted)
    assert iterated_gradient(J, 10**9).is_unit


def test_colon_oracle_agrees_on_random_ideals():
    rng = random.Random(20240901)
    for _ in range(300):
        n = rng.randint(2, 5)
        count = rng.randint(1, 4)
        J = random_ideal(n, 1, 4, count, rng=rng)
        assert gradient(J) == gradient_via_colon(J)


def test_leibniz_rule_on_products():
    # grad(I*J) == grad(I)*J + I*grad(J) for monomial ideals
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(2, 4)
        A = random_ideal(n, 1, 3, rng.randint(1, 3), rng=rng)
        B = random_ideal(n, 1, 3, rng.randint(1, 3), rng=rng)
        assert gradient(A * B) == gradient(A) * B + A * gradient(B)


def test_power_shift_identity():
    # grad(m^k * I) == m^k * grad(I)
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 4)
        J = random_ideal(n, 2, 3, rng.randint(1, 3), rng=rng)
        m = MonomialIdeal.maximal(n)
        for k in (1, 2, 3):
            assert gradient((m ** k) * J) == (m ** k) * gradient(J)


def test_component_identity():
    # grad(I)_<j> == grad(I_<j+1>)
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 4)
        J = random_ideal(n, 1, 4, rng.randint(1, 4), rng=rng)
        gJ = gradient(J)
        for j in range(J.omega + 3):
            assert gJ.degree_component(j) == gradient(J.degree_component(j + 1))
