import pytest

import monograd.verify as verify
from monograd.errors import DomainError
from monograd.monomials import MonomialIdeal
from monograd.verify import (Report, VERIFY_IDS, random_ideal,
                             two_linear_edge_ideals, verify_theorem)


def test_random_ideal_determinism():
    a = random_ideal(4, 2, 2, 3, squarefree=True, seed=1)
    b = random_ideal(4, 2, 2, 3, squarefree=True, seed=1)
    c = random_ideal(4, 2, 2, 3, squarefree=True, seed=2)
    assert a == b
    assert a != c
    assert a.is_squarefree and a.is_equigenerated


def test_random_ideal_infeasible():
    with pytest.raises(DomainError):
        random_ideal(3, 2, 2, 10, squarefree=True, seed=0)


def test_report_determinism():
    r1 = verify_theorem("lem3.2", {"samples": 15}, seed=5)
    r2 = verify_theorem("lem3.2", {"samples": 15}, seed=5)
    assert r1.to_json() == r2.to_json()
    assert r1.passed


def test_unknown_id():
    with pytest.raises(DomainError):
        verify_theorem("thm9.9")


def test_report_shape():
    rep = verify_theorem("kk-remark")
    doc = rep.to_dict()
    assert doc["theorem_id"] == "kk-remark"
    assert doc["pass"] is True
    assert all({"description", "expected", "computed", "pass"} <=
               set(c) for c in doc["checks"])
    assert any("4817" in note for note in doc["engine_notes"])


def test_all_ids_dispatch():
    # smallest feasible parameters for each suite, just to prove dispatch
    small = {"samples": 2}
    for vid in VERIFY_IDS:
        params = dict(small)
        if vid == "thm2.2":
            params = {"a": 1}
        elif vid == "thm2.3":
            params = {"d": 3}
        elif vid == "thm4.3":
            params = {"n": 4}
        elif vid == "thm5.1":
            params = {"n": 6, "d": 3, "samples": 2}
        elif vid == "thm6.1":
            params = {"n_max": 3}
        rep = verify_theorem(vid, params, seed=9)
        assert rep.passed, (vid, [c for c in rep.checks if not c.passed])


def test_failing_check_reports_replay():
    rep = Report(theorem_id="x", parameters={})
    bad = random_ideal(2, 1, 2, 2, seed=0)
    rep.add("forced failure", 1, 2, bad)
    assert not rep.passed
    assert any("replay ideal" in n for n in rep.engine_notes)


def test_thm61_closed_forms_multiply_no_ideals(monkeypatch):
    # thm6.1 evaluates the closed forms once per (graph, k), from exponent
    # tuples and one memo for the whole suite: no ideal product is formed
    # inside the evaluation
    inside, products, calls = [], [], []
    mul, forms = MonomialIdeal.__mul__, verify.gradient_power_closed_forms

    def spy_mul(self, other):
        if inside:
            products.append((self, other))
        return mul(self, other)

    def spy_forms(dec, n, k, _memo=None):
        inside.append(k)
        calls.append((dec, k, _memo))
        try:
            return forms(dec, n, k, _memo=_memo)
        finally:
            inside.pop()

    monkeypatch.setattr(MonomialIdeal, "__mul__", spy_mul)
    monkeypatch.setattr(verify, "gradient_power_closed_forms", spy_forms)
    rep = verify_theorem("thm6.1", {"n_max": 4}, seed=0)
    assert rep.passed
    assert len(calls) == 2 * len(list(two_linear_edge_ideals(4))) > 0
    assert calls[0][2] is not None
    assert all(memo is calls[0][2] for _, _, memo in calls)
    assert not products
