import random
from itertools import permutations

import pytest

import monograd.verify as verify
from monograd.errors import DomainError
from monograd.gradient import gradient, gradient_chain
from monograd.graphs import (gradient_power_closed_forms,
                             quadratic_decompositions)
from monograd.ioformats import ideal_to_json
from monograd.monomials import (MonomialIdeal, is_complete_intersection,
                                monomials_of_degree,
                                squarefree_monomials_of_degree, variable)
from monograd.structure import (has_linear_quotients, is_polymatroidal,
                                is_stable, is_strongly_stable,
                                linear_quotients_order)
from monograd.verify import (Report, VERIFY_IDS, random_ideal,
                             two_linear_edge_ideals, verify_theorem)


def test_random_ideal_determinism():
    a = random_ideal(4, 2, 2, 3, squarefree=True, seed=1)
    b = random_ideal(4, 2, 2, 3, squarefree=True, seed=1)
    c = random_ideal(4, 2, 2, 3, squarefree=True, seed=2)
    assert a == b
    assert a != c
    assert a.is_squarefree and a.is_equigenerated


def test_random_ideal_builds_what_the_checked_constructor_builds():
    # the draw goes through the trusted constructor; its generators,
    # degrees and support masks are the checked constructor's on the same
    # draw from the same pool
    for n, d_min, d_max, count, squarefree in ((8, 4, 4, 63, True),
                                               (4, 1, 4, 4, False),
                                               (3, 0, 2, 5, False)):
        for seed in range(5):
            I = random_ideal(n, d_min, d_max, count, squarefree, seed=seed)
            pool = [u for d in range(d_min, d_max + 1) for u in (
                squarefree_monomials_of_degree(n, d) if squarefree
                else monomials_of_degree(n, d))]
            J = MonomialIdeal(n, random.Random(seed).sample(pool, count))
            assert (I.gens, I._degs, I._masks) == (J.gens, J._degs, J._masks)


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
        if vid == "kk-remark":  # it reads no parameter
            params = {}
        elif vid == "thm2.2":
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
    # thm6.1 evaluates the closed forms once per (class, vertex) pair and k,
    # from exponent tuples: no ideal product is formed inside the evaluation
    inside, products, calls = [], [], []
    mul, forms = MonomialIdeal.__mul__, verify.gradient_power_closed_forms

    def spy_mul(self, other):
        if inside:
            products.append((self, other))
        return mul(self, other)

    def spy_forms(dec, n, k):
        inside.append(k)
        calls.append((dec, k))
        try:
            return forms(dec, n, k)
        finally:
            inside.pop()

    monkeypatch.setattr(MonomialIdeal, "__mul__", spy_mul)
    monkeypatch.setattr(verify, "gradient_power_closed_forms", spy_forms)
    rep = verify_theorem("thm6.1", {"n_max": 4}, seed=0)
    assert rep.passed
    # one evaluation per k and (isomorphism class, valid vertex) pair:
    # 29 pairs cover the 43 labeled ideals with n <= 4
    assert len(calls) == 2 * 29
    assert not products


def _thm61_labeled(n_max, ks, forms=gradient_power_closed_forms):
    """thm6.1 on every labeled 2-linear edge ideal, each decomposed at its
    top valid vertex, as the suite ran before it went to isomorphism
    classes: (screened, bad), with the closed forms taken from forms."""
    screened = bad = 0
    tails, tail_grads, squares = {}, {}, {}
    for I in two_linear_edge_ideals(n_max):
        screened += 1
        dec = next(quadratic_decompositions(I), None)
        if dec is None:
            bad += 1
            continue
        n = I.n
        ok = True
        for k in ks:
            direct = I ** k
            for ell, closed in enumerate(forms(dec, n, k)):
                if ell > k:  # the gradient of a level that should be m^p
                    if direct.gens not in tail_grads:
                        tail_grads[direct.gens] = gradient(direct)
                    direct = tail_grads[direct.gens]
                elif ell:
                    direct = gradient(direct)
                if direct != closed:
                    ok = False
                if ell >= k:  # should be m^p, and then shares its decision
                    p = 2 * k - ell
                    if (n, p) not in tails:
                        mp = MonomialIdeal.maximal(n) ** p
                        tails[n, p] = mp, mp.is_unit or has_linear_quotients(mp)
                    if (direct, True) != tails[n, p]:
                        ok = False
                elif not direct.is_unit and linear_quotients_order(direct) is None:
                    ok = False
        gJ = gradient(dec.J)
        if dec.P.gens not in squares:
            squares[dec.P.gens] = dec.P * dec.P
        if squares[dec.P.gens] + dec.J + dec.P * gJ != dec.P * (dec.P + gJ):
            ok = False
        if not ok:
            bad += 1
    return screened, bad


def _relabel(J, s):
    """J with each variable x_a renamed x_{s[a - 1]}."""
    inverse = [s.index(b) for b in range(1, J.n + 1)]
    return MonomialIdeal(J.n, [tuple(u[a] for a in inverse) for u in J.gens])


def _class_key(J):
    """The same key for isomorphic ideals: the least relabeled G(J)."""
    return J.n, min(_relabel(J, s).gens
                    for s in permutations(range(1, J.n + 1)))


def test_thm61_classes_agree_with_the_labeled_sweep():
    # the count and the verdict of the class-level suite are those of the
    # labeled sweep it replaced, on every n_max up to the default 5
    for n_max, count in ((1, 0), (2, 1), (3, 5), (4, 43), (5, 624)):
        assert _thm61_labeled(n_max, (1, 2)) == (count, 0)
        check, = verify_theorem("thm6.1", {"n_max": n_max}, seed=0).checks
        assert check.description.startswith(f"{count} screened ")
        assert (check.expected, check.computed, check.passed) == (0, 0, True)
    check, = verify_theorem("thm6.1", {"n_max": 4, "k": 1}, seed=0).checks
    assert (check.computed, _thm61_labeled(4, (1,))) == (0, (43, 0))


@pytest.mark.parametrize("n_max, classes, pairs", [(4, 9, 29), (5, 26, 94)])
def test_thm61_checks_each_labeled_pair_through_one_class_pair(
        monkeypatch, n_max, classes, pairs):
    # every labeled G with its top valid vertex v_G is a relabeling
    # (s(H), s(v)) of a pair (H, v) the suite checks, and every checked
    # pair is one of these: the suite checks what the labeled sweep did
    checked = set()  # (n, G(H), v)
    forms = verify.gradient_power_closed_forms

    def spy(dec, n, k):
        split = MonomialIdeal(n, [variable(n, dec.v)]) * dec.P + dec.J
        checked.add((n, split.gens, dec.v))
        return forms(dec, n, k)

    monkeypatch.setattr(verify, "gradient_power_closed_forms", spy)
    assert verify_theorem("thm6.1", {"n_max": n_max}, seed=0).passed
    assert len({pair[:2] for pair in checked}) == classes
    assert len(checked) == pairs
    labeled = {(G.n, G.gens, next(quadratic_decompositions(G)).v)
               for G in two_linear_edge_ideals(n_max)}
    assert len(labeled) == {4: 43, 5: 624}[n_max]
    covered = set()
    for n, gens, v in checked:
        images = {(n, _relabel(MonomialIdeal(n, gens), s).gens, s[v - 1])
                  for s in permutations(range(1, n + 1))}
        assert images & labeled, (gens, v)  # no pair beyond the sweep's
        covered |= images
    assert labeled <= covered


def test_thm61_wrong_closed_form_fails_every_labeled_ideal(monkeypatch):
    # a closed form that misses by one level fails every class, which then
    # counts all of its labeled members and notes its first one
    forms = verify.gradient_power_closed_forms

    def wrong(dec, n, k):
        right = forms(dec, n, k)
        return (right[0],) + right[:-1]

    monkeypatch.setattr(verify, "gradient_power_closed_forms", wrong)
    rep = verify_theorem("thm6.1", {"n_max": 4}, seed=0)
    check, = rep.checks
    assert check.computed == 43 and check.description.startswith("43 ")
    assert _thm61_labeled(4, (1, 2), forms=wrong) == (43, 43)
    firsts = {}
    for J in two_linear_edge_ideals(4):
        firsts.setdefault(_class_key(J), J)
    assert len(firsts) == 9
    assert rep.engine_notes == ["replay ideal: " + ideal_to_json(J)
                                for J in firsts.values()]


def test_thm61_searches_each_class_level_once(monkeypatch):
    # the direct side runs one linear-quotients search per class, k and
    # level l < k, in that order, and one per (n, p) for the m^p tails
    searched, tails = [], []
    search, decide = verify.linear_quotients_order, verify.has_linear_quotients

    def spy_search(J, *args, **kwargs):
        searched.append(J)
        return search(J, *args, **kwargs)

    def spy_decide(J, *args, **kwargs):
        tails.append(J)
        return decide(J, *args, **kwargs)

    monkeypatch.setattr(verify, "linear_quotients_order", spy_search)
    monkeypatch.setattr(verify, "has_linear_quotients", spy_decide)
    assert verify_theorem("thm6.1", {"n_max": 4}, seed=0).passed
    classes = [H for H, _ in verify._two_linear_screen(4, by_class=True)]
    assert len(classes) == 9
    assert searched == [level for H in classes for k in (1, 2)
                        for level in list(gradient_chain(H ** k, k))[:k]]
    assert sorted(tails, key=lambda J: (J.n, J.alpha)) == [
        MonomialIdeal.maximal(n) ** p for n in (2, 3, 4) for p in (1, 2)]


def test_seeded_generators_draw_what_the_suites_assume(monkeypatch):
    # the premises prop2.1, thm3.1 and prop3.3 take for granted, on the
    # draws their default runs at seed 0 make: complete intersections,
    # polymatroidal ideals, and strongly stable then stable ideals
    drawn = {"ci": [], "vt": [], "stable": []}

    def spy(key, fn):
        def draw(*args):
            I = fn(*args)
            drawn[key].append((args[1:], I))
            return I
        return draw

    for key, name in (("ci", "random_complete_intersection"),
                      ("vt", "random_veronese_type"),
                      ("stable", "random_stable_ideal")):
        monkeypatch.setattr(verify, name, spy(key, getattr(verify, name)))
    for vid in ("prop2.1", "thm3.1", "prop3.3"):
        assert verify_theorem(vid, seed=0).passed
    assert len(drawn["ci"]) == 50
    assert all(is_complete_intersection(I) for _, I in drawn["ci"])
    assert len(drawn["vt"]) == 200
    assert all(is_polymatroidal(I) for _, I in drawn["vt"])
    assert [strongly for (strongly,), _ in drawn["stable"]] == \
        [True] * 200 + [False] * 200
    for (strongly,), I in drawn["stable"]:
        assert (is_strongly_stable if strongly else is_stable)(I), I


@pytest.mark.parametrize("vid, name, fake, calls_per_decision", [
    ("thm3.1", "is_polymatroidal", lambda J: False, 1),
    # gradient(I), gradient(I_<1>), gradient(I_<2>): the unit ideal's
    # degree-1 component, the maximal ideal, differs from the unit ideal
    ("lem3.2", "gradient", lambda J: MonomialIdeal.unit(J.n), 3),
    # reg(grad I) > reg(I) for every draw: grad lowers alpha by one
    ("prop3.3", "regularity", lambda J: -J.alpha, 2)])
def test_suites_decide_each_distinct_draw_once(monkeypatch, vid, name, fake,
                                               calls_per_decision):
    # with a forced failure every draw is counted and noted, and each
    # distinct draw of a check is decided once
    calls = []
    monkeypatch.setattr(verify, name, lambda J: calls.append(J) or fake(J))
    rep = verify_theorem(vid, seed=0)
    assert [c.computed for c in rep.checks] == [200] * len(rep.checks)
    replays = rep.engine_notes[:200 * len(rep.checks)]
    assert all(note.startswith("replay ideal: ") for note in replays)
    distinct = sum(len(set(replays[k:k + 200]))
                   for k in range(0, len(replays), 200))
    assert distinct < len(replays)
    assert len(calls) == calls_per_decision * distinct
