import random

import pytest

from monograd.complexes import (SimplicialComplex, _from_mask,
                                stanley_reisner_complex, stanley_reisner_ideal)
from monograd.errors import DomainError
from monograd.exact_rank import bareiss_rank, sparse_rank
from monograd.monomials import MonomialIdeal


def I(n, *strs):
    return MonomialIdeal.from_strings(n, list(strs))


def test_exact_rank_small():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 2], [3, 4]]) == 2
    assert bareiss_rank([]) == 0
    # a row below a non-unit pivot must be scaled even when its entry is 0
    assert bareiss_rank([[2, 0, 1], [0, -1, 0], [1, 0, 0]]) == 3
    # sparse columns: column dict maps row -> value
    cols = [{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}]
    assert sparse_rank(cols) == 2


def test_exact_rank_needs_exact_arithmetic():
    # Hilbert-like matrix scaled to integers: rank must be full
    n = 6
    rows = [[1 * 720 // (i + j + 1) for j in range(n)] for i in range(n)]
    assert bareiss_rank(rows) == n


def _rank_cases():
    """Seeded sparse integer matrices as (columns, nrows): entries in
    [-3, 3] with explicit zeros, empty, duplicate and dependent columns,
    then boundary matrices of seeded complexes."""
    rng = random.Random(23)
    cases = []
    for _ in range(400):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 9)
        density = rng.random()
        cols = []
        for _ in range(ncols):
            kind = rng.random()
            if kind < 0.1:
                cols.append({})
            elif kind < 0.2 and cols:
                cols.append(dict(rng.choice(cols)))
            elif kind < 0.4 and cols:
                a, b = rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2)
                u, v = rng.choice(cols), rng.choice(cols)
                col = {r: a * u.get(r, 0) + b * v.get(r, 0)
                       for r in set(u) | set(v)}
                cols.append({r: x for r, x in col.items() if -3 <= x <= 3})
            else:
                cols.append({r: rng.randint(-3, 3) for r in range(nrows)
                             if rng.random() < density})
        cases.append((cols, nrows))
    for _ in range(60):
        n = rng.randint(1, 7)
        nonfaces = [rng.sample(range(1, n + 1), rng.randint(1, n))
                    for _ in range(rng.randint(0, 4))]
        delta = SimplicialComplex(n, nonfaces)
        within = rng.choice((None, rng.getrandbits(n)))
        for s in range(-1, n):
            cols, nrows, _ = delta.boundary_matrix(s, within)
            cases.append((cols, nrows))
    return cases


def _dense(cols, nrows):
    return [[col.get(r, 0) for col in cols] for r in range(nrows)]


def test_sparse_rank_matches_bareiss_oracle():
    for cols, nrows in _rank_cases():
        before = [dict(c) for c in cols]
        assert sparse_rank(cols) == bareiss_rank(_dense(cols, nrows))
        assert cols == before  # the input columns are left untouched


def test_sparse_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for cols, nrows in _rank_cases()[::4]:
        flat = [x for row in _dense(cols, nrows) for x in row]
        assert sparse_rank(cols) == sympy.Matrix(nrows, len(cols), flat).rank()


def test_face_enumeration():
    hollow = SimplicialComplex(3, [{1, 2, 3}])
    faces = hollow.faces_by_cardinality()
    assert len(faces[0]) == 1          # the empty face
    assert len(faces[1]) == 3
    assert len(faces[2]) == 3
    assert 3 not in faces or not faces[3]
    assert hollow.is_face({1, 2}) and not hollow.is_face({1, 2, 3})


def test_faces_come_in_canonical_order():
    # boundary_matrix relies on this order for its rows and columns
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 8)
        nonfaces = [rng.sample(range(1, n + 1), rng.randint(1, n))
                    for _ in range(rng.randint(0, 5))]
        delta = SimplicialComplex(n, nonfaces)
        for within in (None, rng.getrandbits(n), rng.getrandbits(n)):
            by_card = delta.faces_by_cardinality(within)
            for faces in by_card.values():
                keys = [tuple(sorted(_from_mask(f))) for f in faces]
                assert keys == sorted(keys)
            # and they are exactly the faces inside `within`
            w = (1 << n) - 1 if within is None else within
            brute = {f for f in range(1 << n) if f & w == f
                     and delta.is_face(_from_mask(f))}
            assert {f for fs in by_card.values() for f in fs} == brute


def test_homology_of_circle_and_sphere():
    # hollow triangle is a circle: only reduced H_1 is nonzero
    hollow = SimplicialComplex(3, [{1, 2, 3}])
    assert hollow.homology_profile() == {1: 1}
    # hollow tetrahedron is a 2-sphere
    sphere = SimplicialComplex(4, [{1, 2, 3, 4}])
    assert sphere.homology_profile() == {2: 1}


def test_homology_of_disconnected_points():
    two_points = SimplicialComplex(2, [{1, 2}])
    assert two_points.homology_profile() == {0: 1}


def test_homology_degenerate_complexes():
    # full simplex is contractible
    full = SimplicialComplex(3)
    assert full.homology_profile() == {}
    # the empty complex {{}} has reduced homology only in dimension -1
    empty = SimplicialComplex(3, [{1}, {2}, {3}])
    assert empty.homology_profile() == {-1: 1}
    # the void complex has none at all
    void = SimplicialComplex.void_complex(3)
    assert void.homology_profile() == {}


def test_restriction():
    hollow = SimplicialComplex(4, [{1, 2, 3}])
    r = hollow.restrict({1, 2, 3})
    assert r.n == 3 and r.homology_profile() == {1: 1}
    # restricting to a cone point kills homology
    r2 = hollow.restrict({1, 2, 4})
    assert r2.homology_profile() == {}


def test_top_nonzero_homology():
    sphere = SimplicialComplex(4, [{1, 2, 3, 4}])
    assert sphere.top_nonzero_homology() == 2
    full = SimplicialComplex(2)
    assert full.top_nonzero_homology() is None


def test_stanley_reisner_round_trip():
    J = I(4, "x1*x2", "x3*x4")
    delta = stanley_reisner_complex(J)
    assert delta.minimal_nonfaces == frozenset({frozenset({1, 2}),
                                                frozenset({3, 4})})
    assert stanley_reisner_ideal(delta) == J


def test_stanley_reisner_rejects_non_squarefree():
    with pytest.raises(DomainError, match="offender"):
        stanley_reisner_complex(I(2, "x1^2"))


def test_stanley_reisner_unit_is_void():
    delta = stanley_reisner_complex(MonomialIdeal.unit(3))
    assert delta.void
