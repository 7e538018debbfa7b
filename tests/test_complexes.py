import random

import pytest

import monograd.complexes as complexes
from monograd.complexes import (SimplicialComplex, _boundary_columns,
                                _from_mask, stanley_reisner_complex)
from monograd.errors import DomainError
from monograd.exact_rank import sparse_rank
from monograd.ioformats import parse_ideal
from monograd.monomials import MonomialIdeal


def I(n, *strs):
    return parse_ideal({"n": n, "gens": list(strs)})


def bareiss_rank(rows):
    """Rank of a dense integer matrix (list of lists) by fraction-free
    Bareiss elimination: the oracle for sparse_rank."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f == 0 and p == prev:
                continue  # the update would leave this row unchanged
            row_i, row_r = m[i], m[r]
            for j in range(c, ncols):
                row_i[j] = (row_i[j] * p - f * row_r[j]) // prev
        prev = p
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


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
        faces = delta.faces_by_cardinality(rng.choice((None,
                                                      rng.getrandbits(n))))
        for c in range(n + 1):
            cases.append((_boundary_columns(faces, c),
                          len(faces.get(c - 1, ()))))
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
    assert hollow._is_face_mask(0b011) and not hollow._is_face_mask(0b111)


def test_faces_come_in_canonical_order():
    # _boundary_columns relies on this order for its rows and columns
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
                     and delta._is_face_mask(f)}
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


def _uncleared_ranks(delta, within):
    """rank d_c for every cardinality c, from the full boundary matrices
    and the dense oracle, with rank d_c = 0 past the top."""
    faces = delta.faces_by_cardinality(within)
    return [bareiss_rank(_dense(_boundary_columns(faces, c),
                                len(faces.get(c - 1, ()))))
            for c in range(len(faces) + 1)]


def _clearing_cases():
    rng = random.Random(2011)
    cases = [SimplicialComplex.void_complex(3),
             SimplicialComplex(3, [{1}, {2}, {3}]),  # {emptyset}
             SimplicialComplex(4),                   # full simplex
             SimplicialComplex(5, [{1, 2}, {3, 4}, {2, 3, 4}]),  # cone on 5
             *(SimplicialComplex(k, [range(1, k + 1)])  # S^(k-2)
               for k in range(1, 7))]
    for _ in range(150):
        n = rng.randint(1, 8)
        nonfaces = [rng.sample(range(1, n + 1), rng.randint(1, n))
                    for _ in range(rng.randint(0, 5))]
        cases.append(SimplicialComplex(n, nonfaces))
    return [(delta, within) for delta in cases
            for within in (None, rng.getrandbits(delta.n))]


def test_clearing_keeps_homology(monkeypatch):
    built = []

    def counting_rank(columns, pivot_rows=None):
        built.append(len(columns))
        return sparse_rank(columns, pivot_rows)

    monkeypatch.setattr(complexes, "sparse_rank", counting_rank)
    cleared_any = False
    for delta, within in _clearing_cases():
        faces = delta.faces_by_cardinality(within)
        ranks = _uncleared_ranks(delta, within)
        expected = {c - 1: len(faces[c]) - ranks[c] - ranks[c + 1]
                    for c in range(len(faces))}
        expected = {s: h for s, h in expected.items() if h}
        built.clear()
        assert delta.homology_profile(within) == expected, (delta, within)
        # d_c is built without one column per pivot row of d_{c+1}
        assert built == [len(faces[c]) - ranks[c + 1]
                         for c in range(len(faces) - 1, -1, -1)]
        cleared_any |= sum(built) < sum(map(len, faces.values()))
    assert cleared_any


def test_constructor_rejects_vertices_out_of_range():
    for nonfaces in ([{5}], [{0}], [{1, 4}], [{-1, 2}], [{1}, {2, 3, 4}]):
        with pytest.raises(DomainError):
            SimplicialComplex(3, nonfaces)
    delta = SimplicialComplex(3, [{1, 3}])
    assert delta._is_face_mask(0b011) and not delta._is_face_mask(0b111)
    assert SimplicialComplex(0, [set()]).void
    # the internal mask constructor trusts its caller's antichain
    assert SimplicialComplex._from_masks(3, (0b101,)) == delta


def test_stanley_reisner_round_trip():
    J = I(4, "x1*x2", "x3*x4")
    delta = stanley_reisner_complex(J)
    assert delta.minimal_nonfaces == frozenset({frozenset({1, 2}),
                                                frozenset({3, 4})})
    # the squarefree monomials on the minimal nonfaces give J back
    assert MonomialIdeal(4, [tuple(int(v in f) for v in range(1, 5))
                             for f in delta.minimal_nonfaces]) == J


def test_stanley_reisner_rejects_non_squarefree():
    with pytest.raises(DomainError, match="offender"):
        stanley_reisner_complex(I(2, "x1^2"))


def test_stanley_reisner_unit_is_void():
    delta = stanley_reisner_complex(MonomialIdeal.unit(3))
    assert delta.void
