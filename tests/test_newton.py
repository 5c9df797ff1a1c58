"""Polyhedron construction and face-lattice tests.

The double description pass is cross-checked against an independent facet
oracle here: every facet hyperplane of the homogenization cone is spanned by
n of its generators, so enumerating nullspaces of all n-subsets and keeping
one-sided hyperplanes recovers the full H-representation by brute force.
The face lattice is cross-checked by scanning a box of functionals.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest

from padicsums import newton
from padicsums.errors import BudgetExceeded, DimensionTooLarge
from padicsums.newton import (
    build_polyhedron,
    enumerate_faces,
    enumerate_lattice_points,
    f0_face,
)
from padicsums.poly import parse_polynomial, render
from conftest import random_polynomial


# -- independent oracles ----------------------------------------------------

def _nullspace_vector(rows):
    """A nonzero rational kernel vector of an n x (n+1) matrix, or None if
    the rank is below n (kernel not one-dimensional)."""
    n = len(rows)
    d = n + 1
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(d):
        piv = next((i for i in range(r, n) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(n):
            if i != r and mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    if r < n:
        return None
    free = next(c for c in range(d) if c not in pivots)
    vec = [Fraction(0)] * d
    vec[free] = Fraction(1)
    for row_idx, c in enumerate(pivots):
        vec[c] = -mat[row_idx][free] / mat[row_idx][c]
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def oracle_facets(support, n):
    """Brute-force H-representation of conv(support) + R_+^n."""
    gens = [tuple(int(i == j) for i in range(n)) + (0,) for j in range(n)]
    gens += [tuple(v) + (1,) for v in support]
    found = set()
    for subset in combinations(range(len(gens)), n):
        vec = _nullspace_vector([gens[i] for i in subset])
        if vec is None:
            continue
        dots = [sum(a * b for a, b in zip(g, vec)) for g in gens]
        if all(d >= 0 for d in dots):
            a = vec
        elif all(d <= 0 for d in dots):
            a = tuple(-x for x in vec)
        else:
            continue
        k, c = a[:-1], a[-1]
        if any(k):
            found.add((k, -c))
    return found


def oracle_face_keys(P, box):
    """Face keys found by scanning every functional in [0, box]^n."""
    keys = set()
    for k in product(range(box + 1), repeat=P.n):
        keys.add(P.classify(k)[2])
    return keys


# -- construction -----------------------------------------------------------

def test_build_single_monomial():
    P = build_polyhedron(parse_polynomial("x*y"))
    assert P.vertices == ((1, 1),)
    assert {(F.normal, F.offset) for F in P.facets} == {((1, 0), 1), ((0, 1), 1)}


def test_build_two_point_support():
    P = build_polyhedron(parse_polynomial("x^2+y^3"))
    assert set(P.vertices) == {(2, 0), (0, 3)}
    assert {(F.normal, F.offset) for F in P.facets} == {
        ((3, 2), 6),
        ((1, 0), 0),
        ((0, 1), 0),
    }


def test_build_hyperbolic_pair():
    P = build_polyhedron(parse_polynomial("x*y+z*u"))
    assert set(P.vertices) == {(1, 1, 0, 0), (0, 0, 1, 1)}
    assert {(F.normal, F.offset) for F in P.facets} == oracle_facets(
        [(1, 1, 0, 0), (0, 0, 1, 1)], 4
    )


def test_facets_match_oracle_on_corpus(corpus):
    for f in corpus:
        P = build_polyhedron(f)
        assert {(F.normal, F.offset) for F in P.facets} == oracle_facets(f.support, f.n)


def test_facets_match_oracle_random():
    rng = random.Random(321)
    for _ in range(25):
        f = random_polynomial(rng, max_terms=5, max_exp=4)
        P = build_polyhedron(f)
        assert {(F.normal, F.offset) for F in P.facets} == oracle_facets(f.support, f.n)


def test_non_vertex_support_point_excluded():
    # (1,1) lies on the segment between (2,0) and (0,2), so it is no vertex
    f = parse_polynomial("x^2 + x*y + y^2")
    P = build_polyhedron(f)
    assert set(P.vertices) == {(2, 0), (0, 2)}


def test_dominated_support_point_excluded():
    # (2,2) is inside (1,1) + R_+^2
    f = parse_polynomial("x*y + x^2*y^2")
    P = build_polyhedron(f)
    assert P.vertices == ((1, 1),)


def test_dimension_cap(monkeypatch):
    f = parse_polynomial("x1*x2*x3*x4*x5*x6*x7*x8*x9 + x1^4 + x2^4 + x3^4")
    with pytest.raises(DimensionTooLarge):
        build_polyhedron(f)
    monkeypatch.setattr(newton, "DIMENSION_CAP", 9)
    P = build_polyhedron(f)
    assert P.n == 9
    # the face restrictions, and the builds behind the sigmas of the faces
    # with three vertices, are admitted under the same cap
    assert all(face.sigma_tau > 0 for face in enumerate_faces(P))


def test_constant_term_rejected_by_build():
    from padicsums.poly import Polynomial

    with pytest.raises(ValueError):
        build_polyhedron(Polynomial(2, {(0, 0): 1, (1, 0): 1}))


# -- face lattice -----------------------------------------------------------

def test_faces_of_single_vertex_polyhedron():
    P = build_polyhedron(parse_polynomial("x*y"))
    faces = enumerate_faces(P)
    assert len(faces) == 4
    keys = {f.key for f in faces}
    assert keys == {
        ((0,), ()),        # the vertex (1,1)
        ((0,), (0,)),      # unbounded edge along x
        ((0,), (1,)),      # unbounded edge along y
        ((0,), (0, 1)),    # the polyhedron itself
    }
    assert keys == oracle_face_keys(P, 3)
    whole = [f for f in faces if f.key == ((0,), (0, 1))][0]
    assert whole.witness_k == (0, 0) and whole.dim == 2


def test_faces_of_curve_polyhedron():
    P = build_polyhedron(parse_polynomial("x^2+y^3"))
    faces = enumerate_faces(P)
    # two vertices, the compact edge, two unbounded edges, the polyhedron
    assert len(faces) == 6
    assert oracle_face_keys(P, 4) == {f.key for f in faces}
    compact = [f for f in faces if len(f.vertex_ids) == 2 and not f.recession_axes]
    assert len(compact) == 1 and compact[0].dim == 1


def test_f0_of_hyperbolic_pair_is_segment():
    f0 = f0_face(build_polyhedron(parse_polynomial("x*y+z*u")))
    assert f0.dim == 1
    assert len(f0.vertex_ids) == 2 and not f0.recession_axes
    assert render(f0.restriction) == "z*u + x*y"


def test_face_scan_oracle_random():
    rng = random.Random(77)
    for _ in range(12):
        f = random_polynomial(rng, n=rng.randint(2, 3), max_terms=4, max_exp=4)
        P = build_polyhedron(f)
        keys = {face.key for face in enumerate_faces(P)}
        scanned = oracle_face_keys(P, 6)
        assert scanned <= keys  # every scanned functional hits a known face


def test_witness_soundness(corpus):
    for f in corpus:
        P = build_polyhedron(f)
        for face in enumerate_faces(P):
            assert P.classify(face.witness_k)[2] == face.key


# -- classify -----------------------------------------------------------------

def test_classify_single_vertex():
    P = build_polyhedron(parse_polynomial("x*y"))
    nu, N, key = P.classify((2, 3))
    assert (nu, N) == (5, 5)
    assert key == ((0,), ())
    assert P.face_by_key(key).key == key


@pytest.mark.parametrize("k", [(1,), (1, 0, 0)], ids=["short", "long"])
def test_classify_rejects_a_k_of_the_wrong_length(k):
    # zipping a short k with each vertex would drop coordinates silently
    P = build_polyhedron(parse_polynomial("x*y"))
    with pytest.raises(ValueError, match="2"):
        P.classify(k)


@pytest.mark.parametrize("face_id", [-1, 4, 99])
def test_face_by_id_rejects_ids_that_name_no_face(face_id):
    P = build_polyhedron(parse_polynomial("x*y"))
    assert [P.face_by_id(i) for i in range(len(P.faces))] == list(P.faces)
    with pytest.raises(ValueError, match=f"no face with id {face_id}$"):
        P.face_by_id(face_id)


def test_classify_diagonal_functional():
    P = build_polyhedron(parse_polynomial("x*y+z*u"))
    nu, N, key = P.classify((1, 1, 1, 1))
    assert (nu, N) == (4, 2)
    assert P.face_by_key(key).id == f0_face(P).id


def test_classify_zero_is_whole_polyhedron(corpus):
    for f in corpus:
        P = build_polyhedron(f)
        nu, N, key = P.classify((0,) * f.n)
        assert (nu, N) == (0, 0)
        face = P.face_by_key(key)
        assert face.dim == f.n
        assert face.witness_k == (0,) * f.n


def test_classify_rejects_negative():
    P = build_polyhedron(parse_polynomial("x*y"))
    with pytest.raises(ValueError, match="nonnegative"):
        P.classify((-1, 0))


# -- sigma data ---------------------------------------------------------------

def test_sigma_single_vertex():
    sig = build_polyhedron(parse_polynomial("x*y")).diagonal
    assert sig.sigma == 1 and sig.kappa == 2


def test_sigma_hyperbolic_pair():
    sig = build_polyhedron(parse_polynomial("x*y+z*u")).diagonal
    assert sig.sigma == 2 and sig.kappa == 3


def test_sigma_curve():
    sig = build_polyhedron(parse_polynomial("x^2+y^3")).diagonal
    assert sig.sigma == Fraction(5, 6) and sig.t_star == Fraction(6, 5)
    assert sig.kappa == 1


def test_sigma_diagonal_point_is_tight_exactly_on_f0_facets(corpus):
    for f in corpus:
        P = build_polyhedron(f)
        sig = P.diagonal
        f0 = f0_face(P)
        for j, F in enumerate(P.facets):
            lhs = sig.t_star * sum(F.normal)
            assert (lhs >= F.offset) is True
            assert (lhs == F.offset) == (j in f0.active_facet_ids)


# -- lattice enumeration ------------------------------------------------------

def test_lattice_points_tiny():
    P = build_polyhedron(parse_polynomial("x*y"))
    pts = {pt.k for pt in enumerate_lattice_points(P, 1)}
    assert pts == {(0, 0), (1, 0), (0, 1)}


def test_lattice_point_tags():
    P = build_polyhedron(parse_polynomial("x*y"))
    tagged = {pt.k: pt for pt in enumerate_lattice_points(P, 2)}
    vertex_face = P.face_by_key(P.classify((1, 1))[2])
    assert tagged[(1, 1)].N == 2 and tagged[(1, 1)].face_id == vertex_face.id
    assert tagged[(0, 0)].N == 0


def test_lattice_point_count():
    P = build_polyhedron(parse_polynomial("x*y+z*u"))
    assert sum(1 for _ in enumerate_lattice_points(P, 5)) == comb(9, 4) == 126


def test_lattice_point_cap(monkeypatch):
    P = build_polyhedron(parse_polynomial("x*y+z*u"))
    monkeypatch.setattr(newton, "POINT_CAP", 1000)
    with pytest.raises(BudgetExceeded):
        enumerate_lattice_points(P, 30)
    assert sum(1 for _ in enumerate_lattice_points(P, 8)) == comb(12, 4) == 495


# -- global invariants --------------------------------------------------------

def test_partition_and_nu_bound_invariants(corpus):
    for f in corpus:
        P = build_polyhedron(f)
        faces = enumerate_faces(P)
        sig = P.diagonal
        seen = 0
        for pt in enumerate_lattice_points(P, 6):
            seen += 1
            assert 0 <= pt.face_id < len(faces)
            assert pt.nu >= sig.sigma * pt.N  # nu(k) >= sigma N(k), exactly
        assert seen == comb(6 + f.n, f.n)


def test_sigma_tau_monotone(corpus):
    for f in corpus:
        P = build_polyhedron(f)
        sig = P.diagonal
        for face in enumerate_faces(P):
            assert face.sigma_tau <= sig.sigma


def test_duality_invariants_random():
    rng = random.Random(2718)
    for _ in range(15):
        f = random_polynomial(rng, max_terms=5, max_exp=4)
        P = build_polyhedron(f)
        assert set(P.vertices) <= set(f.support)
        assert any(F.offset > 0 for F in P.facets)
        for s in f.support:
            assert all(
                sum(a * b for a, b in zip(F.normal, s)) >= F.offset for F in P.facets
            )
        for F in P.facets:
            assert any(
                sum(a * b for a, b in zip(F.normal, v)) == F.offset for v in P.vertices
            )
            assert all(x >= 0 for x in F.normal)
            g = 0
            for x in F.normal:
                g = gcd(g, x)
            assert g == 1
