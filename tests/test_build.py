"""The polyhedron build against the rank-based procedures it replaced, face
sigmas by vertex set against fresh builds of each face restriction, and
``_hull_t_star`` against the diagonal of a polyhedron built on its points,
the path it replaced.

``oracle_extreme_rays`` is the earlier double description pass: base rows
picked by one rank per candidate, the initial rays read from the inverse of
the base, zero sets recomputed from the rows for every added row.
``oracle_vertices`` is the earlier vertex test: a support point is a vertex
iff the normals of its tight facets have rank n.  Both eliminate over
Fraction (``fraction_rank_inverse``), sharing no code with the build.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from padicsums import newton, poly
from padicsums.newton import (
    _extreme_rays,
    _segment_t_star,
    build_polyhedron,
)
from padicsums.poly import Polynomial, parse_polynomial
from conftest import fraction_rank_inverse, random_polynomial


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _primitive(vec):
    """The primitive integer vector on the ray through a rational vector."""
    scale = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _inverse_columns(rows):
    """The columns of the inverse of a square invertible matrix, each made a
    primitive integer vector: column c solves rows . x = lambda e_c with
    lambda > 0, so it is a ray tight on every row except row c."""
    _, inverse = fraction_rank_inverse(rows)
    assert inverse is not None
    return [_primitive([row[c] for row in inverse]) for c in range(len(rows))]


# -- oracles: the rank-based procedures the build used before ------------------

def oracle_extreme_rays(rows):
    d = len(rows[0])
    base = []
    for i in range(len(rows)):
        if fraction_rank_inverse([rows[j] for j in base] + [rows[i]])[0] > len(base):
            base.append(i)
            if len(base) == d:
                break
    assert len(base) == d, "inequality system is rank deficient"

    rays = _inverse_columns([rows[i] for i in base])
    active = list(base)
    for idx in (i for i in range(len(rows)) if i not in set(base)):
        a = rows[idx]
        vals = [_dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            active.append(idx)
            continue
        zsets = [frozenset(j for j in active if _dot(rows[j], r) == 0) for r in rays]
        keep = [r for r, v in zip(rays, vals) if v >= 0]
        new = []
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        for ip in plus:
            for im in minus:
                z = zsets[ip] & zsets[im]
                if any(k != ip and k != im and z <= zsets[k] for k in range(len(rays))):
                    continue
                combo = tuple(vals[ip] * rm - vals[im] * rp for rp, rm in zip(rays[ip], rays[im]))
                new.append(_primitive(combo))
        rays = list(dict.fromkeys(keep + new))
        active.append(idx)
    return rays


def oracle_vertices(P, support):
    verts = []
    for v in support:
        tight = [F.normal for F in P.facets if _dot(F.normal, v) == F.offset]
        if fraction_rank_inverse(tight)[0] == P.n:
            verts.append(v)
    return tuple(verts)


def homogenization_rows(support, n):
    rows = [tuple(int(i == j) for i in range(n)) + (0,) for j in range(n)]
    return rows + [tuple(v) + (1,) for v in sorted(support)]


def random_support(rng: random.Random, n: int):
    """A few random points plus points that are no vertices: the centroid of
    three points, a point between two, and a point dominated by one."""
    base = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 5))}
    base = sorted(v for v in base if any(v))
    support = set(base)
    if len(base) >= 3:
        a, b, c = rng.sample(base, 3)
        support |= {tuple(3 * x for x in v) for v in (a, b, c)}
        support.add(tuple(x + y + z for x, y, z in zip(a, b, c)))  # interior
    if len(base) >= 2:
        a, b = rng.sample(base, 2)
        support |= {tuple(2 * x for x in a), tuple(2 * x for x in b)}
        support.add(tuple(x + y for x, y in zip(a, b)))  # collinear, between
    if base:
        v = list(rng.choice(base))
        v[rng.randrange(n)] += rng.randint(1, 3)
        support.add(tuple(v))  # axis-dominated
    return sorted(support) or [(1,) * n]


# -- the leaner build agrees with the oracles -----------------------------------

def test_initial_rays_are_the_inverse_columns_of_the_base():
    # with only the n unit rows and one lifted point, the double description
    # pass returns its closed-form initial rays untouched
    rng = random.Random(4242)
    for trial in range(200):
        n = 1 + trial % 6
        v = tuple(rng.randint(0, 9) for _ in range(n))
        rows = homogenization_rows([v], n)
        assert fraction_rank_inverse(rows)[0] == n + 1
        assert _extreme_rays(rows) == _inverse_columns(rows)


def test_extreme_rays_checks_that_the_rows_open_with_unit_rows():
    rows = homogenization_rows([(1, 2), (2, 1)], 2)
    for bad in (rows[1:], [rows[1], rows[0]] + rows[2:], rows[:2] + [(1, 2, 0)] + rows[3:]):
        with pytest.raises(AssertionError):
            _extreme_rays(bad)


def test_extreme_rays_and_vertices_match_rank_oracles_random():
    rng = random.Random(8080)
    for trial in range(150):
        n = 1 + trial % 5
        support = random_support(rng, n)
        rows = homogenization_rows(support, n)
        assert set(_extreme_rays(rows)) == set(oracle_extreme_rays(rows))
        P = build_polyhedron(Polynomial(n, dict.fromkeys(support, 1)))
        assert P.vertices == oracle_vertices(P, support)


def test_support_masks_match_dots_recomputed_from_scratch():
    rng = random.Random(3131)
    for trial in range(150):
        f = random_polynomial(rng, n=1 + trial % 5, max_terms=8, max_exp=4)
        P = build_polyhedron(f)
        support = sorted(f.terms)
        assert len(P.support_masks) == len(P.facets)
        for F, mask in zip(P.facets, P.support_masks):
            dots = [_dot(F.normal, s) for s in support]
            assert min(dots) == F.offset
            assert mask == sum(1 << i for i, x in enumerate(dots) if x == F.offset)
        # the masks follow from the other fields and stay out of ==, hash and repr
        bare = dataclasses.replace(P, support_masks=())
        assert bare == P and hash(bare) == hash(P) and repr(bare) == repr(P)


def test_non_vertices_of_every_kind_are_excluded():
    # (2,2,2) is the centroid, (3,3,0) lies between two points and (3,0,1)
    # is dominated by (3,0,0)
    support = [(3, 0, 0), (0, 3, 0), (3, 3, 6), (2, 2, 2), (3, 0, 1), (6, 0, 0), (0, 6, 0), (3, 3, 0)]
    P = build_polyhedron(Polynomial(3, dict.fromkeys(support, 1)))
    assert P.vertices == oracle_vertices(P, sorted(support)) == ((0, 3, 0), (3, 0, 0))


# -- face sigmas from the vertex set --------------------------------------------

def test_segment_minimum_at_an_interior_crossing():
    # x^3 + y^2: 3 lam = 2 - 2 lam at lam = 2/5, so t* = 6/5 and sigma = 5/6
    assert _segment_t_star((0, 2), (3, 0)) == Fraction(6, 5)
    assert _segment_t_star((3, 0), (0, 2)) == Fraction(6, 5)


def test_segment_minimum_at_an_endpoint():
    # x^2*y + x^3: max_j is 2 + lam on the whole segment, least at (2, 1)
    assert _segment_t_star((2, 1), (3, 0)) == 2
    assert _segment_t_star((3, 0), (2, 1)) == 2


def test_segment_minimum_among_many_lines():
    # lines 4 - 4 lam, 1 + 2 lam, 3 lam, 2: the envelope is least at lam = 1/2
    assert _segment_t_star((4, 1, 0, 2), (0, 3, 3, 2)) == 2
    # lines 5 - 5 lam, 4 lam, 1 + 3 lam: 5 - 5 lam meets 1 + 3 lam at lam = 1/2
    assert _segment_t_star((5, 0, 1), (0, 4, 4)) == Fraction(5, 2)


@pytest.mark.parametrize("text, edge, sigma", [
    ("x^3+y^2+z", ((0, 2, 0), (3, 0, 0)), Fraction(5, 6)),
    ("x^2*y+x^3+z^5", ((2, 1, 0), (3, 0, 0)), Fraction(1, 2)),
])
def test_two_vertex_faces_need_no_build(text, edge, sigma, builds):
    P = build_polyhedron(parse_polynomial(text))
    builds.clear()
    ids = tuple(sorted(P.vertices.index(v) for v in edge))
    faces = [face for face in P.faces if face.vertex_ids == ids]
    assert faces and all(face.sigma_tau == sigma for face in faces)
    assert builds == []
    assert all(build_polyhedron(face.restriction).diagonal.sigma == sigma for face in faces)


@st.composite
def polynomials_up_to_five(draw) -> Polynomial:
    n = draw(st.integers(1, 5))
    exps = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=7, unique=True
        )
    )
    coefs = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=len(exps), max_size=len(exps)))
    return Polynomial(n, dict(zip(exps, coefs)))


@settings(max_examples=60, deadline=None)
@given(f=polynomials_up_to_five())
@example(f=parse_polynomial("x*y+z*u"))
@example(f=parse_polynomial("x^2*y+y^2*z+z^2*u+u^2*v+v^2*x"))
@example(f=parse_polynomial("x^4+x^2*y*z+y^4+z^4+x*y*z*u"))
def test_face_sigmas_match_fresh_builds_of_their_restrictions(f):
    P = build_polyhedron(f)
    assert any(face.recession_axes for face in P.faces)
    for face in P.faces:
        assert face.sigma_tau == build_polyhedron(face.restriction).diagonal.sigma


def _hull_vertex_sets(P):
    """Vertex sets whose sigma takes a double description pass: at least 3
    vertices, and not P's own, whose sigma P's diagonal already holds."""
    whole = tuple(range(len(P.vertices)))
    return {face.vertex_ids for face in P.faces if len(face.vertex_ids) >= 3} - {whole}


def test_face_pass_builds_nothing_and_solves_each_vertex_set_once(corpus, monkeypatch):
    """While ``P.faces`` derives the face lattice, with every face's sigma,
    no call reaches a polyhedron build or ``face_restriction``, and the
    double description pass runs once per vertex set of
    ``_hull_vertex_sets``; reading the faces and their sigmas again runs no
    pass at all."""
    rng = random.Random(55)
    polys = list(corpus) + [random_polynomial(rng, n=rng.randint(2, 5), max_terms=8, max_exp=4) for _ in range(20)]
    built = [newton._build(f) for f in polys]  # uncached, so no face sigma has been read
    forbidden, passes, real = [], [], newton._extreme_rays
    for module, name in ((newton, "_build"), (newton, "build_polyhedron"), (poly, "face_restriction")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: forbidden.append(name))
    monkeypatch.setattr(newton, "face_restriction", lambda *args: forbidden.append("import"), raising=False)

    def spy(rows):
        n = len(rows[0]) - 1
        passes.append(tuple(row[:n] for row in rows[n:]))  # the lifted points, unlifted
        return real(rows)

    monkeypatch.setattr(newton, "_extreme_rays", spy)
    for P in built:
        passes.clear()
        sigmas = [face.sigma_tau for face in P.faces]
        wanted = sorted(tuple(P.vertices[i] for i in ids) for ids in _hull_vertex_sets(P))
        assert forbidden == [] and sorted(passes) == wanted
        assert [face.sigma_tau for face in P.faces] == sigmas and sorted(passes) == wanted  # kept faces


@st.composite
def point_sets(draw):
    """(n, points): 1 to 8 distinct nonzero points with entries 0..6 in n <= 8."""
    n = draw(st.integers(1, 8))
    points = st.tuples(*[st.integers(0, 6)] * n).filter(any)
    return n, draw(st.lists(points, min_size=1, max_size=8, unique=True))


@pytest.mark.more_examples
@settings(deadline=None)
@given(case=point_sets())
@example(case=(3, [(2 ** 40, 1, 0), (0, 2 ** 40 + 3, 5), (7, 11, 2 ** 40 - 1), (2 ** 39, 2 ** 39, 2 ** 39)]))
@example(case=(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)]))  # x+y+z >= 2 is the one positive offset
def test_hull_t_star_is_the_diagonal_of_the_polyhedron_of_its_points(case):
    # the path the face sigmas took before: a polyhedron of their own
    n, points = case
    oracle = newton._build(Polynomial(n, dict.fromkeys(points, 1))).diagonal.t_star
    assert newton._hull_t_star(points, n) == oracle


def test_two_vertex_polyhedron_reads_every_sigma_without_a_build(builds):
    P = newton._build(parse_polynomial("x*y+z*u"))  # uncached, so no face sigma has been read
    builds.clear()
    assert len(P.faces) == 34
    assert {face.sigma_tau for face in P.faces} == {Fraction(1), Fraction(2)}
    assert builds == []


def test_faces_of_two_builds_form_one_set(corpus):
    for f in corpus:
        first, second = build_polyhedron(f), newton._build(f)  # the second uncached
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert set(first.faces) == set(second.faces)
        assert len(set(first.faces) | set(second.faces)) == len(first.faces)


def test_equal_polynomials_share_one_polyhedron():
    text = "x^2*y+y^2*z+z^2*x+x*y*z"
    f = parse_polynomial(text)
    first = build_polyhedron(f)
    assert build_polyhedron(f) is first
    assert build_polyhedron(parse_polynomial(text)) is first  # equal f, same P


def test_polyhedron_dies_with_its_polynomial():
    f = parse_polynomial("x^4*y+x*y^5+x^2*y^2*z+z^7")
    P = build_polyhedron(f)
    P.faces, P.diagonal  # derived data must not pin f either
    ref = weakref.ref(P)
    del P
    gc.collect()
    assert ref() is build_polyhedron(f)  # kept while f lives
    del f
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("text", ["7*x*y+5*z*u", "x^2*y+y^2*z+z^2*x+11*x*y*z"])
def test_polyhedron_is_freed_without_the_cycle_collector(text):
    """Faces are plain data that do not hold the polyhedron, so no reference
    cycle keeps a polyhedron and its lattice table resident after its
    polynomial dies: reference counting alone frees it."""
    gc.disable()
    try:
        f = parse_polynomial(text)
        assert f not in newton._BUILT  # no live equal polynomial shares the polyhedron
        P = build_polyhedron(f)
        for face in P.faces:
            face.sigma_tau
        P.lattice_table(40)
        ref = weakref.ref(P)
        del P, f, face
        assert ref() is None
    finally:
        gc.enable()


def test_polyhedron_holds_an_equal_copy_of_its_polynomial(corpus):
    for f in corpus:
        P = build_polyhedron(f)
        assert P.source == f and P.source is not f
