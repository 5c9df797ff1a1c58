"""The face lattice against the 2^#facets subset sweep it replaced, plus the
invariants every face lattice must satisfy.

``oracle_faces`` is the original enumerator: the sum of the normals of every
facet subset is classified, and deduplicating the resulting (vertex ids,
recession axes) keys leaves each face once.  Its dimensions come from an
elimination over Fraction (``fraction_rank_inverse``), independent of the
library's integer one, ``_row_reduce``, which is itself checked against
numpy.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from padicsums.newton import (
    Face,
    NewtonPolyhedron,
    _row_reduce,
    build_polyhedron,
    enumerate_faces,
)
from padicsums.poly import Polynomial, face_restriction, parse_polynomial
from conftest import fraction_rank_inverse, random_polynomial


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def oracle_faces(P: NewtonPolyhedron):
    """The faces of P by the subset sweep, each paired with sigma_tau from a
    fresh build of its restriction."""
    nf = len(P.facets)
    keys = {}
    for mask in range(2 ** nf):
        k = [0] * P.n
        for j in range(nf):
            if mask >> j & 1:
                for i, x in enumerate(P.facets[j].normal):
                    k[i] += x
        keys.setdefault(P.classify(k)[2])

    records = []
    for vids, axes in keys:
        active = tuple(
            j
            for j, F in enumerate(P.facets)
            if all(_dot(F.normal, P.vertices[i]) == F.offset for i in vids)
            and all(F.normal[a] == 0 for a in axes)
        )
        witness = tuple(sum(P.facets[j].normal[i] for j in active) for i in range(P.n))
        members = [
            s
            for s in P.source.support
            if all(_dot(P.facets[j].normal, s) == P.facets[j].offset for j in active)
        ]
        restr = face_restriction(P.source, members)
        v0 = P.vertices[vids[0]]
        spans = [[x - y for x, y in zip(P.vertices[i], v0)] for i in vids[1:]]
        spans += [[int(i == a) for i in range(P.n)] for a in axes]
        dim = fraction_rank_inverse(spans)[0]
        sigma_tau = build_polyhedron(restr).diagonal.sigma
        records.append(((dim, (vids, axes)), active, witness, restr, sigma_tau))
    records.sort(key=lambda r: r[0])
    return [
        (Face(i, vids, axes, dim, active, witness, restr, P), sigma_tau)
        for i, ((dim, (vids, axes)), active, witness, restr, sigma_tau) in enumerate(records)
    ]


def assert_faces_match_oracle(P: NewtonPolyhedron) -> None:
    want = oracle_faces(P)
    faces = enumerate_faces(P)
    assert faces == [face for face, _ in want]
    assert [face.sigma_tau for face in faces] == [sigma for _, sigma in want]


def staircase(vertices: int) -> Polynomial:
    """A plane curve whose support (i, (vertices - i)^2) is strictly convex,
    so every point is a vertex and the polyhedron has vertices + 1 facets."""
    return Polynomial(2, {(i, (vertices - i) ** 2): 1 + i % 3 for i in range(vertices)})


@st.composite
def polynomials(draw) -> Polynomial:
    n = draw(st.integers(1, 4))
    exps = draw(
        st.lists(
            st.tuples(*[st.integers(0, 5)] * n).filter(any), min_size=1, max_size=7, unique=True
        )
    )
    coefs = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=len(exps), max_size=len(exps)))
    return Polynomial(n, dict(zip(exps, coefs)))


@settings(max_examples=80, deadline=None)
@given(f=polynomials())
def test_faces_match_subset_sweep(f):
    P = build_polyhedron(f)
    assume(len(P.facets) <= 12)
    assert_faces_match_oracle(P)


@pytest.mark.parametrize("facets", [14, 16])
def test_staircase_faces_match_subset_sweep(facets):
    P = build_polyhedron(staircase(facets - 1))
    assert len(P.facets) == facets
    faces = enumerate_faces(P)
    assert len(faces) == 2 * facets  # vertices, edges and the polyhedron
    assert_faces_match_oracle(P)


def _euler(faces) -> int:
    return sum((-1) ** face.dim for face in faces)


def test_euler_characteristic_on_corpus(corpus):
    for f in corpus:
        assert _euler(enumerate_faces(build_polyhedron(f))) == 0


def test_euler_characteristic_random():
    rng = random.Random(1729)
    for n in range(1, 6):
        for _ in range(12 if n < 5 else 4):
            f = random_polynomial(rng, n=n, max_terms=8, max_exp=4)
            assert _euler(enumerate_faces(build_polyhedron(f))) == 0


def test_equality_ignores_what_was_derived():
    f = parse_polynomial("x*y+z*u")
    P, Q = build_polyhedron(f), build_polyhedron(f)
    enumerate_faces(P)
    assert P == Q and repr(P) == repr(Q)


def test_face_equality_ignores_whether_sigma_was_read(corpus):
    for f in corpus:
        read, unread = enumerate_faces(build_polyhedron(f)), enumerate_faces(build_polyhedron(f))
        sigmas = [face.sigma_tau for face in read]
        assert read == unread and repr(read) == repr(unread)
        assert [face.sigma_tau for face in unread] == sigmas


@st.composite
def matrices(draw):
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        w = h  # square matrices exercise the oracle's inverse
    row = st.lists(st.integers(-3, 3), min_size=w, max_size=w)
    return draw(st.lists(row, min_size=h, max_size=h))


def rank(rows) -> int:
    """The rank ``_row_reduce`` returns, on a copy of ``rows``."""
    return _row_reduce([list(row) for row in rows], len(rows[0]) if rows else 0)


@settings(max_examples=300, deadline=None)
@given(rows=matrices())
def test_rank_matches_numpy_and_the_fraction_oracle(rows):
    want, inverse = fraction_rank_inverse(rows)
    assert rank(rows) == want == np.linalg.matrix_rank(np.array(rows))
    d = len(rows)
    assert (inverse is not None) == (d == len(rows[0]) == want)
    if inverse is not None:
        for i, row in enumerate(rows):
            assert [sum(x * inverse[k][c] for k, x in enumerate(row)) for c in range(d)] == [
                int(i == c) for c in range(d)
            ]


def test_rank_pivot_already_in_place():
    # the pivot of every column is on the diagonal, so no row swap happens
    assert rank([[2, 1], [0, 3]]) == 2
    assert rank([[0, 2], [0, 4]]) == 1  # a column with no pivot is skipped
    assert rank([]) == 0
