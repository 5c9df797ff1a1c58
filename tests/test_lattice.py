"""The blocked lattice layer against the recursive per-point oracle.

``oracle_points`` is the original one-point-at-a-time generator; the Fraction
references below are the original per-point nu-inequality check and cone-sum
fold.  The blocked enumerator with its sorted-key face lookup, the
integer-scaled nu check and the bucketed np.bincount fold must reproduce them
exactly, in order, for any block size and on both the int64 and the
Python-integer (dtype=object) paths.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator

import pytest
from hypothesis import given, settings, strategies as st

from padicsums import bounds, faceformula, newton
from padicsums.bounds import NuCheckFindings, NuCheckRecord, check_nu_inequality
from padicsums.faceformula import ConeSumResult, cone_sums_multi, truncation_level
from padicsums.newton import (
    INT64_SAFE,
    FaceKey,
    LatticePoint,
    N_bound,
    NewtonPolyhedron,
    build_polyhedron,
    enumerate_faces,
    enumerate_lattice_points,
    lattice_blocks,
)
from padicsums.poly import Polynomial, parse_polynomial


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def oracle_points(P: NewtonPolyhedron, T: int) -> Iterator[LatticePoint]:
    """Every k with |k| <= T in lexicographic order, classified one at a time."""
    index: Dict[FaceKey, int] = P.face_index
    n = P.n
    k = [0] * n

    def rec(j: int, remaining: int) -> Iterator[LatticePoint]:
        if j == n:
            kt = tuple(k)
            dots = [_dot(kt, v) for v in P.vertices]
            N = min(dots)
            vids = tuple(i for i, d in enumerate(dots) if d == N)
            axes = tuple(i for i, x in enumerate(kt) if x == 0)
            yield LatticePoint(kt, sum(kt), N, index[(vids, axes)])
            return
        for val in range(remaining + 1):
            k[j] = val
            yield from rec(j + 1, remaining - val)
        k[j] = 0

    yield from rec(0, T)


def nu_reference(f: Polynomial, T: int) -> NuCheckFindings:
    P = build_polyhedron(f)
    faces = enumerate_faces(P)
    sigma = P.diagonal.sigma
    main_bad, half_bad, count = [], [], 0
    for pt in oracle_points(P, T):
        count += 1
        face = faces[pt.face_id]
        rhs_main = sigma * (pt.N + 1) - face.sigma_tau
        rhs_half = sigma * (pt.N + 1) - Fraction(face.dim + 1, 2)
        main_ok, half_ok = pt.nu >= rhs_main, pt.nu >= rhs_half
        rec = NuCheckRecord(pt.k, pt.face_id, pt.nu, pt.N, rhs_main, rhs_half, main_ok, half_ok)
        if not main_ok:
            main_bad.append(rec)
        if not half_ok:
            half_bad.append(rec)
    return NuCheckFindings(T, count, tuple(main_bad), tuple(half_bad))


def cone_reference(P: NewtonPolyhedron, p: int, ms, eps):
    T, tail = truncation_level(p, P.n, eps)
    faces = enumerate_faces(P)
    out = {}
    for m in ms:
        a = {face.id: Fraction(0) for face in faces}
        b = {face.id: Fraction(0) for face in faces}
        for pt in oracle_points(P, T):
            if pt.N >= m:
                a[pt.face_id] += Fraction(1, p ** pt.nu)
            elif pt.N == m - 1:
                b[pt.face_id] += Fraction(1, p ** pt.nu)
        out[m] = [ConeSumResult(face.id, a[face.id], b[face.id]) for face in faces]
    return out, T, tail


@st.composite
def polynomials(draw) -> Polynomial:
    n = draw(st.integers(1, 4))
    exps = draw(
        st.lists(
            st.tuples(*[st.integers(0, 5)] * n).filter(any), min_size=1, max_size=6, unique=True
        )
    )
    coefs = draw(st.lists(st.integers(1, 9), min_size=len(exps), max_size=len(exps)))
    return Polynomial(n, dict(zip(exps, coefs)))


@settings(max_examples=60, deadline=None)
@given(
    f=polynomials(),
    T=st.integers(0, 8),
    block=st.integers(1, 40),
    p=st.sampled_from([3, 5]),
    python_ints=st.booleans(),
)
def test_blocked_layer_matches_oracle(f, T, block, p, python_ints):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton, "LATTICE_BLOCK", block)  # forces many blocks
        if python_ints:  # every int64 bound fails: the dtype=object path everywhere
            for module in (newton, bounds, faceformula):
                mp.setattr(module, "INT64_SAFE", 1)
        P = build_polyhedron(f)
        want = list(oracle_points(P, T))
        assert list(enumerate_lattice_points(P, T)) == want
        blocks = list(lattice_blocks(P, T))
        assert all(len(blk.k) <= block for blk in blocks)
        assert sum(len(blk.k) for blk in blocks) == len(want)
        assert check_nu_inequality(f, T) == nu_reference(f, T)
        ms, eps = [0, 1, 2, 3], Fraction(1, 10)
        assert cone_sums_multi(P, p, ms, eps) == cone_reference(P, p, ms, eps)


def test_block_boundaries_on_corpus(corpus, monkeypatch):
    # at 3 rows, tails of one, two and three entries are all reused
    for block in (97, 3):
        monkeypatch.setattr(newton, "LATTICE_BLOCK", block)
        for f in corpus:
            P = build_polyhedron(f)
            assert list(enumerate_lattice_points(P, 9)) == list(oracle_points(P, 9))
            assert check_nu_inequality(f, 9) == nu_reference(f, 9)


@pytest.mark.parametrize("e", [2 ** 61, 2 ** 40])
def test_huge_exponents_take_exact_object_path(e):
    # 2^61: T * max|v|_1 reaches 2^62, so the lattice itself runs on Python
    # integers.  2^40: the lattice fits int64 but the scaled nu inequality
    # (D is a multiple of 2^40) does not.
    f = Polynomial(2, {(e, 0): 1, (0, 1): 1})
    T = 4
    P = build_polyhedron(f)
    lattice_dtype = object if T * e >= INT64_SAFE else "int64"
    assert all(blk.N.dtype == lattice_dtype for blk in lattice_blocks(P, T))
    assert list(enumerate_lattice_points(P, T)) == list(oracle_points(P, T))
    assert check_nu_inequality(f, T) == nu_reference(f, T)
    ms, eps = [0, 1, 2], Fraction(1, 10)
    assert cone_sums_multi(P, 3, ms, eps) == cone_reference(P, 3, ms, eps)


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("python_ints", [False, True])
def test_fold_buckets_match_reference(corpus, block, python_ints, monkeypatch):
    # m values with gaps and duplicates, m = 0 (B is empty), m = N_bound + 1
    # (its own cut is dropped, m - 1's is kept) and one m far above every N
    if block is not None:
        monkeypatch.setattr(newton, "LATTICE_BLOCK", block)
    if python_ints:
        for module in (newton, bounds, faceformula):
            monkeypatch.setattr(module, "INT64_SAFE", 1)
    p, eps = 3, Fraction(1, 10)
    for f in corpus:
        P = build_polyhedron(f)
        T, _ = truncation_level(p, P.n, eps)
        ms = [5, 0, 2, 2, 9, 1, N_bound(P, T) + 1, 10 ** 30, 5]
        assert cone_sums_multi(P, p, ms, eps) == cone_reference(P, p, ms, eps)


@pytest.mark.parametrize("python_ints", [False, True])
def test_pattern_of_no_face_raises_key_error(python_ints, monkeypatch):
    if python_ints:  # object pattern keys and products
        monkeypatch.setattr(newton, "INT64_SAFE", 1)
    f = parse_polynomial("x^2+y^3")
    whole = build_polyhedron(f).faces
    T = max(sum(face.witness_k) for face in whole)  # every witness is enumerated
    for dropped in whole:
        P = newton._build(f)  # uncached: the shared polyhedron of f stays intact
        P.__dict__["faces"] = tuple(face for face in whole if face != dropped)
        with pytest.raises(KeyError) as err:
            list(lattice_blocks(P, T))
        assert err.value.args[0] == dropped.key
