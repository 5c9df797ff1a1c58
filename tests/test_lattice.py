"""The blocked lattice layer against the recursive per-point oracle.

``oracle_points`` is the original one-point-at-a-time generator; the Fraction
references below are the original per-point nu-inequality check and cone-sum
fold.  The blocked enumerator with its sorted-key face lookup, the
integer-scaled nu check, the polyhedron's lattice table and the bucketed fold
over it must reproduce them exactly, in order, for any block size and on both
the int64 and the Python-integer (dtype=object) paths.  Tests that force a
path or a block size build their polyhedron uncached (``newton._build``), so
no lattice table kept on a shared polyhedron can stand in for the path.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import comb
from typing import Dict, Iterator, NamedTuple, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from padicsums import bounds, cli, newton, store
from padicsums.errors import BudgetExceeded
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


class NuReference(NamedTuple):
    T: int
    points_checked: int
    main_violations: Tuple[NuCheckRecord, ...]
    halfdim_violations: Tuple[NuCheckRecord, ...]


def nu_reference(f: Polynomial, T: int) -> NuReference:
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
    return NuReference(T, count, tuple(main_bad), tuple(half_bad))


def assert_same_findings(got: NuCheckFindings, want: NuReference) -> None:
    """T, the points checked and both violation tuples, record by record and
    in order, with the field types of the per-point scan: a tuple k and
    Python integers, Fraction right-hand sides and bool verdicts."""
    assert (got.T, got.points_checked) == (want.T, want.points_checked)
    assert type(got.T) is int and type(got.points_checked) is int
    for records, expected in ((got.main_violations, want.main_violations),
                              (got.halfdim_violations, want.halfdim_violations)):
        assert type(records) is tuple
        assert [rec._asdict() for rec in records] == [rec._asdict() for rec in expected]
        assert all(type(rec) is NuCheckRecord for rec in records)
        for rec in records:
            assert type(rec.k) is tuple
            assert {type(x) for x in rec.k + (rec.face_id, rec.nu, rec.N)} == {int}
            assert type(rec.rhs_main) is Fraction and type(rec.rhs_halfdim) is Fraction
            assert type(rec.main_ok) is bool and type(rec.halfdim_ok) is bool


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
            for module in (newton, bounds):
                mp.setattr(module, "INT64_SAFE", 1)
        P = newton._build(f)  # uncached: no lattice table kept from an earlier example
        want = list(oracle_points(P, T))
        assert list(enumerate_lattice_points(P, T)) == want
        blocks = list(lattice_blocks(P, T))
        assert all(len(blk.k) <= block for blk in blocks)
        assert sum(len(blk.k) for blk in blocks) == len(want)
        assert_same_findings(check_nu_inequality(f, T), nu_reference(f, T))
        # an input with findings, fresh, so its failing points are classified
        # at this block size and on this path
        g, T_g = parse_polynomial("x*y+z*u"), max(T, 4)
        want_g = nu_reference(g, T_g)
        assert want_g.halfdim_violations
        assert_same_findings(check_nu_inequality(g, T_g), want_g)
        ms, eps = [0, 1, 2, 3], Fraction(1, 10)
        assert cone_sums_multi(P, p, ms, eps) == cone_reference(P, p, ms, eps)


def assert_blocks_slice_the_shell(f: Polynomial, T: int, block) -> None:
    """At this block size (None: the default), the blocks' k stacked are the
    kept shell's columns, every block but the last is full, and k and nu are
    int64."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(newton, "LATTICE_BLOCK", block)
        size = newton.LATTICE_BLOCK
        blocks = list(lattice_blocks(newton._build(f), T))
    assert np.array_equal(np.vstack([blk.k for blk in blocks]), newton._shell(f.n, T).T)
    assert all(len(blk.k) == size for blk in blocks[:-1]) and 0 < len(blocks[-1].k) <= size
    assert all(blk.k.dtype == blk.nu.dtype == np.int64 for blk in blocks)


@settings(deadline=None)
@given(f=polynomials(), T=st.integers(0, 12), block=st.sampled_from([1, 3, 97, None]))
def test_blocks_are_full_column_slices_of_the_shell(f, T, block):
    assert_blocks_slice_the_shell(f, T, block)


@pytest.mark.parametrize("block", [1, 3, 97, None])
def test_corpus_blocks_are_full_column_slices_of_the_shell(corpus, block):
    for f in corpus:
        for T in (0, 5, 17):
            assert_blocks_slice_the_shell(f, T, block)


def test_block_boundaries_on_corpus(corpus, monkeypatch):
    # at 3 and 97 rows the blocks cut the shell inside runs of one first entry
    for block in (97, 3):
        monkeypatch.setattr(newton, "LATTICE_BLOCK", block)
        findings = 0
        for f in corpus:
            P = newton._build(f)  # uncached: its lattice table is built at this block size
            assert list(enumerate_lattice_points(P, 9)) == list(oracle_points(P, 9))
            want = nu_reference(f, 9)
            assert_same_findings(check_nu_inequality(f, 9), want)
            findings += len(want.halfdim_violations)
            ms, eps = [0, 1, 2, 3], Fraction(1, 10)
            assert cone_sums_multi(P, 3, ms, eps) == cone_reference(P, 3, ms, eps)
        assert findings  # so the per-point classification ran at this block size


@pytest.mark.parametrize("block", [3, 97, None])
def test_shell_growth_and_lattice_blocks_give_the_same_points(corpus, block, monkeypatch):
    # a table grown by rising T, each build from nu = 0, equals one built at once
    if block is not None:
        monkeypatch.setattr(newton, "LATTICE_BLOCK", block)
    for f in corpus:
        P = newton._build(f)
        for t in (0, 3, 9):
            grown = P.lattice_table(t)
        assert rows(grown) == rows(newton._build(f).lattice_table(9))


@settings(max_examples=40, deadline=None)
@given(
    f=polynomials(),
    Ts=st.lists(st.integers(0, 8), min_size=1, max_size=4),
    order=st.sampled_from(["ascending", "descending", "as drawn"]),
    python_ints=st.booleans(),
)
def test_row_check_on_a_kept_table_matches_the_point_scan(f, Ts, order, python_ints):
    # one live f: each call finds a table kept at a larger, a smaller or the
    # same T, and the last T is asked twice
    Ts = {"ascending": sorted(Ts), "descending": sorted(Ts, reverse=True), "as drawn": Ts}[order]
    with pytest.MonkeyPatch.context() as mp:
        if python_ints:
            for module in (newton, bounds):
                mp.setattr(module, "INT64_SAFE", 1)
        for T in Ts + Ts[-1:]:
            assert_same_findings(check_nu_inequality(f, T), nu_reference(f, T))


def assert_columns_match(res: NuCheckFindings, want: NuReference, P: NewtonPolyhedron) -> None:
    """The columns hold every point failing either inequality, in scan
    (lexicographic) order, and the map holds their right-hand sides."""
    failing = sorted({*want.main_violations, *want.halfdim_violations}, key=lambda rec: rec.k)
    F = len(failing)
    assert res.k.shape == (F, P.n) and res.k.dtype == np.int64
    assert res.face_id.shape == res.nu.shape == res.N.shape == (F,)
    assert res.face_id.dtype == res.nu.dtype == np.int64
    assert res.main_ok.dtype == res.halfdim_ok.dtype == bool
    assert res.N.dtype == (object if N_bound(P, res.T) >= bounds.INT64_SAFE else np.int64)
    assert res.k.tolist() == [list(rec.k) for rec in failing]
    for column in ("face_id", "nu", "N", "main_ok", "halfdim_ok"):
        assert getattr(res, column).tolist() == [getattr(rec, column) for rec in failing]
    assert res.rhs == {(rec.face_id, rec.N): (rec.rhs_main, rec.rhs_halfdim) for rec in failing}


@settings(deadline=None)
@given(
    f=polynomials(),
    T=st.integers(0, 8),
    block=st.integers(1, 40),
    python_ints=st.booleans(),
)
def test_nu_columns_match_the_point_scan(f, T, block, python_ints):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton, "LATTICE_BLOCK", block)
        if python_ints:
            for module in (newton, bounds):
                mp.setattr(module, "INT64_SAFE", 1)
        P = newton._build(f)
        mp.setattr(bounds, "build_polyhedron", lambda g: P)  # classified at this block size
        res, want = check_nu_inequality(f, T), nu_reference(f, T)
        assert_columns_match(res, want, P)
        assert_same_findings(res, want)


@pytest.mark.parametrize("text, T, safe, N_dtype", [
    ("x*y+z*u", 8, None, np.int64),
    ("x^3+y^3+z^3", 12, None, np.int64),  # no findings: empty columns, k still (0, n)
    ("x*y+z*u", 8, 2 * 8, object),         # N_bound(P, 8) = 16 reaches INT64_SAFE
    ("x*y+z*u", 8, 2 * 8 + 1, np.int64),   # and stays just below it
])
def test_nu_column_dtypes_and_shapes(text, T, safe, N_dtype, monkeypatch):
    f = parse_polynomial(text)
    if safe is not None:
        for module in (newton, bounds):
            monkeypatch.setattr(module, "INT64_SAFE", safe)
        P = newton._build(f)
        monkeypatch.setattr(bounds, "build_polyhedron", lambda g: P)
    res = check_nu_inequality(f, T)
    assert res.N.dtype == N_dtype
    assert res.k.ndim == 2 and res.k.shape[1] == f.n
    if N_dtype is object:
        assert {type(N) for N in res.N} == {int}
    assert_columns_match(res, nu_reference(f, T), build_polyhedron(f) if safe is None else P)


def test_nu_columns_below_a_kept_T_take_the_dtypes_of_their_T(monkeypatch):
    # the table kept at T = 12 has object N, while N_bound(P, 8) stays below
    # INT64_SAFE, so the findings at T = 8 have int64 N
    f = parse_polynomial("x*y+z*u")
    P = newton._build(f)
    for module in (newton, bounds):
        monkeypatch.setattr(module, "INT64_SAFE", N_bound(P, 8) + 1)
    monkeypatch.setattr(bounds, "build_polyhedron", lambda g: P)
    assert P.lattice_table(12).N.dtype == object
    res, want = check_nu_inequality(f, 8), nu_reference(f, 8)
    assert res.N.dtype == np.int64
    assert_columns_match(res, want, P)
    assert_same_findings(res, want)


def test_records_are_built_only_when_a_violation_tuple_is_read(monkeypatch, capsys):
    f = parse_polynomial("x*y+z*u")
    want = nu_reference(f, 8)
    built = []
    real_make, real_new = NuCheckRecord._make, NuCheckRecord.__new__

    def spy_make(cls, iterable):
        built.append("make")
        return real_make(iterable)

    def spy_new(cls, *args, **kwargs):
        built.append("new")
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(NuCheckRecord, "_make", classmethod(spy_make))
    monkeypatch.setattr(NuCheckRecord, "__new__", spy_new)
    res = check_nu_inequality(f, 8)
    assert len(res.k) == len(want.halfdim_violations) > 0 and built == []
    assert cli.main(["verify-nu", "x*y+z*u", "--T", "8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["halfdim_violations"] and built == []
    assert res.main_violations == () and built == []
    half = res.halfdim_violations
    assert built == ["make"] * len(want.halfdim_violations)
    assert res.halfdim_violations is half  # built once, on first access
    assert_same_findings(res, want)


@pytest.mark.parametrize("text, T", [("x*y+z*u", 8), ("x*y+z*u+x*z+2*y*u", 12), ("x^3+y^3+z^3", 12)])
def test_rhs_is_built_when_first_read(text, T):
    f = parse_polynomial(text)
    res = check_nu_inequality(f, T)
    assert res.main_violations == () and "rhs" not in vars(res)
    # the reference: each failing row's two sides, in Fractions
    P = build_polyhedron(f)
    sigma, faces = P.diagonal.sigma, P.faces
    want = {}
    for face_id, N, nu, _ in rows(P.lattice_table(T)):
        main = sigma * (N + 1) - faces[face_id].sigma_tau
        half = sigma * (N + 1) - Fraction(faces[face_id].dim + 1, 2)
        if nu < main or nu < half:
            want[face_id, N] = (main, half)
    assert res.rhs == want and (len(want) > 0) == (len(res.k) > 0)
    assert "rhs" in vars(res) and res.rhs is vars(res)["rhs"]


def spy_classified(monkeypatch) -> list:
    """The k of every point classified from now on, by the lattice table or
    by the nu check, in order."""
    real, seen = newton._classified_blocks, []

    def spy(*args):
        for blk in real(*args):
            seen.extend(map(tuple, blk.k.tolist()))
            yield blk

    monkeypatch.setattr(newton, "_classified_blocks", spy)
    return seen


def test_a_clean_polynomial_at_a_kept_T_classifies_no_point(monkeypatch):
    f = parse_polynomial("x^3+y^3+z^3")
    build_polyhedron(f).lattice_table(20)
    seen = spy_classified(monkeypatch)
    for T in (20, 12):
        res = check_nu_inequality(f, T)
        assert res.points_checked == comb(T + 3, 3) and not res.halfdim_violations
    assert seen == []


@pytest.mark.parametrize("text", ["x*y+z*u", "x*y+z*u+x*z+2*y*u"])
def test_a_steady_nu_check_with_findings_classifies_no_point(text, monkeypatch):
    # the findings are read from the kept rows, at the kept T and below it
    f = parse_polynomial(text)
    wants = {T: nu_reference(f, T) for T in (12, 7)}
    assert all(want.halfdim_violations for want in wants.values())
    build_polyhedron(f).lattice_table(12)
    seen = spy_classified(monkeypatch)
    for T in (12, 7, 12):
        assert_same_findings(check_nu_inequality(f, T), wants[T])
    assert seen == []


@pytest.mark.parametrize("text", ["x*y+z*u", "x*y+z*u+x*z+2*y*u"])
def test_a_cold_nu_check_classifies_each_point_once(text, monkeypatch):
    f = parse_polynomial(text)
    want = nu_reference(f, 12)
    P = newton._build(f)  # fresh: nothing kept
    P.faces  # the face lattice checks its witnesses, which are no lattice scan
    monkeypatch.setattr(bounds, "build_polyhedron", lambda g: P)
    seen = spy_classified(monkeypatch)
    assert_same_findings(check_nu_inequality(f, 12), want)
    # every shell point once, in lexicographic order
    assert len(seen) == comb(12 + f.n, f.n)
    assert seen == [pt.k for pt in oracle_points(P, 12)]


def assert_rows_are_the_points(P: NewtonPolyhedron, T: int) -> None:
    """With every row of ``lattice_table(T)`` flagged, ``_row_points`` gives
    every point with nu(k) <= T in scan order, each with the table row of its
    (face id, N, nu); k is int64 and ``rows`` has the least unsigned dtype of
    the kept table's row count."""
    table = P.lattice_table(T)
    k, rows = P._row_points(T, np.ones(len(table.nu), bool))
    count = comb(T + P.n, P.n)
    (kept, _, _), = P._lattice_tables.values()
    assert rows.dtype == np.min_scalar_type(len(kept.nu) - 1) and rows.shape == (count,)
    assert k.dtype == np.int64 and k.shape == (count, P.n)
    points = list(oracle_points(P, T))
    assert k.tolist() == [list(pt.k) for pt in points]
    got = zip(table.face_id[rows].tolist(), table.N[rows].tolist(), table.nu[rows].tolist())
    assert list(got) == [(pt.face_id, pt.N, pt.nu) for pt in points]


@settings(max_examples=60, deadline=None)
@given(
    f=polynomials(),
    Ts=st.lists(st.integers(0, 8), min_size=1, max_size=3).map(sorted),
    python_ints=st.booleans(),
)
def test_kept_rows_are_each_points_row(f, Ts, python_ints):
    with pytest.MonkeyPatch.context() as mp:
        if python_ints:  # object N and wide keys
            mp.setattr(newton, "INT64_SAFE", 1)
        P = newton._build(f)  # uncached, so every table below is built here
        for T in Ts:  # each larger T grows the kept table, from nu = 0
            P.lattice_table(T)
            assert_rows_are_the_points(P, T)
        for T in Ts:  # a read at a smaller T keeps the table and its rows
            assert_rows_are_the_points(P, T)
            assert list(P._lattice_tables) == [Ts[-1]]


@pytest.mark.parametrize("python_ints", [False, True])
def test_kept_rows_by_key_lookup(python_ints, monkeypatch):
    # at T = 16, span = faces * (T+1) * (N_bound+1) is at most half the
    # point count, so rows are read from a lookup array by key; at T = 12
    # by np.searchsorted
    if python_ints:
        monkeypatch.setattr(newton, "INT64_SAFE", 1)
    P = newton._build(parse_polynomial("x*y*z*u*v+x"))
    Ts = (12, 16)
    spans = {T: len(P.faces) * (T + 1) * (N_bound(P, T) + 1) for T in Ts}
    assert [2 * spans[T] <= comb(T + P.n, P.n) for T in Ts] == [False, True]
    for T in Ts:
        P.lattice_table(T)
        assert_rows_are_the_points(P, T)


HUGE = [Polynomial(2, {(e, 0): 1, (0, 1): 1}) for e in (2 ** 61, 2 ** 40)]


@settings(deadline=None)
@given(
    f=polynomials(),
    Ts=st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True).map(sorted),
    safe=st.none() | st.integers(1, 200),
)
@example(f=HUGE[0], Ts=[1, 5], safe=None)  # N_bound is 2^61 at T = 1, past 2^62 at T = 5
@example(f=HUGE[0], Ts=[1, 4], safe=None)
@example(f=HUGE[1], Ts=[1, 4], safe=None)
def test_a_table_below_a_kept_T_is_the_fresh_table(f, Ts, safe):
    # column for column, dtypes included: N takes the dtype of its own T,
    # whichever T was asked first (``safe`` moves INT64_SAFE between the Ts)
    T1, T2 = Ts
    with pytest.MonkeyPatch.context() as mp:
        if safe is not None:
            mp.setattr(newton, "INT64_SAFE", safe)
        P = newton._build(f)
        P.lattice_table(T2)
        got, want = P.lattice_table(T1), newton._build(f).lattice_table(T1)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


@pytest.mark.parametrize("text", ["x*y+z*u", "x*y+z*u+x*z+2*y*u"])
def test_a_steady_nu_check_builds_no_shell(text, monkeypatch):
    # with no shell kept in the table store, the findings at the kept T and
    # below it are read from the shell the polyhedron keeps with its rows
    monkeypatch.setattr(store, "TABLES", store.TableStore(0))
    f = parse_polynomial(text)
    P = newton._build(f)
    monkeypatch.setattr(bounds, "build_polyhedron", lambda g: P)
    first = check_nu_inequality(f, 12)
    real, calls = newton._shell, []
    monkeypatch.setattr(newton, "_shell", lambda *args: calls.append(args) or real(*args))
    again, below = check_nu_inequality(f, 12), check_nu_inequality(f, 9)
    assert calls == []
    assert len(first.k) and len(below.k)
    for column in ("k", "face_id", "nu", "N", "main_ok", "halfdim_ok"):
        a, b = getattr(first, column), getattr(again, column)
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert_columns_match(first, nu_reference(f, 12), P)
    assert_columns_match(below, nu_reference(f, 9), P)


def test_nu_check_errors_fire_with_a_kept_table(monkeypatch):
    f = parse_polynomial("x*y+z*u")
    build_polyhedron(f).lattice_table(9)
    with pytest.raises(ValueError):
        check_nu_inequality(f, -1)
    monkeypatch.setattr(newton, "POINT_CAP", comb(9 + 4, 4) - 1)
    with pytest.raises(BudgetExceeded):
        check_nu_inequality(f, 9)  # the kept table is not read past the cap
    monkeypatch.setattr(newton, "POINT_CAP", comb(8 + 4, 4))
    assert_same_findings(check_nu_inequality(f, 8), nu_reference(f, 8))


@pytest.mark.parametrize("kept", [False, True])
def test_nu_check_raises_key_error_on_a_pattern_of_no_face(kept, monkeypatch):
    f = parse_polynomial("x^2+y^3")
    whole = build_polyhedron(f).faces
    dropped = max(whole, key=lambda face: sum(face.witness_k))
    T = sum(dropped.witness_k)
    P = newton._build(f)
    P.__dict__["faces"] = tuple(face for face in whole if face != dropped)
    if kept:  # a table kept below the dropped face's first point does not hide it
        first = min(pt.nu for pt in oracle_points(build_polyhedron(f), T) if pt.face_id == dropped.id)
        P.lattice_table(first - 1)
    monkeypatch.setattr(bounds, "build_polyhedron", lambda g: P)
    with pytest.raises(KeyError) as err:
        check_nu_inequality(f, T)
    assert err.value.args[0] == dropped.key


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
    res, want = check_nu_inequality(f, T), nu_reference(f, T)
    assert_columns_match(res, want, P)  # N is object at 2^61, int64 at 2^40
    assert_same_findings(res, want)
    assert_rows_are_the_points(P, T)  # keys of Python integers at 2^61
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
        for module in (newton, bounds):
            monkeypatch.setattr(module, "INT64_SAFE", 1)
    p, eps = 3, Fraction(1, 10)
    for f in corpus:
        P = newton._build(f)  # uncached: its lattice table is built on this path
        T, _ = truncation_level(p, P.n, eps)
        ms = [5, 0, 2, 2, 9, 1, N_bound(P, T) + 1, 10 ** 30, 5]
        assert cone_sums_multi(P, p, ms, eps) == cone_reference(P, p, ms, eps)


def rows(table) -> list:
    """A lattice table as a list of (face id, N, nu, count) in Python integers."""
    return list(zip(*(column.tolist() for column in table)))


@settings(max_examples=40, deadline=None)
@given(
    f=polynomials(),
    Ts=st.lists(st.integers(0, 8), min_size=1, max_size=4).map(sorted),
    later=st.integers(0, 8),
    primes=st.permutations([2, 3, 5]),
    path=st.sampled_from(["int64", "python keys", "python ints", "N grows to object"]),
)
def test_lattice_table_is_the_point_count(f, Ts, later, primes, path):
    P = newton._build(f)  # uncached, so every table below is built here
    T = Ts[-1]
    with pytest.MonkeyPatch.context() as mp:
        if path == "python keys":  # N fits int64, the combined keys do not
            mp.setattr(newton, "INT64_SAFE", N_bound(P, max(T, later)) + 1)
        elif path == "python ints":  # N itself takes dtype=object
            mp.setattr(newton, "INT64_SAFE", 1)
        elif path == "N grows to object":  # int64 N below the last T, object N at it
            mp.setattr(newton, "INT64_SAFE", max(N_bound(P, T), 1))
        classified, count = [], newton._count_lattice

        def spy(P, T, blocks):
            blocks = list(blocks)
            classified.append([nu for blk in blocks for nu in blk.nu.tolist()])
            return count(P, T, blocks)

        mp.setattr(newton, "_count_lattice", spy)
        for t in Ts:  # ascending: each growth is a build from nu = 0
            table = P.lattice_table(t)
            points = Counter((pt.face_id, pt.N, pt.nu) for pt in enumerate_lattice_points(P, t))
            assert {(face, N, nu): c for face, N, nu, c in rows(table)} == points
            assert rows(table) == sorted(rows(table), key=lambda row: (row[0], row[2], row[1]))
            assert table.N.dtype == (np.int64 if N_bound(P, t) < newton.INT64_SAFE else object)
            assert table.face_id.dtype == table.nu.dtype == table.count.dtype == np.int32
        assert sorted(classified[-1]) == sorted(pt.nu for pt in enumerate_lattice_points(P, T))
        mp.setattr(newton, "_count_lattice", count)
        # a read at another T, kept table or not, equals a fresh build there
        assert rows(P.lattice_table(later)) == rows(newton._build(f).lattice_table(later))
        ms, eps = [0, 1, 2, 3], Fraction(1, 10)
        for p in primes:  # each prime's T may slice the kept table or outgrow it
            assert cone_sums_multi(P, p, ms, eps) == cone_reference(P, p, ms, eps)
        # the checks run on every request, however large the kept table
        with pytest.raises(ValueError):
            P.lattice_table(-1)
        mp.setattr(newton, "POINT_CAP", comb(later + f.n, f.n) - 1)
        with pytest.raises(BudgetExceeded):
            P.lattice_table(later)


def test_lattice_table_is_built_once_per_largest_T(monkeypatch):
    f = parse_polynomial("x*y+z*u")
    P = newton._build(f)
    built, real = [], newton._count_lattice

    def spy(P, T, blocks):
        built.append(T)
        return real(P, T, blocks)

    monkeypatch.setattr(newton, "_count_lattice", spy)
    eps = Fraction(1, 10 ** 4)
    Ts = {p: truncation_level(p, f.n, eps)[0] for p in (2, 3, 5, 7)}
    for p in (5, 3, 7, 2, 5, 3):
        assert cone_sums_multi(P, p, [1, 2], eps) == cone_reference(P, p, [1, 2], eps)
    assert built == [Ts[5], Ts[3], Ts[2]]  # a smaller T is a slice of the kept table


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
        # the lattice table looks every point up too, and a table kept from
        # a smaller T, below the first point on the dropped face, does not hide it
        points = oracle_points(build_polyhedron(f), T)
        first = min(pt.nu for pt in points if pt.face_id == dropped.id)
        if first > 0:
            P.lattice_table(first - 1)
        for _ in range(2):  # a build that raises keeps nothing
            with pytest.raises(KeyError) as err:
                P.lattice_table(T)
            assert err.value.args[0] == dropped.key
