"""Cone-sum and face-decomposition tests.

Expected A/B values are exact geometric series computed by hand or by the
brute-force tail oracle; the decomposition itself is compared against the
brute-force complete sum at its certified tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, product
from math import comb
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from padicsums import faceformula, newton, sums
from padicsums.errors import WorkBudgetExceeded
from padicsums.faceformula import cone_sums_multi, truncation_level, verify_formula
from padicsums.newton import (
    build_polyhedron,
    enumerate_faces,
    enumerate_lattice_points,
)
from padicsums.poly import Polynomial, parse_polynomial
from padicsums.sums import DEFAULT_WORK_BUDGET, KERNEL_EPS, SumValue, brute_force_S
from conftest import CORPUS_TEXTS, random_polynomial, spy_builds

EPS = Fraction(1, 10 ** 8)


def oracle_tail(p, n, T):
    """(1-1/p)^{-n} minus the enumerated mass, by direct enumeration."""
    mass = Fraction(0)
    for k in product(range(T + 1), repeat=n):
        if sum(k) <= T:
            mass += Fraction(1, p ** sum(k))
    return (1 - Fraction(1, p)) ** (-n) - mass


# -- truncation certificate ---------------------------------------------------

def test_truncation_level_matches_enumeration_oracle():
    for p, n in [(2, 2), (3, 2), (3, 3), (5, 4)]:
        T, tail = truncation_level(p, n, Fraction(1, 1000))
        assert tail <= Fraction(1, 1000)
        assert tail == oracle_tail(p, n, T)
        if T > 0:
            # minimality: one level lower misses the target
            assert oracle_tail(p, n, T - 1) > Fraction(1, 1000)


def test_truncation_level_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        truncation_level(3, 2, 0)


# -- cone sums ----------------------------------------------------------------

def test_cone_sums_product_polynomial():
    f = parse_polynomial("x*y")
    P = build_polyhedron(f)
    per_m, _, tail = cone_sums_multi(P, 3, [2], EPS)
    rows = {r.face_id: r for r in per_m[2]}
    vertex, edge_x, edge_y, whole = (
        P.face_by_key(P.classify(k)[2]).id
        for k in [(1, 1), (0, 1), (1, 0), (0, 0)]  # edge_x: fiber {k1 = 0, k2 >= 1}
    )

    # A(3,2,vertex) = (sum_{k>=1} 3^-k)^2 = 1/4, truncated from below
    assert Fraction(1, 4) - rows[vertex].A_partial <= tail
    assert rows[vertex].A_partial <= Fraction(1, 4)
    assert rows[vertex].B_partial == 0
    # edge fibers: A = sum_{k>=2} 3^-k = 1/6, B = 3^-1 exactly
    for eid in (edge_x, edge_y):
        assert Fraction(1, 6) - rows[eid].A_partial <= tail
        assert rows[eid].B_partial == Fraction(1, 3)
    # whole polyhedron fiber {0}: nothing at m = 2
    assert rows[whole].A_partial == 0 and rows[whole].B_partial == 0


def test_cone_sums_whole_face_at_m1_and_m0():
    f = parse_polynomial("x*y")
    P = build_polyhedron(f)
    whole = P.face_by_key(P.classify((0, 0))[2]).id
    per_m, _, _ = cone_sums_multi(P, 3, [0, 1], EPS)
    rows1 = {r.face_id: r for r in per_m[1]}
    assert rows1[whole].B_partial == 1  # k = 0 contributes p^0
    rows0 = {r.face_id: r for r in per_m[0]}
    assert rows0[whole].B_partial == 0


def test_mass_identity_exact_random():
    rng = random.Random(1009)
    for _ in range(8):
        f = random_polynomial(rng, max_terms=4, max_exp=4)
        p = rng.choice([2, 3, 5])
        P = build_polyhedron(f)
        per_m, _, tail = cone_sums_multi(P, p, [0], Fraction(1, 10 ** 4))
        total = sum(r.A_partial for r in per_m[0]) + tail
        assert total == (1 - Fraction(1, p)) ** (-P.n)


def test_A_nonincreasing_in_m_and_B_support():
    f = parse_polynomial("x*y+z*u")
    P = build_polyhedron(f)
    per_m, _, _ = cone_sums_multi(P, 3, [0, 1, 2, 3, 4], EPS)
    faces = enumerate_faces(P)
    min_N = {face.id: None for face in faces}
    for pt in enumerate_lattice_points(P, 12):
        cur = min_N[pt.face_id]
        min_N[pt.face_id] = pt.N if cur is None else min(cur, pt.N)
    for face in faces:
        for m in (1, 2, 3, 4):
            a_now = per_m[m][face.id].A_partial
            a_prev = per_m[m - 1][face.id].A_partial
            assert a_now <= a_prev
            if min_N[face.id] is not None and m - 1 < min_N[face.id]:
                assert per_m[m][face.id].B_partial == 0


# -- the int64 fold against the big-integer fold ----------------------------------

def bigint_cone_numerators(P, p, ms, eps):
    """``faceformula._cone_numerators`` with W[face][bucket] formed as one
    Python-integer dot product of T + 1 terms per (face, bucket) row: the
    fold the chunked int64 products replaced, kept as their oracle."""
    T, tail = truncation_level(p, P.n, eps)
    faces = enumerate_faces(P)
    table = P.lattice_table(T)
    bound = newton.N_bound(P, T)
    cuts = sorted({c for m in ms for c in (m - 1, m) if c <= bound})
    width = len(cuts) + 1
    bucket = np.searchsorted(np.array(cuts, dtype=table.N.dtype), table.N, side="right")
    index = (table.face_id.astype(np.int64) * width + bucket) * (T + 1) + table.nu
    counts = np.bincount(index, weights=table.count,
                         minlength=len(faces) * width * (T + 1)).astype(np.int64)
    weights = [p ** (T - nu) for nu in range(T + 1)]
    flat = [sum(map(mul, row, weights)) for row in counts.reshape(-1, T + 1).tolist()]
    W = [flat[i:i + width] for i in range(0, len(flat), width)]
    suffix = [list(accumulate(reversed(row)))[::-1] + [0] for row in W]
    bucket_of = {c: j + 1 for j, c in enumerate(cuts)}
    out = {}
    for m in ms:
        a_at, b_at = bucket_of.get(m, width), bucket_of.get(m - 1)
        out[m] = [(a[a_at], 0 if b_at is None else w[b_at]) for a, w in zip(suffix, W)]
    return out, T, tail


FOLD_PRIMES = [2, 3, 5, 13, 101]
FOLD_POINTS = 60_000  # the largest lattice a drawn case may fold


@st.composite
def fold_cases(draw):
    """(f, p, eps, ms): a corpus member or a seeded random polynomial whose
    lattice to the truncation level of eps at p has at most FOLD_POINTS points."""
    p = draw(st.sampled_from(FOLD_PRIMES))
    eps = Fraction(1, 10 ** draw(st.sampled_from([2, 5, 8, 14, 20, 30])))
    fits = [n for n in range(1, 5) if comb(truncation_level(p, n, eps)[0] + n, n) <= FOLD_POINTS]
    corpus = [g for g in map(parse_polynomial, CORPUS_TEXTS) if g.n in fits]
    if corpus and draw(st.booleans()):
        f = draw(st.sampled_from(corpus))
    else:
        rng = random.Random(draw(st.integers(0, 10 ** 6)))
        f = random_polynomial(rng, n=draw(st.sampled_from(fits)), max_terms=5, max_exp=4)
    ms = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True))
    return f, p, eps, ms


@pytest.mark.more_examples
@settings(max_examples=40, deadline=None)
@given(fold_cases())
# one nu chunk (the sweep's eps), two and three chunks
@example((parse_polynomial("x*y+z*u"), 2, Fraction(1, 10 ** 8), [1, 2, 3, 6]))
@example((parse_polynomial("x*y"), 101, Fraction(1, 10 ** 30), [1, 2, 3]))
@example((parse_polynomial("x*y+z*u"), 5, Fraction(1, 10 ** 14), [1, 2, 3, 6]))
@example((parse_polynomial("x*y+z*u"), 13, Fraction(1, 10 ** 30), [0, 1, 5]))
@example((parse_polynomial("x^2+y^3"), 3, Fraction(1, 10 ** 30), [1, 2, 3, 6]))
@example((parse_polynomial("x^3+y^3+z^3"), 5, Fraction(1, 10 ** 30), [1, 2]))
def test_cone_numerators_equal_the_bigint_fold(case):
    # eps down to 1e-30 takes several nu chunks: x*y at 101 and 1e-30 folds
    # 136 points to T = 15 in chunks of 9 and 7 columns
    f, p, eps, ms = case
    P = build_polyhedron(f)
    assert faceformula._cone_numerators(P, p, ms, eps) == bigint_cone_numerators(P, p, ms, eps)


def chunked_fold(counts, p):
    """``faceformula._fold(counts, p)`` and the widths of the column chunks
    it multiplied, in order."""
    widths = []

    class Columns(np.ndarray):
        def __getitem__(self, key):
            widths.append(key[1].stop - key[1].start)
            return np.asarray(self)[key]

    return faceformula._fold(counts.view(Columns), p), widths


@pytest.mark.parametrize("p, s", [(2, 10), (3, 7), (101, 2)])
def test_fold_chunk_is_the_widest_the_bound_allows(p, s):
    # total p^(s-1) < 2^63 <= total p^s: chunks of s columns fit, and a
    # point at the head of a chunk of s + 1 would weigh p^s, so total p^s
    # would wrap int64; chunks of s - 1 would take a fourth product
    total = -(-(1 << 63) // p ** s)
    assert total * p ** (s - 1) < 1 << 63 <= total * p ** s
    T = 3 * s - 1  # three chunks of s columns
    counts = np.zeros((3, T + 1), dtype=np.int64)
    counts[0, 0] = total
    assert chunked_fold(counts, p) == ([total * p ** T, 0, 0], [s, s, s])
    counts[0, 0], counts[1, s] = 0, total  # the head of the second chunk
    assert chunked_fold(counts, p) == ([0, total * p ** (T - s), 0], [s, s, s])
    spread = [nu + 1 for nu in range(T + 1)]  # every column, in all three chunks
    counts[1, s], counts[2] = total - sum(spread), spread  # the same total, so the same s
    want = [0, (total - sum(spread)) * p ** (T - s), sum(c * p ** (T - nu) for nu, c in enumerate(spread))]
    assert chunked_fold(counts, p) == (want, [s, s, s])


# -- right-hand side ----------------------------------------------------------

def rhs_at(f, p, m, eps) -> SumValue:
    """The right-hand side at the one m from ``faceformula._rhs`` alone: no
    nondegeneracy certificate, so it is computed at degenerate primes too."""
    P = newton.build_polyhedron(f)
    rhs, _, _ = faceformula._rhs(P, P.faces, p, [m], eps, workers=1, work_budget=DEFAULT_WORK_BUDGET)
    return rhs[m]


def test_rhs_hand_example_one_ninth():
    f = parse_polynomial("x*y")
    rhs = rhs_at(f, 3, 2, Fraction(1, 10 ** 9))
    assert abs(rhs.value - Fraction(1, 9)) <= 1e-9
    lhs = brute_force_S(f, 3, 2)
    assert abs(lhs.value - rhs.value) <= lhs.abs_error_budget + rhs.abs_error_budget


def test_rhs_matches_brute_force_m1():
    f = parse_polynomial("x*y")
    rhs = rhs_at(f, 3, 1, EPS)
    lhs = brute_force_S(f, 3, 1)
    assert abs(lhs.value - rhs.value) <= lhs.abs_error_budget + rhs.abs_error_budget


def test_rhs_matches_brute_force_hyperbolic():
    f = parse_polynomial("x*y+z*u")
    for m in (1, 2, 3):
        rhs = rhs_at(f, 3, m, EPS)
        lhs = brute_force_S(f, 3, m)
        assert abs(lhs.value - rhs.value) <= lhs.abs_error_budget + rhs.abs_error_budget


# -- verification reports -------------------------------------------------------

def test_verify_product_all_pass():
    reports = verify_formula(parse_polynomial("x*y"), 3, [1, 2, 3])
    assert [r.verdict for r in reports] == ["pass", "pass", "pass"]
    for r in reports:
        assert abs(r.lhs.value - r.rhs.value) <= r.certified_tolerance


def test_verify_not_applicable_at_degenerate_prime():
    reports = verify_formula(parse_polynomial("x^2+y^3"), 3, [2])
    assert [r.verdict for r in reports] == ["not-applicable"]
    assert reports[0].lhs is None and reports[0].rhs is None
    assert not reports[0].nondeg.passed


def test_verify_curve_at_good_prime():
    reports = verify_formula(parse_polynomial("x^2+y^3"), 7, [1, 2, 3])
    assert [r.verdict for r in reports] == ["pass"] * 3


def test_verify_nondegeneracy_scan_overrun_raises():
    with pytest.raises(WorkBudgetExceeded):
        verify_formula(parse_polynomial("x*y+z*u"), 5, [1], work_budget=100)


def test_verify_budget_rows_do_not_abort():
    reports = verify_formula(
        parse_polynomial("x*y+z*u"), 3, [1, 2, 3], work_budget=3 ** 8
    )
    assert [r.verdict for r in reports] == ["pass", "pass", "budget-exceeded"]


def test_rows_over_the_budget_skip_the_assembly(monkeypatch):
    real, assembled = faceformula._assemble, []

    def spy(n, p, per_m, scale, e_values, tail):
        assembled.append(list(per_m))
        return real(n, p, per_m, scale, e_values, tail)

    monkeypatch.setattr(faceformula, "_assemble", spy)
    # 3^(2m) <= 2e8 exactly for m <= 8; one assembly holds all of them
    reports = verify_formula(parse_polynomial("x*y"), 3, range(1, 20001))
    assert assembled == [list(range(1, 9))]
    assert [r.verdict for r in reports[:8]] == ["pass"] * 8
    over = reports[8:]
    assert len(over) == 19992 and {r.verdict for r in over} == {"budget-exceeded"}
    assert all(r.lhs is r.rhs is None for r in over)
    assert {(r.truncation_T, r.tail) for r in reports} == {(reports[0].truncation_T, reports[0].tail)}


def test_residual_shrinks_with_eps():
    f = parse_polynomial("x*y+z*u")
    lhs = brute_force_S(f, 3, 2)
    prev = None
    for exp in (4, 6, 8, 10):
        rhs = rhs_at(f, 3, 2, Fraction(1, 10 ** exp))
        residual = abs(lhs.value - rhs.value)
        assert residual <= lhs.abs_error_budget + rhs.abs_error_budget
        if prev is not None:
            assert residual <= prev + 1e-12
        prev = residual


def test_verify_random_polynomials_end_to_end():
    # the strongest whole-stack property: facets, face keys, sigma_tau, cone
    # sums, torus sums and the kernel must all be right for this to hold
    rng = random.Random(987654)
    checked = 0
    for _ in range(25):
        f = random_polynomial(rng, max_terms=5, max_exp=4)
        p = rng.choice([2, 3, 5, 7])
        ms = [1, 2] if p ** (2 * f.n) <= 3_000_000 else [1]
        for rep in verify_formula(f, p, ms, Fraction(1, 10 ** 7), work_budget=3_000_000):
            assert rep.verdict in ("pass", "not-applicable", "budget-exceeded")
            if rep.verdict == "pass":
                checked += 1
                assert abs(rep.lhs.value - rep.rhs.value) <= rep.certified_tolerance
    assert checked >= 10


def test_verify_one_variable_and_padded_dimension():
    for rep in verify_formula(parse_polynomial("x"), 5, [1, 2, 3]):
        assert rep.verdict == "pass"
    for rep in verify_formula(parse_polynomial("x*y", dimension_hint=3), 3, [1, 2]):
        assert rep.verdict == "pass"


@pytest.mark.parametrize("ms", [[0, 1], [-1]])
def test_verify_formula_rejects_m_below_one(ms):
    with pytest.raises(ValueError, match="m values"):
        verify_formula(parse_polynomial("x*y"), 3, ms)


def test_verify_cone_sum_overrun_marks_every_row():
    # eps = 1e-2000 asks for a lattice table far over its point cap
    reports = verify_formula(parse_polynomial("x*y"), 3, [1, 2], Fraction(1, 10 ** 2000))
    assert [r.verdict for r in reports] == ["budget-exceeded"] * 2
    assert all(r.lhs is None and r.rhs is None and r.truncation_T is None for r in reports)
    assert all(r.nondeg.passed for r in reports)


# -- one right-hand side ----------------------------------------------------------

def _assert_rhs_assembly_matches_verify(f, p, ms, eps) -> int:
    """The right-hand side at one m equals every right-hand side
    verify_formula computes over all of ms at once, exactly in value,
    budget and term count; returns how many it compared."""
    compared = 0
    for rep in verify_formula(f, p, ms, eps, work_budget=10 ** 6):
        if rep.rhs is not None:
            assert rhs_at(f, p, rep.m, eps) == rep.rhs
            compared += 1
    return compared


def test_rhs_assembly_equals_verify_formula_rhs_on_corpus(corpus):
    eps = Fraction(1, 10 ** 6)
    compared = sum(
        _assert_rhs_assembly_matches_verify(f, p, [1, 2], eps) for f in corpus for p in (3, 5)
    )
    assert compared >= 12


# -- face sigmas are built on first read ----------------------------------------

def test_verify_formula_and_rhs_assembly_build_one_polyhedron(corpus, builds):
    for f in corpus:
        builds.clear()
        verify_formula(f, 3, [1, 2], Fraction(1, 10 ** 4))
        assert len(builds) == 1
        builds.clear()
        rhs_at(f, 3, 2, Fraction(1, 10 ** 4))
        assert len(builds) == 1


def _assert_sigmas_fresh_after_rhs(f, p, builds):
    # verify_formula computes the right-hand side only where the certificate
    # passes; _rhs computes it at degenerate primes too
    eps = Fraction(1, 10)
    for compute in (lambda: verify_formula(f, p, [1], eps), lambda: rhs_at(f, p, 1, eps)):
        builds.clear()
        compute()
        assert len(builds) == 1  # no sigma builds a polyhedron
        for face in builds[0].faces:  # the oracle is built afresh, sharing no memo
            assert face.sigma_tau == newton._build(face.restriction).diagonal.sigma


def test_face_sigmas_after_verify_match_fresh_builds(corpus, builds):
    for f in corpus:
        _assert_sigmas_fresh_after_rhs(f, 3, builds)


@st.composite
def small_polynomials(draw) -> Polynomial:
    n = draw(st.integers(1, 4))
    exps = draw(
        st.lists(
            st.tuples(*[st.integers(0, 4)] * n).filter(any), min_size=1, max_size=6, unique=True
        )
    )
    coefs = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=len(exps), max_size=len(exps)))
    return Polynomial(n, dict(zip(exps, coefs)))


@settings(max_examples=40, deadline=None)
@given(f=small_polynomials(), p=st.sampled_from([2, 3]))
def test_face_sigmas_after_verify_match_fresh_builds_random(f, p):
    with pytest.MonkeyPatch.context() as mp:
        _assert_sigmas_fresh_after_rhs(f, p, spy_builds(mp))


@settings(max_examples=40, deadline=None)
@given(f=small_polynomials(), p=st.sampled_from([2, 3, 5]))
def test_rhs_assembly_equals_verify_formula_rhs_random(f, p):
    _assert_rhs_assembly_matches_verify(f, p, [1, 2], Fraction(1, 10 ** 4))


# -- one polyhedron across primes -----------------------------------------------

def test_verify_formula_across_primes_computes_one_face_lattice(monkeypatch):
    real, lattices = newton._face_lattice, []

    def spy(P):
        lattices.append(P)
        return real(P)

    monkeypatch.setattr(newton, "_face_lattice", spy)
    f = parse_polynomial("x^3*y+x*y^2+y^5+x^4")
    for p in (2, 3, 5, 7, 11, 13):
        verify_formula(f, p, [1, 2], Fraction(1, 10 ** 4))
    assert len(lattices) == 1


# -- integer right-hand side ------------------------------------------------------

def fraction_assemble(n, p, rows, e_values, tail) -> SumValue:
    """The right-hand side at one m summed over the Fraction rows of
    ``cone_sums_multi``: the assembly the integer numerators replaced."""
    factor = (1 - Fraction(1, p)) ** n
    a_total = Fraction(0)
    eb_total = 0j
    e_budget = 0.0
    term_count = len(rows)
    for row in rows:
        a_total += row.A_partial
        if row.B_partial:
            ev = e_values[row.face_id]
            eb_total += float(row.B_partial) * ev.value
            e_budget += float(row.B_partial) * ev.abs_error_budget
            term_count += ev.term_count
    ffac = float(factor)
    value = float(factor * a_total) + ffac * eb_total
    budget = float(factor * tail) * 2.0 + ffac * e_budget + KERNEL_EPS * len(rows)
    return SumValue(value, budget, term_count)


@settings(max_examples=40, deadline=None)
@given(f=small_polynomials(), p=st.sampled_from([2, 3, 5, 7]))
def test_integer_assembly_equals_fraction_assembly(f, p):
    eps, ms = Fraction(1, 10 ** 4), [1, 2, 3]
    P = build_polyhedron(f)
    rhs, T, tail = faceformula._rhs(P, P.faces, p, ms, eps, workers=1, work_budget=10 ** 6)
    per_m, T_rows, tail_rows = cone_sums_multi(P, p, ms, eps)
    assert (T, tail) == (T_rows, tail_rows)
    needed = {row.face_id for rows in per_m.values() for row in rows if row.B_partial}
    e_values = faceformula._torus_values(P.faces, needed, p, workers=1, work_budget=10 ** 6)
    for m in ms:
        assert rhs[m] == fraction_assemble(P.n, p, per_m[m], e_values, tail)


# -- closed-form torus sums ----------------------------------------------------------

def test_torus_values_call_the_kernel_only_outside_the_closed_form(monkeypatch):
    real, kernel = faceformula.torus_E, []

    def spy(g, p, **kwargs):
        kernel.append((g, p))
        return real(g, p, **kwargs)

    monkeypatch.setattr(faceformula, "torus_E", spy)
    routes = set()
    for text in ["x*y+z*u+x*z+2*y*u", "x^3+y^3+z^3", "x^2+y^3"]:
        P = build_polyhedron(parse_polynomial(text))
        for p in (2, 3, 5, 7):
            kernel.clear()
            needed = range(len(P.faces))
            values = faceformula._torus_values(P.faces, needed, p, workers=1, work_budget=10 ** 6)
            restrictions = dict.fromkeys(face.restriction for face in P.faces)
            outside = [g for g in restrictions if sums._closed_torus_E(g, p) is None]
            assert kernel == [(g, p) for g in outside]
            for face in P.faces:
                E = sums._closed_torus_E(face.restriction, p)
                got = values[face.id]
                assert got.term_count == (p - 1) ** P.n
                routes.add(E is None)
                if E is not None:
                    assert got == SumValue(complex(float(E)), 2 ** -52 * abs(float(E)), (p - 1) ** P.n)
                    exact = real(face.restriction, p)
                    assert abs(exact.value - got.value) <= exact.abs_error_budget
    assert routes == {True, False}


def test_torus_values_check_the_work_budget_before_the_closed_form():
    P = build_polyhedron(parse_polynomial("x*y"))
    assert all(sums._closed_torus_E(face.restriction, 3) is not None for face in P.faces)
    with pytest.raises(WorkBudgetExceeded):
        faceformula._torus_values(P.faces, range(len(P.faces)), 3, workers=1, work_budget=3)
    assert faceformula._torus_values(P.faces, [0], 3, workers=1, work_budget=4)[0].term_count == 4
