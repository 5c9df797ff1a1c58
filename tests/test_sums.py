"""Sum kernel tests against closed forms and a slow independent oracle."""

from __future__ import annotations

import cmath
import contextlib
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import numpy as np

from padicsums import sums
from padicsums.errors import ModulusTooLarge, WorkBudgetExceeded
from padicsums.newton import build_polyhedron, enumerate_faces
from padicsums.poly import Polynomial, parse_polynomial, render
from padicsums.sums import (
    KERNEL_EPS,
    FaceNondeg,
    NondegReport,
    _exp_sum_over_grid,
    _pow_mod_array,
    brute_force_S,
    check_nondegenerate_mod_p,
    torus_E,
)
from conftest import fraction_rank_inverse, random_polynomial


def oracle_S(f, p, m):
    """Direct double-loop complete sum; no shared code with the kernel."""
    M = p ** m
    total = 0j
    for point in product(range(M), repeat=f.n):
        val = sum(c * prod_pow(point, e) for e, c in f.terms.items())
        total += cmath.exp(2j * cmath.pi * (val % M) / M)
    return total / M ** f.n


def oracle_E(f, p):
    total = 0j
    for point in product(range(1, p), repeat=f.n):
        val = sum(c * prod_pow(point, e) for e, c in f.terms.items())
        total += cmath.exp(2j * cmath.pi * (val % p) / p)
    return total / (p - 1) ** f.n


def prod_pow(point, exps):
    out = 1
    for x, e in zip(point, exps):
        out *= x ** e
    return out


# -- closed forms -------------------------------------------------------------

def test_linear_character_sum_vanishes():
    f = parse_polynomial("x")
    for p, m in [(3, 1), (3, 2), (5, 2), (7, 1)]:
        assert abs(brute_force_S(f, p, m).value) < 1e-12


def test_product_sum_closed_form():
    f = parse_polynomial("x*y")
    for p, m in [(3, 1), (3, 2), (5, 2), (7, 2)]:
        s = brute_force_S(f, p, m)
        assert abs(s.value - p ** -m) < 1e-12


def test_sum_matches_slow_oracle():
    for text, p, m in [("x*y", 3, 2), ("x^2+y^3", 5, 1), ("x*y+z*u", 3, 1)]:
        f = parse_polynomial(text)
        got = brute_force_S(f, p, m).value
        assert abs(got - oracle_S(f, p, m)) < 1e-12


def test_torus_sum_values():
    assert abs(torus_E(parse_polynomial("x*y"), 3).value - (-0.5)) < 1e-12
    f4 = parse_polynomial("x*y+z*u")
    for p in (3, 5, 7, 11):
        assert abs(torus_E(f4, p).value - (p - 1) ** -2) < 1e-12
    cube = parse_polynomial("y^3", dimension_hint=2)
    assert abs(torus_E(cube, 5).value - (-0.25)) < 1e-12


def test_torus_sum_matches_slow_oracle():
    for text, p in [("x*y", 7), ("x*y+z*u", 5), ("x^2+y^3", 11)]:
        f = parse_polynomial(text)
        assert abs(torus_E(f, p).value - oracle_E(f, p)) < 1e-12


# -- kernel contracts ---------------------------------------------------------

def test_budget_checked_before_work():
    f = parse_polynomial("x*y+z*u")
    with pytest.raises(WorkBudgetExceeded) as exc:
        brute_force_S(f, 13, 3, work_budget=10 ** 6)
    assert exc.value.estimated == 13 ** 12
    with pytest.raises(WorkBudgetExceeded):
        torus_E(f, 101, work_budget=10 ** 6)


def test_rejects_composite_modulus_base():
    with pytest.raises(ValueError):
        brute_force_S(parse_polynomial("x*y"), 6, 1)


def test_modulus_too_large_for_int64_residues_is_refused():
    # (5^14 - 1)^2 > 2^63: int64 residue products would wrap silently.
    f = parse_polynomial("x^2")
    with pytest.raises(ModulusTooLarge):
        _exp_sum_over_grid(f, 5 ** 14, [(5 ** 14 - 2000, 5 ** 14)], 1)
    # The work budget is checked first, then the modulus, and no grid is
    # summed before either error.
    with recorded_grids() as grids:
        with pytest.raises(WorkBudgetExceeded):
            brute_force_S(f, 5, 14)
        with pytest.raises(ModulusTooLarge):
            brute_force_S(f, 5, 14, work_budget=10 ** 10)
    assert grids == []
    big_prime = 3037000507  # smallest prime p with p (p - 1) >= 2^63
    faces = enumerate_faces(build_polyhedron(f))
    with pytest.raises(ModulusTooLarge):
        check_nondegenerate_mod_p(f, faces, big_prime)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 9, 101, 2 ** 22, 3 ** 19, 11 ** 9]),
    st.integers(0, 70),
    st.lists(st.integers(-(2 ** 62), 2 ** 62), min_size=1, max_size=12),
)
def test_pow_mod_array_matches_python_pow(modulus, e, values):
    got = _pow_mod_array(np.array(values, dtype=np.int64), e, modulus)
    assert got.dtype == np.int64
    assert got.tolist() == [pow(v, e, modulus) for v in values]


def test_largest_prime_power_modulus_below_int64_limit_is_exact():
    M = 3 ** 19  # 3^20 (3^20 - 1) exceeds 2^63, 3^19 (3^19 - 1) does not
    assert _pow_mod_array(np.array([M - 1, M - 2], dtype=np.int64), 2, M).tolist() == [1, 4]
    f = parse_polynomial("x^2")
    got = _exp_sum_over_grid(f, M, [(M - 2000, M)], 1)
    want = sum(cmath.exp(2j * cmath.pi * (x * x % M) / M) for x in range(M - 2000, M))
    assert abs(got - want) <= 1e-9  # one wrapped residue would move a term by O(1)


@pytest.mark.parametrize("M", [3 ** 19, 11 ** 9])
def test_multi_term_residues_at_large_moduli_are_exact(M, monkeypatch):
    # With only the y axis inner, each distinct x exponent is one outer
    # monomial.  At 3^19 three keep (3 + 1)(M - 1)^2 below 2^63, so products
    # are accumulated raw, while thirty exceed it, so each product is reduced
    # at once.  At 11^9 > 2^31 + 1 two residue products already sum past
    # 2^63, so the two x^0 terms must be reduced before they are merged.
    assert (3 + 1) * (3 ** 19 - 1) ** 2 < 1 << 63 <= (30 + 1) * (3 ** 19 - 1) ** 2
    assert 2 * (11 ** 9 - 1) ** 2 >= 1 << 63 > 11 ** 9 * (11 ** 9 - 1)
    monkeypatch.setattr(sums, "_INNER_CAP", 40)
    domains = [(M - 25, M), (M - 40, M)]
    for outer in (3, 30):
        f = Polynomial(2, {(k, 1 + k % 3): M - 1 - 7 * k for k in range(outer)} | {(0, 3): M - 5})
        got = _exp_sum_over_grid(f, M, domains, 1)
        want = sum(
            cmath.exp(2j * cmath.pi * (sum(c * x ** a * y ** b for (a, b), c in f.terms.items()) % M) / M)
            for x in range(*domains[0]) for y in range(*domains[1])
        )
        assert abs(got - want) <= 1e-9  # one wrapped residue would move a term by O(1)


def test_value_is_bounded_by_one_plus_budget():
    rng = random.Random(42)
    for _ in range(15):
        f = random_polynomial(rng, n=2, max_terms=4, max_exp=4)
        s = brute_force_S(f, 5, 1)
        assert abs(s.value) <= 1 + s.abs_error_budget
        e = torus_E(f, 7)
        assert abs(e.value) <= 1 + e.abs_error_budget
        assert s.abs_error_budget >= KERNEL_EPS * s.term_count


def test_phase_periodicity_is_exact():
    # adding p^m * g cannot change any residue, so the value is identical
    rng = random.Random(11)
    f = parse_polynomial("x*y + 3*x^2")
    p, m = 3, 2
    base = brute_force_S(f, p, m).value
    for _ in range(5):
        g = random_polynomial(rng, n=2, max_terms=3, max_exp=3)
        lifted = dict(f.terms)
        for e, c in g.terms.items():
            lifted[e] = lifted.get(e, 0) + p ** m * c
        lifted = {e: c for e, c in lifted.items() if c}
        got = brute_force_S(Polynomial(2, lifted), p, m).value
        assert got == base


def test_variable_permutation_invariance():
    rng = random.Random(13)
    for _ in range(5):
        f = random_polynomial(rng, n=3, max_terms=4, max_exp=3)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        permuted = Polynomial(3, {tuple(e[perm[i]] for i in range(3)): c
                                  for e, c in f.terms.items()})
        a = brute_force_S(f, 3, 1).value
        b = brute_force_S(permuted, 3, 1).value
        assert a == b


def test_parallel_matches_serial_histogram_path(task_plans):
    # x*y sums out x and runs its 2^10 remaining points as one task; no
    # variable of x^2*y+x*y^2 is linear, so its 2^22 points run as 2048 tasks
    # that three workers split
    f = parse_polynomial("x*y")
    serial = brute_force_S(f, 2, 10, workers=1)
    parallel = brute_force_S(f, 2, 10, workers=3)
    assert serial.value == parallel.value
    assert abs(serial.value - 2 ** -10) < 1e-12
    task_plans.clear()
    g = parse_polynomial("x^2*y+x*y^2")
    serial = brute_force_S(g, 2, 11, workers=1)
    parallel = brute_force_S(g, 2, 11, workers=3)
    assert task_plans == [(2048, 1), (2048, 3)]
    assert serial.value == parallel.value


def test_parallel_matches_serial_exp_path(task_plans):
    # modulus above the histogram cap exercises the compensated path;
    # fixed block boundaries make any worker count bit-identical.  At 5^10
    # the stationary-phase split leaves 5^5 points, one task; at the least
    # prime above 2^22 (m = 1, no split) the plain grid runs as 5 segments
    # of its one axis that four workers split
    f = parse_polynomial("x")
    serial = brute_force_S(f, 5, 10, workers=1)
    parallel = brute_force_S(f, 5, 10, workers=4)
    assert task_plans == [(1, 1), (1, 1)]
    assert serial.value == parallel.value
    assert abs(serial.value) < serial.abs_error_budget
    task_plans.clear()
    g = parse_polynomial("x^2+3*x")
    serial = brute_force_S(g, 4194319, 1, workers=1)
    parallel = brute_force_S(g, 4194319, 1, workers=4)
    assert task_plans == [(5, 1), (5, 4)]
    assert serial.value == parallel.value


# -- nondegeneracy ------------------------------------------------------------

def test_nondeg_product_passes():
    f = parse_polynomial("x*y")
    P = build_polyhedron(f)
    rep = check_nondegenerate_mod_p(f, enumerate_faces(P), 3)
    assert rep.passed and rep.prime == 3


def test_nondeg_curve_small_prime_excluded():
    f = parse_polynomial("x^2+y^3")
    faces = enumerate_faces(build_polyhedron(f))
    rep5 = check_nondegenerate_mod_p(f, faces, 5)
    assert rep5.passed
    rep3 = check_nondegenerate_mod_p(f, faces, 3)
    assert not rep3.passed
    # the failing faces are exactly those whose restriction is y^3
    failing = {e.face_id for e in rep3.failures}
    y3 = {face.id for face in faces if render(face.restriction) == "y^3"}
    assert failing == y3
    assert all(e.witness == (1, 1) for e in rep3.failures)


def test_nondeg_hyperbolic_pair_passes():
    f = parse_polynomial("x*y+z*u")
    faces = enumerate_faces(build_polyhedron(f))
    assert check_nondegenerate_mod_p(f, faces, 3).passed


def test_nondeg_coefficient_divisible_by_p():
    # the 2yu vertex face reduces to zero mod 2: every torus point critical
    f = parse_polynomial("x*y+z*u+x*z+2*y*u")
    faces = enumerate_faces(build_polyhedron(f))
    rep = check_nondegenerate_mod_p(f, faces, 2)
    assert not rep.passed
    assert any(e.witness == (1, 1, 1, 1) for e in rep.failures)


def test_nondeg_budget():
    f = parse_polynomial("x*y+z*u")
    faces = enumerate_faces(build_polyhedron(f))
    with pytest.raises(WorkBudgetExceeded):
        check_nondegenerate_mod_p(f, faces, 13, work_budget=1000)


@pytest.mark.parametrize("cap", [1, 7])
def test_nondeg_slabs_agree_with_one_pass(cap, corpus, monkeypatch):
    # The default cap scans these small tori as one task; caps of 1 and 7
    # split them into one task per point or per segment of the last axis,
    # which must keep every verdict and the lexicographically first witness.
    # Certificates clear most restrictions without a scan, so every
    # restriction is also scanned directly, and a counter shows the scans ran.
    rng = random.Random(404)
    polys = list(corpus) + [random_polynomial(rng, max_terms=5, max_exp=4) for _ in range(12)]
    cases = []
    for f in polys:
        faces = enumerate_faces(build_polyhedron(f))
        restrictions = dict.fromkeys(face.restriction for face in faces)
        for p in (3, 5, 7, 11):
            witnesses = {g: sums._first_critical_point(g, p) for g in restrictions}
            cases.append((f, faces, p, check_nondegenerate_mod_p(f, faces, p), witnesses))
    assert any(not rep.passed for _, _, _, rep, _ in cases)  # witnesses are exercised
    assert any(w is not None for *_, ws in cases for w in ws.values())
    scans = spy_scans(monkeypatch)
    monkeypatch.setattr(sums, "_INNER_CAP", cap)
    for f, faces, p, want, witnesses in cases:
        assert check_nondegenerate_mod_p(f, faces, p) == want
        assert {g: sums._first_critical_point(g, p) for g in witnesses} == witnesses
    assert len(scans) >= sum(w is not None for *_, ws in cases for w in ws.values())


def spy_scans(monkeypatch) -> list:
    """The torus dimension of every ``_common_zero`` scan from now on."""
    real, scans = sums._common_zero, []

    def spy(comps, p, n):
        scans.append(n)
        return real(comps, p, n)

    monkeypatch.setattr(sums, "_common_zero", spy)
    return scans


def oracle_critical_point(g, p):
    """The first point of range(1, p)^n, in lexicographic order, where every
    partial of g (by term shift, with Python integers) vanishes mod p, or
    None; no code shared with the scan."""
    partials = [
        [(c * e[j], e[:j] + (e[j] - 1,) + e[j + 1:]) for e, c in g.terms.items() if e[j]]
        for j in range(g.n)
    ]
    return next(
        (point for point in product(range(1, p), repeat=g.n)
         if all(sum(c * prod_pow(point, e) for c, e in d) % p == 0 for d in partials)),
        None,
    )


def oracle_nondeg(f, faces, p):
    """The NondegReport of a pure-Python scan of every face restriction."""
    entries = []
    for face in faces:
        witness = oracle_critical_point(face.restriction, p)
        entries.append(FaceNondeg(face_id=face.id, passed=witness is None, witness=witness))
    entries.sort(key=lambda e: e.face_id)
    return NondegReport(prime=p, entries=tuple(entries))


@st.composite
def scan_polynomials(draw):
    """(f, p): n <= 4, f(0) = 0, some coefficients divisible by p; p <= 5
    when n = 4, to keep the pure-Python oracle fast."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 5] if n == 4 else [2, 3, 5, 7]))
    exps = st.tuples(*[st.integers(0, 4)] * n).filter(any)
    coef = st.one_of(st.integers(-9, 9).filter(bool), st.integers(-3, 3).filter(bool).map(lambda c: c * p))
    terms = draw(st.dictionaries(exps, coef, min_size=1, max_size=5))
    return Polynomial(n, terms), p


@settings(max_examples=120, deadline=None)
@given(scan_polynomials(), st.sampled_from([None, 1, 7]))
def test_nondeg_matches_pure_python_scan(case, cap):
    f, p = case
    faces = enumerate_faces(build_polyhedron(f))
    with mock.patch.object(sums, "_INNER_CAP", cap or sums._INNER_CAP):
        got = check_nondegenerate_mod_p(f, faces, p)
    assert got == oracle_nondeg(f, faces, p)


@pytest.mark.parametrize("cap", [1, 7])
def test_first_critical_point_plans_agree_with_the_oracle(cap, monkeypatch):
    # A restriction whose exponent differences have full rank n is decided by
    # the whole-torus scan, passing or failing; one of lower rank reaches it
    # only when it fails, to find the witness.  Caps of 1 and 7 plan these
    # tori as one task per point, or per segment of the last axis.
    full_rank = ["x^2+6*x", "x+x^2", "x^3+y^2+x*y", "x^2*y+x*y^3+x", "x^2+y^2+z^2+x*y*z",
                 "x*y+y*z+z*x+x^2*y^2*z^2"]
    lower_rank = ["x^2+y^3", "x^3+y^3+z^3", "x*y+z*u", "x^5*y+x*y^4", "3*x^2*y+y^3"]
    monkeypatch.setattr(sums, "_INNER_CAP", cap)
    scans = spy_scans(monkeypatch)
    outcomes, whole_passes = set(), 0
    for text in full_rank + lower_rank:
        g = parse_polynomial(text)
        for p in (3, 5, 7, 11, 13):
            if (p - 1) ** g.n > 3000:
                continue
            want = oracle_critical_point(g, p)
            before = len(scans)
            assert sums._first_critical_point(g, p) == want
            whole = g.n in scans[before:]  # the whole torus was scanned
            assert whole or want is None
            whole_passes += whole and want is None
            outcomes.add((text in full_rank, want is None))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    assert whole_passes


def test_nondeg_witness_in_a_later_segment(monkeypatch):
    # At cap 7 the 12-point torus of p = 13 is planned as two segments of the
    # one axis; 2x + 6 vanishes at x = 10, in the second.
    f = parse_polynomial("x^2+6*x")
    faces = enumerate_faces(build_polyhedron(f))
    monkeypatch.setattr(sums, "_INNER_CAP", 7)
    assert sums._split_axes([12]) == (0, 2, 7, 2)
    whole = next(face for face in faces if face.restriction == f)
    assert sums._certificate(tuple(sorted(f.terms.items()))) is None  # so it is scanned
    scans = spy_scans(monkeypatch)
    rep = check_nondegenerate_mod_p(f, faces, 13)
    assert scans == [1]
    assert {e.face_id: e.witness for e in rep.entries}[whole.id] == (10,)
    assert rep == oracle_nondeg(f, faces, 13)


# -- block product and grouped worker ------------------------------------------

@st.composite
def split_polynomials(draw):
    """(f, p, m): random blocks on disjoint variables, free variables, terms
    with coefficients divisible by p^m (which would link blocks if they were
    not dropped) and an optional constant, with the variables shuffled."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    free = draw(st.integers(0, 1))
    n = sum(sizes) + free
    if p ** (m * n) > 5 ** 5:
        m = 1
    perm = draw(st.permutations(range(n)))
    exponent = st.integers(0, 3)
    coef = st.integers(-20, 20).filter(bool)
    terms = {}

    def add(exps, c):
        key = tuple(exps[perm[i]] for i in range(n))
        terms[key] = terms.get(key, 0) + c

    first = 0
    for size in sizes:
        for _ in range(draw(st.integers(1, 3))):
            exps = [0] * n
            for a in range(first, first + size):
                exps[a] = draw(exponent)
            if any(exps):
                add(exps, draw(coef))
        first += size
    for _ in range(draw(st.integers(0, 2))):
        add([draw(exponent) for _ in range(n)], p ** m * draw(coef))
    if draw(st.booleans()):
        add([0] * n, draw(coef))
    terms = {e: c for e, c in terms.items() if c}
    return Polynomial(n, terms or {(1,) + (0,) * (n - 1): 1}), p, m


@settings(max_examples=80, deadline=None)
@given(split_polynomials())
def test_block_product_matches_plain_grid(case):
    f, p, m = case
    M = p ** m
    s = brute_force_S(f, p, m)
    plain = _exp_sum_over_grid(f, M, [(0, M)] * f.n, 1) / M ** f.n
    assert abs(s.value - plain) <= 2 * s.abs_error_budget
    e = torus_E(f, p)
    plain = _exp_sum_over_grid(f, p, [(1, p)] * f.n, 1) / (p - 1) ** f.n
    assert abs(e.value - plain) <= 2 * e.abs_error_budget
    if M ** f.n <= 600:
        assert abs(s.value - oracle_S(f, p, m)) <= s.abs_error_budget + 1e-12
        assert abs(e.value - oracle_E(f, p)) <= e.abs_error_budget + 1e-12
    # reversing the variables and the terms reorders the blocks; the product
    # must not move
    reversed_f = Polynomial(f.n, {exps[::-1]: c for exps, c in reversed(f.terms.items())})
    assert brute_force_S(reversed_f, p, m).value == s.value
    assert torus_E(reversed_f, p).value == e.value


def test_one_point_torus_is_not_split():
    # At p = 2 the torus is the single point (1, ..., 1).  Ten one-variable
    # blocks would multiply ten roots -1 + 1.2e-16i and drift past the
    # one-point budget of 1e-15; the single evaluation stays within it.
    f = Polynomial(10, {tuple(int(i == j) for j in range(10)): 1 for i in range(10)})
    e = torus_E(f, 2)
    assert e.term_count == 1
    assert abs(e.value - 1) <= e.abs_error_budget


@pytest.mark.parametrize("cap", [1, 7, 64])
def test_grouped_worker_is_independent_of_block_plan(cap, monkeypatch):
    # The cap moves the outer/inner split (1 and 7 also segment the last axis
    # of n = 1 grids); histogram counts are exact, so those values must not
    # change at all, while exp-path sums regroup within their budget.
    rng = random.Random(500 + cap)
    M_exp = 5 ** 10  # above the histogram cap
    cases = []
    for _ in range(12):
        n = rng.randint(1, 3)
        f = random_polynomial(rng, n=n, max_terms=6, max_exp=4)
        p = rng.choice([3, 5])
        m = 1 if n > 1 else rng.randint(1, 3)
        exp_domains = [(M_exp - 12, M_exp)] * n
        cases.append((f, p, m, exp_domains, brute_force_S(f, p, m).value, torus_E(f, p).value,
                      _exp_sum_over_grid(f, p ** m, [(0, p ** m)] * n, 1),
                      _exp_sum_over_grid(f, M_exp, exp_domains, 1)))
    monkeypatch.setattr(sums, "_INNER_CAP", cap)
    for f, p, m, exp_domains, s, e, grid, grid_exp in cases:
        assert brute_force_S(f, p, m).value == s
        assert torus_E(f, p).value == e
        assert _exp_sum_over_grid(f, p ** m, [(0, p ** m)] * f.n, 1) == grid
        got = _exp_sum_over_grid(f, M_exp, exp_domains, 1)
        assert abs(got - grid_exp) <= 2 * KERNEL_EPS * 12 ** f.n


# -- linear variables summed out ------------------------------------------------

def plain_value(f, p, m):
    """What the block product must return for f that is one block mod p^m:
    the plain grid of its non-constant terms over p^{mn}, times e(c/p^m) for a
    constant c taken in (-p^m/2, p^m/2]."""
    M = p ** m
    const = f.terms.get((0,) * f.n, 0) % M
    body = Polynomial(f.n, {e: c for e, c in f.terms.items() if any(e)})
    value = _exp_sum_over_grid(body, M, [(0, M)] * f.n, 1) / M ** f.n
    if const:
        value *= cmath.exp(2j * cmath.pi * (const - M if 2 * const > M else const) / M)
    return value


@contextlib.contextmanager
def recorded_grid_calls():
    """(axis sizes, number of polynomials g_j, fiber) of every grid sum
    made inside the block, in call order."""
    grid_sum, calls = sums._grid_sum, []

    def spy(h, gs, fiber, modulus, domains, workers):
        calls.append((tuple(stop - start for start, stop in domains), len(gs), fiber))
        return grid_sum(h, gs, fiber, modulus, domains, workers)

    with mock.patch.object(sums, "_grid_sum", spy):
        yield calls


@pytest.fixture
def grid_calls():
    with recorded_grid_calls() as calls:
        yield calls


@pytest.mark.parametrize("f, p, m, plan", [
    (parse_polynomial("x*y"), 3, 2, ((9,), 1, 9)),  # x and y conflict: one is summed out
    (parse_polynomial("x*y+z*u+x*z+2*y*u"), 3, 2, ((9, 9), 2, 81)),  # x and u summed out
    (parse_polynomial("3*x*y+y^2"), 3, 2, ((9,), 1, 9)),  # g = 3y, so d(y) is 3 or 9
    (parse_polynomial("x*y+9*y^2"), 3, 2, ((9,), 1, 9)),  # y^2 vanishes mod 9
    (parse_polynomial("6*x"), 3, 2, ((), 1, 9)),  # every variable summed out
    (Polynomial(2, {(1, 1): 1, (0, 0): 2}), 5, 2, ((25,), 1, 25)),  # constant term
    (parse_polynomial("x^2*y+x*y^2"), 3, 2, ((9, 9), 0, 1)),  # no linear variable
])
def test_linear_variables_are_summed_out(f, p, m, plan, grid_calls):
    got = brute_force_S(f, p, m)
    assert grid_calls == [plan]
    assert got.term_count == p ** (m * f.n)  # budgets still count the whole grid
    grid_calls.clear()
    assert got.value == plain_value(f, p, m)
    assert abs(got.value - oracle_S(f, p, m)) <= got.abs_error_budget


@st.composite
def single_block_polynomials(draw):
    """(f, p, m): one block mod p^m, with some variables kept at degree 1,
    coefficients with p-power factors below p^m, optional terms of degree 2
    in a linear variable with coefficients divisible by p^m, and an optional
    constant."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    while m > 1 and p ** (m * n) > 3 ** 7:
        m -= 1
    if p ** (m * n) <= 2:  # one-axis grids of two points are evaluated whole
        m = 2
    M = p ** m
    linear = draw(st.sets(st.integers(0, n - 1)))
    unit = st.integers(-12, 12).filter(lambda c: c % p)
    coef = st.builds(lambda u, k: u * p ** k, unit, st.integers(0, m - 1))

    def exponent(axis, least):
        if axis in linear:
            return 1 if least else draw(st.integers(0, 1))
        return draw(st.integers(least, 3))

    terms = {}
    links = [(0,)] if n == 1 else [(a, a + 1) for a in range(n - 1)]
    for link in links:  # a chain of terms keeps the variables in one block
        exps = tuple(exponent(a, 1) if a in link else 0 for a in range(n))
        terms[exps] = draw(coef)
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(exponent(a, 0) for a in range(n))
        if any(exps) and exps not in terms:
            terms[exps] = draw(coef)
    for y in sorted(linear)[:draw(st.integers(0, 1))]:
        exps = tuple(2 if a == y else draw(st.integers(0, 1)) for a in range(n))
        terms[exps] = terms.get(exps, 0) + M * draw(unit)
    if draw(st.booleans()):
        terms[(0,) * n] = draw(unit)
    return Polynomial(n, {e: c for e, c in terms.items() if c}), p, m


@settings(max_examples=120, deadline=None)
@given(single_block_polynomials(), st.sampled_from([None, 1, 7, 64]), st.sampled_from([1, 2]))
def test_summed_out_values_are_bit_identical_to_the_plain_grid(case, cap, workers):
    f, p, m = case
    want = plain_value(f, p, m)
    reversed_f = Polynomial(f.n, {exps[::-1]: c for exps, c in f.terms.items()})
    with mock.patch.object(sums, "_INNER_CAP", cap or sums._INNER_CAP):
        got = brute_force_S(f, p, m, workers=workers)
        assert got.value == want
        assert brute_force_S(reversed_f, p, m, workers=workers).value == want
    if not f.has_constant_term:
        M = p ** m
        assert got.value == _exp_sum_over_grid(f, M, [(0, M)] * f.n, 1) / M ** f.n


@settings(max_examples=40, deadline=None)
@given(single_block_polynomials())
def test_exp_path_keeps_the_plain_grid(case):
    # Above the histogram cap linear variables are not summed out, so at
    # m = 1 every grid is a plain one.  At m >= 2 above the cap every block
    # takes the stationary-phase split instead.
    f, p, m = case
    with recorded_grid_calls() as calls:
        with mock.patch.object(sums, "_HIST_CAP", 1):
            s = brute_force_S(f, p, m)
            plan = list(calls)
            want = plain_value(f, p, m)
    assert plan
    if m == 1:
        assert not any(gs for _, gs, _ in plan)
        assert s.value == want
    else:
        assert all(gs == len(sizes) for sizes, gs, _ in plan)
        assert abs(s.value - want) <= s.abs_error_budget


# -- the toric reduction ----------------------------------------------------------

@contextlib.contextmanager
def recorded_grids():
    """The axis sizes of every grid the kernel visits, in call order."""
    grid_sum, grids = sums._grid_sum, []

    def spy(h, gs, fiber, modulus, domains, workers):
        grids.append(tuple(stop - start for start, stop in domains))
        return grid_sum(h, gs, fiber, modulus, domains, workers)

    with mock.patch.object(sums, "_grid_sum", spy):
        yield grids


def difference_rank(terms):
    """Rank of the differences a_j - a_0 of the exponents, over Q."""
    support = sorted(terms)
    rows = [[x - y for x, y in zip(a, support[0])] for a in support[1:]]
    return fraction_rank_inverse(rows)[0] if rows else 0


@pytest.mark.parametrize("text, p, rank", [
    ("x^3*y+x*y^3", 5, 1),  # (F_5^x)^1 instead of ^2
    ("x^2*y+y^2*z+z^2*x", 7, 2),
    ("x^2*y+y^2*z+z^2*u+u^2*x", 5, 3),  # homogeneous: 4^3 points instead of 4^4
    ("x*y+x^2*y^2", 7, 1),  # 0 lies in the affine hull: b = 0
    ("x^5*y+x*y^4", 11, 1),  # Laurent exponents in h
    ("3*x^2*y^3", 5, 0),  # one term: no grid
    ("x+x^2", 7, 1),  # rank n: the plain grid
    ("x*y+y^2+x^2*y^3", 5, 2),  # rank n
])
def test_torus_block_visits_p_minus_1_to_the_rank(text, p, rank):
    # Each f is one block.  A torus block whose exponent differences have
    # rank r < n_b visits (p-1)^r points, none when r = 0; one with r = n_b
    # keeps the plain grid.  Either way the value is bit-identical to the
    # plain grid's.
    f = parse_polynomial(text)
    assert difference_rank(f.terms) == rank
    with recorded_grids() as grids:
        got = torus_E(f, p)
    assert grids == ([(p - 1,) * rank] if rank else [])
    assert got.term_count == (p - 1) ** f.n  # budgets still count the whole torus
    assert got.value == _exp_sum_over_grid(f, p, [(1, p)] * f.n, 1) / (p - 1) ** f.n


@st.composite
def toric_polynomials(draw):
    """(f, p): n <= 4, exponents a_0 + sum_k lambda_k u_k for fewer than n
    directions u_k, so their differences have rank below n (a block of f may
    still have full rank); exponents are at times scaled by p, which makes
    b = 0 mod p, and coefficients are at times divisible by p.  Directions
    with negative entries make Laurent exponents in h.  p <= 5 when n = 4."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 5] if n == 4 else [2, 3, 5, 7]))
    dirs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=n - 1))
    a0 = draw(st.tuples(*[st.integers(0, 5)] * n).filter(any))
    scale = draw(st.sampled_from([1, 1, p]))
    coef = st.one_of(st.integers(-9, 9).filter(bool),
                     st.integers(-3, 3).filter(bool).map(lambda c: c * p))
    terms = {tuple(scale * x for x in a0): draw(coef)}
    for lam in draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(dirs)), max_size=5)):
        a = tuple(scale * (a0[i] + sum(l * u[i] for l, u in zip(lam, dirs))) for i in range(n))
        if min(a) >= 0 and any(a):
            terms[a] = draw(coef)
    return Polynomial(n, terms), p


#: Each pitfall of the toric reduction, on top of the random draws.
TORIC_PITFALLS = [
    ("x^5*y+x*y^4", 11),  # h = y^-5 + y^-6: Laurent exponents
    ("y+2*x^3*y^3+3*x^6*y^5", 7),  # h = y^-1 + 2 + 3 y: of both signs
    ("z+2*x^3*y^2*z^2+x^4*y^5", 5),  # r = 2, of both signs
    ("x^5*y+3*x*y^4", 3),  # Laurent, and a coefficient divisible by p
    ("x^5*y+x*y^4+z^5*u+z*u^4", 5),  # n = 4, Laurent
    ("x^5*y+x*y^4", 2),  # p - 1 = 1
    ("x^4*y+y^5", 5),  # b = 5 = 0 mod p: h is no component of the scan
    ("x^2*y^3+x^4*y^6", 7),  # b = 0: H = {1}
    ("2*x^2*y+2*y^3", 2),  # every coefficient vanishes mod p
]


def with_toric_pitfalls(test):
    for text, p in TORIC_PITFALLS:
        test = example((parse_polynomial(text), p))(test)
    return test


@settings(max_examples=120, deadline=None)
@given(toric_polynomials())
@with_toric_pitfalls
def test_toric_counts_equal_the_plain_torus_histogram(case):
    f, p = case
    terms = {e: c % p for e, c in f.terms.items() if c % p}
    assume(terms)
    want = np.bincount(
        [sum(c * prod_pow(x, e) for e, c in terms.items()) % p
         for x in product(range(1, p), repeat=f.n)],
        minlength=p,
    )
    rank = difference_rank(terms)
    with recorded_grids() as grids:
        got = sums._toric_counts(terms, p, 1)
    assert grids == ([(p - 1,) * rank] if rank else [])
    assert got.tolist() == want.tolist()


@settings(max_examples=120, deadline=None)
@given(toric_polynomials())
@with_toric_pitfalls
def test_toric_torus_values_are_bit_identical_to_the_plain_grid(case):
    # A rank of n_b for every support sends each block to the plain grid.
    f, p = case
    got = torus_E(f, p)
    with mock.patch.object(sums, "_toric_form", lambda support: (len(support[0]), None, None)):
        plain = torus_E(f, p)
    assert got == plain
    reversed_f = Polynomial(f.n, {exps[::-1]: c for exps, c in f.terms.items()})
    assert torus_E(reversed_f, p).value == got.value


@settings(max_examples=120, deadline=None)
@given(toric_polynomials())
@with_toric_pitfalls
def test_toric_scan_matches_pure_python_scan(case):
    f, p = case
    faces = enumerate_faces(build_polyhedron(f))
    assert check_nondegenerate_mod_p(f, faces, p) == oracle_nondeg(f, faces, p)


# -- the stationary-phase split ---------------------------------------------------

@st.composite
def split_blocks(draw):
    """(f, p, m): one block mod p^m with no linear variable, with m >= 2 and
    a grid small enough for the plain oracle.  A chain of terms that survive mod
    p^m gives every variable an exponent >= 2; exponents p make derivatives
    divisible by p, coefficients carry p-power factors (up to vanishing mod
    p^m), and a constant term is optional, so q * df/dx_j may vanish mod p^m
    in some or all components."""
    p, m, n = draw(st.sampled_from([
        (2, 3, 2), (2, 4, 2), (2, 5, 2), (3, 2, 2), (3, 3, 2), (3, 4, 2), (5, 2, 2),
        (7, 2, 2), (2, 2, 3), (2, 3, 3), (3, 2, 3), (5, 2, 3),
    ]))
    unit = st.integers(-12, 12).filter(lambda c: c % p)
    exponent = st.sampled_from([2, 3, p, 2 * p])
    terms = {}
    for a in range(n - 1):
        exps = [0] * n
        exps[a], exps[a + 1] = draw(exponent), draw(exponent)
        terms[tuple(exps)] = draw(unit) * p ** draw(st.integers(0, m - 1))
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.sampled_from([0, 1, 2, p])) for _ in range(n))
        if any(exps) and exps not in terms:
            terms[exps] = draw(unit) * p ** draw(st.integers(0, m))
    if draw(st.booleans()):
        terms[(0,) * n] = draw(unit)
    return Polynomial(n, terms), p, m


@settings(max_examples=120, deadline=None)
@given(split_blocks())
def test_split_values_match_the_plain_grid(case):
    # Histogram mode keeps the plain grid.  Above the cap the split visits
    # y in [0, q)^n, q = p^ceil(m/2), each y standing for (p^m / q)^n
    # points, and its value is within the whole grid's budget.
    f, p, m = case
    M, q = p ** m, p ** ((m + 1) // 2)
    with recorded_grid_calls() as calls:
        got = brute_force_S(f, p, m)
        assert calls == [((M,) * f.n, 0, 1)]
        calls.clear()
        with mock.patch.object(sums, "_HIST_CAP", 1):
            got_exp = brute_force_S(f, p, m)
    assert calls == [((q,) * f.n, f.n, (M // q) ** f.n)]
    want = plain_value(f, p, m)
    assert got.value == want
    assert got_exp.term_count == got.term_count == M ** f.n
    assert abs(got_exp.value - want) <= got_exp.abs_error_budget


def test_x3_at_5_11_visits_5_6_points(grid_calls):
    # 5^11 is above the histogram cap; the split x = y + 5^6 z leaves y in
    # [0, 5^6), each standing for 5^5 grid points.
    got = brute_force_S(parse_polynomial("x^3"), 5, 11)
    assert grid_calls == [((5 ** 6,), 1, 5 ** 5)]
    assert got.term_count == 5 ** 11
    assert abs(got.value - 5 ** -4) <= got.abs_error_budget


def test_connected_block_at_3_4_visits_3_8_points(grid_calls):
    # No variable is linear; above the histogram cap the split x = y + 9z
    # leaves y in [0, 9)^4, 3^8 points instead of 3^16, each standing for
    # 9^4 grid points.
    f = parse_polynomial("x^2*y+y^2*z+z^2*u+u^2*x")
    want = _exp_sum_over_grid(f, 81, [(0, 81)] * 4, 1) / 3 ** 16
    grid_calls.clear()
    with mock.patch.object(sums, "_HIST_CAP", 1):
        got = brute_force_S(f, 3, 4)
    assert grid_calls == [((9,) * 4, 4, 9 ** 4)]
    assert got.term_count == 3 ** 16
    assert abs(got.value - want) <= got.abs_error_budget


def test_linear_coefficient_residues_at_3_19_are_exact(monkeypatch):
    # The coefficients g_j of the summed-out variables run through the same
    # grouped plans as h, each under its own overflow policy.  With only the y
    # axis inner, h has three distinct outer monomials, so its products are
    # accumulated raw, and g has thirty, past (30 + 1)(M - 1)^2 >= 2^63, so
    # each of its products is reduced at once.
    M = 3 ** 19
    assert (3 + 1) * (M - 1) ** 2 < 1 << 63 <= (30 + 1) * (M - 1) ** 2
    monkeypatch.setattr(sums, "_INNER_CAP", 40)
    domains = [(M - 25, M), (M - 40, M)]
    plan = sums._split_axes([25, 40])
    assert plan == (1, 1, 40, 25)
    h = {(k, 1 + k % 3): M - 1 - 7 * k for k in range(3)}
    g = {(k, 1 + k % 3): M - 1 - 7 * k for k in range(30)} | {(0, 3): M - 5}
    polys = [sums._reduced_terms(t, M) for t in (h, g)]
    tasks = 0
    for task, arrays in sums._grid_residues(polys, M, domains, *plan[:3], 0, 25):
        x = domains[0][0] + task
        for terms, got in zip((h, g), arrays):
            want = [sum(c * x ** a * y ** b for (a, b), c in terms.items()) % M
                    for y in range(*domains[1])]
            assert got.tolist() == want  # one wrapped residue would differ
        tasks += 1
    assert tasks == 25
