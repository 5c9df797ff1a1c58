"""Sum kernel tests against closed forms and a slow independent oracle."""

from __future__ import annotations

import cmath
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from padicsums import sums
from padicsums.errors import ModulusTooLarge, WorkBudgetExceeded
from padicsums.newton import build_polyhedron, enumerate_faces
from padicsums.poly import Polynomial, parse_polynomial, render
from padicsums.sums import (
    KERNEL_EPS,
    _exp_sum_over_grid,
    _pow_mod_array,
    brute_force_S,
    check_nondegenerate_mod_p,
    torus_E,
)
from conftest import random_polynomial


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
    with pytest.raises(ModulusTooLarge):
        brute_force_S(f, 5, 14, work_budget=10 ** 10)
    big_prime = 3037000507  # smallest prime p with p (p - 1) >= 2^63
    faces = enumerate_faces(build_polyhedron(f))
    with pytest.raises(ModulusTooLarge):
        check_nondegenerate_mod_p(f, faces, big_prime)


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


def test_parallel_matches_serial_histogram_path():
    # 2^20 grid points split across several tasks
    f = parse_polynomial("x*y")
    serial = brute_force_S(f, 2, 10, workers=1)
    parallel = brute_force_S(f, 2, 10, workers=3)
    assert serial.value == parallel.value
    assert abs(serial.value - 2 ** -10) < 1e-12


def test_parallel_matches_serial_exp_path():
    # modulus above the histogram cap exercises the compensated path;
    # fixed block boundaries make any worker count bit-identical
    f = parse_polynomial("x")
    serial = brute_force_S(f, 5, 10, workers=1)
    parallel = brute_force_S(f, 5, 10, workers=4)
    assert serial.value == parallel.value
    assert abs(serial.value) < serial.abs_error_budget


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
    # The default cap scans these small tori in one slab; caps of 1 and 7
    # split them into slabs of whole rows, which must keep every verdict and
    # the lexicographically first witness.
    rng = random.Random(404)
    polys = list(corpus) + [random_polynomial(rng, max_terms=5, max_exp=4) for _ in range(12)]
    cases = []
    for f in polys:
        faces = enumerate_faces(build_polyhedron(f))
        for p in (3, 5, 7, 11):
            cases.append((f, faces, p, check_nondegenerate_mod_p(f, faces, p)))
    assert any(not rep.passed for *_, rep in cases)  # witnesses are exercised
    monkeypatch.setattr(sums, "_INNER_CAP", cap)
    for f, faces, p, want in cases:
        assert check_nondegenerate_mod_p(f, faces, p) == want


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
