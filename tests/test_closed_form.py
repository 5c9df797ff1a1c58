"""Closed-form torus sums against the plain torus grid.

``sums._closed_torus_E(g, p)`` gives E(p, g) = (-1/(p-1))^r exactly when the
r exponent vectors of g are linearly independent, gcd(d, p - 1) = 1 for d
the product of their Smith invariants, and no coefficient vanishes mod p;
None otherwise.  The property test decides those hypotheses by its own
oracles (a Fraction rank and the gcd of the maximal minors) and compares
every closed form with the plain grid ``_exp_sum_over_grid`` over the whole
torus.  A second property test checks E on the proper faces of random
polynomials against the rational form that the face's weighted homogeneity
gives from one zero count (ROADMAP item 24), counted by a numpy oracle that
shares no code with ``sums``.  Both leave their example count to the
hypothesis profile.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padicsums import sums
from padicsums.newton import build_polyhedron
from padicsums.poly import Polynomial, parse_polynomial
from padicsums.sums import KERNEL_EPS, _closed_torus_E, _exp_sum_over_grid, torus_E

from conftest import fraction_rank_inverse

pytestmark = pytest.mark.more_examples  # every test here reruns with the ci profile

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def det(rows) -> int:
    """Leibniz's determinant of a small square integer matrix."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(len(rows)))
    return total


def closed_form_applies(g: Polynomial, p: int) -> bool:
    """The three hypotheses, decided without the library's row reduction:
    full column rank over Q, then d = the gcd of the maximal minors."""
    support = sorted(g.terms)
    A = [[a[i] for a in support] for i in range(g.n)]
    r = len(support)
    if fraction_rank_inverse(A)[0] < r or any(c % p == 0 for c in g.terms.values()):
        return False
    d = 0
    for rows in combinations(A, r):
        d = gcd(d, det(rows))
    return gcd(d, p - 1) == 1


@st.composite
def torus_cases(draw):
    """(g, p): up to n + 1 terms in n <= 4 variables, exponents <= 3, so that
    most supports are independent and some are not, and coefficients of
    which some vanish mod a small prime."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    coef = st.sampled_from([c for c in range(-9, 10) if c] + [-30, 14, 22, 26])
    terms = draw(st.dictionaries(exps, coef, min_size=1, max_size=n + 1))
    return Polynomial(n, terms), draw(st.sampled_from(PRIMES))


@settings(deadline=None)
@given(torus_cases())
def test_closed_form_is_the_plain_torus_grid(case):
    g, p = case
    E = _closed_torus_E(g, p)
    assert (E is not None) == closed_form_applies(g, p), (g.terms, p)
    if E is None:
        return
    assert E == Fraction(-1, p - 1) ** len(g.terms)
    total = (p - 1) ** g.n
    grid = _exp_sum_over_grid(g, p, [(1, p)] * g.n, 1) / total
    assert abs(grid - float(E)) <= KERNEL_EPS * total + 2 ** -52 * abs(float(E)), (g.terms, p)


@pytest.mark.parametrize("text, p, E", [
    ("x*y", 3, Fraction(-1, 2)),
    ("x*y+z*u", 5, Fraction(1, 16)),
    ("x^3+y^3", 5, Fraction(1, 16)),  # d = 9, prime to 4
    ("x^2", 2, Fraction(-1)),  # the torus of F_2 is {1}, and e(1/2) = -1
    ("x^2*y+2*x", 7, Fraction(1, 36)),
])
def test_closed_form_values(text, p, E):
    assert _closed_torus_E(parse_polynomial(text), p) == E


@pytest.mark.parametrize("text, p, why", [
    ("3*x*y", 3, "a coefficient vanishes mod p"),
    ("x*y+5*z", 5, "a coefficient vanishes mod p"),
    ("x^2*y^2", 7, "d = 2 meets p - 1 = 6"),
    ("x^3+y^3", 7, "d = 9 meets p - 1 = 6"),
    ("x+x^2", 5, "dependent exponents"),
    ("x*y+x^2*y^2+z", 11, "dependent exponents"),
    ("x*y+z*u+x*z+2*y*u", 2, "dependent exponents"),
    ("x*y+z*u+x*z+2*y*u", 3, "dependent exponents"),
    ("x*y+z*u+x*z+2*y*u", 5, "dependent exponents"),
    ("x*y+z*u+x*z+2*y*u", 7, "dependent exponents"),
])
def test_closed_form_falls_back(text, p, why):
    assert _closed_torus_E(parse_polynomial(text), p) is None, why


def test_closed_form_shares_the_smith_data_of_the_certificate():
    g = parse_polynomial("x^3+y^3")
    sums._smith_data.cache_clear()
    sums._certificate.cache_clear()
    assert sums._certificate(tuple(sorted(g.terms.items()))) == 9
    assert _closed_torus_E(g, 5) == Fraction(1, 16)
    info = sums._smith_data.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# -- E from a face's weighted homogeneity (ROADMAP item 24, its tests-only step) --
#
# On a proper face tau with active facets (w_i, N_i), some integer combination
# w of the w_i has <w, a> = d_tau = gcd_i N_i on every a in tau, so
# f_tau(t^w x) = t^d_tau f_tau(x) on the torus.  Where gcd(d_tau, p - 1) = 1,
# every nonzero value is taken equally often, and
# E(p, f_tau) = (p N_0 - (p-1)^n) / (p-1)^(n+1) for N_0 the torus zero count.

def torus_zero_count(g: Polynomial, p: int) -> int:
    """N_0 = #{x in {1..p-1}^n : g(x) = 0 mod p}, by numpy over the whole
    torus, each term reduced mod p as it is built."""
    axes = np.meshgrid(*[np.arange(1, p, dtype=np.int64)] * g.n, indexing="ij")
    total = np.zeros_like(axes[0])
    for a, c in g.terms.items():
        term = np.full_like(axes[0], c % p)
        for x, e in zip(axes, a):
            term = term * (x ** e % p) % p
        total = (total + term) % p
    return int(np.count_nonzero(total == 0))


@st.composite
def face_cases(draw):
    """(f, p): n in 2..4, at most 5 terms with exponents <= 3, and a prime
    p <= 31 with (p - 1)^n <= 1e5."""
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    coef = st.sampled_from([c for c in range(-9, 10) if c] + [-30, 14, 22, 26])
    terms = draw(st.dictionaries(exps, coef, min_size=1, max_size=5))
    return Polynomial(n, terms), draw(st.sampled_from([p for p in PRIMES if (p - 1) ** n <= 10 ** 5]))


@settings(deadline=None)
@given(face_cases())
def test_weighted_homogeneity_gives_E_from_the_zero_count(case):
    f, p = case
    P = build_polyhedron(f)
    q, zeros = p - 1, {}
    for face in P.faces:
        if not face.active_facet_ids:  # the improper face has no weight
            continue
        d = gcd(*(P.facets[j].offset for j in face.active_facet_ids))
        if gcd(d, q) != 1:
            continue
        g = face.restriction
        if g not in zeros:
            zeros[g] = torus_zero_count(g, p)
        E = Fraction(p * zeros[g] - q ** f.n, q ** (f.n + 1))
        ev = torus_E(g, p)
        assert abs(ev.value - float(E)) <= ev.abs_error_budget, (g.terms, p)
        closed = _closed_torus_E(g, p)
        assert closed is None or closed == E, (g.terms, p)
