"""Closed-form torus sums against the plain torus grid.

``sums._closed_torus_E(g, p)`` gives E(p, g) = (-1/(p-1))^r exactly when the
r exponent vectors of g are linearly independent, gcd(d, p - 1) = 1 for d
the product of their Smith invariants, and no coefficient vanishes mod p;
None otherwise.  The property test decides those hypotheses by its own
oracles (a Fraction rank and the gcd of the maximal minors) and compares
every closed form with the plain grid ``_exp_sum_over_grid`` over the whole
torus.  It leaves its example count to the hypothesis profile.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from padicsums import sums
from padicsums.poly import Polynomial, parse_polynomial
from padicsums.sums import KERNEL_EPS, _closed_torus_E, _exp_sum_over_grid

from conftest import fraction_rank_inverse

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
