"""Prime-free nondegeneracy certificates against the torus scan.

``sums._certificate`` gives an integer E per face restriction such that the
restriction has no critical point on the torus at any prime p not dividing
E, or None.  The property test checks that soundness against the scan
(``_first_critical_point``) at every prime up to 31; the explicit cases pin
the excluded primes of the corpus and the cases that get no certificate.
The property test leaves its example count to the hypothesis profile.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional, Set

import pytest
from hypothesis import given, settings, strategies as st

from padicsums import sums
from padicsums.errors import ModulusTooLarge, WorkBudgetExceeded
from padicsums.newton import build_polyhedron, enumerate_faces
from padicsums.poly import Polynomial, parse_polynomial

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def certificate(g: Polynomial) -> Optional[int]:
    return sums._certificate(tuple(sorted(g.terms.items())))


def prime_divisors(E: int) -> Set[int]:
    out, q = set(), 2
    while q * q <= E:
        while E % q == 0:
            out.add(q)
            E //= q
        q += 1
    return out | ({E} if E > 1 else set())


def excluded(f: Polynomial) -> Optional[Set[int]]:
    """The primes some face's certificate excludes, or None when a face has
    no certificate."""
    out: Set[int] = set()
    for face in enumerate_faces(build_polyhedron(f)):
        E = certificate(face.restriction)
        if E is None:
            return None
        out |= prime_divisors(E)
    return out


@st.composite
def certified_polynomials(draw):
    """f with n <= 4 variables, f(0) = 0, up to 5 terms, coefficients in
    [-9, 9] and some divisible by small primes; n = 4 keeps exponents <= 2
    so its tori stay small enough to scan at every prime up to 31."""
    n = draw(st.integers(1, 4))
    top = 2 if n == 4 else 4
    exps = st.tuples(*[st.integers(0, top)] * n).filter(any)
    coef = st.sampled_from([c for c in range(-9, 10) if c] + [-30, 14, 22, 26])
    return Polynomial(n, draw(st.dictionaries(exps, coef, min_size=1, max_size=5)))


@settings(deadline=None)
@given(certified_polynomials())
def test_certified_restrictions_have_no_critical_point_outside_E(f):
    for g in dict.fromkeys(face.restriction for face in enumerate_faces(build_polyhedron(f))):
        E = certificate(g)
        if E is None:
            continue
        assert E > 0
        for p in PRIMES:
            if E % p:
                assert sums._first_critical_point(g, p) is None, (g.terms, p, E)


@pytest.mark.parametrize("text, primes", [
    ("x*y", set()),
    ("x*y+z*u", set()),
    ("x^2+y^3", {2, 3}),
    ("x*y+z*u+x*z+2*y*u", {2}),
    ("x^3+y^3+z^3", {3}),
    ("x^3+y^3+z^3+x*y*z", {2, 3, 7}),
])
def test_corpus_excluded_primes(text, primes):
    f = parse_polynomial(text)
    assert excluded(f) == primes
    # outside them every face passes without a scan, as the scan says
    faces = enumerate_faces(build_polyhedron(f))
    for p in PRIMES:
        if p not in primes:
            scanned = {face.id: sums._first_critical_point(face.restriction, p) for face in faces}
            assert all(w is None for w in scanned.values())
            assert sums.check_nondegenerate_mod_p(f, faces, p).passed


@pytest.mark.parametrize("text, E", [
    ("3*x^2*y^4", 3 * 2),  # k = 0: c times gcd(a)
    ("x^2+x^3+y", 1),  # k = 1 with lambda = (3, -2, 0): as for k = 0
    ("x^3+y^3+z^3+x*y*z", 9 * 3 * 28),  # lambda = (1, 1, 1, -3) up to sign, d = 9, Delta = 28
])
def test_certificate_values(text, E):
    assert certificate(parse_polynomial(text)) == E


@pytest.mark.parametrize("text, why", [
    ("x^2+2*x*y+y^2", "Delta = 0: (x+y)^2 is degenerate at every prime"),
    ("x+x^2", "sum of lambda != 0: 1 + 2x = 0 at every odd prime"),
    ("x^2*y+x*y^2+x*y", "sum of lambda != 0"),
    ("x+y+x*y+x^2*y^2", "k = 2"),
    ("x^2+y^2+z^2+x*y+y*z", "k = 2"),
])
def test_no_certificate(text, why):
    assert certificate(parse_polynomial(text)) is None, why


def test_single_term_and_coefficient_divisible_by_p():
    # c x^a is critical on the torus exactly when p divides c or gcd(a)
    g = parse_polynomial("3*x^2*y^4")
    for p in (2, 3, 5, 7):
        assert (sums._first_critical_point(g, p) is None) == (p not in (2, 3))
    # 2yu vanishes mod 2: its certificate keeps p = 2 on the scan
    f = parse_polynomial("x*y+z*u+x*z+2*y*u")
    faces = enumerate_faces(build_polyhedron(f))
    two_yu = next(face for face in faces if face.restriction.terms == {(0, 1, 0, 1): 2})
    assert certificate(two_yu.restriction) == 2
    rep = sums.check_nondegenerate_mod_p(f, faces, 2)
    assert {e.face_id: e.witness for e in rep.entries}[two_yu.id] == (1, 1, 1, 1)


def test_cleared_restrictions_skip_the_scan(monkeypatch):
    real, scanned = sums._first_critical_point, []

    def spy(g, p):
        scanned.append(g)
        return real(g, p)

    monkeypatch.setattr(sums, "_first_critical_point", spy)
    f = parse_polynomial("x^2+y^3")
    faces = enumerate_faces(build_polyhedron(f))
    assert sums.check_nondegenerate_mod_p(f, faces, 5).passed
    assert scanned == []
    # at 3 only y^3 (E = 3) and x^2 + y^3 (E = 6) are scanned, not x^2 (E = 2)
    assert not sums.check_nondegenerate_mod_p(f, faces, 3).passed
    assert sorted(certificate(g) for g in scanned) == [3, 6]


def test_errors_are_raised_before_the_certificate():
    f = parse_polynomial("x*y+z*u")  # certified at every prime
    faces = enumerate_faces(build_polyhedron(f))
    with pytest.raises(WorkBudgetExceeded):
        sums.check_nondegenerate_mod_p(f, faces, 13, work_budget=1000)
    with pytest.raises(ValueError):
        sums.check_nondegenerate_mod_p(f, faces, 15)
    # the least prime whose residue products could wrap int64
    big = next(q for q in range(isqrt(1 << 63) + 1, 1 << 63) if all(q % d for d in range(2, isqrt(q) + 1)))
    with pytest.raises(ModulusTooLarge):
        sums.check_nondegenerate_mod_p(f, faces, big)


def test_large_circuit_discriminant_is_not_formed(monkeypatch):
    # the Hesse circuit's size bound: |lambda_j| * bits of max(|lambda_j|, |c_j|), summed, is 9
    f = parse_polynomial("x^3+y^3+z^3+x*y*z")
    sums._certificate.cache_clear()
    monkeypatch.setattr(sums, "_DISCRIMINANT_BITS", 4)
    try:
        assert certificate(f) is None
    finally:
        sums._certificate.cache_clear()
