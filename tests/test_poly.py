"""Parser, gradient, restriction and modular-evaluation tests.

Expected values come from independent oracles written here: big-integer
direct evaluation for the kernel's modular evaluator ``sums._grid_residues``
and a from-scratch term-shift differentiator for gradients.
"""

from __future__ import annotations

import pickle
import random
from math import prod

import numpy as np
import pytest

from padicsums.errors import ConstantTermNonzero, PolyParseError, ZeroPolynomial
from padicsums.poly import (
    Polynomial,
    face_restriction,
    gradient,
    homogeneity,
    parse_polynomial,
    render,
)
from padicsums.sums import _grid_residues, _reduced_terms
from conftest import random_polynomial


# -- independent oracles ----------------------------------------------------

def oracle_eval(f: Polynomial, point) -> int:
    return sum(c * prod(x ** e for x, e in zip(point, exp)) for exp, c in f.terms.items())


def oracle_diff(f: Polynomial, j: int) -> dict:
    out = {}
    for exp, c in f.terms.items():
        if exp[j] > 0:
            shifted = exp[:j] + (exp[j] - 1,) + exp[j + 1 :]
            out[shifted] = out.get(shifted, 0) + c * exp[j]
    return {k: v for k, v in out.items() if v}


# -- parsing ----------------------------------------------------------------

def test_parse_four_variable_product_sum():
    f = parse_polynomial("x*y + z*u")
    assert f.n == 4
    assert f.terms == {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}


def test_parse_cancellation_keeps_dimension():
    f = parse_polynomial("x1^2 - x1^2 + x2")
    assert f.n == 2
    assert f.terms == {(0, 1): 1}


def test_parse_rejects_constant_term():
    with pytest.raises(ConstantTermNonzero):
        parse_polynomial("x^2 + 3")


def test_parse_constant_cancellation_is_fine():
    assert parse_polynomial("x + 1 - 1").terms == {(1,): 1}


def test_parse_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        parse_polynomial("x - x")
    with pytest.raises(ZeroPolynomial):
        parse_polynomial("0")


def test_parse_syntax_error_reports_position():
    with pytest.raises(PolyParseError) as exc:
        parse_polynomial("x + $y")
    assert exc.value.position == 4
    with pytest.raises(PolyParseError):
        parse_polynomial("x*")
    with pytest.raises(PolyParseError):
        parse_polynomial("2^3")
    with pytest.raises(PolyParseError):
        parse_polynomial("")


def test_parse_named_variable_aliases():
    f = parse_polynomial("v*w")
    assert f.n == 6
    assert f.terms == {(0, 0, 0, 0, 1, 1): 1}
    assert parse_polynomial("y^2").terms == parse_polynomial("x2^2").terms


def test_parse_indexed_beyond_six():
    f = parse_polynomial("x7^2 + x1")
    assert f.n == 7
    assert f.terms == {(0, 0, 0, 0, 0, 0, 2): 1, (1, 0, 0, 0, 0, 0, 0): 1}


def test_parse_whitespace_is_ignored_entirely():
    # "x 2" fuses to the indexed variable x2
    assert parse_polynomial("x 2 + y").terms == parse_polynomial("x2 + y").terms


def test_parse_implicit_multiplication_and_signs():
    assert parse_polynomial("3x^2y").terms == parse_polynomial("3*x^2*y").terms
    assert parse_polynomial("-x + -y").terms == {(1, 0): -1, (0, 1): -1}
    # x^0 is the constant 1 and therefore rejected
    with pytest.raises(ConstantTermNonzero):
        parse_polynomial("x^0 + y")


def test_parse_dimension_hint():
    assert parse_polynomial("x*y", dimension_hint=4).n == 4
    with pytest.raises(PolyParseError):
        parse_polynomial("x*y*z", dimension_hint=2)
    with pytest.raises(PolyParseError):
        parse_polynomial("x0")


def test_render_round_trip_random():
    rng = random.Random(20240811)
    for _ in range(60):
        f = random_polynomial(rng)
        assert parse_polynomial(render(f), dimension_hint=f.n) == f


def test_render_round_trip_many_variables():
    f = Polynomial(7, {(1, 0, 0, 0, 0, 0, 3): -2, (0, 1, 1, 0, 0, 0, 0): 5})
    assert parse_polynomial(render(f), dimension_hint=7) == f


# -- face restriction -------------------------------------------------------

def test_face_restriction_single_term():
    f = parse_polynomial("x*y + z*u")
    g = face_restriction(f, [(1, 1, 0, 0)])
    assert g is not None and g.terms == {(1, 1, 0, 0): 1}


def test_face_restriction_vertical_ray():
    f = parse_polynomial("x^2 + y^3")
    # points of the face {(0, y) : y >= 3}; only (0,3) is in the support
    g = face_restriction(f, [(0, y) for y in range(3, 9)])
    assert g is not None and g.terms == {(0, 3): 1}


def test_face_restriction_empty_is_none():
    f = parse_polynomial("x*y")
    assert face_restriction(f, []) is None


# -- gradient ---------------------------------------------------------------

def test_gradient_product():
    gy, gx = gradient(parse_polynomial("x*y"))
    assert gy.terms == {(0, 1): 1}
    assert gx.terms == {(1, 0): 1}


def test_gradient_powers():
    g = gradient(parse_polynomial("x^2 + y^3"))
    assert g[0].terms == {(1, 0): 2}
    assert g[1].terms == {(0, 2): 3}


def test_gradient_section8_polynomial():
    f = parse_polynomial("x*y + z*u + x*z + 2*y*u")
    g = gradient(f)
    expected = [
        {(0, 1, 0, 0): 1, (0, 0, 1, 0): 1},            # y + z
        {(1, 0, 0, 0): 1, (0, 0, 0, 1): 2},            # x + 2u
        {(0, 0, 0, 1): 1, (1, 0, 0, 0): 1},            # u + x
        {(0, 0, 1, 0): 1, (0, 1, 0, 0): 2},            # z + 2y
    ]
    for comp, want in zip(g, expected):
        assert comp.terms == want
    for j in range(4):
        assert g[j].terms == oracle_diff(f, j)


def test_gradient_constant_component_and_zero_component():
    g = gradient(parse_polynomial("x", dimension_hint=2))
    assert g[0].terms == {(0, 0): 1}
    assert g[1] is None


def test_gradient_matches_oracle_random():
    rng = random.Random(7)
    for _ in range(40):
        f = random_polynomial(rng)
        for j, comp in enumerate(gradient(f)):
            want = oracle_diff(f, j)
            assert (comp.terms if comp else {}) == want


def test_gradient_commutes_with_restriction():
    rng = random.Random(99)
    for _ in range(40):
        f = random_polynomial(rng)
        support = list(f.terms)
        sub = [e for e in support if rng.random() < 0.5]
        fi = face_restriction(f, sub)
        for j in range(f.n):
            lhs = gradient(fi)[j] if fi else None
            gf = gradient(f)[j]
            shifted = [e[:j] + (e[j] - 1,) + e[j + 1 :] for e in sub if e[j] >= 1]
            rhs = face_restriction(gf, shifted) if gf and shifted else None
            assert (lhs.terms if lhs else {}) == (rhs.terms if rhs else {})


# -- evaluation -------------------------------------------------------------

def grid_values(f: Polynomial, modulus: int, domains, inner_start: int) -> np.ndarray:
    """f mod modulus on the product grid, from _grid_residues with the
    first inner_start axes outer: one task per outer point, in order."""
    sizes = [stop - start for start, stop in domains]
    tasks = prod(sizes[:inner_start])
    blocks = [next(residues) for _, residues in _grid_residues(
        [_reduced_terms(f.terms, modulus)], modulus, domains, inner_start, 1, sizes[-1], 0, tasks)]
    return np.array(blocks).reshape(sizes)


def test_grid_residues_examples():
    def at(text, point, modulus):
        f = parse_polynomial(text)
        return grid_values(f, modulus, [(x, x + 1) for x in point], 0).item()

    assert at("x*y", (2, 3), 9) == 6
    assert at("x^2+y^3", (2, 2), 5) == 2
    assert at("x*y+z*u", (1, 1, 1, 1), 3) == 2


def test_grid_residues_match_bigint_oracle():
    rng = random.Random(123)
    for modulus in (2, 3, 7, 9, 25, 1009) * 10:
        f = random_polynomial(rng)
        domains = [(a, a + rng.randint(1, 4)) for a in (rng.randrange(modulus) for _ in range(f.n))]
        for inner_start in range(f.n + 1):
            got = grid_values(f, modulus, domains, inner_start)
            for idx in np.ndindex(got.shape):
                point = [a + i for (a, _), i in zip(domains, idx)]
                assert got[idx] == oracle_eval(f, point) % modulus


def test_homogeneity():
    assert homogeneity(parse_polynomial("x*y+z*u")) == 2
    assert homogeneity(parse_polynomial("x^2+y^3")) is None
    assert homogeneity(parse_polynomial("x")) == 1


def test_polynomial_type_invariants():
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0): 0})
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {})


def test_equal_polynomials_hash_equal_whatever_the_term_order():
    terms = {(2, 0, 1): 3, (0, 1, 0): -1, (1, 1, 1): 7}
    f = Polynomial(3, terms)
    g = Polynomial(3, dict(reversed(list(terms.items()))))
    assert list(f.terms) != list(g.terms)
    assert f == g and hash(f) == hash(g)
    assert parse_polynomial("3*x^2*z - y + 7*x*y*z") == f
    assert hash(parse_polynomial("7*x*y*z - y + 3*x^2*z")) == hash(f)
    assert len({f, g, Polynomial(3, {(0, 1, 0): -1})}) == 2
    assert Polynomial(4, {(2, 0, 1, 0): 3}) != Polynomial(3, {(2, 0, 1): 3})


def test_hash_is_computed_once_on_first_use():
    f = Polynomial(3, {(2, 0, 1): 3, (0, 1, 0): -1})
    want = hash((3, frozenset(f.terms.items())))
    assert "_hash" not in f.__dict__  # construction does not pay for it
    assert hash(f) == want
    f.__dict__["_hash"] = want + 1  # later calls read the kept value
    assert hash(f) == want + 1
    g = pickle.loads(pickle.dumps(Polynomial(3, dict(f.terms))))  # as pool workers get it
    assert g == f and hash(g) == want
