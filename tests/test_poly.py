"""Parser, gradient, restriction and modular-evaluation tests.

Expected values come from independent oracles written here: big-integer
direct evaluation for the kernel's modular evaluator ``sums._grid_residues``
and a from-scratch term-shift differentiator for gradients.
"""

from __future__ import annotations

import pickle
import random
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padicsums.errors import ConstantTermNonzero, PolyParseError, ZeroPolynomial
from padicsums.poly import (
    Polynomial,
    face_restriction,
    gradient,
    homogeneity,
    parse_polynomial,
    render,
)
from padicsums import sums
from padicsums.sums import _grid_residues, _reduced_terms, _split_axes
from conftest import random_polynomial


# -- independent oracles ----------------------------------------------------

def oracle_eval(terms: dict, point) -> int:
    return sum(c * prod(x ** e for x, e in zip(point, exp)) for exp, c in terms.items())


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


@pytest.mark.parametrize("text, message", [
    ("x^", "expected an exponent after '^'"),
    ("x+", "expected a coefficient or variable"),
])
def test_parse_text_ending_after_an_operator_reports_its_end(text, message):
    with pytest.raises(PolyParseError, match=message.replace("^", r"\^")) as exc:
        parse_polynomial(text)
    assert exc.value.position == len(text)


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


def test_parse_refuses_a_dimension_hint_below_one():
    with pytest.raises(ValueError, match="dimension_hint must be >= 1"):
        parse_polynomial("x", dimension_hint=0)


@pytest.mark.parametrize("text, position", [("x²", 1), ("x^²", 2), ("3²x", 1), ("x1²", 2)])
def test_parse_rejects_a_superscript_digit_at_its_position(text, position):
    # a superscript counts for str.isdigit but is no decimal digit, so int()
    # cannot read it: it is an unexpected character, not an integer
    with pytest.raises(PolyParseError, match="unexpected character '²'") as exc:
        parse_polynomial(text)
    assert exc.value.position == position


def test_parse_reads_every_unicode_decimal_digit():
    assert parse_polynomial("٣x^٢ + x٢") == parse_polynomial("3x^2 + x2")


PARSE_ALPHABET = st.sampled_from(
    list("xyzuvw+-*^") + list("0123456789") + list("٠١٢٣٩") + list("¹²³⁰①")
    + list("abXY#$()[]/.,;=_!é") + [" ", "\t", "\n", "\xa0"])


@settings(deadline=None)
@given(text=st.text(PARSE_ALPHABET, max_size=24), hint=st.sampled_from([None, *range(1, 9)]))
def test_parse_raises_only_its_own_errors(text, hint):
    """Any text either parses or raises one of the parser's typed errors,
    never a bare exception from inside it."""
    try:
        f = parse_polynomial(text, hint)
    except (PolyParseError, ConstantTermNonzero, ZeroPolynomial):
        return
    assert not f.has_constant_term
    if hint is not None:
        assert f.n == hint


@st.composite
def written_polynomials(draw):
    """(text, dimension hint, the Polynomial the text means or None when it
    cancels to zero): 1-6 terms with nonzero coefficients and nonzero
    exponent vectors in n <= 8 variables, each written in a drawn surface
    syntax.  Exponent vectors may repeat, so terms may combine or cancel."""
    n = draw(st.integers(1, 8))
    vectors = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    terms = draw(st.lists(st.tuples(st.integers(-5, 5).filter(bool), vectors), min_size=1, max_size=6))
    hint = draw(st.sampled_from([None, n]))
    pieces = []
    for k, (coef, exp) in enumerate(terms):
        if k == 0:
            pieces.append("-" if coef < 0 else draw(st.sampled_from(["", "+"])))
        else:
            pieces.append(draw(st.sampled_from(
                [" - ", "-", " + -", "+-"] if coef < 0 else [" + ", "+", " - -", "--"])))
        factors = []
        for j, e in enumerate(exp):
            while e:  # a variable may be repeated inside one term
                part = draw(st.integers(1, e))
                e -= part
                named = j < 6 and draw(st.booleans())
                name = "xyzuvw"[j] if named else f"x{j + 1}"
                factors.append(name if part == 1 and draw(st.booleans()) else f"{name}^{part}")
        factors = draw(st.permutations(factors))
        if abs(coef) != 1 or draw(st.booleans()):
            factors.insert(0, str(abs(coef)))
        pieces.append("".join(
            factor if i == 0 else draw(st.sampled_from(["*", " * ", ""])) + factor
            for i, factor in enumerate(factors)))
    width = hint or max(j + 1 for _, exp in terms for j, e in enumerate(exp) if e)
    combined = {}
    for coef, exp in terms:
        key = tuple(exp[:width])
        combined[key] = combined.get(key, 0) + coef
    combined = {e: c for e, c in combined.items() if c}
    return "".join(pieces), hint, Polynomial(width, combined) if combined else None


@settings(deadline=None)
@given(case=written_polynomials())
def test_parse_matches_the_generating_terms(case):
    text, hint, expected = case
    if expected is None:
        with pytest.raises(ZeroPolynomial):
            parse_polynomial(text, hint)
    else:
        assert parse_polynomial(text, hint) == expected


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


def test_render_writes_a_constant_term_as_its_coefficient():
    assert render(gradient(parse_polynomial("x"))[0]) == "1"
    assert render(gradient(parse_polynomial("-2*x"))[0]) == "-2"
    assert render(gradient(parse_polynomial("x*y+3*x"))[0]) == "3 + y"


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

def grid_values(f: Polynomial, modulus: int, domains) -> np.ndarray:
    """f mod modulus on the product grid, from _grid_residues: each task's
    block placed at its origin."""
    sizes = [stop - start for start, stop in domains]
    out = np.zeros(sizes, dtype=np.int64)
    for origin, residues in _grid_residues([_reduced_terms(f.terms, modulus)], modulus, domains,
                                           0, _split_axes(sizes)[3]):
        block = next(residues)
        out[block_index(origin, domains, block.shape)] = block
    return out


def block_index(origin, domains, shape) -> tuple:
    """The index of a task's block in the grid array: one coordinate per
    outer axis, then a slice per axis of the block."""
    outer = len(origin) - len(shape)
    at = [o - start for o, (start, _) in zip(origin, domains)]
    return (*at[:outer], *(slice(a, a + k) for a, k in zip(at[outer:], shape)))


def test_grid_residues_examples():
    def at(text, point, modulus):
        f = parse_polynomial(text)
        return grid_values(f, modulus, [(x, x + 1) for x in point]).item()

    assert at("x*y", (2, 3), 9) == 6
    assert at("x^2+y^3", (2, 2), 5) == 2
    assert at("x*y+z*u", (1, 1, 1, 1), 3) == 2


@pytest.mark.parametrize("modulus, groups", [(11 ** 9, 2), (3 ** 19, 7)])
def test_grid_residues_reduce_each_product_near_the_modulus(modulus, groups):
    # -x^e*y for even e: at x = y = -1 every outer monomial's product is
    # (modulus - 1)^2, and this many of them sum past 2^63, so the walk
    # reduces each one before adding the next
    f = Polynomial(2, {(2 * i, 1): -1 for i in range(groups)})
    domains = [(modulus - 2, modulus + 1), (modulus - 3, modulus + 2)]
    with mock.patch.object(sums, "_INNER_CAP", 1):  # x outer, y in segments
        assert _split_axes([3, 5])[0] == 1
        got = grid_values(f, modulus, domains)
    for x, y in np.ndindex(got.shape):
        point = (domains[0][0] + x, domains[1][0] + y)
        assert got[x, y] == oracle_eval(f.terms, point) % modulus


TERMS = st.dictionaries(st.tuples(*[st.integers(0, 5)] * 3), st.integers(-10 ** 6, 10 ** 6),
                        min_size=1, max_size=6)


@settings(deadline=None)
@given(
    n=st.integers(1, 3),
    polys=st.lists(TERMS, min_size=1, max_size=2),
    modulus=st.one_of(st.integers(2, 1009), st.sampled_from([3 ** 19, 11 ** 9])),
    cap=st.sampled_from([1, 2, 3, 7, None]),
    pieces=st.integers(1, 4),
    data=st.data(),
)
def test_grid_residues_match_bigint_oracle(n, polys, modulus, cap, pieces, data):
    """Walked in spans, as the worker processes walk it, the tasks of a grid
    of 1-3 axes at any offsets, under any inner cap, come in lexicographic
    order of their origins; their blocks, placed at the origins, cover the
    grid exactly once; and every residue (constant terms and coefficients
    up to 1e6 included) equals a big-integer evaluation.  The spans run
    contiguously from task 0 to the last and differ in size by at most one.
    At 3^19 a few outer monomials still add raw products; at 11^9 two or
    more reduce each product.  At those two moduli, half the examples draw
    every coefficient and grid start from -1..-3 mod the modulus, so odd
    powers and products leave residues within a few units of it: two such
    products at 11^9 overflow int64 unless each is reduced before the next
    is added."""
    near = modulus > 1009 and data.draw(st.booleans())
    polys = [{e[:n]: data.draw(st.integers(-3, -1)) if near else c for e, c in terms.items()}
             for terms in polys]
    starts = st.integers(modulus - 3, modulus - 1) if near else st.integers(0, 2 * modulus)
    domains = [(a, a + data.draw(st.integers(1, 9))) for a in data.draw(
        st.lists(starts, min_size=n, max_size=n))]
    sizes = [stop - start for start, stop in domains]
    covered = np.zeros(sizes, dtype=np.int64)
    origins = []
    with mock.patch.object(sums, "_INNER_CAP", cap or sums._INNER_CAP):
        total = _split_axes(sizes)[3]
        spans = sums._split_range(total, pieces)
        assert len(spans) == min(pieces, total)
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]] and spans[-1][1] == total
        assert max(hi - lo for lo, hi in spans) - min(hi - lo for lo, hi in spans) <= 1
        for lo, hi in spans:
            for origin, residues in _grid_residues(
                    [_reduced_terms(t, modulus) for t in polys], modulus, domains, lo, hi):
                origins.append(origin)
                for terms, block in zip(polys, residues):
                    where = block_index(origin, domains, block.shape)
                    covered[where] += 1
                    for offset in np.ndindex(block.shape):
                        point = [o + i for o, i in zip(origin, (0,) * (n - block.ndim) + offset)]
                        assert block[offset] == oracle_eval(terms, point) % modulus
    assert (covered == len(polys)).all()
    assert all(a < b for a, b in zip(origins, origins[1:]))


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


def test_polynomial_refuses_an_ambient_dimension_below_one():
    with pytest.raises(ValueError, match="ambient dimension must be >= 1"):
        Polynomial(0, {(): 1})


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
