"""Every complete sum of one (f, p) from one histogram per distinct block
(``sums._complete_sums``).

Each value must equal a direct ``brute_force_S`` call bit for bit (``==`` on
``SumValue``), and an m over the work budget must give the same
WorkBudgetExceeded, with the same message.  ``brute_force_S`` is the one-m
case of the same path, so each value of at most ORACLE_POINTS grid points
is also checked against an independent oracle: the plain grid
(``_exp_sum_over_grid`` on [0, p^m)^n), with no reduction, no block product
and no fold, within twice the value's error budget.  ``verify_formula`` and
``bound_ratio_table`` must build each distinct block's complete-sum grid
once per (f, p), not once per m or per copy of an equal block.  The
property test leaves its example count to the hypothesis profile.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from padicsums import sums
from padicsums.bounds import bound_ratio_table
from padicsums.errors import WorkBudgetExceeded
from padicsums.faceformula import verify_formula
from padicsums.poly import Polynomial, parse_polynomial
from padicsums.sums import _exp_sum_over_grid, brute_force_S

from conftest import CORPUS_TEXTS

pytestmark = pytest.mark.more_examples  # every test here reruns with the ci profile

PRIMES = (2, 3, 5, 7, 11, 13)
ORACLE_POINTS = 200_000


def powers(f: Polynomial, p: int, budget: int):
    """Every m with p^(mn) within the budget, and the first m above it."""
    m = 1
    while p ** (m * f.n) <= budget:
        m += 1
    return list(range(1, m + 1))


def assert_direct(f: Polynomial, p: int, ms, budget: int):
    """_complete_sums against one brute_force_S call per m, and against the
    plain grid where it has at most ORACLE_POINTS points."""
    got = sums._complete_sums(f, p, ms, workers=1, work_budget=budget)
    assert sorted(got) == sorted(set(ms))
    for m in ms:
        try:
            want = brute_force_S(f, p, m, work_budget=budget)
        except WorkBudgetExceeded as exc:
            assert isinstance(got[m], WorkBudgetExceeded) and str(got[m]) == str(exc), (f, p, m)
            continue
        assert got[m] == want, (f, p, m)
        if p ** (m * f.n) <= ORACLE_POINTS:
            plain = _exp_sum_over_grid(f, p ** m, [(0, p ** m)] * f.n, 1) / p ** (m * f.n)
            assert abs(got[m].value - plain) <= 2 * got[m].abs_error_budget, (f, p, m)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("text", CORPUS_TEXTS)
def test_corpus_sums_are_the_direct_ones(text, p):
    f = parse_polynomial(text)
    assert_direct(f, p, powers(f, p, 2_000_000), 2_000_000)


@pytest.mark.parametrize("text, p, at_1, from_2", [
    ("x*y+2*y*z", 2, [2], [3]),  # z is free at m = 1
    ("x*y+3*y*z+z*u", 3, [2, 2], [4]),  # two blocks at m = 1: a folded value differs in its last bits
])
def test_a_block_partition_that_changes_with_m(text, p, at_1, from_2):
    # The middle term vanishes mod p only, so the blocks at m = 1 differ from
    # those at m >= 2, and m = 1 is summed on its own.
    f = parse_polynomial(text)
    assert sorted(n_b for n_b, _ in sums._blocks(f, p)[1]) == at_1
    assert sorted(n_b for n_b, _ in sums._blocks(f, p * p)[1]) == from_2
    assert_direct(f, p, [1, 2, 3], 10 ** 6)


def test_a_grid_of_two_points():
    # x at p = 2, m = 1 is evaluated whole; the larger m fold.
    f = parse_polynomial("x")
    assert_direct(f, 2, [1, 2, 3, 5], 10 ** 6)


def test_the_largest_m_over_the_budget():
    f = parse_polynomial("x*y+z*u")
    got = sums._complete_sums(f, 3, [1, 2, 3], workers=1, work_budget=3 ** 8)
    with pytest.raises(WorkBudgetExceeded) as exc:
        brute_force_S(f, 3, 3, work_budget=3 ** 8)
    assert isinstance(got[3], WorkBudgetExceeded) and str(got[3]) == str(exc.value)
    assert_direct(f, 3, [1, 2, 3], 3 ** 8)


def test_a_constant_term_and_a_bad_prime_or_power():
    assert_direct(Polynomial(2, {(1, 1): 1, (2, 0): 3, (0, 0): 6}), 3, [1, 2, 3], 10 ** 6)
    with pytest.raises(ValueError, match="not prime"):
        sums._complete_sums(parse_polynomial("x*y"), 4, [1], workers=1, work_budget=100)
    with pytest.raises(ValueError, match="m must be >= 1"):
        sums._complete_sums(parse_polynomial("x*y"), 3, [0, 1], workers=1, work_budget=100)


@st.composite
def polynomials(draw):
    """(f, p): n <= 4, at most five terms with exponents <= 3, coefficients
    at times divisible by p or p^2 (so blocks can split at small m), and at
    times a constant term."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from(PRIMES))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    coefs = st.tuples(st.integers(-9, 9).filter(bool), st.sampled_from([1, 1, p, p * p]))
    terms = {e: c * s for e, (c, s) in draw(st.dictionaries(exps, coefs, min_size=1, max_size=5)).items()}
    if draw(st.booleans()):
        terms[(0,) * n] = draw(st.integers(-9, 9).filter(bool))
    return Polynomial(n, terms), p


@settings(deadline=None)
@given(polynomials())
def test_random_sums_are_the_direct_ones(case):
    f, p = case
    assert_direct(f, p, powers(f, p, 500_000), 500_000)


# -- one grid per block --------------------------------------------------------

@contextlib.contextmanager
def grids():
    """(modulus, first axis start) of every grid _grid_sum walks, in call
    order: a complete-sum grid starts at 0, a torus grid at 1."""
    grid_sum, seen = sums._grid_sum, []

    def spy(h, gs, p, m, domains, workers):
        seen.append((p ** m, domains[0][0]))
        return grid_sum(h, gs, p, m, domains, workers)

    with mock.patch.object(sums, "_grid_sum", spy):
        yield seen


# blocks counts the variable-disjoint blocks of f; x*y and z*u are equal
# blocks on their own axes, so one grid stands for both
@pytest.mark.parametrize("text, blocks", [("x*y+z*u", 2), ("x^2+y^3", 2), ("x*y+z*u+x*z+2*y*u", 1)])
def test_each_block_grid_is_built_once_per_f_and_p(text, blocks):
    f = parse_polynomial(text)
    parts = [terms for _, terms in sums._blocks(f, 5 ** 2)[1]]
    assert len(parts) == blocks
    distinct = len({frozenset(terms.items()) for terms in parts})
    with grids() as seen:
        reports = verify_formula(f, 5, [1, 2])
    assert [r.verdict for r in reports] == ["pass"] * 2
    assert [modulus for modulus, start in seen if start == 0] == [5 ** 2] * distinct
    with grids() as seen:
        table = bound_ratio_table(f, [3, 5], [1, 2])
    assert len(table.rows) == 4 and not table.errors
    assert [modulus for modulus, start in seen if start == 0] == [3 ** 2] * distinct + [5 ** 2] * distinct


@pytest.mark.parametrize("text, p, ms, block", [
    ("x^3+y^3+z^3", 5, [1, 2], "x^3"),
    ("x*y+z*u", 3, [1, 2, 3], "x*y"),
    ("x^2+y^2+z^2", 7, [1, 2], "x^2"),
])
def test_equal_blocks_are_summed_once_and_valued_as_separate_blocks(text, p, ms, block):
    # the blocks of f are one block g on their own axes: one grid at the
    # largest m, and each value is the product of g's value once per block
    f, g = parse_polynomial(text), parse_polynomial(block)
    copies = f.n // g.n
    with grids() as seen:
        got = sums._complete_sums(f, p, ms, workers=1, work_budget=sums.DEFAULT_WORK_BUDGET)
    assert seen == [(p ** max(ms), 0)]
    for m in ms:
        value = brute_force_S(g, p, m).value
        assert got[m].value == sums._product([value] * copies, 0, p ** m)


@pytest.mark.parametrize("text, p, block", [("x+x^2+y+y^2", 7, "x+x^2"), ("x+2*x^3+y+2*y^3+z+2*z^3", 11, "x+2*x^3")])
def test_equal_torus_blocks_are_summed_once_and_valued_as_separate_blocks(text, p, block):
    # x + x^2 has full rank on its axis, so its torus sum walks the plain grid
    f, g = parse_polynomial(text), parse_polynomial(block)
    with grids() as seen:
        got = sums.torus_E(f, p)
    assert seen == [(p, 1)]
    assert got.value == sums._product([sums.torus_E(g, p).value] * (f.n // g.n), 0, p)
