"""Shared fixtures: the verification corpus, a seeded random-polynomial
source and spies that count kernel tasks and polyhedron builds.  Hypothesis
runs derandomized, so every run tries the same examples.  The profile is
named by the HYPOTHESIS_PROFILE environment variable: "deterministic" (the
default) or "ci", which tries five times as many examples in the property
tests that leave the count to the profile.  CI runs the tests marked
``more_examples`` again under "ci"."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import settings

from padicsums import bounds, cli, faceformula, newton, sums
from padicsums.poly import Polynomial, parse_polynomial

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("ci", derandomize=True, database=None, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))

CORPUS_TEXTS = [
    "x*y",
    "x^2+y^3",
    "x*y+z*u",
    "x*y+z*u+x*z+2*y*u",
    "x^3+y^3+z^3",
]


@pytest.fixture(scope="session")
def corpus():
    return [parse_polynomial(text) for text in CORPUS_TEXTS]


@pytest.fixture
def task_plans(monkeypatch):
    """(task count, spans) of every grid the kernel plans, in call order."""
    split_range, plans = sums._split_range, []

    def spy(total, pieces):
        plans.append((total, len(split_range(total, pieces))))
        return split_range(total, pieces)

    monkeypatch.setattr(sums, "_split_range", spy)
    return plans


def spy_builds(monkeypatch) -> list:
    """Every polyhedron returned by ``build_polyhedron`` from now on, shared
    or new, in call order, whichever padicsums module made the call."""
    real, built = newton.build_polyhedron, []

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    for module in (newton, faceformula, bounds, cli):
        monkeypatch.setattr(module, "build_polyhedron", spy)
    return built


@pytest.fixture
def builds(monkeypatch):
    return spy_builds(monkeypatch)


def fraction_rank_inverse(
    rows: Sequence[Sequence[int]],
) -> Tuple[int, Optional[List[List[Fraction]]]]:
    """Rank of an integer matrix by Gauss-Jordan elimination over Fraction,
    and its inverse (as rows) when it is square with full rank, else None.

    The test oracles use this instead of the library's integer elimination,
    so they share no code with what they check.
    """
    h, w = len(rows), len(rows[0]) if rows else 0
    mat = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(h)]
        for i, row in enumerate(rows)
    ]
    r = 0
    for c in range(w):
        piv = next((i for i in range(r, h) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(h):
            q = mat[i][c]
            if i != r and q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r, ([row[w:] for row in mat] if r == h == w else None)


def random_polynomial(
    rng: random.Random,
    n: Optional[int] = None,
    max_terms: int = 6,
    max_exp: int = 5,
) -> Polynomial:
    """Random sparse polynomial with f(0) = 0, biased small for exact work."""
    n = n if n is not None else rng.randint(2, 4)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(n))
        if not any(exp):
            continue
        coef = rng.choice([c for c in range(-9, 10) if c])
        terms[exp] = coef
    if not terms:
        terms[(1,) + (0,) * (n - 1)] = 1
    return Polynomial(n, terms)
