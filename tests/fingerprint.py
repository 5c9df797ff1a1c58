"""A differential fingerprint: one sha256 per section over the reprs of
fixed seeded outputs.  A change meant to keep every output prints the same
digests as its parent; run it at both and compare:

    PYTHONPATH=src python tests/fingerprint.py

It prints ``<section> <sha256> <values hashed>`` on stdout for each section,
and each section's run time on stderr.  pytest does not collect it (its name
does not start with test_).

The ``kernel`` section covers ``_complete_sums``, ``brute_force_S``,
``torus_E``, ``check_nondegenerate_mod_p``, ``_certificate`` and
``_closed_torus_E`` on the battery's polynomials (``battery.polynomials``,
the corpus and seeded random ones), at every prime up to 13, with one worker
and with two, plus named inputs that take the stationary-phase tree (``x^3``
and ``7*x`` mod 5^11, ``x^5`` mod 2^23) and the exp-mode grid (``x^3+x`` mod
4194319, a prime above the histogram cap).  Every float enters by its repr,
which round-trips, so equal digests mean bit-identical values.

The ``faces`` section covers every face's (id, key, dim, active facets,
witness, restriction as printed, sigma_tau) on the battery's polynomials,
on seeded random ones with n <= 5 (``RANDOM_FACES``) and on the n = 8
inputs of ``WIDE``.  The ``lattice`` section covers ``lattice_table`` (each
column's dtype and values, at ``LATTICE_T`` and again filtered to a smaller
T) and ``check_nu_inequality`` (each column's dtype and values, the points
checked and ``rhs``) on the polynomials of ``faces`` with n <= 5.  The
``formula`` section covers the ``verify_formula`` reports on the battery's
polynomials at every prime up to 7, for m = 1..2, with one worker and a
work budget of 10^6.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from typing import Iterable, Iterator, List, Tuple

from battery import polynomials
from conftest import random_polynomial
from padicsums.bounds import check_nu_inequality
from padicsums.faceformula import verify_formula
from padicsums.newton import build_polyhedron, enumerate_faces
from padicsums.poly import Polynomial, parse_polynomial
from padicsums.sums import (
    _certificate,
    _closed_torus_E,
    _complete_sums,
    brute_force_S,
    check_nondegenerate_mod_p,
    torus_E,
)

PRIMES = (2, 3, 5, 7, 11, 13)
WORKERS = (1, 2)
#: Work budget of the complete sums: it keeps the run short, and the m over it
#: enter the digest as their WorkBudgetExceeded.
BUDGET = 1 << 20
#: (text, p, m) of the complete sums named in the module docstring.
NAMED = (("x^3", 5, 11), ("7*x", 5, 11), ("x^5", 2, 23), ("x^3+x", 4194319, 1))
#: Seed and count of the random polynomials with n <= 5 after the battery's.
FACES_SEED, RANDOM_FACES = 5, 60
#: Inputs with n = 8, the dimension cap, for the ``faces`` section.
WIDE = ("x1*x2+x3*x4+x5*x6+x7*x8", "x1^2*x2+x2^2*x3+x3^2*x4+x4^2*x5+x5^2*x6+x6^2*x7+x7^2*x8+x8^2*x1")
#: The lattice section's T, and the smaller T its tables are filtered to.
LATTICE_T, FILTERED_T = 10, 6
#: Primes, powers and work budget of the ``formula`` section.
FORMULA_PRIMES, FORMULA_MS, FORMULA_BUDGET = (2, 3, 5, 7), (1, 2), 10 ** 6


def kernel() -> Iterator[tuple]:
    for f in map(parse_polynomial, polynomials()):
        faces = enumerate_faces(build_polyhedron(f))
        restrictions = list(dict.fromkeys(face.restriction for face in faces))
        for g in restrictions:
            yield "certificate", g, _certificate(tuple(sorted(g.terms.items())))
        for p in PRIMES:
            yield "nondeg", f, p, check_nondegenerate_mod_p(f, faces, p)
            for g in restrictions:
                yield "closed", g, p, _closed_torus_E(g, p)
            for workers in WORKERS:
                sums = _complete_sums(f, p, range(1, 6), workers=workers, work_budget=BUDGET)
                yield "complete", f, p, workers, sorted(sums.items())
                yield "S", f, p, workers, brute_force_S(f, p, 1, workers=workers)
                for g in [f] + restrictions:
                    yield "E", g, p, workers, torus_E(g, p, workers=workers)
    for text, p, m in NAMED:
        for workers in WORKERS:
            yield "S", text, p, m, workers, brute_force_S(parse_polynomial(text), p, m, workers=workers)


def _face_inputs() -> List[Polynomial]:
    """The battery's polynomials, the seeded random ones with n <= 5 and
    ``WIDE``."""
    rng = random.Random(FACES_SEED)
    drawn = [random_polynomial(rng, n=rng.randint(1, 5), max_terms=8, max_exp=4) for _ in range(RANDOM_FACES)]
    return [*map(parse_polynomial, polynomials()), *drawn, *map(parse_polynomial, WIDE)]


def faces() -> Iterator[tuple]:
    for f in _face_inputs():
        for face in enumerate_faces(build_polyhedron(f)):
            yield (f, face.id, face.key, face.dim, face.active_facet_ids, face.witness_k,
                   str(face.restriction), face.sigma_tau)


def _columns(arrays: Iterable) -> list:
    return [(a.dtype.str, a.tolist()) for a in arrays]


def lattice() -> Iterator[tuple]:
    for f in (f for f in _face_inputs() if f.n <= 5):
        P = build_polyhedron(f)
        for T in (LATTICE_T, FILTERED_T):
            yield "table", f, T, _columns(P.lattice_table(T))
        found = check_nu_inequality(f, LATTICE_T)
        cols = _columns((found.k, found.face_id, found.nu, found.N, found.main_ok, found.halfdim_ok))
        yield "nu", f, found.T, found.points_checked, cols, sorted(found.rhs.items())


def formula() -> Iterator[tuple]:
    for f in map(parse_polynomial, polynomials()):
        for p in FORMULA_PRIMES:
            yield f, p, verify_formula(f, p, FORMULA_MS, workers=1, work_budget=FORMULA_BUDGET)


SECTIONS = {"kernel": kernel, "faces": faces, "lattice": lattice, "formula": formula}


def fingerprint(records: Iterable[tuple]) -> Tuple[str, int]:
    """The sha256 over the reprs of ``records``, one a line, and their count."""
    digest, count = hashlib.sha256(), 0
    for record in records:
        digest.update(repr(record).encode() + b"\n")
        count += 1
    return digest.hexdigest(), count


if __name__ == "__main__":
    for name, section in SECTIONS.items():
        start = time.perf_counter()
        digest, count = fingerprint(section())
        print(f"{name} {digest} {count}", flush=True)
        print(f"{name} {time.perf_counter() - start:.1f} s", file=sys.stderr)
