"""A differential fingerprint of the kernel: one sha256 over the reprs of
complete sums, torus sums, nondegeneracy reports, certificates and closed
forms on fixed seeded inputs.  A change meant to keep every output prints
the same digest as its parent; run it at both and compare:

    PYTHONPATH=src python tests/fingerprint.py

It prints ``kernel <sha256> <values hashed>`` on stdout and its run time on
stderr.  pytest does not collect it (its name does not start with test_).

The ``kernel`` section covers ``_complete_sums``, ``brute_force_S``,
``torus_E``, ``check_nondegenerate_mod_p``, ``_certificate`` and
``_closed_torus_E`` on the battery's polynomials (``battery.polynomials``,
the corpus and seeded random ones), at every prime up to 13, with one worker
and with two, plus named inputs that take the stationary-phase tree (``x^3``
and ``7*x`` mod 5^11, ``x^5`` mod 2^23) and the exp-mode grid (``x^3+x`` mod
4194319, a prime above the histogram cap).  Every float enters by its repr,
which round-trips, so equal digests mean bit-identical values.
"""

from __future__ import annotations

import hashlib
import sys
import time
from typing import Tuple

from battery import polynomials
from padicsums.newton import build_polyhedron, enumerate_faces
from padicsums.poly import parse_polynomial
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


def kernel() -> Tuple[str, int]:
    """The kernel section's sha256 and the number of values hashed."""
    digest, count = hashlib.sha256(), 0

    def add(*record) -> None:
        nonlocal count
        digest.update(repr(record).encode() + b"\n")
        count += 1

    for f in map(parse_polynomial, polynomials()):
        faces = enumerate_faces(build_polyhedron(f))
        restrictions = list(dict.fromkeys(face.restriction for face in faces))
        for g in restrictions:
            add("certificate", g, _certificate(tuple(sorted(g.terms.items()))))
        for p in PRIMES:
            add("nondeg", f, p, check_nondegenerate_mod_p(f, faces, p))
            for g in restrictions:
                add("closed", g, p, _closed_torus_E(g, p))
            for workers in WORKERS:
                sums = _complete_sums(f, p, range(1, 6), workers=workers, work_budget=BUDGET)
                add("complete", f, p, workers, sorted(sums.items()))
                add("S", f, p, workers, brute_force_S(f, p, 1, workers=workers))
                for g in [f] + restrictions:
                    add("E", g, p, workers, torus_E(g, p, workers=workers))
    for text, p, m in NAMED:
        for workers in WORKERS:
            add("S", text, p, m, workers, brute_force_S(parse_polynomial(text), p, m, workers=workers))
    return digest.hexdigest(), count


if __name__ == "__main__":
    start = time.perf_counter()
    digest, count = kernel()
    print(f"kernel {digest} {count}")
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
