"""A committed output battery: what the CLI prints for the verification corpus
and a fixed set of seeded random polynomials, kept in one golden file that
``test_battery.py`` replays.

Per polynomial it records ``analyze``, ``nondeg`` and ``verify-nu``, whose
reports hold no float and are compared byte for byte, and ``verify-formula``,
whose JSON is compared with floats to 1e-9 and everything else exactly.  A
change that is meant to keep every output leaves the golden untouched; one
that changes a record rewrites it with

    PYTHONPATH=src python tests/battery.py --write

and says which records changed, and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
from typing import Dict, List

from conftest import CORPUS_TEXTS, random_polynomial
from padicsums.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "battery.json")

#: Random polynomials after the corpus, drawn from ``random.Random(SEED)``;
#: the count keeps the replay within a few seconds.
SEED, RANDOM_COUNT = 14, 40

#: Each command run on every polynomial, and whether its report holds floats.
COMMANDS = (
    (("analyze", "--json"), False),
    (("nondeg", "-p", "2,3,5,7,11,13", "--json"), False),
    (("verify-nu", "--T", "8", "--json"), False),
    (("verify-formula", "-p", "2,3,5,7", "-m", "1..2", "--budget", "1000000",
      "--workers", "1", "--json"), True),
)


def polynomials() -> List[str]:
    """The corpus, then the seeded random polynomials with n <= 4."""
    rng = random.Random(SEED)
    drawn = [str(random_polynomial(rng, max_terms=5, max_exp=3)) for _ in range(RANDOM_COUNT)]
    return CORPUS_TEXTS + drawn


def record(text: str) -> List[Dict[str, object]]:
    """Exit code, stdout and stderr of every command on ``text``."""
    runs = []
    for argv, _ in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--", text])  # "--": a text may start with "-"
        runs.append({"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return runs


def same_json(got, want) -> bool:
    """Equal in type, key order and value, floats to a 1e-9 absolute
    tolerance."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=0, abs_tol=1e-9)
    if isinstance(want, dict):
        return list(got) == list(want) and all(same_json(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(same_json, got, want))
    return got == want


def load() -> Dict[str, List[Dict[str, object]]]:
    with open(GOLDEN) as fh:
        return json.load(fh)


def write() -> None:
    battery = {text: record(text) for text in polynomials()}
    with open(GOLDEN, "w") as fh:
        json.dump(battery, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/battery.py --write")
    write()
