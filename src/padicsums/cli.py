"""Command-line front end.

One subcommand per analysis: ``analyze`` (polyhedron, faces, sigma/kappa
table), ``nondeg``, ``sum``, ``esum``, ``verify-formula``, ``verify-nu``,
``ratios``, ``edecay``, ``sigma-bound``.  Reports go to stdout (or --out) as
human text, --json, or --csv on the subcommands whose report is a table
(verify-formula, verify-nu, ratios, edecay); exact rational quantities
are serialized as "numerator/denominator" strings, never floats.  JSON is
encoded by the C encoder on one line and then indented by one array pass,
byte for byte as ``json.dumps(obj, indent=2)`` writes it.  This module
is the one owner of the report schema: the library returns dataclasses, and
the private ``_*_dict`` and ``_formula_row`` helpers here turn them into
report objects.

Two tables drive the parser, which is built once, at import.  ``_OPTIONS``
maps each option name to its flags and argparse keywords; ``_COMMANDS``
maps each subcommand to its handler, its help line and the names of the
options it takes, a trailing ``!`` marking one it requires.  A handler
receives the parsed namespace.  ``sum`` and ``esum`` run one prime, and
``sum`` one power; a second one is a usage error.  ``verify-formula`` runs
every prime given.

Exit codes: 0 = all asserted checks pass, 1 = a hard assertion failed
(the lattice inequality or a formula verdict), 2 = usage, budget or I/O
error (an unwritable --out, or a reader that closed stdout early).
Findings (half-dimension violations, ratio-ceiling flags, a failed
sigma-dimension gate) never affect the exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import bounds, faceformula
from .errors import PadicSumsError
from .newton import Face, NewtonPolyhedron, build_polyhedron, enumerate_faces, f0_face
from .poly import parse_polynomial, render
from .sums import DEFAULT_WORK_BUDGET, NondegReport, brute_force_S, check_nondegenerate_mod_p, torus_E


def _parse_eps(text: str) -> Fraction:
    try:
        return Fraction(Decimal(text))
    except (ArithmeticError, ValueError):
        raise argparse.ArgumentTypeError(f"bad eps {text!r}: not a finite decimal number")


def _nonempty(values: List[int], text: str) -> List[int]:
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} names no value")
    return values


def _parse_primes(text: str) -> List[int]:
    try:
        primes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integer primes")
    return _nonempty(primes, text)


def _parse_powers(text: str) -> List[int]:
    lo, sep, hi = text.partition("..")
    try:
        powers = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer power m or a range lo..hi")
    return _nonempty(powers, text)


def _parse_workers(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0  # refused below, like a count under 1
    if count < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive worker count")
    return count


class _Union(argparse.Action):
    """Merge one flag's values into the option's sorted list without repeats."""

    def __call__(self, parser, namespace, values, option_string=None):
        merged = set(getattr(namespace, self.dest) or ()).union(values)
        setattr(namespace, self.dest, sorted(merged))


#: Byte classes of one-line JSON: ordinary, a quote, a backslash, an opening
#: bracket or brace, a closing one and a comma.
_PLAIN, _QUOTE, _SLASH, _OPEN, _CLOSE, _COMMA = range(6)
_KIND = np.zeros(256, dtype=np.int8)
for _chars, _kind in ((b'"', _QUOTE), (b"\\", _SLASH), (b"[{", _OPEN), (b"]}", _CLOSE), (b",", _COMMA)):
    _KIND[list(_chars)] = _kind


def _indent_json(line: str) -> str:
    """``line``, JSON from ``json.dumps(..., separators=(",", ": "))``,
    indented as ``json.dumps(..., indent=2)`` would have written it.

    Only the structural bytes ``[]{},`` outside strings matter: a run of
    "\\n" and two spaces per depth goes after each opening bracket and each
    comma, at the depth after it, and before each closing bracket, at the
    depth after it, except inside an empty ``[]`` or ``{}``.  A quote opens
    or closes a string unless an odd run of backslashes comes before it, so
    a byte lies in a string when an odd number of such quotes precede it.
    The encoder escapes every non-ASCII character, so bytes and characters
    coincide.  Everything runs as array operations over the special bytes;
    the temporaries are an int8 class per byte, int32 positions, the uint8
    output and one boolean per output byte that marks where the input bytes
    go (one ``np.repeat`` of the alternating stretch and run lengths).
    """
    buf = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
    kind = _KIND[buf]
    pos = np.flatnonzero(kind).astype(np.int32)
    kind = kind[pos]
    quote = kind == _QUOTE
    slashes = pos[kind == _SLASH]
    if len(slashes):
        # j: the last backslash before each quote; first[j]: where its run starts
        at = pos[quote]
        j = np.searchsorted(slashes, at) - 1
        starts = np.ones(len(slashes), dtype=bool)
        starts[1:] = np.diff(slashes) != 1
        first = np.maximum.accumulate(np.where(starts, np.arange(len(slashes)), 0))
        odd = (j >= 0) & (slashes[j] == at - 1) & ((j - first[j]) % 2 == 0)
        quote[np.flatnonzero(quote)[odd]] = False
    outside = ~np.logical_xor.accumulate(quote)
    keep = outside & (kind >= _OPEN)
    pos, kind = pos[keep], kind[keep]
    depth = np.cumsum((kind == _OPEN).astype(np.int32) - (kind == _CLOSE), dtype=np.int32)
    # an empty container: an opening bracket the next byte closes; both keep no run
    empty = np.zeros(len(pos) + 1, dtype=bool)
    empty[1:-1] = (kind[:-1] == _OPEN) & (kind[1:] == _CLOSE) & (np.diff(pos) == 1)
    runs = ~(empty[1:] | empty[:-1])
    at = (pos + (kind != _CLOSE))[runs]  # each run goes before the input byte at ``at``
    width = 1 + 2 * depth[runs]
    # the output alternates input stretches and runs: mark the input's bytes
    lengths = np.empty(2 * len(at) + 1, dtype=np.int32)
    lengths[0::2] = np.diff(at, prepend=0, append=len(buf))
    lengths[1::2] = width
    stretch = np.zeros(len(lengths), dtype=bool)
    stretch[0::2] = True
    out = np.full(len(buf) + int(width.sum()), ord(" "), dtype=np.uint8)
    out[np.repeat(stretch, lengths)] = buf
    out[at + np.cumsum(width, dtype=np.int32) - width] = ord("\n")
    return str(memoryview(out), "ascii")


def _emit(
    args: argparse.Namespace,
    human: Sequence[str],
    obj: object,
    table: Optional[Tuple[Sequence[str], List[dict]]] = None,
) -> None:
    """Write the report as JSON, as the CSV ``table`` (column names, rows)
    when one is given and --csv is set, or as the ``human`` lines.

    JSON is encoded once by the C encoder, on one line, and then indented
    (``_indent_json``), so its bytes are those of ``json.dumps(obj,
    indent=2, allow_nan=False)``, whose pure-Python encoder is several times
    slower; NaN and infinities raise ValueError, as they do there."""
    if args.json:
        text = _indent_json(json.dumps(obj, allow_nan=False, separators=(",", ": ")))
    elif table is not None and args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=table[0])
        writer.writeheader()
        writer.writerows(table[1])
        text = buf.getvalue().rstrip("\n")
    else:
        text = "\n".join(human)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# report schema
# ---------------------------------------------------------------------------

def _frac_str(x: Fraction) -> str:
    """Rationals travel as "numerator/denominator" strings, never floats."""
    return f"{x.numerator}/{x.denominator}"


def _complex_dict(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _complex_text(value: complex) -> str:
    """a + bi or a - |b|i, each part to 15 significant digits."""
    sign = "-" if value.imag < 0 else "+"
    return f"{value.real:.15g} {sign} {abs(value.imag):.15g}i"


def _face_dict(P: NewtonPolyhedron, face: Face, restriction: str) -> dict:
    return {
        "id": face.id,
        "vertices": [list(P.vertices[i]) for i in face.vertex_ids],
        "recession_axes": [a + 1 for a in face.recession_axes],
        "dim": face.dim,
        "witness": list(face.witness_k),
        "sigma_tau": _frac_str(face.sigma_tau),
        "restriction": restriction,
    }


def _polyhedron_dict(P: NewtonPolyhedron) -> dict:
    """The ``analyze`` report; faces on the same support points share one
    restriction, which is rendered once."""
    faces = enumerate_faces(P)
    rendered = {restriction: render(restriction) for restriction in {face.restriction for face in faces}}
    sigma, t_star, kappa, _ = P.diagonal
    return {
        "n": P.n,
        "polynomial": render(P.source),
        "vertices": [list(v) for v in P.vertices],
        "facets": [{"normal": list(F.normal), "offset": F.offset} for F in P.facets],
        "sigma": _frac_str(sigma),
        "t_star": _frac_str(t_star),
        "kappa": kappa,
        "f0_face_id": f0_face(P).id,
        "faces": [_face_dict(P, face, rendered[face.restriction]) for face in faces],
    }


def _nondeg_dict(report: NondegReport) -> dict:
    return {
        "prime": report.prime,
        "passed": report.passed,
        "faces": [
            {"face_id": e.face_id, "passed": e.passed, "witness": list(e.witness) if e.witness else None}
            for e in report.entries
        ],
    }


def _formula_row(rep: faceformula.FormulaReport) -> dict:
    return {
        "p": rep.p,
        "m": rep.m,
        "lhs": None if rep.lhs is None else _complex_dict(rep.lhs.value),
        "rhs": None if rep.rhs is None else _complex_dict(rep.rhs.value),
        "tol": rep.certified_tolerance,
        "verdict": rep.verdict,
        "T": rep.truncation_T,
        "tail": None if rep.tail is None else _frac_str(rep.tail),
    }


_NU_COLUMNS = ("k", "face_id", "nu", "N", "rhs_main", "rhs_halfdim", "main_ok", "halfdim_ok")


def _nu_rows(res: bounds.NuCheckFindings, ok, limit: Optional[int] = None) -> List[dict]:
    """The report rows of the points whose verdict column ``ok`` is False,
    the first ``limit`` of them when a limit is given."""
    rhs = {key: tuple(map(_frac_str, pair)) for key, pair in res.rhs.items()}
    return [
        dict(zip(_NU_COLUMNS, (k, face_id, nu, N, *rhs[face_id, N], m_ok, h_ok)))
        for k, face_id, nu, N, m_ok, h_ok in itertools.islice(res.failing(ok), limit)
    ]


def _one(args: argparse.Namespace, dest: str) -> int:
    """The single value of ``args.primes`` or ``args.powers``, for a
    subcommand that runs one; a second value is a usage error."""
    values = getattr(args, dest)
    if len(values) > 1:
        raise ValueError(f"{args.command} takes one {dest[:-1]}, got {', '.join(map(str, values))}")
    return values[0]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    """The face lines are formatted only for a text report."""
    obj = _polyhedron_dict(build_polyhedron(parse_polynomial(args.polynomial)))
    _emit(args, [] if args.json else _analyze_lines(obj), obj)
    return 0


def _analyze_lines(obj: dict) -> List[str]:
    human = [
        f"polynomial: {obj['polynomial']}   (n = {obj['n']})",
        f"vertices:   {[tuple(v) for v in obj['vertices']]}",
        "facets:     " + ", ".join(
            f"{tuple(fc['normal'])} . x >= {fc['offset']}" for fc in obj["facets"]
        ),
        f"sigma = {obj['sigma']}   t* = {obj['t_star']}   "
        f"kappa = {obj['kappa']}   F0 = face {obj['f0_face_id']}",
        "faces (id, dim, vertices, recession axes, sigma_tau, restriction):",
    ]
    for row in obj["faces"]:
        human.append(
            f"  {row['id']:3d}  dim {row['dim']}  verts {row['vertices']}  "
            f"axes {row['recession_axes']}  sigma_tau {row['sigma_tau']}  {row['restriction']}"
        )
    return human


def cmd_nondeg(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.polynomial)
    faces = enumerate_faces(build_polyhedron(f))
    reports = [
        check_nondegenerate_mod_p(f, faces, p, work_budget=args.budget)
        for p in args.primes
    ]
    obj = {"polynomial": render(f), "reports": [_nondeg_dict(r) for r in reports]}
    human = [f"polynomial: {render(f)}"]
    for rep in reports:
        human.append(f"p = {rep.prime}: {'pass' if rep.passed else 'FAIL'}")
        for e in rep.failures:
            human.append(f"    face {e.face_id} critical at {e.witness}")
    _emit(args, human, obj)
    return 0


def cmd_sum(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.polynomial)
    p, m = _one(args, "primes"), _one(args, "powers")
    s = brute_force_S(f, p, m, workers=args.workers, work_budget=args.budget)
    obj = {
        "polynomial": render(f), "p": p, "m": m,
        "value": _complex_dict(s.value),
        "abs_error_budget": s.abs_error_budget,
        "term_count": s.term_count,
    }
    human = [
        f"S(p={p}, m={m}) = {_complex_text(s.value)}   "
        f"(+/- {s.abs_error_budget:.3g}, {s.term_count} terms)"
    ]
    _emit(args, human, obj)
    return 0


def cmd_esum(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.polynomial)
    p = _one(args, "primes")
    target = f if args.face is None else build_polyhedron(f).face_by_id(args.face).restriction
    s = torus_E(target, p, workers=args.workers, work_budget=args.budget)
    obj = {
        "polynomial": render(f), "restriction": render(target),
        "p": p, "face_id": args.face,
        "value": _complex_dict(s.value),
        "abs_error_budget": s.abs_error_budget,
        "term_count": s.term_count,
    }
    human = [
        f"E(p={p}, {render(target)}) = {_complex_text(s.value)}   "
        f"(+/- {s.abs_error_budget:.3g})"
    ]
    _emit(args, human, obj)
    return 0


_FORMULA_COLUMNS = ("p", "m", "tol", "verdict", "T", "tail", "lhs_re", "lhs_im", "rhs_re", "rhs_im")


def cmd_verify_formula(args: argparse.Namespace) -> int:
    """One report per prime, in ascending order; the primes share the one
    polyhedron of f.  One prime gives its report object, several a list."""
    f = parse_polynomial(args.polynomial)
    objs, human, csv_rows, verdicts = [], [], [], set()
    for p in args.primes:
        reports = faceformula.verify_formula(
            f, p, args.powers, args.eps,
            workers=args.workers, work_budget=args.budget,
        )
        rows = [_formula_row(rep) for rep in reports]
        objs.append({
            "polynomial": render(f), "prime": p,
            "nondeg": _nondeg_dict(reports[0].nondeg) if reports else None,
            "rows": rows,
        })
        human.append(f"polynomial: {render(f)}   p = {p}")
        for rep in reports:
            if rep.lhs is None:
                human.append(f"  m = {rep.m}: {rep.verdict}")
            else:
                diff = abs(rep.lhs.value - rep.rhs.value)
                relation = "<=" if diff <= rep.certified_tolerance else ">"
                human.append(
                    f"  m = {rep.m}: {rep.verdict}   |lhs-rhs| = "
                    f"{diff:.3e} {relation} tol {rep.certified_tolerance:.3e}"
                )
        csv_rows += [_flatten_formula_row(r) for r in rows]
        verdicts.update(rep.verdict for rep in reports)
    _emit(args, human, objs[0] if len(objs) == 1 else objs, (_FORMULA_COLUMNS, csv_rows))
    if "fail" in verdicts:
        return 1
    if "budget-exceeded" in verdicts:
        return 2
    return 0


def _flatten_formula_row(row: dict) -> dict:
    """The row with its lhs and rhs objects split into re and im columns."""
    flat = {key: value for key, value in row.items() if key not in ("lhs", "rhs")}
    for side in ("lhs", "rhs"):
        value = row[side] or {}
        flat[f"{side}_re"], flat[f"{side}_im"] = value.get("re"), value.get("im")
    return flat


def cmd_verify_nu(args: argparse.Namespace) -> int:
    """Text shows the first 10 findings; JSON and CSV list every one."""
    f = parse_polynomial(args.polynomial)
    res = bounds.check_nu_inequality(f, args.T)
    main_bad, half_bad = (int((~ok).sum()) for ok in (res.main_ok, res.halfdim_ok))
    human = [
        f"polynomial: {render(f)}   T = {args.T}   points = {res.points_checked}",
        f"main inequality violations: {main_bad} (hard assertion)",
        f"half-dimension variant violations: {half_bad} (findings)",
    ]
    for row in _nu_rows(res, res.halfdim_ok, 10):
        human.append(f"    k = {tuple(row['k'])}: nu = {row['nu']} < {row['rhs_halfdim']}")
    obj = table = None
    if args.json or args.csv:
        obj = {
            "polynomial": render(f), "T": res.T, "points_checked": res.points_checked,
            "main_violations": _nu_rows(res, res.main_ok),
            "halfdim_violations": _nu_rows(res, res.halfdim_ok),
        }
        violations = obj["main_violations"] + obj["halfdim_violations"]
        table = (_NU_COLUMNS, [dict(row, k=" ".join(map(str, row["k"]))) for row in violations])
    _emit(args, human, obj, table)
    return 1 if main_bad else 0


_RATIO_COLUMNS = ("p", "m", "abs_S", "ratio_main", "ratio_coarse")


def cmd_ratios(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.polynomial)
    table = bounds.bound_ratio_table(
        f, args.primes, args.powers,
        workers=args.workers, work_budget=args.budget,
    )
    rows = [
        dict(zip(_RATIO_COLUMNS, (c.p, c.m, c.abs_S, c.ratio_main, c.ratio_coarse)))
        for c in table.rows
    ]
    obj = {
        "polynomial": render(f),
        "sigma": _frac_str(table.sigma),
        "kappa": table.kappa,
        "hypothesis_met": table.hypothesis_met,
        "estimated_c": table.estimated_c,
        "rows": rows,
        "errors": [{"p": p, "m": m, "error": msg} for p, m, msg in table.errors],
        "findings": [
            {"p": c.p, "m": c.m, "ratio_main": c.ratio_main}
            for c in table.rows if args.ceiling is not None and c.ratio_main > args.ceiling
        ],
    }
    human = [f"polynomial: {render(f)}   sigma = {_frac_str(table.sigma)}   kappa = {table.kappa}"]
    if not table.hypothesis_met:
        human.append("NOTE: hypothesis unmet (f is not homogeneous); bound is not asserted")
    human.append("  p   m       |S|          ratio_main     ratio_coarse")
    for c in table.rows:
        human.append(f"  {c.p:<3d} {c.m:<3d} {c.abs_S:<14.6e} {c.ratio_main:<14.6e} {c.ratio_coarse:.6e}")
    for p, m, msg in table.errors:
        human.append(f"  {p:<3d} {m:<3d} skipped: {msg}")
    human.append(f"estimated c (max ratio_main) = {table.estimated_c:.6g}")
    _emit(args, human, obj, (_RATIO_COLUMNS, rows))
    return 0 if table.rows or not table.errors else 2


_EDECAY_COLUMNS = ("p", "abs_E", "status")


def cmd_edecay(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.polynomial)
    fit = bounds.e_decay_fit(
        f, args.face, args.primes,
        workers=args.workers, work_budget=args.budget,
    )
    # dropped-degenerate and budget-exceeded rows have no |E| (NaN): null in JSON
    rows = [
        dict(zip(_EDECAY_COLUMNS, (r.p, None if math.isnan(r.abs_E) else r.abs_E, r.status)))
        for r in fit.rows
    ]
    obj = {
        "polynomial": render(f),
        "face_id": fit.face_id,
        "fitted_exponent": fit.fitted_exponent,
        "sigma_tau": _frac_str(fit.sigma_tau),
        "esig_exponent": _frac_str(-fit.sigma_tau),
        "ds_exponent": _frac_str(fit.ds_exponent),
        "rows": rows,
    }
    human = [
        f"polynomial: {render(f)}   face {fit.face_id}",
        f"fitted exponent = {fit.fitted_exponent:.4f}   "
        f"predictions: {_frac_str(-fit.sigma_tau)} (sigma), {_frac_str(fit.ds_exponent)} (half-dim)",
    ]
    for r in fit.rows:
        human.append(f"    p = {r.p:<3d} |E| = {r.abs_E:.6e}  [{r.status}]")
    _emit(args, human, obj, (_EDECAY_COLUMNS, rows))
    return 0


def cmd_sigma_bound(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.polynomial)
    P = build_polyhedron(f)
    holds = bounds.check_sigma_dim_bound(P, args.d)
    sigma = P.diagonal.sigma
    bound = Fraction(f.n - args.d, 2)
    obj = {
        "polynomial": render(f), "d": args.d,
        "sigma": _frac_str(sigma), "bound": _frac_str(bound), "holds": holds,
    }
    human = [
        f"sigma = {_frac_str(sigma)} {'<=' if holds else '>'} (n-d)/2 = {_frac_str(bound)}"
        + ("" if holds else "   FINDING: inconsistent d or failed hypothesis")
    ]
    _emit(args, human, obj)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

#: Every option, in the order it is registered: name -> (flags, keywords).
#: Each use of a prime flag adds to one sorted list, ``args.primes``, and
#: each use of a power flag to ``args.powers``.
_OPTIONS = {
    "prime": (("--prime", "-p", "--primes"), dict(type=_parse_primes, action=_Union, dest="primes",
                                                  help="a prime or a list, e.g. 3,5,7")),
    "power": (("--power", "-m", "--powers"), dict(type=_parse_powers, action=_Union, dest="powers",
                                                  help="a power a or a range a..b")),
    "face": (("--face",), dict(type=int, help="face id from `analyze`")),
    "d": (("--d",), dict(type=int, help="asserted dimension of the critical locus")),
    "ceiling": (("--ceiling",), dict(type=float, help="flag ratio cells above this value as findings")),
    "T": (("--T",), dict(type=int, default=30, help="lattice bound (default 30)")),
    "eps": (("--eps",), dict(type=_parse_eps, default="1e-8", help="truncation certificate target")),
    "budget": (("--budget",), dict(type=int, default=DEFAULT_WORK_BUDGET,
                                   help="work budget in grid evaluations")),
    "workers": (("--workers",), dict(type=_parse_workers, default=len(os.sched_getaffinity(0))
                                     if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
                                     help="worker processes (default: the CPUs this process may run "
                                          "on, its affinity set where the platform has one)")),
    "json": (("--json",), dict(action="store_true", help="machine-readable JSON report")),
    "csv": (("--csv",), dict(action="store_true", help="the report's table as CSV")),
    "out": (("--out",), dict(metavar="FILE", help="write the report to FILE")),
}

#: Subcommand -> (handler, help, option names).  Every subcommand also takes
#: --json and --out; a name ending in "!" is a required option.
_COMMANDS = {
    "analyze": (cmd_analyze, "polyhedron, faces, sigma/kappa table", ()),
    "nondeg": (cmd_nondeg, "per-face mod-p nondegeneracy", ("prime!", "budget")),
    "sum": (cmd_sum, "brute-force complete sum", ("prime!", "power!", "budget", "workers")),
    "esum": (cmd_esum, "torus sum, optionally of a face restriction",
             ("prime!", "face", "budget", "workers")),
    "verify-formula": (cmd_verify_formula, "face decomposition vs brute force",
                       ("prime!", "power!", "eps", "budget", "workers", "csv")),
    "verify-nu": (cmd_verify_nu, "lattice inequality scan", ("T", "csv")),
    "ratios": (cmd_ratios, "decay-normalized sum table",
               ("prime!", "power!", "ceiling", "budget", "workers", "csv")),
    "edecay": (cmd_edecay, "torus-sum decay exponent fit",
               ("prime!", "face!", "budget", "workers", "csv")),
    "sigma-bound": (cmd_sigma_bound, "sigma <= (n-d)/2 consistency gate", ("d!",)),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token with one leading "-" as a
    positional unless it begins with a registered short flag, so a
    polynomial may begin with a minus sign ("-x*y") with no "--" before it;
    "-p 3", "-p3" and "-h" stay options."""

    def _parse_optional(self, arg_string):
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and arg_string[:2] not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padicsums",
        description="Newton-polyhedron invariants and p-adic exponential sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, names) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("polynomial", help="polynomial text, e.g. 'x*y + z*u'")
        required = {name.rstrip("!"): name.endswith("!") for name in (*names, "json", "out")}
        for name, (flags, keywords) in _OPTIONS.items():
            if name in required:
                sp.add_argument(*flags, required=required[name], **keywords)
        sp.set_defaults(handler=handler)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (PadicSumsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout: the rest goes to os.devnull, where the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code == 0:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
