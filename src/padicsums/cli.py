"""Command-line front end.

One subcommand per analysis: ``analyze`` (polyhedron, faces, sigma/kappa
table), ``nondeg``, ``sum``, ``esum``, ``verify-formula``, ``verify-nu``,
``ratios``, ``edecay``, ``sigma-bound``.  Reports go to stdout (or --out) as
human text, --json, or --csv on the subcommands whose report is a table
(verify-formula, verify-nu, ratios, edecay); exact rational quantities
are serialized as "numerator/denominator" strings, never floats.  This module
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
(the lattice inequality or a formula verdict), 2 = usage or budget error.
Findings (half-dimension violations, ratio-ceiling flags, a failed
sigma-dimension gate) never affect the exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

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
    return _nonempty([int(tok) for tok in text.split(",") if tok.strip()], text)


def _parse_powers(text: str) -> List[int]:
    lo, sep, hi = text.partition("..")
    return _nonempty(list(range(int(lo), int(hi if sep else lo) + 1)), text)


class _Union(argparse.Action):
    """Merge one flag's values into the option's sorted list without repeats."""

    def __call__(self, parser, namespace, values, option_string=None):
        merged = set(getattr(namespace, self.dest) or ()).union(values)
        setattr(namespace, self.dest, sorted(merged))


def _emit(
    args: argparse.Namespace,
    human: Sequence[str],
    obj: object,
    table: Optional[Tuple[Sequence[str], List[dict]]] = None,
) -> None:
    """Write the report as JSON, as the CSV ``table`` (column names, rows)
    when one is given and --csv is set, or as the ``human`` lines."""
    if args.json:
        text = json.dumps(obj, indent=2, allow_nan=False)
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


def _face_dict(P: NewtonPolyhedron, face: Face) -> dict:
    return {
        "id": face.id,
        "vertices": [list(P.vertices[i]) for i in face.vertex_ids],
        "recession_axes": [a + 1 for a in face.recession_axes],
        "dim": face.dim,
        "witness": list(face.witness_k),
        "sigma_tau": _frac_str(face.sigma_tau),
        "restriction": render(face.restriction),
    }


def _polyhedron_dict(P: NewtonPolyhedron) -> dict:
    faces = enumerate_faces(P)
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
        "faces": [_face_dict(P, face) for face in faces],
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


def _nu_dict(rec: bounds.NuCheckRecord) -> dict:
    return dict(zip(_NU_COLUMNS, (
        list(rec.k), rec.face_id, rec.nu, rec.N,
        _frac_str(rec.rhs_main), _frac_str(rec.rhs_halfdim), rec.main_ok, rec.halfdim_ok,
    )))


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
    obj = _polyhedron_dict(build_polyhedron(parse_polynomial(args.polynomial)))
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
    _emit(args, human, obj)
    return 0


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
        f"S(p={p}, m={m}) = {s.value.real:.15g} + {s.value.imag:.15g}i   "
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
        f"E(p={p}, {render(target)}) = {s.value.real:.15g} + {s.value.imag:.15g}i   "
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
                human.append(
                    f"  m = {rep.m}: {rep.verdict}   |lhs-rhs| = "
                    f"{abs(rep.lhs.value - rep.rhs.value):.3e} <= tol {rep.certified_tolerance:.3e}"
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
    f = parse_polynomial(args.polynomial)
    res = bounds.check_nu_inequality(f, args.T)
    obj = {
        "polynomial": render(f),
        "T": res.T,
        "points_checked": res.points_checked,
        "main_violations": [_nu_dict(r) for r in res.main_violations],
        "halfdim_violations": [_nu_dict(r) for r in res.halfdim_violations],
    }
    human = [
        f"polynomial: {render(f)}   T = {args.T}   points = {res.points_checked}",
        f"main inequality violations: {len(res.main_violations)} (hard assertion)",
        f"half-dimension variant violations: {len(res.halfdim_violations)} (findings)",
    ]
    for rec in res.halfdim_violations[:10]:
        human.append(f"    k = {rec.k}: nu = {rec.nu} < {_frac_str(rec.rhs_halfdim)}")
    violations = obj["main_violations"] + obj["halfdim_violations"]
    csv_rows = [dict(row, k=" ".join(map(str, row["k"]))) for row in violations]
    _emit(args, human, obj, (_NU_COLUMNS, csv_rows))
    return 1 if res.main_violations else 0


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
    "workers": (("--workers",), dict(type=int, default=len(os.sched_getaffinity(0))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    except (PadicSumsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
