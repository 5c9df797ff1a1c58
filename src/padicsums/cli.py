"""Command-line front end.

One subcommand per analysis: ``analyze`` (polyhedron, faces, sigma/kappa
table), ``nondeg``, ``sum``, ``esum``, ``verify-formula``, ``verify-nu``,
``ratios``, ``edecay``, ``sigma-bound``.  Reports go to stdout (or --out) as
human text, --json, or --csv on the subcommands whose report is a table
(verify-formula, verify-nu, ratios, edecay); exact rational quantities
are serialized as "numerator/denominator" strings, never floats.

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
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import List, Optional, Sequence

from . import bounds, faceformula
from .errors import PadicSumsError
from .newton import build_polyhedron, enumerate_faces, frac_str, polyhedron_to_dict, sigma_data
from .poly import Polynomial, parse_polynomial, render
from .sums import DEFAULT_WORK_BUDGET, brute_force_S, check_nondegenerate_mod_p, torus_E


@dataclass
class RunConfig:
    command: str
    polynomial: str
    primes: List[int]
    m_range: List[int]
    eps: Optional[Fraction]
    T: Optional[int]
    work_budget: Optional[int]
    workers: Optional[int]
    out_format: str  # human | json | csv
    out_file: Optional[str]
    face_id: Optional[int] = None
    d: Optional[int] = None
    ratio_ceiling: Optional[float] = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        primes: List[int] = []
        if getattr(args, "prime", None) is not None:
            primes.append(args.prime)
        if getattr(args, "primes", None):
            primes.extend(_parse_primes(args.primes))
        m_range: List[int] = []
        if getattr(args, "power", None) is not None:
            m_range.append(args.power)
        if getattr(args, "powers", None):
            m_range.extend(_parse_powers(args.powers))
        fmt = "json" if args.json else ("csv" if getattr(args, "csv", False) else "human")
        return cls(
            command=args.command,
            polynomial=args.polynomial,
            primes=sorted(set(primes)),
            m_range=sorted(set(m_range)),
            eps=_parse_eps(args.eps) if hasattr(args, "eps") else None,
            T=getattr(args, "T", None),
            work_budget=getattr(args, "budget", None),
            workers=getattr(args, "workers", None),
            out_format=fmt,
            out_file=args.out,
            face_id=getattr(args, "face", None),
            d=getattr(args, "d", None),
            ratio_ceiling=getattr(args, "ceiling", None),
        )


def _parse_eps(text: str) -> Fraction:
    try:
        return Fraction(Decimal(text))
    except ArithmeticError as exc:
        raise ValueError(f"bad eps {text!r}: {exc}")


def _parse_primes(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_powers(text: str) -> List[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _emit(cfg: RunConfig, human: Sequence[str], obj: object, csv_rows: Optional[List[dict]] = None) -> None:
    if cfg.out_format == "json":
        text = json.dumps(obj, indent=2)
    elif cfg.out_format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()) if csv_rows else ["empty"])
        writer.writeheader()
        writer.writerows(csv_rows)
        text = buf.getvalue().rstrip("\n")
    else:
        text = "\n".join(human)
    if cfg.out_file:
        with open(cfg.out_file, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _poly(cfg: RunConfig) -> Polynomial:
    return parse_polynomial(cfg.polynomial)


def _complex_dict(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_analyze(cfg: RunConfig) -> int:
    P = build_polyhedron(_poly(cfg))
    obj = polyhedron_to_dict(P)
    sig = sigma_data(P)
    human = [
        f"polynomial: {obj['polynomial']}   (n = {P.n})",
        f"vertices:   {[tuple(v) for v in obj['vertices']]}",
        "facets:     " + ", ".join(
            f"{tuple(fc['normal'])} . x >= {fc['offset']}" for fc in obj["facets"]
        ),
        f"sigma = {frac_str(sig.sigma)}   t* = {frac_str(sig.t_star)}   "
        f"kappa = {sig.kappa}   F0 = face {sig.f0_face_id}",
        "faces (id, dim, vertices, recession axes, sigma_tau, restriction):",
    ]
    for row in obj["faces"]:
        human.append(
            f"  {row['id']:3d}  dim {row['dim']}  verts {row['vertices']}  "
            f"axes {row['recession_axes']}  sigma_tau {row['sigma_tau']}  {row['restriction']}"
        )
    _emit(cfg, human, obj)
    return 0


def cmd_nondeg(cfg: RunConfig) -> int:
    f = _poly(cfg)
    P = build_polyhedron(f)
    faces = enumerate_faces(P)
    reports = [
        check_nondegenerate_mod_p(f, faces, p, work_budget=cfg.work_budget)
        for p in cfg.primes
    ]
    obj = {"polynomial": render(f), "reports": [r.to_dict() for r in reports]}
    human = [f"polynomial: {render(f)}"]
    for rep in reports:
        human.append(f"p = {rep.prime}: {'pass' if rep.passed else 'FAIL'}")
        for e in rep.failures:
            human.append(f"    face {e.face_id} critical at {e.witness}")
    _emit(cfg, human, obj)
    return 0


def cmd_sum(cfg: RunConfig) -> int:
    f = _poly(cfg)
    p, m = cfg.primes[0], cfg.m_range[0]
    s = brute_force_S(f, p, m, workers=cfg.workers, work_budget=cfg.work_budget)
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
    _emit(cfg, human, obj)
    return 0


def cmd_esum(cfg: RunConfig) -> int:
    f = _poly(cfg)
    p = cfg.primes[0]
    target = f
    if cfg.face_id is not None:
        faces = enumerate_faces(build_polyhedron(f))
        if not 0 <= cfg.face_id < len(faces):
            raise ValueError(f"no face with id {cfg.face_id}")
        target = faces[cfg.face_id].restriction
    s = torus_E(target, p, workers=cfg.workers, work_budget=cfg.work_budget)
    obj = {
        "polynomial": render(f), "restriction": render(target),
        "p": p, "face_id": cfg.face_id,
        "value": _complex_dict(s.value),
        "abs_error_budget": s.abs_error_budget,
        "term_count": s.term_count,
    }
    human = [
        f"E(p={p}, {render(target)}) = {s.value.real:.15g} + {s.value.imag:.15g}i   "
        f"(+/- {s.abs_error_budget:.3g})"
    ]
    _emit(cfg, human, obj)
    return 0


def cmd_verify_formula(cfg: RunConfig) -> int:
    f = _poly(cfg)
    p = cfg.primes[0]
    reports = faceformula.verify_formula(
        f, p, cfg.m_range, cfg.eps,
        workers=cfg.workers, work_budget=cfg.work_budget,
    )
    rows = [rep.to_json_row() for rep in reports]
    obj = {
        "polynomial": render(f), "prime": p,
        "nondeg": reports[0].nondeg.to_dict() if reports else None,
        "rows": rows,
    }
    human = [f"polynomial: {render(f)}   p = {p}"]
    for rep in reports:
        if rep.lhs is None:
            human.append(f"  m = {rep.m}: {rep.verdict}")
        else:
            human.append(
                f"  m = {rep.m}: {rep.verdict}   |lhs-rhs| = "
                f"{abs(rep.lhs.value - rep.rhs.value):.3e} <= tol {rep.certified_tolerance:.3e}"
            )
    _emit(cfg, human, obj, csv_rows=[_flatten_formula_row(r) for r in rows])
    if any(rep.verdict == "fail" for rep in reports):
        return 1
    if any(rep.verdict == "budget-exceeded" for rep in reports):
        return 2
    return 0


def _flatten_formula_row(row: dict) -> dict:
    flat = dict(row)
    lhs = flat.pop("lhs") or {}
    rhs = flat.pop("rhs") or {}
    flat["lhs_re"] = lhs.get("re")
    flat["lhs_im"] = lhs.get("im")
    flat["rhs_re"] = rhs.get("re")
    flat["rhs_im"] = rhs.get("im")
    return flat


def cmd_verify_nu(cfg: RunConfig) -> int:
    f = _poly(cfg)
    T = cfg.T if cfg.T is not None else 30
    res = bounds.check_nu_inequality(f, T)
    obj = {
        "polynomial": render(f),
        "T": res.T,
        "points_checked": res.points_checked,
        "main_violations": [bounds.nu_record_to_dict(r) for r in res.main_violations],
        "halfdim_violations": [bounds.nu_record_to_dict(r) for r in res.halfdim_violations],
    }
    human = [
        f"polynomial: {render(f)}   T = {T}   points = {res.points_checked}",
        f"main inequality violations: {len(res.main_violations)} (hard assertion)",
        f"half-dimension variant violations: {len(res.halfdim_violations)} (findings)",
    ]
    for rec in res.halfdim_violations[:10]:
        human.append(
            f"    k = {rec.k}: nu = {rec.nu} < {frac_str(rec.rhs_halfdim)}"
        )
    csv_rows = [bounds.nu_record_to_dict(r) for r in res.main_violations + res.halfdim_violations]
    for row in csv_rows:
        row["k"] = " ".join(str(x) for x in row["k"])
    _emit(cfg, human, obj, csv_rows=csv_rows)
    return 1 if res.main_violations else 0


def cmd_ratios(cfg: RunConfig) -> int:
    f = _poly(cfg)
    table = bounds.bound_ratio_table(
        f, cfg.primes, cfg.m_range,
        workers=cfg.workers, work_budget=cfg.work_budget,
        ratio_ceiling=cfg.ratio_ceiling,
    )
    rows = [
        {
            "p": c.p, "m": c.m, "abs_S": c.abs_S,
            "ratio_main": c.ratio_main, "ratio_coarse": c.ratio_coarse,
        }
        for c in table.rows
    ]
    obj = {
        "polynomial": render(f),
        "sigma": frac_str(table.sigma),
        "kappa": table.kappa,
        "hypothesis_met": table.hypothesis_met,
        "estimated_c": table.estimated_c,
        "rows": rows,
        "errors": [{"p": p, "m": m, "error": msg} for p, m, msg in table.errors],
        "findings": [{"p": c.p, "m": c.m, "ratio_main": c.ratio_main} for c in table.findings],
    }
    human = [f"polynomial: {render(f)}   sigma = {frac_str(table.sigma)}   kappa = {table.kappa}"]
    if not table.hypothesis_met:
        human.append("NOTE: hypothesis unmet (f is not homogeneous); bound is not asserted")
    human.append("  p   m       |S|          ratio_main     ratio_coarse")
    for c in table.rows:
        human.append(f"  {c.p:<3d} {c.m:<3d} {c.abs_S:<14.6e} {c.ratio_main:<14.6e} {c.ratio_coarse:.6e}")
    for p, m, msg in table.errors:
        human.append(f"  {p:<3d} {m:<3d} skipped: {msg}")
    human.append(f"estimated c (max ratio_main) = {table.estimated_c:.6g}")
    _emit(cfg, human, obj, csv_rows=rows)
    return 0 if table.rows or not table.errors else 2


def cmd_edecay(cfg: RunConfig) -> int:
    f = _poly(cfg)
    fit = bounds.e_decay_fit(
        f, cfg.face_id, cfg.primes,
        workers=cfg.workers, work_budget=cfg.work_budget,
    )
    rows = [{"p": r.p, "abs_E": r.abs_E, "status": r.status} for r in fit.rows]
    obj = {
        "polynomial": render(f),
        "face_id": fit.face_id,
        "fitted_exponent": fit.fitted_exponent,
        "sigma_tau": frac_str(fit.sigma_tau),
        "esig_exponent": frac_str(-fit.sigma_tau),
        "ds_exponent": frac_str(fit.ds_exponent),
        "rows": rows,
    }
    human = [
        f"polynomial: {render(f)}   face {fit.face_id}",
        f"fitted exponent = {fit.fitted_exponent:.4f}   "
        f"predictions: {frac_str(-fit.sigma_tau)} (sigma), {frac_str(fit.ds_exponent)} (half-dim)",
    ]
    for r in fit.rows:
        human.append(f"    p = {r.p:<3d} |E| = {r.abs_E:.6e}  [{r.status}]")
    _emit(cfg, human, obj, csv_rows=rows)
    return 0


def cmd_sigma_bound(cfg: RunConfig) -> int:
    f = _poly(cfg)
    holds = bounds.check_sigma_dim_bound(f, cfg.d)
    sigma = build_polyhedron(f).diagonal.sigma
    bound = Fraction(f.n - cfg.d, 2)
    obj = {
        "polynomial": render(f), "d": cfg.d,
        "sigma": frac_str(sigma), "bound": frac_str(bound), "holds": holds,
    }
    human = [
        f"sigma = {frac_str(sigma)} {'<=' if holds else '>'} (n-d)/2 = {frac_str(bound)}"
        + ("" if holds else "   FINDING: inconsistent d or failed hypothesis")
    ]
    _emit(cfg, human, obj)
    return 0


_HANDLERS = {
    "analyze": cmd_analyze,
    "nondeg": cmd_nondeg,
    "sum": cmd_sum,
    "esum": cmd_esum,
    "verify-formula": cmd_verify_formula,
    "verify-nu": cmd_verify_nu,
    "ratios": cmd_ratios,
    "edecay": cmd_edecay,
    "sigma-bound": cmd_sigma_bound,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicsums",
        description="Newton-polyhedron invariants and p-adic exponential sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, primes=False, prime=False, powers=False,
               power=False, face=False, need_d=False, ceiling=False, lattice_T=False,
               eps=False, budget=False, workers=False, csv=False):
        sp.add_argument("polynomial", help="polynomial text, e.g. 'x*y + z*u'")
        if prime:
            sp.add_argument("--prime", "-p", type=int, required=not primes)
        if primes:
            sp.add_argument("--primes", help="comma-separated list, e.g. 3,5,7")
        if power:
            sp.add_argument("--power", "-m", type=int, required=not powers)
        if powers:
            sp.add_argument("--powers", help="range a..b or single value")
        if face:
            sp.add_argument("--face", type=int, help="face id from `analyze`")
        if need_d:
            sp.add_argument("--d", type=int, required=True,
                            help="asserted dimension of the critical locus")
        if ceiling:
            sp.add_argument("--ceiling", type=float, default=None,
                            help="flag ratio cells above this value as findings")
        if lattice_T:
            sp.add_argument("--T", type=int, default=None, help="lattice bound (default 30)")
        if eps:
            sp.add_argument("--eps", default="1e-8", help="truncation certificate target")
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_WORK_BUDGET,
                            help="work budget in grid evaluations")
        if workers:
            sp.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        sp.add_argument("--json", action="store_true", help="machine-readable JSON report")
        if csv:
            sp.add_argument("--csv", action="store_true", help="the report's table as CSV")
        sp.add_argument("--out", metavar="FILE", help="write the report to FILE")

    common(sub.add_parser("analyze", help="polyhedron, faces, sigma/kappa table"))
    common(sub.add_parser("nondeg", help="per-face mod-p nondegeneracy"),
           prime=True, primes=True, budget=True)
    common(sub.add_parser("sum", help="brute-force complete sum"),
           prime=True, power=True, budget=True, workers=True)
    common(sub.add_parser("esum", help="torus sum, optionally of a face restriction"),
           prime=True, face=True, budget=True, workers=True)
    common(sub.add_parser("verify-formula", help="face decomposition vs brute force"),
           prime=True, power=True, powers=True, eps=True, budget=True, workers=True, csv=True)
    common(sub.add_parser("verify-nu", help="lattice inequality scan"), lattice_T=True, csv=True)
    common(sub.add_parser("ratios", help="decay-normalized sum table"),
           prime=True, primes=True, power=True, powers=True, ceiling=True,
           budget=True, workers=True, csv=True)
    common(sub.add_parser("edecay", help="torus-sum decay exponent fit"),
           prime=True, primes=True, face=True, budget=True, workers=True, csv=True)
    common(sub.add_parser("sigma-bound", help="sigma <= (n-d)/2 consistency gate"), need_d=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig.from_args(args)
        if cfg.command in ("sum", "esum", "verify-formula", "nondeg", "ratios", "edecay"):
            if not cfg.primes:
                print("error: a prime is required (--prime or --primes)", file=sys.stderr)
                return 2
        if cfg.command in ("sum", "verify-formula", "ratios") and not cfg.m_range:
            print("error: a power is required (--power or --powers)", file=sys.stderr)
            return 2
        if cfg.command == "edecay" and cfg.face_id is None:
            print("error: edecay requires --face", file=sys.stderr)
            return 2
        return _HANDLERS[cfg.command](cfg)
    except PadicSumsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
