"""CLI behaviour: subcommands, exit codes, report formats, golden files."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from padicsums import cli
from padicsums.cli import _build_parser, main
from padicsums.poly import parse_polynomial, render
from padicsums.sums import KERNEL_EPS, _exp_sum_over_grid
from test_lattice import nu_reference

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return fh.read()


def assert_json_equal(got, want, path="$"):
    """Equality of type, key order and value, except that floats compare
    with a 1e-9 absolute tolerance, so that last-bit differences between
    numpy builds pass."""
    assert type(got) is type(want), f"{path}: {got!r} != {want!r}"
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-9), path
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_json_equal(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_equal(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


# -- analyze --------------------------------------------------------------------

def test_analyze_human_report(capsys):
    code, out = run(capsys, "analyze", "x*y+z*u")
    assert code == 0
    assert "sigma = 2/1" in out and "kappa = 3" in out


def test_analyze_json_matches_golden(capsys):
    # the report holds no float, so it must match byte for byte
    code, out = run(capsys, "analyze", "x*y+z*u", "--json")
    assert code == 0
    got = json.loads(out)
    # F0 has dimension 1 for this polynomial
    f0 = got["faces"][got["f0_face_id"]]
    assert f0["dim"] == 1 and got["sigma"] == "2/1" and got["kappa"] == 3
    assert out == golden("analyze_xyzu.json")


def test_analyze_rationals_are_strings(capsys):
    _, out = run(capsys, "analyze", "x^2+y^3", "--json")
    got = json.loads(out)
    assert got["sigma"] == "5/6" and got["t_star"] == "6/5"
    assert all("/" in face["sigma_tau"] for face in got["faces"])


def test_json_output_is_deterministic(capsys):
    _, first = run(capsys, "analyze", "x*y+z*u+x*z+2*y*u", "--json")
    _, second = run(capsys, "analyze", "x*y+z*u+x*z+2*y*u", "--json")
    assert first == second


# -- nondeg ------------------------------------------------------------------------

def test_nondeg_json_matches_golden(capsys):
    # p = 2 and p = 3 have witnesses; the report holds no float
    code, out = run(capsys, "nondeg", "x^2+y^3", "-p", "2,3,5", "--json")
    assert code == 0
    assert out == golden("nondeg_x2y3_p235.json")
    reports = json.loads(out)["reports"]
    assert [r["passed"] for r in reports] == [False, False, True]

def test_nondeg_budget_counts_distinct_restrictions(capsys):
    # 34 faces but 3 distinct restrictions: the scan covers 3 * 52^4 points,
    # inside the default budget.
    code, out = run(capsys, "nondeg", "x*y+z*u", "-p", "53")
    assert code == 0
    assert "p = 53: pass" in out


# -- sums -------------------------------------------------------------------------

def test_sum_linear_is_zero(capsys):
    code, out = run(capsys, "sum", "x", "--prime", "5", "--power", "2", "--json")
    assert code == 0
    got = json.loads(out)
    assert abs(got["value"]["re"]) < 1e-12 and abs(got["value"]["im"]) < 1e-12


def test_esum_face_restriction(capsys):
    code, out = run(capsys, "esum", "x*y+z*u", "--prime", "5", "--face", "6", "--json")
    assert code == 0
    got = json.loads(out)
    assert abs(got["value"]["re"] - 1 / 16) < 1e-12


def test_factored_sums_report_the_whole_grid(capsys):
    # x^2+y^3 splits into two 2^13-point blocks, and the x*y face of x*y+z*u
    # leaves z and u free; both reports still count every covered point.
    code, out = run(capsys, "sum", "x^2+y^3", "--prime", "2", "--power", "13", "--json")
    assert code == 0
    got = json.loads(out)
    M = 2 ** 13
    assert got["term_count"] == M ** 2
    assert got["abs_error_budget"] == KERNEL_EPS * got["term_count"]
    plain = _exp_sum_over_grid(parse_polynomial("x^2+y^3"), M, [(0, M)] * 2, 1) / M ** 2
    assert abs(complex(got["value"]["re"], got["value"]["im"]) - plain) <= 2 * got["abs_error_budget"]

    code, out = run(capsys, "esum", "x*y+z*u", "--prime", "31", "--face", "1", "--json")
    assert code == 0
    got = json.loads(out)
    assert got["restriction"] == "x*y"
    assert got["term_count"] == 30 ** 4
    assert got["abs_error_budget"] == KERNEL_EPS * got["term_count"]
    plain = _exp_sum_over_grid(parse_polynomial("x*y", dimension_hint=4), 31, [(1, 31)] * 4, 1) / 30 ** 4
    assert abs(complex(got["value"]["re"], got["value"]["im"]) - plain) <= 2 * got["abs_error_budget"]
    assert abs(got["value"]["re"] + 1 / 30) < 1e-12


def test_sum_at_5_11_counts_the_whole_grid(capsys):
    # x^3 mod 5^11 is above the histogram cap, so the stationary-phase tree
    # visits 310 points instead of 5^11, and the report still counts the
    # whole grid.
    # S_{x^3}(5^11) = 5^-4: cubing permutes the units mod 5^m, whose sum
    # vanishes, and x = 5y turns the rest into 5^2 S_{x^3}(5^(m-3)).
    code, out = run(capsys, "sum", "x^3", "-p", "5", "-m", "11", "--json")
    assert code == 0
    got = json.loads(out)
    assert got["term_count"] == 5 ** 11
    assert got["abs_error_budget"] == KERNEL_EPS * got["term_count"]
    assert abs(complex(got["value"]["re"], got["value"]["im"]) - 5 ** -4) <= got["abs_error_budget"]


def test_sum_and_esum_print_a_negative_imaginary_part_with_one_sign(capsys):
    # S_{2x^2}(3) = (1 + 2 e(2/3))/3 = -i/sqrt(3), E(3, 2x^2) = e(2/3) = (-1 - i sqrt(3))/2
    code, out = run(capsys, "sum", "2*x^2", "-p", "3", "-m", "1")
    assert code == 0
    assert " - 0.57735" in out and "+ -" not in out
    code, out = run(capsys, "esum", "2*x^2", "-p", "3")
    assert code == 0
    assert out.startswith("E(p=3, 2*x^2) = -0.5 - 0.86602") and "+ -" not in out


# -- verify-formula -----------------------------------------------------------------

def test_verify_formula_pass_rows(capsys):
    code, out = run(capsys, "verify-formula", "x*y", "--prime", "3", "--powers", "1..3")
    assert code == 0
    assert out.count("pass") == 3


def test_verify_formula_json_matches_golden(capsys):
    code, out = run(
        capsys, "verify-formula", "x*y", "--prime", "3", "--powers", "1..2", "--json"
    )
    assert code == 0
    assert_json_equal(json.loads(out), json.loads(golden("verify_formula_xy_p3.json")))


def test_verify_formula_json_row_schema(capsys):
    code, out = run(capsys, "verify-formula", "x*y", "-p", "3", "-m", "1", "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert list(row) == ["p", "m", "lhs", "rhs", "tol", "verdict", "T", "tail"]
    assert list(row["lhs"]) == ["re", "im"]
    assert isinstance(row["tail"], str) and "/" in row["tail"]


def test_verify_formula_prints_the_relation_that_holds(capsys, monkeypatch):
    # a row whose rhs is moved past its tolerance fails, and its line says so
    real = cli.faceformula.verify_formula

    def moved(f, p, *args, **kwargs):
        return [dataclasses.replace(
            rep, verdict="fail",
            rhs=dataclasses.replace(rep.rhs, value=rep.lhs.value + 2 * rep.certified_tolerance))
            for rep in real(f, p, *args, **kwargs)]

    code, out = run(capsys, "verify-formula", "x*y", "-p", "3", "-m", "1")
    assert code == 0 and " <= tol " in out and " > tol " not in out
    monkeypatch.setattr(cli.faceformula, "verify_formula", moved)
    code, out = run(capsys, "verify-formula", "x*y", "-p", "3", "-m", "1")
    assert code == 1
    assert "m = 1: fail   |lhs-rhs| = " in out
    assert " > tol " in out and "<=" not in out


def test_verify_formula_not_applicable(capsys):
    code, out = run(capsys, "verify-formula", "x^2+y^3", "--prime", "3", "--powers", "2")
    assert code == 0
    assert "not-applicable" in out


def test_verify_formula_budget_exit(capsys):
    code, _ = run(
        capsys, "verify-formula", "x*y+z*u", "--prime", "3", "--powers", "5",
        "--budget", "100000",
    )
    assert code == 2


# -- verify-nu -----------------------------------------------------------------------

def test_verify_nu_findings_do_not_fail(capsys):
    code, out = run(capsys, "verify-nu", "x*y+z*u", "--T", "8")
    assert code == 0
    assert "main inequality violations: 0" in out
    assert "half-dimension variant violations: 54" in out


def test_verify_nu_json_matches_golden(capsys):
    # x*y+z*u has half-dimension violations; the report holds no float
    code, out = run(capsys, "verify-nu", "x*y+z*u", "--T", "4", "--json")
    assert code == 0
    assert out == golden("verify_nu_xyzu_T4.json")
    assert json.loads(out)["halfdim_violations"]


def test_verify_nu_json_schema(capsys):
    code, out = run(capsys, "verify-nu", "x*y", "--T", "6", "--json")
    got = json.loads(out)
    assert code == 0 and got["points_checked"] == 28
    assert got["main_violations"] == []
    assert all("/" in rec["rhs_halfdim"] for rec in got["halfdim_violations"])


def render_nu_reference(text: str, T: int) -> dict:
    """The verify-nu text, --json and --csv bytes of the per-point reference
    scan, rendered as the report was when the library returned records."""
    f = parse_polynomial(text)
    res = nu_reference(f, T)
    columns = ("k", "face_id", "nu", "N", "rhs_main", "rhs_halfdim", "main_ok", "halfdim_ok")

    def frac(x):
        return f"{x.numerator}/{x.denominator}"

    def nu_dict(rec):
        return dict(zip(columns, (
            list(rec.k), rec.face_id, rec.nu, rec.N,
            frac(rec.rhs_main), frac(rec.rhs_halfdim), rec.main_ok, rec.halfdim_ok,
        )))

    obj = {
        "polynomial": render(f),
        "T": res.T,
        "points_checked": res.points_checked,
        "main_violations": [nu_dict(r) for r in res.main_violations],
        "halfdim_violations": [nu_dict(r) for r in res.halfdim_violations],
    }
    human = [
        f"polynomial: {render(f)}   T = {T}   points = {res.points_checked}",
        f"main inequality violations: {len(res.main_violations)} (hard assertion)",
        f"half-dimension variant violations: {len(res.halfdim_violations)} (findings)",
    ]
    for rec in res.halfdim_violations[:10]:
        human.append(f"    k = {rec.k}: nu = {rec.nu} < {frac(rec.rhs_halfdim)}")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    writer.writerows(dict(row, k=" ".join(map(str, row["k"])))
                     for row in obj["main_violations"] + obj["halfdim_violations"])
    return {
        "--text": "\n".join(human) + "\n",
        "--json": json.dumps(obj, indent=2, allow_nan=False) + "\n",
        "--csv": buf.getvalue().rstrip("\n") + "\n",
    }


@pytest.mark.parametrize("text", ["x*y+z*u", "x*y+z*u+x*z+2*y*u"])
def test_verify_nu_reports_at_T30_match_the_point_scan(text, capsys):
    want = render_nu_reference(text, 30)
    assert want["--json"].count('"k"') > 10  # both have findings past the text's first 10
    for fmt, expected in want.items():
        code, out = run(capsys, "verify-nu", text, "--T", "30", *([fmt] if fmt != "--text" else []))
        assert code == 0
        assert out == expected, fmt


# -- tables ---------------------------------------------------------------------------

def test_ratios_csv(capsys):
    code, out = run(
        capsys, "ratios", "x*y", "--primes", "3,5", "--powers", "1..2", "--csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,m,abs_S,ratio_main,ratio_coarse"
    assert len(lines) == 5


def test_ratios_notes_a_polynomial_that_is_not_homogeneous(capsys):
    code, out = run(capsys, "ratios", "x^2+y^3", "-p", "5", "-m", "1")
    assert code == 0
    assert out.splitlines()[1] == "NOTE: hypothesis unmet (f is not homogeneous); bound is not asserted"
    code, out = run(capsys, "ratios", "x*y", "-p", "5", "-m", "1")
    assert code == 0 and "NOTE" not in out


# The ceiling only filters the report: cells above it are findings, and the
# rows and the exit code do not change.
def test_ratios_ceiling_findings(capsys):
    argv = ["ratios", "x*y", "-p", "3", "-m", "1..2", "--json"]
    code, plain = run(capsys, *argv)
    assert code == 0 and json.loads(plain)["findings"] == []
    code, out = run(capsys, *argv, "--ceiling", "0.75")
    assert code == 0
    got = json.loads(out)
    assert [(c["p"], c["m"]) for c in got["findings"]] == [(3, 1)]
    assert got["findings"][0]["ratio_main"] == got["rows"][0]["ratio_main"]
    assert got["rows"] == json.loads(plain)["rows"]


def test_edecay_report(capsys):
    code, out = run(
        capsys, "edecay", "x*y+z*u", "--face", "6", "--primes", "3,5,7,11,13", "--json"
    )
    assert code == 0
    got = json.loads(out)
    assert abs(got["fitted_exponent"] + 2) < 1e-9
    assert got["esig_exponent"] == "-2/1" and got["ds_exponent"] == "-1/1"


def test_edecay_rows_without_abs_e_are_null(capsys):
    # p = 2 fails the face's nondegeneracy check, so its row has no |E|
    argv = ["edecay", "x^2+y^3", "--face", "4", "--primes", "2,3,5,7,11,13"]
    code, out = run(capsys, *argv, "--json")
    assert code == 0

    def refuse(constant):
        raise AssertionError(f"non-JSON constant {constant}")

    rows = json.loads(out, parse_constant=refuse)["rows"]
    assert rows[0] == {"p": 2, "abs_E": None, "status": "dropped-degenerate"}
    assert all(isinstance(row["abs_E"], float) for row in rows[1:])
    code, out = run(capsys, *argv, "--csv")
    assert code == 0 and out.splitlines()[1] == "2,,dropped-degenerate"


def test_json_refuses_non_finite_floats():
    args = argparse.Namespace(json=True, out=None)
    with pytest.raises(ValueError):
        cli._emit(args, [], {"abs_E": float("nan")})


# strings full of the bytes the writer must tell apart from structure
_TEXTS = st.text(st.sampled_from('"\\[]{},: ') | st.characters(), max_size=8)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
    | _FINITE | st.sampled_from([-0.0, 1e300, -1e300, 5e-324]) | _TEXTS
)
_KEYS = _TEXTS | st.integers() | _FINITE | st.booleans() | st.none()


@st.composite
def json_trees(draw):
    """A tree of lists and dicts (some empty), wrapped in up to 40 more
    levels of one-item containers."""
    tree = draw(st.recursive(
        _SCALARS,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_KEYS, kids, max_size=4),
        max_leaves=24,
    ))
    for as_list in draw(st.lists(st.booleans(), max_size=40)):
        tree = [tree] if as_list else {draw(_KEYS): tree}
    return tree


def emitted(obj) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(argparse.Namespace(json=True, out=None), [], obj)
    return out.getvalue()


@pytest.mark.more_examples
@settings(deadline=None)
@given(json_trees())
def test_json_writer_matches_indent_2(obj):
    assert emitted(obj) == json.dumps(obj, indent=2, allow_nan=False) + "\n"


@pytest.mark.more_examples
@settings(deadline=None)
@given(json_trees(), st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
def test_json_writer_refuses_non_finite_floats_like_indent_2(obj, bad, as_key):
    obj = [obj, {bad: 0} if as_key else bad]
    with pytest.raises(ValueError):
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        emitted(obj)


@pytest.mark.parametrize("argv, want_code, header", [
    (["verify-nu", "x", "--T", "0"], 0, "k,face_id,nu,N,rhs_main,rhs_halfdim,main_ok,halfdim_ok"),
    # every cell exceeds the work budget, so the table has no rows
    (["ratios", "x*y+z*u", "--primes", "13", "--powers", "3"], 2, "p,m,abs_S,ratio_main,ratio_coarse"),
], ids=["verify-nu", "ratios"])
def test_empty_csv_table_prints_its_header(capsys, argv, want_code, header):
    code, out = run(capsys, *argv, "--csv")
    assert code == want_code
    assert out.splitlines() == [header]


def test_sigma_bound_finding_keeps_exit_zero(capsys):
    code, out = run(capsys, "sigma-bound", "x*y", "--d", "1")
    assert code == 0
    assert "FINDING" in out
    code, _ = run(capsys, "sigma-bound", "x*y", "--d", "0")
    assert code == 0


# The critical locus of a homogeneous f of degree >= 2 has dimension 0..n-1.
def test_sigma_bound_d_outside_0_to_n_minus_1_exits_2(capsys):
    for d, want in (("-1", 2), ("0", 0), ("3", 0), ("4", 2)):
        code, out = run(capsys, "sigma-bound", "x*y+z*u", "--d", d)
        assert code == want
        assert out.startswith("sigma = 2/1") == (want == 0)


def test_sigma_bound_builds_one_polyhedron(capsys, builds):
    code, out = run(capsys, "sigma-bound", "x*y+z*u", "--d", "0", "--json")
    assert code == 0 and json.loads(out)["sigma"] == "2/1"
    assert len(builds) == 1


# -- error handling ------------------------------------------------------------------

def test_parse_error_exits_2(capsys):
    code, _ = run(capsys, "analyze", "x^2 + 3")
    assert code == 2


def test_a_huge_variable_index_exits_2_at_once(capsys):
    # the parser refuses the index before it builds a million-long exponent vector
    start = time.perf_counter()
    assert main(["analyze", "x1000000+y"]) == 2
    assert time.perf_counter() - start < 1
    assert "variable index must be at most 1024 (at position 0)" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["analyze", "x*y", "--bogus"]) == 2


# A polynomial may begin with a minus sign and hold no space; argparse would
# read such a token as an unknown option, so it needed "--" before it.
@pytest.mark.parametrize("argv, options", [
    (["analyze"], []),
    (["analyze"], ["--json"]),
    (["verify-formula"], ["-p", "2,3,5,7", "-m", "1..2", "--budget", "1000000", "--workers", "1", "--json"]),
    (["verify-formula"], ["-p2", "-p", "3", "--powers=1..2", "--workers", "1"]),
])
def test_a_polynomial_may_begin_with_a_minus_sign(capsys, argv, options):
    text = "-8*y*z^3*u"  # a random polynomial of the output battery
    want = run(capsys, *argv, *options, "--", text)
    assert text in want[1]  # a report, not a usage error
    assert run(capsys, *argv, text, *options) == want
    assert run(capsys, *argv, *options, text) == want
    args = _build_parser().parse_args([*argv, text, *options])
    assert args.polynomial == text
    if options[:1] == ["-p"]:
        assert args.primes == [2, 3, 5, 7] and args.powers == [1, 2]


def test_missing_required_exits_2(capsys):
    assert main(["sum", "x*y", "--power", "1"]) == 2
    assert main(["edecay", "x*y", "--primes", "3,5,7"]) == 2


@pytest.mark.parametrize("eps", ["abc", "nan", "inf"])
def test_bad_eps_exits_2(capsys, eps):
    assert main(["verify-formula", "x*y", "-p", "3", "-m", "1", "--eps", eps]) == 2
    assert f"bad eps '{eps}': not a finite decimal number" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["2", "5"])  # x^2+y^3 is degenerate at 2 and nondegenerate at 5
@pytest.mark.parametrize("eps", ["0", "-1"])
def test_nonpositive_eps_exits_2_at_every_prime(capsys, eps, p):
    assert main(["verify-formula", "x^2+y^3", "-p", p, "-m", "1", "--eps", eps]) == 2
    err = capsys.readouterr().err
    assert "eps must be positive" in err and "Traceback" not in err


def test_sigma_bound_hypothesis_exits_2(capsys):
    assert main(["sigma-bound", "x^2+y^3", "--d", "0"]) == 2


def test_budget_error_exits_2(capsys):
    assert main(["sum", "x*y+z*u", "--prime", "13", "--power", "3"]) == 2


def test_modulus_too_large_exits_2(capsys):
    assert main(["sum", "x^2", "--prime", "5", "--power", "14", "--budget", str(10 ** 10)]) == 2
    assert "int64" in capsys.readouterr().err


def test_a_large_prime_reaches_the_budget_check_at_once(capsys):
    # 10^20 + 39 is prime; trial division to its square root would not finish
    start = time.perf_counter()
    assert main(["sum", "x", "-p", "100000000000000000039", "-m", "1"]) == 2
    assert time.perf_counter() - start < 1
    assert "exceed the work budget" in capsys.readouterr().err


@pytest.mark.parametrize("command, stream, line", [
    ("sum", "err", "error: estimated 3^200000000 evaluations exceed the work budget 200000000"),
    ("verify-formula", "out", "m = 100000000: budget-exceeded"),
    ("ratios", "out", "skipped: estimated 3^200000000 evaluations exceed the work budget 200000000"),
])
def test_a_power_far_over_the_budget_exits_2_at_once(capsys, command, stream, line):
    # 3^(2 * 10^8) is never formed: the budget is compared by exponents
    start = time.perf_counter()
    assert main([command, "x*y", "-p", "3", "-m", "100000000"]) == 2
    assert time.perf_counter() - start < 5
    assert line in getattr(capsys.readouterr(), stream)


@pytest.mark.parametrize("count", ["0", "-3", "x"])
def test_workers_must_be_positive(capsys, count):
    assert main(["sum", "x", "-p", "2", "-m", "1", "--workers", count]) == 2
    assert f"argument --workers: '{count}' is not a positive worker count" in capsys.readouterr().err


# a malformed value is refused with the option's rule, not a parser function's name
def test_a_prime_that_is_no_integer_exits_2(capsys):
    assert main(["sum", "x", "-p", "3,x", "-m", "1"]) == 2
    err = capsys.readouterr().err
    assert "argument --prime/-p/--primes: '3,x' is not a comma-separated list of integer primes" in err
    assert "_parse" not in err


@pytest.mark.parametrize("text", ["1..x", "x", "1..2..3"])
def test_a_power_that_is_no_integer_or_range_exits_2(capsys, text):
    assert main(["sum", "x", "-p", "3", "-m", text]) == 2
    err = capsys.readouterr().err
    assert f"argument --power/-m/--powers: '{text}' is not an integer power m or a range lo..hi" in err
    assert "_parse" not in err


# Each of --eps, --budget, --workers and --csv is registered only where it is read.
FLAG_USERS = {
    "--csv": {"verify-formula", "verify-nu", "ratios", "edecay"},
    "--eps": {"verify-formula"},
    "--budget": {"nondeg", "sum", "esum", "verify-formula", "ratios", "edecay"},
    "--workers": {"sum", "esum", "verify-formula", "ratios", "edecay"},
}
SUBCOMMAND_ARGS = {
    "analyze": [],
    "nondeg": ["-p", "3"],
    "sum": ["-p", "3", "-m", "1"],
    "esum": ["-p", "3"],
    "verify-formula": ["-p", "3", "-m", "1"],
    "verify-nu": [],
    "ratios": ["-p", "3", "-m", "1"],
    "edecay": ["-p", "3", "--face", "0"],
    "sigma-bound": ["--d", "0"],
}


@pytest.mark.parametrize("flag", sorted(FLAG_USERS))
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_flags_are_registered_where_they_are_read(flag, command):
    value = {"--eps": ["1e-9"], "--csv": []}.get(flag, ["2"])
    argv = [command, "x*y", *SUBCOMMAND_ARGS[command], flag, *value]
    try:
        _build_parser().parse_args(argv)
        accepted = True
    except SystemExit:
        accepted = False
    assert accepted == (command in FLAG_USERS[flag])


def test_prime_and_power_flags_merge_into_sorted_lists():
    args = _build_parser().parse_args(["nondeg", "x*y", "--primes", "7,3", "-p", "5", "--primes", "3"])
    assert args.primes == [3, 5, 7]
    args = _build_parser().parse_args(["ratios", "x*y", "-p", "3", "--powers", "2..3", "-m", "1", "-m", "2"])
    assert args.primes == [3] and args.powers == [1, 2, 3]
    # every flag of a quantity takes every form of it, wherever it is read
    args = _build_parser().parse_args(["verify-formula", "x*y", "--primes", "5,3", "-m", "1..2"])
    assert args.primes == [3, 5] and args.powers == [1, 2]
    assert _build_parser().parse_args(["sum", "x*y", "-p", "3", "--powers", "2"]).powers == [2]
    assert _build_parser().parse_args(["edecay", "x*y", "--face", "0", "-p", "2,3,5"]).primes == [2, 3, 5]


@pytest.mark.parametrize("flags", [["--primes", ",", "-m", "1"], ["-p", "3", "-m", "1", "--powers", "3..1"]])
def test_an_empty_prime_or_power_list_exits_2(capsys, flags):
    assert main(["ratios", "x*y", *flags]) == 2
    assert "names no value" in capsys.readouterr().err


# sum and esum run one prime (sum also one power), so a second value would
# otherwise be dropped without a word.
def test_sum_refuses_a_second_prime_or_power(capsys):
    assert main(["sum", "x*y", "-p", "5", "-p", "3", "-m", "1", "-m", "2"]) == 2
    assert "sum takes one prime, got 3, 5" in capsys.readouterr().err
    assert main(["sum", "x*y", "-p", "3", "-m", "1", "-m", "2"]) == 2
    assert "sum takes one power, got 1, 2" in capsys.readouterr().err


def test_esum_refuses_a_second_prime(capsys):
    assert main(["esum", "x*y", "-p", "7", "-p", "3"]) == 2
    assert "esum takes one prime, got 3, 7" in capsys.readouterr().err


# verify-formula runs every prime given, in ascending order.
@pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]])
def test_verify_formula_runs_every_prime(capsys, fmt):
    argv = ["verify-formula", "x*y", "-m", "1", "-m", "2", *fmt]
    singles = [run(capsys, *argv, "-p", p) for p in ("3", "5")]
    code, out = run(capsys, *argv, "-p", "5", "-p", "3")
    assert code == 0 and [c for c, _ in singles] == [0, 0]
    if fmt == ["--json"]:
        assert json.loads(out) == [json.loads(single) for _, single in singles]
    elif fmt == ["--csv"]:
        first, second = (single.splitlines() for _, single in singles)
        assert first[0] == second[0] and out.splitlines() == first + second[1:]
    else:
        assert out == "".join(single for _, single in singles)


@pytest.mark.parametrize("verdicts, want", [
    ({3: "pass", 5: "pass"}, 0),
    ({3: "budget-exceeded", 5: "pass"}, 2),
    ({3: "budget-exceeded", 5: "fail"}, 1),
    ({3: "fail", 5: "budget-exceeded"}, 1),
])
def test_verify_formula_exit_code_over_primes(capsys, monkeypatch, verdicts, want):
    real = cli.faceformula.verify_formula

    def forced(f, p, *args, **kwargs):
        return [dataclasses.replace(rep, verdict=verdicts[p]) for rep in real(f, p, *args, **kwargs)]

    monkeypatch.setattr(cli.faceformula, "verify_formula", forced)
    assert main(["verify-formula", "x*y", "-p", "3", "-p", "5", "-m", "1"]) == want


@pytest.mark.parametrize("face", ["4", "-1"])
def test_esum_refuses_an_id_that_names_no_face(capsys, face):
    assert main(["esum", "x*y", "-p", "3", "--face", face]) == 2
    assert f"no face with id {face}" in capsys.readouterr().err


def test_analyze_rejects_eps(capsys):
    assert main(["analyze", "x*y", "--eps", "1e-9"]) == 2


def test_analyze_rejects_csv(capsys):
    # analyze's report is no table, so --csv would print the human report
    assert main(["analyze", "x*y", "--csv"]) == 2


def test_workers_default_follows_cpu_affinity():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("the platform has no CPU affinity")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from padicsums import cli\n"
        "print(cli._PARSER.parse_args(['sum', 'x', '-p', '3', '-m', '1']).workers)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


# One CLI example per subcommand, and the library example, all run.
def test_readme_examples_run(capsys):
    with open(README) as fh:
        text = fh.read()
    examples = [line.split(None, 1)[1] for line in text.splitlines() if line.startswith("    padicsums ")]
    assert len(examples) == len(SUBCOMMAND_ARGS)
    for example in examples:
        assert main(shlex.split(example)) == 0, example
    library = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(library, "README.md", "exec"), {})
    capsys.readouterr()


# -- output plumbing -----------------------------------------------------------------

def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "analyze", "x*y", "--json", "--out", str(target))
    assert code == 0 and out == ""
    got = json.loads(target.read_text())
    assert got["sigma"] == "1/1"


@pytest.mark.parametrize("name", [".", "missing/report.txt"])
def test_an_unwritable_out_path_exits_2_with_one_error_line(tmp_path, capsys, name):
    # "." names the directory itself; "missing/" does not exist
    assert main(["analyze", "x*y", "--out", str(tmp_path / name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_a_reader_that_closes_stdout_early_gets_exit_2_and_one_error_line():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def start(*argv):
        return subprocess.Popen(
            [sys.executable, "-m", "padicsums.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )

    # this report (about 760 KB) fills the pipe, so a write in the handler fails
    large = start("verify-nu", "x*y+z*u", "--T", "30", "--json")
    assert large.stdout.readline() == b"{\n"
    large.stdout.close()
    # this one is still buffered when the handler returns, so the last flush fails
    small = start("sum", "x*y", "-p", "3", "-m", "1")
    small.stdout.close()
    for proc in (large, small):
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_parser_is_built_once(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
    for _ in range(2):
        code, out = run(capsys, "analyze", "x*y", "--json")
        assert code == 0 and json.loads(out)["sigma"] == "1/1"


def test_module_entry_point():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)

    def cli_run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "padicsums.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    proc = cli_run("analyze", "x*y", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kappa"] == 2
    proc = cli_run("analyze", "x*y", "--bogus")
    assert proc.returncode == 2 and proc.stdout == ""
