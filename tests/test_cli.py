"""CLI behaviour: subcommands, exit codes, report formats, golden files."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys

import pytest

from padicsums import cli
from padicsums.cli import _build_parser, main
from padicsums.poly import parse_polynomial
from padicsums.sums import KERNEL_EPS, _exp_sum_over_grid

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_json_equal(got, want, path="$"):
    """Structural equality; floats compare with a 1e-9 absolute tolerance."""
    if isinstance(want, float):
        assert isinstance(got, (int, float)), path
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-9), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            assert_json_equal(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
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
    code, out = run(capsys, "analyze", "x*y+z*u", "--json")
    assert code == 0
    got = json.loads(out)
    # F0 has dimension 1 for this polynomial
    f0 = got["faces"][got["f0_face_id"]]
    assert f0["dim"] == 1 and got["sigma"] == "2/1" and got["kappa"] == 3
    with open(os.path.join(GOLDEN_DIR, "analyze_xyzu.json")) as fh:
        want = json.load(fh)
    assert_json_equal(got, want)


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
    # x^3 mod 5^11 is above the histogram cap, so the split visits 5^6
    # points instead of 5^11, and the report still counts the whole grid.
    # S_{x^3}(5^11) = 5^-4: cubing permutes the units mod 5^m, whose sum
    # vanishes, and x = 5y turns the rest into 5^2 S_{x^3}(5^(m-3)).
    code, out = run(capsys, "sum", "x^3", "-p", "5", "-m", "11", "--json")
    assert code == 0
    got = json.loads(out)
    assert got["term_count"] == 5 ** 11
    assert got["abs_error_budget"] == KERNEL_EPS * got["term_count"]
    assert abs(complex(got["value"]["re"], got["value"]["im"]) - 5 ** -4) <= got["abs_error_budget"]


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
    with open(os.path.join(GOLDEN_DIR, "verify_formula_xy_p3.json")) as fh:
        want = json.load(fh)
    assert_json_equal(json.loads(out), want)


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


def test_verify_nu_json_schema(capsys):
    code, out = run(capsys, "verify-nu", "x*y", "--T", "6", "--json")
    got = json.loads(out)
    assert code == 0 and got["points_checked"] == 28
    assert got["main_violations"] == []
    assert all("/" in rec["rhs_halfdim"] for rec in got["halfdim_violations"])


# -- tables ---------------------------------------------------------------------------

def test_ratios_csv(capsys):
    code, out = run(
        capsys, "ratios", "x*y", "--primes", "3,5", "--powers", "1..2", "--csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,m,abs_S,ratio_main,ratio_coarse"
    assert len(lines) == 5


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


def test_unknown_flag_exits_2(capsys):
    assert main(["analyze", "x*y", "--bogus"]) == 2


def test_missing_required_exits_2(capsys):
    assert main(["sum", "x*y", "--power", "1"]) == 2
    assert main(["edecay", "x*y", "--primes", "3,5,7"]) == 2


@pytest.mark.parametrize("eps", ["abc", "nan", "inf"])
def test_bad_eps_exits_2(capsys, eps):
    assert main(["verify-formula", "x*y", "-p", "3", "-m", "1", "--eps", eps]) == 2
    assert f"bad eps '{eps}': not a finite decimal number" in capsys.readouterr().err


def test_sigma_bound_hypothesis_exits_2(capsys):
    assert main(["sigma-bound", "x^2+y^3", "--d", "0"]) == 2


def test_budget_error_exits_2(capsys):
    assert main(["sum", "x*y+z*u", "--prime", "13", "--power", "3"]) == 2


def test_modulus_too_large_exits_2(capsys):
    assert main(["sum", "x^2", "--prime", "5", "--power", "14", "--budget", str(10 ** 10)]) == 2
    assert "int64" in capsys.readouterr().err


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


def test_readme_examples_parse():
    with open(README) as fh:
        examples = [line.split(None, 1)[1] for line in fh if line.startswith("    padicsums ")]
    assert len(examples) == len(SUBCOMMAND_ARGS)
    for example in examples:
        _build_parser().parse_args(shlex.split(example))


# -- output plumbing -----------------------------------------------------------------

def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "analyze", "x*y", "--json", "--out", str(target))
    assert code == 0 and out == ""
    got = json.loads(target.read_text())
    assert got["sigma"] == "1/1"


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
