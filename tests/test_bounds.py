"""Inequality scans, ratio tables, decay fits, and the sigma-dimension gate."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from padicsums import bounds
from padicsums.bounds import (
    bound_ratio_table,
    check_nu_inequality,
    check_sigma_dim_bound,
    e_decay_fit,
)
from padicsums.errors import HypothesisUnmet, InsufficientPrimes
from padicsums.newton import build_polyhedron, enumerate_faces, f0_face
from padicsums.poly import Polynomial, parse_polynomial
from padicsums.sums import SumValue

from conftest import random_polynomial


# -- the lattice inequality -----------------------------------------------------

def test_nu_inequality_hyperbolic_pair():
    res = check_nu_inequality(parse_polynomial("x*y+z*u"), 8)
    assert res.main_violations == ()
    hits = [r for r in res.halfdim_violations if r.k == (1, 1, 1, 1)]
    assert len(hits) == 1
    rec = hits[0]
    assert rec.nu == 4 and rec.N == 2
    assert rec.rhs_halfdim == 5 and not rec.halfdim_ok
    assert rec.rhs_main == 4 and rec.main_ok  # equality case of the main bound


def test_nu_inequality_curve_no_violations_either_kind():
    # no vertex of F0 lies in {0,1}^2, so even the half-dimension variant holds
    res = check_nu_inequality(parse_polynomial("x^2+y^3"), 20)
    assert res.main_violations == ()
    assert res.halfdim_violations == ()


def test_nu_inequality_cubes_no_violations_either_kind():
    # F0 vertices (3,0,0), (0,3,0), (0,0,3) also avoid {0,1}^3
    res = check_nu_inequality(parse_polynomial("x^3+y^3+z^3"), 20)
    assert res.main_violations == ()
    assert res.halfdim_violations == ()


def test_nu_inequality_curve_spot_value():
    f = parse_polynomial("x^2+y^3")
    P = build_polyhedron(f)
    sig = P.diagonal
    nu, N, key = P.classify((1, 0))
    face = P.face_by_key(key)
    assert (nu, N) == (1, 0)
    assert face.sigma_tau == Fraction(1, 3)  # restriction y^3 in ambient R^2
    assert sig.sigma * (N + 1) - face.sigma_tau == Fraction(1, 2)


def test_nu_inequality_product_equality_case():
    res = check_nu_inequality(parse_polynomial("x*y"), 20)
    assert res.main_violations == ()
    f = parse_polynomial("x*y")
    P = build_polyhedron(f)
    nu, N, key = P.classify((1, 1))
    face = P.face_by_key(key)
    assert P.diagonal.sigma * (N + 1) - face.sigma_tau == 2 == nu


def test_nu_points_checked_count():
    res = check_nu_inequality(parse_polynomial("x*y"), 6)
    assert res.points_checked == 28  # C(8, 2)


# -- diagonal domination ------------------------------------------------------------
#
# The bounds module docstring proves that sum beta_j, over weights beta_j >= 0
# and points R_j of a face tau with sum beta_j R_j <= t* componentwise, has
# the exact supremum sigma(f_tau)/sigma <= 1.  The linear program below
# computes that supremum from the face's vertices and axes alone, without
# the library's sigma(f_tau) (``Face.sigma_tau``).

def test_sampler_hand_instance_hyperbolic_pair():
    # single point R = (1,1,0,0) on F0, beta = 1/2: hypothesis holds with
    # equality in the first two coordinates, and 1/2 <= sigma_tau/sigma = 1
    P = build_polyhedron(parse_polynomial("x*y+z*u"))
    sig = P.diagonal
    f0 = f0_face(P)
    beta = Fraction(1, 2)
    assert all(beta * r <= sig.t_star for r in (1, 1, 0, 0))
    assert beta <= 1 and beta <= f0.sigma_tau / sig.sigma


def test_diagonal_domination_boundary_instance_curve_vertex():
    # R = (2,0): beta <= t*/2 = 3/5 and sigma_tau/sigma = (1/2)/(5/6) = 3/5
    P = build_polyhedron(parse_polynomial("x^2+y^3"))
    sig = P.diagonal
    vertex_face = P.face_by_key(P.classify((1, 2))[2])  # minimizes at (2,0)
    assert set(vertex_face.vertex_ids) == {
        i for i, v in enumerate(P.vertices) if v == (2, 0)
    }
    assert vertex_face.sigma_tau / sig.sigma == Fraction(3, 5)
    assert sig.t_star / 2 == Fraction(3, 5)


def test_diagonal_domination_supremum_matches_linear_program(corpus):
    # maximize sum mu subject to V_tau mu + sum_a r_a e_a <= t* 1, mu, r >= 0:
    # mu_v collects the weight beta_j puts on vertex v, r_a on recession axis a
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(1414)
    polys = corpus + [random_polynomial(rng, max_terms=8, max_exp=4) for _ in range(10)]
    checked = 0
    for f in polys:
        P = build_polyhedron(f)
        sigma, t_star = P.diagonal.sigma, P.diagonal.t_star
        for face in enumerate_faces(P):
            columns = [P.vertices[i] for i in face.vertex_ids]
            columns += [tuple(int(i == a) for i in range(P.n)) for a in face.recession_axes]
            cost = [-1.0] * len(face.vertex_ids) + [0.0] * len(face.recession_axes)
            res = linprog(
                cost, A_ub=np.array(columns, dtype=float).T,
                b_ub=[float(t_star)] * P.n, bounds=(0, None), method="highs",
            )
            assert res.status == 0, (f, face.id, res.message)
            assert abs(-res.fun - float(face.sigma_tau / sigma)) < 1e-9, (f, face.id)
            assert face.sigma_tau <= sigma
            checked += 1
    assert checked == 380


# -- ratio table ------------------------------------------------------------------

def test_ratio_table_product_polynomial():
    table = bound_ratio_table(parse_polynomial("x*y"), [3, 5, 7], [1, 2, 3, 4])
    assert table.hypothesis_met and table.sigma == 1 and table.kappa == 2
    for cell in table.rows:
        assert abs(cell.ratio_main - 1 / cell.m) < 1e-9
    assert abs(table.estimated_c - 1.0) < 1e-9


def test_ratio_table_linear_polynomial_is_zero():
    table = bound_ratio_table(parse_polynomial("x"), [3, 5], [1, 2, 3])
    assert all(cell.ratio_main < 1e-9 for cell in table.rows)


def test_ratio_table_flags_hypothesis():
    table = bound_ratio_table(parse_polynomial("x^2+y^3"), [5], [1])
    assert not table.hypothesis_met


def test_ratio_table_records_budget_errors_and_continues():
    table = bound_ratio_table(
        parse_polynomial("x*y"), [3], [1, 2, 9], work_budget=10 ** 4
    )
    assert [c.m for c in table.rows] == [1, 2]
    assert len(table.errors) == 1 and table.errors[0][1] == 9


# -- decay fit --------------------------------------------------------------------

def test_edecay_hyperbolic_pair_exact():
    f = parse_polynomial("x*y+z*u")
    P = build_polyhedron(f)
    fit = e_decay_fit(f, f0_face(P).id, [3, 5, 7, 11, 13])
    assert abs(fit.fitted_exponent + 2) < 1e-9
    assert fit.sigma_tau == 2 and fit.ds_exponent == Fraction(-1)
    for row in fit.rows:
        assert row.status == "used"
        assert abs(row.abs_E - (row.p - 1) ** -2) < 1e-12


def test_edecay_invariant_both_section8_examples_primes_to_31():
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    f1 = parse_polynomial("x*y+z*u")
    fit1 = e_decay_fit(f1, f0_face(build_polyhedron(f1)).id, primes)
    assert abs(fit1.fitted_exponent - (-2)) < 0.15
    f2 = parse_polynomial("x*y+z*u+x*z+2*y*u")
    fit2 = e_decay_fit(f2, f0_face(build_polyhedron(f2)).id, primes)
    assert abs(fit2.fitted_exponent - (-2)) < 0.15
    assert fit2.ds_exponent == Fraction(-3, 2)


def test_edecay_single_variable_pair():
    fit = e_decay_fit(parse_polynomial("x*y"), 0, [3, 5, 7])
    assert abs(fit.fitted_exponent + 1) < 1e-9
    assert fit.sigma_tau == 1


def test_edecay_drops_degenerate_primes():
    f = parse_polynomial("x*y+z*u+x*z+2*y*u")
    P = build_polyhedron(f)
    # the 2yu vertex face is degenerate at p = 2 and fits only good primes
    faces = enumerate_faces(P)
    yu_faces = [fc for fc in faces if fc.restriction.terms == {(0, 1, 0, 1): 2}]
    assert yu_faces
    fit = e_decay_fit(f, yu_faces[0].id, [2, 3, 5, 7, 11])
    by_p = {r.p: r.status for r in fit.rows}
    assert by_p[2] == "dropped-degenerate"
    assert all(v == "used" for p, v in by_p.items() if p != 2)


def test_edecay_marks_primes_over_the_work_budget():
    # the one-face nondegeneracy scan of F0 covers (p - 1)^4 torus points
    f = parse_polynomial("x*y+z*u")
    fit = e_decay_fit(f, f0_face(build_polyhedron(f)).id, [3, 5, 7, 11, 13], work_budget=5000)
    assert [(r.p, r.status) for r in fit.rows] == [
        (3, "used"), (5, "used"), (7, "used"), (11, "budget-exceeded"), (13, "budget-exceeded"),
    ]
    assert all(r.abs_E != r.abs_E for r in fit.rows[3:])  # NaN: no |E| was computed
    assert abs(fit.fitted_exponent + 2) < 1e-9


def test_edecay_drops_a_torus_sum_below_its_noise_floor(monkeypatch):
    # no face restriction of a small polynomial at a small prime has a torus
    # sum that vanishes, so the noise branch needs a sum made to vanish
    real = bounds.torus_E

    def vanishing_at_7(f_tau, p, **kwargs):
        ev = real(f_tau, p, **kwargs)
        return SumValue(0j, ev.abs_error_budget, ev.term_count) if p == 7 else ev

    monkeypatch.setattr(bounds, "torus_E", vanishing_at_7)
    f = parse_polynomial("x*y+z*u")
    fit = e_decay_fit(f, f0_face(build_polyhedron(f)).id, [3, 5, 7, 11, 13])
    assert {r.p: r.status for r in fit.rows}[7] == "dropped-noise"
    assert [r.status for r in fit.rows].count("used") == 4
    assert abs(fit.fitted_exponent + 2) < 1e-9


@pytest.mark.parametrize("face_id", [4, -1])
def test_edecay_rejects_ids_that_name_no_face(face_id):
    # x*y has faces 0..3
    with pytest.raises(ValueError, match=f"no face with id {face_id}"):
        e_decay_fit(parse_polynomial("x*y"), face_id, [3, 5, 7])


def test_edecay_insufficient_primes():
    with pytest.raises(InsufficientPrimes):
        e_decay_fit(parse_polynomial("x*y"), 0, [3, 5])


# -- sigma-dimension gate -----------------------------------------------------------

def test_sigma_dim_bound_cases():
    def check(text, d):
        return check_sigma_dim_bound(build_polyhedron(parse_polynomial(text)), d)

    assert check("x*y+z*u", 0) is True
    assert check("x*y", 0) is True
    assert check("x*y", 1) is False
    with pytest.raises(HypothesisUnmet):
        check("x^2+y^3", 0)
    with pytest.raises(HypothesisUnmet):
        check("x", 0)
    # the critical locus has dimension 0..n-1
    for d in (-1, 2):
        with pytest.raises(ValueError, match=r"d must lie in 0\.\.1"):
            check("x*y", d)


# -- scalar invariance ----------------------------------------------------------------

def test_scaling_leaves_polyhedral_data_unchanged(corpus):
    for f in corpus:
        scaled = Polynomial(f.n, {e: 7 * c for e, c in f.terms.items()})
        P1, P2 = build_polyhedron(f), build_polyhedron(scaled)
        assert P1.vertices == P2.vertices and P1.facets == P2.facets
        assert P1.diagonal.sigma == P2.diagonal.sigma
        assert P1.diagonal.kappa == P2.diagonal.kappa
        faces1, faces2 = enumerate_faces(P1), enumerate_faces(P2)
        assert [fc.key for fc in faces1] == [fc.key for fc in faces2]
        assert [fc.sigma_tau for fc in faces1] == [fc.sigma_tau for fc in faces2]
        r1 = check_nu_inequality(f, 8)
        r2 = check_nu_inequality(scaled, 8)
        assert [r.k for r in r1.halfdim_violations] == [r.k for r in r2.halfdim_violations]
        assert r1.main_violations == () == r2.main_violations
