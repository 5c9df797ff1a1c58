"""Inequality verification and empirical decay tables.

Everything polyhedral is checked with exact rationals: the lattice lower
bound nu(k) >= sigma (N(k)+1) - sigma(f_tau) is a hard assertion over every
enumerated point, while the classical variant that subtracts
(dim tau + 1)/2 instead is only a findings generator (it is known to fail
without an extra vertex hypothesis).  Decay exponents of the torus sums are
fitted empirically and reported next to the two theoretical predictions.

The lattice scan is decided on rows, not points.  For a point k with
nu(k) <= T, classified onto the face tau with N(k) = min over the vertices
of k . v, both inequalities read nu >= sigma (N + 1) - c_tau, with c_tau =
sigma(f_tau) or (dim tau + 1)/2: each side is a function of (face id, N, nu)
alone.  So a row of ``NewtonPolyhedron.lattice_table(T)`` (one distinct
triple and its point count) has one verdict, and it is the verdict of each
of its points; the points checked number the sum of the counts.  Findings
are single points, and none is classified a second time to list them: the
polyhedron, which keeps each point's row next to its table, returns the
points of the failing rows (``NewtonPolyhedron._row_points``), in the order
a scan of every point would give.  They are kept as parallel numpy columns.
The map of right-hand sides per failing (face id, N) and the
``NuCheckRecord``s are built from the columns only when first read: the map
when ``rhs`` is, the records when a violation tuple is.

The diagonal-domination inequality needs no check of its own, because the
polyhedron decides it exactly.  Lemma: let tau be a face of Gamma_f, with
vertex set V_tau and recession axes e_a, so tau = conv(V_tau) + cone(e_a).
Let sigma = 1/t* be the diagonal invariant.  If R_1, ..., R_r lie in tau,
beta_j >= 0 and sum_j beta_j R_j <= (t*, ..., t*) componentwise, then

    sum_j beta_j <= sigma(f_tau) / sigma <= 1,

and the supremum sigma(f_tau)/sigma is attained.  Proof: put
s = sum_j beta_j; if s > 0, then x = sum_j beta_j R_j / s lies in tau, and
the hypothesis reads s * max_i x_i <= t*.  Adding a multiple of some e_a
lowers no coordinate, so the minimum of max_i x_i over tau is its minimum
over conv(V_tau), which is 1/sigma(f_tau) (``Face.sigma_tau``, solved
once per vertex set in the face pass); it is positive, since 0 is not in
Gamma_f.  Hence s <= t* sigma(f_tau) = sigma(f_tau)/sigma, with equality for
one point R at that minimizer and beta = t* / max_i R_i.  Finally, tau lies
in Gamma_f, so the minimum over conv(V_tau) is at least t*, which is
sigma(f_tau) <= sigma.  On any face the exact supremum is therefore
``face.sigma_tau / P.diagonal.sigma``; ``analyze`` reports both parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import HypothesisUnmet, InsufficientPrimes, WorkBudgetExceeded
from .newton import (
    INT64_SAFE,
    N_bound,
    NewtonPolyhedron,
    build_polyhedron,
    enumerate_faces,
)
from .poly import ExponentVector, Polynomial, homogeneity
from .sums import (
    DEFAULT_WORK_BUDGET,
    _complete_sums,
    check_nondegenerate_mod_p,
    torus_E,
)


# ---------------------------------------------------------------------------
# lattice inequality scan
# ---------------------------------------------------------------------------

class NuCheckRecord(NamedTuple):
    k: ExponentVector
    face_id: int
    nu: int
    N: int
    rhs_main: Fraction       # sigma (N+1) - sigma(f_tau)
    rhs_halfdim: Fraction    # sigma (N+1) - (dim tau + 1)/2
    main_ok: bool
    halfdim_ok: bool


@dataclass(frozen=True, eq=False)
class NuCheckFindings:
    """The failing points in scan order as parallel columns: k (F x n, int64),
    face_id and nu (int64), N (object when ``N_bound(P, T)`` reaches
    INT64_SAFE, else int64), main_ok and halfdim_ok (bool); and ``rhs``, each
    failing (face id, N) mapped to its (rhs_main, rhs_halfdim), built when
    first read from the columns and the scaled integers the check compared:
    D, sigma D and, by face id, sigma(f_tau) D and (dim tau + 1) D / 2.  It
    keeps no polyhedron, so live findings do not pin P and its lattice."""

    T: int
    points_checked: int
    k: np.ndarray
    face_id: np.ndarray
    nu: np.ndarray
    N: np.ndarray
    main_ok: np.ndarray
    halfdim_ok: np.ndarray
    _scaled: Tuple[int, int, List[int], List[int]] = field(repr=False)

    @cached_property
    def rhs(self) -> Dict[Tuple[int, int], Tuple[Fraction, Fraction]]:
        D, sigma_D, main_D, half_D = self._scaled
        return {
            (face_id, N): tuple(Fraction(sigma_D * (N + 1) - c[face_id], D) for c in (main_D, half_D))
            for face_id, N in set(zip(self.face_id.tolist(), self.N.tolist()))
        }

    def failing(self, ok: np.ndarray) -> Iterator[tuple]:
        """(k as a list, face id, nu, N, main ok, halfdim ok) in Python values
        for each point whose verdict column ``ok`` is False, in scan order."""
        cols = (self.k, self.face_id, self.nu, self.N, self.main_ok, self.halfdim_ok)
        return zip(*(col[~ok].tolist() for col in cols))

    def _records(self, ok: np.ndarray) -> Tuple[NuCheckRecord, ...]:
        return tuple(NuCheckRecord._make((tuple(k), face_id, nu, N, *self.rhs[face_id, N], m_ok, h_ok))
                     for k, face_id, nu, N, m_ok, h_ok in self.failing(ok))

    # the records, built from the columns when first read
    main_violations = cached_property(lambda self: self._records(self.main_ok))  # a hard assertion
    halfdim_violations = cached_property(lambda self: self._records(self.halfdim_ok))  # findings


def check_nu_inequality(f: Polynomial, T: int) -> NuCheckFindings:
    """Evaluate both lattice lower bounds for every k with nu(k) <= T.

    Both sides of both inequalities depend on k only through (face id, N,
    nu), so they are decided on the rows of ``P.lattice_table(T)``: a row's
    verdict is the verdict of each of its points (module docstring).  The
    failing points are not classified again: the polyhedron returns the k and
    the row of each point of a failing row, in lexicographic order (the
    scan's order), and the findings' other columns are read at those rows.

    Exact throughout: both inequalities are scaled by D, the lcm of 2 and the
    denominators of sigma and of every sigma(f_tau), and compared in integers
    (int64 when every scaled side provably stays below 2^62, Python integers
    otherwise).  The per-face data (sigma(f_tau), dim tau) comes from the
    enumerated face lattice.  The lattice table's checks run first, so
    ValueError, BudgetExceeded and KeyError fire as the point scan's would.
    """
    P = build_polyhedron(f)
    table = P.lattice_table(T)
    faces = enumerate_faces(P)
    sigma = P.diagonal.sigma
    D = math.lcm(2, sigma.denominator, *(face.sigma_tau.denominator for face in faces))
    sigma_D = int(sigma * D)
    main_D = [int(face.sigma_tau * D) for face in faces]
    half_D = [(face.dim + 1) * D // 2 for face in faces]
    # nu D <= T D and 0 <= sigma D (N + 1) <= sigma D (N_bound + 1) on every
    # point; the offsets subtracted from the right side are nonnegative.
    bound = T * D + sigma_D * (N_bound(P, T) + 1) + max(main_D + half_D)
    dtype = np.int64 if bound < INT64_SAFE else object
    lhs = table.nu.astype(dtype) * D
    base = (table.N.astype(dtype) + 1) * sigma_D
    main_ok = lhs >= base - np.array(main_D, dtype=dtype)[table.face_id]
    half_ok = lhs >= base - np.array(half_D, dtype=dtype)[table.face_id]
    k, row = P._row_points(T, ~(main_ok & half_ok))
    return NuCheckFindings(
        T, int(table.count.sum()), k, table.face_id[row].astype(np.int64),
        table.nu[row].astype(np.int64), table.N[row], main_ok[row], half_ok[row],
        (D, sigma_D, main_D, half_D),
    )


# ---------------------------------------------------------------------------
# main-bound ratio table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioCell:
    p: int
    m: int
    abs_S: float
    ratio_main: float   # |S| p^{sigma m} / m^{kappa-1}
    ratio_coarse: float  # |S| p^{sigma m} / m^{n-1}


@dataclass
class RatioTable:
    sigma: Fraction
    kappa: int
    hypothesis_met: bool
    rows: List[RatioCell] = field(default_factory=list)
    errors: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def estimated_c(self) -> float:
        return max((r.ratio_main for r in self.rows), default=0.0)


def bound_ratio_table(
    f: Polynomial,
    primes: Sequence[int],
    m_range: Sequence[int],
    *,
    workers: int = 1,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> RatioTable:
    """|S_f(p^m)| with the two normalizations of the decay bound.

    The sums of every m at one prime come from one residue histogram per
    block of f (``sums._complete_sums``), each bit-identical to
    ``brute_force_S(f, p, m)``.  The main bound presumes a homogeneous f;
    non-homogeneous input still produces the table but is flagged
    hypothesis_met=False.  Budget errors are recorded per cell and the scan
    continues.  No ratio is asserted: the bounding constant is existential.
    """
    sig = build_polyhedron(f).diagonal
    table = RatioTable(
        sigma=sig.sigma,
        kappa=sig.kappa,
        hypothesis_met=homogeneity(f) is not None,
    )
    sigma = float(sig.sigma)
    ms = sorted(set(m_range))
    for p in sorted(set(primes)):
        complete = _complete_sums(f, p, ms, workers=workers, work_budget=work_budget)
        for m in ms:
            s = complete[m]
            if isinstance(s, WorkBudgetExceeded):
                table.errors.append((p, m, str(s)))
                continue
            abs_s = abs(s.value)
            growth = p ** (sigma * m)
            table.rows.append(RatioCell(
                p=p,
                m=m,
                abs_S=abs_s,
                ratio_main=abs_s * growth / m ** (sig.kappa - 1),
                ratio_coarse=abs_s * growth / m ** (f.n - 1),
            ))
    return table


# ---------------------------------------------------------------------------
# torus-sum decay fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EDecayRow:
    p: int
    abs_E: float
    status: str  # used | dropped-noise | dropped-degenerate | budget-exceeded


@dataclass(frozen=True)
class EDecayFit:
    face_id: int
    fitted_exponent: float
    sigma_tau: Fraction
    ds_exponent: Fraction  # -(dim tau + 1)/2
    rows: Tuple[EDecayRow, ...]


def e_decay_fit(
    f: Polynomial,
    face_id: int,
    primes: Sequence[int],
    *,
    workers: int = 1,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> EDecayFit:
    """Least-squares decay exponent of |E(p, f_tau)| across primes.

    Fits the unit-constant power law |E| = (p-1)^e, i.e. least squares of
    log|E| on log(p-1) through the origin.  The per-variable torus size p-1
    is the natural scale of these normalized sums and recovers the exponent
    exactly on closed-form cases at desk primes; per-prime rows are reported
    so callers can refit under other conventions.  Primes failing the face's
    mod-p nondegeneracy check are dropped, as are primes whose |E| sits below
    10x the kernel error budget; fewer than three survivors raise
    InsufficientPrimes.
    """
    P = build_polyhedron(f)
    tau = P.face_by_id(face_id)

    rows: List[EDecayRow] = []
    xs: List[float] = []
    ys: List[float] = []
    for p in sorted(set(primes)):
        try:
            nd = check_nondegenerate_mod_p(f, [tau], p, work_budget=work_budget)
            if not nd.passed:
                rows.append(EDecayRow(p=p, abs_E=float("nan"), status="dropped-degenerate"))
                continue
            ev = torus_E(tau.restriction, p, workers=workers, work_budget=work_budget)
        except WorkBudgetExceeded:
            rows.append(EDecayRow(p=p, abs_E=float("nan"), status="budget-exceeded"))
            continue
        abs_e = abs(ev.value)
        if abs_e < 10 * ev.abs_error_budget:
            rows.append(EDecayRow(p=p, abs_E=abs_e, status="dropped-noise"))
            continue
        rows.append(EDecayRow(p=p, abs_E=abs_e, status="used"))
        xs.append(math.log(p - 1))
        ys.append(math.log(abs_e))
    if len(xs) < 3:
        raise InsufficientPrimes(
            f"{len(xs)} usable primes (need >= 3): {[r.status for r in rows]}"
        )
    slope = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
    return EDecayFit(
        face_id=face_id,
        fitted_exponent=slope,
        sigma_tau=tau.sigma_tau,
        ds_exponent=-Fraction(tau.dim + 1, 2),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# critical-locus dimension consistency gate
# ---------------------------------------------------------------------------

def check_sigma_dim_bound(P: NewtonPolyhedron, d: int) -> bool:
    """Whether sigma(f) <= (n - d)/2 for f = P.source and the user-asserted
    dimension d of the critical locus.  The artifact never computes d; a
    False result flags an inconsistent d or a failed hypothesis and is
    reported as a finding.  The critical locus of a homogeneous f of degree
    >= 2 is a proper subvariety, so a d outside 0..n-1 is a ValueError."""
    deg = homogeneity(P.source)
    if deg is None or deg < 2:
        raise HypothesisUnmet("f must be homogeneous of degree >= 2")
    if not 0 <= d < P.n:
        raise ValueError(f"d must lie in 0..{P.n - 1} for n = {P.n}, got {d}")
    return P.diagonal.sigma <= Fraction(P.n - d, 2)
