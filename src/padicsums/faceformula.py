"""Certified evaluation of the face-decomposition identity.

For a prime p and exponent m the right-hand side is

    (1 - 1/p)^n * sum over faces tau of ( A(p,m,tau) + E(p,f_tau) B(p,m,tau) )

where A sums p^{-nu(k)} over the fiber {F(k) = tau, N(k) >= m} and B over
{F(k) = tau, N(k) = m-1}.  A and B are accumulated as exact rationals over
all lattice points with nu(k) <= T; the single truncation certificate

    tail(T) = (1 - 1/p)^{-n} - sum_{s<=T} C(s+n-1, n-1) p^{-s}

bounds the total omitted mass across every face and both sums at once, so
|exact - assembled| <= (1-1/p)^n * tail * (1 + max|E|) plus the float budgets
of the torus sums.  One private pipeline, ``_rhs``, builds the right-hand side
for every requested m: one cone-sum pass, one torus sum per distinct face
restriction with B != 0, one assembly per m.  ``rhs_assembly`` (no
certificate) and ``verify_formula`` (after the mod-p nondegeneracy
certificate) both call it.  The left-hand side for comparison is the
brute-force complete sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BudgetExceeded, WorkBudgetExceeded
from .newton import (
    Face,
    NewtonPolyhedron,
    N_bound,
    build_polyhedron,
    enumerate_faces,
)
from .poly import Polynomial
from .sums import (
    DEFAULT_WORK_BUDGET,
    KERNEL_EPS,
    NondegReport,
    SumValue,
    brute_force_S,
    check_nondegenerate_mod_p,
    torus_E,
)

EpsLike = Union[Fraction, float, int, str]


@dataclass(frozen=True)
class ConeSumResult:
    """Truncated A and B for one face; the truncation level T and the tail
    certificate are shared by every row and returned beside them."""

    face_id: int
    A_partial: Fraction
    B_partial: Fraction


@dataclass(frozen=True)
class FormulaReport:
    p: int
    m: int
    lhs: Optional[SumValue]
    rhs: Optional[SumValue]
    certified_tolerance: Optional[float]
    verdict: str  # pass | fail | not-applicable | budget-exceeded
    nondeg: NondegReport
    truncation_T: Optional[int]
    tail: Optional[Fraction]


# ---------------------------------------------------------------------------
# truncation certificate and cone sums
# ---------------------------------------------------------------------------

def truncation_level(p: int, n: int, eps: EpsLike) -> Tuple[int, Fraction]:
    """Smallest T with tail(T) <= eps, and that exact tail.

    The full mass sum_{k in N^n} p^{-nu(k)} equals (1-1/p)^{-n}; levels
    nu = s carry C(s+n-1, n-1) points of weight p^{-s} each.  With
    q = p - 1 and partial(T) = num / p^T, tail(T) = gap / (q^n p^T) where
    gap = p^(n+T) - q^n num, so each level costs integer operations only.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    qn = (p - 1) ** n
    num = 0
    pT = 1  # p^T
    T = 0
    while True:
        num = num * p + comb(T + n - 1, n - 1)
        gap = p ** n * pT - qn * num
        if gap * eps.denominator <= eps.numerator * qn * pT:
            return T, Fraction(gap, qn * pT)
        T += 1
        pT *= p


def cone_sums_multi(
    P: NewtonPolyhedron,
    p: int,
    ms: Sequence[int],
    eps: EpsLike,
) -> Tuple[Dict[int, List[ConeSumResult]], int, Fraction]:
    """A(p,m,tau) and B(p,m,tau) for every face and every requested m from one
    fold of P's prime-free lattice table, with the truncation level T and its
    exact tail (``truncation_level``): the numerators of ``_cone_numerators``
    over p^T, as Fractions."""
    per_m, T, tail = _cone_numerators(P, p, ms, eps)
    scale = p ** T
    out = {
        m: [ConeSumResult(face_id, Fraction(a, scale), Fraction(b, scale))
            for face_id, (a, b) in enumerate(rows)]
        for m, rows in per_m.items()
    }
    return out, T, tail


def _cone_numerators(
    P: NewtonPolyhedron, p: int, ms: Sequence[int], eps: EpsLike,
) -> Tuple[Dict[int, List[Tuple[int, int]]], int, Fraction]:
    """For each m in ms, the integers (p^T A(p,m,tau), p^T B(p,m,tau)) of every
    face tau, indexed by face id, with T and its tail.

    Which face a lattice point lands on, and its N and nu, do not depend on
    p; only the weight p^(T - nu) and T do.  So the fold runs over the rows
    of P's prime-free table (``NewtonPolyhedron.lattice_table``), one per
    distinct (face id, N, nu) with nu <= T together with its point count,
    and not over the points: at most one row per point, and in practice far
    fewer (7386 rows for the 148,995 points of x*y+z*u at T = 41).  The table
    is built once per P and shared by every prime and every later call.

    N is bucketed against the sorted breakpoints {m - 1, m : m in ms}: bucket
    j >= 1 holds cuts[j-1] <= N < cuts[j] (the last one is unbounded above)
    and bucket 0 holds N below every cut.  One ``np.bincount`` bins the rows'
    counts into int64 counts of shape (face, bucket, nu), so memory grows
    with len(ms), not with max(ms).  Then W[face][bucket] = sum_nu count * p^(T - nu) is
    formed once in Python integers: A(m) is the suffix sum of a face's W
    from m's bucket on, and B(m) the single entry of m - 1's bucket, which
    holds N = m - 1 alone.
    """
    for m in ms:
        if m < 0:
            raise ValueError("m must be >= 0")
    T, tail = truncation_level(p, P.n, eps)
    faces = enumerate_faces(P)
    table = P.lattice_table(T)
    # no point has N above N_bound, so larger cuts bound empty buckets
    bound = N_bound(P, T)
    cuts = sorted({c for m in ms for c in (m - 1, m) if c <= bound})
    edges = np.array(cuts, dtype=table.N.dtype)
    width = len(cuts) + 1
    bucket = np.searchsorted(edges, table.N, side="right")
    index = (table.face_id.astype(np.int64) * width + bucket) * (T + 1) + table.nu
    # float64 bins are exact: each total counts distinct points, at most
    # POINT_CAP < 2^53 of them, so every partial sum is an exact integer
    counts = np.bincount(index, weights=table.count,
                         minlength=len(faces) * width * (T + 1)).astype(np.int64)
    weights = [p ** (T - nu) for nu in range(T + 1)]
    flat = [sum(map(mul, row, weights)) for row in counts.reshape(-1, T + 1).tolist()]
    W = [flat[i:i + width] for i in range(0, len(flat), width)]
    suffix = [list(accumulate(reversed(row)))[::-1] + [0] for row in W]  # sums of W[f][j:]
    bucket_of = {c: j + 1 for j, c in enumerate(cuts)}
    out: Dict[int, List[Tuple[int, int]]] = {}
    for m in ms:
        a_at, b_at = bucket_of.get(m, width), bucket_of.get(m - 1)
        out[m] = [(a[a_at], 0 if b_at is None else w[b_at]) for a, w in zip(suffix, W)]
    return out, T, tail


# ---------------------------------------------------------------------------
# right-hand-side assembly
# ---------------------------------------------------------------------------

def _torus_values(
    faces: Sequence[Face], needed: Iterable[int], p: int, *, workers: int, work_budget: int
) -> Dict[int, SumValue]:
    """E(p, f_tau) for each needed face id, one torus sum per distinct restriction."""
    memo: Dict[Polynomial, SumValue] = {}
    out: Dict[int, SumValue] = {}
    for face_id in sorted(needed):
        restr = faces[face_id].restriction
        if restr not in memo:
            memo[restr] = torus_E(restr, p, workers=workers, work_budget=work_budget)
        out[face_id] = memo[restr]
    return out


def _assemble(
    n: int,
    p: int,
    rows: Sequence[Tuple[int, int]],
    scale: int,
    e_values: Dict[int, SumValue],
    tail: Fraction,
) -> SumValue:
    """The right-hand side at one m from each face's (A, B) numerators over
    ``scale`` = p^T.  b / scale is float(B) exactly: both are correctly rounded."""
    factor = (1 - Fraction(1, p)) ** n
    eb_total = 0j
    e_budget = 0.0
    term_count = len(rows)
    for face_id, (_, b) in enumerate(rows):
        if b:
            ev = e_values[face_id]
            eb_total += b / scale * ev.value
            e_budget += b / scale * ev.abs_error_budget
            term_count += ev.term_count
    ffac = float(factor)
    value = float(factor * Fraction(sum(a for a, _ in rows), scale)) + ffac * eb_total
    # |E| <= 1, so 2 bounds (1 + max|E|) over every omitted fiber point.
    budget = float(factor * tail) * 2.0 + ffac * e_budget + KERNEL_EPS * len(rows)
    return SumValue(value, budget, term_count)


def _rhs(
    P: NewtonPolyhedron, faces: Sequence[Face], p: int, ms: Sequence[int], eps: EpsLike,
    *, workers: int, work_budget: int,
) -> Tuple[Dict[int, SumValue], int, Fraction]:
    """The assembled right-hand side for every m in ms, with the shared
    truncation level T and tail: one cone-sum pass, then one torus sum per
    distinct restriction of a face whose B is nonzero at some m."""
    per_m, T, tail = _cone_numerators(P, p, ms, eps)
    needed = {face_id for rows in per_m.values() for face_id, (_, b) in enumerate(rows) if b}
    e_values = _torus_values(faces, needed, p, workers=workers, work_budget=work_budget)
    scale = p ** T
    return {m: _assemble(P.n, p, per_m[m], scale, e_values, tail) for m in ms}, T, tail


def rhs_assembly(
    f: Polynomial,
    p: int,
    m: int,
    eps: EpsLike,
    *,
    workers: int = 1,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> SumValue:
    """Assembled right-hand side of the face decomposition at (p, m).

    The caller is responsible for having verified (or explicitly waived)
    mod-p nondegeneracy; this function only computes the sum.
    """
    P = build_polyhedron(f)
    rhs, _, _ = _rhs(P, enumerate_faces(P), p, [m], eps, workers=workers, work_budget=work_budget)
    return rhs[m]


# ---------------------------------------------------------------------------
# verification scan
# ---------------------------------------------------------------------------

def verify_formula(
    f: Polynomial,
    p: int,
    m_range: Sequence[int],
    eps: EpsLike = Fraction(1, 10 ** 8),
    *,
    workers: int = 1,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> List[FormulaReport]:
    """Compare brute force against the assembled right-hand side for each m.

    When any face fails the mod-p nondegeneracy certificate the identity is
    not asserted and neither side is computed: every row is "not-applicable"
    (``rhs_assembly`` still gives the right-hand side).  A work-budget overrun
    in the nondegeneracy scan raises WorkBudgetExceeded.  Later overruns are
    recorded without aborting: one in the cone or torus sums marks every row
    "budget-exceeded", one in the brute force marks its own row.
    """
    ms = sorted(set(int(m) for m in m_range))
    if any(m < 1 for m in ms):
        raise ValueError("m values must be >= 1")
    P = build_polyhedron(f)
    faces = enumerate_faces(P)
    nondeg = check_nondegenerate_mod_p(f, faces, p, work_budget=work_budget)

    def report(m, verdict, T=None, tail=None, lhs=None, rhs=None, tol=None) -> FormulaReport:
        return FormulaReport(
            p=p, m=m, lhs=lhs, rhs=rhs, certified_tolerance=tol,
            verdict=verdict, nondeg=nondeg, truncation_T=T, tail=tail,
        )

    if not nondeg.passed:
        return [report(m, "not-applicable") for m in ms]
    try:
        rhs, T, tail = _rhs(P, faces, p, ms, eps, workers=workers, work_budget=work_budget)
    except (BudgetExceeded, WorkBudgetExceeded):
        return [report(m, "budget-exceeded") for m in ms]

    reports: List[FormulaReport] = []
    for m in ms:
        try:
            lhs = brute_force_S(f, p, m, workers=workers, work_budget=work_budget)
        except WorkBudgetExceeded:
            reports.append(report(m, "budget-exceeded", T, tail))
            continue
        tol = lhs.abs_error_budget + rhs[m].abs_error_budget
        verdict = "pass" if abs(lhs.value - rhs[m].value) <= tol else "fail"
        reports.append(report(m, verdict, T, tail, lhs, rhs[m], tol))
    return reports


# ---------------------------------------------------------------------------
# empirical cone-sum growth monitor
# ---------------------------------------------------------------------------

def ab_ratio_monitor(
    P: NewtonPolyhedron,
    p: int,
    m_max: int,
    eps: EpsLike = Fraction(1, 10 ** 8),
) -> List[dict]:
    """Per-face suprema over 1 <= m <= m_max of the normalized cone sums

        A(p,m,tau) p^{m sigma} / m^{kappa-1}   and
        B(p,m,tau) p^{m sigma - sigma(f_tau)} / m^{kappa-1}.

    These are monitored (reported, never asserted): the theory provides an
    eventual constant bound, not a certified value at desk scale.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    sig = P.diagonal
    faces = enumerate_faces(P)
    ms = list(range(1, m_max + 1))
    per_m, _, _ = cone_sums_multi(P, p, ms, eps)
    sup_a = {f.id: 0.0 for f in faces}
    sup_b = {f.id: 0.0 for f in faces}
    sigma = float(sig.sigma)
    for m in ms:
        weight = float(m) ** (sig.kappa - 1)
        for row in per_m[m]:
            face = faces[row.face_id]
            a_ratio = float(row.A_partial) * p ** (m * sigma) / weight
            b_ratio = (
                float(row.B_partial)
                * p ** (m * sigma - float(face.sigma_tau))
                / weight
            )
            sup_a[row.face_id] = max(sup_a[row.face_id], a_ratio)
            sup_b[row.face_id] = max(sup_b[row.face_id], b_ratio)
    return [
        {"face_id": f.id, "sup_A_ratio": sup_a[f.id], "sup_B_ratio": sup_b[f.id]}
        for f in faces
    ]
