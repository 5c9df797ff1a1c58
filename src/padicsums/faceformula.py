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
for every requested m: one cone-sum pass (its integer fold in int64 chunks
under a checked bound, ``_fold``), one torus sum per distinct face
restriction with B != 0 (in closed form where the face's monomial map is
onto, ``sums._closed_torus_E``), one assembly of every m.  It does not check
nondegeneracy; ``verify_formula`` calls it only after the mod-p
nondegeneracy certificate passes.  The left-hand side is the complete sum
S_f(p^m) of every requested m from one residue histogram per distinct block
of f (``sums._complete_sums``), each value bit-identical to
``brute_force_S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count
from math import comb
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
    _budget_exponent,
    _closed_torus_E,
    _complete_sums,
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
    with len(ms), not with max(ms).  Then W[face][bucket] =
    sum_nu count * p^(T - nu) is formed once for every row by int64 matrix
    products over chunks of the nu axis, under a bound checked first, and
    the chunks are combined in Python integers (``_fold``): A(m) is the
    suffix sum of a face's W from m's bucket on, and B(m) the single entry
    of m - 1's bucket, which holds N = m - 1 alone.
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
    flat = _fold(counts.reshape(-1, T + 1), p)
    W = [flat[i:i + width] for i in range(0, len(flat), width)]
    suffix = [list(accumulate(reversed(row)))[::-1] + [0] for row in W]  # sums of W[f][j:]
    bucket_of = {c: j + 1 for j, c in enumerate(cuts)}
    out: Dict[int, List[Tuple[int, int]]] = {}
    for m in ms:
        a_at, b_at = bucket_of.get(m, width), bucket_of.get(m - 1)
        out[m] = [(a[a_at], 0 if b_at is None else w[b_at]) for a, w in zip(suffix, W)]
    return out, T, tail


def _fold(counts: np.ndarray, p: int) -> List[int]:
    """sum_nu counts[r, nu] p^(T - nu) for every row r of an int64 matrix of
    T + 1 columns, exactly.

    The columns are taken in chunks of s, s <= T + 1 the largest length
    with total p^(s-1) < 2^63, total = counts.sum(): a row's chunk sum
    sum_nu counts[r, nu] p^(hi-1-nu) over nu in [lo, hi) is at most
    total p^(s-1) < 2^63, so every partial sum of its int64 matrix product
    is exact; s is chosen by that bound before any product, and the weights
    are built as int64, which refuses any weight at or above 2^63.  The
    chunk values are then combined in Python integers, most significant
    first."""
    T = counts.shape[1] - 1
    total = int(counts.sum())
    s = next(s for s in count(1) if s > T or total * p ** s >= 1 << 63)
    flat: List[int] = []
    for lo in range(0, T + 1, s):
        hi = min(lo + s, T + 1)
        weights = np.array([p ** (hi - 1 - nu) for nu in range(lo, hi)], dtype=np.int64)
        chunk = (counts[:, lo:hi] @ weights).tolist()
        shift = p ** (hi - lo)
        flat = [w * shift + c for w, c in zip(flat, chunk)] if flat else chunk
    return flat


# ---------------------------------------------------------------------------
# right-hand-side assembly
# ---------------------------------------------------------------------------

def _torus_values(
    faces: Sequence[Face], needed: Iterable[int], p: int, *, workers: int, work_budget: int
) -> Dict[int, SumValue]:
    """E(p, f_tau) for each needed face id, one torus sum per distinct
    restriction: its closed form (``sums._closed_torus_E``) where that
    applies, else ``torus_E``.  The work budget is checked first either way,
    so the same inputs raise the same errors.  A closed-form E carries only
    its rounding bound, 2^-52 |float(E)|: Fraction to float is one correctly
    rounded int/int division, and |E| >= (p-1)^-n >= 1/work_budget is a
    normal float for any budget below 2^1022."""
    memo: Dict[Polynomial, SumValue] = {}
    out: Dict[int, SumValue] = {}
    for face_id in sorted(needed):
        restr = faces[face_id].restriction
        if restr not in memo:
            total = (p - 1) ** restr.n
            if total > work_budget:
                raise WorkBudgetExceeded(total, work_budget)
            exact = _closed_torus_E(restr, p)
            if exact is None:
                memo[restr] = torus_E(restr, p, workers=workers, work_budget=work_budget)
            else:
                value = float(exact)
                memo[restr] = SumValue(complex(value), 2 ** -52 * abs(value), total)
        out[face_id] = memo[restr]
    return out


def _assemble(
    n: int,
    p: int,
    per_m: Dict[int, List[Tuple[int, int]]],
    scale: int,
    e_values: Dict[int, SumValue],
    tail: Fraction,
) -> Dict[int, SumValue]:
    """The right-hand side at every m of ``per_m`` from each face's (A, B)
    numerators over ``scale`` = p^T; ``verify_formula`` assembles only the m
    whose complete sum is within the work budget.  The factor (1-1/p)^n, its
    float and the truncation term are formed once for all m, and the faces
    are summed in id order at each m.  An int / int quotient is correctly
    rounded, like Fraction to float: b / scale is float(B), and the A term
    is float((1-1/p)^n A).  Each E term adds B times E's own budget:
    KERNEL_EPS per torus point from ``torus_E``, only the rounding bound of
    a closed form (``_torus_values``).  The budget is the sum of three
    terms: truncation, E budgets and rounding."""
    qn, pn = (p - 1) ** n, p ** n
    ffac = qn / pn
    # |E| <= 1, so 2 bounds (1 + max|E|) over every omitted fiber point.
    truncation = qn * tail.numerator / (pn * tail.denominator) * 2.0
    out: Dict[int, SumValue] = {}
    for m, rows in per_m.items():
        eb_total = 0j
        e_budget = 0.0
        term_count = len(rows)
        for face_id, (_, b) in enumerate(rows):
            if b:
                ev = e_values[face_id]
                eb_total += b / scale * ev.value
                e_budget += b / scale * ev.abs_error_budget
                term_count += ev.term_count
        value = qn * sum(a for a, _ in rows) / (pn * scale) + ffac * eb_total
        out[m] = SumValue(value, truncation + ffac * e_budget + KERNEL_EPS * len(rows), term_count)
    return out


def _rhs(
    P: NewtonPolyhedron, faces: Sequence[Face], p: int, ms: Sequence[int], eps: EpsLike,
    *, workers: int, work_budget: int,
) -> Tuple[Dict[int, SumValue], int, Fraction]:
    """The assembled right-hand side for every m in ms, with the shared
    truncation level T and tail: one cone-sum pass, then one torus sum per
    distinct restriction of a face whose B is nonzero at some m, then one
    assembly."""
    per_m, T, tail = _cone_numerators(P, p, ms, eps)
    needed = {face_id for rows in per_m.values() for face_id, (_, b) in enumerate(rows) if b}
    e_values = _torus_values(faces, needed, p, workers=workers, work_budget=work_budget)
    return _assemble(P.n, p, per_m, p ** T, e_values, tail), T, tail


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
    """Compare the complete sum S_f(p^m) against the assembled right-hand
    side for each m.

    The complete sums of every m come from one residue histogram per
    distinct block of f, built at the largest m within the budget and folded
    to the smaller ones (``sums._complete_sums``); each equals
    ``brute_force_S(f, p, m)`` bit for bit.  When any face fails the mod-p
    nondegeneracy certificate the identity is not asserted and neither side
    is computed: every row is "not-applicable".  A work-budget overrun in
    the nondegeneracy scan raises WorkBudgetExceeded.  Later overruns are
    recorded without aborting: one in the cone or torus sums (a lattice
    table over its point cap, or a torus over the work budget) marks every
    row "budget-exceeded", a complete sum over the budget marks its own row.
    The right side is assembled only for the m whose grid p^(mn) is within
    the budget, by the rule of ``sums._complete_sums``; a row over it keeps
    T and the tail.  eps must be positive, also where no row needs a
    truncation level (ValueError before any check runs).
    """
    if Fraction(eps) <= 0:
        raise ValueError("eps must be positive")
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
    k_max = _budget_exponent(p, work_budget)
    try:
        rhs, T, tail = _rhs(P, faces, p, [m for m in ms if m * f.n <= k_max], eps,
                            workers=workers, work_budget=work_budget)
    except (BudgetExceeded, WorkBudgetExceeded):
        return [report(m, "budget-exceeded") for m in ms]

    reports: List[FormulaReport] = []
    lhs_values = _complete_sums(f, p, ms, workers=workers, work_budget=work_budget)
    for m in ms:
        lhs = lhs_values[m]
        if isinstance(lhs, WorkBudgetExceeded):
            reports.append(report(m, "budget-exceeded", T, tail))
            continue
        tol = lhs.abs_error_budget + rhs[m].abs_error_budget
        verdict = "pass" if abs(lhs.value - rhs[m].value) <= tol else "fail"
        reports.append(report(m, verdict, T, tail, lhs, rhs[m], tol))
    return reports
