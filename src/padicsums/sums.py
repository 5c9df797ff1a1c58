"""Exponential sum kernels and mod-p nondegeneracy scans.

S and E are computed as products over variable-disjoint blocks: when no
term links two sets of variables, the normalized sum is the product of the
blocks' sums (a variable in no term contributes 1, the constant term
e(c/p^m)), so the work is the sum of the block grids, not their product,
and blocks with the same terms on their own axes are summed once.

A complete sum (domain the complete residue system [0, M), M = p^m) shrinks
each block's grid further by one of two exact reductions, both checked
against their hypotheses first, and both need the block's whole grid M^n
below 2^63.  k summed-out variables leave each visited point standing for
M^k grid points, its fiber.

Linear variables are summed out when M is small enough to histogram.  If
y_1..y_k each have exponent exactly 1 in every term that contains them and
no term contains two of them (after reducing the coefficients mod M), the
block is h(x) + sum_j y_j g_j(x), and orthogonality of additive characters,
sum_{y mod M} e(y g/M) = M [g = 0 mod M], gives the y sum exactly: at x, the
values h(x) + sum_j y_j g_j(x) run over h(x) + d(x) Z/M, each hit
M^(k-1) d(x) times, d(x) = gcd(g_1(x), ..., g_k(x), M).  So the residue
histogram of the whole block grid is rebuilt from the M^(n-k) points x
alone, and summed the same way, so the value is bit-identical to the plain
grid's.

Igusa's stationary-phase tree (Igusa 1978; Denef and Sperber 2001;
_critical_tree) is taken when M is too large to histogram and m >= 2.  Let
g be an integer polynomial on n axes, S_g(p^k) its unnormalized sum over
z mod p^k (S_g(p^0) = 1) and k >= 2.  Write z = b + p w, b in [0, p)^n,
w mod p^(k-1).  Taylor's formula has integer (Hasse) coefficients, so with
w = w' + p^(k-2) u, u in [0, p)^n,
g(z) = g(b + p w') + p^(k-1) u . grad g(b + p w') mod p^k (2(k-1) >= k),
and the u sum is p^n or 0 as grad g(b + p w') = grad g(b) mod p vanishes or
not: only the critical b count.  At a critical b, g(b + p w) = g(b) +
p^2 g_b(w) with g_b integral, and w mod p^(k-1) runs over p^n copies of the
residues mod p^(k-2), so S_g(p^k) = p^n sum_{b critical} e(g(b)/p^k)
S_{g_b}(p^(k-2)).  Applied to f and repeated, the classes A mod p^j left at
depth j are those with grad f(A) = 0 mod p^j, with
g_A(z) = (f(A + p^j z) - f(A))/p^(2j), whose gradient is
grad f(A + p^j z)/p^j: a digit b extends A exactly when
grad f(A + p^j b) = 0 mod p^(j+1), and
S_f(p^m) = p^(nj) sum_A e(f(A)/p^m) S_{g_A}(p^(m-2j)).  The tree stops at
depth j = floor(m/2): the sum is p^(nj) sum_A e(f(A)/p^m) when m is even,
and p^(nj) sum_A sum_{z in [0, p)^n} e(f(A + p^j z)/p^m) when m is odd; an
empty level makes it exactly 0.  Where p^n is 2 to 4, a step takes several
levels at once.  The tree visits at most 3 p^(n ceil(m/2)) points: x^3 mod
5^11 visits 310 instead of 5^11, and c x with p not dividing c visits p.
Histogram mode keeps its grids.

Every complete sum takes one path, _complete_sums; brute_force_S is its
one-m case.  The histogrammed m of one (f, p) come from one histogram per
distinct block, built at the largest m, t (_block_product; Igusa 1978; Denef
and Sperber 2001).  For m <= t, each x mod p^m has p^(n_b (t - m)) lifts mod p^t
on a block of n_b axes, all with f(lift) = f(x) mod p^m, so hist_m[r] =
p^(-n_b (t - m)) sum_{r' = r mod p^m} hist_t[r']: a column sum and an exact
integer division, and a histogram rebuilt over summed-out variables is the
whole grid's, so it folds too.  The folded histogram is the one built at m,
so the value at m is the same bit for bit whether m is summed alone or
folded from t.  A coefficient vanishing mod p^m but not mod p^t can split a
block, so an m whose support differs is summed on its own, and so is an m in
exp mode or with a grid of at most two points.

A torus sum (domain [1, p), m = 1, p histogrammed) shrinks a block g to the
rank of its support (Denef and Hoornaert 2001).  Let a_0 < a_1 < ... be the
exponents of g, with coefficients c_j, and let the a_j - a_0 have rank
r < n.  An integer row reduction (Cohen, "A Course in Computational
Algebraic Number Theory", 2.4) gives a unimodular W with W (a_j - a_0) in
Z^r x 0, so W a_j = (e_j, b) with one tail b for every j, and one more
column of it takes b to (beta, 0, ..., 0), beta = gcd(b) (_support_lattice,
the one record of a support's lattice data, which the nondegeneracy scan,
the certificates and the closed form below read too).  The substitution
x_i = prod_k y_k^W_ki gives x^a = y^(W a), and it is a bijection of
(F_p^x)^n, since F_p^x is cyclic and det W = +-1.  So
g(x) = y_(r+1)^beta h(y'), where h = sum_j c_j y'^e_j is a Laurent
polynomial in the first r coordinates y', evaluated with its exponents mod
p - 1.  For each y', y_(r+1) -> y_(r+1)^beta is a homomorphism onto the
subgroup H of F_p^x of index gcd(beta, p - 1) (H = {1} when beta = 0), so
h(y') = s != 0 hits every element of the coset s H exactly
(p-1)^(n-r)/|H| times, and s = 0 stays at 0.  The residue histogram of the
whole torus is thus rebuilt exactly from the (p-1)^r points y' (from none
when r = 0, a single term), and summed like the plain grid's, so the value
is bit-identical.  The restriction f_tau to a proper face tau has
r <= dim tau < n, since its support lies in tau.  A block with r = n (such
as x + x^2), a complete sum with m = 1 above the histogram cap and a torus
sum above it keep the plain grid.

Each block grid is exact integers until the last step: f is evaluated
modulo p^m on int64 blocks (per-variable power tables, innermost axes
vectorized), with the terms grouped by their monomial in the outer axes so
each outer point costs one multiply-add per distinct outer monomial; the
residues are histogrammed, and the sum is assembled once as
counts . roots-of-unity.  When the modulus is too large to histogram, blocks
(and the tree's passes) are reduced with complex exponentials and merged by
one correctly rounded sum (math.fsum) of their real parts and one of their
imaginary parts, so results do not depend on the block order or the worker
count.  Every value carries a certified absolute error budget of KERNEL_EPS
per point of the whole grid, which also covers the block product (see
_block_product).  Moduli whose residue products could wrap int64 are refused
with ModulusTooLarge before any work starts.

_residues_at is the package's one evaluator of polynomials mod M, on
per-axis arrays that broadcast together.  _grid_residues walks product
grids with it, one call per inner block for every polynomial, and the
sum kernels and the mod-p nondegeneracy scan both run on that walk; the
stationary-phase tree evaluates the rows of its point lists with it.  The
scan first decides whether a face restriction g has a critical point on the
torus at all, on (F_p^x)^r: under the substitution above the toric gradient
(x_i dg/dx_i)_i is W^-1 times (y_(r+1)^beta theta_i h for i <= r,
beta y_(r+1)^beta h for i = r + 1, 0 beyond), theta_i = y'_i d/dy'_i, and W
is invertible mod p, so g has one exactly when theta_i h(y') = 0 for i <= r
and beta h(y') = 0 at some y'.  theta_i h multiplies each c_j by the
integer e_j,i mod p.  Only when it has one is the whole torus (F_p^x)^n
walked in its task order, which is lexicographic, up to the first task
holding a critical point: the witness.

Before any scan, a face restriction may be cleared by a prime-free
certificate (_certificate; Gelfand, Kapranov and Zelevinsky, "Discriminants,
Resultants, and Multidimensional Determinants", 1994, ch. 9; Denef and
Sperber 2001): an integer E such that g has no critical point on
(F_p^x)^n at any p not dividing E.  Let g = sum_j c_j x^a_j have r terms,
A the n x r matrix with columns a_j, k = r - rank A, and d the product of
A's nonzero Smith invariants, the gcd of its rank-size minors, so that A
has the same rank mod p exactly when p does not divide d (rank A, d and the
lambda below are read from _support_lattice).  A critical point
x gives A y = 0 mod p with y_j = c_j x^a_j, and every y_j != 0 when p does
not divide prod_j c_j.
- k = 0: A has full column rank mod p, so y = 0, which is impossible.
  E = d prod_j c_j.
- k = 1: the kernel of A mod p is spanned by the primitive integer relation
  lambda (sum_j lambda_j a_j = 0), which stays nonzero mod p, so y = t
  lambda.  If some lambda_j = 0 that forces y_j = 0: E is as for k = 0.
  Otherwise, at p not dividing prod_j lambda_j, x^a_j = t lambda_j / c_j,
  and prod_j (x^a_j)^lambda_j = x^0 = 1 gives
  t^(sum lambda) prod_j (lambda_j / c_j)^lambda_j = 1.  When the support lies
  in a hyperplane <w, a> = N != 0, as a proper face restriction's does,
  sum_j lambda_j N = <w, sum_j lambda_j a_j> = 0, so sum lambda = 0 and t
  drops out: a critical point needs prod_j (lambda_j / c_j)^lambda_j = 1 mod
  p, i.e. p divides the circuit discriminant
  Delta = prod_{lambda_j>0} lambda_j^lambda_j prod_{lambda_j<0} c_j^-lambda_j
          - (-1)^(sum_{lambda_j<0} lambda_j) prod_{lambda_j<0} (-lambda_j)^-lambda_j
            prod_{lambda_j>0} c_j^lambda_j.
  With Delta != 0, E = d prod_j c_j prod_j lambda_j Delta.  Delta = 0, as
  for (x + y)^2, gives no certificate, and neither does a Delta too large
  to form (_DISCRIMINANT_BITS).
- sum lambda != 0 gives no certificate: t^(sum lambda) = const then has a
  solution t for a positive share of primes, whatever const is (every p
  with gcd(sum lambda, p - 1) = 1), so no finite set of primes can hold
  the degenerate ones.  x + x^2 (lambda = (2, -1)) is critical at
  x = -1/2 at every odd p.
- k >= 2: no certificate (that needs resultants); the scan stays.
The conditions above are necessary for a critical point, not sufficient:
the monomial map x -> (x^a_j)_j need not reach every t lambda / c when the
torsion of Z^n / <a_j> meets p - 1.  So a certificate is sound but not
complete: it may exclude a prime at which g passes.  The scan then decides.

When that map is onto, a torus sum needs no grid (Denef and Sperber 2001;
_closed_torus_E).  Let the r exponents a_j be linearly independent, so
A = U D V with U, V unimodular and D = diag(d_1..d_r) above n - r zero rows,
d = d_1 ... d_r (_support_lattice).  phi: x -> (x^a_j)_j, (F_p^x)^n ->
(F_p^x)^r, is a homomorphism: the bijections x -> x^U and y -> y^V around
(y_i) -> (y_i^d_i)_{i <= r}.  In the cyclic F_p^x, y -> y^d_i has image of
index gcd(d_i, p - 1), so phi's image has index prod_i gcd(d_i, p - 1), and
phi hits each point of it |ker phi| times: equal fibers.  So when
gcd(d, p - 1) = 1, phi is onto with fibers of (p-1)^(n-r) points, and
E(p, g) = (p-1)^-r prod_j sum_{y != 0} e(c_j y / p) = (-1/(p-1))^r when p
divides no c_j, each inner sum being -1.  Every other torus sum keeps the
grid.
"""

from __future__ import annotations

import cmath
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, count, islice, product
from math import fsum, gcd, prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ModulusTooLarge, WorkBudgetExceeded
from .newton import Face, _row_reduce
from .poly import ExponentVector, Polynomial, gradient
from .store import kept_table

#: Declared per-term float budget; the histogram path is far more accurate,
#: the budget is a uniform upper bound across both paths.
KERNEL_EPS = 1e-15

DEFAULT_WORK_BUDGET = 200_000_000

_HIST_CAP = 1 << 22   # largest modulus we histogram (bincount array size)
_INNER_CAP = 1 << 20  # target elements per vectorized block
_TREE_PASS = 1 << 16  # target points per pass of the stationary-phase tree
_TREE_DIGITS = 16     # most digits a tree step extends each class by, if over one level
_COUNT_BITS = 1 << 12  # longest grid count a work-budget message prints in full


@dataclass(frozen=True)
class SumValue:
    """A complex sum value with a certified absolute error budget."""

    value: complex
    abs_error_budget: float
    term_count: int


#: The primes to 41: trial divisors (one gcd) deciding p < 43^2 alone, and Miller-Rabin
#: bases exact below _MR_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017), psi_13).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMORIAL = prod(_SMALL_PRIMES)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _require_prime(p: int) -> None:
    """ValueError unless p is prime.  A p from _MR_LIMIT on is refused too:
    the bases no longer decide it, and no kernel takes it (p (p-1) >= 2^63)."""
    if p in _SMALL_PRIMES:
        return
    if p >= _MR_LIMIT:
        raise ValueError(f"{p} is too large to certify as prime (limit {_MR_LIMIT})")
    if p < 2 or gcd(p, _PRIMORIAL) != 1 or (
            p >= 43 * 43 and any(_mr_witness(a, p) for a in _SMALL_PRIMES)):
        raise ValueError(f"{p} is not prime")


def _mr_witness(a: int, p: int) -> bool:
    """Whether a proves the odd p > a composite: with p - 1 = 2^s d, d odd,
    x = a^d is not 1 and none of x, x^2, ..., x^(2^(s-1)) is -1 mod p."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    x = pow(a, (p - 1) >> s, p)
    return x != 1 and p - 1 not in accumulate(range(s - 1), lambda y, _: y * y % p, initial=x)


# ---------------------------------------------------------------------------
# blocked grid kernel
# ---------------------------------------------------------------------------

def _require_int64_residues(modulus: int) -> None:
    """Residues r, s < modulus combine as r + s * t in int64 without wrapping
    exactly when modulus * (modulus - 1) < 2^63."""
    if modulus * (modulus - 1) >= 1 << 63:
        raise ModulusTooLarge(
            f"modulus {modulus} is too large for int64 residue arithmetic"
            " (products of residues would exceed 2^63)"
        )


def _pow_mod_array(values: np.ndarray, e: int, modulus: int) -> np.ndarray:
    """values^e mod modulus elementwise, by squaring from the lowest set bit
    of e: e = 1 is one reduction, and no square follows the top bit."""
    if not e:
        return np.full_like(values, 1 % modulus)
    b = values % modulus
    while not e & 1:
        b = (b * b) % modulus
        e >>= 1
    out = b
    e >>= 1
    while e:
        b = (b * b) % modulus
        if e & 1:
            out = (out * b) % modulus
        e >>= 1
    return out


def _split_axes(sizes: Sequence[int]) -> Tuple[int, int, int, int]:
    """(first inner axis, segment count, segment size, task count) for the
    block plan.

    Inner axes are the longest suffix whose grid fits _INNER_CAP; when even
    the last axis alone is too large (only reachable for n = 1 moduli), that
    axis is processed in segments instead.  A grid with no axes is one task.
    """
    n = len(sizes)
    if not n:
        return 0, 1, 1, 1
    start = n
    elems = 1
    while start > 0 and elems * sizes[start - 1] <= _INNER_CAP:
        elems *= sizes[start - 1]
        start -= 1
    if start == n:  # last axis alone exceeds the cap
        segments = -(-sizes[-1] // _INNER_CAP)
        return n - 1, segments, _INNER_CAP, prod(sizes[:-1]) * segments
    return start, 1, sizes[-1], prod(sizes[:start])


#: One polynomial for the kernel: (coefficient mod modulus, exponents) pairs
#: in ascending exponent order; possibly empty (the zero polynomial).
Terms = Tuple[Tuple[int, ExponentVector], ...]


def _reduced_terms(terms: Dict[ExponentVector, int], modulus: int) -> Terms:
    return tuple((coef % modulus, exps) for exps, coef in sorted(terms.items()))


@kept_table
def _valuations(p: int, m: int) -> np.ndarray:
    """val[r] = v_p(r) capped at m, for r = 0..p^m-1 (val[0] = m)."""
    val = np.zeros(p ** m, dtype=np.int8)
    for v in range(1, m + 1):
        val[::p ** v] += 1
    return val


@kept_table
def _roots(modulus: int) -> np.ndarray:
    """e(r/modulus) for r = 0..modulus-1."""
    return np.exp(2j * np.pi * np.arange(modulus) / modulus)


def _grid_residues(polys: Sequence[Terms], modulus: int, domains: Sequence[Tuple[int, int]],
                   lo: int, hi: int) -> Iterator[Tuple[Tuple[int, ...], Iterator[np.ndarray]]]:
    """Yield (origin, residues of each polynomial mod modulus) for the tasks
    lo..hi-1 of the grid's _split_axes layout, in lexicographic order.  One
    task is one outer-coordinate assignment (times one segment of the last
    axis when segmented), and origin is its first grid point; each residue
    array spans the task's inner block, on the grid's last axes.  A task's
    residues are computed one polynomial at a time as they are consumed, so
    a caller may stop early.

    Terms are grouped by their outer exponent exps[:inner_start]; with its
    coefficients, each group is a polynomial on the inner axes.  One
    _residues_at call evaluates every polynomial's groups on the inner
    block, sharing its power tables, again only when the segment changes
    (every task only when outer axes stand beside a segmented one, which
    takes 2^40 points): each group value is a residue array broadcast along
    the inner axes its terms use, or a Python int when the group is constant
    on the block (the constant term's group among them).  A task then does
    one multiply-add per distinct outer monomial, not one per term, under
    the overflow policy below.
    """
    inner_start, segments, seg_size, _ = _split_axes([stop - start for start, stop in domains])
    groups: List[Dict[ExponentVector, List[Tuple[int, ExponentVector]]]] = [{} for _ in polys]
    for terms, grouped in zip(polys, groups):
        for coef, exps in terms:
            grouped.setdefault(exps[:inner_start], []).append((coef, exps[inner_start:]))

    def build_plans(seg: int):
        """(shape, plans) for one segment's inner block: per polynomial, its
        [(outer exponent, group values)]."""
        bounds = list(domains[inner_start:])
        if segments > 1:
            start = bounds[-1][0] + seg * seg_size
            bounds[-1] = (start, min(bounds[-1][1], start + seg_size))
        # each axis's coordinates on an axis of their own, broadcasting to the block
        axes = [np.arange(start, stop, dtype=np.int64).reshape((-1,) + (1,) * (len(bounds) - pos - 1))
                for pos, (start, stop) in enumerate(bounds)]
        shape = tuple(stop - start for start, stop in bounds)
        values = _residues_at([group for grouped in groups for group in grouped.values()], axes, modulus)
        return shape, [[(outer, next(values)) for outer in grouped] for grouped in groups]

    # Overflow policy: a task adds one product of two residues, at most
    # (modulus - 1)^2, per distinct outer monomial (the constant term's
    # among them); accumulate raw products and reduce once if that stays < 2^63.
    safe_raw = [len(grouped) * (modulus - 1) ** 2 < 1 << 63 for grouped in groups]

    def residues(shape: Tuple[int, ...], point: List[int], plan, raw: bool) -> np.ndarray:
        acc = np.zeros(shape, dtype=np.int64)
        for outer, values in plan:
            # the outer monomial at the task's point; outer is () when every axis is inner
            scalar = prod(pow(x, e, modulus) for x, e in zip(point, outer) if e) % modulus if outer else 1
            if raw:
                acc += values if scalar == 1 else scalar * values
            else:
                acc = (acc + scalar * values) % modulus
        if raw and inner_start:  # with no outer axis a polynomial is one group, reduced already
            acc %= modulus
        return acc

    tasks = product(*(range(start, stop) for start, stop in domains[:inner_start]), range(segments))
    plans_seg = None  # the segment whose plans are built; built again when it changes
    for *point, seg in islice(tasks, lo, hi):
        if seg != plans_seg:
            (shape, plans), plans_seg = build_plans(seg), seg
        origin = [*point, *(start for start, _ in domains[inner_start:])]
        if segments > 1:
            origin[-1] += seg * seg_size
        yield tuple(origin), map(partial(residues, shape, point), plans, safe_raw)


def _residues_at(polys: Sequence[Terms], axes: Sequence[np.ndarray],
                 modulus: int) -> Iterator[Union[int, np.ndarray]]:
    """Yield each polynomial mod modulus at the points of per-axis arrays
    that broadcast together: the package's one evaluator of polynomials mod
    M.  The stationary-phase tree passes the rows of its n x K point array,
    _grid_residues its inner block's aranges, each on an axis of its own.
    A polynomial's residues are broadcast only along the axes its terms use:
    a constant (a lone constant term, or the zero polynomial, which gives 0)
    is a Python int.  The powers of each axis are computed once per call.
    Coefficients are reduced mod modulus first: the tree's are residues mod
    p^m, evaluated mod p^(j+k) at its levels.

    Overflow: every product is of two residues below modulus, and each sum
    of t of them is below t * modulus; under the _require_int64_residues
    check that every caller makes first (modulus (modulus - 1) < 2^63, so
    modulus < 2^31.5), both stay below 2^63 for any t < 2^31.  A lone
    term's residues are reduced as they are built, and not again.
    """
    powers: Dict[Tuple[int, int], np.ndarray] = {}
    for terms in polys:
        acc = 0
        for coef, exps in terms:
            value = coef % modulus
            mono = None
            for axis, e in enumerate(exps):
                if e:
                    if (axis, e) not in powers:
                        powers[axis, e] = _pow_mod_array(axes[axis], e, modulus)
                    mono = powers[axis, e] if mono is None else mono * powers[axis, e] % modulus
            if mono is not None:
                value = mono if value == 1 else value * mono % modulus
            acc = value if len(terms) == 1 else acc + value
        yield acc if len(terms) == 1 else acc % modulus


def _grid_worker(polys: Sequence[Terms], p: int, m: int, domains: Sequence[Tuple[int, int]],
                 hist: bool, span: Tuple[int, int]) -> Union[np.ndarray, List[complex]]:
    """Reduce the contiguous span (lo, hi) of tasks of _grid_residues modulo
    p^m: in histogram mode to the span's residue histogram mod p^m (see
    _grid_sum), in exp mode to each task's complex value, in task order.

    The first polynomial is h, the rest are g_1..g_k.  With k = 0 the
    histogram is indexed by the residue of h.  With k >= 1 the span is first
    tallied into one table per divisor p^v of p^m, v = 0..m, concatenated so
    that p^v's table follows those of p^0..p^(v-1) and starts at
    (p^v - 1)/(p - 1): it is indexed by h mod p^v at the points where
    gcd(g_1, ..., g_k, p^m) = p^v, so v is the least p-adic valuation of the
    g_j(x), capped at m (one lookup per g_j in the table val[r] = v_p(r),
    val[0] = m).  The count at s of p^v's table then goes, times
    p^(m(k-1)) p^v (the fiber p^(mk) of the summed-out variables, over
    p^m), to every residue r = s mod p^v.  Exp mode has k = 0.
    """
    modulus = p ** m
    tasks = _grid_residues(polys, modulus, domains, *span)
    if not hist:
        return [_exp_value(h, modulus) for _, (h,) in tasks]
    length = modulus
    if len(polys) > 1:
        divisors = p ** np.arange(m + 1, dtype=np.int64)
        offsets = (divisors - 1) // (p - 1)
        val = _valuations(p, m)
        length += int(offsets[-1])
    counts = np.zeros(length, dtype=np.int64)
    for _, (h, *gs) in tasks:
        if gs:
            v = val[gs[0]]
            for g in gs[1:]:
                v = np.minimum(v, val[g])
            h = offsets[v] + h % divisors[v]
        counts += np.bincount(np.ravel(h), minlength=len(counts))
    if len(polys) == 1:
        return counts
    tables, counts = counts, np.zeros(modulus, dtype=np.int64)
    for v in range(m + 1):
        d = p ** v
        part = tables[offsets[v]:offsets[v] + d]
        if part.any():
            view = counts.reshape(-1, d)
            view += modulus ** (len(polys) - 2) * d * part
    return counts


def _exp_sum_over_grid(
    f: Polynomial,
    modulus: int,
    domains: Sequence[Tuple[int, int]],
    workers: int,
) -> complex:
    """Unnormalized sum of exp(2 pi i f(x)/modulus) over every point of the
    product grid: the oracle of every reduction in _block_sum."""
    total = _grid_sum(_reduced_terms(f.terms, modulus), (), modulus, 1, domains, workers)
    return _hist_value(total, modulus) if modulus <= _HIST_CAP else total


def _grid_sum(h: Terms, gs: Sequence[Terms], p: int, m: int, domains: Sequence[Tuple[int, int]],
              workers: int) -> Union[np.ndarray, complex]:
    """Unnormalized sum of e((h(x) + z_1 g_1(x) + ... + z_k g_k(x))/p^m)
    over x in the product grid and z in [0, p^m)^k: its residue histogram
    when p^m is at most _HIST_CAP (histogram mode), its complex value above
    (exp mode).

    With k = 0 this is the plain grid sum, and any modulus may be passed as
    (modulus, 1); exp mode always has k = 0.  With k >= 1 (the summed-out
    linear variables of _block_sum, in histogram mode) each x stands for
    the fiber of p^(mk) points z.  At a point x, z -> sum_j z_j g_j(x) is a
    homomorphism onto d Z/p^m, d = gcd(g_1(x), ..., g_k(x), p^m), that hits
    each element p^(mk) d / p^m times, so the residue histogram of the whole
    grid is counts[r] = sum_x p^(m(k-1)) d(x) [r = h(x) mod d(x)], the plain
    grid's; each worker returns its span's, and they are added.

    The grid's tasks (_split_axes) are reduced by _grid_worker in contiguous
    spans over up to ``workers`` processes.  The per-task exp values are
    merged by one correctly rounded sum (math.fsum) of their real parts and
    one of their imaginary parts, so the value does not depend on the order
    of the tasks or on how they are spread over workers.
    """
    modulus = p ** m
    _require_int64_residues(modulus)
    hist = modulus <= _HIST_CAP
    task_count = _split_axes([stop - start for start, stop in domains])[3]
    spans = _split_range(task_count, max(1, workers))
    work = partial(_grid_worker, (h, *gs), p, m, tuple(domains), hist)
    if len(spans) == 1:
        results = [work(spans[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            results = list(pool.map(work, spans))
    if hist:
        return sum(results)
    return _fsum_complex([v for span_values in results for v in span_values])


def _hist_value(counts: np.ndarray, modulus: int) -> complex:
    """sum_r counts[r] e(r/modulus): the one value path of histogram mode."""
    return complex(np.sum(counts * _roots(modulus)))


def _exp_value(residues: np.ndarray, modulus: int) -> complex:
    """sum_x e(residues[x]/modulus) in floats: the one value path of exp mode."""
    phases = residues * (2.0 * np.pi / modulus)
    return complex(np.sum(np.cos(phases)) + 1j * np.sum(np.sin(phases)))


def _fsum_complex(values: Sequence[complex]) -> complex:
    """The sum of values as one correctly rounded sum (math.fsum) of their
    real parts and one of their imaginary parts, so it does not depend on
    their order."""
    return complex(fsum(v.real for v in values), fsum(v.imag for v in values))


def _split_range(total: int, pieces: int) -> List[Tuple[int, int]]:
    """total tasks as min(pieces, total) contiguous spans (one when either is
    0) whose sizes differ by at most one."""
    k = min(pieces, total) or 1
    return [(total * i // k, total * (i + 1) // k) for i in range(k)]


def _linear_axes(exponents: Sequence[ExponentVector], n: int) -> List[int]:
    """Axes to sum out: each has exponent 1 in every term that contains it,
    and no term contains two of them.  Among the axes of degree 1, those with
    the fewest degree-1 partners in a shared term are taken first."""
    linear = [i for i in range(n) if all(exps[i] <= 1 for exps in exponents)]
    partners = {
        i: {j for exps in exponents if exps[i] for j in linear if j != i and exps[j]}
        for i in linear
    }
    chosen: List[int] = []
    for i in sorted(linear, key=lambda i: (len(partners[i]), i)):
        if not partners[i].intersection(chosen):
            chosen.append(i)
    return sorted(chosen)


@lru_cache(maxsize=1 << 12)
def _support_lattice(
    support: Tuple[ExponentVector, ...],
) -> Tuple[int, Tuple[ExponentVector, ...], int, int, int, Optional[Tuple[int, ...]]]:
    """(r, (e_j), beta, rank A, d, lambda) for sorted exponent vectors
    a_0 < a_1 < ..., A the matrix with columns a_j: every p-free lattice
    datum of a support that the torus sums, the scan, the certificates and
    the closed form read, memoized by the support.

    r is the rank of the a_j - a_0, and a unimodular W brings every W a_j to
    (e_j, b), with e_j in Z^r and one tail b for all j; beta = gcd(b), and
    W can be taken with b = (beta, 0, ..., 0).  d > 0 is the product of A's
    nonzero Smith invariants, and lambda the primitive integer relation
    (A lambda = 0) when A's kernel has rank 1, else None.

    Two integer row reductions (Euclid on the rows below the pivot, so every
    step is unimodular) give it all.  The first brings [D | a_0], D with
    columns a_j - a_0, to [W D | W a_0] over D's columns, which gives r and
    W a_j = W (a_j - a_0) + W a_0; then over one column more, which takes
    the tail to (+-beta, 0, ..., 0) and leaves the echelon rows R of
    M = [D | a_0] = A C, rank A = r + [beta != 0] of them.  C is
    unimodular: column j of it is e_(j+1) - e_0 for a difference and e_0
    for a_0.  The second brings [R^T | I] to [H | U], H triangular above
    zero rows and U unimodular, so d, the gcd of the rank-size minors of
    R^T (and of A), is |det H|, and with a kernel of rank 1 the row u of U
    below the rank has M u = 0, so lambda = C u, in the a_j basis.
    """
    n, k, a0 = len(support[0]), len(support) - 1, support[0]
    # [D | a_0]: row i holds coordinate i of every a_j - a_0, then of a_0
    rows = [[a[i] - a0[i] for a in support[1:]] + [a0[i]] for i in range(n)]
    r = _row_reduce(rows, k)
    exps = tuple(tuple(row[k] + (row[j - 1] if j else 0) for row in rows[:r]) for j in range(k + 1))
    rank = _row_reduce(rows, k + 1)
    beta = abs(rows[r][k]) if rank > r else 0
    # [R^T | I]: row j holds column j of the echelon rows, then row j of I
    cols = [[rows[i][j] for i in range(rank)] + [int(j == l) for l in range(k + 1)]
            for j in range(k + 1)]
    _row_reduce(cols, rank)
    u = cols[rank][rank:] if rank == k else None
    lam = None if u is None else (u[k] - sum(u[:k]), *u[:k])
    return r, exps, beta, rank, abs(prod(cols[i][i] for i in range(rank))), lam


def _laurent_terms(coefs: Sequence[int], exps: Sequence[ExponentVector], p: int) -> Terms:
    """sum_j coefs[j] y^exps[j] as a function on (F_p^x)^r: exponents are
    reduced mod p - 1 (y^(p-1) = 1 there), equal monomials merged and terms
    vanishing mod p dropped."""
    merged: Dict[ExponentVector, int] = {}
    for c, e in zip(coefs, exps):
        key = tuple(x % (p - 1) for x in e)
        merged[key] = merged.get(key, 0) + c
    return _reduced_terms({e: c for e, c in merged.items() if c % p}, p)


def _toric_counts(block_terms: Dict[ExponentVector, int], p: int, workers: int) -> np.ndarray:
    """The residue histogram mod p of a block g on the torus (F_p^x)^{n_b},
    from (p-1)^r points, r the rank of its support's differences (see
    _support_lattice); its coefficients are nonzero mod p.

    Under the substitution of the module docstring g = y_(r+1)^beta h(y'),
    so the residue histogram of g on the whole torus is that of h on
    (F_p^x)^r, with 0 scaled by fiber = (p-1)^(n_b-r) and every s != 0
    spread evenly over its coset s H, H = {t : t^|H| = 1},
    |H| = (p-1)/gcd(beta, p-1).  A single term (r = 0) has h constant, and
    visits no grid.
    """
    support = tuple(sorted(block_terms))
    r, exps, beta = _support_lattice(support)[:3]
    fiber = (p - 1) ** (len(support[0]) - r)
    order = (p - 1) // gcd(p - 1, beta)  # |H|, a divisor of fiber (1 when r = n_b)
    key = _pow_mod_array(np.arange(1, p, dtype=np.int64), order, p)  # the same on each coset
    counts = np.zeros(p, dtype=np.int64)
    if not r:  # g = c x^a, c != 0 mod p: the whole torus lands on c H
        counts[1:] = (key == pow(block_terms[support[0]], order, p)) * (fiber // order)
        return counts
    h = _laurent_terms([block_terms[a] for a in support], exps, p)
    hist = _grid_sum(h, (), p, 1, [(1, p)] * r, workers)
    per_coset = np.zeros(p, dtype=np.int64)
    np.add.at(per_coset, key, hist[1:])
    counts[0] = hist[0] * fiber
    counts[1:] = per_coset[key] * (fiber // order)
    return counts


def _blocks(f: Polynomial, modulus: int) -> Tuple[int, List[Tuple[int, Dict[ExponentVector, int]]]]:
    """f mod modulus as its constant term and, per variable-disjoint block,
    (n_b, its terms over its own n_b axes); vanishing terms are dropped."""
    terms = {e: c % modulus for e, c in f.terms.items() if c % modulus}
    const = terms.pop((0,) * f.n, 0)
    blocks: List[frozenset] = []
    for exps in terms:
        axes = frozenset(i for i, e in enumerate(exps) if e)
        linked = [b for b in blocks if b & axes]
        blocks = [b for b in blocks if not b & axes] + [axes.union(*linked)]
    return const, [(len(b), {tuple(exps[a] for a in sorted(b)): c
                             for exps, c in terms.items() if any(exps[a] for a in b)})
                   for b in blocks]


def _block_sum(
    block_terms: Dict[ExponentVector, int], n_b: int, p: int, m: int,
    domain: Tuple[int, int], workers: int,
) -> Union[np.ndarray, complex]:
    """Unnormalized sum of e(g(x)/modulus) over domain^{n_b} for one block
    g, modulus = p^m, as _grid_sum gives it: the residue histogram of the
    whole block grid when the modulus is at most _HIST_CAP, the complex
    value above.

    The exact reductions of the module docstring are taken here, each only
    when its hypotheses hold and the whole grid N^{n_b}, N = |domain|, is
    below 2^63 (histogram counts are int64): on [0, modulus) with the
    modulus at most _HIST_CAP, the linear variables of _linear_axes are
    summed out; on [0, modulus) above _HIST_CAP with m >= 2, the
    stationary-phase tree (_critical_tree) visits at most 3 q^{n_b} points,
    q = p^ceil(m/2), and no grid (budget: see _block_product); on the torus
    [1, p) with m = 1 and p at most _HIST_CAP, a block whose exponent
    differences have rank r < n_b visits (p-1)^r points (_toric_counts).
    Any other block keeps the plain grid.
    """
    modulus = p ** m
    size = domain[1] - domain[0]
    fits = size ** n_b < 1 << 63
    whole = domain == (0, modulus) and fits
    hist = modulus <= _HIST_CAP
    if (domain == (1, p) and m == 1 and hist and fits
            and _support_lattice(tuple(sorted(block_terms)))[0] < n_b):
        return _toric_counts(block_terms, p, workers)
    if whole and m >= 2 and not hist:
        return _critical_tree(block_terms, n_b, p, m)
    ys = _linear_axes(list(block_terms), n_b) if whole and hist else []
    rest = [i for i in range(n_b) if i not in ys]
    h = {}
    gs = [{} for _ in ys]
    for exps, c in block_terms.items():
        hit = [j for j, y in enumerate(ys) if exps[y]]
        (gs[hit[0]] if hit else h)[tuple(exps[i] for i in rest)] = c
    return _grid_sum(_reduced_terms(h, modulus), [_reduced_terms(g, modulus) for g in gs],
                     p, m, [domain] * len(rest), workers)


def _critical_tree(block_terms: Dict[ExponentVector, int], n: int, p: int, m: int) -> complex:
    """Unnormalized sum of e(f(x)/p^m) over [0, p^m)^n for one block f,
    m >= 2, by the stationary-phase tree of the module docstring, level by
    level.

    Depth j holds the K_j classes A mod p^j, as an n x K_j array, with
    grad f(A) = 0 mod p^j (so every prefix of A is critical too).  A digit
    b in [0, p)^n extends A exactly when grad f(A + p^j b) = 0 mod p^(j+1);
    k levels at once, b in [0, p^k)^n, keep exactly the classes with
    grad f(A + p^j b) = 0 mod p^(j+k), the classes of depth j + k.  A step
    takes the most levels k with p^(nk) <= _TREE_DIGITS (at least one):
    with digit sets of 2 to 4 points a level costs far more in numpy calls
    than in points (x^5 mod 2^23: 11 levels one at a time were slower than
    the split they replace).  Each step is evaluated in numpy passes over
    all of its K_j p^(nk) points, as many classes to a pass as keep it within
    _TREE_PASS points (or one class), and so are the leaves.  Passes of
    n-row point arrays larger than that ran slower and held more memory on a
    block whose every class is critical (2^20 x y mod 2^21: 0.63 s and 151
    MiB at 2^20 points a pass, 0.36 s and 79 MiB at 2^16).

    The tree stops at depth d = floor(m/2), and an empty level ends the sum
    at 0.  It visits at most 3 q^n points, q = p^ceil(m/2): a step ending at
    depth e visits K_j p^(nk) <= p^(ne) points, so the steps, ending at
    distinct depths, visit at most 2 p^(nd) in all, and the leaves are the
    K_d <= p^(nd) = q^n classes (m even) or their p^n K_d <= q^n lifts (m
    odd, where 2 p^(nd) <= q^n).
    """
    modulus = p ** m
    grad = [_reduced_terms(g.terms, modulus) for g in gradient(Polynomial(n, block_terms)) if g]

    def passes(classes: np.ndarray, offsets: np.ndarray) -> Iterator[np.ndarray]:
        """The points A + b of the classes A and offsets b, pass by pass."""
        step = max(1, _TREE_PASS // offsets.shape[2])
        for lo in range(0, classes.shape[1], step):
            yield (classes[:, lo:lo + step, None] + offsets).reshape(n, -1)

    k = next(k for k in count(1) if p ** (n * (k + 1)) > _TREE_DIGITS)
    classes = np.zeros((n, 1), dtype=np.int64)  # depth 0: the one class mod p^0
    depth, j = m // 2, 0
    while j < depth:
        k = min(k, depth - j)
        digits = np.indices((p ** k,) * n, dtype=np.int64).reshape(n, 1, -1)
        # the residues are nonnegative, so their bitwise or is 0 exactly where all are; it
        # starts from the pass's zero row, as a constant gradient (5*x) gives one scalar
        kept = [points[:, reduce(np.bitwise_or, _residues_at(grad, points, p ** (j + k)),
                                 np.zeros(points.shape[1:], dtype=np.int64)) == 0]
                for points in passes(classes, p ** j * digits)]
        classes = kept[0] if len(kept) == 1 else np.concatenate(kept, axis=1)
        if not classes.size:
            return 0j
        j += k
    f = [_reduced_terms(block_terms, modulus)]
    lifts = np.indices((p if m % 2 else 1,) * n, dtype=np.int64).reshape(n, 1, -1)  # z in [0, p)^n, or 0
    return _fsum_complex([_exp_value(next(_residues_at(f, points, modulus)), modulus)
                          for points in passes(classes, p ** depth * lifts)]) * p ** (n * depth)


def _product(values: Sequence[complex], const: int, modulus: int) -> complex:
    """The normalized block values multiplied in ascending (real, imag)
    order, so any variable order gives the same value, times e(const/modulus)
    with const taken in (-modulus/2, modulus/2]."""
    factors = sorted(values, key=lambda z: (z.real, z.imag))
    if const:
        const -= modulus if 2 * const > modulus else 0
        factors.append(cmath.exp(2j * cmath.pi * const / modulus))
    value = factors[0] if factors else 1 + 0j
    for v in factors[1:]:
        value *= v
    return value


def _block_product(
    f: Polynomial, p: int, ms: Sequence[int], domain: Tuple[int, int], workers: int
) -> Dict[int, complex]:
    """{m: normalized sum of e(f(x)/p^m)} for each m in ms, as a product of
    sums over variable-disjoint blocks, on domain^n at t = max(ms).

    Coefficients are reduced mod p^t and vanishing terms dropped; the
    constant term c contributes the factor e(c/p^m), a variable in no term
    the factor 1, and each block of variables linked by shared terms one sum
    over its own n_i axes (_block_sum, which shrinks the grid further by
    exact reductions), so the work is at most sum_i N^{n_i} points with
    N = |domain| instead of N^n.  Each distinct block is summed once, at t,
    and folded to each m below t (see the module docstring), so those m must
    be histogrammed, on [0, p^t), with t's support.  Blocks with equal n_i
    and equal reduced terms (x*y and z*u, or x^3, y^3 and z^3) have one sum,
    one fold and one value per m, which _product takes once per block: the
    sum is exact in histogram mode and, in exp mode and the tree, depends
    only on the residues of the terms.  A histogrammed block's
    value is its histogram summed by _hist_value, the plain grid's one value
    path, so it is bit-identical to the plain grid's.

    Error: a block sum over N^{n_i} points meets its budget KERNEL_EPS per
    point, so its normalized value is within KERNEL_EPS + u of the truth
    (u = 2^-53).  The stationary-phase tree sums L leaf points within that
    per-point budget and multiplies by p^{n_i j}, j = floor(m/2), with one
    more rounding.  Each leaf stands for p^{n_i j} grid points, and
    L p^{n_i j} <= p^{m n_i}: L <= p^{n_i j} when m is even and
    L <= p^{n_i (j+1)} when it is odd.  So the unnormalized error is at most
    KERNEL_EPS p^{m n_i} plus that rounding, and p^{n_i j} <= p^{m n_i / 2}
    < 2^31.5 (the block grid is below 2^63) is exact as a float: its
    normalized value is within KERNEL_EPS + 2u.  e(c/modulus), with c taken
    in (-modulus/2, modulus/2] so the phase is at most pi, is within 9u.
    With k blocks, every factor of
    modulus at most 1 + O(KERNEL_EPS) and at most k complex multiplications
    (each within sqrt(5) u; Brent, Percival and Zimmermann 2007), the
    product is within k (KERNEL_EPS + 2u) + k sqrt(5) u + 9u
    <= (1.5k + 1) KERNEL_EPS of the true value.  Each block has an axis, so
    n >= k, and (1.5k + 1) <= N^n whenever N^n >= 3: the error stays under
    KERNEL_EPS * N^n, the budget callers report for the whole grid.  Grids
    of at most two points (the torus at p = 2, or a single axis of two
    points) are evaluated whole, where that inequality can fail (ms = [t]).
    """
    t = max(ms)
    _require_int64_residues(p ** t)
    size = domain[1] - domain[0]
    if size ** f.n <= 2:
        return {t: _exp_sum_over_grid(f, p ** t, [domain] * f.n, workers) / size ** f.n}
    const, blocks = _blocks(f, p ** t)
    # equal blocks (equal n_b, the length of every exponent, and equal reduced terms) are one key
    keys = [frozenset(terms.items()) for _, terms in blocks]
    totals = {key: (n_b, _block_sum(terms, n_b, p, t, domain, workers))
              for key, (n_b, terms) in dict(zip(keys, blocks)).items()}
    out = {}
    for m in ms:
        modulus, lifts = p ** m, p ** (t - m)
        values = {}
        for key, (n_b, total) in totals.items():
            if p ** t <= _HIST_CAP:
                if m < t:
                    total = total.reshape(-1, modulus).sum(0) // lifts ** n_b
                total = _hist_value(total, modulus)
            values[key] = total / (size // lifts) ** n_b
        out[m] = _product([values[key] for key in keys], const % modulus, modulus)
    return out


def _count_text(p: int, k: int) -> Union[int, str]:
    """The grid count p^k, or the text "p^k" if p^k may pass _COUNT_BITS bits."""
    return p ** k if k * p.bit_length() <= _COUNT_BITS else f"{p}^{k}"


def _budget_exponent(p: int, work_budget: int) -> int:
    """The largest k with p^k <= work_budget, or 0: a grid p^(mn), mn >= 1,
    is over the budget exactly when mn is above it, without forming p^(mn)."""
    return next(k for k in count() if p ** (k + 1) > work_budget)


def _complete_sums(
    f: Polynomial, p: int, ms: Sequence[int], *, workers: int, work_budget: int,
) -> Dict[int, Union[SumValue, WorkBudgetExceeded]]:
    """brute_force_S(f, p, m) for each m in ms, or the WorkBudgetExceeded of
    an m whose grid p^(mn) is over the work budget: the one complete-sum path.

    The top m is the largest m in ms whose grid is within the work budget,
    histogrammed and of more than two points.  Every such m whose support
    (terms not vanishing mod p^m) is the top m's shares one _block_product
    call, which sums each distinct block once at the top m and folds it to
    the others (see the module docstring); every other m within the budget
    (exp mode, a grid of at most two points, a changed support) is a one-m
    call.
    ``term_count`` and ``abs_error_budget`` = KERNEL_EPS * term_count count
    the whole grid p^(mn); the error stays under it (see _block_product).
    """
    _require_prime(p)
    if any(m < 1 for m in ms):
        raise ValueError("m must be >= 1")
    k_max = _budget_exponent(p, work_budget)
    out: Dict[int, Union[SumValue, WorkBudgetExceeded]] = {
        m: WorkBudgetExceeded(_count_text(p, m * f.n), work_budget) for m in ms if m * f.n > k_max}
    fold = [m for m in ms if m not in out and p ** (m * f.n) > 2 and p ** m <= _HIST_CAP]
    support = {m: {e for e, c in f.terms.items() if c % p ** m} for m in ms if m not in out}
    top = [m for m in dict.fromkeys(fold) if support[m] == support[max(fold)]]
    groups = ([top] if top else []) + [[m] for m in dict.fromkeys(ms) if m not in out and m not in top]
    for group in groups:
        values = _block_product(f, p, group, (0, p ** max(group)), workers)
        for m in group:
            total = p ** (m * f.n)
            out[m] = SumValue(values[m], KERNEL_EPS * total, total)
    return out


# ---------------------------------------------------------------------------
# public kernels
# ---------------------------------------------------------------------------

def brute_force_S(
    f: Polynomial,
    p: int,
    m: int,
    *,
    workers: int = 1,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> SumValue:
    """Normalized complete sum p^{-mn} * sum over [0, p^m)^n of e(f(x)/p^m):
    the one-m case of _complete_sums, raising its WorkBudgetExceeded.

    A product of sums over the variable-disjoint blocks of f mod p^m, each
    shrunk by the exact reductions of the module docstring (summing out the
    linear variables in histogram mode, the stationary-phase tree above it
    when m >= 2; _block_sum).  ``term_count``, the work budget check and
    ``abs_error_budget`` = KERNEL_EPS * term_count still count the whole
    grid p^{mn}.
    """
    value = _complete_sums(f, p, [m], workers=workers, work_budget=work_budget)[m]
    if isinstance(value, WorkBudgetExceeded):
        raise value
    return value


def torus_E(
    f_tau: Polynomial,
    p: int,
    *,
    workers: int = 1,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> SumValue:
    """Normalized sum over the torus {1..p-1}^n of e(f_tau(x)/p).

    Factored over variable-disjoint blocks like brute_force_S; a variable
    the restriction does not contain contributes exactly 1.  A block whose
    exponent differences have rank r below its variable count (every block
    of a face restriction) visits (p-1)^r points (see _block_sum), with
    a bit-identical value.  ``term_count``, the work budget check and
    ``abs_error_budget`` count the whole torus (p-1)^n.
    """
    _require_prime(p)
    total = (p - 1) ** f_tau.n
    if total > work_budget:
        raise WorkBudgetExceeded(total, work_budget)
    value = _block_product(f_tau, p, [1], (1, p), workers)[1]
    return SumValue(value, KERNEL_EPS * total, total)


def _closed_torus_E(g: Polynomial, p: int) -> Optional[Fraction]:
    """E(p, g) = (-1/(p-1))^r for g of r terms where the module docstring's
    three hypotheses hold, all checked here; None where one fails."""
    terms = sorted(g.terms.items())
    if not terms or any(c % p == 0 for _, c in terms):
        return None
    rank, d, _ = _support_lattice(tuple(a for a, _ in terms))[3:]
    if rank < len(terms) or gcd(d, p - 1) != 1:
        return None
    return Fraction(-1, p - 1) ** len(terms)


# ---------------------------------------------------------------------------
# nondegeneracy mod p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceNondeg:
    face_id: int
    passed: bool
    witness: Optional[Tuple[int, ...]]  # first torus critical point, if any


@dataclass(frozen=True)
class NondegReport:
    prime: int
    entries: Tuple[FaceNondeg, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self) -> Tuple[FaceNondeg, ...]:
        return tuple(e for e in self.entries if not e.passed)


#: Largest bit size of the circuit discriminant that _certificate forms;
#: a circuit whose two products would be larger gets no certificate.
_DISCRIMINANT_BITS = 1 << 16


@lru_cache(maxsize=1 << 12)
def _certificate(terms: Tuple[Tuple[ExponentVector, int], ...]) -> Optional[int]:
    """A positive integer E such that g = sum_j c_j x^a_j, given by its
    sorted (a_j, c_j) pairs, has no critical point on (F_p^x)^n at any
    prime p not dividing E; None when the module docstring's rules give none.
    It reads rank A, d and lambda from _support_lattice, and, depending on
    no prime, is memoized by the terms."""
    coefs = [c for _, c in terms]
    rank, d, lam = _support_lattice(tuple(a for a, _ in terms))[3:]
    if len(terms) - rank > 1:
        return None
    cert = d * prod(coefs)
    if lam is not None and all(lam):
        size = sum(abs(l) * max(abs(l).bit_length(), abs(c).bit_length())
                   for l, c in zip(lam, coefs))
        if sum(lam) or size > _DISCRIMINANT_BITS:
            return None
        pos = [(l, c) for l, c in zip(lam, coefs) if l > 0]
        neg = [(-l, c) for l, c in zip(lam, coefs) if l < 0]
        sign = -1 if sum(mu for mu, _ in neg) % 2 else 1
        delta = (prod(l ** l for l, _ in pos) * prod(c ** mu for mu, c in neg)
                 - sign * prod(mu ** mu for mu, _ in neg) * prod(c ** l for l, c in pos))
        cert *= prod(lam) * delta
    return abs(cert) or None


def _cleared(g: Polynomial, p: int) -> bool:
    """Whether g's certificate shows it has no critical point on (F_p^x)^n."""
    cert = _certificate(tuple(sorted(g.terms.items())))
    return cert is not None and cert % p != 0


def _common_zero(comps: Sequence[Terms], p: int, n: int) -> Optional[Tuple[int, ...]]:
    """The lexicographically first point of (F_p^x)^n at which every
    component (at least one) vanishes mod p, or None.

    The components run through _grid_residues on the torus, one task at a
    time in task order, which is lexicographic, so the first task holding a
    common zero holds the first one: its origin plus the zero's index in the
    task's block.  Within a task, a component is evaluated only while some
    point is still a zero.
    """
    domains = [(1, p)] * n
    for origin, residues in _grid_residues(comps, p, domains, 0, _split_axes([p - 1] * n)[3]):
        mask = True
        for r in residues:
            mask = mask & (r == 0)
            if not mask.any():
                break
        if mask.any():
            offset = (0,) * (n - mask.ndim) + np.unravel_index(int(np.argmax(mask)), mask.shape)
            return tuple(o + int(i) for o, i in zip(origin, offset))
        del residues, r, mask  # free this task's arrays before the next plan is built
    return None


def _may_be_degenerate(f_tau: Polynomial, p: int) -> bool:
    """False when f_tau has no critical point on (F_p^x)^n; True when it has
    one, or when the exponent differences of its terms that survive mod p
    have full rank n, so that only the whole torus can tell.

    The reduced system of the module docstring is solved on (F_p^x)^r.  A
    component vanishing identically never cuts; with none left, every point
    is critical.
    """
    terms = {e: c for e, c in f_tau.terms.items() if c % p}
    if not terms:
        return True
    support = tuple(sorted(terms))
    r, exps, beta = _support_lattice(support)[:3]
    if r == f_tau.n:
        return True
    coefs = [terms[a] for a in support]
    comps = [_laurent_terms([c * e[i] for c, e in zip(coefs, exps)], exps, p) for i in range(r)]
    if beta % p:
        comps.append(_laurent_terms(coefs, exps, p))
    comps = [c for c in comps if c]
    if not comps:
        return True
    # with r = 0 every component is a nonzero constant
    return bool(r) and _common_zero(comps, p, r) is not None


def _first_critical_point(f_tau: Polynomial, p: int) -> Optional[Tuple[int, ...]]:
    """The lexicographically first point of (F_p^x)^n at which every partial
    derivative of f_tau vanishes mod p, or None.

    The reduced system of _may_be_degenerate decides whether there is one;
    only then is the whole torus scanned for the first.
    """
    if not _may_be_degenerate(f_tau, p):
        return None
    # an identically-zero derivative never cuts the critical locus; f_tau has
    # no constant term, so some derivative is not identically zero
    comps = [_reduced_terms(c.terms, p) for c in gradient(f_tau) if c is not None]
    return _common_zero(comps, p, f_tau.n)


def check_nondegenerate_mod_p(
    f: Polynomial,
    faces: Sequence[Face],
    p: int,
    *,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> NondegReport:
    """Scan (F_p^x)^n for common zeros of grad f_tau mod p, per face.

    A pass for every face is the per-prime certificate under which the face
    decomposition identity is asserted; the witness of a failure is the
    lexicographically first critical torus point.

    A restriction whose prime-free certificate E (_certificate, see the
    module docstring) is not divisible by p passes with witness None and
    is not scanned, exactly as the scan would report it.  The others share
    one scan per distinct restriction (_first_critical_point), which walks
    the whole torus only for the witness of a degenerate one.  The prime
    and int64 checks and the work budget, one whole torus per distinct
    restriction, run first whatever the certificates say, so the same
    inputs raise the same errors.
    """
    _require_prime(p)
    _require_int64_residues(p)
    restrictions = dict.fromkeys(face.restriction for face in faces)
    estimated = (p - 1) ** f.n * len(restrictions)
    if estimated > work_budget:
        raise WorkBudgetExceeded(estimated, work_budget)

    witnesses = {g: None if _cleared(g, p) else _first_critical_point(g, p)
                 for g in restrictions}
    entries = []
    for face in faces:
        witness = witnesses[face.restriction]
        entries.append(FaceNondeg(face_id=face.id, passed=witness is None, witness=witness))
    entries.sort(key=lambda e: e.face_id)
    return NondegReport(prime=p, entries=tuple(entries))
