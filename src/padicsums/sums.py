"""Exponential sum kernels and mod-p nondegeneracy scans.

S and E are computed as products over variable-disjoint blocks: when no
term links two sets of variables, the normalized sum is the product of the
blocks' sums (a variable in no term contributes 1, the constant term
e(c/p^m)), so the work is the sum of the block grids, not their product.

A complete sum (domain the complete residue system [0, M), M = p^m) shrinks
each block's grid further by one of two exact reductions, both checked
against their hypotheses first, and both need the block's whole grid M^n
below 2^63.

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

The stationary-phase split (Igusa; Denef and Sperber) is taken when M is
too large to histogram and m >= 2.  With q = p^ceil(m/2), write x = y + q z:
q^2 = 0 mod M and Hasse derivatives have integer coefficients, so
f(x) = f(y) + q z . grad f(y) mod M exactly, and the z sum is the same
orthogonality sum with g_j = q df/dx_j and z_j over [0, M/q): it is
(M/q)^n where every g_j(y) = 0 mod M and 0 elsewhere.  So only those of the
q^n points y are summed, and the total is multiplied by (M/q)^n: 5^11 points
of x^3 mod 5^11 become 5^6, with the same error budget.  Histogram mode
does not split.

In both, each visited point stands for ``fiber`` grid points.

Every complete sum takes one path, _complete_sums; brute_force_S is its
one-m case.  The histogrammed m of one (f, p) come from one histogram per
block, built at the largest m, t (_block_product; Igusa 1978; Denef and
Sperber 2001).  For m <= t, each x mod p^m has p^(n_b (t - m)) lifts mod p^t
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
Z^r x 0, so W a_j = (e_j, b) with one tail b for every j.  The substitution
x_i = prod_k y_k^W_ki gives x^a = y^(W a), and it is a bijection of
(F_p^x)^n, since F_p^x is cyclic and det W = +-1.  So g(x) = y''^b h(y'),
where h = sum_j c_j y'^e_j is a Laurent polynomial in the first r
coordinates, evaluated with its exponents mod p - 1.  For each y', y'' -> y''^b is a
homomorphism onto the subgroup H of F_p^x of index gcd(b, p - 1) (H = {1}
when b = 0), so h(y') = s != 0 hits every element of the coset s H exactly
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
are reduced with complex exponentials and merged by compensated (Kahan)
summation in fixed ascending block order, so results are reproducible for any
worker count.  Every value carries a certified absolute error budget of
KERNEL_EPS per point of the whole grid, which also covers the block product
(see _block_product).  Moduli whose residue products could wrap int64 are
refused with ModulusTooLarge before any work starts.

_grid_residues is the package's one evaluator of polynomials mod M: the sum
kernels and the mod-p nondegeneracy scan both run on it.  The scan first
decides whether a face restriction g has a critical point on the torus at
all, on (F_p^x)^r: under the substitution above the toric gradient
(x_i dg/dx_i)_i is W^-1 times (y''^b theta_i h for i <= r, b_k y''^b h for
k > r), theta_i = y'_i d/dy'_i, and W is invertible mod p, so g has one
exactly when theta_i h(y') = 0 for i <= r and b_k h(y') = 0 for k > r at
some y'.  theta_i h multiplies each c_j by the integer e_j,i mod p.  Only
when it has one is the whole torus (F_p^x)^n walked in its task order,
which is lexicographic, up to the first task holding a critical point: the
witness.

Before any scan, a face restriction may be cleared by a prime-free
certificate (_certificate; Gelfand, Kapranov and Zelevinsky, "Discriminants,
Resultants, and Multidimensional Determinants", 1994, ch. 9; Denef and
Sperber 2001): an integer E such that g has no critical point on
(F_p^x)^n at any p not dividing E.  Let g = sum_j c_j x^a_j have r terms,
A the n x r matrix with columns a_j, k = r - rank A, and d the product of
A's nonzero Smith invariants, the gcd of its rank-size minors, so that A
has the same rank mod p exactly when p does not divide d.  A critical point
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
"""

from __future__ import annotations

import cmath
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt, prod
from operator import mul
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


@dataclass(frozen=True)
class SumValue:
    """A complex sum value with a certified absolute error budget."""

    value: complex
    abs_error_budget: float
    term_count: int


def _require_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


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


def _kahan_add(s: complex, c: complex, x: complex) -> Tuple[complex, complex]:
    y = x - c
    t = s + y
    return t, (t - s) - y


#: One polynomial for the kernel: (coefficient mod modulus, exponents) pairs
#: in ascending exponent order; possibly empty (the zero polynomial).
Terms = Tuple[Tuple[int, ExponentVector], ...]


def _reduced_terms(terms: Dict[ExponentVector, int], modulus: int) -> Terms:
    return tuple((coef % modulus, exps) for exps, coef in sorted(terms.items()))


@kept_table
def _divisor_offsets(modulus: int) -> Tuple[np.ndarray, np.ndarray]:
    """The divisors d of modulus in ascending order, and the offset of each
    d's table of residues mod d in one concatenated histogram (one more
    offset at the end: the histogram's length)."""
    small = [d for d in range(1, isqrt(modulus) + 1) if modulus % d == 0]
    divisors = np.array(sorted(set(small + [modulus // d for d in small])), dtype=np.int64)
    return divisors, np.concatenate(([0], np.cumsum(divisors)))


@kept_table
def _valuations(modulus: int) -> np.ndarray:
    """val[r] = the number of divisors d > 1 of modulus that divide r: for a
    prime power p^m, v_p(r) capped at m (val[0] = m)."""
    val = np.zeros(modulus, dtype=np.int8)
    for d in _divisor_offsets(modulus)[0][1:].tolist():
        val[::d] += 1
    return val


@kept_table
def _roots(modulus: int) -> np.ndarray:
    """e(r/modulus) for r = 0..modulus-1."""
    return np.exp(2j * np.pi * np.arange(modulus) / modulus)


def _grid_residues(
    polys: Sequence[Terms],
    modulus: int,
    domains: Sequence[Tuple[int, int]],
    inner_start: int,
    segments: int,
    seg_size: int,
    lo: int,
    hi: int,
) -> Iterator[Tuple[int, Iterator[np.ndarray]]]:
    """Yield (task, residues of each polynomial mod modulus) for the tasks
    lo..hi-1, in order; one task is one outer-coordinate assignment (times one
    segment of the last axis when segmented), and each residue array spans
    the task's inner block.  A task's residues are computed one polynomial at
    a time as they are consumed, so a caller may stop early.

    Terms are grouped by their outer exponent exps[:inner_start], and each
    group becomes one residue array over the inner block, built once per
    block plan; the outer-free terms (constants included) form one base
    group.  A task then does one multiply-add per distinct outer monomial,
    not one per term.
    """
    n = len(domains)
    sizes = [stop - start for start, stop in domains]
    outer_sizes = sizes[:inner_start]
    inner_axes = list(range(inner_start, n))

    def inner_domain(axis: int, seg: int) -> np.ndarray:
        start, stop = domains[axis]
        if segments > 1 and axis == n - 1:
            start = start + seg * seg_size
            stop = min(stop, start + seg_size)
        return np.arange(start, stop, dtype=np.int64)

    def build_plan(terms: Terms, seg: int, pow_cache: Dict[Tuple[int, int], np.ndarray]):
        """(shape, [(outer exponent, (scalar, residues))]) for one inner block.
        The group's value is scalar * residues; residues is a broadcast-shaped
        array, or an int when the group is constant on the block.  A lone
        term keeps its coefficient as the scalar, a merged group has scalar 1."""
        shape = tuple(len(inner_domain(a, seg)) for a in inner_axes)
        groups: Dict[ExponentVector, Tuple[int, object]] = {}
        for coef, exps in terms:
            mono = None
            for pos, axis in enumerate(inner_axes):
                e = exps[axis]
                if not e:
                    continue
                key = (axis, e)
                if key not in pow_cache:
                    p = _pow_mod_array(inner_domain(axis, seg), e, modulus)
                    pow_cache[key] = p.reshape(
                        tuple(len(p) if q == pos else 1 for q in range(len(inner_axes)))
                    )
                pw = pow_cache[key]
                mono = pw if mono is None else (mono * pw) % modulus
            mono = 1 if mono is None else mono
            outer = exps[:inner_start]
            if outer in groups:
                c, g = groups[outer]
                groups[outer] = (1, ((c * g) % modulus + (coef * mono) % modulus) % modulus)
            else:
                groups[outer] = (coef, mono)
        return shape, list(groups.items())

    def build_plans(seg: int):
        pow_cache: Dict[Tuple[int, int], np.ndarray] = {}
        return [build_plan(terms, seg, pow_cache) for terms in polys]

    # Overflow policy: a task adds one product of two residues, at most
    # (modulus - 1)^2, per distinct outer monomial and then a constant below
    # modulus; accumulate raw products and reduce once if that stays < 2^63.
    safe_raw = [(len({exps[:inner_start] for _, exps in terms}) + 1) * (modulus - 1) ** 2 < 1 << 63
                for terms in polys]
    # Plans per segment of the last axis.  With no outer axes each segment is
    # one task, so only the current segment's plans are kept.
    plan_cache: Dict[int, list] = {}

    def residues(plan, raw: bool, point: List[int]) -> np.ndarray:
        shape, groups = plan
        acc = np.zeros(shape, dtype=np.int64)
        const = 0
        for outer, (scalar, values) in groups:
            for j in range(inner_start):
                if outer[j]:
                    scalar = (scalar * pow(point[j], outer[j], modulus)) % modulus
            if isinstance(values, int):
                const = (const + scalar * values) % modulus
            elif raw:
                acc += values if scalar == 1 else scalar * values
            else:
                acc = (acc + scalar * values) % modulus
        if const:
            acc += const
        acc %= modulus
        return acc

    for task in range(lo, hi):
        outer_flat, seg = divmod(task, segments)
        coords = []
        rem = outer_flat
        for size in reversed(outer_sizes):
            rem, c = divmod(rem, size)
            coords.append(c)
        coords.reverse()
        point = [domains[j][0] + coords[j] for j in range(inner_start)]
        if seg not in plan_cache:
            plans = build_plans(seg)
            if not inner_start:
                plan_cache.clear()
            plan_cache[seg] = plans
        yield task, map(residues, plan_cache[seg], safe_raw, repeat(point))


def _grid_worker(args) -> Tuple[np.ndarray, List[Tuple[int, complex]]]:
    """Reduce a contiguous span of tasks of _grid_residues.

    The first polynomial is h, the rest are g_1..g_k.  With k = 0 the
    histogram is indexed by the residue of h.  With k >= 1 it is the
    concatenation of one table per divisor d of the modulus, indexed by
    h mod d at the points where gcd(g_1, ..., g_k, modulus) = d; in exp mode
    only the points where every g_j vanishes are summed.

    In histogram mode with k >= 1 the modulus is p^m (see _grid_sum), so its
    divisors are 1, p, ..., p^m and the index of d is the least p-adic
    valuation of the g_j(x), capped at m: one lookup per g_j in the table
    val[r] = v_p(r), with val[0] = m.
    """
    (polys, modulus, domains, inner_start, segments, seg_size, lo, hi, mode) = args
    if mode == "hist" and len(polys) > 1:
        divisors, offsets = _divisor_offsets(modulus)
        val = _valuations(modulus)
    else:
        offsets = [modulus]
    counts = np.zeros(int(offsets[-1]), dtype=np.int64) if mode == "hist" else None
    exp_parts: List[Tuple[int, complex]] = []
    for task, (h, *gs) in _grid_residues(polys, modulus, domains, inner_start,
                                          segments, seg_size, lo, hi):
        if mode == "exp":
            if gs:
                h = h[np.logical_and.reduce([g == 0 for g in gs])]
            phases = h * (2.0 * np.pi / modulus)
            exp_parts.append((task, complex(np.sum(np.cos(phases)) + 1j * np.sum(np.sin(phases)))))
            continue
        if gs:
            v = val[gs[0]]
            for g in gs[1:]:
                v = np.minimum(v, val[g])
            h = offsets[v] + h % divisors[v]
        counts += np.bincount(np.ravel(h), minlength=len(counts))
    return counts, exp_parts


def _exp_sum_over_grid(
    f: Polynomial,
    modulus: int,
    domains: Sequence[Tuple[int, int]],
    workers: int,
) -> complex:
    """Unnormalized sum of exp(2 pi i f(x)/modulus) over every point of the
    product grid: the oracle of every reduction in _block_sum."""
    total = _grid_sum(_reduced_terms(f.terms, modulus), (), 1, modulus, domains, workers)
    return _hist_value(total, modulus) if modulus <= _HIST_CAP else total


def _grid_sum(
    h: Terms,
    gs: Sequence[Terms],
    fiber: int,
    modulus: int,
    domains: Sequence[Tuple[int, int]],
    workers: int,
) -> Union[np.ndarray, complex]:
    """Unnormalized sum of e((h(x) + z_1 g_1(x) + ... + z_k g_k(x))/modulus)
    over x in the product grid and z in a box of ``fiber`` points: its
    residue histogram when the modulus is at most _HIST_CAP (histogram
    mode), its complex value above (exp mode).

    With k = 0 this is the plain grid sum, and fiber is 1.  With k >= 1 each
    z_j runs over [0, modulus/q), where q divides modulus and every value of
    every g_j mod modulus, so fiber = (modulus/q)^k.  At a point x,
    z -> sum_j z_j g_j(x) is then a homomorphism onto d Z/modulus,
    d = gcd(g_1(x), ..., g_k(x), modulus), that hits each element
    fiber d / modulus times.  _block_sum takes q = 1 for summed-out
    linear variables (histogram mode) and q = p^ceil(m/2) for the
    stationary-phase split (exp mode).

    Histogram mode (the modulus must then be a prime power): the residue
    histogram of the whole grid, counts[r] = sum_x (fiber d(x) / modulus)
    [r = h(x) mod d(x)], is rebuilt from one table per divisor, so it equals
    the plain grid's.  Exp mode: the z sum is fiber where every g_j(x) = 0 mod modulus
    and 0 elsewhere, so only those points are summed, and the total is
    multiplied by fiber.

    The grid's tasks (_split_axes) are reduced by _grid_worker in contiguous
    spans over up to ``workers`` processes.
    """
    _require_int64_residues(modulus)
    mode = "hist" if modulus <= _HIST_CAP else "exp"
    if gs and mode == "hist":
        divisors, offsets = _divisor_offsets(modulus)
        if divisors[1] ** (len(divisors) - 1) != modulus:
            raise ValueError(f"the z sum is histogrammed only modulo a prime power, not {modulus}")
    inner_start, segments, seg_size, task_count = _split_axes([stop - start for start, stop in domains])
    args = [((h, *gs), modulus, tuple(domains), inner_start, segments, seg_size, lo, hi, mode)
            for lo, hi in _split_range(task_count, max(1, workers))]
    if len(args) == 1:
        results = [_grid_worker(args[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(args)) as pool:
            results = list(pool.map(_grid_worker, args))
    if mode == "hist":
        counts = results[0][0]
        for extra, _ in results[1:]:
            counts = counts + extra
        if gs:
            table, counts = counts, np.zeros(modulus, dtype=np.int64)
            for d, off in zip(divisors.tolist(), offsets.tolist()):
                part = table[off:off + d]
                if part.any():
                    view = counts.reshape(-1, d)
                    view += fiber * d // modulus * part
        return counts
    parts = sorted((part for _, batch in results for part in batch), key=lambda t: t[0])
    s = 0j
    c = 0j
    for _, x in parts:
        s, c = _kahan_add(s, c, x)
    return s * fiber


def _hist_value(counts: np.ndarray, modulus: int) -> complex:
    """sum_r counts[r] e(r/modulus): the one value path of histogram mode."""
    return complex(np.sum(counts * _roots(modulus)))


def _split_range(total: int, pieces: int) -> List[Tuple[int, int]]:
    pieces = min(pieces, total) or 1
    step, extra = divmod(total, pieces)
    spans = []
    lo = 0
    for i in range(pieces):
        hi = lo + step + (1 if i < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


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
def _toric_form(
    support: Tuple[ExponentVector, ...],
) -> Tuple[int, Tuple[ExponentVector, ...], ExponentVector]:
    """(r, (e_j), b) for sorted exponent vectors a_0 < a_1 < ...: r is the
    rank of the a_j - a_0, and a unimodular W brings every W a_j to
    (e_j, b), with e_j in Z^r and one tail b for all j.

    W comes from an integer row reduction of the columns a_j - a_0 (Euclid
    on the rows below the pivot, so every step is unimodular).  The form
    does not depend on p, so it is memoized by the support; it holds no
    per-p data.
    """
    n = len(support[0])
    a0 = support[0]
    width = len(support) - 1
    # [D | W]: row i holds coordinate i of every a_j - a_0, then row i of W
    rows = [[a[i] - a0[i] for a in support[1:]] + [int(i == j) for j in range(n)]
            for i in range(n)]
    r = _row_reduce(rows, width)
    W = [row[width:] for row in rows]
    images = [tuple(sum(map(mul, w, a)) for w in W) for a in support]
    return r, tuple(e[:r] for e in images), images[0][r:]


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
    _toric_form); its coefficients are nonzero mod p.

    Under the substitution of the module docstring g = y''^b h(y'), so the
    residue histogram of g on the whole torus is that of h on (F_p^x)^r,
    with 0 scaled by fiber = (p-1)^(n_b-r) and every s != 0 spread evenly
    over its coset s H, H = {t : t^|H| = 1}, |H| = (p-1)/gcd(b, p-1).  A
    single term (r = 0) has h constant, and visits no grid.
    """
    support = tuple(sorted(block_terms))
    r, exps, b = _toric_form(support)
    fiber = (p - 1) ** (len(support[0]) - r)
    order = (p - 1) // gcd(p - 1, *b)  # |H|, a divisor of fiber (1 when r = n_b)
    key = _pow_mod_array(np.arange(1, p, dtype=np.int64), order, p)  # the same on each coset
    counts = np.zeros(p, dtype=np.int64)
    if not r:  # g = c x^a, c != 0 mod p: the whole torus lands on c H
        counts[1:] = (key == pow(block_terms[support[0]], order, p)) * (fiber // order)
        return counts
    h = _laurent_terms([block_terms[a] for a in support], exps, p)
    hist = _grid_sum(h, (), 1, p, [(1, p)] * r, workers)
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
    stationary-phase split, q = p^ceil(m/2), visits q^{n_b} points (budget:
    see _block_product); on the torus [1, p) with m = 1 and p at most
    _HIST_CAP, a block whose exponent differences have rank r < n_b visits
    (p-1)^r points (_toric_counts).  Any other block keeps the plain grid.
    """
    modulus = p ** m
    size = domain[1] - domain[0]
    fits = size ** n_b < 1 << 63
    whole = domain == (0, modulus) and fits
    hist = modulus <= _HIST_CAP
    if domain == (1, p) and m == 1 and hist and fits and _toric_form(tuple(sorted(block_terms)))[0] < n_b:
        return _toric_counts(block_terms, p, workers)
    if whole and m >= 2 and not hist:
        q = p ** ((m + 1) // 2)
        h = block_terms
        gs = [{e: q * c for e, c in g.terms.items()} if g else {}
              for g in gradient(Polynomial(n_b, block_terms))]
        fiber, domains = (modulus // q) ** n_b, [(0, q)] * n_b
    else:
        ys = _linear_axes(list(block_terms), n_b) if whole and hist else []
        rest = [i for i in range(n_b) if i not in ys]
        h = {}
        gs = [{} for _ in ys]
        for exps, c in block_terms.items():
            hit = [j for j, y in enumerate(ys) if exps[y]]
            (gs[hit[0]] if hit else h)[tuple(exps[i] for i in rest)] = c
        fiber, domains = modulus ** len(ys), [domain] * len(rest)
    return _grid_sum(_reduced_terms(h, modulus), [_reduced_terms(g, modulus) for g in gs],
                     fiber, modulus, domains, workers)


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
    N = |domain| instead of N^n.  Each block is summed once, at t, and
    folded to each m below t (see the module docstring), so those m must be
    histogrammed, on [0, p^t), with t's support.  A histogrammed block's
    value is its histogram summed by _hist_value, the plain grid's one value
    path, so it is bit-identical to the plain grid's.

    Error: a block sum over N^{n_i} points meets its budget KERNEL_EPS per
    point, so its normalized value is within KERNEL_EPS + u of the truth
    (u = 2^-53).  An exp-mode split sums at most q^{n_i} points within that
    per-point budget and multiplies by fiber (exact as a float:
    fiber^2 <= N^{n_i} < 2^63) with one more rounding, so its normalized value is within
    KERNEL_EPS + 2u.  e(c/modulus), with c taken in (-modulus/2, modulus/2]
    so the phase is at most pi, is within 9u.  With k blocks, every factor of
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
    totals = [(n_b, _block_sum(terms, n_b, p, t, domain, workers)) for n_b, terms in blocks]
    out = {}
    for m in ms:
        modulus, lifts = p ** m, p ** (t - m)
        values = []
        for n_b, total in totals:
            if p ** t <= _HIST_CAP:
                if m < t:
                    total = total.reshape(-1, modulus).sum(0) // lifts ** n_b
                total = _hist_value(total, modulus)
            values.append(total / (size // lifts) ** n_b)
        out[m] = _product(values, const % modulus, modulus)
    return out


def _complete_sums(
    f: Polynomial, p: int, ms: Sequence[int], *, workers: int, work_budget: int,
) -> Dict[int, Union[SumValue, WorkBudgetExceeded]]:
    """brute_force_S(f, p, m) for each m in ms, or the WorkBudgetExceeded of
    an m whose grid p^(mn) is over the work budget: the one complete-sum path.

    The top m is the largest m in ms whose grid is within the work budget,
    histogrammed and of more than two points.  Every such m whose support
    (terms not vanishing mod p^m) is the top m's shares one _block_product
    call, which sums each block once at the top m and folds it to the others
    (see the module docstring); every other m within the budget (exp mode, a
    grid of at most two points, a changed support) is a one-m call.
    ``term_count`` and ``abs_error_budget`` = KERNEL_EPS * term_count count
    the whole grid p^(mn); the error stays under it (see _block_product).
    """
    _require_prime(p)
    if any(m < 1 for m in ms):
        raise ValueError("m must be >= 1")
    out: Dict[int, Union[SumValue, WorkBudgetExceeded]] = {
        m: WorkBudgetExceeded(p ** (m * f.n), work_budget) for m in ms if p ** (m * f.n) > work_budget}
    fold = [m for m in ms if m not in out and p ** (m * f.n) > 2 and p ** m <= _HIST_CAP]
    support = {m: {e for e, c in f.terms.items() if c % p ** m} for m in ms}
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

    Computed as a product of sums over the variable-disjoint blocks of f mod
    p^m, each on its own grid, shrunk by two exact reductions (see
    _block_sum).  When p^m is small enough to histogram, the variables
    of degree 1 in a block (exponent exactly 1 in every term that contains
    them, no two in one term) are summed out by orthogonality of characters,
    and the block's residue histogram is rebuilt exactly, so the value is
    bit-identical to the whole block grid's.  When p^m is above the
    histogram cap and m >= 2, the stationary-phase split x = y + p^ceil(m/2) z
    sums out z, so a block visits p^(ceil(m/2) n_i) points instead of
    p^(m n_i), within the same budget.
    ``term_count``, the work budget check and ``abs_error_budget`` =
    KERNEL_EPS * term_count still count the whole grid p^{mn}.
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

    A is the matrix with columns a_j, k = #terms - rank A, and d = the
    product of A's nonzero Smith invariants, read off two integer row
    reductions (no minors): A to its nonzero echelon rows R, then [R^T | I]
    to [H | U] with H triangular above zero rows.  U is unimodular, so the
    gcd of the rank-size minors of R^T, which is d, is |det H|, the product
    of H's diagonal; and with k = 1, U's row below the rank is a primitive
    integer lambda with R lambda = 0, hence A lambda = 0.  The certificate
    depends on no prime, so it is memoized by the terms.
    """
    exps = [a for a, _ in terms]
    coefs = [c for _, c in terms]
    width = len(terms)
    rows = [[a[i] for a in exps] for i in range(len(exps[0]))]
    rank = _row_reduce(rows, width)
    if width - rank > 1:
        return None
    # [R^T | U]: row j holds column j of the echelon rows, then row j of U
    cols = [[rows[i][j] for i in range(rank)] + [int(j == l) for l in range(width)]
            for j in range(width)]
    _row_reduce(cols, rank)
    cert = prod(cols[i][i] for i in range(rank)) * prod(coefs)
    if width - rank == 1:
        lam = cols[rank][rank:]
        if all(lam):
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

    The components run through _grid_residues on the torus plan of
    _split_axes, one task at a time in task order, which is lexicographic,
    so the first task holding a common zero holds the first one.  Within a
    task, a component is evaluated only while some point is still a zero.
    """
    sizes = [p - 1] * n
    inner_start, segments, seg_size, task_count = _split_axes(sizes)
    for task, residues in _grid_residues(comps, p, [(1, p)] * n, inner_start,
                                          segments, seg_size, 0, task_count):
        mask = True
        for r in residues:
            mask = mask & (r == 0)
            if not mask.any():
                break
        if mask.any():
            outer, seg = divmod(task, segments)
            coords = [*np.unravel_index(outer, sizes[:inner_start]),
                      *np.unravel_index(int(np.argmax(mask)), mask.shape)]
            coords[-1] += seg * seg_size
            return tuple(int(c) + 1 for c in coords)
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
    r, exps, b = _toric_form(support)
    if r == f_tau.n:
        return True
    coefs = [terms[a] for a in support]
    comps = [_laurent_terms([c * e[i] for c, e in zip(coefs, exps)], exps, p) for i in range(r)]
    if any(x % p for x in b):
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
