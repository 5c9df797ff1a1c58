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

In both, each visited point stands for ``fiber`` grid points.  The torus
sums (domain [1, p)) and m = 1 above the histogram cap keep the plain grid.

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
kernels and the mod-p nondegeneracy scan both run on it.  The scan walks the
torus (F_p^x)^n in its task order, which is lexicographic, and stops at the
first task holding a critical point of a face restriction.
"""

from __future__ import annotations

import cmath
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from math import isqrt, prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ModulusTooLarge, WorkBudgetExceeded
from .newton import Face
from .poly import ExponentVector, Polynomial, gradient

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


def _split_axes(sizes: Sequence[int]) -> Tuple[int, int, int]:
    """(first inner axis, segment count, segment size) for the block plan.

    Inner axes are the longest suffix whose grid fits _INNER_CAP; when even
    the last axis alone is too large (only reachable for n = 1 moduli), that
    axis is processed in segments instead.  A grid with no axes is one task.
    """
    n = len(sizes)
    if not n:
        return 0, 1, 1
    start = n
    elems = 1
    while start > 0 and elems * sizes[start - 1] <= _INNER_CAP:
        elems *= sizes[start - 1]
        start -= 1
    if start == n:  # last axis alone exceeds the cap
        seg_size = _INNER_CAP
        segments = -(-sizes[-1] // seg_size)
        return n - 1, segments, seg_size
    return start, 1, sizes[-1]


def _kahan_add(s: complex, c: complex, x: complex) -> Tuple[complex, complex]:
    y = x - c
    t = s + y
    return t, (t - s) - y


#: One polynomial for the kernel: (coefficient mod modulus, exponents) pairs
#: in ascending exponent order; possibly empty (the zero polynomial).
Terms = Tuple[Tuple[int, ExponentVector], ...]


def _reduced_terms(terms: Dict[ExponentVector, int], modulus: int) -> Terms:
    return tuple((coef % modulus, exps) for exps, coef in sorted(terms.items()))


def _divisor_offsets(modulus: int) -> Tuple[np.ndarray, np.ndarray]:
    """The divisors d of modulus in ascending order, and the offset of each
    d's table of residues mod d in one concatenated histogram (one more
    offset at the end: the histogram's length)."""
    small = [d for d in range(1, isqrt(modulus) + 1) if modulus % d == 0]
    divisors = np.array(sorted(set(small + [modulus // d for d in small])), dtype=np.int64)
    return divisors, np.concatenate(([0], np.cumsum(divisors)))


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
        val = np.zeros(modulus, dtype=np.int8)
        for d in divisors[1:].tolist():
            val[::d] += 1
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
    product grid: the oracle of every reduction in _block_product."""
    return _grid_sum(_reduced_terms(f.terms, modulus), (), 1, modulus, domains, workers)


def _grid_sum(
    h: Terms,
    gs: Sequence[Terms],
    fiber: int,
    modulus: int,
    domains: Sequence[Tuple[int, int]],
    workers: int,
) -> complex:
    """Unnormalized sum of e((h(x) + z_1 g_1(x) + ... + z_k g_k(x))/modulus)
    over x in the product grid and z in a box of ``fiber`` points.

    With k = 0 this is the plain grid sum, and fiber is 1.  With k >= 1 each
    z_j runs over [0, modulus/q), where q divides modulus and every value of
    every g_j mod modulus, so fiber = (modulus/q)^k.  At a point x,
    z -> sum_j z_j g_j(x) is then a homomorphism onto d Z/modulus,
    d = gcd(g_1(x), ..., g_k(x), modulus), that hits each element
    fiber d / modulus times.  _block_product takes q = 1 for summed-out
    linear variables (histogram mode) and q = p^ceil(m/2) for the
    stationary-phase split (exp mode).

    Histogram mode (the modulus must then be a prime power): the residue
    histogram of the whole grid, counts[r] = sum_x (fiber d(x) / modulus)
    [r = h(x) mod d(x)], is rebuilt from one table per divisor and summed
    like the plain grid's, so the value is bit-identical to the plain
    grid's.  Exp mode: the z sum is fiber where every g_j(x) = 0 mod modulus
    and 0 elsewhere, so only those points are summed, and the total is
    multiplied by fiber.
    """
    _require_int64_residues(modulus)
    sizes = [stop - start for start, stop in domains]
    inner_start, segments, seg_size = _split_axes(sizes)
    task_count = prod(sizes[:inner_start], start=1) * segments
    mode = "hist" if modulus <= _HIST_CAP else "exp"
    if gs and mode == "hist":
        divisors, offsets = _divisor_offsets(modulus)
        if divisors[1] ** (len(divisors) - 1) != modulus:
            raise ValueError(f"the z sum is histogrammed only modulo a prime power, not {modulus}")

    polys = (h, *gs)
    spans = _split_range(task_count, max(1, workers))
    args = [
        (polys, modulus, tuple(domains), inner_start, segments, seg_size, lo, hi, mode)
        for lo, hi in spans
    ]
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
        roots = np.exp(2j * np.pi * np.arange(modulus) / modulus)
        return complex(np.sum(counts * roots))
    parts = sorted((part for _, batch in results for part in batch), key=lambda t: t[0])
    s = 0j
    c = 0j
    for _, x in parts:
        s, c = _kahan_add(s, c, x)
    return s * fiber


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


def _block_product(
    f: Polynomial, p: int, m: int, domain: Tuple[int, int], workers: int
) -> complex:
    """Normalized sum of e(f(x)/modulus) over domain^n, modulus = p^m, as a
    product of sums over variable-disjoint blocks.

    Coefficients are reduced mod modulus and vanishing terms dropped; the
    constant term c contributes the factor e(c/modulus), a variable in no
    term the factor 1, and each block of variables linked by shared terms
    one grid sum over its own n_i axes, so the work is sum_i N^{n_i} points
    with N = |domain| instead of N^n.  Block values are multiplied in
    ascending (real, imag) order, so any variable order gives the same value.

    Two exact reductions shrink a block's grid further.  Both need the
    domain to be the complete residue system [0, modulus) and the block's
    whole grid N^{n_i} to be below 2^63 (its histogram counts are int64).

    Linear variables are summed out when the modulus is histogrammed (at
    most _HIST_CAP) and each summed-out variable y_j has exponent exactly 1
    in every term that contains it, no term containing two of them.  Then
    the block is h(x) + sum_j y_j g_j(x), and by orthogonality of additive
    characters the y sum is exact, so only the remaining N^{n_i - k} points
    are visited, each standing for fiber = modulus^k grid points.  The
    rebuilt residue histogram equals the one of the whole block grid, so
    the block value is bit-identical to the plain grid's, whatever variable
    order or choice of summed-out variables.

    The stationary-phase split is taken when the modulus is above
    _HIST_CAP and m >= 2.  With q = p^ceil(m/2), write x = y + q z with y
    in [0, q)^{n_i} and z in [0, modulus/q)^{n_i}.  Since q^2 = 0 mod
    modulus and Hasse derivatives have integer coefficients,
    f(x) = f(y) + sum_j z_j q (df/dx_j)(y) mod modulus exactly, so the block
    is h = f and g_j = q df/dx_j on q^{n_i} points, each standing for
    fiber = (modulus/q)^{n_i} grid points (see _grid_sum): 5^11 points of
    x^3 mod 5^11 become 5^6.  It sums fewer points than the plain grid and
    keeps the same budget (below).  The torus (domain [1, p)) keeps the
    plain grid, and so does a complete sum with m = 1 above _HIST_CAP.

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
    points) are evaluated whole, where that inequality can fail.
    """
    modulus = p ** m
    _require_int64_residues(modulus)
    size = domain[1] - domain[0]
    if size ** f.n <= 2:
        return _exp_sum_over_grid(f, modulus, [domain] * f.n, workers) / size ** f.n
    terms = {e: c % modulus for e, c in f.terms.items() if c % modulus}
    const = terms.pop((0,) * f.n, 0)
    blocks: List[frozenset] = []
    for exps in terms:
        axes = frozenset(i for i, e in enumerate(exps) if e)
        linked = [b for b in blocks if b & axes]
        blocks = [b for b in blocks if not b & axes] + [axes.union(*linked)]
    complete = domain == (0, modulus)
    hist = modulus <= _HIST_CAP
    q = p ** ((m + 1) // 2)
    values = []
    for block in blocks:
        axes = sorted(block)
        n_b = len(axes)
        block_terms = {
            tuple(exps[a] for a in axes): c
            for exps, c in terms.items() if any(exps[a] for a in axes)
        }
        whole = complete and size ** n_b < 1 << 63
        if whole and m >= 2 and not hist:
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
        total = _grid_sum(_reduced_terms(h, modulus),
                          [_reduced_terms(g, modulus) for g in gs],
                          fiber, modulus, domains, workers)
        values.append(total / size ** n_b)
    factors = sorted(values, key=lambda z: (z.real, z.imag))
    if const:
        const -= modulus if 2 * const > modulus else 0
        factors.append(cmath.exp(2j * cmath.pi * const / modulus))
    value = factors[0] if factors else 1 + 0j
    for v in factors[1:]:
        value *= v
    return value


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
    """Normalized complete sum p^{-mn} * sum over [0, p^m)^n of e(f(x)/p^m).

    Computed as a product of sums over the variable-disjoint blocks of f mod
    p^m, each on its own grid, shrunk by two exact reductions (see
    _block_product).  When p^m is small enough to histogram, the variables
    of degree 1 in a block (exponent exactly 1 in every term that contains
    them, no two in one term) are summed out by orthogonality of characters,
    and the block's residue histogram is rebuilt exactly, so the value is
    bit-identical to the whole block grid's.  When p^m is above the
    histogram cap and m >= 2, the stationary-phase split x = y + p^ceil(m/2) z
    sums out z, so a block visits p^(ceil(m/2) n_i) points instead of
    p^(m n_i), within the same budget.
    ``term_count``, the work budget check and ``abs_error_budget`` =
    KERNEL_EPS * term_count still count the whole grid p^{mn}; the product's
    error stays under that budget (see _block_product).
    """
    _require_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    total = p ** (m * f.n)
    if total > work_budget:
        raise WorkBudgetExceeded(total, work_budget)
    value = _block_product(f, p, m, (0, p ** m), workers)
    return SumValue(value, KERNEL_EPS * total, total)


def torus_E(
    f_tau: Polynomial,
    p: int,
    *,
    workers: int = 1,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> SumValue:
    """Normalized sum over the torus {1..p-1}^n of e(f_tau(x)/p).

    Factored over variable-disjoint blocks like brute_force_S; a variable
    the restriction does not contain contributes exactly 1.  ``term_count``,
    the work budget check and ``abs_error_budget`` count the whole torus
    (p-1)^n.
    """
    _require_prime(p)
    total = (p - 1) ** f_tau.n
    if total > work_budget:
        raise WorkBudgetExceeded(total, work_budget)
    value = _block_product(f_tau, p, 1, (1, p), workers)
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


def _first_critical_point(f_tau: Polynomial, p: int) -> Optional[Tuple[int, ...]]:
    """The lexicographically first point of (F_p^x)^n at which every partial
    derivative of f_tau vanishes mod p, or None.

    The components run through _grid_residues on the torus plan of
    _split_axes, one task at a time in task order, which is lexicographic,
    so the first task holding a critical point holds the witness.  Within a
    task, a component is evaluated only while some point is still critical.
    """
    sizes = [p - 1] * f_tau.n
    inner_start, segments, seg_size = _split_axes(sizes)
    task_count = prod(sizes[:inner_start], start=1) * segments
    # an identically-zero derivative never cuts the critical locus
    comps = [_reduced_terms(c.terms, p) for c in gradient(f_tau) if c is not None]
    for task, residues in _grid_residues(comps, p, [(1, p)] * f_tau.n, inner_start,
                                          segments, seg_size, 0, task_count):
        mask = True  # f_tau has no constant term, so comps is not empty
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

    Faces with the same restriction share one scan (_first_critical_point,
    on _grid_residues in task order), and the work budget counts one torus
    per distinct restriction.
    """
    _require_prime(p)
    _require_int64_residues(p)
    restrictions = dict.fromkeys(face.restriction for face in faces)
    estimated = (p - 1) ** f.n * len(restrictions)
    if estimated > work_budget:
        raise WorkBudgetExceeded(estimated, work_budget)

    witnesses = {g: _first_critical_point(g, p) for g in restrictions}
    entries = []
    for face in faces:
        witness = witnesses[face.restriction]
        entries.append(FaceNondeg(face_id=face.id, passed=witness is None, witness=witness))
    entries.sort(key=lambda e: e.face_id)
    return NondegReport(prime=p, entries=tuple(entries))
