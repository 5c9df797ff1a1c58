"""Exponential sum kernels and mod-p nondegeneracy scans.

The grid kernels are exact integers until the last step: f is evaluated
modulo p^m on int64 blocks (per-variable power tables, innermost axes
vectorized), the residues are histogrammed, and the sum is assembled once as
counts . roots-of-unity.  When the modulus is too large to histogram, blocks
are reduced with complex exponentials and merged by compensated (Kahan)
summation in fixed ascending block order, so results are reproducible for any
worker count.  Every value carries a certified absolute error budget of
KERNEL_EPS per accumulated term.  Moduli whose residue products could wrap
int64 are refused with ModulusTooLarge before any work starts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import isqrt, prod
from typing import Dict, List, Optional, Sequence, Tuple

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
    out = np.full_like(values, 1 % modulus)
    b = values % modulus
    while e:
        if e & 1:
            out = (out * b) % modulus
        b = (b * b) % modulus
        e >>= 1
    return out


def _split_axes(sizes: Sequence[int]) -> Tuple[int, int, int]:
    """(first inner axis, segment count, segment size) for the block plan.

    Inner axes are the longest suffix whose grid fits _INNER_CAP; when even
    the last axis alone is too large (only reachable for n = 1 moduli), that
    axis is processed in segments instead.
    """
    n = len(sizes)
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


def _grid_worker(args) -> Tuple[np.ndarray, List[Tuple[int, complex]]]:
    """Process a contiguous span of tasks; one task is one outer-coordinate
    assignment (times one segment of the last axis when segmented)."""
    (terms, n, modulus, domains, inner_start, segments, seg_size, lo, hi, mode) = args
    sizes = [stop - start for start, stop in domains]
    outer_sizes = sizes[:inner_start]
    inner_axes = list(range(inner_start, n))

    def inner_domain(axis: int, seg: int) -> np.ndarray:
        start, stop = domains[axis]
        if segments > 1 and axis == n - 1:
            start = start + seg * seg_size
            stop = min(stop, start + seg_size)
        return np.arange(start, stop, dtype=np.int64)

    def build_inner(seg: int):
        """Per-term arrays over the inner block, broadcast-shaped; None means
        the term is constant on the block."""
        shape = tuple(len(inner_domain(a, seg)) for a in inner_axes)
        pow_cache: Dict[Tuple[int, int], np.ndarray] = {}
        arrays = []
        for _, exps in terms:
            arr = None
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
                arr = pw if arr is None else (arr * pw) % modulus
            arrays.append(arr)
        return shape, arrays

    # Overflow policy: accumulate raw products and reduce once if safe.
    safe_raw = len(terms) * (modulus - 1) ** 2 < 2 ** 62

    counts = np.zeros(modulus, dtype=np.int64) if mode == "hist" else None
    exp_parts: List[Tuple[int, complex]] = []
    cached = build_inner(0) if segments == 1 else None

    for task in range(lo, hi):
        outer_flat, seg = divmod(task, segments)
        coords = []
        rem = outer_flat
        for size in reversed(outer_sizes):
            rem, c = divmod(rem, size)
            coords.append(c)
        coords.reverse()
        point = [domains[j][0] + coords[j] for j in range(inner_start)]

        shape, inner_arrays = cached if cached is not None else build_inner(seg)
        acc = np.zeros(shape, dtype=np.int64)
        const = 0
        for (coef, exps), arr in zip(terms, inner_arrays):
            scalar = coef
            for j in range(inner_start):
                if exps[j]:
                    scalar = (scalar * pow(point[j], exps[j], modulus)) % modulus
            if arr is None:
                const = (const + scalar) % modulus
            elif safe_raw:
                acc += scalar * arr
            else:
                acc = (acc + scalar * arr) % modulus
        acc = (acc + const) % modulus

        if mode == "hist":
            counts += np.bincount(acc.ravel(), minlength=modulus)
        else:
            phases = acc * (2.0 * np.pi / modulus)
            exp_parts.append((task, complex(np.sum(np.cos(phases)) + 1j * np.sum(np.sin(phases)))))
    return counts, exp_parts


def _exp_sum_over_grid(
    f: Polynomial,
    modulus: int,
    domains: Sequence[Tuple[int, int]],
    workers: int,
) -> complex:
    """Unnormalized sum of exp(2 pi i f(x)/modulus) over the product grid."""
    _require_int64_residues(modulus)
    terms = tuple((coef % modulus, exps) for exps, coef in sorted(f.terms.items()))
    n = f.n
    sizes = [stop - start for start, stop in domains]
    inner_start, segments, seg_size = _split_axes(sizes)
    task_count = prod(sizes[:inner_start], start=1) * segments
    mode = "hist" if modulus <= _HIST_CAP else "exp"

    spans = _split_range(task_count, max(1, workers))
    args = [
        (terms, n, modulus, tuple(domains), inner_start, segments, seg_size, lo, hi, mode)
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
        roots = np.exp(2j * np.pi * np.arange(modulus) / modulus)
        return complex(np.sum(counts * roots))
    parts = sorted((part for _, batch in results for part in batch), key=lambda t: t[0])
    s = 0j
    c = 0j
    for _, x in parts:
        s, c = _kahan_add(s, c, x)
    return s


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
    """Normalized complete sum p^{-mn} * sum over [0, p^m)^n of e(f(x)/p^m)."""
    _require_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    total = p ** (m * f.n)
    if total > work_budget:
        raise WorkBudgetExceeded(total, work_budget)
    modulus = p ** m
    s = _exp_sum_over_grid(f, modulus, [(0, modulus)] * f.n, workers)
    return SumValue(s / total, KERNEL_EPS * total, total)


def torus_E(
    f_tau: Polynomial,
    p: int,
    *,
    workers: int = 1,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> SumValue:
    """Normalized sum over the torus {1..p-1}^n of e(f_tau(x)/p)."""
    _require_prime(p)
    total = (p - 1) ** f_tau.n
    if total > work_budget:
        raise WorkBudgetExceeded(total, work_budget)
    s = _exp_sum_over_grid(f_tau, p, [(1, p)] * f_tau.n, workers)
    return SumValue(s / total, KERNEL_EPS * total, total)


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

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "passed": self.passed,
            "faces": [
                {
                    "face_id": e.face_id,
                    "passed": e.passed,
                    "witness": list(e.witness) if e.witness else None,
                }
                for e in self.entries
            ],
        }


def _eval_terms_full(f: Polynomial, modulus: int, domains: Sequence[Tuple[int, int]]) -> np.ndarray:
    """f mod modulus on the whole product grid via one broadcast pass."""
    shape = tuple(stop - start for start, stop in domains)
    acc = np.zeros(shape, dtype=np.int64)
    for exps, coef in sorted(f.terms.items()):
        arr = None
        for axis, e in enumerate(exps):
            if not e:
                continue
            start, stop = domains[axis]
            pw = _pow_mod_array(np.arange(start, stop, dtype=np.int64), e, modulus)
            pw = pw.reshape(tuple(len(pw) if q == axis else 1 for q in range(f.n)))
            arr = pw if arr is None else (arr * pw) % modulus
        scalar = coef % modulus
        if arr is None:
            acc = (acc + scalar) % modulus
        else:
            acc = (acc + scalar * arr) % modulus
    return acc


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
    """
    _require_prime(p)
    _require_int64_residues(p)
    torus = (p - 1) ** f.n
    estimated = torus * max(len(faces), 1)
    if estimated > work_budget:
        raise WorkBudgetExceeded(estimated, work_budget)

    # Slabs of whole rows along the first axis, in lexicographic order, keep
    # each pass near _INNER_CAP points; the first slab holding a critical
    # point yields the lexicographically first witness.
    rest = [(1, p)] * (f.n - 1)
    step = max(1, _INNER_CAP // (p - 1) ** (f.n - 1))
    verdicts: Dict[Tuple[ExponentVector, ...], Optional[Tuple[int, ...]]] = {}
    entries = []
    for face in faces:
        skey = face.restriction.support
        if skey not in verdicts:
            # an identically-zero derivative never cuts the critical locus
            comps = [c for c in gradient(face.restriction) if c is not None]
            verdicts[skey] = None
            for lo in range(1, p, step):
                domains = [(lo, min(p, lo + step))] + rest
                mask = np.ones(tuple(b - a for a, b in domains), dtype=bool)
                for comp in comps:
                    mask &= _eval_terms_full(comp, p, domains) == 0
                    if not mask.any():
                        break
                if mask.any():
                    coords = np.unravel_index(int(np.argmax(mask)), mask.shape)
                    verdicts[skey] = tuple(int(c) + a for c, (a, _) in zip(coords, domains))
                    break
        witness = verdicts[skey]
        entries.append(FaceNondeg(face_id=face.id, passed=witness is None, witness=witness))
    entries.sort(key=lambda e: e.face_id)
    return NondegReport(prime=p, entries=tuple(entries))
