"""Exact Newton polyhedron at the origin: V- and H-representations, the full
face lattice, and the diagonal invariants sigma, F0 and kappa.

The polyhedron of f is conv(Supp(f)) + R_+^n.  Its H-representation is
computed by an incremental double description pass over the homogenization
cone spanned by the lifted support points and the orthant rays, in exact
integer arithmetic, from an initial simplicial cone written in closed form;
every derived quantity is an int or a Fraction.  The build computes one
table, each facet's dots over the sorted support, and reads everything else
from it: each facet's support bitmask (the support points on it), the
vertices (the support points whose tight facets no other support point
shares in full) and the checks that the two representations agree.  Faces
are canonically keyed by (vertex index set, recession axis set), which
determines a face of this class of polyhedra (pointed, recession cone equal
to the orthant); the face lattice is the closure of the facets' support
bitmasks and zero-axis bitmasks under intersection, and each face's active
facets and witness come, for all faces at once, from products of boolean
incidence matrices, checked by the same pattern keys (tight vertices, zero
axes) the lattice layer classifies with; faces on the same support points
share one restriction f_tau.  The one integer elimination, ``_row_reduce``
(which ``sums`` shares), gives face dimensions.  The Newton polyhedron of a
face restriction f_tau is conv(V_tau) + R_+^n, so sigma(f_tau) depends only
on the face's vertex set: one vertex or a segment is solved in closed form,
and only three or more vertices need a polyhedron of their own.  A
polyhedron is immutable by contract: its faces, its diagonal data, the
sigma of each vertex set and its lattice table (how many lattice points with
nu(k) <= T share each (face, N, nu), kept for the largest T requested, with
the shell of its points and each point's row in it) are derived once, on
first use, and never change what it compares equal to.
The sigmas are kept in one memo by vertex ids (``_VertexSigmas``) that the
faces share: it holds the vertices, not the polyhedron, so faces and the
polyhedron that caches them form no reference cycle, and a polyhedron is
freed as soon as its polynomial and its last outside reference are.
The lattice layer reads every k in N^n with |k| <= T from one composition
shell (``_shell``), which depends on n and T alone: it is built once for every
polyhedron and kept in the shared table store (``store.TABLES``) when it fits,
and the lattice blocks are its column slices.  A polyhedron keeps the shell
its lattice table was tallied from next to the table, so the points of any
rows are read back (``NewtonPolyhedron._row_points``) without building the
shell again or classifying a point, whether the store kept it or not.
``build_polyhedron`` keeps each polyhedron for as long as the polynomial it
was built from lives, so every call with an equal f, at any prime, shares
one polyhedron and everything derived on it.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd
from operator import mul
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Set, Tuple

import numpy as np

from .errors import BudgetExceeded, DimensionTooLarge
from .poly import ExponentVector, Polynomial, face_restriction
from .store import kept_table

#: Largest ambient dimension n that ``build_polyhedron`` admits.
DIMENSION_CAP = 8
#: Most lattice points one ``lattice_blocks`` call may classify.  Below 2^31,
#: so every nu <= T and every count of a ``LatticeTable`` fits int32.  It also
#: bounds the shell the blocks are sliced from (``_shell``, which a polyhedron
#: keeps with its lattice table), which holds at most 8 bytes a point (n bytes
#: while T <= 255), so at most 40 MB.
POINT_CAP = 5_000_000

FaceKey = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (vertex ids, 0-based recession axes)


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------

def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _primitive(vec: Sequence[int]) -> Tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in vec)


def _row_reduce(rows: List[List[int]], width: int) -> int:
    """Bring the first ``width`` columns of ``rows`` to row echelon form in
    place, by unimodular integer row operations (swaps, and Euclid on the
    rows below the pivot), applied to whole rows; return the rank.  Row i
    of the result has its pivot in a column after row i - 1's, and the rows
    from the rank on are zero in those columns."""
    n = len(rows)
    r = 0
    for c in range(width):
        if r == n:
            break
        while any(rows[i][c] for i in range(r + 1, n)):
            piv = min((i for i in range(r, n) if rows[i][c]), key=lambda i: abs(rows[i][c]))
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(r + 1, n):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        if rows[r][c]:
            r += 1
    return r


def _extreme_rays(rows: List[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Extreme rays of the pointed cone {a : row . a >= 0 for every row}.

    Incremental double description (Fukuda & Prodon, "Double Description
    Method Revisited", 1996) with the combinatorial adjacency test.  The
    rows must begin as the homogenization systems built here do: the n unit
    rows (e_c, 0), then one lifted point (v, 1).  These n + 1 rows are
    independent, and the inverse of their matrix [[I, 0], [v, 1]] is
    [[I, 0], [-v, 1]], so its columns (e_c, -v_c) for c < n and
    (0, ..., 0, 1) span the initial simplicial cone, each tight on every base
    row except its own.  Each ray then carries its zero set (the rows seen so
    far that it is tight on) as a bitmask, updated as rows are added: a kept
    ray gains the new row when it is tight on it, and a new ray, a positive
    combination of an adjacent (+, -) pair, is tight on the new row and on
    the rows both parents are tight on.
    """
    d = len(rows[0])
    n = d - 1
    unit = [tuple(int(i == c) for i in range(d)) for c in range(n)]
    assert rows[:n] == unit and rows[n][n] == 1, "rows must open with the unit rows and a lifted point"
    rays = [e[:n] + (-x,) for e, x in zip(unit, rows[n])] + [(0,) * n + (1,)]
    zeros = [((1 << d) - 1) ^ (1 << c) for c in range(d)]
    for idx in range(d, len(rows)):
        a, bit = rows[idx], 1 << idx
        vals = [_dot(a, r) for r in rays]
        if min(vals) >= 0:
            zeros = [z | bit if v == 0 else z for z, v in zip(zeros, vals)]
            continue
        merged: Dict[Tuple[int, ...], int] = {
            r: z | bit if v == 0 else z for r, z, v in zip(rays, zeros, vals) if v >= 0
        }
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        for ip in plus:
            for im in minus:
                z = zeros[ip] & zeros[im]
                if any(k != ip and k != im and z & zk == z for k, zk in enumerate(zeros)):
                    continue
                combo = tuple(
                    vals[ip] * rm - vals[im] * rp
                    for rp, rm in zip(rays[ip], rays[im])
                )
                merged[_primitive(combo)] = z | bit
        rays, zeros = list(merged), list(merged.values())
    return rays


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Facet:
    """Supporting inequality normal . x >= offset with primitive normal >= 0."""

    normal: ExponentVector
    offset: int


@dataclass(frozen=True)
class Face:
    """A face of the polyhedron, canonically (vertex ids, recession axes).

    ``witness_k`` is the sum of the active facet normals; re-evaluating the
    minimization at witness_k recovers exactly this face.  ``recession_axes``
    are 0-based internally (serialization emits them 1-based).
    ``vertex_sigmas`` is the sigma memo that all faces of the polyhedron
    share, not the polyhedron itself, so faces and the polyhedron that caches
    them form no reference cycle; it takes no part in equality, hashing or
    repr.
    """

    id: int
    vertex_ids: Tuple[int, ...]
    recession_axes: Tuple[int, ...]
    dim: int
    active_facet_ids: Tuple[int, ...]
    witness_k: ExponentVector
    restriction: Polynomial
    vertex_sigmas: "_VertexSigmas" = field(compare=False, repr=False)

    @property
    def key(self) -> FaceKey:
        return (self.vertex_ids, self.recession_axes)

    @property
    def sigma_tau(self) -> Fraction:
        """sigma(f_tau), which depends only on the face's vertex set;
        computed on first read and kept in the shared memo."""
        return self.vertex_sigmas[self.vertex_ids]


class Diagonal(NamedTuple):
    """What the facets alone say about the diagonal: sigma, t* = 1/sigma,
    kappa = n - dim F0 and the key of the face F0 where the diagonal first
    meets the polyhedron."""

    sigma: Fraction
    t_star: Fraction
    kappa: int
    f0_key: FaceKey


@dataclass(frozen=True)
class LatticePoint:
    k: ExponentVector
    nu: int
    N: int
    face_id: int


@dataclass(frozen=True)
class NewtonPolyhedron:
    """The polyhedron; faces and diagonal data are derived once, on first use.

    Bit s of ``support_masks[j]`` is set when the s-th point of the sorted
    support of ``source`` lies on facet j.  The masks follow from the other
    fields, so they take no part in equality, hashing or repr.
    """

    n: int
    vertices: Tuple[ExponentVector, ...]
    facets: Tuple[Facet, ...]
    source: Polynomial
    support_masks: Tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def faces(self) -> Tuple[Face, ...]:
        """Every face, sorted by (dim, key), so a face's id is its position."""
        return _face_lattice(self)

    @cached_property
    def face_index(self) -> Dict[FaceKey, int]:
        """Face key -> face id."""
        return {face.key: face.id for face in self.faces}

    @cached_property
    def diagonal(self) -> Diagonal:
        """sigma, t*, kappa and the F0 key, read from the facets alone."""
        return _diagonal(self)

    def classify(self, k: Sequence[int]) -> Tuple[int, int, FaceKey]:
        """(nu, N, face key) for a nonnegative integer functional k: N is
        the minimum of k over P, and the key names the face where it is
        attained (``face_by_key``)."""
        if len(k) != self.n:
            raise ValueError(f"k has {len(k)} entries, the polyhedron has dimension {self.n}")
        if any(x < 0 for x in k):
            raise ValueError("k must have nonnegative entries")
        dots = [_dot(k, v) for v in self.vertices]
        N = min(dots)
        vids = tuple(i for i, d in enumerate(dots) if d == N)
        axes = tuple(j for j, kj in enumerate(k) if kj == 0)
        return sum(k), N, (vids, axes)

    def face_by_key(self, key: FaceKey) -> Face:
        return self.faces[self.face_index[key]]

    def face_by_id(self, face_id: int) -> Face:
        """The face with this id; ValueError when there is none."""
        if not 0 <= face_id < len(self.faces):
            raise ValueError(f"no face with id {face_id}")
        return self.faces[face_id]

    @cached_property
    def _vertex_sigmas(self) -> "_VertexSigmas":
        """The sigma memo by vertex ids that the faces share."""
        return _VertexSigmas(self.vertices, self.n, self.diagonal.sigma)

    @cached_property
    def _lattice_tables(self) -> Dict[int, Tuple["LatticeTable", np.ndarray, np.ndarray]]:
        # at most one entry: T -> the table, rows and shell of the largest T requested so far
        return {}

    def lattice_table(self, T: int) -> "LatticeTable":
        """The (face id, N, nu) triples of the lattice points with nu(k) <= T
        and how many points share each (``LatticeTable``).

        None of it depends on a prime, so one table is kept, at the largest T
        requested, with the shell its blocks were sliced from (``_shell(n,
        T)``, built once per build) and each shell point's row in it
        (``_row_points`` reads them).  A request at a larger T lets that go
        and tallies ``lattice_blocks(self, T)`` from nu = 0 (a build that
        raises keeps nothing).  Every request returns the kept rows with
        nu <= T, N cast by this T's own rule (``LatticeTable``), so a table's
        columns do not depend on which T was asked first.
        ``lattice_blocks``'s checks run on every request, so ValueError and
        BudgetExceeded fire as if nothing were kept.
        """
        _check_lattice(self, T)
        memo = self._lattice_tables
        if T > next(iter(memo), -1):
            memo.clear()  # the smaller table is let go before the build
            shell = _shell(self.n, T)  # built once, for the blocks and to be kept
            memo[T] = (*_count_lattice(self, T, _classified_blocks(self, T, shell)), shell)
        (kept, (table, _, _)), = memo.items()
        if T == kept:
            return table
        keep = table.nu <= T
        face_id, N, nu, count = (column[keep] for column in table)
        return LatticeTable(face_id, N.astype(_N_dtype(self, T), copy=False), nu, count)

    def _row_points(self, T: int, flags: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The points with nu(k) <= T on the rows of ``lattice_table(T)`` that
        ``flags`` (a boolean per row) marks, read after that request, in
        lexicographic order (the order a scan gives) and without classifying
        any: each point's k (int64, one point per row) and its row in
        ``lattice_table(T)``, in the dtype of the kept rows (the least
        unsigned dtype that holds the kept table's row count)."""
        (table, rows, shell), = self._lattice_tables.values()
        keep = table.nu <= T
        flagged = np.zeros(len(keep), bool)
        flagged[keep] = flags
        at = np.flatnonzero(flagged[rows])  # the flagged points' shell columns, in scan order
        row = rows[at] - np.flatnonzero(~keep).searchsorted(rows[at])  # less the rows above T before it
        return shell[:, at].T.astype(np.int64), row.astype(rows.dtype)


class _VertexSigmas(dict):
    """sigma of conv(V) + R_+^n by the ids of the vertices V of a polyhedron,
    each computed on first request (``__missing__``).

    This is sigma(f_tau) for every face tau with exactly these vertices:
    Supp(f_tau) lies in tau, inside conv(V_tau) + R_+^n, and holds V_tau, so
    Newton(f_tau) = conv(V_tau) + R_+^n.  The whole vertex set spans the
    polyhedron itself, so it is seeded with the polyhedron's own sigma.  It
    holds only the vertices and n, never the polyhedron.
    """

    def __init__(self, vertices: Tuple[ExponentVector, ...], n: int, sigma: Fraction):
        super().__init__({tuple(range(len(vertices))): sigma})
        self.vertices = vertices
        self.n = n

    def __missing__(self, vertex_ids: Tuple[int, ...]) -> Fraction:
        return self.setdefault(vertex_ids, 1 / _hull_t_star([self.vertices[i] for i in vertex_ids], self.n))


def _hull_t_star(points: Sequence[ExponentVector], n: int) -> Fraction:
    """t* = min over x in conv(points) of max_j x_j, where the diagonal first
    meets conv(points) + R_+^n.

    One point: its largest entry.  Two points: the segment's minimum, in
    closed form (``_segment_t_star``).  Three or more: the diagonal of the
    polyhedron of the polynomial with exactly these points as support, in
    P's dimension.  That build reads only facets, never faces, so it does
    not recurse.
    """
    if len(points) == 1:
        return Fraction(max(points[0]))
    if len(points) == 2:
        return _segment_t_star(*points)
    return build_polyhedron(Polynomial(n, dict.fromkeys(points, 1))).diagonal.t_star


def _segment_t_star(a: ExponentVector, b: ExponentVector) -> Fraction:
    """min over lam in [0, 1] of max_j (a_j + lam * (b_j - a_j)), exactly.

    The upper envelope of the n lines is convex and piecewise linear, so its
    minimum is attained at lam = 0, at lam = 1 or where two lines cross.
    Every candidate lam = num/den (den > 0) is scored in integers, starting
    from lam = 0:
    max_j (a_j * den + num * slope_j) / den, compared by cross-multiplying.
    """
    slopes = [y - x for x, y in zip(a, b)]
    candidates = [(1, 1)]
    for i, j in combinations(range(len(a)), 2):
        num, den = a[j] - a[i], slopes[i] - slopes[j]
        if den < 0:
            num, den = -num, -den
        if 0 < num < den:
            candidates.append((num, den))
    best_val, best_den = max(a), 1
    for num, den in candidates:
        val = max(x * den + num * d for x, d in zip(a, slopes))
        if val * best_den < best_val * den:
            best_val, best_den = val, den
    return Fraction(best_val, best_den)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

#: Each live polynomial -> its polyhedron.  A polyhedron holds an equal copy
#: of its polynomial, never the key itself, so an entry dies with its key.
_BUILT: "weakref.WeakKeyDictionary[Polynomial, NewtonPolyhedron]" = weakref.WeakKeyDictionary()


def build_polyhedron(f: Polynomial) -> NewtonPolyhedron:
    """Exact V- and H-representation of conv(Supp(f)) + R_+^n.

    The polyhedron depends on f alone, so it is built once and shared: while
    f lives, every call with a polynomial equal to f returns the same object,
    with its faces, restrictions, face sigmas and lattice table as far as
    they have been derived.  It is immutable by contract; ``source`` is an
    equal copy of f.  Requires f nonconstant with f(0) = 0 and
    n <= DIMENSION_CAP.
    """
    P = _BUILT.get(f)
    if P is None:
        P = _BUILT[f] = _build(f)
    return P


def _build(f: Polynomial) -> NewtonPolyhedron:
    """The polyhedron of f, built afresh (``build_polyhedron`` shares it).

    Facets are the extreme rays of the homogenization cone
    (``_extreme_rays``); normals come out primitive with nonnegative
    entries.  Each facet's dots over the sorted support are computed once,
    as one table, and everything else is read from it: the offset must be
    their minimum (so no support point lies outside), and the points
    attaining it form the facet's support mask.  A support point is a vertex
    iff no other support point is tight on every facet it is tight on: the
    facets tight at s cut out the smallest face containing s, which is {s}
    for a vertex and otherwise holds a vertex of this pointed polyhedron,
    and every vertex is a support point.  The masks then check what is left
    of the duality of the two representations: some offset is positive (the
    origin lies outside) and every facet holds a vertex.
    """
    if f.n > DIMENSION_CAP:
        raise DimensionTooLarge(f"dimension {f.n} exceeds cap {DIMENSION_CAP}")
    if f.has_constant_term:
        raise ValueError("f(0) must be 0 for Newton polyhedron analysis")
    support = f.support
    rows = [tuple(int(i == j) for i in range(f.n)) + (0,) for j in range(f.n)]
    rows += [v + (1,) for v in support]
    facets = sorted(
        (Facet(ray[:-1], -ray[-1]) for ray in _extreme_rays(rows) if any(ray[:-1])),
        key=lambda F: F.normal,
    )  # a ray with k = 0 is the homogenization facet t >= 0

    masks = []
    tight = [0] * len(support)  # bit j of tight[s]: support point s lies on facet j
    for j, F in enumerate(facets):
        dots = [_dot(F.normal, v) for v in support]
        assert F.offset == min(dots), f"facet {F} does not support the polyhedron"
        on = [s for s, x in enumerate(dots) if x == F.offset]
        for s in on:
            tight[s] |= 1 << j
        masks.append(sum(1 << s for s in on))
    on_vertex = _mask(
        not any(t != s and ts & tt == ts for t, tt in enumerate(tight))
        for s, ts in enumerate(tight)
    )
    assert on_vertex, "polyhedron must have at least one vertex"
    assert any(F.offset > 0 for F in facets), "origin exclusion demands a positive offset"
    assert all(m & on_vertex for m in masks), "every facet holds a vertex"
    return NewtonPolyhedron(
        n=f.n,
        vertices=tuple(support[s] for s in _bits(on_vertex, len(support))),
        facets=tuple(facets),
        source=copy.copy(f),
        support_masks=tuple(masks),
    )


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

def _face_dim(P: NewtonPolyhedron, key: FaceKey) -> int:
    vids, axes = key
    if len(vids) == 1:  # a vertex plus its recession rays, which are independent
        return len(axes)
    v0 = P.vertices[vids[0]]
    rows = [[a - b for a, b in zip(P.vertices[i], v0)] for i in vids[1:]]
    rows += [[int(i == a) for i in range(P.n)] for a in axes]
    return _row_reduce(rows, P.n)


def _mask(flags: Iterable[bool]) -> int:
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def _bits(mask: int, width: int) -> Tuple[int, ...]:
    return tuple(i for i in range(width) if mask >> i & 1)


def _incidence(masks: Sequence[int], width: int) -> np.ndarray:
    """A boolean matrix with a row per mask, holding bit i of it in column i."""
    dtype = np.int64 if width <= 63 else object
    return np.array(masks, dtype=dtype).reshape(-1, 1) >> np.arange(width) & 1 != 0


def _members(incidence: np.ndarray) -> List[Tuple[int, ...]]:
    """The columns set in each row of a boolean matrix, in order."""
    cols = np.nonzero(incidence)[1].tolist()
    ends = np.cumsum(np.count_nonzero(incidence, axis=1)).tolist()
    return [tuple(cols[a:b]) for a, b in zip([0] + ends, ends)]


def _face_masks(P: NewtonPolyhedron, pairs: Sequence[Tuple[int, int]]) -> Set[Tuple[int, int]]:
    """Every face as a (support mask, axis mask) pair: the whole polyhedron
    (every support point, every axis), closed under intersection with each
    facet's pair (its support mask, the axes where its normal is 0).

    A nonempty intersection of facets is the face their summed normal
    minimizes, and its pair is the intersection of theirs: the support points
    on the face and the axes it recedes along.  The intersection is empty
    exactly when its support mask is, since every nonempty face holds a
    vertex and vertices are support points.  A face's vertices are the
    vertex bits of its support mask, so distinct faces have distinct pairs
    and the closure meets every face once.  The cost is about faces x facets
    mask operations.
    """
    whole = ((1 << len(P.source.terms)) - 1, (1 << P.n) - 1)
    seen = {whole}
    todo = [whole]
    while todo:
        smask, amask = todo.pop()
        for fs, fa in pairs:
            meet = (smask & fs, amask & fa)
            if meet[0] and meet not in seen:
                seen.add(meet)
                todo.append(meet)
    return seen


def _face_lattice(P: NewtonPolyhedron) -> Tuple[Face, ...]:
    support = P.source.support
    nf = len(P.facets)
    pairs = [(m, _mask(x == 0 for x in F.normal)) for m, F in zip(P.support_masks, P.facets)]
    found = list(_face_masks(P, pairs))
    # incidences, one row per face and then one per facet: the support points
    # on it and the axes it recedes along
    on = _incidence([smask for smask, _ in found] + [fs for fs, _ in pairs], len(support))
    free = _incidence([amask for _, amask in found] + [fa for _, fa in pairs], P.n)
    vertex_at = [support.index(v) for v in P.vertices]  # vertex i is support point vertex_at[i]
    keys = list(zip(_members(on[:-nf, vertex_at]), _members(free[:-nf])))
    ranked = sorted((_face_dim(P, key), key, i) for i, key in enumerate(keys))
    order = [i for _, _, i in ranked]
    on_face, free_face = on[order], free[order]
    # facet j contains a face when none of the face's support points is off
    # j and none of its axes is one that j's normal bounds
    active = ~((on_face @ ~on[-nf:].T) | (free_face @ ~free[-nf:].T))
    # every witness is a sum of normals, so |witness|_1 <= the sum of all
    # their entries, which bounds the products as |k|_1 <= T does
    patterns = _Patterns(P, sum(sum(F.normal) for F in P.facets))
    normals = np.array([F.normal for F in P.facets], dtype=patterns.dtype)
    witnesses = active.astype(patterns.dtype) @ normals
    _, recheck = patterns(witnesses.T)
    assert (recheck == patterns.pack(on_face[:, vertex_at].T, free_face.T)).all(), (
        "witness does not recover its face"
    )
    restrictions = {}  # support mask -> f_tau, one per distinct support mask
    faces = []
    for (dim, (vids, axes), i), active_ids, witness in zip(ranked, _members(active), witnesses.tolist()):
        smask = found[i][0]
        restr = restrictions.get(smask)
        if restr is None:
            points = [support[s] for s in _bits(smask, len(support))]
            restr = restrictions[smask] = face_restriction(P.source, points)
            assert restr is not None, "every face of the Newton polyhedron meets Supp(f)"
        faces.append(Face(len(faces), vids, axes, dim, active_ids, tuple(witness), restr, P._vertex_sigmas))
    return tuple(faces)


def enumerate_faces(P: NewtonPolyhedron) -> List[Face]:
    """The complete face lattice, including the polyhedron itself (witness 0),
    sorted by (dim, key); computed on first use and kept on P.

    The faces come from the closure in ``_face_masks``; their active facets
    and witnesses from products of boolean incidence matrices, for every
    face at once, and minimizing over P at every witness (``_Patterns``)
    must recover every face.  Only the dimension (``_face_dim``) is found
    face by face.  A face's sigma_tau = sigma(f_tau) is computed when first
    read, once per distinct vertex set of P, and kept in one memo that all of
    P's faces share (``_VertexSigmas``); the faces hold that memo, not P.
    """
    return list(P.faces)


def _diagonal(P: NewtonPolyhedron) -> Diagonal:
    """t* is the exact maximum of offset/nu(normal) over positive-offset
    facets; the diagonal point (t*, ..., t*) lies on exactly the facets
    active at F0, and the sum of their normals classifies to F0's key."""
    t_star = max(Fraction(F.offset, sum(F.normal)) for F in P.facets if F.offset > 0)
    active = [j for j, F in enumerate(P.facets) if t_star * sum(F.normal) == F.offset]
    witness = tuple(sum(P.facets[j].normal[i] for j in active) for i in range(P.n))
    _, _, key = P.classify(witness)
    return Diagonal(1 / t_star, t_star, P.n - _face_dim(P, key), key)


def f0_face(P: NewtonPolyhedron) -> Face:
    """The face where the diagonal first meets the polyhedron."""
    return P.face_by_key(P.diagonal.f0_key)


def enumerate_lattice_points(P: NewtonPolyhedron, T: int) -> Iterator[LatticePoint]:
    """Every k in N^n with nu(k) <= T, exactly once, tagged (nu, N, face id),
    in lexicographic order of k.

    The total count is C(T+n, n); BudgetExceeded fires before any point is
    produced if that exceeds POINT_CAP.  This is a flattening of
    ``lattice_blocks``, which classifies LATTICE_BLOCK (2^12) columns of the
    composition shell at a time, in int64 while T * max|v|_1 stays below 2^62
    and with Python integers (dtype=object) otherwise, so no product k . v
    can wrap.
    """
    blocks = lattice_blocks(P, T)
    return (
        LatticePoint(tuple(k), nu, N, face_id)
        for blk in blocks
        for k, nu, N, face_id in zip(
            blk.k.tolist(), blk.nu.tolist(), blk.N.tolist(), blk.face_id.tolist()
        )
    )


#: Rows per block of ``lattice_blocks`` (the last block may hold fewer); bounds
#: the per-block temporaries and the int64 copy of each slice of the shell.
LATTICE_BLOCK = 1 << 12

#: The lattice layer computes in int64 only when it has proven every value
#: below this bound, so one more addition of two such values cannot wrap;
#: otherwise the same code runs with dtype=object (Python integers).
INT64_SAFE = 1 << 62


class LatticeBlock(NamedTuple):
    """Consecutive lattice points as parallel arrays: k (rows x n), nu, N and
    face id.  N has dtype object when ``N_bound`` reaches INT64_SAFE."""

    k: np.ndarray
    nu: np.ndarray
    N: np.ndarray
    face_id: np.ndarray


class LatticeTable(NamedTuple):
    """Each distinct (face id, N, nu) of the lattice points with nu(k) <= T,
    as parallel arrays, and ``count``, the number of points that have it,
    sorted by (face id, nu, N).  Face id, nu and count are int32: the count
    and T are at most C(T+n, n) <= POINT_CAP.  N has dtype object when
    ``N_bound(P, T)`` reaches INT64_SAFE and int64 otherwise, also when the
    table is filtered from one kept at a larger T.  The polyhedron keeps the
    table of its largest T together with its shell and each point's row in
    it, so the points behind any rows are read back
    (``NewtonPolyhedron._row_points``) without classifying a point again."""

    face_id: np.ndarray
    N: np.ndarray
    nu: np.ndarray
    count: np.ndarray


def N_bound(P: NewtonPolyhedron, T: int) -> int:
    """T * max|v|_1 over the vertices: an upper bound on N(k) when nu(k) <= T."""
    return T * max(sum(v) for v in P.vertices)


def _N_dtype(P: NewtonPolyhedron, T: int) -> type:
    """The dtype of N (and of the products k . v) at T: int64 when
    ``N_bound(P, T)`` is below INT64_SAFE, Python integers otherwise."""
    return np.int64 if N_bound(P, T) < INT64_SAFE else object


def lattice_blocks(P: NewtonPolyhedron, T: int) -> Iterator[LatticeBlock]:
    """The points of ``enumerate_lattice_points`` in the same order, as blocks
    of LATTICE_BLOCK rows, the last one holding what is left.

    The checks (``_check_lattice``) run and the shell ``_shell(n, T)`` is
    read at the call.  Block i is its column slice [i * LATTICE_BLOCK,
    (i + 1) * LATTICE_BLOCK), cast to int64, so k and nu are int64.
    Each block is classified at once: N is each point's minimum of k . v over
    the vertices, and the pattern (vertices attaining the minimum, zero
    coordinates of k) is looked up by one ``np.searchsorted`` in the sorted
    pattern keys of the faces.  A pattern that matches no face raises
    KeyError.  The products k . v are int64 when ``N_bound`` is below
    INT64_SAFE and Python integers otherwise.
    """
    _check_lattice(P, T)
    return _classified_blocks(P, T, _shell(P.n, T))


def _check_lattice(P: NewtonPolyhedron, T: int) -> None:
    """The checks of ``lattice_blocks`` and of every ``lattice_table``
    request: T >= 0 and C(T+n, n) <= POINT_CAP."""
    if T < 0:
        raise ValueError("T must be >= 0")
    count = comb(T + P.n, P.n)
    if count > POINT_CAP:
        raise BudgetExceeded(f"{count} lattice points exceed cap {POINT_CAP}")


@kept_table
def _shell(n: int, T: int) -> np.ndarray:
    """Every k in N^n with |k| <= T, in lexicographic order, one column each.

    It depends on no polyhedron and no prime, so it is kept read-only in the
    shared table store, in the least unsigned dtype that holds T (uint8 up to
    T = 255: n bytes a point, an eighth of int64).  It is filled in place, one
    first entry v at a time, from the kept shell of n - 1 entries and
    |k| <= T - v, so every shell of a smaller size is built once and shared.
    """
    if n == 1:
        return np.arange(T + 1, dtype=np.min_scalar_type(T)).reshape(1, -1)
    K = np.empty((n, comb(T + n, n)), dtype=np.min_scalar_type(T))
    lo = 0
    for v in range(T + 1):
        tails = _shell(n - 1, T - v)
        hi = lo + tails.shape[1]
        K[0, lo:hi] = v
        K[1:, lo:hi] = tails
        lo = hi
    return K


class _Patterns:
    """How nonnegative functionals k with |k|_1 <= T classify on P, in bulk.

    Called on K, which holds one k per column, it returns each k's minimum
    N = min_v k . v over the vertices and its pattern key, which has bit i
    set for each vertex i attaining N and bit nv + j for each k_j = 0 (the
    face key ``classify`` names, as one integer; ``key`` encodes a face
    key the same way).  The products are int64 (``dtype``) when
    ``N_bound(P, T)`` is below INT64_SAFE and Python integers otherwise, so
    none can wrap; the keys are int64 (``key_dtype``) when nv + n bits fit
    and Python integers otherwise.  Both choices are made here for every
    caller.
    """

    def __init__(self, P: NewtonPolyhedron, T: int):
        n, self.nv = P.n, len(P.vertices)
        self.dtype = _N_dtype(P, T)
        self.key_dtype = np.int64 if 1 << (self.nv + n) <= INT64_SAFE else object
        self.V = np.array(P.vertices, dtype=self.dtype)
        self.vertex_bits = np.array([1 << i for i in range(self.nv)], dtype=self.key_dtype)
        self.axis_bits = np.array([1 << (self.nv + j) for j in range(n)], dtype=self.key_dtype)

    def key(self, key: FaceKey) -> int:
        vids, axes = key
        return sum(1 << i for i in vids) + sum(1 << (self.nv + j) for j in axes)

    def pack(self, tight: np.ndarray, zero: np.ndarray) -> np.ndarray:
        """The keys of boolean columns: tight vertices (nv rows), zero axes (n rows)."""
        return self.vertex_bits @ tight + self.axis_bits @ zero

    def __call__(self, K: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # one k per column, so every reduction runs along long rows
        dots = self.V @ K.astype(self.dtype, copy=False)
        N = np.minimum.reduce(dots, axis=0)
        return N, self.pack(dots == N, K == 0)


def _classified_blocks(P: NewtonPolyhedron, T: int, K: np.ndarray) -> Iterator[LatticeBlock]:
    """The blocks of ``lattice_blocks``, whose checks run first: the column
    slices of LATTICE_BLOCK points of K, the shell ``_shell(n, T)``, each
    cast to int64 and classified by one ``_Patterns`` call and one
    sorted-key lookup."""
    n, nv = P.n, len(P.vertices)
    patterns = _Patterns(P, T)
    keyed = sorted((patterns.key(face.key), face.id) for face in P.faces)
    face_keys = np.array([key for key, _ in keyed], dtype=patterns.key_dtype)
    face_ids = np.array([face_id for _, face_id in keyed], dtype=np.int64)
    for lo in range(0, K.shape[1], LATTICE_BLOCK):
        block = K[:, lo:lo + LATTICE_BLOCK].astype(np.int64)
        N, keys = patterns(block)
        at = np.minimum(np.searchsorted(face_keys, keys), len(face_keys) - 1)
        found = face_keys[at] == keys
        if not found.all():
            key = int(keys[np.argmin(found)])
            raise KeyError((_bits(key, nv), _bits(key >> nv, n)))
        yield LatticeBlock(block.T, np.add.reduce(block, axis=0), N, face_ids[at])


def _count_lattice(P: NewtonPolyhedron, T: int,
                   blocks: Iterable[LatticeBlock]) -> Tuple[LatticeTable, np.ndarray]:
    """The ``LatticeTable`` of P at T, tallied from ``blocks`` (those of
    ``lattice_blocks(P, T)``, the column slices of a shell ``_shell(n, T)``),
    and its ``rows``: ``rows[j]`` is the table row of the point in column j
    of that shell.

    Each point gets the key (face id * (T+1) + nu) * (N_bound+1) + N, which
    orders the triples, decodes back to them and is below span =
    faces * (T+1) * (N_bound+1).  Each block's keys are written into one
    array of a key per point and tallied by one ``np.unique`` as the block
    passes; the block tallies are merged once at the end, and then each
    point's key is turned into its row, LATTICE_BLOCK keys at a time: by a
    lookup array indexed by key when span is at most half the point count
    (near the point cap, where it takes a fraction of the time), by
    ``np.searchsorted`` in the table's keys otherwise.  ``rows`` has the
    least unsigned dtype that holds the row count (uint16 below 65,536
    rows), so no array of machine-word indices over every point is built.
    Keys are int32 when span allows, since they sort faster, int64 while
    span is proven below INT64_SAFE, and Python integers (dtype=object)
    otherwise, so no key or N can wrap.
    """
    bound = N_bound(P, T)
    span = len(P.faces) * (T + 1) * (bound + 1)
    wide = np.int64 if span <= INT64_SAFE else object
    key_dtype = np.int32 if span <= 1 << 31 else wide
    point_keys = np.empty(comb(T + P.n, P.n), key_dtype)
    tallies, lo = [], 0  # per block: its sorted distinct keys and their counts
    for blk in blocks:
        key = point_keys[lo:lo + len(blk.nu)]
        key[:] = (blk.face_id.astype(wide, copy=False) * (T + 1) + blk.nu) * (bound + 1) + blk.N
        tallies.append(np.unique(key, return_counts=True))
        lo += len(key)
    distinct, block_counts = zip(*tallies)
    keys, inverse = np.unique(np.concatenate(distinct), return_inverse=True)
    counts = np.bincount(inverse, weights=np.concatenate(block_counts))  # exact: below 2^53
    rows = np.empty(len(point_keys), np.min_scalar_type(len(keys) - 1))
    if 2 * span <= len(rows):  # a lookup by key, at most half an entry a point
        lookup = np.empty(span, rows.dtype)
        lookup[keys] = np.arange(len(keys))
        find = lookup.__getitem__
    else:
        find = keys.searchsorted
    for lo in range(0, len(rows), LATTICE_BLOCK):
        rows[lo:lo + LATTICE_BLOCK] = find(point_keys[lo:lo + LATTICE_BLOCK])
    keys = keys.astype(wide)  # np.divmod refuses dtype=object
    face_nu, N = keys // (bound + 1), keys % (bound + 1)
    face_id, nu = face_nu // (T + 1), face_nu % (T + 1)
    return LatticeTable(
        face_id.astype(np.int32),
        N.astype(_N_dtype(P, T), copy=False),
        nu.astype(np.int32),
        counts.astype(np.int32),
    ), rows
