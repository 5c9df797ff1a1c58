"""Seeded inputs and one timed pass per benchmark workload.

Each workload has two set-up phases.  ``make_texts`` draws the inputs from
the seed as polynomial texts (the random families are rejection-sampled to a
fixed shape, so the cost of a pass does not depend on the seed); ``prepare``
parses them.  Its function in ``PASSES`` then makes one pass over the prepared
inputs through the public padicsums API and checks every output against an
oracle.

All library calls go through module attributes (``faceformula.verify_formula``
rather than an imported name), so the tracer's wrappers are seen when they are
installed and nothing is changed when they are not.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from padicsums import bounds, cli, faceformula, newton, poly, sums

from gauges import slowdown

CORPUS = ("x*y", "x^2+y^3", "x*y+z*u", "x*y+z*u+x*z+2*y*u", "x^3+y^3+z^3")
EPS = Fraction(1, 10 ** 8)


@dataclass
class PassResult:
    """Outcome of one pass.

    ``items`` is the workload's unit of work: cells, lattice points, grid
    points or faces.  ``seconds`` holds the time of the pass's operations by
    kind and ``norm_s`` the same in normalized seconds: "main" is the work at
    the workload's worker count, "serial" the same work again at one worker
    (grid_kernel only).
    """

    items: int
    seconds: Dict[str, float]
    norm_s: Dict[str, float]
    attempted: int
    failed: int

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def wall_norm_s(self) -> float:
        return sum(self.norm_s.values())

    def per_s(self, kind: str, norm: bool) -> float:
        times = self.norm_s if norm else self.seconds
        return self.items / times.get(kind, times["main"])


class _Recorder:
    """Times the operations of one pass and counts the operations and
    oracle checks attempted and failed.

    The gauges that drift like the workload's own work are timed between
    operations, and each operation's time is also recorded divided by the
    mean of the slowdowns measured on either side of it: in normalized
    seconds.
    """

    def __init__(self, gauges: Tuple[str, ...]) -> None:
        self.attempted = 0
        self.failed = 0
        self.seconds: Dict[str, float] = defaultdict(float)
        self.norm_s: Dict[str, float] = defaultdict(float)
        self._gauges = gauges
        self._slowdown = slowdown(gauges)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {what}", flush=True)

    @contextlib.contextmanager
    def operation(self, what: str, kind: str = "main"):
        """One timed operation; an exception counts as a failure and the pass
        goes on with the next operation."""
        start = perf_counter()
        try:
            yield
        except Exception:  # the benchmark must finish and report the failure
            self.attempted += 1
            self.failed += 1
            print(f"bench: {what} raised:\n{traceback.format_exc()}", flush=True)
        finally:
            elapsed = perf_counter() - start
            before, self._slowdown = self._slowdown, slowdown(self._gauges)
            self.seconds[kind] += elapsed
            self.norm_s[kind] += elapsed * 2 / (before + self._slowdown)

    def result(self, items: int) -> PassResult:
        return PassResult(items, dict(self.seconds), dict(self.norm_s), self.attempted, self.failed)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _random_text(rng: random.Random, n: int, terms: int, max_exp: int) -> str:
    """A random polynomial using all n variables, with f(0) = 0."""
    while True:
        exps = {}
        while len(exps) < terms:
            e = tuple(rng.randint(0, max_exp) for _ in range(n))
            if any(e):
                exps[e] = rng.choice([c for c in range(-9, 10) if c])
        if all(any(e[j] for e in exps) for j in range(n)):
            return poly.render(poly.Polynomial(n, exps))


def _shape(text: str) -> Tuple[int, int]:
    P = newton.build_polyhedron(poly.parse_polynomial(text))
    return len(P.vertices), len(P.facets)


def _staircase_text(rng: random.Random, facets: int) -> str:
    """A plane curve whose Newton polyhedron has exactly ``facets`` facets.

    The support is a convex staircase: facets - 2 edges with distinct slopes,
    walked from (0, Y) down to (X, 0); the two coordinate rays add the other
    two facets.  Every vertex carries a random nonzero coefficient.
    """
    slopes = [(a, b) for a in range(1, 7) for b in range(1, 7) if gcd(a, b) == 1]
    edges = sorted(rng.sample(slopes, facets - 2), key=lambda ab: Fraction(ab[1], ab[0]), reverse=True)
    y = sum(b for _, b in edges)
    points = [(0, y)]
    for a, b in edges:
        x0, y0 = points[-1]
        points.append((x0 + a, y0 - b))
    terms = {pt: rng.choice([c for c in range(-9, 10) if c]) for pt in points}
    return poly.render(poly.Polynomial(2, terms))


def _pick(rng: random.Random, n: int, max_exp: int, pool: int, wanted: List[Callable]) -> List[str]:
    """One random 8-term polynomial per predicate in ``wanted``, each tested
    on its (vertex count, facet count).  A fixed pool of candidates is always
    drawn first, so the set-up cost hardly depends on the seed; more are drawn
    only if the pool leaves a predicate unmet."""
    candidates = [_random_text(rng, n, 8, max_exp) for _ in range(pool)]
    shapes = [_shape(text) for text in candidates]
    picked = []
    for ok in wanted:
        idx = next((i for i, shape in enumerate(shapes) if shape and ok(shape)), None)
        while idx is None:
            candidates.append(_random_text(rng, n, 8, max_exp))
            shapes.append(_shape(candidates[-1]))
            idx = len(shapes) - 1 if ok(shapes[-1]) else None
        picked.append(candidates[idx])
        shapes[idx] = None  # each candidate is used once
    return picked


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload; FULL is the benchmark, TINY the smoke test."""

    sweep_corpus: Tuple[str, ...]
    sweep_primes: Tuple[int, ...]
    sweep_budget: int
    nu_corpus: Tuple[str, ...]
    nu_T: int
    nu_random: int                      # random n=3 polynomials, 4 vertices, 8 facets
    grid_hist: Tuple[int, int]          # x*y+z*u at (p, m)
    grid_exp: Tuple[int, int]           # x at (p, m), modulus above the histogram cap
    staircase_facets: Tuple[int, ...]
    random_facets: Tuple[Tuple[int, Tuple[int, ...]], ...]  # (n, facet counts), one each


FULL = Sizes(
    sweep_corpus=CORPUS,
    sweep_primes=(2, 3, 5, 7, 11, 13),
    sweep_budget=200_000_000,
    nu_corpus=CORPUS,
    nu_T=30,
    nu_random=6,
    grid_hist=(101, 1),
    grid_exp=(5, 11),
    staircase_facets=tuple(range(10, 17)),
    random_facets=((3, tuple(range(6, 11))), (4, tuple(range(6, 13)))),
)

TINY = Sizes(
    sweep_corpus=("x*y", "x^2+y^3"),
    sweep_primes=(2, 3),
    sweep_budget=10_000,
    nu_corpus=("x*y", "x*y+z*u"),
    nu_T=6,
    nu_random=1,
    grid_hist=(7, 1),
    grid_exp=(3, 14),
    staircase_facets=(4, 6),
    random_facets=((3, (6,)), (4, (7,))),
)

SIZES = {"full": FULL, "tiny": TINY}

WORKLOADS = ("formula_sweep", "nu_scan", "grid_kernel", "face_lattice")


def make_texts(workload: str, seed: int, sizes: Sizes = FULL) -> dict:
    """The workload's inputs as texts and numbers, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "formula_sweep":
        cells = [(text, p) for text in sizes.sweep_corpus for p in sizes.sweep_primes]
        rng.shuffle(cells)
        return {"cells": cells}
    if workload == "nu_scan":
        extra = _pick(rng, 3, 6, 100, [lambda vf: vf == (4, 8)] * sizes.nu_random)
        return {"texts": list(sizes.nu_corpus) + extra}
    if workload == "grid_kernel":
        a, b = rng.randint(1, sizes.grid_hist[0] - 1), rng.randint(1, sizes.grid_hist[0] - 1)
        c = rng.choice([c for c in range(1, 25) if c % sizes.grid_exp[0]])
        return {"hist": (f"{a}*x*y+{b}*z*u",) + sizes.grid_hist, "exp": (f"{c}*x",) + sizes.grid_exp}
    if workload == "face_lattice":
        texts = [_staircase_text(rng, nf) for nf in sizes.staircase_facets]
        for n, facet_counts in sizes.random_facets:
            wanted = [lambda vf, nf=nf: vf[1] == nf for nf in facet_counts]
            texts += _pick(rng, n, 4 if n == 4 else 6, 150, wanted)
        return {"texts": texts + ["x*y+z*u"]}
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, texts: dict) -> dict:
    """Parse the inputs; face_lattice keeps texts, because the CLI parses them."""
    parse = poly.parse_polynomial
    if workload == "formula_sweep":
        return {"cells": [(parse(text), p) for text, p in texts["cells"]]}
    if workload == "nu_scan":
        return {"polys": [parse(text) for text in texts["texts"]]}
    if workload == "grid_kernel":
        return {key: (parse(text), p, m) for key, (text, p, m) in texts.items()}
    return dict(texts)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _budgeted_powers(n: int, p: int, budget: int) -> List[int]:
    m = 0
    while p ** ((m + 1) * n) <= budget:
        m += 1
    return list(range(1, m + 1))


def pass_formula_sweep(inputs: dict, sizes: Sizes, workers: int) -> PassResult:
    rec = _Recorder(("python", "numpy"))
    cells = passes = 0
    for f, p in inputs["cells"]:
        ms = _budgeted_powers(f.n, p, sizes.sweep_budget)
        with rec.operation(f"verify_formula({poly.render(f)}, p={p})"):
            reports = faceformula.verify_formula(
                f, p, ms, EPS, workers=workers, work_budget=sizes.sweep_budget
            )
            for rep in reports:
                cells += 1
                ok = rep.verdict == "not-applicable" or (
                    rep.verdict == "pass"
                    and abs(rep.lhs.value - rep.rhs.value) <= rep.certified_tolerance
                )
                passes += rep.verdict == "pass"
                rec.check(ok, f"{poly.render(f)} p={p} m={rep.m}: {rep.verdict}")
    rec.check(passes > 0, "formula sweep has at least one pass cell")
    return rec.result(cells)


def pass_nu_scan(inputs: dict, sizes: Sizes, workers: int) -> PassResult:
    rec = _Recorder(("python",))
    points = 0
    for f in inputs["polys"]:
        with rec.operation(f"check_nu_inequality({poly.render(f)})"):
            res = bounds.check_nu_inequality(f, sizes.nu_T)
            points += res.points_checked
            rec.check(
                res.points_checked == comb(sizes.nu_T + f.n, f.n) and not res.main_violations,
                f"nu scan of {poly.render(f)}: {res.points_checked} points, "
                f"{len(res.main_violations)} violations",
            )
    return rec.result(points)


def pass_grid_kernel(inputs: dict, sizes: Sizes, workers: int) -> PassResult:
    """Each problem at ``workers`` and then serially; the oracles are
    S_{a xy + b zu}(p) = p^-2 and S_{c x}(p^m) = 0 for units a, b, c."""
    rec = _Recorder(("numpy",))
    points = 0
    for key, exact in (("hist", None), ("exp", 0.0)):
        f, p, m = inputs[key]
        if exact is None:
            exact = p ** -2.0
        values = {}
        for kind, w in (("main", workers), ("serial", 1)):
            with rec.operation(f"brute_force_S({poly.render(f)}, {p}^{m}, workers={w})", kind):
                values[kind] = v = sums.brute_force_S(f, p, m, workers=w)
                rec.check(
                    abs(v.value - exact) <= v.abs_error_budget,
                    f"S({poly.render(f)}, {p}^{m}) = {v.value} vs {exact} at workers={w}",
                )
        if len(values) == 2:
            par, ser = values["main"], values["serial"]
            points += par.term_count
            rec.check(
                abs(par.value - ser.value) <= par.abs_error_budget + ser.abs_error_budget,
                f"parallel {par.value} vs serial {ser.value}",
            )
    return rec.result(points)


def pass_face_lattice(inputs: dict, sizes: Sizes, workers: int) -> PassResult:
    """``padicsums analyze TEXT --json`` in-process, stdout captured; every
    face lattice must have Euler characteristic 0, and x*y+z*u its known data."""
    rec = _Recorder(("python",))
    faces = 0
    for text in inputs["texts"]:
        with rec.operation(f"analyze {text}"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["analyze", text, "--json"])
            report = json.loads(out.getvalue())
            faces += len(report["faces"])
            euler = sum((-1) ** face["dim"] for face in report["faces"])
            ok = code == 0 and euler == 0
            if text == "x*y+z*u":
                ok = ok and (len(report["faces"]), report["sigma"], report["kappa"]) == (34, "2/1", 3)
            rec.check(ok, f"analyze {text}: exit {code}, Euler characteristic {euler}")
    return rec.result(faces)


PASSES: Dict[str, Callable[[dict, Sizes, int], PassResult]] = {
    "formula_sweep": pass_formula_sweep,
    "nu_scan": pass_nu_scan,
    "grid_kernel": pass_grid_kernel,
    "face_lattice": pass_face_lattice,
}

#: Name of each workload's unit of work, as its throughput metric is cited.
ITEM_METRIC = {
    "formula_sweep": ("cells_per_s", None),
    "nu_scan": ("lattice_points_per_s", None),
    "grid_kernel": ("grid_points_per_s", "grid_points_per_s_serial"),
    "face_lattice": ("faces_per_s", None),
}


def workers_for(workload: str, nproc: int) -> int:
    return min(2, nproc) if workload == "grid_kernel" else 1
