"""Spans around padicsums' public functions, recorded from outside the library.

``Tracer.installed()`` replaces every public function listed in ``TARGETS`` in
each padicsums module namespace that binds it (``enumerate_faces`` is bound in
``newton``, ``faceformula``, ``bounds``, ``cli`` and the package itself), and
``padicsums.sums.ProcessPoolExecutor`` with a subclass that times its
construction and shutdown.  Leaving the block restores every original object.

A span is (name, start, end, parent index).  A layer's self time is a span's
duration minus the part of it that its child spans cover.  Functions that
return an iterator are timed while the iterator is consumed: every ``next``
is its own span, a child of whatever span is consuming it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from padicsums import sums

Span = Tuple[str, float, float, int]

#: Moduli up to this size take the histogram kernel path, larger ones the
#: exp path; the library's own constant is used when it exists.
DEFAULT_HIST_CAP = 1 << 22


class Tracer:
    """Collects spans, counters and maxima for one traced region."""

    def __init__(self) -> None:
        self.spans: List[List] = []
        self.counters: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        return end - span[1]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def take(self) -> Tuple[List[Span], Counter, Dict[str, float]]:
        """Everything recorded so far, leaving the tracer empty."""
        out = ([tuple(s) for s in self.spans], self.counters, self.maxima)
        self.spans, self.counters, self.maxima = [], Counter(), {}
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap the TARGETS for the duration of the block."""
        patches = _patch_all(self)
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)


def concat(first: Sequence[Span], second: Sequence[Span]) -> List[Span]:
    """Two recordings as one, with the parent indices of the second shifted."""
    shift = len(first)
    return list(first) + [
        (name, start, end, parent + shift if parent >= 0 else -1)
        for name, start, end, parent in second
    ]


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name: duration minus the union of its
    children; names that never ran read 0."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - _covered(children.get(idx, []))
    return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _timed_iter(tracer: Tracer, name: str, it: Iterator) -> Iterator:
    while True:
        idx = tracer.open(name)
        try:
            item = next(it)
        except StopIteration:
            tracer.close(idx)
            return
        except BaseException:
            tracer.close(idx)
            raise
        tracer.close(idx)
        tracer.count(name + ".points")
        yield item


def _on_lattice(tracer, args, kwargs, result, dur):
    return _timed_iter(tracer, "newton.lattice", iter(result))


def _on_faces(tracer, args, kwargs, result, dur):
    tracer.count("newton.enumerate_faces.faces", len(result))
    tracer.maximum("newton.enumerate_faces.facets_max", len(args[0].facets))
    return result


def _on_cone_sums(tracer, args, kwargs, result, dur):
    per_m, T, _ = result
    tracer.maximum("faceformula.cone_sums_multi.T_max", T)
    tracer.count(
        "faceformula.b_nonzero_faces",
        len({r.face_id for rows in per_m.values() for r in rows if r.B_partial}),
    )
    return result


def _on_verify(tracer, args, kwargs, result, dur):
    for rep in result:
        if rep.verdict == "pass":
            tracer.maximum("faceformula.tol_max", rep.certified_tolerance)
    return result


def _on_nu(tracer, args, kwargs, result, dur):
    tracer.count("bounds.check_nu_inequality.points", result.points_checked)
    return result


def _on_brute_force(tracer, args, kwargs, result, dur):
    f, p, m = args[:3]
    points = result.term_count
    path = "hist" if p ** m <= getattr(sums, "_HIST_CAP", DEFAULT_HIST_CAP) else "exp"
    tracer.count("sums.brute_force_S.grid_points", points)
    tracer.count(f"sums.brute_force_S.{path}_points", points)
    workers = kwargs.get("workers", 1)
    side = "serial" if workers <= 1 else "parallel"
    tracer.count(f"sums.kernel.{side}_points", points)
    tracer.count(f"sums.kernel.{side}_s", dur)
    if workers > 1:
        tracer.maximum("sums.kernel.workers", workers)
    return result


def _on_nondeg(tracer, args, kwargs, result, dur):
    f, faces, p = args[:3]
    supports = {face.restriction.support for face in faces}
    tracer.count("sums.check_nondegenerate_mod_p.torus_points", (p - 1) ** f.n * len(supports))
    return result


def _on_torus(tracer, args, kwargs, result, dur):
    tracer.count("sums.torus_E.torus_points", result.term_count)
    return result


Hook = Callable[[Tracer, tuple, dict, object, float], object]

#: (defining module, public function, hook run on its result).
TARGETS: Tuple[Tuple[str, str, Optional[Hook]], ...] = (
    ("poly", "parse_polynomial", None),
    ("poly", "face_restriction", None),
    ("newton", "build_polyhedron", None),
    ("newton", "enumerate_faces", _on_faces),
    ("newton", "enumerate_lattice_points", _on_lattice),
    ("sums", "brute_force_S", _on_brute_force),
    ("sums", "torus_E", _on_torus),
    ("sums", "check_nondegenerate_mod_p", _on_nondeg),
    ("faceformula", "cone_sums_multi", _on_cone_sums),
    ("faceformula", "verify_formula", _on_verify),
    ("bounds", "check_nu_inequality", _on_nu),
    ("cli", "main", None),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.close(idx)
        return hook(tracer, args, kwargs, result, dur) if hook else result

    wrapper.__bench_span__ = name
    return wrapper


def _pool_class(tracer: Tracer, base: type) -> type:
    class TracedPool(base):
        __bench_span__ = "sums.pool"

        def __init__(self, *args, **kwargs):
            idx = tracer.open("sums.pool.spawn")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.count("sums.pool.spawns")

        def shutdown(self, *args, **kwargs):
            idx = tracer.open("sums.pool.shutdown")
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                tracer.close(idx)

    return TracedPool


def library_modules() -> List:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "padicsums" or name.startswith("padicsums."))
    ]


def _patch_all(tracer: Tracer) -> List[Tuple[object, str, object]]:
    modules = library_modules()
    by_name = {mod.__name__: mod for mod in modules}
    replacements = []
    for module_name, func, hook in TARGETS:
        original = getattr(by_name[f"padicsums.{module_name}"], func)
        replacements.append((original, _wrap(tracer, f"{module_name}.{func}", original, hook)))
    pool = by_name["padicsums.sums"].ProcessPoolExecutor
    replacements.append((pool, _pool_class(tracer, pool)))

    patches = []
    for original, replacement in replacements:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
    return patches


def installed_wrappers() -> List[str]:
    """'module.attr' of every padicsums attribute that is a tracing wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in library_modules()
        for attr, value in vars(mod).items()
        if hasattr(value, "__bench_span__")
    ]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span], counters: Counter, maxima: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced region; 0 where a layer did not run."""
    self_s = self_times(spans)
    calls = Counter(name for name, _, _, _ in spans)
    return {
        "newton.lattice.points": counters["newton.lattice.points"],
        "newton.lattice.self_s": self_s["newton.lattice"],
        "faceformula.cone_sums_multi.calls": calls["faceformula.cone_sums_multi"],
        "faceformula.cone_sums_multi.self_s": self_s["faceformula.cone_sums_multi"],
        "faceformula.cone_sums_multi.T_max": maxima.get("faceformula.cone_sums_multi.T_max", 0),
        "bounds.check_nu_inequality.points": counters["bounds.check_nu_inequality.points"],
        "bounds.check_nu_inequality.self_s": self_s["bounds.check_nu_inequality"],
        "sums.brute_force_S.calls": calls["sums.brute_force_S"],
        "sums.brute_force_S.self_s": self_s["sums.brute_force_S"],
        "sums.brute_force_S.grid_points": counters["sums.brute_force_S.grid_points"],
        "sums.brute_force_S.hist_points": counters["sums.brute_force_S.hist_points"],
        "sums.brute_force_S.exp_points": counters["sums.brute_force_S.exp_points"],
        "sums.pool.spawns": counters["sums.pool.spawns"],
        "sums.pool.spawn_s": self_s["sums.pool.spawn"] + self_s["sums.pool.shutdown"],
        # parallel throughput per worker over serial throughput
        "sums.parallel_efficiency": _ratio(
            _ratio(counters["sums.kernel.parallel_points"], counters["sums.kernel.parallel_s"]),
            maxima.get("sums.kernel.workers", 0)
            * _ratio(counters["sums.kernel.serial_points"], counters["sums.kernel.serial_s"]),
        ),
        "sums.check_nondegenerate_mod_p.calls": calls["sums.check_nondegenerate_mod_p"],
        "sums.check_nondegenerate_mod_p.self_s": self_s["sums.check_nondegenerate_mod_p"],
        "sums.check_nondegenerate_mod_p.torus_points": counters["sums.check_nondegenerate_mod_p.torus_points"],
        "sums.torus_E.calls": calls["sums.torus_E"],
        "sums.torus_E.self_s": self_s["sums.torus_E"],
        "sums.torus_E.torus_points": counters["sums.torus_E.torus_points"],
        "faceformula.e_memo_ratio": _ratio(calls["sums.torus_E"], counters["faceformula.b_nonzero_faces"]),
        "faceformula.verify_formula.self_s": self_s["faceformula.verify_formula"],
        "faceformula.tol_max": maxima.get("faceformula.tol_max", 0.0),
        "newton.enumerate_faces.calls": calls["newton.enumerate_faces"],
        "newton.enumerate_faces.self_s": self_s["newton.enumerate_faces"],
        "newton.enumerate_faces.faces": counters["newton.enumerate_faces.faces"],
        "newton.enumerate_faces.facets_max": maxima.get("newton.enumerate_faces.facets_max", 0),
        "newton.build_polyhedron.calls": calls["newton.build_polyhedron"],
        "newton.build_polyhedron.self_s": self_s["newton.build_polyhedron"],
        "poly.face_restriction.self_s": self_s["poly.face_restriction"],
        "cli.main.self_s": self_s["cli.main"],
        "poly.parse_polynomial.self_s": self_s["poly.parse_polynomial"],
    }
