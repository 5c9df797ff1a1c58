"""Tests of the benchmark itself: tiny runs of every workload, the self-time
arithmetic, and wrapper installation and removal.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
import padicsums  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _library_attrs() -> dict:
    return {
        (mod.__name__, attr): value
        for mod in tracing.library_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_every_workload(workload):
    untraced = run.measure(workload, seed=3, seconds=0.01, trace=False, size_name="tiny")
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] > 0
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = run.measure(workload, seed=3, seconds=0.01, trace=True, size_name="tiny")
    assert traced["correct"]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert tracing.installed_wrappers() == []


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.make_texts(workload, 5, workloads.TINY)
        assert a == workloads.make_texts(workload, 5, workloads.TINY)


def test_self_time_arithmetic_on_synthetic_tree():
    # a [0, 10] holds b [1, 4] and c [3, 6], which overlap: they cover [1, 6].
    # b holds d [2, 3].  A second root named a lasts 1 with no children.
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("d", 2.0, 3.0, 1),
        ("c", 3.0, 6.0, 0),
        ("a", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 2.0, "c": 3.0, "d": 1.0}
    # the second recording's parent indices count from its own start
    setup = [("s", 0.0, 1.0, -1)]
    later = [("a", 2.0, 10.0, -1), ("b", 3.0, 4.0, 0)]
    assert tracing.self_times(tracing.concat(setup, later)) == {"s": 1.0, "a": 7.0, "b": 1.0}


def test_tracer_wraps_every_namespace_and_restores():
    before = _library_attrs()
    tracer = tracing.Tracer()
    with tracer.installed():
        from padicsums import bounds, cli, faceformula, newton, sums

        for mod in (newton, faceformula, bounds, cli, padicsums):
            assert mod.enumerate_faces.__bench_span__ == "newton.enumerate_faces"
        assert issubclass(sums.ProcessPoolExecutor, before[("padicsums.sums", "ProcessPoolExecutor")])
        f = padicsums.parse_polynomial("x*y")
        points = list(newton.enumerate_lattice_points(newton.build_polyhedron(f), 3))
    assert tracing.installed_wrappers() == []
    assert _library_attrs() == before
    spans, counters, _ = tracer.take()
    assert counters["newton.lattice.points"] == len(points) == 10
    assert Counter(name for name, *_ in spans)["newton.lattice"] == 11  # 10 items and the stop


def test_untraced_run_installs_no_wrappers(monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(tracing.Tracer, "installed", refuse)
    before = _library_attrs()
    result = run.measure("face_lattice", seed=1, seconds=0.01, trace=False, size_name="tiny")
    assert result["correct"]
    assert _library_attrs() == before


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "nu_scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
