"""padicsums benchmark: one workload per run, results as JSON on the last line.

    python3 bench/run.py --workload formula_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics with nothing wrapped; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  Workloads, metrics and the layer map are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_REPEATS = 5

#: Run in a fresh interpreter: import padicsums, draw the inputs, parse them.
#: Prints the raw seconds and the mean python-gauge slowdown around them.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import gauges
before = gauges.slowdown(("python",))
t0 = time.perf_counter()
import workloads
sizes = workloads.SIZES[sys.argv[5]]
workloads.prepare(sys.argv[3], workloads.make_texts(sys.argv[3], int(sys.argv[4]), sizes))
elapsed = time.perf_counter() - t0
print(elapsed, (before + gauges.slowdown(("python",))) / 2)
"""


def _setup_seconds(workload: str, seed: int, sizes: str) -> tuple:
    """Median raw and normalized seconds of SETUP_REPEATS fresh-interpreter
    set-ups, after one that warms the bytecode and file caches."""
    raw, norm = [], []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed), sizes],
            check=True, capture_output=True, text=True, timeout=120,
        )
        seconds, slow = map(float, out.stdout.split())
        raw.append(seconds)
        norm.append(seconds / slow)
    return statistics.median(raw[1:]), statistics.median(norm[1:])


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child (pool workers
    and set-up probes); forked children count shared pages in both."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _provenance(workload: str, seed: int, workers: int, nproc: int) -> dict:
    import numpy
    import padicsums

    return {
        "workload": workload,
        "seed": seed,
        "workers": workers,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "padicsums": padicsums.__version__,
        "commit": _git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full") -> dict:
    """Set up, run passes for ``seconds`` and return the result object."""
    import tracing
    import workloads

    sizes = workloads.SIZES[size_name]
    nproc = len(os.sched_getaffinity(0))
    workers = workloads.workers_for(workload, nproc)
    run_pass = workloads.PASSES[workload]

    texts = workloads.make_texts(workload, seed, sizes)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        with tracer.installed():
            inputs = workloads.prepare(workload, texts)
        setup_spans = tracer.take()
    else:
        inputs = workloads.prepare(workload, texts)

    plain, traced, layers = [], [], []
    start = perf_counter()
    while True:
        use_trace = bool(tracer) and len(traced) < len(plain)
        if use_trace:
            with tracer.installed():
                result = run_pass(inputs, sizes, workers)
            spans, counters, maxima = tracer.take()
            spans = tracing.concat(setup_spans[0], spans)
            layers.append(tracing.layer_metrics(spans, setup_spans[1] + counters, maxima))
            traced.append(result)
        else:
            result = run_pass(inputs, sizes, workers)
            plain.append(result)
        elapsed = perf_counter() - start
        done = plain + traced
        if elapsed + max(r.wall_s for r in done) > seconds and (traced or not tracer):
            break

    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    item_name, serial_name = workloads.ITEM_METRIC[workload]
    if tracer:
        metrics = {
            name: statistics.median(layer[name] for layer in layers) for name in layers[0]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_norm_s for r in traced)
            - statistics.median(r.wall_norm_s for r in plain)
        )
    else:
        setup_raw, setup_norm = _setup_seconds(workload, seed, size_name)
        metrics = {
            "wall_norm_s": statistics.median(r.wall_norm_s for r in plain),
            "items_per_norm_s": statistics.median(r.per_s("main", True) for r in plain),
            "items_per_norm_s_serial": statistics.median(r.per_s("serial", True) for r in plain),
            "setup_s": setup_norm,
            "peak_rss_mb": _peak_rss_mib(),
        }
        raw = {
            "setup_s": setup_raw,
            "wall_s": statistics.median(r.wall_s for r in plain),
            item_name: statistics.median(r.per_s("main", False) for r in plain),
        }
        if serial_name:
            raw[serial_name] = statistics.median(r.per_s("serial", False) for r in plain)
        units = {"setup_s": "s", "wall_s": "s", item_name: "1/s", serial_name: "1/s"}
        for name, value in raw.items():
            print(f"raw {name} = {value!r} {units[name]}")
    print(f"error_rate = {failed / attempted!r} ({failed} of {attempted})")
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"{label} passes: wall_s {[r.wall_s for r in group]}")
            print(f"{label} passes: wall_norm_s {[r.wall_norm_s for r in group]}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {UNITS[name]}")
    print(json.dumps({"provenance": _provenance(workload, seed, workers, nproc)}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "padicsums" / "__init__.py").is_file():
        print(f"error: no padicsums sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
