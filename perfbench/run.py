"""lidarsynth benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports the package from its ``src``
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment and the run's details.  Workloads,
metrics and bounds are listed in BENCHMARK.json and explained in
perfbench/README.md.
"""

import os

# one BLAS thread, set before numpy loads so the pool is created that size
THREAD_VARS = ("LIDARSYNTH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "lidarsynth" / "__init__.py").is_file():
    sys.exit(f"error: no lidarsynth package under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lidarsynth  # noqa: E402
from speed import Clock  # noqa: E402
from tracing import COMPUTED, Tracer, per_layer_units  # noqa: E402
from workloads import FULL, WORKLOADS, Scale  # noqa: E402

if Path(lidarsynth.__file__).resolve().parent != SRC / "lidarsynth":
    sys.exit(f"error: imported lidarsynth from {lidarsynth.__file__}, not from {SRC}")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "samples/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "mmse_norm": "norm",
}
OUT_DIR = ROOT / ".perfbench"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def measure(workload, seconds: float, timers: list) -> list[list]:
    """Closed loop until the window has passed; iteration i uses timer i mod n.

    Alternating the timers exposes them to the same machine conditions.  Each
    timer runs at least once, and the loop makes at least the workload's
    ``min_iterations``; the ops of timer k come back in list k.
    """
    ops = [[] for _ in timers]
    deadline = perf_counter() + seconds
    least = max(len(timers), workload.min_iterations)
    i = 0
    while i < least or perf_counter() < deadline:
        ops[i % len(timers)] += workload.iterate(timers[i % len(timers)])
        i += 1
    return ops


def run(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    workload = WORKLOADS[name](scale, seed)
    tracer = Tracer() if trace else None
    clock = Clock()

    def traced(fn):
        with tracer.recording("op"):
            return clock.time_call(fn)

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        setups = []  # (CPU seconds, wall seconds)
        for k in range(scale.setup_repeats):
            if k:
                shutil.rmtree(work / f"setup{k - 1}")
            with tracer.recording("setup") if tracer else contextlib.nullcontext():
                _, cpu, wall = clock.time_call(lambda: workload.setup(work / f"setup{k}"))
                setups.append((cpu, wall))
        warm = workload.warm_up(clock.time_call)
        if trace:
            plain, ops = measure(workload, seconds, [clock.time_call, traced])
            checked = plain + ops
        else:
            (ops,) = measure(workload, seconds, [clock.time_call])
            checked = ops
    finally:
        shutil.rmtree(work, ignore_errors=True)

    factor = clock.factor(workload.elasticity)
    for o in checked:
        o.seconds *= factor
    failures = [o for o in warm + checked if o.error]
    for o in failures:
        print(f"failed {o.kind}: {o.error}", file=sys.stderr)
    ok = [o for o in ops if not o.error]
    if not ok:
        sys.exit(f"error: all {len(ops)} timed ops failed")
    if trace:
        def median_ms(run_ops):
            return statistics.median(o.seconds for o in run_ops if o.kind == workload.op_kind) * 1e3

        untraced_ms, traced_ms = median_ms(plain), median_ms(ops)
        values = tracer.per_layer(sum(o.units for o in ops), traced_ms - untraced_ms)
        units = per_layer_units()
        details = {"op_ms_p50_untraced": untraced_ms, "op_ms_p50_traced": traced_ms, "computed": COMPUTED}
        tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.json", {"workload": name, "seed": seed})
    else:
        values = dict(
            workload.end_to_end(ok), setup_s=statistics.median(c for c, _ in setups) * factor, peak_rss_mb=peak_rss_mb()
        )
        units = END_TO_END_UNITS
        wall = dict(workload.end_to_end([replace(o, seconds=o.wall) for o in ok]))
        wall["setup_s"] = statistics.median(w for _, w in setups)
        details = {
            "setup_s_each": [c * factor for c, _ in setups],
            "speed_factor": factor,
            "wall": {k: wall[k] for k in ("setup_s", "samples_per_s", "op_ms_p50", "op_ms_p90")},
            "named": {a: {"value": values[k], "unit": units[k]} for a, k in workload.aliases.items()},
        }
    attempted = len(warm) + len(checked)
    return {
        "info": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "environment": environment(),
            "ops_by_kind": {k: sum(1 for o in checked if o.kind == k) for k in sorted({o.kind for o in checked})},
            "failed_ratio": len(failures) / attempted,
            **details,
        },
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
        },
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None, scale: Scale = FULL) -> int:
    args = parse_args(argv)
    # a terminated run still removes its temporary files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), scale)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
