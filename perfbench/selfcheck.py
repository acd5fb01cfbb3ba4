"""Fast self-check of the benchmark harness at tiny input sizes.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced on a few samples and a
window of a few milliseconds, and fails loudly when a metric name or unit
disagrees with BENCHMARK.json, a check stops catching a bad output, or the
tracer leaves a patched function behind.  Takes under a minute.
"""

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import types
from pathlib import Path

import run  # pins the thread settings and puts the checkout's src on sys.path

import numpy as np

from lidarsynth import config as configmod
from lidarsynth import formats, optim, synthgen, training
from tracing import Tracer, per_layer_units
from workloads import TINY, WORKLOADS, check_sample, history_error, write_sample

# layers each workload must reach in its traced run
REACHED = {
    "train_toy": ("tensor.backward.self_ms", "optim.adam_step.self_ms", "training.step_ms_p50",
                  "training.val.self_ms", "formats.write_lsck.self_ms", "tensor.matmul.gflop"),
    "eval_toy": ("training.evaluate.self_ms", "formats.read_lsck.self_ms", "formats.read_lstf.self_ms",
                 "model.encode_batch.self_ms", "tensor.layer_norm.calls"),
    "synth_toy": ("synthgen.raycast_lidar.self_ms", "radar.range_transform.self_ms",
                  "synthgen.rays_cast", "formats.bytes_written"),
}
# layers each workload must bypass
BYPASSED = {
    "train_toy": ("training.evaluate.self_ms", "formats.read_lsck.self_ms"),
    "eval_toy": ("tensor.backward.self_ms", "optim.adam_step.self_ms", "training.step_ms_p50"),
    "synth_toy": ("model.fuse.self_ms", "tensor.matmul.calls", "optim.adam_step.self_ms"),
}


def fail(message: str) -> None:
    sys.exit(f"self-check failed: {message}")


def check_benchmark_json() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", per_layer_units())):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            fail(f"BENCHMARK.json {key} differs from what run.py prints: {set(listed) ^ set(units)}")
    return spec


def check_run(name: str, trace: bool) -> None:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run.main(["--workload", name, "--seed", "7", "--seconds", "0.01", "--trace", str(int(trace))], TINY)
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{name} trace={int(trace)}: {result['failed']} of {result['attempted']} ops failed")
    want = per_layer_units() if trace else run.END_TO_END_UNITS
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{name} trace={int(trace)}: metrics {sorted(got)}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not all(isinstance(v, float) and math.isfinite(v) for v in values.values()):
        fail(f"{name}: non-finite metric values")
    if trace:
        for key in REACHED[name]:
            if not values[key] > 0.0:
                fail(f"{name}: traced run never reached {key}")
        for key in BYPASSED[name]:
            if values[key] != 0.0:
                fail(f"{name}: traced run should bypass {key}")
    elif not all(v > 0.0 for v in values.values()):
        fail(f"{name}: an end-to-end metric is not positive: {values}")


def check_tracer_restores() -> None:
    original = optim.adam_step
    tracer = Tracer()
    with tracer.recording("op"):
        if training.adam_step is original or optim.adam_step is original:
            fail("adam_step is not patched where training imported it by name")
    if training.adam_step is not original or optim.adam_step is not original:
        fail("tracer left adam_step patched")


def check_checks_catch_bad_outputs() -> None:
    cfg = configmod.toy_config()
    root = Path(tempfile.mkdtemp(dir=run.OUT_DIR))
    try:
        scene, radar = write_sample(cfg, root, 0, 11)
        sample_dir = root / "sample_000000"
        ref = synthgen.build_sample(scene, cfg.grid, radar, cfg.cam_width, cfg.cam_height, 11)
        if check_sample(cfg, sample_dir, ref) is not None:
            fail("a good sample fails check_sample")
        bad = ref["target_raster"].copy()
        bad[0, 0] = np.nextafter(bad[0, 0], np.float32(np.inf))
        formats.write_lstf(sample_dir / "target_raster.lstf", bad)
        if check_sample(cfg, sample_dir, ref) is None:
            fail("check_sample missed a one-ulp change in the target raster")
    finally:
        shutil.rmtree(root)
    epoch = training.EpochStats
    rising = types.SimpleNamespace(history=[epoch(1, 1e-3, 0.2, 0.3), epoch(2, 1e-3, 0.25, 0.3)])
    falling = types.SimpleNamespace(history=[epoch(1, 1e-3, 0.3, 0.3), epoch(2, 1e-3, 0.2, 0.3)])
    drifted = types.SimpleNamespace(history=[epoch(1, 1e-3, 0.3, 0.3), epoch(2, 1e-3, 0.2 + 2e-5, 0.3)])
    if history_error(rising, None) is None:
        fail("history check missed a rising train MMSE")
    if history_error(falling, falling) is not None:
        fail("history check rejects a good run")
    if history_error(drifted, falling) is None:
        fail("history check missed a 2e-5 same-seed drift")


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    check_benchmark_json()
    check_tracer_restores()
    check_checks_catch_bad_outputs()
    for name in WORKLOADS:
        for trace in (False, True):
            check_run(name, trace)
            print(f"ok {name} trace={int(trace)}")
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
