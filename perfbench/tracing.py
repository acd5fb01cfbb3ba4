"""Span recording around lidarsynth's public calls, and the per-layer metrics.

The tracer wraps the functions and methods named in ``TARGETS`` only while a
``recording`` block is open and restores the originals when it closes, so an
untraced run executes the program's code unchanged.  A function that another
module imported by name (``training`` does ``from lidarsynth.optim import
adam_step``) is patched in every lidarsynth module that holds it.

Each span is ``[name, start, end, parent_index, phase]``; spans stay in
memory and are written out once, when the run ends.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

TENSOR_OPS = ("matmul", "conv_transpose2d", "batch_norm2d", "layer_norm", "softmax")


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _lidar_rays(fn, args, kwargs, out):
    grid = _bound(fn, args, kwargs)["grid"]
    return {"synthgen.rays_cast": grid.n_rows * grid.n_cols}


def _camera_rays(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {"synthgen.rays_cast": a["width"] * a["height"]}


def _lstf_bytes(fn, args, kwargs, out):
    arr = np.asarray(_bound(fn, args, kwargs)["arr"])
    # LSTF layout: 4-byte magic, version and rank bytes, u32 dims, float32 payload
    return {"formats.bytes_written": 6 + 4 * arr.ndim + 4 * arr.size}


def _matmul_flops(fn, args, kwargs, out):
    a, b = args[0], args[1]
    flops = 2 * out.size * a.shape[-1]
    if out.requires_grad:
        # backward runs one product of the same size per operand that needs a gradient
        flops *= 1 + bool(getattr(a, "requires_grad", False)) + bool(getattr(b, "requires_grad", False))
    return {"tensor.matmul.flops": flops}


def _adam_bytes(fn, args, kwargs, out):
    store = _bound(fn, args, kwargs)["store"]
    n = sum(store[name].data.nbytes for name in store.trainable_names())
    # minimum traffic of the update: read p, g, m, v and write p, m, v
    return {"optim.adam_step.bytes": 7 * n}


# (module, attribute or Class.method, span name, counter)
TARGETS = (
    ("lidarsynth.synthgen", "generate_scene", "synthgen.generate_scene", None),
    ("lidarsynth.synthgen", "raycast_lidar", "synthgen.raycast_lidar", _lidar_rays),
    ("lidarsynth.synthgen", "render_camera", "synthgen.render_camera", _camera_rays),
    ("lidarsynth.synthgen", "render_depth", "synthgen.render_depth", _camera_rays),
    ("lidarsynth.synthgen", "simulate_radar", "synthgen.simulate_radar", None),
    ("lidarsynth.synthgen", "build_sample", "synthgen.build_sample", None),
    ("lidarsynth.synthgen", "export_sample", "synthgen.export_sample", None),
    ("lidarsynth.radar", "range_transform", "radar.range_transform", None),
    ("lidarsynth.radar", "range_angle_map", "radar.range_angle_map", None),
    ("lidarsynth.radar", "range_velocity_map", "radar.range_velocity_map", None),
    ("lidarsynth.formats", "write_lstf", "formats.write_lstf", _lstf_bytes),
    ("lidarsynth.formats", "read_lstf", "formats.read_lstf", None),
    ("lidarsynth.formats", "write_lsck", "formats.write_lsck", None),
    ("lidarsynth.formats", "read_lsck", "formats.read_lsck", None),
    ("lidarsynth.model", "Model.embed", "model.embed", None),
    ("lidarsynth.model", "Model.encode_batch", "model.encode_batch", None),
    ("lidarsynth.model", "Model.fuse", "model.fuse", None),
    ("lidarsynth.model", "Model.decode", "model.decode", None),
    ("lidarsynth.model", "Model.forward_batch", "model.forward_batch", None),
    ("lidarsynth.tensor", "Tensor.backward", "tensor.backward", None),
    ("lidarsynth.tensor", "matmul", "tensor.matmul", _matmul_flops),
    ("lidarsynth.tensor", "conv_transpose2d", "tensor.conv_transpose2d", None),
    ("lidarsynth.tensor", "batch_norm2d", "tensor.batch_norm2d", None),
    ("lidarsynth.tensor", "layer_norm", "tensor.layer_norm", None),
    ("lidarsynth.tensor", "softmax", "tensor.softmax", None),
    ("lidarsynth.optim", "adam_step", "optim.adam_step", _adam_bytes),
    ("lidarsynth.training", "load_dataset", "training.load_dataset", None),
    ("lidarsynth.training", "train", "training.train", None),
    ("lidarsynth.training", "_eval_mmse", "training.val", None),
    ("lidarsynth.training", "evaluate", "training.evaluate", None),
    ("lidarsynth.training", "save_checkpoint", "training.save_checkpoint", None),
    ("lidarsynth.training", "load_checkpoint", "training.load_checkpoint", None),
    ("lidarsynth.training", "model_from_checkpoint", "training.model_from_checkpoint", None),
)

# spans reported as mean self time per call
SELF_MS_SPANS = (
    "synthgen.generate_scene",
    "synthgen.raycast_lidar",
    "synthgen.render_camera",
    "synthgen.render_depth",
    "synthgen.simulate_radar",
    "radar.range_transform",
    "radar.range_angle_map",
    "radar.range_velocity_map",
    "formats.write_lstf",
    "formats.read_lstf",
    "formats.read_lsck",
    "formats.write_lsck",
    "model.embed",
    "model.encode_batch",
    "model.fuse",
    "model.decode",
    "tensor.backward",
    "optim.adam_step",
    "training.val",
    "training.evaluate",
    "training.load_dataset",
)


# counts computed from arguments and shapes rather than measured
COMPUTED = ("synthgen.rays_cast", "formats.bytes_written", "tensor.matmul.gflop", "optim.adam_step.bytes")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.self_ms": "ms" for name in SELF_MS_SPANS}
    units["synthgen.rays_cast"] = "count"
    units["formats.bytes_written"] = "bytes"
    for op in TENSOR_OPS:
        units[f"tensor.{op}.fwd_ms"] = "ms"
        units[f"tensor.{op}.calls"] = "count"
    units["tensor.matmul.gflop"] = "GFLOP"
    units["optim.adam_step.bytes"] = "bytes"
    units["training.step_ms_p50"] = "ms"
    units["trace.overhead_ms"] = "ms"
    return units


class Tracer:
    """Records spans and counters while a ``recording`` block is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._phase = ""
        self._patches: list[tuple[object, str, object, object]] = []
        for module_name, attr, span_name, counter in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original, self._wrap(span_name, original, counter)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original, counter)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "lidarsynth" and mod is not None:
                    for key, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, key, original, wrapper))

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._phase]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(fn, args, kwargs, out).items():
                    counts[(self._phase, key)] += value
            return out

        return wrapper

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Patch every target for the duration of the block; spans get ``phase``."""
        self._phase = phase
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        try:
            yield
        finally:
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)
            self._phase = ""

    def dump(self, path: Path, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((a - t0) * 1e3, 6), round((b - t0) * 1e3, 6), parent, phase]
            for name, a, b, parent, phase in self.spans
        ]
        doc = dict(meta, columns=["name", "start_ms", "end_ms", "parent", "phase"], spans=rows)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")

    def per_layer(self, op_units: float, overhead_ms: float) -> dict[str, float]:
        """Per-layer metrics; see the README for the base of each one."""
        self_ms = [(b - a) * 1e3 for _, a, b, _, _ in self.spans]
        for _, a, b, parent, _ in self.spans:
            if parent >= 0:
                self_ms[parent] -= (b - a) * 1e3
        calls: dict[str, int] = defaultdict(int)
        total_ms: dict[str, float] = defaultdict(float)
        op_calls: dict[str, int] = defaultdict(int)
        op_ms: dict[str, float] = defaultdict(float)
        for (name, _, _, _, phase), ms in zip(self.spans, self_ms):
            calls[name] += 1
            total_ms[name] += ms
            if phase == "op":
                op_calls[name] += 1
                op_ms[name] += ms

        def per(total: float, base: float) -> float:
            return total / base if base else 0.0

        def count(key: str, phase: str | None = None) -> float:
            return sum(v for (p, k), v in self.counts.items() if k == key and phase in (None, p))

        out = {f"{name}.self_ms": per(total_ms[name], calls[name]) for name in SELF_MS_SPANS}
        samples = calls["synthgen.export_sample"]
        out["synthgen.rays_cast"] = per(count("synthgen.rays_cast"), samples)
        out["formats.bytes_written"] = per(count("formats.bytes_written"), samples)
        for op in TENSOR_OPS:
            out[f"tensor.{op}.fwd_ms"] = per(op_ms[f"tensor.{op}"], op_units)
            out[f"tensor.{op}.calls"] = per(op_calls[f"tensor.{op}"], op_units)
        out["tensor.matmul.gflop"] = per(count("tensor.matmul.flops", "op") / 1e9, op_units)
        out["optim.adam_step.bytes"] = per(count("optim.adam_step.bytes"), calls["optim.adam_step"])
        steps = self.step_ms()
        out["training.step_ms_p50"] = statistics.median(steps) if steps else 0.0
        out["trace.overhead_ms"] = overhead_ms
        return out

    def step_ms(self) -> list[float]:
        """Optimizer step times: a train loop's forward_batch start to its adam_step end."""
        train = {i for i, s in enumerate(self.spans) if s[0] == "training.train"}
        start: dict[int, float] = {}
        steps = []
        for name, a, b, parent, _ in self.spans:
            if parent not in train:
                continue
            if name == "model.forward_batch":
                start[parent] = a
            elif name == "optim.adam_step" and parent in start:
                steps.append((b - start.pop(parent)) * 1e3)
        return steps
