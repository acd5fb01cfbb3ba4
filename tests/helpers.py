"""Shared test utilities: central-difference gradient checking, oracles and in-memory datasets.

Every case in GRAD_SUITE is a (label, factory) pair.  The factory builds
fresh float64 input arrays plus a `build` callable that maps the matching
Tensors to an output Tensor.  check_case runs the framework backward pass
against numeric central differences on a fixed random projection of the
output, so ops whose rows are constrained (softmax) still get a
non-degenerate scalar objective.
"""

from __future__ import annotations

import ctypes
import math
import zlib
from typing import Callable

import numpy as np

from lidarsynth import formats as F
from lidarsynth import geometry as G
from lidarsynth import model as M
from lidarsynth import synthgen as S
from lidarsynth import tensor as T
from lidarsynth import training as TR

H = 1e-5  # float64 central differences: truncation ~h^2, roundoff ~1e-16/h
RTOL = 1e-4
# noise floor for directions whose true derivative is exactly zero (e.g. the
# key bias of attention, cancelled by softmax shift invariance): the finite
# difference there measures only float cancellation noise
ATOL = 1e-7


def _rng(label: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(label.encode()))


def naive_dft(x: np.ndarray) -> np.ndarray:
    """O(N^2) forward DFT, the independent oracle for the pipeline's FFTs."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) @ x


def lstf_bytes(arr: np.ndarray) -> bytes:
    """One LSTF record assembled in memory, the layout reference for the streaming writers."""
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    return F._lstf_header(arr) + arr.astype("<f4").tobytes()


def legacy_grid(max_range: float = 100.0) -> G.GridSpec:
    """A 960-row variant whose dims match a 45x30 decoder seed (top region ends at 30 deg)."""
    return G.GridSpec(
        phi_regions=((-60.0, -5.0, 0.25), (-5.0, 5.0, 0.015625), (5.0, 30.0, 0.25)),
        max_range=max_range,
    )


def glibc_mallopt():
    """glibc's mallopt, or None where the C library has none: the allocator setting is made only with it."""
    try:
        return ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None


def full_cast(scene: S.Scene, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ray casting with every ray tested against every primitive, the oracle for the culled cast."""
    dirs = np.asarray(dirs, dtype=np.float64)
    n = dirs.shape[0]
    t_best = np.full(n, np.inf)
    refl = np.zeros(n)

    if scene.ground_height is not None:
        dz = dirs[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = scene.ground_height / dz
        hit = (dz < -S._EPS) & (t > S._EPS)
        closer = hit & (t < t_best)
        t_best = np.where(closer, t, t_best)
        refl = np.where(closer, S.GROUND_REFLECTIVITY, refl)

    for prim in scene.primitives:
        if prim.kind == "box":
            t = S._intersect_box(dirs, prim.center, prim.size / 2.0)
        else:
            t = S._intersect_cylinder(dirs, prim.center, prim.size)
        closer = t < t_best
        t_best = np.where(closer, t, t_best)
        refl = np.where(closer, prim.reflectivity, refl)
    return t_best, refl


def full_radar(scene: S.Scene, radar: S.RadarParams, seed: int) -> np.ndarray:
    """One complex exp over the whole cube per primitive, the oracle for the separable radar tones."""
    k = np.arange(radar.n_rx).reshape(-1, 1, 1)
    n = np.arange(radar.n_samples).reshape(1, -1, 1)
    m = np.arange(radar.n_chirps).reshape(1, 1, -1)
    cube = np.zeros((radar.n_rx, radar.n_samples, radar.n_chirps), dtype=np.complex128)
    for prim in scene.primitives:
        x, y, z = prim.center
        r = math.sqrt(x * x + y * y + z * z)
        azimuth = math.atan2(y, x)
        f_r = r / radar.r_max
        f_a = 0.5 * math.sin(azimuth)
        f_v = prim.radial_velocity / radar.v_max
        phase = f_r * n + f_a * k + f_v * m
        cube += prim.reflectivity * np.exp(2j * np.pi * phase)
    if radar.noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        shape = cube.shape
        scale = radar.noise_sigma / math.sqrt(2.0)
        cube += rng.normal(0.0, scale, shape) + 1j * rng.normal(0.0, scale, shape)
    return cube.astype(np.complex64)


def synthetic_dataset(
    n: int,
    profile_name: str,
    grid: G.GridSpec,
    radar: S.RadarParams,
    cam_width: int,
    cam_height: int,
    seed: int = 0,
) -> list[TR.Sample]:
    """n aligned samples in memory, on the plan `lidarsynth synth` writes; "mixed" cycles the four profiles."""
    samples = []
    for seed_i, prof, scene, radar_i in S.plan_scenes(n, profile_name, radar, seed):
        arrays = S.build_sample(scene, grid, radar_i, cam_width, cam_height, seed_i)
        kept = {name: arrays[name] for name in (*M.MODALITIES, "target_raster")}
        samples.append(TR.Sample(kept, grid, prof.name))
    return samples


def full_encode(model: M.Model, name: str, images: np.ndarray) -> T.Tensor:
    """Every encoder block over every token, then the class token: the oracle for the pruned last block."""
    cfg = model.cfg.encoders[name]
    s = model.store
    x = T.linear(T.Tensor(M._patchify(images, cfg)), s[f"{name}.patch_embed.weight"], s[f"{name}.patch_embed.bias"])
    ones = T.Tensor(np.ones((x.shape[0], 1, 1), dtype=np.float32))
    cls = T.mul(T.reshape(s[f"{name}.cls_token"], (1, 1, cfg.d_model)), ones)
    x = T.add(T.concat([cls, x]), s[f"{name}.pos_embed"])
    for i in range(cfg.depth):
        x = model._block(x, f"{name}.layers.{i}", cfg.n_heads)
    x = T.layer_norm(x, s[f"{name}.final_ln.gain"], s[f"{name}.final_ln.bias"])
    return T.linear(x[:, 0], s[f"{name}.head.weight"], s[f"{name}.head.bias"])


def grad_norms(store) -> dict[str, float]:
    """L2 norm of each trainable component's gradient, keyed by component.

    A component is a parameter name without its last part, so
    ``decoder.deconv.0`` covers that layer's weight and bias; a name with a
    single dot (``fusion.type_embed``) is its own component.  The sums run
    in float64.
    """
    squares: dict[str, float] = {}
    for name in store.trainable_names():
        component = name.rsplit(".", 1)[0] if name.count(".") > 1 else name
        g = store[name].grad.astype(np.float64)
        squares[component] = squares.get(component, 0.0) + float(np.vdot(g, g))
    return {component: math.sqrt(v) for component, v in squares.items()}


def numeric_grads(f: Callable[[list[np.ndarray]], float], arrays: list[np.ndarray], h: float = H):
    """Central-difference gradients of a scalar function of several arrays."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f(arrays)
            flat[i] = orig - h
            lo = f(arrays)
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def check_case(label: str, factory, rtol: float = RTOL, atol: float = ATOL) -> float:
    """Run one gradient check; returns the worst relative error seen.

    Elementwise gate: |analytic - numeric| <= atol + rtol * max(|analytic|, |numeric|).
    """
    arrays, build = factory()
    tensors = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(tensors)
    proj = _rng(label + "/proj").standard_normal(out.shape)
    T.tensor_sum(T.mul(out, T.Tensor(proj))).backward()

    def scalar(arrs: list[np.ndarray]) -> float:
        with T.no_grad():
            o = build([T.Tensor(a) for a in arrs])
        return float((o.data * proj).sum())

    numeric = numeric_grads(scalar, [a.copy() for a in arrays])
    worst = 0.0
    for t, n in zip(tensors, numeric):
        assert t.grad is not None, f"{label}: missing gradient"
        assert t.grad.shape == t.data.shape, f"{label}: gradient shape mismatch"
        diff = np.abs(t.grad - n)
        scale = np.maximum(np.abs(t.grad), np.abs(n))
        bad = diff > atol + rtol * scale
        rel = diff / np.maximum(scale, 1e-30)
        worst = max(worst, float(rel[diff > atol].max()) if (diff > atol).any() else 0.0)
        assert not bad.any(), (
            f"{label}: gradient error {rel[bad].max():.3e} relative "
            f"({diff[bad].max():.3e} absolute) exceeds rtol {rtol:g} / atol {atol:g}"
        )
    return worst


# -- case factories -----------------------------------------------------------


def _normals(label: str, *shapes):
    rng = _rng(label)
    return [rng.standard_normal(s) for s in shapes]


def _away_from_zero(a: np.ndarray, margin: float = 0.1) -> np.ndarray:
    # keep inputs off the ReLU kink so central differences stay valid
    return a + np.where(a >= 0.0, margin, -margin)


def _linear_case(label, xs, ws):
    def factory():
        x, w = _normals(label, xs, ws)
        b = _normals(label + "/b", (ws[-1],))[0]
        return [x, w, b], lambda ts: T.linear(ts[0], ts[1], ts[2])

    return factory


def _softmax_case(label, shape):
    def factory():
        (x,) = _normals(label, shape)
        return [x], lambda ts: T.softmax(ts[0])

    return factory


def _relu_case(label, shape):
    def factory():
        (x,) = _normals(label, shape)
        return [_away_from_zero(x)], lambda ts: T.relu(ts[0])

    return factory


def _layer_norm_case(label, shape):
    def factory():
        x, g, b = _normals(label, shape, (shape[-1],), (shape[-1],))
        return [x, g + 1.0, b], lambda ts: T.layer_norm(ts[0], ts[1], ts[2])

    return factory


def _batch_norm_train_case(label, shape):
    def factory():
        c = shape[1]
        x, g, b = _normals(label, shape, (c,), (c,))
        running = np.zeros(c, dtype=np.float32), np.ones(c, dtype=np.float32)

        def build(ts):
            return T.batch_norm2d(ts[0], ts[1], ts[2], *running, training=True)

        return [x, g + 1.0, b], build

    return factory


def _conv_transpose_case(label, x_shape, c_out):
    def factory():
        c_in = x_shape[1]
        x, k = _normals(label, x_shape, (c_in, c_out, 4, 4))
        b = _normals(label + "/b", (c_out,))[0]
        return [x, k, b], lambda ts: T.conv_transpose2d(ts[0], ts[1], ts[2])

    return factory


def _attention_case(label, x_shape, n_heads, n_queries=None):
    def factory():
        d = x_shape[-1]
        rng = _rng(label)
        x = rng.standard_normal(x_shape)
        ws = [rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(4)]
        bs = [rng.standard_normal(d) * 0.1 for _ in range(4)]

        def build(ts):
            params = T.AttentionParams(
                wq=ts[1], wk=ts[2], wv=ts[3], wo=ts[4],
                bq=ts[5], bk=ts[6], bv=ts[7], bo=ts[8],
            )
            return T.multi_head_self_attention(ts[0], params, n_heads, n_queries=n_queries)

        return [x] + ws + bs, build

    return factory


def _mmse_case(label, shape):
    def factory():
        rng = _rng(label)
        pred = rng.standard_normal(shape)
        target = rng.standard_normal(shape)
        n_rows = shape[-2]
        mask = np.where(rng.random(n_rows) < 0.5, 10.0, 1.0)
        return [pred], lambda ts: TR.mmse_loss(ts[0], target, mask)

    return factory


def _binary_case(label, op, sa, sb):
    def factory():
        a, b = _normals(label, sa, sb)
        return [a, b], lambda ts: op(ts[0], ts[1])

    return factory


def _reshape_case(label, shape, new_shape):
    def factory():
        (x,) = _normals(label, shape)
        return [x], lambda ts: T.reshape(ts[0], new_shape)

    return factory


def _transpose_case(label, shape, axes):
    def factory():
        (x,) = _normals(label, shape)
        return [x], lambda ts: T.transpose(ts[0], axes)

    return factory


def _getitem_case(label, shape, key):
    def factory():
        (x,) = _normals(label, shape)
        return [x], lambda ts: ts[0][key]

    return factory


def _concat_case(label, sa, sb):
    def factory():
        a, b = _normals(label, sa, sb)
        return [a, b], lambda ts: T.concat([ts[0], ts[1]])

    return factory


def _stack_case(label, shape):
    def factory():
        a, b, c = _normals(label, shape, shape, shape)
        return [a, b, c], lambda ts: T.stack(ts)

    return factory


def _reduce_case(label, op, shape):
    def factory():
        (x,) = _normals(label, shape)
        return [x], lambda ts: op(ts[0])

    return factory


def _dropout_case(label, shape, p):
    def factory():
        (x,) = _normals(label, shape)

        def build(ts):
            return T.dropout(ts[0], p, np.random.default_rng(7))

        return [x], build

    return factory


GRAD_SUITE: list[tuple[str, Callable]] = [
    ("linear/5x4.4x3", _linear_case("linear/a", (5, 4), (4, 3))),
    ("linear/batched", _linear_case("linear/b", (2, 3, 6), (6, 2))),
    ("linear/square", _linear_case("linear/c", (1, 7), (7, 7))),
    ("softmax/vec", _softmax_case("softmax/a", (6,))),
    ("softmax/rows", _softmax_case("softmax/b", (3, 5))),
    ("softmax/heads", _softmax_case("softmax/d", (2, 2, 3, 4))),
    ("attention/t3d4h2", _attention_case("attn/a", (1, 3, 4), 2)),
    ("attention/t5d6h3", _attention_case("attn/b", (1, 5, 6), 3)),
    ("attention/batched", _attention_case("attn/c", (2, 3, 4), 2)),
    ("attention/query1", _attention_case("attn/d", (1, 5, 6), 3, n_queries=1)),
    ("attention/query1-batched", _attention_case("attn/e", (2, 5, 6), 3, n_queries=1)),
    ("layer_norm/vec", _layer_norm_case("ln/a", (6,))),
    ("layer_norm/mat", _layer_norm_case("ln/b", (3, 5))),
    ("layer_norm/3d", _layer_norm_case("ln/c", (2, 3, 4))),
    ("batch_norm/train1", _batch_norm_train_case("bn/a", (2, 1, 2, 3))),
    ("batch_norm/train2", _batch_norm_train_case("bn/b", (3, 2, 2, 2))),
    ("batch_norm/train3", _batch_norm_train_case("bn/c", (2, 3, 1, 4))),
    ("conv_transpose/1to2", _conv_transpose_case("ct/a", (2, 1, 3, 3), 2)),
    ("conv_transpose/2to3", _conv_transpose_case("ct/b", (1, 2, 4, 5), 3)),
    ("conv_transpose/3to1", _conv_transpose_case("ct/c", (2, 3, 2, 2), 1)),
    ("conv_transpose/one-row", _conv_transpose_case("ct/d", (2, 2, 1, 4), 3)),
    ("conv_transpose/one-column", _conv_transpose_case("ct/e", (2, 3, 4, 1), 2)),
    ("conv_transpose/2to1-n3", _conv_transpose_case("ct/f", (3, 2, 3, 3), 1)),
    ("relu/vec", _relu_case("relu/a", (7,))),
    ("relu/mat", _relu_case("relu/b", (3, 4))),
    ("relu/3d", _relu_case("relu/c", (2, 3, 4))),
    ("mmse_loss/2d", _mmse_case("mmse/a", (4, 6))),
    ("mmse_loss/batched", _mmse_case("mmse/b", (2, 3, 5))),
    ("mmse_loss/wide", _mmse_case("mmse/c", (2, 9))),
    ("add/broadcast", _binary_case("add/a", T.add, (2, 1, 3), (4, 3))),
    ("add/same", _binary_case("add/b", T.add, (3, 4), (3, 4))),
    ("add/scalarish", _binary_case("add/c", T.add, (5,), (1,))),
    ("sub/broadcast", _binary_case("sub/a", T.sub, (2, 3), (3,))),
    ("sub/same", _binary_case("sub/b", T.sub, (4,), (4,))),
    ("sub/outer", _binary_case("sub/c", T.sub, (2, 1), (1, 3))),
    ("mul/broadcast", _binary_case("mul/a", T.mul, (2, 3), (1, 3))),
    ("mul/same", _binary_case("mul/b", T.mul, (2, 2, 2), (2, 2, 2))),
    ("mul/column", _binary_case("mul/c", T.mul, (3, 2), (3, 1))),
    ("matmul/2d", _binary_case("mm/a", T.matmul, (2, 3), (3, 4))),
    ("matmul/tall", _binary_case("mm/b", T.matmul, (5, 2), (2, 2))),
    ("matmul/batched", _binary_case("mm/c", T.matmul, (2, 3, 4), (2, 4, 2))),
    ("matmul/stacked-weight", _binary_case("mm/d", T.matmul, (2, 3, 4), (4, 5))),
    ("matmul/4d-weight", _binary_case("mm/e", T.matmul, (2, 2, 3, 4), (4, 3))),
    # a single-sample fusion input, [1, tokens, D], takes the row-by-row forward
    ("matmul/few-rows", _binary_case("mm/f", T.matmul, (1, 4, 6), (6, 5))),
    ("reshape/flatten", _reshape_case("rs/a", (2, 3), (6,))),
    ("reshape/split", _reshape_case("rs/b", (4, 3), (2, 2, 3))),
    ("reshape/swap", _reshape_case("rs/c", (2, 3, 2), (3, 4))),
    ("transpose/2d", _transpose_case("tp/a", (2, 3), (1, 0))),
    ("transpose/roll", _transpose_case("tp/b", (2, 3, 4), (2, 0, 1))),
    ("transpose/heads", _transpose_case("tp/d", (2, 3, 2, 4), (0, 2, 1, 3))),
    ("getitem/row", _getitem_case("gi/a", (4, 3), np.s_[1])),
    ("getitem/slice", _getitem_case("gi/b", (5, 4), np.s_[1:4, ::2])),
    ("getitem/tail", _getitem_case("gi/c", (2, 3, 4), np.s_[:, 1:, :2])),
    ("getitem/repeat", _getitem_case("gi/d", (4, 3), np.array([0, 2, 0]))),
    ("concat/axis1", _concat_case("cc/b", (2, 2), (2, 5))),
    ("concat/tokens", _concat_case("cc/d", (2, 1, 4), (2, 3, 4))),
    ("concat/4d", _concat_case("cc/e", (2, 2, 1, 3), (2, 1, 1, 3))),
    ("stack/axis1", _stack_case("st/b", (2, 2))),
    ("stack/last", _stack_case("st/c", (3,))),  # a new axis 1 is the last axis of [3, K]
    ("stack/3d", _stack_case("st/e", (2, 3, 2))),
    ("sum/all", _reduce_case("sum/a", T.tensor_sum, (3, 4))),
    ("sum/vec", _reduce_case("sum/d", T.tensor_sum, (5,))),
    ("sum/4d", _reduce_case("sum/e", T.tensor_sum, (2, 1, 3, 2))),
    ("mean/all", _reduce_case("mean/a", T.mean, (4, 2))),
    ("mean/vec", _reduce_case("mean/d", T.mean, (7,))),
    ("mean/4d", _reduce_case("mean/e", T.mean, (2, 3, 2, 1))),
    ("dropout/mat", _dropout_case("do/a", (4, 5), 0.3)),
    ("dropout/3d", _dropout_case("do/b", (2, 3, 4), 0.5)),
    ("dropout/light", _dropout_case("do/c", (6,), 0.1)),
]
