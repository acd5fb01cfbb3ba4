"""Parameter store and the in-place Adam update."""

import numpy as np
import pytest

from lidarsynth import optim
from lidarsynth.optim import ParamStore, adam_step


def _reference_adam(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The out-of-place bias-corrected update that adam_step must reproduce bit for bit."""
    out = {}
    for name, p in params.items():
        g = grads[name]
        m, v, t = state.get(name, (np.zeros_like(p), np.zeros_like(p), 0))
        t += 1
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        out[name] = p - (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.dtype)
        state[name] = (m, v, t)
    return out


def _bits(a: np.ndarray) -> np.ndarray:
    assert a.dtype == np.float32
    return a.view(np.uint32)


def test_adam_step_is_bit_identical_to_out_of_place_formula():
    rng = np.random.default_rng(11)
    shapes = {"w": (7, 5), "b": (5,), "k": (2, 3, 4, 4)}
    # model-like init; a zero bias passes every bit of the first update through
    scales = {"w": 0.02, "b": 0.0, "k": 1.0}
    ref = {name: (rng.standard_normal(shape) * scales[name]).astype(np.float32) for name, shape in shapes.items()}
    store = ParamStore([*((name, arr, True) for name, arr in ref.items()), ("frozen", np.ones(3), False)])
    ref_state = {}
    for step, lr in enumerate((1e-3, 1e-3, 1e-4)):
        grads = {
            name: (rng.standard_normal(shape) * 10.0 ** -step).astype(np.float32)
            for name, shape in shapes.items()
        }
        for name, g in grads.items():
            store[name].grad[...] = g
        adam_step(store, lr)
        ref = _reference_adam(ref, grads, ref_state, lr)
        assert store.t == step + 1
        # the arena holds the trainable parameters back to back, in entry order
        for buf, want in ((store.m, 0), (store.v, 1)):
            flat = np.concatenate([ref_state[name][want].ravel() for name in shapes])
            np.testing.assert_array_equal(_bits(buf), _bits(flat))
        for name in shapes:
            assert ref_state[name][2] == store.t
            np.testing.assert_array_equal(_bits(store[name].data), _bits(ref[name]))
            np.testing.assert_array_equal(store[name].grad, grads[name])
    assert store["frozen"].grad is None
    np.testing.assert_array_equal(store["frozen"].data, np.ones(3, dtype=np.float32))


def test_adam_step_crosses_chunk_boundaries_bit_identically():
    # sizes around the update's chunk length, so chunks split parameters
    rng = np.random.default_rng(12)
    sizes = {"a": optim._CHUNK - 3, "b": 5, "c": optim._CHUNK + 7}
    ref = {name: rng.standard_normal(n).astype(np.float32) for name, n in sizes.items()}
    store = ParamStore((name, arr, True) for name, arr in ref.items())
    ref_state = {}
    for lr in (1e-3, 1e-4):
        grads = {name: rng.standard_normal(n).astype(np.float32) for name, n in sizes.items()}
        for name, g in grads.items():
            store[name].grad[...] = g
        adam_step(store, lr)
        ref = _reference_adam(ref, grads, ref_state, lr)
        for name in sizes:
            np.testing.assert_array_equal(_bits(store[name].data), _bits(ref[name]))


def test_adam_step_leaves_the_given_array_unchanged():
    given = np.arange(6, dtype=np.float32).reshape(2, 3)
    before = given.copy()
    store = ParamStore([("w", given, True)])
    p = store["w"]
    p.grad[...] = 1.0
    adam_step(store, 0.1)
    np.testing.assert_array_equal(given, before)
    assert not np.array_equal(p.data, before)


def test_adam_step_rejects_tensors_rebound_away_from_the_arena():
    for attr in ("grad", "data"):
        store = ParamStore([("w", np.zeros((2, 3)), True), ("b", np.zeros(3), True)])
        setattr(store["b"], attr, np.ones(3, dtype=np.float32))
        with pytest.raises(ValueError, match="'b'"):
            adam_step(store, 0.1)
        assert store.t == 0


def test_store_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        ParamStore([("w", np.zeros(2), True), ("w", np.zeros(2), False)])
