"""Parameter store and the in-place Adam update."""

import numpy as np

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
    store = ParamStore()
    ref = {}
    for name, shape in shapes.items():
        ref[name] = (rng.standard_normal(shape) * scales[name]).astype(np.float32)
        store.add(name, ref[name])
    store.add("frozen", np.ones(3, dtype=np.float32), trainable=False)
    ref_state = {}
    for step, lr in enumerate((1e-3, 1e-3, 1e-4)):
        grads = {
            name: (rng.standard_normal(shape) * 10.0 ** -step).astype(np.float32)
            for name, shape in shapes.items()
        }
        for name, g in grads.items():
            store[name].grad = g.copy()
        adam_step(store, lr)
        ref = _reference_adam(ref, grads, ref_state, lr)
        for name in shapes:
            m, v, t = ref_state[name]
            st = store.adam[name]
            assert st.t == t == step + 1
            np.testing.assert_array_equal(_bits(store[name].data), _bits(ref[name]))
            np.testing.assert_array_equal(_bits(st.m), _bits(m))
            np.testing.assert_array_equal(_bits(st.v), _bits(v))
            np.testing.assert_array_equal(store[name].grad, grads[name])
    assert "frozen" not in store.adam
    np.testing.assert_array_equal(store["frozen"].data, np.ones(3, dtype=np.float32))


def test_adam_step_leaves_the_array_given_to_add_unchanged():
    given = np.arange(6, dtype=np.float32).reshape(2, 3)
    before = given.copy()
    store = ParamStore()
    p = store.add("w", given)
    p.grad = np.ones_like(given)
    adam_step(store, 0.1)
    np.testing.assert_array_equal(given, before)
    assert not np.array_equal(p.data, before)
