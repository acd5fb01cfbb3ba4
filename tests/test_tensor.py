"""Autodiff core: gradient checks against central differences plus op semantics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import GRAD_SUITE, check_case
from lidarsynth import tensor as T


@pytest.mark.parametrize("label,factory", GRAD_SUITE, ids=[c[0] for c in GRAD_SUITE])
def test_gradients_match_central_differences(label, factory):
    check_case(label, factory)


# -- graph mechanics ----------------------------------------------------------


def test_diamond_graph_accumulates_both_paths():
    x = T.Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    y = T.tensor_sum(T.add(T.mul(x, x), x))  # d/dx = 2x + 1
    y.backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)


def test_no_grad_suppresses_graph_construction():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        out = T.mul(x, x)
    assert not out.requires_grad
    assert out._parents == ()


def test_no_grad_restores_on_exit():
    x = T.Tensor(np.ones(2), requires_grad=True)
    with T.no_grad():
        pass
    out = T.mul(x, x)
    assert out.requires_grad


def test_backward_requires_scalar_without_explicit_gradient():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    out = T.mul(x, x)
    with pytest.raises(ValueError):
        out.backward()


def test_backward_rejects_a_gradient_of_another_shape():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    y = T.mul(x, x)
    with pytest.raises(ValueError, match="shape"):
        y.backward(np.ones(1))
    assert x.grad is None


def test_backward_copies_the_callers_gradient():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    seed = np.random.default_rng(0).standard_normal((2, 3))
    kept = seed.copy()
    y = T.reshape(x, (3, 2))
    y.backward(seed.reshape(3, 2))
    y.backward(seed.reshape(3, 2))
    np.testing.assert_array_equal(seed, kept)
    np.testing.assert_array_equal(x.grad, 2.0 * kept)


def test_one_array_handed_to_both_parents_sums_exactly():
    x = T.Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    h = T.mul(x, x)
    T.tensor_sum(T.add(h, h)).backward()  # add returns one array for both of its parents
    np.testing.assert_array_equal(x.grad, 4.0 * x.data)


def test_leaf_used_twice_sums_exactly():
    x = T.Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    T.tensor_sum(T.add(x, x)).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_a_taken_gradient_is_never_written_into():
    # the outer add hands one array to s and b; s's add then hands it on to a
    # and b, so summing b's two gradients in place would also change a's
    x = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    a, b = T.mul(x, T.Tensor(3.0)), T.mul(x, T.Tensor(5.0))
    s = T.add(a, b)
    T.tensor_sum(T.add(s, b)).backward()
    np.testing.assert_array_equal(x.grad, [13.0, 13.0])


def test_interior_tensors_keep_no_gradient():
    x = T.Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    h = T.relu(T.mul(x, x))
    y = T.tensor_sum(h)
    y.backward()
    assert h.grad is None and y.grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def test_grad_not_tracked_without_requires_grad():
    x = T.Tensor(np.ones(3))
    out = T.mul(x, x)
    assert not out.requires_grad


def test_tensor_casts_integers_to_float32():
    x = T.Tensor(np.arange(4))
    assert x.dtype == np.float32


def test_tensor_preserves_float64():
    x = T.Tensor(np.zeros(3, dtype=np.float64))
    assert x.dtype == np.float64


# -- elementwise and shape ops --------------------------------------------------


@st.composite
def _broadcast_shapes(draw):
    full = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3))))

    def reduced():
        keep = draw(st.integers(0, len(full)))
        return tuple(d if draw(st.booleans()) else 1 for d in full[keep:])

    return full, reduced(), reduced()


@given(_broadcast_shapes(), st.integers(0, 2**31 - 1))
def test_add_backward_unbroadcasts_to_input_shapes(shapes, seed):
    full, sa, sb = shapes
    rng = np.random.default_rng(seed)
    a = T.Tensor(rng.standard_normal(sa), requires_grad=True)
    b = T.Tensor(rng.standard_normal(sb), requires_grad=True)
    out = T.add(a, b)
    out.backward(np.ones(out.shape))
    # every output cell contributes exactly 1 to each input cell it reads
    np.testing.assert_array_equal(a.grad, np.full(sa, out.size // max(a.size, 1)))
    np.testing.assert_array_equal(b.grad, np.full(sb, out.size // max(b.size, 1)))


@given(st.integers(0, 2**31 - 1))
def test_mul_commutes(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 3, 4))
    np.testing.assert_array_equal(T.mul(T.Tensor(a), T.Tensor(b)).data,
                                  T.mul(T.Tensor(b), T.Tensor(a)).data)


def test_matmul_matches_numpy():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 2))
    np.testing.assert_allclose(T.matmul(T.Tensor(a), T.Tensor(b)).data, a @ b)


@pytest.mark.parametrize("a_shape", [(3, 4, 5), (2, 3, 4, 5)])
@pytest.mark.parametrize("grad_a,grad_b", [(True, False), (False, True)])
def test_matmul_folded_weight_matches_numpy(a_shape, grad_a, grad_b):
    rng = np.random.default_rng(len(a_shape))
    a, b = rng.standard_normal(a_shape), rng.standard_normal((5, 2))
    ta, tb = T.Tensor(a, requires_grad=grad_a), T.Tensor(b, requires_grad=grad_b)
    out = T.matmul(ta, tb)
    np.testing.assert_allclose(out.data, np.matmul(a, b), rtol=1e-12, atol=1e-12)
    g = rng.standard_normal(out.shape)
    out.backward(g)
    if grad_a:
        np.testing.assert_allclose(ta.grad, np.matmul(g, b.T), rtol=1e-12, atol=1e-12)
    else:
        assert ta.grad is None
    if grad_b:
        gb = np.matmul(np.swapaxes(a, -1, -2), g).reshape(-1, 5, 2).sum(axis=0)
        np.testing.assert_allclose(tb.grad, gb, rtol=1e-12, atol=1e-12)
    else:
        assert tb.grad is None


def test_concat_shape_and_order():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.ones((2, 2)))
    out = T.concat([a, b], axis=1)
    assert out.shape == (2, 5)
    np.testing.assert_array_equal(out.data[:, 3:], 1.0)


def test_stack_new_axis():
    parts = [T.Tensor(np.full((2, 2), float(i))) for i in range(3)]
    out = T.stack(parts, axis=0)
    assert out.shape == (3, 2, 2)
    np.testing.assert_array_equal(out.data[2], 2.0)


# -- activations and normalizers ------------------------------------------------


def test_relu_clamps_negatives():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_array_equal(T.relu(T.Tensor(x)).data, [0.0, 0.0, 0.0, 0.5, 2.0])


@given(st.integers(0, 2**31 - 1))
def test_softmax_rows_are_distributions(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 6)) * 5.0
    out = T.softmax(T.Tensor(x), axis=-1).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-6)
    assert (out > 0.0).all()


def test_softmax_shift_invariant():
    x = np.array([[1.0, 2.0, 3.0]])
    a = T.softmax(T.Tensor(x)).data
    b = T.softmax(T.Tensor(x + 1000.0)).data
    np.testing.assert_allclose(a, b, rtol=1e-6)


def test_layer_norm_standardizes_last_axis():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 16)) * 3.0 + 2.0
    ones, zeros = T.Tensor(np.ones(16)), T.Tensor(np.zeros(16))
    out = T.layer_norm(T.Tensor(x), ones, zeros).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, rtol=1e-3)


def test_batch_norm_training_normalizes_per_channel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3, 2, 5)) * 2.0 + 1.0
    state = T.BatchNormState.create(3)
    out = T.batch_norm2d(
        T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), state, training=True
    ).data
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, rtol=1e-3)


def test_batch_norm_updates_running_stats_with_momentum():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 2, 3, 3)) + 5.0
    state = T.BatchNormState.create(2)
    T.batch_norm2d(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), state, training=True)
    mu = x.mean(axis=(0, 2, 3))
    count = 8 * 3 * 3
    var_unbiased = x.var(axis=(0, 2, 3)) * count / (count - 1)
    np.testing.assert_allclose(state.running_mean, 0.1 * mu, rtol=1e-5)
    np.testing.assert_allclose(state.running_var, 0.9 * 1.0 + 0.1 * var_unbiased, rtol=1e-5)


def test_batch_norm_rejects_singleton_batches_in_training():
    state = T.BatchNormState.create(1)
    with pytest.raises(ValueError):
        T.batch_norm2d(
            T.Tensor(np.ones((1, 1, 2, 2))),
            T.Tensor(np.ones(1)),
            T.Tensor(np.zeros(1)),
            state,
            training=True,
        )


def test_batch_norm_eval_ignores_batch_statistics():
    state = T.BatchNormState.create(1)
    x = T.Tensor(np.full((1, 1, 2, 2), 3.0))
    out = T.batch_norm2d(x, T.Tensor(np.ones(1)), T.Tensor(np.zeros(1)), state, training=False)
    # fresh running stats are mean 0, var 1
    np.testing.assert_allclose(out.data, 3.0, rtol=1e-4)


def test_batch_norm_eval_is_a_constant_of_its_inputs():
    rng = np.random.default_rng(3)
    state = T.BatchNormState.create(2)
    state.running_mean = np.array([0.5, -1.0], dtype=np.float32)
    state.running_var = np.array([2.0, 0.25], dtype=np.float32)
    mean, var = state.running_mean.copy(), state.running_var.copy()
    x, gain, bias = (
        T.Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((3, 2, 2, 2), (2,), (2,))
    )
    out = T.batch_norm2d(x, gain, bias, state, training=False)
    assert not out.requires_grad
    np.testing.assert_array_equal(state.running_mean, mean)
    np.testing.assert_array_equal(state.running_var, var)


# -- dropout --------------------------------------------------------------------


def test_dropout_identity_when_disabled():
    x = np.linspace(-1, 1, 10)
    np.testing.assert_array_equal(T.dropout(T.Tensor(x), 0.5, None).data, x)
    np.testing.assert_array_equal(T.dropout(T.Tensor(x), 0.0, np.random.default_rng(0)).data, x)


def test_dropout_zeros_or_rescales_exactly():
    rng = np.random.default_rng(0)
    x = np.ones(10_000)
    out = T.dropout(T.Tensor(x), 0.25, rng).data
    kept = out != 0.0
    np.testing.assert_allclose(out[kept], 1.0 / 0.75, rtol=1e-6)
    assert abs(kept.mean() - 0.75) < 0.02


# -- conv transpose and attention oracles ---------------------------------------


def _naive_conv_transpose(x, k, b, stride=2, padding=1):
    n, cin, h, w = x.shape
    _, cout, kh, kw = k.shape
    full = np.zeros((n, cout, (h - 1) * stride + kh, (w - 1) * stride + kw))
    for nn in range(n):
        for ci in range(cin):
            for i in range(h):
                for j in range(w):
                    full[nn, :, i * stride : i * stride + kh, j * stride : j * stride + kw] += (
                        x[nn, ci, i, j] * k[ci]
                    )
    out = full[:, :, padding : full.shape[2] - padding, padding : full.shape[3] - padding]
    return out + b.reshape(1, -1, 1, 1)


def test_conv_transpose_matches_naive_scatter():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4, 5))
    k = rng.standard_normal((3, 2, 4, 4))
    b = rng.standard_normal(2)
    out = T.conv_transpose2d(T.Tensor(x), T.Tensor(k), T.Tensor(b)).data
    assert out.shape == (2, 2, 8, 10)
    np.testing.assert_allclose(out, _naive_conv_transpose(x, k, b), rtol=1e-10, atol=1e-10)


def test_conv_transpose_doubles_spatial_dims():
    out = T.conv_transpose2d(T.Tensor(np.zeros((1, 4, 7, 9))), T.Tensor(np.zeros((4, 2, 4, 4))))
    assert out.shape == (1, 2, 14, 18)


def test_conv_transpose_rejects_unbatched_input():
    with pytest.raises(ValueError):
        T.conv_transpose2d(T.Tensor(np.zeros((4, 7, 9))), T.Tensor(np.zeros((4, 2, 4, 4))))


def _naive_attention_single_head(x, p):
    q = x @ p["wq"] + p["bq"]
    k = x @ p["wk"] + p["bk"]
    v = x @ p["wv"] + p["bv"]
    scores = q @ k.T / np.sqrt(x.shape[1])
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    return (attn @ v) @ p["wo"] + p["bo"]


def test_attention_matches_numpy_single_head():
    rng = np.random.default_rng(5)
    d, t = 6, 4
    x = rng.standard_normal((t, d))
    raw = {n: rng.standard_normal((d, d)) / np.sqrt(d) for n in ("wq", "wk", "wv", "wo")}
    raw.update({n: rng.standard_normal(d) * 0.1 for n in ("bq", "bk", "bv", "bo")})
    params = T.AttentionParams(**{n: T.Tensor(v) for n, v in raw.items()})
    out = T.multi_head_self_attention(T.Tensor(x[None]), params, n_heads=1).data
    np.testing.assert_allclose(out[0], _naive_attention_single_head(x, raw), rtol=1e-8)


def test_attention_weights_rows_sum_to_one():
    rng = np.random.default_rng(6)
    d, t, heads = 8, 5, 2
    x = rng.standard_normal((1, t, d))
    params = T.AttentionParams(
        *(T.Tensor(rng.standard_normal((d, d)) * 0.3) for _ in range(4)),
        *(T.Tensor(np.zeros(d)) for _ in range(4)),
    )
    out, weights = T.multi_head_self_attention(T.Tensor(x), params, heads, return_weights=True)
    assert out.shape == (1, t, d)
    assert weights.shape == (1, heads, t, t)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-5)


def _zero_attention_params(d):
    return T.AttentionParams(
        *(T.Tensor(np.zeros((d, d))) for _ in range(4)),
        *(T.Tensor(np.zeros(d)) for _ in range(4)),
    )


def test_attention_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        T.multi_head_self_attention(T.Tensor(np.zeros((1, 3, 5))), _zero_attention_params(5), n_heads=2)


def test_attention_rejects_unbatched_input():
    with pytest.raises(ValueError):
        T.multi_head_self_attention(T.Tensor(np.zeros((3, 4))), _zero_attention_params(4), n_heads=2)


def test_attention_batched_matches_per_sample():
    rng = np.random.default_rng(7)
    d, t = 4, 3
    x = rng.standard_normal((2, t, d))
    params = T.AttentionParams(
        *(T.Tensor(rng.standard_normal((d, d)) * 0.5) for _ in range(4)),
        *(T.Tensor(rng.standard_normal(d) * 0.1) for _ in range(4)),
    )
    batched = T.multi_head_self_attention(T.Tensor(x), params, 2).data
    for i in range(2):
        single = T.multi_head_self_attention(T.Tensor(x[i : i + 1]), params, 2).data
        np.testing.assert_allclose(batched[i], single[0], rtol=1e-6)
