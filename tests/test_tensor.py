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


def test_a_consumed_root_refuses_a_second_backward():
    x = T.Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    y = T.tensor_sum(T.mul(x, x))
    y.backward()
    first = x.grad.copy()
    with pytest.raises(ValueError, match="graph"):
        y.backward()
    np.testing.assert_array_equal(x.grad.view(np.uint64), first.view(np.uint64))


def test_backward_refuses_a_leaf_and_a_no_grad_result():
    x = T.Tensor(np.array(2.0), requires_grad=True)
    with T.no_grad():
        y = T.tensor_sum(T.mul(x, x))
    for t in (x, y):
        with pytest.raises(ValueError, match="graph"):
            t.backward()
    assert x.grad is None


@pytest.mark.parametrize("buffered", [False, True])
def test_backward_writes_the_leaf_gradient_rather_than_adding_to_it(buffered):
    x = T.Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    if buffered:
        buf = np.full(3, np.nan)
        x.grad = buf
    T.tensor_sum(T.mul(x, x)).backward()  # 2x
    T.tensor_sum(T.mul(x, T.Tensor(np.array([3.0, 5.0, 7.0])))).backward()
    np.testing.assert_array_equal(x.grad, [3.0, 5.0, 7.0])
    if buffered:
        assert x.grad is buf


def test_backward_consumes_the_graph_it_sweeps():
    x = T.Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    h = T.mul(x, x)
    r = T.relu(h)
    y = T.tensor_sum(T.add(r, h))
    y.backward()
    for t in (y, r, h):
        assert t._parents == () and t._backward is T._consumed
    assert x._backward is None
    np.testing.assert_array_equal(x.grad, 4.0 * x.data)


def test_a_consumed_interior_tensor_refuses_a_new_graph():
    # a consumed tensor keeps requires_grad; reused in a new graph, the sweep
    # must not take it for a leaf and stop there with x.grad left stale
    x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = T.mul(x, x)
    T.tensor_sum(h).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    with pytest.raises(ValueError, match="graph was consumed"):
        T.tensor_sum(T.mul(h, h)).backward()
    assert h.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    # nor is any leaf of the refused graph written, even one the sweep would reach first
    w = T.Tensor(np.array([3.0, 5.0]), requires_grad=True)
    with pytest.raises(ValueError, match="graph was consumed"):
        T.add(T.tensor_sum(T.mul(w, w)), T.tensor_sum(T.mul(h, h))).backward()
    assert w.grad is None


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
    T.tensor_sum(out).backward()
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
    T.tensor_sum(T.mul(out, T.Tensor(g))).backward()
    if grad_a:
        np.testing.assert_allclose(ta.grad, np.matmul(g, b.T), rtol=1e-12, atol=1e-12)
    else:
        assert ta.grad is None
    if grad_b:
        gb = np.matmul(np.swapaxes(a, -1, -2), g).reshape(-1, 5, 2).sum(axis=0)
        np.testing.assert_allclose(tb.grad, gb, rtol=1e-12, atol=1e-12)
    else:
        assert tb.grad is None


@pytest.mark.parametrize("a_shape", [(1, 96), (3, 96), (1, 4, 96)])
def test_matmul_of_few_rows_is_one_gemv_per_row(a_shape):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(a_shape).astype(np.float32)
    w = rng.standard_normal((96, 40)).astype(np.float32)
    a2 = a.reshape(-1, 96)
    rows = np.stack([np.matmul(a2[r], w) for r in range(a2.shape[0])])
    out = T.matmul(T.Tensor(a), T.Tensor(w)).data
    np.testing.assert_array_equal(out, rows.reshape(a_shape[:-1] + (40,)))


def test_matmul_of_five_rows_is_one_gemm():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 96)).astype(np.float32)
    w = rng.standard_normal((96, 40)).astype(np.float32)
    np.testing.assert_array_equal(T.matmul(T.Tensor(a), T.Tensor(w)).data, a @ w)


def test_concat_shape_and_order():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.ones((2, 2)))
    out = T.concat([a, b])
    assert out.shape == (2, 5)
    np.testing.assert_array_equal(out.data[:, 3:], 1.0)


def test_stack_new_axis():
    parts = [T.Tensor(np.full((2, 2), float(i))) for i in range(3)]
    out = T.stack(parts)
    assert out.shape == (2, 3, 2)
    np.testing.assert_array_equal(out.data[:, 2], 2.0)


# -- activations and normalizers ------------------------------------------------


def test_relu_clamps_negatives():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_array_equal(T.relu(T.Tensor(x)).data, [0.0, 0.0, 0.0, 0.5, 2.0])


@given(st.integers(0, 2**31 - 1))
def test_softmax_rows_are_distributions(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 6)) * 5.0
    out = T.softmax(T.Tensor(x)).data
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


def _fresh_stats(c):
    """Running statistics as a new batch-norm layer holds them: mean 0, variance 1."""
    return np.zeros(c, dtype=np.float32), np.ones(c, dtype=np.float32)


def test_batch_norm_training_normalizes_per_channel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3, 2, 5)) * 2.0 + 1.0
    out = T.batch_norm2d(
        T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), *_fresh_stats(3), training=True
    ).data
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, rtol=1e-3)


def test_batch_norm_updates_running_stats_with_momentum():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 2, 3, 3)) + 5.0
    running_mean, running_var = _fresh_stats(2)
    T.batch_norm2d(
        T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), running_mean, running_var, training=True
    )
    mu = x.mean(axis=(0, 2, 3))
    count = 8 * 3 * 3
    var_unbiased = x.var(axis=(0, 2, 3)) * count / (count - 1)
    np.testing.assert_allclose(running_mean, 0.1 * mu, rtol=1e-5)
    np.testing.assert_allclose(running_var, 0.9 * 1.0 + 0.1 * var_unbiased, rtol=1e-5)


def test_batch_norm_training_updates_the_arrays_it_was_given():
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.standard_normal((3, 2, 2, 2)).astype(np.float32))
    running_mean = np.array([0.5, -1.0], dtype=np.float32)
    running_var = np.array([2.0, 0.25], dtype=np.float32)
    mu, var = x.data.mean(axis=(0, 2, 3)), x.data.var(axis=(0, 2, 3))
    want_mean = (0.9 * running_mean + 0.1 * mu).astype(np.float32)
    want_var = (0.9 * running_var + 0.1 * (var * 12 / 11)).astype(np.float32)  # N·H·W = 12
    T.batch_norm2d(x, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), running_mean, running_var, training=True)
    assert running_mean.dtype == running_var.dtype == np.float32
    np.testing.assert_array_equal(running_mean, want_mean)
    np.testing.assert_array_equal(running_var, want_var)


def test_batch_norm_rejects_singleton_batches_in_training():
    with pytest.raises(ValueError):
        T.batch_norm2d(
            T.Tensor(np.ones((1, 1, 2, 2))),
            T.Tensor(np.ones(1)),
            T.Tensor(np.zeros(1)),
            *_fresh_stats(1),
            training=True,
        )


def test_batch_norm_eval_ignores_batch_statistics():
    x = T.Tensor(np.full((1, 1, 2, 2), 3.0))
    out = T.batch_norm2d(x, T.Tensor(np.ones(1)), T.Tensor(np.zeros(1)), *_fresh_stats(1), training=False)
    # fresh running stats are mean 0, var 1
    np.testing.assert_allclose(out.data, 3.0, rtol=1e-4)


def test_batch_norm_eval_is_a_constant_of_its_inputs():
    rng = np.random.default_rng(3)
    running_mean = np.array([0.5, -1.0], dtype=np.float32)
    running_var = np.array([2.0, 0.25], dtype=np.float32)
    mean, var = running_mean.copy(), running_var.copy()
    x, gain, bias = (
        T.Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((3, 2, 2, 2), (2,), (2,))
    )
    out = T.batch_norm2d(x, gain, bias, running_mean, running_var, training=False)
    assert not out.requires_grad
    np.testing.assert_array_equal(running_mean, mean)
    np.testing.assert_array_equal(running_var, var)


def test_batch_norm_eval_leaves_the_running_arrays_untouched():
    rng = np.random.default_rng(5)
    running_mean = np.array([0.5, -1.0], dtype=np.float32)
    running_var = np.array([2.0, 0.25], dtype=np.float32)
    for arr in (running_mean, running_var):
        arr.flags.writeable = False  # an in-place write raises
    x = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)
    gain, bias = np.array([1.5, 0.5], dtype=np.float32), np.array([0.1, -0.2], dtype=np.float32)
    out = T.batch_norm2d(T.Tensor(x), T.Tensor(gain), T.Tensor(bias), running_mean, running_var, training=False)
    want = (x - running_mean[:, None, None]) / np.sqrt(running_var[:, None, None] + 1e-5) * gain[:, None, None]
    np.testing.assert_allclose(out.data, want + bias[:, None, None], rtol=1e-6, atol=1e-6)


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


def _naive_conv_transpose(x, k, b):
    # input pixel (i, j) scatters its 4x4 kernel onto [2i, 2i + 4) x [2j, 2j + 4)
    # of a (2H + 2) x (2W + 2) map; the output is the map minus its one-pixel rim
    n, cin, h, w = x.shape
    _, cout, kh, kw = k.shape
    full = np.zeros((n, cout, 2 * (h - 1) + kh, 2 * (w - 1) + kw))
    for nn in range(n):
        for ci in range(cin):
            for i in range(h):
                for j in range(w):
                    full[nn, :, 2 * i : 2 * i + kh, 2 * j : 2 * j + kw] += x[nn, ci, i, j] * k[ci]
    out = full[:, :, 1 : full.shape[2] - 1, 1 : full.shape[3] - 1]
    return out + b.reshape(1, -1, 1, 1)


# (C_in, C_out, H, W) of the toy decoder's five layers (seed map 5x4)
_TOY_DECONV_LAYERS = [(1, 8, 5, 4), (8, 8, 10, 8), (8, 4, 20, 16), (4, 4, 40, 32), (4, 1, 80, 64)]

# (batch, C_in, C_out, H, W): the toy decoder's channel pairs at batch 1 and
# 3, where C_in = 1 or C_out = 1 turns the stacked tap product into a
# matrix-vector one, plus one-row and one-column inputs, where every shifted
# tap slice is empty
_SCATTER_CASES = (
    [(2, 3, 2, 4, 5)]
    + [(n, c_in, c_out, 4, 5) for c_in, c_out, _, _ in _TOY_DECONV_LAYERS for n in (1, 3)]
    + [(3, 2, 3, 1, 5), (3, 2, 3, 4, 1), (2, 4, 1, 1, 1)]
)


def _scatter_id(n, c_in, c_out, h, w):
    return f"{c_in}to{c_out}/n{n}" + ("" if (h, w) == (4, 5) else f"/{h}x{w}")


@pytest.mark.parametrize("n, c_in, c_out, h, w", _SCATTER_CASES, ids=[_scatter_id(*c) for c in _SCATTER_CASES])
def test_conv_transpose_matches_naive_scatter(n, c_in, c_out, h, w):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((n, c_in, h, w))
    k = rng.standard_normal((c_in, c_out, 4, 4))
    b = rng.standard_normal(c_out)
    out = T.conv_transpose2d(T.Tensor(x), T.Tensor(k), T.Tensor(b)).data
    assert out.shape == (n, c_out, 2 * h, 2 * w)
    np.testing.assert_allclose(out, _naive_conv_transpose(x, k, b), rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize(
    "c_in, c_out, h, w", _TOY_DECONV_LAYERS, ids=[f"{ci}to{co}/{h}x{w}" for ci, co, h, w in _TOY_DECONV_LAYERS]
)
def test_conv_transpose_float32_gradients_match_float64_at_toy_batch(c_in, c_out, h, w):
    # at the toy training batch of 32 the gradient sums run over N*H*W terms,
    # up to about 40k for the kernel's; the worst max|g32 - g64| / max|g64|
    # over 20 random draws of these layers was 5.5e-7, and the gate leaves
    # about 4x headroom
    rng = np.random.default_rng(22)
    x = np.maximum(rng.standard_normal((32, c_in, h, w)), 0.0).astype(np.float32)
    k = (0.02 * rng.standard_normal((c_in, c_out, 4, 4))).astype(np.float32)
    b = (0.02 * rng.standard_normal(c_out)).astype(np.float32)
    g = rng.standard_normal((32, c_out, 2 * h, 2 * w)).astype(np.float32)

    def grads(dtype):
        ts = [T.Tensor(a.astype(dtype), requires_grad=True) for a in (x, k, b)]
        T.tensor_sum(T.mul(T.conv_transpose2d(*ts), T.Tensor(g.astype(dtype)))).backward()
        return [t.grad for t in ts]

    for name, g32, g64 in zip(("gx", "gk", "gb"), grads(np.float32), grads(np.float64)):
        assert g32.dtype == np.float32
        err = float(np.abs(g32 - g64).max() / np.abs(g64).max())
        assert err < 2e-6, f"{name}: float32 error {err:.2e} of the largest gradient entry"


def test_conv_transpose_doubles_spatial_dims():
    out = T.conv_transpose2d(T.Tensor(np.zeros((1, 4, 7, 9))), T.Tensor(np.zeros((4, 2, 4, 4))), T.Tensor(np.zeros(2)))
    assert out.shape == (1, 2, 14, 18)


def test_conv_transpose_rejects_unbatched_input():
    with pytest.raises(ValueError):
        T.conv_transpose2d(T.Tensor(np.zeros((4, 7, 9))), T.Tensor(np.zeros((4, 2, 4, 4))), T.Tensor(np.zeros(2)))


@pytest.mark.parametrize(
    "k_shape, b_len",
    [((4, 2, 3, 3), 2), ((4, 2, 4, 5), 2), ((3, 2, 4, 4), 2), ((4, 2, 4), 2), ((4, 2, 4, 4), 3), ((4, 2, 4, 4), 1)],
)
def test_conv_transpose_rejects_kernels_that_are_not_4x4_and_misshaped_bias(k_shape, b_len):
    with pytest.raises(ValueError):
        T.conv_transpose2d(T.Tensor(np.zeros((1, 4, 7, 9))), T.Tensor(np.zeros(k_shape)), T.Tensor(np.zeros(b_len)))


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
    # with wv zero every value row is bv, so each output row is its weights'
    # sum times bv, projected by wo
    rng = np.random.default_rng(6)
    d, t, heads = 8, 5, 2
    x = rng.standard_normal((1, t, d))
    wq, wk, wo = (rng.standard_normal((d, d)) * 0.3 for _ in range(3))
    bv = rng.standard_normal(d)
    params = T.AttentionParams(
        *(T.Tensor(w) for w in (wq, wk, np.zeros((d, d)), wo)),
        *(T.Tensor(b) for b in (np.zeros(d), np.zeros(d), bv, np.zeros(d))),
    )
    out = T.multi_head_self_attention(T.Tensor(x), params, heads)
    assert out.shape == (1, t, d)
    np.testing.assert_allclose(out.data, np.broadcast_to(bv @ wo, (1, t, d)), rtol=1e-12, atol=1e-14)


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


def test_attention_query_subset_is_the_first_rows_of_the_full_call():
    rng = np.random.default_rng(8)
    d, t, heads = 6, 5, 3
    x = T.Tensor(rng.standard_normal((2, t, d)))
    params = T.AttentionParams(
        *(T.Tensor(rng.standard_normal((d, d)) / np.sqrt(d)) for _ in range(4)),
        *(T.Tensor(rng.standard_normal(d) * 0.1) for _ in range(4)),
    )
    full = T.multi_head_self_attention(x, params, heads)
    for k in (1, 2, t):
        out = T.multi_head_self_attention(x, params, heads, n_queries=k)
        assert out.shape == (2, k, d)
        np.testing.assert_allclose(out.data, full.data[:, :k], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("k", [1, 2])
def test_attention_query_subset_backward_matches_the_full_call(k):
    # D > T, as in the encoders, whose last block folds the key and value
    # projections into its query rows
    rng = np.random.default_rng(9)
    d, t, heads = 12, 5, 3
    x = rng.standard_normal((2, t, d))
    arrays = [x] + [rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(4)]
    arrays += [rng.standard_normal(d) * 0.1 for _ in range(4)]
    proj = T.Tensor(rng.standard_normal((2, k, d)))

    def grads(n_queries):
        ts = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = T.multi_head_self_attention(ts[0], T.AttentionParams(*ts[1:]), heads, n_queries=n_queries)
        T.tensor_sum(T.mul(out[:, :k], proj)).backward()
        return [tt.grad for tt in ts]

    names = ["x", "wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo"]
    folded, full = grads(k), grads(None)
    scale = max(np.abs(g).max() for g in full)
    for name, got, want in zip(names, folded, full, strict=True):
        assert got.shape == want.shape, name
        if name == "bk":  # softmax cancels the key bias: its gradient is zero up to rounding
            assert np.abs(got).max() <= 1e-10 * scale and np.abs(want).max() <= 1e-10 * scale
        else:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max(), err_msg=name)


@pytest.mark.parametrize("k", [-1, 0, 4])
def test_attention_rejects_query_count_outside_token_range(k):
    with pytest.raises(ValueError):
        T.multi_head_self_attention(T.Tensor(np.zeros((1, 3, 4))), _zero_attention_params(4), 2, n_queries=k)
