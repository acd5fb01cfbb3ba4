"""Dense tensors with reverse-mode autodiff, covering exactly what the model needs.

The graph is built eagerly: every op returns a new Tensor holding a closure
that maps the output's gradient to one gradient (or None) per parent, in
``parents`` order.  ``Tensor.backward()`` walks the graph once from a scalar
root (the loss) in reverse topological order, summing the paths that meet at
a node, and consumes it: each node drops its parents and closure as it is
passed, so a second backward from the same root raises.  A leaf's summed
gradient is written, never added, into ``Tensor.grad``.

Every op takes Tensor operands and coerces nothing; a constant enters the
graph as ``Tensor(...)``.  Parameters and activations are float32 by
default; every op also works in float64 so finite-difference oracles can
run at full precision.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "matmul",
    "reshape",
    "transpose",
    "concat",
    "stack",
    "tensor_sum",
    "mean",
    "relu",
    "softmax",
    "dropout",
    "linear",
    "layer_norm",
    "batch_norm2d",
    "conv_transpose2d",
    "AttentionParams",
    "multi_head_self_attention",
]

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference / oracles)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A dense n-D float array; ``grad`` holds a leaf's gradient from its last backward."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- graph plumbing -----------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this tensor, which must be a scalar (the loss).

        The sweep consumes the graph: each interior node it passes drops its
        parents, and its closure becomes ``_consumed``.  A later graph that
        holds such a node raises before its sweep starts, instead of taking
        the node for a leaf.
        """
        if self._backward is None:
            raise ValueError("backward() needs a graph: a leaf or a no_grad result has none")
        if self.size != 1:
            raise ValueError("backward() needs a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                _consumed(None)  # before the sweep has written any leaf gradient
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        pending = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            parents, backward = node._parents, node._backward
            node._parents = ()
            if backward is not None:
                node._backward = _consumed
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if backward is None:  # a leaf: every path into it is summed by now
                if node.grad is None:
                    node.grad = np.array(g, dtype=node.dtype)
                else:
                    np.copyto(node.grad, g)
                continue
            for p, gp in zip(parents, backward(g), strict=True):
                if gp is None or not p.requires_grad:
                    continue
                prev = pending.get(id(p))
                if prev is None:
                    # a strided gradient is copied: BLAS would run another kernel on it
                    pending[id(p)] = gp if gp.flags.c_contiguous else gp.copy()
                else:
                    # never in place: an op may hand one array to several parents
                    pending[id(p)] = prev + gp

    # -- indexing (the model slices query rows and reads the class token) ---

    def __getitem__(self, key):
        return _getitem(self, key)


def _consumed(g):
    """The closure of an interior tensor whose graph a backward sweep has consumed."""
    raise ValueError("this tensor's graph was consumed by an earlier backward(); build a new graph")


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# -- arithmetic --------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                -_unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(out_data, (a, b), backward)


# A folded product of at most this many rows meets its weight one row at a
# time.  OpenBLAS packs the weight before a GEMM and so streams it at 2.5-4.2
# GB/s at 2-16 rows, where a one-row product (GEMV) streams it at 17-23 GB/s.
# On cold fusion and encoder weights, [768, 768] to [3072, 1024] on one
# thread, row by row was 2.1-3.7x faster than the GEMM at 2 rows and 1.2-1.9x
# at 4; the two tie at 8 rows and row by row loses 1.2-2x at 16.
_ROW_BY_ROW_MAX_ROWS = 4


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked leading dims follow numpy.matmul semantics.

    A product of an [..., D] input with a [D, O] weight runs as one 2-D GEMM
    over the folded leading dims, forward and backward, rather than one
    small GEMM per leading index; its weight gradient is one [D, M] @ [M, O]
    product, with no [..., D, O] stack to sum down.  A forward of at most
    ``_ROW_BY_ROW_MAX_ROWS`` folded rows runs one GEMV per row instead.
    """
    if a.ndim >= 2 and b.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        if a2.shape[0] <= _ROW_BY_ROW_MAX_ROWS:
            out2 = np.empty((a2.shape[0], b.shape[1]), np.result_type(a2, b.data))
            for r in range(a2.shape[0]):
                np.matmul(a2[r], b.data, out=out2[r])
        else:
            out2 = a2 @ b.data
        out_data = out2.reshape(a.shape[:-1] + (b.shape[1],))

        def backward_folded(g):
            g2 = g.reshape(-1, g.shape[-1])
            return ((g2 @ b.data.T).reshape(a.shape) if a.requires_grad else None,
                    a2.T @ g2 if b.requires_grad else None)

        return _make(out_data, (a, b), backward_folded)

    out_data = np.matmul(a.data, b.data)

    def backward(g):
        return (_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape) if a.requires_grad else None,
                _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape) if b.requires_grad else None)

    return _make(out_data, (a, b), backward)


# -- shape ops ---------------------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out_data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.shape),)

    return _make(out_data, (x,), backward)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    out_data = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inv),)

    return _make(out_data, (x,), backward)


def _getitem(x: Tensor, key) -> Tensor:
    out_data = x.data[key]

    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, key, g)  # a repeated index gets every contribution
        return (full,)

    return _make(out_data, (x,), backward)


def concat(tensors: Iterable[Tensor]) -> Tensor:
    """Join [N, K_i, ...] tensors along axis 1 into [N, sum K_i, ...]."""
    ts = tuple(tensors)
    out_data = np.concatenate([t.data for t in ts], axis=1)
    offsets = np.cumsum([0] + [t.shape[1] for t in ts])

    def backward(g):
        return [g[:, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]

    return _make(out_data, ts, backward)


def stack(tensors: Iterable[Tensor]) -> Tensor:
    """Stack [N, ...] tensors along a new axis 1 into [N, K, ...]."""
    return concat([reshape(t, t.shape[:1] + (1,) + t.shape[1:]) for t in tensors])


# -- reductions --------------------------------------------------------------


def tensor_sum(x: Tensor) -> Tensor:
    """The sum of every element, as a 0-d tensor."""
    out_data = x.data.sum()

    def backward(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype),)

    return _make(out_data, (x,), backward)


def mean(x: Tensor) -> Tensor:
    """The mean of every element, as a 0-d tensor."""
    return mul(tensor_sum(x), Tensor(np.asarray(1.0 / x.size, dtype=x.dtype)))


# -- nonlinearities ----------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def backward(g):
        return (g * (x.data > 0),)

    return _make(out_data, (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Rows along the last axis sum to one; max-subtraction keeps exp() in range."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Zero each element with probability p and scale survivors by 1/(1-p).

    Without an rng (an evaluation pass) it is the identity.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.dtype)
    out_data = x.data * keep * scale

    def backward(g):
        return (g * keep * scale,)

    return _make(out_data, (x,), backward)


# -- layers ------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = x @ weight + bias, for x of shape [..., I], weight [I, O] and bias [O]."""
    if x.shape[-1] != weight.shape[0]:
        raise ValueError(f"linear: input dim {x.shape[-1]} vs weight rows {weight.shape[0]}")
    if bias.shape != (weight.shape[1],):
        raise ValueError(f"linear: bias shape {bias.shape} vs out dim {weight.shape[1]}")
    return add(matmul(x, weight), bias)


NORM_EPS = 1e-5  # added to the variance by layer norm and batch norm alike
BN_MOMENTUM = 0.1  # weight of the batch statistic in a running-statistic update


def _normalize(x: Tensor, gain: Tensor, bias: Tensor, axes: tuple[int, ...], param_shape: tuple[int, ...]):
    """Normalize `x` over `axes`, then scale and shift by gain and bias viewed as `param_shape`.

    The one normalize-then-scale forward and backward behind layer norm and
    training-mode batch norm.  Returns the output and the batch mean and
    (biased) variance, with the reduced axes kept.
    """
    mu = x.data.mean(axis=axes, keepdims=True)
    var = x.data.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (x.data - mu) * inv
    gd = gain.data.reshape(param_shape)
    out_data = xhat * gd + bias.data.reshape(param_shape)

    def backward(g):
        gx = None
        if x.requires_grad:
            gh = g * gd
            m1 = gh.mean(axis=axes, keepdims=True)
            m2 = (gh * xhat).mean(axis=axes, keepdims=True)
            gx = (gh - m1 - xhat * m2) * inv
        return (gx,
                _unbroadcast(g * xhat, param_shape).reshape(gain.shape) if gain.requires_grad else None,
                _unbroadcast(g, param_shape).reshape(bias.shape) if bias.requires_grad else None)

    return _make(out_data, (x, gain, bias), backward), mu, var


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    return _normalize(x, gain, bias, (-1,), gain.shape)[0]


def batch_norm2d(
    x: Tensor, gain: Tensor, bias: Tensor, running_mean: np.ndarray, running_var: np.ndarray, training: bool
) -> Tensor:
    """Per-channel normalization over (N, H, W).

    A training pass normalizes with the batch statistics and updates the
    float32 arrays `running_mean` and `running_var` in place.  An evaluation
    pass normalizes with those arrays instead and returns a constant: no
    gradient flows back through it.
    """
    if x.ndim != 4:
        raise ValueError(f"batch_norm2d expects [N, C, H, W], got shape {x.shape}")
    n, c, h, w = x.shape
    if any(a.shape != (c,) for a in (gain, bias, running_mean, running_var)):
        raise ValueError("batch_norm2d: gain, bias and running statistics must have one entry per channel")
    if training:
        if n < 2:
            raise ValueError("batch_norm2d training mode needs a batch of at least 2")
        out, mu, var = _normalize(x, gain, bias, (0, 2, 3), (1, c, 1, 1))
        count = n * h * w
        running_mean *= 1 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu.reshape(c)
        running_var *= 1 - BN_MOMENTUM
        running_var += BN_MOMENTUM * (var.reshape(c) * count / (count - 1))
        return out

    inv = 1.0 / np.sqrt(running_var + NORM_EPS)
    scale = (gain.data.reshape(1, c, 1, 1) * inv.reshape(1, c, 1, 1)).astype(x.dtype)
    return Tensor((x.data - running_mean.reshape(1, c, 1, 1)) * scale + bias.data.reshape(1, c, 1, 1))


DECONV_KERNEL = 4  # the edge of every transposed-convolution kernel


def _tap_shifts(n: int) -> tuple[tuple[int, slice, slice], ...]:
    """Where each kernel tap along an axis of ``n`` input pixels lands.

    Tap a of input pixel i lands on output pixel 2i + a - 1, which is pixel m
    of output phase p (2m + p).  Entry a is (p, input slice, phase slice); the
    slices leave out the pixels whose tap falls outside the output.
    """
    return (
        (1, slice(1, n), slice(0, n - 1)),  # a = 0: m = i - 1
        (0, slice(0, n), slice(0, n)),  # a = 1: m = i
        (1, slice(0, n), slice(0, n)),  # a = 2: m = i
        (0, slice(0, n - 1), slice(1, n)),  # a = 3: m = i + 1
    )


def conv_transpose2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """The decoder's doubling step: a transposed 2-D convolution that doubles H and W.

    x: [N, C_in, H, W], kernels: [C_in, C_out, 4, 4], bias: [C_out] ->
    [N, C_out, 2H, 2W].  Tap (a, b) of input pixel (i, j) lands on output
    pixel (2i + a - 1, 2j + b - 1); taps that fall outside the output are
    dropped.

    Output pixel (2m + p, 2l + q) is pixel (m, l) of phase (p, q), and every
    phase is a sum of four shifted tap planes, so both directions work on
    [H, W] planes with unit-stride shifted slices.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"conv_transpose2d expects [N, C, H, W], got shape {x.shape}")
    n, c_in, h, w = xd.shape
    k = DECONV_KERNEL
    if kernels.ndim != 4 or kernels.shape[0] != c_in or kernels.shape[2:] != (k, k):
        raise ValueError(f"conv_transpose2d: kernels must be [{c_in}, C_out, {k}, {k}], got {kernels.shape}")
    c_out = kernels.shape[1]
    if bias.shape != (c_out,):
        raise ValueError(f"conv_transpose2d: bias shape {bias.shape} vs {c_out} output channels")
    row_taps, col_taps = _tap_shifts(h), _tap_shifts(w)

    # cols[n, co, a, b, i, j] = sum_ci k[ci, co, a, b] * x[n, ci, i, j]: one
    # stacked [16·Cout, Cin] @ [Cin, H·W] product per sample reads NCHW as it
    # lies and keeps H·W innermost, so each tap below is a unit-stride plane
    taps = kernels.data.reshape(c_in, c_out * k * k).T
    cols = (taps @ xd.reshape(n, c_in, h * w)).reshape(n, c_out, k, k, h, w)
    # each tap adds into its zeroed phase in (a, b) order, the order a
    # [2H + 2, 2W + 2] scatter map takes, so every sum rounds as the map's does
    phases = np.zeros((n, c_out, 2, 2, h, w), dtype=xd.dtype)
    for a, (p, xi, mi) in enumerate(row_taps):
        for b, (q, xj, mj) in enumerate(col_taps):
            phases[:, :, p, q, mi, mj] += cols[:, :, a, b, xi, xj]
    del cols
    # interleave once, adding the bias: phase (p, q) fills out[n, co, m, p, l, q]
    out = np.empty((n, c_out, h, 2, w, 2), dtype=np.result_type(xd, bias.data))
    for p in range(2):
        for q in range(2):
            np.add(phases[:, :, p, q], bias.data.reshape(1, c_out, 1, 1), out=out[:, :, :, p, :, q])
    del phases

    # The backward gathers each tap's shifted plane of g's phases into gcols,
    # gcols[n, co, a, b, i, j] = g[n, co, 2i + a - 1, 2j + b - 1] (zero off
    # the output), and takes both gradients as planar products over it:
    # gx[n] = taps^T @ gcols[n] and gk = sum_n x[n] @ gcols[n]^T.
    def backward(g):
        g_phases = np.ascontiguousarray(g.reshape(n, c_out, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4))
        gcols = np.empty((n, c_out, k, k, h, w), dtype=g.dtype)
        # the input rows and columns whose tap misses the output
        gcols[:, :, 0, :, 0] = 0
        gcols[:, :, k - 1, :, h - 1] = 0
        gcols[:, :, :, 0, :, 0] = 0
        gcols[:, :, :, k - 1, :, w - 1] = 0
        for a, (p, xi, mi) in enumerate(row_taps):
            for b, (q, xj, mj) in enumerate(col_taps):
                gcols[:, :, a, b, xi, xj] = g_phases[:, :, p, q, mi, mj]
        del g_phases
        gcols = gcols.reshape(n, c_out * k * k, h * w)
        gx = gk = None
        if x.requires_grad:
            gx = (taps.T @ gcols).reshape(n, c_in, h, w)
        if kernels.requires_grad:
            gk = (xd.reshape(n, c_in, h * w) @ gcols.transpose(0, 2, 1)).sum(axis=0).reshape(kernels.shape)
        return (gx, gk, g.sum(axis=(0, 2, 3)) if bias.requires_grad else None)

    return _make(out.reshape(n, c_out, 2 * h, 2 * w), (x, kernels, bias), backward)


# -- attention ---------------------------------------------------------------


@dataclass
class AttentionParams:
    """Projection weights for one multi-head self-attention block."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor
    bo: Tensor


def multi_head_self_attention(
    x: Tensor,
    params: AttentionParams,
    n_heads: int,
    n_queries: int | None = None,
) -> Tensor:
    """Scaled dot-product self-attention over tokens.

    x: [N, T, D].  D must divide evenly into n_heads; each head
    uses scale 1/sqrt(D / n_heads).  Heads are concatenated and passed
    through the output projection.  Only the first ``n_queries`` tokens
    (default all T) query and every token is attended to, so the output is
    [N, n_queries, D].

    With fewer queries than tokens no key or value is formed: each head h
    folds its projections into the query side instead,
    ``scores_h = (q_h Wk_h^T) x^T + q_h . bk_h`` and
    ``ctx_h = (attn_h x) Wv_h + bv_h`` (attention rows sum to one), which
    costs about 2 D^2 + 2 heads T D multiply-adds per query row rather than
    2 T D^2 per sample.  Softmax cancels the ``q_h . bk_h`` offset; it is
    kept so ``bk`` still gets its (zero) gradient.
    """
    if x.ndim != 3:
        raise ValueError(f"multi_head_self_attention expects [N, T, D], got shape {x.shape}")
    n, t, d = x.shape
    if d % n_heads != 0:
        raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
    nq = t if n_queries is None else n_queries
    if not 1 <= nq <= t:
        raise ValueError(f"n_queries {n_queries} outside [1, {t}]")
    dh = d // n_heads
    scale = Tensor(np.asarray(1.0 / np.sqrt(dh), dtype=x.dtype))

    if nq == t:
        def split_heads(y: Tensor) -> Tensor:
            return transpose(reshape(y, (n, t, n_heads, dh)), (0, 2, 1, 3))

        q = split_heads(linear(x, params.wq, params.bq))
        k = split_heads(linear(x, params.wk, params.bk))
        v = split_heads(linear(x, params.wv, params.bv))
        scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), scale)
        attn = softmax(scores)
        ctx = transpose(matmul(attn, v), (0, 2, 1, 3))  # [N, nq, heads, dh]
    else:
        # query rows grouped by head, [heads, N*nq, dh], so each weight product
        # below is one GEMM per head
        q = linear(x[:, :nq], params.wq, params.bq)
        q = transpose(reshape(q, (n * nq, n_heads, dh)), (1, 0, 2))
        wk_t = transpose(reshape(params.wk, (d, n_heads, dh)), (1, 2, 0))  # Wk_h^T, [heads, dh, D]
        bk = reshape(params.bk, (n_heads, dh, 1))
        qk = matmul(q, wk_t)  # [heads, N*nq, D]
        qk = reshape(transpose(reshape(qk, (n_heads, n, nq, d)), (1, 0, 2, 3)), (n, n_heads * nq, d))
        offset = transpose(reshape(matmul(q, bk), (n_heads, n, nq, 1)), (1, 0, 2, 3))
        scores = add(reshape(matmul(qk, transpose(x, (0, 2, 1))), (n, n_heads, nq, t)), offset)
        attn = softmax(mul(scores, scale))
        ax = matmul(reshape(attn, (n, n_heads * nq, t)), x)  # [N, heads*nq, D]
        ax = reshape(transpose(reshape(ax, (n, n_heads, nq, d)), (1, 0, 2, 3)), (n_heads, n * nq, d))
        wv = transpose(reshape(params.wv, (d, n_heads, dh)), (1, 0, 2))  # Wv_h, [heads, D, dh]
        ctx = add(matmul(ax, wv), reshape(params.bv, (n_heads, 1, dh)))  # [heads, N*nq, dh]
        ctx = transpose(reshape(ctx, (n_heads, n, nq, dh)), (1, 2, 0, 3))  # [N, nq, heads, dh]
    return linear(reshape(ctx, (n, nq, d)), params.wo, params.bo)
