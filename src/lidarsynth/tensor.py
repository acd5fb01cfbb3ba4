"""Dense tensors with reverse-mode autodiff, covering exactly what the model needs.

The graph is built eagerly: every op returns a new Tensor holding a closure
that maps the output's gradient to one gradient (or None) per parent, in
``parents`` order.  ``Tensor.backward()`` walks the graph once in reverse
topological order and is the one place gradients are summed (shared
subexpressions meet there).  An interior node's gradient is freed once its
closure has consumed it; only leaves keep theirs, in ``Tensor.grad``.

Parameters and activations are float32 by default; every op also works in
float64 so finite-difference oracles can run at full precision.
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
    "BatchNormState",
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
    """A dense n-D float array; ``grad`` accumulates the gradient of a leaf only."""

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

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this tensor; `gradient` has its shape and is copied."""
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if gradient is None:
            if self.size != 1:
                raise ValueError("backward() without gradient needs a scalar output")
            seed = np.ones_like(self.data)
        else:
            seed = np.array(gradient, dtype=self.data.dtype, order="C")
            if seed.shape != self.shape:
                raise ValueError(f"backward(): gradient shape {seed.shape} vs tensor shape {self.shape}")
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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        pending = {id(self): seed}
        for node in reversed(topo):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:  # a leaf
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
                continue
            for p, gp in zip(node._parents, node._backward(g), strict=True):
                if gp is None or not p.requires_grad:
                    continue
                prev = pending.get(id(p))
                if prev is None:
                    # a strided gradient is copied: BLAS would run another kernel on it
                    pending[id(p)] = gp if gp.flags.c_contiguous else gp.copy()
                else:
                    # never in place: an op may hand one array to several parents
                    pending[id(p)] = prev + gp

    # -- indexing (the model reads the class token as x[:, 0]) ---------------

    def __getitem__(self, key):
        return _getitem(self, key)


def _as_tensor(x, dtype=np.float32) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# -- arithmetic --------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                -_unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked leading dims follow numpy.matmul semantics.

    A product of an [..., D] input with a [D, O] weight runs as one 2-D GEMM
    over the folded leading dims, forward and backward, rather than one
    small GEMM per leading index; its weight gradient is one [D, M] @ [M, O]
    product, with no [..., D, O] stack to sum down.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim >= 2 and b.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        out_data = (a2 @ b.data).reshape(a.shape[:-1] + (b.shape[1],))

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
    x = _as_tensor(x)
    shape = tuple(shape)
    out_data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.shape),)

    return _make(out_data, (x,), backward)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    x = _as_tensor(x)
    out_data = np.transpose(x.data, axes)
    if axes is None:
        inv = None
    else:
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


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat of zero tensors")
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        lead = (slice(None),) * (axis % g.ndim)
        return [g[lead + (slice(lo, hi),)] for lo, hi in zip(offsets[:-1], offsets[1:])]

    return _make(out_data, tuple(ts), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    expanded = []
    for t in ts:
        shape = list(t.shape)
        shape.insert(axis if axis >= 0 else axis + t.ndim + 1, 1)
        expanded.append(reshape(t, shape))
    return concat(expanded, axis=axis)


# -- reductions --------------------------------------------------------------


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).astype(x.dtype),)

    return _make(out_data, (x,), backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    if axis is None:
        count = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([x.shape[a] for a in axes]))
    s = tensor_sum(x, axis=axis, keepdims=keepdims)
    return mul(s, _as_tensor(1.0 / count, x.dtype))


# -- nonlinearities ----------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out_data = np.maximum(x.data, 0)

    def backward(g):
        return (g * (x.data > 0),)

    return _make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Rows along `axis` sum to one; max-subtraction keeps exp() in range."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Zero each element with probability p and scale survivors by 1/(1-p).

    Without an rng (an evaluation pass) it is the identity.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = _as_tensor(x)
    if rng is None or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.dtype)
    out_data = x.data * keep * scale

    def backward(g):
        return (g * keep * scale,)

    return _make(out_data, (x,), backward)


# -- layers ------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x @ weight + bias, for x of shape [..., I] and weight [I, O]."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.shape[-1] != weight.shape[0]:
        raise ValueError(f"linear: input dim {x.shape[-1]} vs weight rows {weight.shape[0]}")
    y = matmul(x, weight)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (weight.shape[1],):
            raise ValueError(f"linear: bias shape {bias.shape} vs out dim {weight.shape[1]}")
        y = add(y, bias)
    return y


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        gx = None
        if x.requires_grad:
            gh = g * gain.data
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            gx = (gh - m1 - xhat * m2) * inv
        return (gx,
                _unbroadcast(g * xhat, gain.shape) if gain.requires_grad else None,
                _unbroadcast(g, bias.shape) if bias.requires_grad else None)

    return _make(out_data, (x, gain, bias), backward)


@dataclass
class BatchNormState:
    """Running statistics for one batch-norm layer (not part of the autodiff graph)."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def create(cls, channels: int) -> "BatchNormState":
        return cls(np.zeros(channels, dtype=np.float32), np.ones(channels, dtype=np.float32))


def batch_norm2d(x: Tensor, gain: Tensor, bias: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Per-channel normalization over (N, H, W); training mode updates running stats.

    Eval mode normalizes with the running stats and returns a constant: no
    gradient flows back through it.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.ndim != 4:
        raise ValueError(f"batch_norm2d expects [N, C, H, W], got shape {x.shape}")
    n, c, h, w = x.shape
    if gain.shape != (c,) or bias.shape != (c,):
        raise ValueError("batch_norm2d: gain/bias must have one entry per channel")
    g4 = gain.data.reshape(1, c, 1, 1)
    b4 = bias.data.reshape(1, c, 1, 1)
    if training:
        if n < 2:
            raise ValueError("batch_norm2d training mode needs a batch of at least 2")
        axes = (0, 2, 3)
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        count = n * h * w
        unbiased = var * count / (count - 1)
        m = state.momentum
        state.running_mean = ((1 - m) * state.running_mean + m * mu).astype(np.float32)
        state.running_var = ((1 - m) * state.running_var + m * unbiased).astype(np.float32)
        inv = 1.0 / np.sqrt(var + state.eps)
        xhat = (x.data - mu.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
        out_data = xhat * g4 + b4

        def backward(g):
            gx = None
            if x.requires_grad:
                gh = g * g4
                m1 = gh.mean(axis=axes, keepdims=True)
                m2 = (gh * xhat).mean(axis=axes, keepdims=True)
                gx = (gh - m1 - xhat * m2) * inv.reshape(1, c, 1, 1)
            return (gx,
                    (g * xhat).sum(axis=axes) if gain.requires_grad else None,
                    g.sum(axis=axes) if bias.requires_grad else None)

        return _make(out_data, (x, gain, bias), backward)

    inv = 1.0 / np.sqrt(state.running_var + state.eps)
    scale = (g4 * inv.reshape(1, c, 1, 1)).astype(x.dtype)
    return Tensor((x.data - state.running_mean.reshape(1, c, 1, 1)) * scale + b4)


def conv_transpose2d(
    x: Tensor,
    kernels: Tensor,
    bias: Tensor | None = None,
    stride: int = 2,
    padding: int = 1,
) -> Tensor:
    """Transposed 2-D convolution.

    x: [N, C_in, H, W], kernels: [C_in, C_out, k, k].  Output spatial dims follow
    H' = (H - 1) * stride - 2 * padding + k.
    """
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"conv_transpose2d expects [N, C, H, W], got shape {x.shape}")
    n, c_in, h, w = xd.shape
    kc_in, c_out, kh, kw = kernels.shape
    if kc_in != c_in:
        raise ValueError(f"conv_transpose2d: {c_in} input channels vs kernel {kc_in}")
    s, p = int(stride), int(padding)
    h_out = (h - 1) * s - 2 * p + kh
    w_out = (w - 1) * s - 2 * p + kw
    if h_out <= 0 or w_out <= 0:
        raise ValueError(f"conv_transpose2d: non-positive output dims ({h_out}, {w_out})")

    # cols[n, co, dh, dw, i, j] = sum_ci x[n, ci, i, j] * k[ci, co, dh, dw]
    cols = np.tensordot(xd, kernels.data, axes=([1], [0]))  # [N,H,W,Cout,kh,kw]
    cols = cols.transpose(0, 3, 4, 5, 1, 2)
    full_h, full_w = (h - 1) * s + kh, (w - 1) * s + kw
    full = np.zeros((n, c_out, full_h, full_w), dtype=xd.dtype)
    for dh in range(kh):
        for dw in range(kw):
            full[:, :, dh : dh + (h - 1) * s + 1 : s, dw : dw + (w - 1) * s + 1 : s] += cols[:, :, dh, dw]
    out_data = full[:, :, p : p + h_out, p : p + w_out]
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (c_out,):
            raise ValueError("conv_transpose2d: bias must have one entry per output channel")
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, kernels) if bias is None else (x, kernels, bias)

    def backward(g):
        gfull = np.zeros((n, c_out, full_h, full_w), dtype=g.dtype)
        gfull[:, :, p : p + h_out, p : p + w_out] = g
        gcols = np.empty((n, c_out, kh, kw, h, w), dtype=g.dtype)
        for dh in range(kh):
            for dw in range(kw):
                gcols[:, :, dh, dw] = gfull[:, :, dh : dh + (h - 1) * s + 1 : s, dw : dw + (w - 1) * s + 1 : s]
        gx = gk = None
        if x.requires_grad:
            gx = np.tensordot(gcols, kernels.data, axes=([1, 2, 3], [1, 2, 3]))  # [N,H,W,Cin]
            gx = gx.transpose(0, 3, 1, 2)
        if kernels.requires_grad:
            gk = np.tensordot(xd, gcols, axes=([0, 2, 3], [0, 4, 5]))  # [Cin,Cout,kh,kw]
        gb = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        return (gx, gk, gb)[: len(parents)]

    return _make(out_data, parents, backward)


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
    return_weights: bool = False,
):
    """Scaled dot-product self-attention over tokens.

    x: [N, T, D].  D must divide evenly into n_heads; each head
    uses scale 1/sqrt(D / n_heads).  Heads are concatenated and passed
    through the output projection.
    """
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"multi_head_self_attention expects [N, T, D], got shape {x.shape}")
    n, t, d = x.shape
    if d % n_heads != 0:
        raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def split_heads(y: Tensor) -> Tensor:
        return transpose(reshape(y, (n, t, n_heads, dh)), (0, 2, 1, 3))

    q = split_heads(linear(x, params.wq, params.bq))
    k = split_heads(linear(x, params.wk, params.bk))
    v = split_heads(linear(x, params.wv, params.bv))
    scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), _as_tensor(scale, x.dtype))
    attn = softmax(scores, axis=-1)
    ctx = matmul(attn, v)  # [N, heads, T, dh]
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (n, t, d))
    out = linear(ctx, params.wo, params.bo)
    if return_weights:
        return out, attn.data
    return out
