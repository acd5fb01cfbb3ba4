"""Named parameter storage and the Adam update rule.

Trainable values, their gradients and Adam's two moments live in four flat
float32 buffers; each trainable tensor's ``data`` and ``grad`` view the
first two.  Frozen parameters stay separate read-only arrays.  Adam runs
with its published constants (Kingma & Ba 2015): ``BETA1`` = 0.9,
``BETA2`` = 0.999 and ``EPS`` = 1e-8.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import Tensor

__all__ = ["ParamStore", "adam_step"]

# adam_step's scratch is two arrays of this many elements, whatever the model size
_CHUNK = 1 << 16

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class ParamStore:
    """Ordered map of unique names to tensors over one flat trainable arena.

    Built once from ``(name, array, trainable)`` entries.  Trainable ones are
    copied into the arena.  A frozen C-contiguous float32 array is taken as
    given, other frozen ones are converted to one, and either is marked
    read-only, so copy_values may share them and any write raises ValueError.
    Backward writes into the ``grads`` views; ``t`` counts Adam steps.
    """

    def __init__(self, entries: Iterable[tuple[str, np.ndarray, bool]]):
        self.params: dict[str, Tensor] = {}
        for name, data, trainable in entries:
            if name in self.params:
                raise ValueError(f"duplicate parameter name {name!r}")
            arr = np.asarray(data, dtype=np.float32, order="C")  # a trainable one is copied into the arena below
            if not trainable:
                arr.flags.writeable = False
            self.params[name] = Tensor(arr, requires_grad=trainable)
        learned = [(name, p) for name, p in self.params.items() if p.requires_grad]
        n = sum(p.size for _, p in learned)
        self.values = np.empty(n, dtype=np.float32)
        # zeros, not empty: pages a pass never touches stay unmapped
        self.grads, self.m, self.v = (np.zeros(n, dtype=np.float32) for _ in range(3))
        self.t = 0
        # name -> (data view, grad view), in entry order
        self._slots: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        lo = 0
        for name, p in learned:
            view = self.values[lo : lo + p.size].reshape(p.shape)
            view[...] = p.data
            p.data, p.grad = view, self.grads[lo : lo + p.size].reshape(p.shape)
            self._slots[name] = (p.data, p.grad)
            lo += p.size

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def trainable_names(self) -> list[str]:
        return list(self._slots)

    def copy_values(self) -> dict[str, np.ndarray]:
        """Every parameter's values: trainable ones copied, read-only frozen ones shared."""
        return {n: p.data.copy() if p.requires_grad else p.data for n, p in self.params.items()}


def adam_step(store: ParamStore, lr: float) -> None:
    """One bias-corrected Adam update of the whole arena, at BETA1, BETA2 and EPS.

    It reads the gradients the last backward wrote and leaves them in place.
    A tensor whose ``data`` or ``grad`` was rebound off its arena view raises
    ValueError: the update would not reach it.
    """
    for name, (data, grad) in store._slots.items():
        if store[name].data is not data or store[name].grad is not grad:
            raise ValueError(f"adam_step: parameter {name!r} no longer views the store's buffers")
    store.t += 1
    c1, c2 = 1.0 - BETA1**store.t, 1.0 - BETA2**store.t
    scratch = np.empty((2, min(_CHUNK, store.values.size)), dtype=np.float32)
    for lo in range(0, store.values.size, _CHUNK):
        g, m, v, p = (buf[lo : lo + _CHUNK] for buf in (store.grads, store.m, store.v, store.values))
        a, b = scratch[:, : g.size]
        # in place, in the operation order of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   p = p - lr * (m/c1) / (sqrt(v/c2) + eps)
        # so every float32 rounding matches the out-of-place formula
        np.multiply(g, 1.0 - BETA1, out=a)
        m *= BETA1
        m += a
        np.multiply(g, g, out=a)
        a *= 1.0 - BETA2
        v *= BETA2
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        p -= a
