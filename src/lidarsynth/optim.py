"""Named parameter storage and the Adam update rule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

__all__ = ["AdamState", "ParamStore", "adam_step"]


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class ParamStore:
    """Ordered map of unique names to tensors, with per-parameter Adam state."""

    params: dict[str, Tensor] = field(default_factory=dict)
    adam: dict[str, AdamState] = field(default_factory=dict)

    def add(self, name: str, data: np.ndarray, trainable: bool = True) -> Tensor:
        """Store an owned float32 copy of ``data``; frozen parameters become read-only.

        Trainable arrays must be owned because adam_step updates them in
        place.  Frozen arrays never change, so copy_values may share them;
        making them read-only turns any write into one into a ValueError.
        """
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.array(data, dtype=np.float32)
        arr.flags.writeable = trainable
        t = Tensor(arr, requires_grad=trainable)
        self.params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return list(self.params)

    def trainable_names(self) -> list[str]:
        return [n for n, p in self.params.items() if p.requires_grad]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def copy_values(self) -> dict[str, np.ndarray]:
        """Every parameter's values: trainable ones copied, read-only frozen ones shared."""
        return {n: p.data.copy() if p.requires_grad else p.data for n, p in self.params.items()}


def adam_step(
    store: ParamStore,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update on every trainable parameter.

    Gradients must be populated on every trainable parameter; they are left
    in place (zero them explicitly via store.zero_grad()).
    """
    for name in store.trainable_names():
        p = store.params[name]
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
        st = store.adam.get(name)
        if st is None:
            st = AdamState(m=np.zeros_like(p.data), v=np.zeros_like(p.data))
            store.adam[name] = st
        g = p.grad
        st.t += 1
        # in place, with two scratch arrays, in the operation order of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   p = p - lr * (m/c1) / (sqrt(v/c2) + eps)
        # so every float32 rounding matches the out-of-place formula
        a = (1.0 - beta1) * g
        st.m *= beta1
        st.m += a
        np.multiply(g, g, out=a)
        a *= 1.0 - beta2
        st.v *= beta2
        st.v += a
        np.divide(st.m, 1.0 - beta1**st.t, out=a)
        a *= lr
        b = st.v / (1.0 - beta2**st.t)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p.data -= a
