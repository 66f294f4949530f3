"""Named parameter store and the AdamW update rule.

Parameters are registered under dotted names ("visual.obj_proj.w", ...).
All iteration is in lexicographic name order so that update sweeps,
serialization and counting are deterministic regardless of creation order.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor


class _AdamState:
    __slots__ = ("m", "v", "t")

    def __init__(self, shape, dtype):
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.t = 0


class ParamStore:
    """Ordered mapping name -> requires-grad leaf Tensor, plus per-parameter
    optimizer state (first moment, second moment, step count)."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._state: dict[str, _AdamState] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        if not tensor.requires_grad:
            raise ContractError(f"parameter {name!r} must require grad")
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def zero_grads(self):
        for p in self._params.values():
            p.zero_grad()

    def count(self) -> int:
        return sum(p.size for p in self._params.values())

    def count_by_group(self) -> dict[str, int]:
        """Scalar counts keyed by the first dotted name component."""
        groups: dict[str, int] = {}
        for name, p in self.items():
            g = name.split(".", 1)[0]
            groups[g] = groups.get(g, 0) + p.size
        return groups

    def state(self, name: str) -> _AdamState:
        p = self._params[name]
        st = self._state.get(name)
        if st is None:
            st = _AdamState(p.data.shape, p.data.dtype)
            self._state[name] = st
        return st


def adamw_step(
    store: ParamStore,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.0,
):
    """One AdamW step over every parameter, in lexicographic name order.

    Decay is decoupled: it scales the weights directly and never enters
    the moment estimates, so a parameter with zero gradient still shrinks
    when decay is on.
    """
    b1, b2 = betas
    for name, p in store.items():
        g = p.grad
        if g is None:
            raise ContractError(f"parameter {name!r} has no gradient buffer")
        st = store.state(name)
        st.t += 1
        st.m += (1.0 - b1) * (g - st.m)
        st.v += (1.0 - b2) * (g * g - st.v)
        m_hat = st.m / (1.0 - b1**st.t)
        v_hat = st.v / (1.0 - b2**st.t)
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + eps))
        if weight_decay != 0.0:
            p.data -= lr * weight_decay * p.data


def make_param(
    store: ParamStore,
    name: str,
    rng: np.random.Generator,
    shape,
    dtype,
    init: str = "uniform",
) -> Tensor:
    """Create, register and return one parameter tensor.

    init is "uniform" (the usual dense init, Uniform(+-1/sqrt(shape[0]))),
    "zeros" (biases) or "ones" (multiplicative embedding tables).
    """
    if init == "uniform":
        limit = 1.0 / math.sqrt(shape[0])
        data = rng.uniform(-limit, limit, size=shape).astype(dtype)
    elif init == "zeros":
        data = np.zeros(shape, dtype=dtype)
    elif init == "ones":
        data = np.ones(shape, dtype=dtype)
    else:
        raise ContractError(f"unknown init {init!r}")
    return store.add(name, Tensor(data, requires_grad=True))


def load_param_data(store: ParamStore, name: str, data: np.ndarray):
    """Overwrite one parameter's values in place, checking the shape."""
    p = store[name]
    if tuple(data.shape) != tuple(p.data.shape):
        raise ShapeError(
            f"tensor {name!r}: stored shape {tuple(data.shape)} does not "
            f"match model shape {tuple(p.data.shape)}"
        )
    p.data[...] = data.astype(p.data.dtype)
