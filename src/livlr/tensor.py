"""Dense tensors with a reverse-mode autodiff tape.

Forward operations append nodes to a module-level tape (a Wengert list).
``backward(loss)`` walks the recorded nodes in reverse, accumulating
gradients into the ``grad`` buffers of requires-grad leaves, then clears
the tape. Gradients accumulate across calls; callers zero them explicitly.

Storage is numpy, float32 or float64. The engine only implements the
operations the model needs; every op validates shapes up front and raises
``ShapeError`` naming both operands on a mismatch.
"""
from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DegenerateRowError, ShapeError


class _Node:
    """One recorded op: its input tensors and a vjp closure.

    ``backward(g)`` maps the output cotangent to a tuple of input
    cotangents aligned with ``inputs`` (None for inputs that do not
    require grad).
    """

    __slots__ = ("inputs", "backward")

    def __init__(self, inputs, backward):
        self.inputs = inputs
        self.backward = backward


class Tape:
    def __init__(self):
        self.nodes = []
        self.epoch = 0

    def clear(self):
        self.nodes.clear()
        self.epoch += 1


_TAPE = Tape()
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (eval / finite differences)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


def tape_size() -> int:
    return len(_TAPE.nodes)


class Tensor:
    """A dense array plus autodiff bookkeeping.

    Leaves (parameters, constants) have ``tape_id is None``; a leaf with
    ``requires_grad`` owns a ``grad`` buffer of the same shape, zeroed at
    creation. Non-leaf tensors are op outputs; their gradients live only
    transiently inside ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape_id", "_epoch")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.tape_id = None
        self._epoch = -1

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        tag = "leaf" if self.tape_id is None else f"node{self.tape_id}"
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, {tag})"

    # operator sugar; python scalars are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(as_tensor(other, self.data.dtype)))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr)


def constant(x, dtype) -> Tensor:
    """A no-grad leaf with the given dtype (feature matrices, masks...)."""
    return Tensor(np.asarray(x, dtype=dtype))


def _record(out: Tensor, inputs, backward):
    """Attach ``out`` to the tape if recording is on and any input needs grad."""
    if not _GRAD_ENABLED:
        return out
    needs = False
    for t in inputs:
        if t.requires_grad:
            if t.tape_id is not None and t._epoch != _TAPE.epoch:
                raise ContractError(
                    "input tensor belongs to a cleared tape; recompute it "
                    "instead of reusing intermediates across backward calls"
                )
            needs = True
    if not needs:
        return out
    out.requires_grad = True
    out.grad = None  # non-leaf: transient gradient only
    out.tape_id = len(_TAPE.nodes)
    out._epoch = _TAPE.epoch
    _TAPE.nodes.append(_Node(tuple(inputs), backward))
    return out


def backward(loss: Tensor):
    """Reverse pass from a scalar loss. Accumulates into leaf ``grad``
    buffers (existing contents are kept: gradients sum across calls),
    then clears the tape."""
    if loss.size != 1:
        raise ContractError(f"loss must be a scalar, got shape {loss.data.shape}")
    if loss.tape_id is None:
        raise ContractError("loss is not on the current tape (no grad path)")

    pending = {loss.tape_id: np.ones_like(loss.data)}
    for nid in range(loss.tape_id, -1, -1):
        g = pending.pop(nid, None)
        if g is None:
            continue
        node = _TAPE.nodes[nid]
        grads = node.backward(g)
        for t, gi in zip(node.inputs, grads):
            if gi is None or not t.requires_grad:
                continue
            if t.tape_id is None:
                t.grad += gi
            else:
                acc = pending.get(t.tape_id)
                # out-of-place: vjp results may alias each other or g
                pending[t.tape_id] = gi if acc is None else acc + gi
    _TAPE.clear()


# ---------------------------------------------------------------------------
# ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul needs 2-d operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}"
        )
    out = Tensor(a.data @ b.data)

    def bwd(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got {a.data.shape}")
    out = Tensor(a.data.T.copy())
    return _record(out, (a,), lambda g: (g.T,))


def _bcast_case(sa, sb):
    """Classify supported add/mul broadcasts. Returns (case, swap)."""
    if sa == sb:
        return "equal", False
    if math.prod(sb) == 1:
        return "scalar", False
    if math.prod(sa) == 1:
        return "scalar", True
    if len(sa) == 2 and len(sb) == 1 and sa[1] == sb[0]:
        return "row", False
    if len(sb) == 2 and len(sa) == 1 and sb[1] == sa[0]:
        return "row", True
    if len(sa) == 2 and len(sb) == 2 and sb == (sa[0], 1):
        return "col", False
    if len(sb) == 2 and len(sa) == 2 and sa == (sb[0], 1):
        return "col", True
    return None, False


def _reduce_to(g, case, shape):
    """Sum an output cotangent back down to a broadcast operand's shape."""
    if case == "equal":
        return g
    if case == "scalar":
        return g.sum().reshape(shape)
    if case == "row":
        return g.sum(axis=0)
    if case == "col":
        return g.sum(axis=1, keepdims=True)
    raise AssertionError(case)


def add(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, a.data.dtype)
    case, swap = _bcast_case(a.data.shape, b.data.shape)
    if case is None:
        raise ShapeError(f"add cannot broadcast {a.data.shape} with {b.data.shape}")
    big, small = (b, a) if swap else (a, b)
    out = Tensor(big.data + (small.data.reshape(()) if case == "scalar" else small.data))

    def bwd(g):
        g_big = g if big.requires_grad else None
        g_small = _reduce_to(g, case, small.data.shape) if small.requires_grad else None
        return (g_small, g_big) if swap else (g_big, g_small)

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, a.data.dtype)
    case, swap = _bcast_case(a.data.shape, b.data.shape)
    if case is None:
        raise ShapeError(f"mul cannot broadcast {a.data.shape} with {b.data.shape}")
    big, small = (b, a) if swap else (a, b)
    sm = small.data.reshape(()) if case == "scalar" else small.data
    out = Tensor(big.data * sm)

    def bwd(g):
        g_big = g * sm if big.requires_grad else None
        g_small = (
            _reduce_to(g * big.data, case, small.data.shape)
            if small.requires_grad
            else None
        )
        return (g_small, g_big) if swap else (g_big, g_small)

    return _record(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    mask = a.data > 0

    def bwd(g):
        return (g * mask,)

    return _record(out, (a,), bwd)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function on a raw array. exp(-|x|) <= 1, so neither
    branch can overflow."""
    with np.errstate(over="ignore", under="ignore"):
        z = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    s = stable_sigmoid(a.data)
    out = Tensor(s)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _record(out, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    t = np.tanh(a.data)
    out = Tensor(t)

    def bwd(g):
        return (g * (1.0 - t * t),)

    return _record(out, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    a = as_tensor(a)
    e = np.exp(a.data)
    out = Tensor(e)
    return _record(out, (a,), lambda g: (g * e,))


def log(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def masked_softmax(x: np.ndarray, mask=None):
    """Softmax over the last axis of a raw array, restricted to the entries
    where ``mask`` (a boolean array of x's shape, or None for all) is set.
    Returns (y, vjp), where vjp maps an output cotangent to the input's.

    Masked entries get probability 0 and receive no gradient; a fully
    masked row comes out all zero. Non-finite scores are allowed to
    propagate as nan rows; the training loop detects them at the loss and
    aborts with a diagnostic.
    """
    neg_inf = np.array(-np.inf, dtype=x.dtype)
    mx = (x if mask is None else np.where(mask, x, neg_inf)).max(axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    # exp only sees masked-in entries; masked-out slots become exp(-inf)=0,
    # so huge excluded scores cannot overflow
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        e = np.exp(x - mx if mask is None else np.where(mask, x - mx, neg_inf))
        s = e.sum(axis=-1, keepdims=True)
        y = e / np.where(s == 0.0, 1.0, s)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - dot)

    return y, vjp


def row_softmax(x: Tensor, mask=None, allow_empty: bool = False) -> Tensor:
    """Softmax along axis 1 of a 2-d tensor, restricted to unmasked entries.

    ``mask`` is a boolean array (or Tensor) of the same shape; masked
    entries get probability 0 and receive no gradient. A fully masked row
    raises ``DegenerateRowError`` unless ``allow_empty``, in which case the
    row comes out all zero.
    """
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"row_softmax needs a 2-d tensor, got {x.data.shape}")
    if mask is None:
        m = np.ones(x.data.shape, dtype=bool)
    else:
        m = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=bool)
        if m.shape != x.data.shape:
            raise ShapeError(
                f"mask shape {m.shape} does not match input {x.data.shape}"
            )
    alive = m.any(axis=1)
    if not alive.all() and not allow_empty:
        row = int(np.flatnonzero(~alive)[0])
        raise DegenerateRowError(f"softmax row {row} has every entry masked")
    y, vjp = masked_softmax(x.data, None if mask is None else m)
    return _record(Tensor(y), (x,), lambda g: (vjp(g),))


def sum_all(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.asarray(a.data.sum(), dtype=a.data.dtype))
    shape = a.data.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).astype(g.dtype, copy=True),)

    return _record(out, (a,), bwd)


def sum_axis1(a: Tensor) -> Tensor:
    """Row sums of a 2-d tensor, kept as a column (m, 1)."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"sum_axis1 needs a 2-d tensor, got {a.data.shape}")
    out = Tensor(a.data.sum(axis=1, keepdims=True))
    n = a.data.shape[1]

    def bwd(g):
        return (np.repeat(g, n, axis=1),)

    return _record(out, (a,), bwd)


def mean_axis0(a: Tensor) -> Tensor:
    """Column means of a 2-d tensor: (n, d) -> (d,)."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"mean_axis0 needs a 2-d tensor, got {a.data.shape}")
    n = a.data.shape[0]
    out = Tensor(a.data.mean(axis=0))

    def bwd(g):
        return (np.broadcast_to(g / n, a.data.shape).astype(g.dtype, copy=True),)

    return _record(out, (a,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ContractError("concat of an empty sequence")
    nd = ts[0].data.ndim
    if any(t.data.ndim != nd for t in ts):
        raise ShapeError(
            "concat rank mismatch: " + ", ".join(str(t.data.shape) for t in ts)
        )
    if nd == 1 and axis != 0:
        raise ShapeError("1-d concat only supports axis 0")
    if nd not in (1, 2) or axis not in (0, 1):
        raise ShapeError(f"concat supports 1-d/2-d tensors on axis 0/1, got rank {nd} axis {axis}")
    try:
        out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    except ValueError as e:
        raise ShapeError(
            "concat shape mismatch: " + ", ".join(str(t.data.shape) for t in ts)
        ) from e
    sizes = [t.data.shape[axis] for t in ts]
    offsets = list(itertools.accumulate(sizes, initial=0))

    def bwd(g):
        outs = []
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                outs.append(None)
            elif axis == 0:
                outs.append(g[lo:hi])
            else:
                outs.append(g[:, lo:hi])
        return tuple(outs)

    return _record(out, tuple(ts), bwd)


def index_rows(a: Tensor, idx) -> Tensor:
    """Gather rows of a 2-d tensor. Backward scatter-adds, so repeated
    indices accumulate."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"index_rows needs a 2-d tensor, got {a.data.shape}")
    ix = np.asarray(idx, dtype=np.intp)
    if ix.ndim != 1:
        raise ShapeError(f"index_rows needs a flat index list, got shape {ix.shape}")
    if ix.size and (ix.min() < 0 or ix.max() >= a.data.shape[0]):
        raise ContractError(
            f"row index out of range for {a.data.shape[0]} rows: {ix}"
        )
    out = Tensor(a.data[ix])

    def bwd(g):
        da = np.zeros_like(a.data)
        np.add.at(da, ix, g)
        return (da,)

    return _record(out, (a,), bwd)


def take(a: Tensor, idx) -> Tensor:
    """Gather elements of a 1-d tensor."""
    a = as_tensor(a)
    if a.data.ndim != 1:
        raise ShapeError(f"take needs a 1-d tensor, got {a.data.shape}")
    ix = np.asarray(idx, dtype=np.intp).ravel()
    if ix.size and (ix.min() < 0 or ix.max() >= a.data.shape[0]):
        raise ContractError(f"index out of range for length {a.data.shape[0]}")
    out = Tensor(a.data[ix])

    def bwd(g):
        da = np.zeros_like(a.data)
        np.add.at(da, ix, g)
        return (da,)

    return _record(out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape).copy())
    orig = a.data.shape

    def bwd(g):
        return (g.reshape(orig),)

    return _record(out, (a,), bwd)


def narrow(a: Tensor, start: int, length: int) -> Tensor:
    """Column slice [start, start+length) of a 2-d tensor."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"narrow needs a 2-d tensor, got {a.data.shape}")
    if start < 0 or start + length > a.data.shape[1]:
        raise ShapeError(
            f"narrow [{start}:{start + length}) out of bounds for {a.data.shape}"
        )
    out = Tensor(a.data[:, start : start + length].copy())

    def bwd(g):
        da = np.zeros_like(a.data)
        da[:, start : start + length] = g
        return (da,)

    return _record(out, (a,), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b). Accepts a vector (in,) or a matrix (m, in); the weight
    is stored (in, out)."""
    x = as_tensor(x)
    vec = x.data.ndim == 1
    h = reshape(x, (1, x.data.shape[0])) if vec else x
    y = matmul(h, w)
    if b is not None:
        y = add(y, b)
    return reshape(y, (y.data.shape[1],)) if vec else y
