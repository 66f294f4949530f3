"""Dense tensors with a reverse-mode autodiff tape.

Inside ``with recording():`` forward operations append nodes to a tape (a
Wengert list) that the scope drops on exit; outside any scope ops compute
values only. ``backward(loss)`` walks the nodes in reverse, accumulating
gradients into the ``grad`` buffers of requires-grad leaves. Gradients
accumulate across calls; callers zero them explicitly.

Storage is numpy, float32 or float64. The engine only implements the
operations the model needs; every op validates shapes up front and raises
``ShapeError`` naming both operands on a mismatch.
"""
from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, GraphIntegrityError, ShapeError


# The nodes of the innermost recording() scope; None outside one or under
# no_grad. A node is one op's (inputs, vjp): vjp(g) maps the output cotangent
# to a tuple of input cotangents aligned with inputs (None for inputs that do
# not require grad).
_TAPE: list | None = None


@contextmanager
def _tape_scope(tape):
    """Make ``tape`` (a fresh list, or None) current for the block; on exit,
    empty the current tape, which frees its node -> vjp closure -> input
    tensor -> tape cycles without a gc pass, and restore the previous one."""
    global _TAPE
    prev, _TAPE = _TAPE, tape
    try:
        yield
    finally:
        if _TAPE is not None:
            _TAPE.clear()
        _TAPE = prev


def recording():
    """Record ops on a fresh tape in the block; its nodes are dropped on any exit."""
    return _tape_scope([])


def no_grad():
    """Compute values only in the block, also inside a recording() scope."""
    return _tape_scope(None)


def is_recording() -> bool:
    return _TAPE is not None


def tape_size() -> int:
    """Nodes on the tape now recording; 0 outside a scope."""
    return 0 if _TAPE is None else len(_TAPE)


class Tensor:
    """A dense array plus autodiff bookkeeping.

    Leaves (parameters, constants) have ``tape_id is None``; a leaf with
    ``requires_grad`` owns a ``grad`` buffer of the same shape, zeroed at
    creation. Non-leaf tensors are op outputs; their gradients live only
    transiently inside ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape_id", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.tape_id = None
        self._tape = None

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


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr)


def constant(x, dtype) -> Tensor:
    """A no-grad leaf with the given dtype (feature matrices, masks...)."""
    return Tensor(np.asarray(x, dtype=dtype))


def _record(out: Tensor, inputs, backward):
    """Attach ``out`` to the tape if one is recording and any input needs grad."""
    tape = _TAPE
    if tape is None:
        return out
    needs = False
    for t in inputs:
        if t.requires_grad:
            if t.tape_id is not None and t._tape is not tape:
                raise ContractError(
                    "input tensor belongs to a closed or consumed tape; recompute "
                    "it instead of reusing intermediates across scopes or backward calls"
                )
            needs = True
    if not needs:
        return out
    out.requires_grad = True
    out.grad = None  # non-leaf: transient gradient only
    out.tape_id = len(tape)
    out._tape = tape
    tape.append((tuple(inputs), backward))
    return out


def backward(loss: Tensor):
    """Reverse pass from a scalar loss on the current tape. Accumulates into
    leaf ``grad`` buffers (existing contents are kept: gradients sum across
    calls), then empties the tape and records what follows on a fresh one."""
    global _TAPE
    if loss.size != 1:
        raise ContractError(f"loss must be a scalar, got shape {loss.data.shape}")
    tape = _TAPE
    if loss.tape_id is None or loss._tape is not tape:
        raise ContractError("loss is not on the current tape (no grad path)")

    pending = {loss.tape_id: np.ones_like(loss.data)}
    for nid in range(loss.tape_id, -1, -1):
        g = pending.pop(nid, None)
        if g is None:
            continue
        inputs, vjp = tape[nid]
        for t, gi in zip(inputs, vjp(g)):
            if gi is None or not t.requires_grad:
                continue
            if t.tape_id is None:
                t.grad += gi
            else:
                acc = pending.get(t.tape_id)
                # out-of-place: vjp results may alias each other or g
                pending[t.tape_id] = gi if acc is None else acc + gi
    _TAPE = []
    tape.clear()


# ---------------------------------------------------------------------------
# ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
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


class Slots:
    """Groups of a stacked matrix's rows laid out as n blocks of ``width``
    slots. ``slots[b, i]`` is the row in slot i of block b, or -1 at
    padding; ``valid`` marks the filled slots, and ``row_pos[r]`` is row
    r's flat slot b * width + i. ``pad`` moves the rows into zero-padded
    blocks and ``unpad`` back; where every row sits at its own slot
    position (``in_order``), both are reshapes and copy nothing. A slots
    matrix is checked to name every row once. ``of_counts`` lays out
    groups stacked in order, valid by construction, so it checks nothing
    and builds ``slots`` only on use. ``counts`` holds each block's number
    of filled slots."""

    def __init__(self, slots):
        slots = np.asarray(slots, dtype=np.intp)
        if slots.ndim != 2:
            raise ShapeError(f"slots must be a (blocks, width) matrix, got {slots.shape}")
        valid = slots >= 0
        pos = np.flatnonzero(valid)
        rows = slots.ravel()[pos]
        if not np.array_equal(np.sort(rows), np.arange(rows.size)):
            raise GraphIntegrityError("slots must name every row exactly once")
        self.slots, self.valid, self.n_rows = slots, valid, rows.size
        self.row_pos = np.empty_like(pos)
        self.row_pos[rows] = pos
        self.in_order = np.array_equal(self.row_pos, np.arange(slots.size))

    @classmethod
    def of_counts(cls, counts) -> "Slots":
        """Groups of counts[i] rows, stacked in order."""
        counts = np.asarray(counts, dtype=np.intp)
        out = cls.__new__(cls)
        out.counts = counts
        out.valid = np.arange(counts.max()) < counts[:, None]
        out.row_pos = out.valid.ravel().nonzero()[0]  # np.flatnonzero, without its overhead
        out.n_rows = out.row_pos.size
        out.in_order = out.n_rows == out.valid.size
        return out

    @functools.cached_property
    def counts(self) -> np.ndarray:
        return self.valid.sum(axis=1)

    @functools.cached_property
    def slots(self) -> np.ndarray:
        return np.where(self.valid, np.cumsum(self.valid).reshape(self.valid.shape) - 1, -1)

    def pad(self, x: np.ndarray) -> np.ndarray:
        """Stacked rows (..., R, k) -> zero-padded blocks (..., n, width, k)."""
        shape = x.shape[:-2] + self.valid.shape + x.shape[-1:]
        if self.in_order:
            return x.reshape(shape)
        out = np.zeros(x.shape[:-2] + (self.valid.size, x.shape[-1]), dtype=x.dtype)
        out[..., self.row_pos, :] = x
        return out.reshape(shape)

    def unpad(self, y: np.ndarray) -> np.ndarray:
        """Blocks (..., n, width, k), or their rows (n * width, k), -> the
        stacked rows (..., R, k)."""
        flat = y.reshape(y.shape[:-3] + (self.valid.size, y.shape[-1]))
        return flat if self.in_order else flat[..., self.row_pos, :]


def grouped_matmul(a: Tensor, b: Tensor, sizes) -> Tensor:
    """a @ b where the rows of a stack groups of sizes[i] rows and each
    group is multiplied on its own, as one stacked product over the groups
    padded to the largest size (the blocks of ``Slots.of_counts``). BLAS
    may round a row differently in a product of another height (a one-row
    product is a gemv, a taller one a gemm), so this way a group's rows
    come out with the same bits in any batch whose groups all have its
    size. Groups of one size, one group among them, pad nothing: the
    blocks are a reshape of a. The vjp is matmul's."""
    x, w = a.data, b.data
    sizes = np.asarray(sizes, dtype=np.intp)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"grouped_matmul needs (rows, k) @ (k, n), got {x.shape} @ {w.shape}")
    if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.sum() != x.shape[0]:
        raise ShapeError(f"rows {x.shape[0]} do not split into groups {sizes.tolist()}")
    groups = Slots.of_counts(sizes)
    out = Tensor(groups.unpad(groups.pad(x) @ w))

    def bwd(g):
        ga = g @ w.T if a.requires_grad else None
        gb = x.T @ g if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def _broadcast(op: str, a: Tensor, b):
    """The one broadcast rule of add and mul: the right operand has the
    left's shape, holds one element, or is one row (d,) of a 2-d left
    operand (n, d). A python scalar on the right is wrapped in the left's
    dtype. Returns (a, b, b's values to combine with a's, reduce), where
    reduce sums an output cotangent down to b's shape."""
    b = as_tensor(b, a.data.dtype)
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return a, b, b.data, lambda g: g
    if math.prod(sb) == 1:
        return a, b, b.data.reshape(()), lambda g: g.sum().reshape(sb)
    if len(sa) == 2 and sb == sa[1:]:
        return a, b, b.data, lambda g: g.sum(axis=0)
    raise ShapeError(f"{op} cannot broadcast {sa} with {sb}")


def add(a: Tensor, b) -> Tensor:
    a, b, bv, reduce = _broadcast("add", a, b)
    out = Tensor(a.data + bv)

    def bwd(g):
        return (g if a.requires_grad else None, reduce(g) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    a, b, bv, reduce = _broadcast("mul", a, b)
    out = Tensor(a.data * bv)

    def bwd(g):
        return (g * bv if a.requires_grad else None,
                reduce(g * a.data) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    out = Tensor(np.maximum(a.data, 0.0))
    mask = a.data > 0

    def bwd(g):
        return (g * mask,)

    return _record(out, (a,), bwd)


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


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(), dtype=a.data.dtype))
    shape = a.data.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).astype(g.dtype, copy=True),)

    return _record(out, (a,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ContractError("concat of an empty sequence")
    if any(t.data.ndim != 2 for t in ts) or axis not in (0, 1):
        raise ShapeError(
            f"concat needs 2-d tensors on axis 0 or 1, got axis {axis} over "
            + ", ".join(str(t.data.shape) for t in ts)
        )
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


def gather(a: Tensor, idx) -> Tensor:
    """Gather along axis 0: elements of a 1-d tensor or rows of a 2-d one,
    by a flat index list. Backward scatter-adds, so repeated indices
    accumulate."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"gather needs a 1-d or 2-d tensor, got {a.data.shape}")
    ix = np.asarray(idx, dtype=np.intp)
    if ix.ndim != 1:
        raise ShapeError(f"gather needs a flat index list, got shape {ix.shape}")
    if ix.size and (ix.min() < 0 or ix.max() >= a.data.shape[0]):
        raise ContractError(f"index out of range for {a.data.shape[0]} rows: {ix}")
    out = Tensor(a.data[ix])

    def bwd(g):
        da = np.zeros_like(a.data)
        np.add.at(da, ix, g)
        return (da,)

    return _record(out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape).copy())
    orig = a.data.shape

    def bwd(g):
        return (g.reshape(orig),)

    return _record(out, (a,), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over rows x (m, in); the weight is stored (in, out)."""
    return add(matmul(x, w), b)
