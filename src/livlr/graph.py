"""Dense graphs and the graph network layers shared by both encoders.

Graphs are small (tens of nodes), so a set of them is kept as padded
blocks: adjacency (G, n_max, n_max) boolean, edge types the same shape in
integers, and each graph's node count. ``GraphBatch`` lays those blocks
over the rows of one stacked node matrix and is the only graph type; a
frame's or a sentence's graph is a batch of one. Joining the graph sets of
several frames, sentences or samples concatenates their blocks
(``pad_blocks``) and their node counts. Node update layers follow the
residual pattern out_i = ReLU(v_i + aggregate(neighbors)).

Each op pads the stacked rows into (B, n_max, d) blocks
(``tensor.Slots``), so one tape node serves every frame or sentence of a
minibatch, or every sample's integration graph.

The encoders and the integration module run in stages, each through a
stage hook ``run(name, fn)`` that must return fn(); ``run_stage`` is the
plain one. A caller may instead hand back an earlier output of a stage,
or keep fn and call it again (see gradcheck).
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, GraphIntegrityError, NumericError, ShapeError
from .tensor import (
    Slots,
    Tensor,
    _record,
    add,
    masked_softmax,
    matmul,
    relu,
)


def run_stage(name: str, fn):
    return fn()


def pad_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    """Square blocks (g_i, n_i, n_i), an (n_i, n_i) matrix counting as one,
    stacked block after block into one (G, n_max, n_max) array, each padded
    with zeros: no edge."""
    blocks = [b.reshape(-1, *b.shape[-2:]) for b in blocks]
    n = max(b.shape[-1] for b in blocks)
    out = np.zeros((sum(len(b) for b in blocks), n, n), dtype=blocks[0].dtype)
    lo = 0
    for b in blocks:
        k = b.shape[-1]
        out[lo : lo + len(b), :k, :k] = b
        lo += len(b)
    return out


class GraphBatch(Slots):
    """B directed graphs over the rows of one stacked node matrix: a
    ``Slots`` layout, block b holding graph b's nodes, plus ``adjacency``
    and ``edge_types`` (B, n_max, n_max), each graph's matrices padded with
    no edges (``pad_blocks``). adjacency[b, i, j] is True when slot j sends
    a message to slot i; edge_types, when present, labels exactly the
    adjacent pairs with values in [1, n_types], 0 marking no edge.
    ``slots`` is a matrix, checked to name every row once, or a ``Slots``
    taken as it is, such as ``Slots.of_counts`` over each graph's node
    count. The constructor rejects self loops, edges at padding slots and
    type labels that disagree with the adjacency."""

    def __init__(self, slots, adjacency, edge_types=None):
        if isinstance(slots, Slots):
            vars(self).update(vars(slots))
        else:
            super().__init__(slots)
        adj = np.asarray(adjacency, dtype=bool)
        valid = self.valid
        if adj.shape != valid.shape + valid.shape[1:]:
            raise ShapeError(f"slots {valid.shape} and adjacency {adj.shape} do not fit")
        if (adj & ~(valid[:, :, None] & valid[:, None, :])).any():
            raise GraphIntegrityError("edge at a padding slot")
        n = adj.shape[-1]
        if adj[:, np.arange(n), np.arange(n)].any():
            raise GraphIntegrityError("self loop on the adjacency diagonal")
        if edge_types is not None:
            edge_types = np.asarray(edge_types)
            if edge_types.shape != adj.shape:
                raise ShapeError(
                    f"edge_types shape {edge_types.shape} does not match adjacency {adj.shape}"
                )
            bad = (edge_types > 0) != adj
            if bad.any():
                where = tuple(int(i) for i in np.argwhere(bad)[0])
                raise GraphIntegrityError(f"edge {where} disagrees with its type label")
        self.adjacency, self.edge_types = adj, edge_types

    def with_edges(self, adjacency: np.ndarray) -> "GraphBatch":
        """The same node layout with new untyped edges, which the caller
        guarantees are loop-free and lie between real nodes."""
        out = copy.copy(self)
        out.adjacency, out.edge_types = adjacency, None
        return out


@dataclass
class AttnGcnParams:
    """One attention-aggregation layer: message transform plus the two
    projections that score node pairs."""

    w: Tensor
    w_q: Tensor
    w_k: Tensor


@dataclass
class TypedGcnParams:
    """Attention layer whose messages carry a learned per-edge-type scalar."""

    w: Tensor
    w_q: Tensor
    w_k: Tensor
    type_bias: Tensor  # (n_types,)


def _neighbor_weights(params, p: np.ndarray, graph: GraphBatch):
    """Bilinear scores, score(i, j) = <W_q v_i, W_k v_j>, softmaxed over
    each node's neighborhood within its graph, on the padded rows p
    (B * n_max, d). Rows with no neighbors get all-zero weights. Returns
    (W_q v, (W_k v)^T, alpha, softmax vjp), each (B, ...)."""
    b, n = graph.slots.shape
    q = (p @ params.w_q.data).reshape(b, n, -1)
    # contiguous like a transpose op's copy
    k_t = np.ascontiguousarray((p @ params.w_k.data).reshape(b, n, -1).transpose(0, 2, 1))
    alpha, softmax_vjp = masked_softmax(q @ k_t, graph.adjacency)
    return q, k_t, alpha, softmax_vjp


def _attention_layer(params, nodes: Tensor, graph: GraphBatch, typed: bool) -> Tensor:
    """One attention aggregation layer over every graph of a batch, as a
    single tape node: out_i = ReLU(v_i + sum_j alpha_ij (W v_j + typed *
    b[type_ij])) over the neighbors j in node i's own graph.

    The row-wise products run once over the padded block and the per-graph
    ones as stacked matmuls; the vjp adds up each input's contributions in
    the order a per-op tape over the same block would, so gradients match
    that composition (tests/oracles.py) bit for bit.
    """
    v, w, w_q, w_k = nodes.data, params.w.data, params.w_q.data, params.w_k.data
    if v.shape != (graph.n_rows, w.shape[0]):
        raise ShapeError(f"node matrix {v.shape} does not fit {graph.n_rows} nodes of width {w.shape[0]}")
    b, n = graph.slots.shape
    p3 = graph.pad(v)
    p = p3.reshape(b * n, -1)  # the blocks' rows, for the row-wise products
    q, k_t, alpha, softmax_vjp = _neighbor_weights(params, p, graph)
    msgs = (p @ w).reshape(b, n, -1)
    pre = p3 + alpha @ msgs
    inputs = (nodes, params.w, params.w_q, params.w_k)
    if typed:
        # per-edge scalars: 0 off-edge entries are masked by alpha being 0 there
        idx = np.where(graph.adjacency, graph.edge_types - 1, 0).ravel()
        bias_mat = params.type_bias.data[idx].reshape(graph.adjacency.shape)
        pre = pre + (alpha * bias_mat).sum(axis=2, keepdims=True)
        inputs += (params.type_bias,)
    live = pre > 0
    out = Tensor(graph.unpad(np.maximum(pre, 0.0)))

    def bwd(g):
        g3 = graph.pad(g) * live
        g = g3.reshape(b * n, -1)
        grads = ()
        g_alpha = g3 @ msgs.transpose(0, 2, 1)
        if typed:
            g_shift = np.repeat(g3.sum(axis=2, keepdims=True), n, axis=2)
            g_bias = np.zeros_like(params.type_bias.data)
            np.add.at(g_bias, idx, (g_shift * alpha).reshape(-1))
            grads = (g_bias,)
            g_alpha = g_shift * bias_mat + g_alpha
        g_msgs = (alpha.transpose(0, 2, 1) @ g3).reshape(b * n, -1)
        g_scores = softmax_vjp(g_alpha)
        g_q = (g_scores @ k_t.transpose(0, 2, 1)).reshape(b * n, -1)
        g_k = np.ascontiguousarray((q.transpose(0, 2, 1) @ g_scores).transpose(0, 2, 1))
        g_k = g_k.reshape(b * n, -1)
        g_v = g + g_msgs @ w.T
        g_v = g_v + g_k @ w_k.T
        g_v = g_v + g_q @ w_q.T
        return (graph.unpad(g_v), p.T @ g_msgs, p.T @ g_q, p.T @ g_k) + grads

    return _record(out, inputs, bwd)


def attention_coefficients(params, nodes: Tensor, graph: GraphBatch) -> Tensor:
    """The row-stochastic neighbor weights the attention layers use over
    the one graph of ``graph``, (n_max, n_max) as a no-grad tensor for
    inspection. Rows with no neighbors are all zero."""
    if graph.valid.shape[0] != 1:
        raise ShapeError(f"attention_coefficients takes one graph, got {graph.valid.shape[0]}")
    p = graph.pad(nodes.data).reshape(-1, nodes.data.shape[1])
    return Tensor(_neighbor_weights(params, p, graph)[2][0])


def attn_gcn_layer(params: AttnGcnParams, nodes: Tensor, graph: GraphBatch) -> Tensor:
    """out_i = ReLU(v_i + sum_j alpha_ij W v_j) over neighbors j within
    each graph of the batch, whose rows are those of nodes."""
    return _attention_layer(params, nodes, graph, typed=False)


def typed_edge_gcn_layer(params: TypedGcnParams, nodes: Tensor, graph: GraphBatch) -> Tensor:
    """Attention aggregation where each message also carries a scalar bias
    chosen by the edge's type label, broadcast over feature dims."""
    if graph.edge_types is None:
        raise GraphIntegrityError("typed edge layer needs edge type labels")
    return _attention_layer(params, nodes, graph, typed=True)


def vanilla_gcn_layer(w: Tensor, nodes: Tensor, graph: GraphBatch) -> Tensor:
    """Unweighted aggregation: out_i = ReLU(v_i + mean_j W v_j) over the
    neighbors j in node i's own graph of the batch."""
    msgs = matmul(nodes, w)
    a = graph.adjacency.astype(nodes.data.dtype)
    deg = a.sum(axis=2, keepdims=True)
    a = a / np.where(deg == 0.0, 1.0, deg)
    return relu(add(nodes, _aggregate(a, msgs, graph)))


def _aggregate(weights: np.ndarray, x: Tensor, graph: GraphBatch) -> Tensor:
    """Row i of each graph gets sum_j weights[b, i, j] x_j over its own
    graph's rows, as one node: (R, d) -> (R, d)."""
    if x.data.shape[0] != graph.n_rows:
        raise ShapeError(f"node matrix {x.data.shape} does not fit {graph.n_rows} nodes")

    def apply(w, v):
        return graph.unpad(w @ graph.pad(v))

    w_t = weights.transpose(0, 2, 1)
    return _record(Tensor(apply(weights, x.data)), (x,), lambda g: (apply(w_t, g),))


def mean_weights(valid: np.ndarray) -> np.ndarray:
    """(B, 1, n_max) pooling weights that average each row's set slots of
    ``valid`` (B, n_max); a row with no set slot gets all zeros."""
    return (valid / np.maximum(valid.sum(axis=1, keepdims=True), 1))[:, None, :]


def pool(weights: np.ndarray, nodes: Tensor, graph: GraphBatch) -> Tensor:
    """Weighted sums of each graph's own node rows, as one node: weights
    (B, k, n_max) over the padded slots of ``graph`` give (B, k * d), one
    stacked product per graph, so a graph's sums have the same bits in any
    batch."""
    b, n = graph.slots.shape
    if weights.ndim != 3 or weights.shape[::2] != (b, n) or nodes.data.shape[0] != graph.n_rows:
        raise ShapeError(f"weights {weights.shape} and node matrix {nodes.data.shape} "
                         f"do not fit {b} graphs over {graph.n_rows} nodes")
    w = weights.astype(nodes.data.dtype)
    out = w @ graph.pad(nodes.data)
    w_t = w.transpose(0, 2, 1)

    def bwd(g):
        return (graph.unpad(w_t @ g.reshape(out.shape)),)

    return _record(Tensor(out.reshape(b, -1)), (nodes,), bwd)


def learn_adjacency(w1: Tensor, w2: Tensor, nodes: Tensor, n_keep: int, layout: GraphBatch):
    """Score every ordered node pair within each graph of ``layout``
    bilinearly and keep each row's top n_keep off-diagonal entries as
    edges: (padded scores (B, n_max, n_max), ``layout.with_edges``).

    Ties keep the lower column index. Rows keep min(n_keep, n-1) edges, so
    a single-node graph comes out edgeless.
    """
    if n_keep < 1:
        raise ContractError(f"n_keep must be >= 1, got {n_keep}")
    # selection only: no gradient reaches the scorer, so nothing is recorded
    v = nodes.data
    if v.ndim != 2 or v.shape[1] != w1.data.shape[0]:
        raise ShapeError(f"node matrix {v.shape} does not match scorer {w1.data.shape}")
    if v.shape[0] != layout.n_rows:
        raise ShapeError(f"node matrix {v.shape} does not fit {layout.n_rows} nodes")
    p, valid = layout.pad(v), layout.valid
    scores = (p @ w1.data) @ np.ascontiguousarray((p @ w2.data).transpose(0, 2, 1))
    scored = valid[:, :, None] & valid[:, None, :]
    if not np.isfinite(scores[scored]).all():
        # nan never orders correctly under argsort, so selection would pick
        # forbidden columns; fail as a numeric problem, not a graph bug
        raise NumericError("non-finite edge affinity scores")

    n = scores.shape[1]
    vals = np.where(scored, scores, -np.inf)
    vals[:, np.arange(n), np.arange(n)] = -np.inf
    # stable sort on the negated rows: descending value, then ascending
    # column index among ties; a column is kept while its rank in its row,
    # the inverse permutation of the order, is below min(n_keep, n_b - 1)
    order = np.argsort(-vals, axis=2, kind="stable")
    keep = np.minimum(n_keep, valid.sum(axis=1) - 1)
    adj = (order.argsort(axis=2) < keep[:, None, None]) & valid[:, :, None]
    return Tensor(scores), layout.with_edges(adj)
