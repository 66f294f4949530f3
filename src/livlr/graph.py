"""Dense graphs and the graph network layers shared by both encoders.

Graphs are small (tens of nodes), so adjacency is a dense boolean matrix
and edge types a dense integer matrix. Node update layers follow the
residual pattern out_i = ReLU(v_i + aggregate(neighbors)).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, GraphIntegrityError, NumericError, ShapeError
from .tensor import (
    Tensor,
    _record,
    add,
    constant,
    index_rows,
    masked_softmax,
    matmul,
    mean_axis0,
    relu,
)


@dataclass
class DenseGraph:
    """Directed graph over n nodes.

    adjacency[i, j] is True when j is a neighbor of (sends a message to) i.
    edge_types, when present, labels exactly the adjacent pairs with values
    in [1, n_types]; 0 marks the absence of an edge.
    """

    n_nodes: int
    adjacency: np.ndarray
    edge_types: np.ndarray | None = None
    self_loops_excluded: bool = field(default=True)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.n_nodes, self.n_nodes):
            raise ShapeError(
                f"adjacency shape {adj.shape} does not match n_nodes={self.n_nodes}"
            )
        self.adjacency = adj
        if self.self_loops_excluded and adj.trace() > 0:
            raise GraphIntegrityError("self loop on the adjacency diagonal")
        if self.edge_types is not None:
            et = np.asarray(self.edge_types)
            if et.shape != adj.shape:
                raise ShapeError(
                    f"edge_types shape {et.shape} does not match adjacency {adj.shape}"
                )
            if ((et > 0) != adj).any():
                i, j = np.argwhere((et > 0) != adj)[0]
                raise GraphIntegrityError(
                    f"edge ({i}, {j}) disagrees with its type label"
                )
            self.edge_types = et

    def degree(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


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


def _neighbor_weights(params, v: np.ndarray, adjacency: np.ndarray):
    """Bilinear scores, score(i, j) = <W_q v_i, W_k v_j>, softmaxed over
    each node's neighborhood on raw arrays; rows with no neighbors get
    all-zero weights. Returns (W_q v, (W_k v)^T, alpha, softmax vjp)."""
    q = v @ params.w_q.data
    k_t = (v @ params.w_k.data).T.copy()  # contiguous like a transpose op's copy
    alpha, softmax_vjp = masked_softmax(q @ k_t, adjacency)
    return q, k_t, alpha, softmax_vjp


def _attention_layer(params, nodes: Tensor, graph: DenseGraph, typed: bool) -> Tensor:
    """One attention aggregation layer as a single tape node:
    out_i = ReLU(v_i + sum_j alpha_ij (W v_j + typed * b[type_ij])).

    The vjp adds up each input's contributions in the order a per-op tape
    would, so gradients match that composition bit for bit.
    """
    v, w, w_q, w_k = nodes.data, params.w.data, params.w_q.data, params.w_k.data
    if v.shape != (graph.n_nodes, w.shape[0]):
        raise ShapeError(f"node matrix {v.shape} does not fit {graph.n_nodes} nodes of width {w.shape[0]}")
    q, k_t, alpha, softmax_vjp = _neighbor_weights(params, v, graph.adjacency)
    msgs = v @ w
    pre = v + alpha @ msgs
    inputs = (nodes, params.w, params.w_q, params.w_k)
    if typed:
        # per-edge scalars: 0 off-edge entries are masked by alpha being 0 there
        idx = np.where(graph.adjacency, graph.edge_types - 1, 0).ravel()
        bias_mat = params.type_bias.data[idx].reshape(graph.adjacency.shape)
        pre = pre + (alpha * bias_mat).sum(axis=1, keepdims=True)
        inputs += (params.type_bias,)
    live = pre > 0
    out = Tensor(np.maximum(pre, 0.0))

    def bwd(g):
        g = g * live
        grads = ()
        g_alpha = g @ msgs.T
        if typed:
            g_shift = np.repeat(g.sum(axis=1, keepdims=True), v.shape[0], axis=1)
            g_bias = np.zeros_like(params.type_bias.data)
            np.add.at(g_bias, idx, (g_shift * alpha).reshape(-1))
            grads = (g_bias,)
            g_alpha = g_shift * bias_mat + g_alpha
        g_msgs = alpha.T @ g
        g_scores = softmax_vjp(g_alpha)
        g_q = g_scores @ k_t.T
        g_k = (q.T @ g_scores).T
        g_v = g + g_msgs @ w.T
        g_v = g_v + g_k @ w_k.T
        g_v = g_v + g_q @ w_q.T
        return (g_v, v.T @ g_msgs, v.T @ g_q, v.T @ g_k) + grads

    return _record(out, inputs, bwd)


def attention_coefficients(params, nodes: Tensor, graph: DenseGraph) -> Tensor:
    """The row-stochastic neighbor weights the attention layers use, as a
    no-grad tensor for inspection. Rows with no neighbors are all zero."""
    return Tensor(_neighbor_weights(params, nodes.data, graph.adjacency)[2])


def attn_gcn_layer(params: AttnGcnParams, nodes: Tensor, graph: DenseGraph) -> Tensor:
    """out_i = ReLU(v_i + sum_j alpha_ij W v_j) over neighbors j."""
    return _attention_layer(params, nodes, graph, typed=False)


def typed_edge_gcn_layer(
    params: TypedGcnParams, nodes: Tensor, graph: DenseGraph
) -> Tensor:
    """Attention aggregation where each message also carries a scalar bias
    chosen by the edge's type label, broadcast over feature dims."""
    if graph.edge_types is None:
        raise GraphIntegrityError("typed edge layer needs edge type labels")
    return _attention_layer(params, nodes, graph, typed=True)


def vanilla_gcn_layer(
    w: Tensor, nodes: Tensor, graph: DenseGraph, normalize: bool = True
) -> Tensor:
    """Unweighted aggregation: out_i = ReLU(v_i + mean_j W v_j) over
    neighbors, or a plain sum when normalize is off."""
    msgs = matmul(nodes, w)
    a = graph.adjacency.astype(nodes.data.dtype)
    if normalize:
        deg = a.sum(axis=1, keepdims=True)
        a = a / np.where(deg == 0.0, 1.0, deg)
    return relu(add(nodes, matmul(constant(a, nodes.data.dtype), msgs)))


def learn_adjacency(
    w1: Tensor, w2: Tensor, nodes: Tensor, n_keep: int
) -> tuple[Tensor, DenseGraph]:
    """Score every ordered node pair bilinearly and keep each row's top
    n_keep off-diagonal entries as edges.

    Ties keep the lower column index. Rows keep min(n_keep, n-1) edges, so
    a single-node graph comes out edgeless. The raw score matrix is
    returned alongside the graph.
    """
    if n_keep < 1:
        raise ContractError(f"n_keep must be >= 1, got {n_keep}")
    # selection only: no gradient reaches the scorer, so nothing is recorded
    v = nodes.data
    if v.ndim != 2 or v.shape[1] != w1.data.shape[0]:
        raise ShapeError(f"node matrix {v.shape} does not match scorer {w1.data.shape}")
    scores = (v @ w1.data) @ (v @ w2.data).T.copy()
    if not np.isfinite(scores).all():
        # nan never orders correctly under argsort, so selection would pick
        # forbidden columns; fail as a numeric problem, not a graph bug
        raise NumericError("non-finite edge affinity scores")

    n = scores.shape[0]
    keep = min(n_keep, n - 1)
    adj = np.zeros((n, n), dtype=bool)
    if keep > 0:
        vals = scores.copy()
        np.fill_diagonal(vals, -np.inf)
        # stable sort on the negated rows: descending value, then
        # ascending column index among ties
        order = np.argsort(-vals, axis=1, kind="stable")
        np.put_along_axis(adj, order[:, :keep], True, axis=1)
    return Tensor(scores), DenseGraph(n, adj)


def mean_pool(nodes: Tensor, subset=None) -> Tensor:
    """Mean of the selected node rows; subset=None pools every node."""
    if subset is None:
        return mean_axis0(nodes)
    idx = np.asarray(subset, dtype=np.intp)
    if idx.size == 0:
        raise ContractError("mean_pool over an empty subset")
    return mean_axis0(index_rows(nodes, idx))
