"""Question-conditioned integration of the four representation sources.

The four matrices (holistic visual, fine-grained visual, holistic
linguistic, fine-grained linguistic) are each attended against the
question, stacked into one heterogeneous node set, scaled per-source by
learnable index embeddings, and mixed through a GCN over a learned
adjacency, then mean-pooled. Three simpler integration back-ends are kept
as selectable ablation baselines.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DegenerateRowError, ShapeError
from .graph import learn_adjacency, mean_pool, vanilla_gcn_layer, attn_gcn_layer, AttnGcnParams
from .optim import ParamStore, make_param
from .tensor import (
    Tensor,
    _record,
    add,
    concat,
    index_rows,
    linear,
    masked_softmax,
    matmul,
    mul,
    row_softmax,
    transpose,
)

SOURCE_NAMES = ("visual_holistic", "visual_fine", "linguistic_holistic", "linguistic_fine")


class RiVariant(str, Enum):
    DAVL = "DAVL"
    RI_GCN = "RI_GCN"
    RI_AT = "RI_AT"
    RI_CONCAT = "RI_CONCAT"


@dataclass
class QattHead:
    w_q: Tensor  # (d, d/N_h), applied to the attended-from rows
    w_k: Tensor  # (d, d/N_h), applied to question tokens
    w_v: Tensor  # (d, d/N_h), applied to question tokens
    w_o: Tensor  # (d/N_h, d/N_h), per-head output map


@dataclass
class QattBlock:
    heads: list[QattHead]


@dataclass
class RepresentationBundle:
    """Stacked order is fixed: visual holistic rows, visual fine rows,
    linguistic holistic rows, linguistic fine rows; the source id of a row
    is therefore a pure function of its position."""

    x_vg: Tensor
    x_vl: Tensor
    x_lg: Tensor
    x_ll: Tensor

    def matrices(self):
        return (self.x_vg, self.x_vl, self.x_lg, self.x_ll)

    def sources(self) -> np.ndarray:
        """Per-row source id in {1..4} for the stacked node matrix."""
        counts = [m.data.shape[0] for m in self.matrices()]
        return np.repeat(np.arange(1, 5), counts)


@dataclass
class DavlParams:
    qatt: dict[str, QattBlock]  # one block per source name
    index_matrix: Tensor | None  # (4, d); None for the variants that skip it
    learn_w1: Tensor | None
    learn_w2: Tensor | None
    w_gcn: Tensor | None  # (d, d) message transform
    attn_gcn: AttnGcnParams | None  # experimental attention alternative
    w_concat: Tensor | None  # (4d, d) for the concatenation baseline
    b_concat: Tensor | None
    n_keep: int
    normalize: bool
    variant: RiVariant

    @property
    def dtype(self):
        first = next(iter(self.qatt.values())).heads[0]
        return first.w_q.data.dtype


def create_davl_params(
    store: ParamStore, rng, d: int, n_heads: int, n_keep: int,
    variant: RiVariant, dtype, normalize: bool = True, attention_gcn: bool = False,
) -> DavlParams:
    if d % n_heads != 0:
        raise ConfigError(f"head count {n_heads} must divide width {d}")
    dh = d // n_heads
    mk = lambda name, shape, **kw: make_param(store, f"davl.{name}", rng, shape, dtype, **kw)
    qatt = {}
    for src in SOURCE_NAMES:
        heads = [
            QattHead(
                w_q=mk(f"qatt.{src}.h{h}.w_q", (d, dh)),
                w_k=mk(f"qatt.{src}.h{h}.w_k", (d, dh)),
                w_v=mk(f"qatt.{src}.h{h}.w_v", (d, dh)),
                w_o=mk(f"qatt.{src}.h{h}.w_o", (dh, dh)),
            )
            for h in range(n_heads)
        ]
        qatt[src] = QattBlock(heads)

    index_matrix = mk("index_embedding", (4, d), init="ones") if variant == RiVariant.DAVL else None
    learn_w1 = learn_w2 = w_gcn = None
    attn_params = None
    w_concat = b_concat = None
    if variant in (RiVariant.DAVL, RiVariant.RI_GCN):
        learn_w1 = mk("learner.w1", (d, d))
        learn_w2 = mk("learner.w2", (d, d))
        if attention_gcn:
            attn_params = AttnGcnParams(
                w=mk("gcn.w", (d, d)),
                w_q=mk("gcn.w_q", (d, d)),
                w_k=mk("gcn.w_k", (d, d)),
            )
        else:
            w_gcn = mk("gcn.w", (d, d))
    elif variant == RiVariant.RI_AT:
        learn_w1 = mk("learner.w1", (d, d))
        learn_w2 = mk("learner.w2", (d, d))
    elif variant == RiVariant.RI_CONCAT:
        w_concat = mk("concat.w", (4 * d, d))
        b_concat = mk("concat.b", (d,), init="zeros")
    return DavlParams(
        qatt=qatt,
        index_matrix=index_matrix,
        learn_w1=learn_w1,
        learn_w2=learn_w2,
        w_gcn=w_gcn,
        attn_gcn=attn_params,
        w_concat=w_concat,
        b_concat=b_concat,
        n_keep=n_keep,
        normalize=normalize,
        variant=variant,
    )


def question_attention(blocks, xs, q: Tensor) -> Tensor:
    """Multi-head cross attention, one block per source: each row of a
    source matrix x attends over the question rows q, and values come from
    q. Every head of every source runs in a single tape node. Returns the
    attended rows of all sources stacked in order, (sum of rows, d).

    The heads run as stacked matmuls, whose slices compute exactly what
    per-head 2-d products compute, and the vjp adds up each input's
    contributions in the order a per-op tape would: sources last to first,
    heads last to first, the value path before the key path.
    """
    qd = q.data
    n_src, n_heads = len(blocks), len(blocks[0].heads)
    d, dh = blocks[0].heads[0].w_q.data.shape  # dh = d / N_h, also the score scale
    for t in (q, *xs):
        if t.data.ndim != 2 or t.data.shape[1] != d:
            raise ShapeError(f"question attention needs (rows, {d}) inputs, got {t.data.shape}")
    if qd.shape[0] == 0:
        raise DegenerateRowError("question attention over an empty question")
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=qd.dtype)
    heads = [h for block in blocks for h in block.heads]
    w_qkv = np.concatenate([t.data for h in heads for t in (h.w_q, h.w_k, h.w_v)])
    w_qkv = w_qkv.reshape(n_src, n_heads, 3, d, dh)
    w_q, w_k, w_v = w_qkv[:, :, 0], w_qkv[:, :, 1], w_qkv[:, :, 2]
    w_o = np.concatenate([h.w_o.data for h in heads]).reshape(n_src, n_heads, dh, dh)
    rows = list(itertools.accumulate((x.data.shape[0] for x in xs), initial=0))
    spans = list(zip(rows, rows[1:]))

    # contiguous like the copy a transpose op makes, so the products match
    qk_t = np.ascontiguousarray((qd @ w_k).transpose(0, 1, 3, 2))  # (S, H, dh, t)
    qv = qd @ w_v  # (S, H, t, dh)
    xq = [x.data @ w_q[s] for s, x in enumerate(xs)]  # (H, n_s, dh) each
    # the softmax runs once over every source's score rows: (H, N, t)
    scores = np.concatenate([a @ qk_t[s] for s, a in enumerate(xq)], axis=1)
    alpha, softmax_vjp = masked_softmax(scores * scale)
    ctx = [alpha[:, lo:hi] @ qv[s] for s, (lo, hi) in enumerate(spans)]
    o = np.concatenate([c @ w_o[s] for s, c in enumerate(ctx)], axis=1)  # (H, N, dh)
    out = Tensor(o.transpose(1, 0, 2).reshape(rows[-1], n_heads * dh))

    def bwd(g):
        g_heads = g.reshape(-1, n_heads, dh).transpose(1, 0, 2)  # (H, N, dh)
        g_o = [g_heads[:, lo:hi] for lo, hi in spans]
        g_ctx = [go @ w_o[s].transpose(0, 2, 1) for s, go in enumerate(g_o)]
        g_alpha = np.concatenate(
            [gc @ qv[s].transpose(0, 2, 1) for s, gc in enumerate(g_ctx)], axis=1
        )
        g_scores = softmax_vjp(g_alpha) * scale
        g_scores = [g_scores[:, lo:hi] for lo, hi in spans]
        g_qv = np.stack([alpha[:, lo:hi].transpose(0, 2, 1) @ g_ctx[s]
                         for s, (lo, hi) in enumerate(spans)])
        g_qk = np.stack([a.transpose(0, 2, 1) @ gs for a, gs in zip(xq, g_scores)])
        g_qk = g_qk.transpose(0, 1, 3, 2)
        g_xq = [gs @ qk_t[s].transpose(0, 2, 1) for s, gs in enumerate(g_scores)]
        q_val = g_qv @ w_v.transpose(0, 1, 3, 2)
        q_key = g_qk @ w_k.transpose(0, 1, 3, 2)
        g_q = None
        for s in range(n_src - 1, -1, -1):
            for h in range(n_heads - 1, -1, -1):
                g_q = q_val[s, h] if g_q is None else g_q + q_val[s, h]
                g_q = g_q + q_key[s, h]
        g_x = []
        for s, gx in enumerate(g_xq):
            per_head = gx @ w_q[s].transpose(0, 2, 1)
            acc = per_head[-1]
            for h in range(n_heads - 2, -1, -1):
                acc = acc + per_head[h]
            g_x.append(acc)
        g_wk, g_wv = qd.T @ g_qk, qd.T @ g_qv
        grads = [g_q, *g_x]
        for s, x in enumerate(xs):
            g_wq = x.data.T @ g_xq[s]
            g_wo = ctx[s].transpose(0, 2, 1) @ g_o[s]
            for h in range(n_heads):
                grads += (g_wq[h], g_wk[s, h], g_wv[s, h], g_wo[h])
        return tuple(grads)

    weights = [t for h in heads for t in (h.w_q, h.w_k, h.w_v, h.w_o)]
    return _record(out, (q, *xs, *weights), bwd)


def apply_index_embedding(index_matrix: Tensor, nodes: Tensor, sources) -> Tensor:
    """Scale each node row elementwise by its source's embedding row.
    sources holds ids in {1..4}."""
    src = np.asarray(sources, dtype=np.intp)
    if src.ndim != 1 or src.size != nodes.data.shape[0]:
        raise ShapeError(
            f"sources shape {src.shape} does not match {nodes.data.shape[0]} rows"
        )
    if src.size and (src.min() < 1 or src.max() > index_matrix.data.shape[0]):
        raise ConfigError(f"source ids must lie in 1..{index_matrix.data.shape[0]}")
    return mul(nodes, index_rows(index_matrix, src - 1))


def integrate(params: DavlParams, bundle: RepresentationBundle, q: Tensor) -> Tensor:
    """Fuse the four representation matrices into one vector (d,)."""
    blocks = [params.qatt[name] for name in SOURCE_NAMES]
    nodes = question_attention(blocks, bundle.matrices(), q)
    variant = params.variant

    if variant == RiVariant.RI_CONCAT:
        sources = bundle.sources()
        pooled = [mean_pool(nodes, np.flatnonzero(sources == k)) for k in range(1, 5)]
        flat = concat(pooled, axis=0)  # (4d,)
        return linear(flat, params.w_concat, params.b_concat)

    if variant == RiVariant.DAVL:
        nodes = apply_index_embedding(params.index_matrix, nodes, bundle.sources())

    if variant in (RiVariant.DAVL, RiVariant.RI_GCN):
        _, graph = learn_adjacency(params.learn_w1, params.learn_w2, nodes, params.n_keep)
        if params.attn_gcn is not None:
            nodes = attn_gcn_layer(params.attn_gcn, nodes, graph)
        else:
            nodes = vanilla_gcn_layer(params.w_gcn, nodes, graph, normalize=params.normalize)
        return mean_pool(nodes)

    # co-attention baseline: every node attends over all the others
    n = nodes.data.shape[0]
    scores = matmul(matmul(nodes, params.learn_w1), transpose(matmul(nodes, params.learn_w2)))
    off_diag = ~np.eye(n, dtype=bool)
    beta = row_softmax(scores, mask=off_diag)
    return mean_pool(add(nodes, matmul(beta, nodes)))
