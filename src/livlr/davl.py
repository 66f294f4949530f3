"""Question-conditioned integration of the four representation sources.

The four matrices (holistic visual, fine-grained visual, holistic
linguistic, fine-grained linguistic) are each attended against the
question, stacked into one heterogeneous node set, scaled per-source by
learnable index embeddings, and mixed through a GCN over a learned
adjacency, then mean-pooled. Three simpler integration back-ends are kept
as selectable ablation baselines.

Every step runs over a batch's samples at once, one block per sample, and
a batch of one takes the same code as any other. Question attention pads
a source's rows, or the question tokens, into those blocks only where
their counts differ between samples; where they agree, as in a batch of
one, the blocks are reshapes of the stacked rows.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DegenerateRowError, ShapeError
from .graph import GraphBatch, learn_adjacency, mean_weights, pool, vanilla_gcn_layer
from .optim import ParamStore, make_param
from .tensor import (
    RaggedGroups,
    Tensor,
    _record,
    add,
    gather,
    grouped_matmul,
    masked_softmax,
    mul,
    reshape,
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


@dataclass
class DavlParams:
    qatt: dict[str, QattBlock]  # one block per source name
    index_matrix: Tensor | None  # (4, d); None for the variants that skip it
    learn_w1: Tensor | None
    learn_w2: Tensor | None
    w_gcn: Tensor | None  # (d, d) message transform
    w_concat: Tensor | None  # (4d, d) for the concatenation baseline
    b_concat: Tensor | None
    n_keep: int
    variant: RiVariant
    normalize = True  # the GCN averages its messages; a constant, not a field


def create_davl_params(
    store: ParamStore, rng, d: int, n_heads: int, n_keep: int, variant: RiVariant, dtype
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
    w_concat = b_concat = None
    if variant == RiVariant.RI_CONCAT:
        w_concat = mk("concat.w", (4 * d, d))
        b_concat = mk("concat.b", (d,), init="zeros")
    else:
        learn_w1 = mk("learner.w1", (d, d))
        learn_w2 = mk("learner.w2", (d, d))
        if variant != RiVariant.RI_AT:
            w_gcn = mk("gcn.w", (d, d))
    return DavlParams(
        qatt=qatt,
        index_matrix=index_matrix,
        learn_w1=learn_w1,
        learn_w2=learn_w2,
        w_gcn=w_gcn,
        w_concat=w_concat,
        b_concat=b_concat,
        n_keep=n_keep,
        variant=variant,
    )


class QattPadding:
    """Question attention's padded per-sample blocks for a batch, the way
    ``GraphBatch`` pads graphs. Sample b's question rows fill the first
    slots of row b of a (B, t_max) token block, and its rows of source s
    those of row b of a (B, m_s) block, m_s the source's largest count per
    sample (``tokens`` and ``rows[s]``, each a ``RaggedGroups``). A source
    row then scores only its own sample's t_max slots, so the scores grow
    linearly with the batch. The forward's products all run per block, so
    a sample's output rows have the same bits in any batch whose samples
    share its counts. ``mask`` (rows, t_max) marks, per stacked source
    row, the slots its sample's question fills; it is None where every
    question has t_max rows. A block whose counts are all equal, as in a
    batch of one, pads nothing.

    ``counts`` (B, S) holds each sample's rows per source and ``tokens``
    (B,) its question rows."""

    def __init__(self, counts, tokens):
        tokens = np.asarray(tokens, dtype=np.intp)
        counts = np.asarray(counts, dtype=np.intp).reshape(tokens.size, -1)
        self.n = tokens.size
        self._sizes = (counts.sum(axis=0).tolist(), int(tokens.sum()))
        self.tokens = RaggedGroups(tokens)
        self.rows = [RaggedGroups(c) for c in counts.T]
        self.mask = None
        if self.tokens.slots is not None:
            owner_tokens = np.concatenate([np.repeat(tokens, c) for c in counts.T])
            self.mask = np.arange(self.tokens.width) < owner_tokens[:, None]

    def check(self, rows, tokens):
        """ShapeError unless the batch has these rows per source and
        question rows in all."""
        if (rows, tokens) != self._sizes:
            raise ShapeError(
                f"question attention over {rows} source rows and {tokens} question rows, "
                f"but the batch has {self._sizes[0]} and {self._sizes[1]}")


def question_attention(blocks, xs, q: Tensor, pad: QattPadding | None = None) -> Tensor:
    """Multi-head cross attention, one block per source: each row of a
    source matrix x attends over the question rows q, and values come from
    q. Every head of every source runs in a single tape node. Returns the
    attended rows of all sources stacked in order, (sum of rows, d).

    The sources and q stack a batch's samples as ``pad`` says; without it
    they are one sample's, a padding of one. Each sample's rows of each
    source attend only over its own question tokens, through the padded
    per-sample blocks of ``pad``: the scores are (H, rows, t_max), linear
    in the batch.

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
    counts = [x.data.shape[0] for x in xs]
    if pad is None:
        pad = QattPadding([counts], [qd.shape[0]])
    pad.check(counts, qd.shape[0])
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=qd.dtype)
    heads = [h for block in blocks for h in block.heads]
    w_qkv = np.concatenate([t.data for h in heads for t in (h.w_q, h.w_k, h.w_v)])
    w_qkv = w_qkv.reshape(n_src, n_heads, 3, d, dh)
    w_q, w_k, w_v = w_qkv[:, :, 0], w_qkv[:, :, 1], w_qkv[:, :, 2]
    w_o = np.concatenate([h.w_o.data for h in heads]).reshape(n_src, n_heads, dh, dh)
    rows = list(itertools.accumulate(counts, initial=0))
    spans = list(zip(rows, rows[1:]))

    # the tensors carry a block axis B after the head axis: the question
    # (S, H, B, t_max, dh) and each source's rows (H, B, m_s, dh)
    by_token, by_src = pad.tokens, pad.rows
    q_pad = by_token.to_blocks(qd)
    qk = q_pad @ w_k[:, :, None]
    # contiguous like the copy a transpose op makes, so the products match
    qk_t = np.ascontiguousarray(qk.swapaxes(-1, -2))
    qv = q_pad @ w_v[:, :, None]
    xq = [by_src[s].to_blocks(x.data) @ w_q[s][:, None] for s, x in enumerate(xs)]
    # the softmax runs once over every source's score rows: (H, N, t_max)
    scores = np.concatenate([by_src[s].from_blocks(a @ qk_t[s]) for s, a in enumerate(xq)], axis=1)
    alpha, softmax_vjp = masked_softmax(scores * scale, pad.mask)
    alpha_pad = [by_src[s].to_blocks(alpha[:, lo:hi]) for s, (lo, hi) in enumerate(spans)]
    ctx_pad = [a @ qv[s] for s, a in enumerate(alpha_pad)]
    ctx = [by_src[s].from_blocks(c) for s, c in enumerate(ctx_pad)]
    o = np.concatenate([by_src[s].from_blocks(c @ w_o[s][:, None])
                        for s, c in enumerate(ctx_pad)], axis=1)  # (H, N, dh)
    out = Tensor(o.transpose(1, 0, 2).reshape(rows[-1], n_heads * dh))

    def bwd(g):
        g_heads = g.reshape(-1, n_heads, dh).transpose(1, 0, 2)  # (H, N, dh)
        g_o = [g_heads[:, lo:hi] for lo, hi in spans]
        g_ctx = [by_src[s].to_blocks(go @ w_o[s].transpose(0, 2, 1)) for s, go in enumerate(g_o)]
        g_alpha = np.concatenate(
            [by_src[s].from_blocks(gc @ qv[s].swapaxes(-1, -2)) for s, gc in enumerate(g_ctx)], axis=1
        )
        g_scores = softmax_vjp(g_alpha) * scale
        g_scores = [by_src[s].to_blocks(g_scores[:, lo:hi]) for s, (lo, hi) in enumerate(spans)]
        g_qv = by_token.from_blocks(np.stack(
            [a.swapaxes(-1, -2) @ gc for a, gc in zip(alpha_pad, g_ctx)]))
        g_qk = by_token.from_blocks(np.stack(
            [a.swapaxes(-1, -2) @ gs for a, gs in zip(xq, g_scores)]).swapaxes(-1, -2))
        g_xq = [by_src[s].from_blocks(gs @ qk_t[s].swapaxes(-1, -2)) for s, gs in enumerate(g_scores)]
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
    return mul(nodes, gather(index_matrix, src - 1))


class BundleLayout:
    """Where each sample of a batch sits in its stacked representation
    bundle, from row counts alone. Each source matrix stacks its rows
    sample by sample; question attention stacks the four sources in
    bundle order, so sample b's nodes are scattered over four blocks.

    ``counts`` (B, 4) holds each sample's rows per source and ``tokens``
    (B,) its question rows. Per stacked node row, ``sources`` holds its
    source id (1..4). ``graph`` holds one edgeless graph per sample over
    its nodes, in source order, padded to m slots, the most nodes of a
    sample; everything that mixes a sample's nodes runs on those slots, one
    product per sample, so its cost is linear in B. ``mean`` (B, 1, m) and
    ``source_mean`` (B, 4, m) weight the slots to average each sample's
    nodes, all of them and per source. ``qatt`` holds question attention's
    padded per-sample blocks, at every B. Layouts are kept and reused, so
    ``source_mean`` (only ``RI_CONCAT`` reads it) is built on first use.
    """

    def __init__(self, counts, tokens):
        counts = np.asarray(counts, dtype=np.intp).reshape(-1, 4)
        self.n = b = counts.shape[0]
        per_source = counts.sum(axis=0)
        self.sources = np.repeat(np.arange(1, 5), per_source)
        # stacked row where sample b's rows of source k begin
        first = (np.cumsum(per_source) - per_source) + (np.cumsum(counts, axis=0) - counts)
        sizes = counts.sum(axis=1)
        slots = np.full((b, int(sizes.max())), -1, dtype=np.intp)
        for i in range(b):
            slots[i, : sizes[i]] = np.concatenate(
                [np.arange(lo, lo + n) for lo, n in zip(first[i], counts[i])])
        self.graph = GraphBatch(slots, np.zeros(slots.shape + slots.shape[1:], dtype=bool))
        self.mean = mean_weights(self.graph.valid)
        self.qatt = QattPadding(counts, tokens)

    @functools.cached_property
    def source_mean(self) -> np.ndarray:
        slot_source = np.where(self.graph.valid, self.sources[self.graph.slots], 0)
        return np.concatenate([mean_weights(slot_source == s) for s in range(1, 5)], axis=1)


def co_attention(w1: Tensor, w2: Tensor, nodes: Tensor, graph: GraphBatch) -> Tensor:
    """RI_AT's co-attention as one node: each node attends over the other
    nodes of its own sample, out_i = v_i + sum_j beta_ij v_j with beta_i =
    softmax_j(<v_i W1, v_j W2>), in per-sample (B, m, m) blocks over the
    padded slots of ``graph``.

    The vjp adds up the node gradients in the order a per-op tape of the
    same products would (residual, mix, key path, query path), and hands
    each product its operands in the memory order that tape does, since
    BLAS may round a product differently by layout."""
    v = nodes.data
    b, m = graph.slots.shape
    p = graph.pad(v)
    p3 = p.reshape(b, m, -1)
    q = (p @ w1.data).reshape(b, m, -1)
    # contiguous like the copy a transpose op makes
    k_t = np.ascontiguousarray((p @ w2.data).reshape(b, m, -1).transpose(0, 2, 1))
    others = graph.valid[:, :, None] & graph.valid[:, None, :] & ~np.eye(m, dtype=bool)
    beta, softmax_vjp = masked_softmax(q @ k_t, others)
    out = Tensor(v + graph.unpad((beta @ p3).reshape(b * m, -1)))

    def bwd(g):
        g3 = graph.pad(g).reshape(b, m, -1)
        g_scores = softmax_vjp(g3 @ p3.transpose(0, 2, 1))
        g_q = (g_scores @ k_t.transpose(0, 2, 1)).reshape(b * m, -1)
        g_k_t = q.transpose(0, 2, 1) @ g_scores  # (B, d, m)
        # the (B * m, d) rows of g_k_t's transpose, column-major
        g_k = g_k_t.transpose(1, 0, 2).reshape(g_k_t.shape[1], -1).T
        g_v = g + graph.unpad((beta.transpose(0, 2, 1) @ g3).reshape(b * m, -1))
        g_v = g_v + graph.unpad(g_k @ w2.data.T)
        g_v = g_v + graph.unpad(g_q @ w1.data.T)
        return g_v, p.T @ g_q, p.T @ g_k

    return _record(out, (nodes, w1, w2), bwd)


def integrate(
    params: DavlParams, bundle: RepresentationBundle, q: Tensor, layout: BundleLayout | None = None
) -> Tensor:
    """Fuse the four representation matrices into one vector (d,) per
    sample. Without ``layout`` the bundle and the question rows q are one
    sample's, and the result is (d,); with it they stack a batch's samples
    as the layout says, and the result is (B, d)."""
    single = layout is None
    if single:
        layout = BundleLayout([m.data.shape[0] for m in bundle.matrices()], [q.data.shape[0]])
    blocks = [params.qatt[name] for name in SOURCE_NAMES]
    nodes = question_attention(blocks, bundle.matrices(), q, layout.qatt)
    variant = params.variant

    if variant == RiVariant.RI_CONCAT:
        # one mean per (sample, source), each sample's four side by side
        pooled = pool(layout.source_mean, nodes, layout.graph)
        fused = add(grouped_matmul(pooled, params.w_concat, [1] * layout.n), params.b_concat)
    else:
        if variant == RiVariant.DAVL:
            nodes = apply_index_embedding(params.index_matrix, nodes, layout.sources)
        if variant in (RiVariant.DAVL, RiVariant.RI_GCN):
            _, graph = learn_adjacency(
                params.learn_w1, params.learn_w2, nodes, params.n_keep, layout.graph)
            nodes = vanilla_gcn_layer(params.w_gcn, nodes, graph)
        else:
            nodes = co_attention(params.learn_w1, params.learn_w2, nodes, layout.graph)
        fused = pool(layout.mean, nodes, layout.graph)
    return reshape(fused, (fused.data.shape[1],)) if single else fused
