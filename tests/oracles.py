"""Independent oracles for the numeric kernels.

The loop oracles recompute a layer with explicit index loops and plain
scalar math, sharing no code with the package (numpy is used only as an
array container). Tests compare the real implementations against these
on random instances.

The tape oracles are the straight compositions of primitive tape ops
(one node per matmul, transpose, softmax, ...) that the fused attention
nodes replace, applied graph by graph to the same padded batch layout.
They record the same arithmetic in the same order, so a fused node must
match them bit for bit, gradients included. The tape ops only they use
(transpose, a row softmax that may leave a row empty, row sums, a column
add, exp, log, column means and mean pooling) live here too, as does
the two-branch sigmoid the per-item LSTM oracle squashes its gates with.

``learned_edges_put_along`` is the graph learner's edge selection as it
was written before the rank mask: a scatter by sort order.

The per-item oracles are the encoders as they ran before the batch
axis: one frame, sentence, sequence or candidate at a time, each graph
through the layers as a batch of one. They cut a clip into its frames by
its object counts (``frames_of``) and a sample's sentence tokens by its
parses' token counts; ``clip_of`` stacks frames into a clip. With
``integrate_tape`` and the one-sample heads and losses they make up
``sample_forward``, the model as it ran one sample at a time. The
batched model must match it to rounding (tests/test_batching.py).
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np


def max_rel_err(a, b, floor=1e-9) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def mat_loop(a, b) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = sum(float(a[i, k]) * float(b[k, j]) for k in range(a.shape[1]))
    return out


def softmax_loop(row, mask=None) -> list[float]:
    n = len(row)
    alive = [j for j in range(n) if mask is None or mask[j]]
    out = [0.0] * n
    if not alive:
        return out
    m = max(float(row[j]) for j in alive)
    exps = {j: math.exp(float(row[j]) - m) for j in alive}
    s = sum(exps.values())
    for j in alive:
        out[j] = exps[j] / s
    return out


def attention_loop(x, w_q, w_k, adj) -> np.ndarray:
    """alpha[i, j] = softmax over i's neighbors of <W_q x_i, W_k x_j>."""
    x = np.asarray(x)
    n = x.shape[0]
    q = mat_loop(x, w_q)
    k = mat_loop(x, w_k)
    alpha = np.zeros((n, n))
    for i in range(n):
        scores = [sum(q[i, b] * k[j, b] for b in range(q.shape[1])) for j in range(n)]
        alpha[i] = softmax_loop(scores, [bool(adj[i][j]) for j in range(n)])
    return alpha


def attn_gcn_loop(x, w_q, w_k, w, adj) -> np.ndarray:
    """out_i = ReLU(x_i + sum_j alpha_ij W x_j)."""
    x = np.asarray(x)
    n, d = x.shape
    alpha = attention_loop(x, w_q, w_k, adj)
    msgs = mat_loop(x, w)
    out = np.zeros((n, d))
    for i in range(n):
        for cdim in range(d):
            v = float(x[i, cdim])
            for j in range(n):
                v += alpha[i, j] * msgs[j, cdim]
            out[i, cdim] = v if v > 0.0 else 0.0
    return out


def typed_gcn_loop(x, w_q, w_k, w, type_bias, adj, types) -> np.ndarray:
    """Attention aggregation plus a per-edge type scalar, shared across
    feature dims, inside the ReLU."""
    x = np.asarray(x)
    n, d = x.shape
    alpha = attention_loop(x, w_q, w_k, adj)
    msgs = mat_loop(x, w)
    out = np.zeros((n, d))
    for i in range(n):
        shift = 0.0
        for j in range(n):
            if adj[i][j]:
                shift += alpha[i, j] * float(type_bias[int(types[i][j]) - 1])
        for cdim in range(d):
            v = float(x[i, cdim]) + shift
            for j in range(n):
                v += alpha[i, j] * msgs[j, cdim]
            out[i, cdim] = v if v > 0.0 else 0.0
    return out


def learned_edges_loop(v, w1, w2, n_keep) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear pair scores and the per-row top-n_keep off-diagonal edge
    set; ties keep the lower column index."""
    v = np.asarray(v)
    n = v.shape[0]
    p = mat_loop(v, w1)
    k = mat_loop(v, w2)
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            scores[i, j] = sum(p[i, b] * k[j, b] for b in range(p.shape[1]))
    adj = np.zeros((n, n), dtype=bool)
    keep = min(n_keep, n - 1)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        others.sort(key=lambda j: (-scores[i, j], j))
        for j in others[:keep]:
            adj[i, j] = True
    return scores, adj


def learned_edges_put_along(scores, valid, n_keep) -> np.ndarray:
    """graph.learn_adjacency's kept edges from its padded scores (B, n, n)
    and slot mask (B, n), scattered by rank with put_along_axis."""
    n = scores.shape[1]
    scored = valid[:, :, None] & valid[:, None, :]
    vals = np.where(scored, scores, -np.inf)
    vals[:, np.arange(n), np.arange(n)] = -np.inf
    order = np.argsort(-vals, axis=2, kind="stable")
    keep = np.minimum(n_keep, valid.sum(axis=1) - 1)
    kept = (np.arange(n) < keep[:, None, None]) & valid[:, :, None]
    adj = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(adj, order, np.broadcast_to(kept, adj.shape), axis=2)
    return adj


def one_graph(adjacency, edge_types=None):
    """One graph over its own node rows, from its (n, n) adjacency and
    optional edge types, as a batch of one."""
    from livlr.graph import GraphBatch
    from livlr.tensor import Slots

    adjacency = np.asarray(adjacency, dtype=bool)
    types = None if edge_types is None else np.asarray(edge_types)[None]
    return GraphBatch(Slots.of_counts([len(adjacency)]), adjacency[None], types)


def edgeless(n):
    """One graph over n node rows with no edges, as a batch: the layout a
    graph learner scores one graph's rows in."""
    return one_graph(np.zeros((n, n), dtype=bool))


def vanilla_gcn_loop(x, w, adj, normalize=True) -> np.ndarray:
    x = np.asarray(x)
    n, d = x.shape
    msgs = mat_loop(x, w)
    out = np.zeros((n, d))
    for i in range(n):
        deg = sum(1 for j in range(n) if adj[i][j])
        scale = 1.0 / deg if (normalize and deg > 0) else 1.0
        for cdim in range(d):
            v = float(x[i, cdim])
            for j in range(n):
                if adj[i][j]:
                    v += scale * msgs[j, cdim]
            out[i, cdim] = v if v > 0.0 else 0.0
    return out


def question_attention_loop(x, q, heads) -> np.ndarray:
    """heads: list of (w_q, w_k, w_v, w_o) arrays, each (d, dh)/(dh, dh).
    Returns (n, len(heads)*dh)."""
    x = np.asarray(x)
    q = np.asarray(q)
    n = x.shape[0]
    t_len = q.shape[0]
    outs = []
    for (w_q, w_k, w_v, w_o) in heads:
        dh = w_q.shape[1]
        scale = 1.0 / math.sqrt(dh)
        xq = mat_loop(x, w_q)
        qk = mat_loop(q, w_k)
        qv = mat_loop(q, w_v)
        head_out = np.zeros((n, dh))
        for i in range(n):
            scores = [
                scale * sum(xq[i, b] * qk[t, b] for b in range(dh)) for t in range(t_len)
            ]
            al = softmax_loop(scores)
            ctx = [sum(al[t] * qv[t, b] for t in range(t_len)) for b in range(dh)]
            for b in range(dh):
                head_out[i, b] = sum(ctx[a] * w_o[a, b] for a in range(dh))
        outs.append(head_out)
    return np.concatenate(outs, axis=1)


def mean_rows_loop(x) -> np.ndarray:
    x = np.asarray(x)
    n, d = x.shape
    return np.array([sum(float(x[i, c]) for i in range(n)) / n for c in range(d)])


def davl_loop(mats, q, qatt_heads, index_matrix, w1, w2, w_gcn, n_keep, normalize=True):
    """Full integration: per-source question attention, stack, per-source
    index scaling, learned adjacency, unweighted GCN, mean pool.

    mats: four (n_i, d) arrays; qatt_heads: four lists of head tuples;
    index_matrix: (4, d) or None to skip the scaling step.
    """
    attended = [
        question_attention_loop(m, q, heads) for m, heads in zip(mats, qatt_heads)
    ]
    nodes = np.concatenate(attended, axis=0)
    if index_matrix is not None:
        row = 0
        for s, m in enumerate(mats):
            for _ in range(np.asarray(m).shape[0]):
                nodes[row] = [nodes[row][c] * float(index_matrix[s][c]) for c in range(nodes.shape[1])]
                row += 1
    _, adj = learned_edges_loop(nodes, w1, w2, n_keep)
    nodes = vanilla_gcn_loop(nodes, w_gcn, adj, normalize=normalize)
    return mean_rows_loop(nodes)


def _sigmoid(v: float) -> float:
    """Scalar logistic function; exp of a non-positive number cannot
    overflow, so any finite v is fine."""
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def lstm_final_loop(seq, w_x, w_h, bias) -> np.ndarray:
    """Final hidden state of the recurrence, gates packed [i | f | o | g]."""
    seq = np.asarray(seq)
    hd = np.asarray(w_h).shape[0]
    h = [0.0] * hd
    c = [0.0] * hd
    for t in range(seq.shape[0]):
        z = [
            float(bias[g])
            + sum(float(seq[t, a]) * float(w_x[a][g]) for a in range(seq.shape[1]))
            + sum(h[a] * float(w_h[a][g]) for a in range(hd))
            for g in range(4 * hd)
        ]
        gi = [_sigmoid(z[g]) for g in range(hd)]
        gf = [_sigmoid(z[hd + g]) for g in range(hd)]
        go = [_sigmoid(z[2 * hd + g]) for g in range(hd)]
        gg = [math.tanh(z[3 * hd + g]) for g in range(hd)]
        c = [gf[g] * c[g] + gi[g] * gg[g] for g in range(hd)]
        h = [go[g] * math.tanh(c[g]) for g in range(hd)]
    return np.array(h)


def central_diff(f, x, h=1e-6) -> np.ndarray:
    """Gradient of scalar f with respect to array x by central differences.
    f must read x by reference (it is perturbed in place)."""
    x = np.asarray(x)
    g = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = float(f())
        flat_x[i] = orig - h
        down = float(f())
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# tape oracles

def question_attention_tape(block, x, q):
    """One source's multi-head question attention, head by head."""
    from livlr.tensor import concat, matmul, mul

    dh = block.heads[0].w_q.data.shape[1]
    scale = 1.0 / math.sqrt(dh)
    outs = []
    for head in block.heads:
        scores = matmul(matmul(x, head.w_q), transpose(matmul(q, head.w_k)))
        alpha = row_softmax(mul(scores, scale))
        outs.append(matmul(matmul(alpha, matmul(q, head.w_v)), head.w_o))
    return concat(outs, axis=1)


def question_attention_tapes(blocks, xs, q, pad=None):
    """davl.question_attention as one question_attention_tape per source,
    for one sample's question (a padding of one)."""
    from livlr.tensor import concat

    assert pad is None or pad.n == 1
    return concat([question_attention_tape(b, x, q) for b, x in zip(blocks, xs)], axis=0)


def _row(v):
    """A vector (d,) as a batch of one row (1, d)."""
    from livlr.tensor import reshape

    return reshape(v, (1, v.data.shape[0]))


def integrate_tape(params, bundle, q):
    """davl.integrate over one sample as it ran before the batch axis: one
    question_attention_tape per source, per-source mean pools and the GCN's
    aggregation as a matmul by the normalized adjacency; (d,)."""
    from livlr.davl import SOURCE_NAMES, BundleLayout, RiVariant, apply_index_embedding
    from livlr.graph import learn_adjacency
    from livlr.tensor import add, concat, constant, linear, matmul, relu, reshape

    attended = [
        question_attention_tape(params.qatt[name], x, q)
        for name, x in zip(SOURCE_NAMES, bundle.matrices())
    ]
    variant = params.variant
    if variant == RiVariant.RI_CONCAT:
        flat = concat([_row(mean_pool(a)) for a in attended], axis=1)
        fused = linear(flat, params.w_concat, params.b_concat)
        return reshape(fused, (fused.data.shape[1],))
    nodes = concat(attended, axis=0)
    n = nodes.data.shape[0]
    if variant == RiVariant.DAVL:
        counts = [m.data.shape[0] for m in bundle.matrices()]
        sources = BundleLayout(counts, [q.data.shape[0]]).sources
        nodes = apply_index_embedding(params.index_matrix, nodes, sources)
    if variant in (RiVariant.DAVL, RiVariant.RI_GCN):
        _, graph = learn_adjacency(params.learn_w1, params.learn_w2, nodes, params.n_keep, edgeless(n))
        a = graph.adjacency[0].astype(nodes.data.dtype)
        deg = a.sum(axis=1, keepdims=True)
        a = a / np.where(deg == 0.0, 1.0, deg)
        msgs = matmul(nodes, params.w_gcn)
        nodes = relu(add(nodes, matmul(constant(a, nodes.data.dtype), msgs)))
        return mean_pool(nodes)
    return mean_pool(co_attention_tape(params.learn_w1, params.learn_w2, nodes, edgeless(n)))


def co_attention_tape(w1, w2, nodes, graph):
    """davl.co_attention over one sample as the per-op tape it replaces."""
    from livlr.tensor import add, matmul

    n = nodes.data.shape[0]
    assert graph.slots.shape == (1, n)
    scores = matmul(matmul(nodes, w1), transpose(matmul(nodes, w2)))
    beta = row_softmax(scores, mask=~np.eye(n, dtype=bool))
    return add(nodes, matmul(beta, nodes))


def transpose(a):
    """The transpose of a 2-d tensor, as a copy."""
    from livlr.errors import ShapeError
    from livlr.tensor import Tensor, _record

    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got {a.data.shape}")
    return _record(Tensor(a.data.T.copy()), (a,), lambda g: (g.T,))


def row_softmax(x, mask=None, allow_empty=False):
    """Softmax along axis 1 of a 2-d tensor, restricted to the entries a
    boolean mask of its shape sets (all when None). Masked entries get
    probability 0 and receive no gradient. A fully masked row raises
    DegenerateRowError, or comes out all zero with allow_empty."""
    from livlr.errors import DegenerateRowError, ShapeError
    from livlr.tensor import Tensor, _record, as_tensor, masked_softmax

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


def sum_axis1(a):
    """Row sums of a 2-d tensor, kept as a column (m, 1)."""
    from livlr.errors import ShapeError
    from livlr.tensor import Tensor, _record, as_tensor

    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"sum_axis1 needs a 2-d tensor, got {a.data.shape}")
    out = Tensor(a.data.sum(axis=1, keepdims=True))
    n = a.data.shape[1]

    def bwd(g):
        return (np.repeat(g, n, axis=1),)

    return _record(out, (a,), bwd)


def add_column(a, col):
    """a (m, d) plus a column (m, 1) broadcast along each row, a form the
    tape's add does not take; backward sums each row for the column."""
    from livlr.errors import ShapeError
    from livlr.tensor import Tensor, _record

    if a.data.ndim != 2 or col.data.shape != (a.data.shape[0], 1):
        raise ShapeError(f"add_column needs (m, d) and (m, 1), got {a.data.shape} and {col.data.shape}")
    out = Tensor(a.data + col.data)
    return _record(out, (a, col), lambda g: (g, g.sum(axis=1, keepdims=True)))


def exp(a):
    from livlr.tensor import Tensor, _record

    e = np.exp(a.data)
    return _record(Tensor(e), (a,), lambda g: (g * e,))


def log(a):
    from livlr.tensor import Tensor, _record

    return _record(Tensor(np.log(a.data)), (a,), lambda g: (g / a.data,))


def mean_axis0(a):
    """Column means of a 2-d tensor: (n, d) -> (d,)."""
    from livlr.errors import ShapeError
    from livlr.tensor import Tensor, _record

    if a.data.ndim != 2:
        raise ShapeError(f"mean_axis0 needs a 2-d tensor, got {a.data.shape}")
    n = a.data.shape[0]
    out = Tensor(a.data.mean(axis=0))

    def bwd(g):
        return (np.broadcast_to(g / n, a.data.shape).astype(g.dtype, copy=True),)

    return _record(out, (a,), bwd)


def mean_pool(nodes, subset=None):
    """Mean of the selected node rows; subset=None pools every node."""
    from livlr.errors import ContractError
    from livlr.tensor import gather

    if subset is None:
        return mean_axis0(nodes)
    idx = np.asarray(subset, dtype=np.intp)
    if idx.size == 0:
        raise ContractError("mean_pool over an empty subset")
    return mean_axis0(gather(nodes, idx))


def _padded(nodes, graph):
    """The stacked node rows gathered into the layers' padded block
    (B * n_max, d); padding slots read an appended zero row."""
    from livlr.tensor import concat, constant, gather

    src = np.full(graph.slots.size, graph.n_rows)
    src[graph.row_pos] = np.arange(graph.n_rows)
    zero = constant(np.zeros((1, nodes.data.shape[1])), nodes.data.dtype)
    return gather(concat([nodes, zero], axis=0), src)


def _graph_rows(graph):
    """Each graph's rows of the padded block."""
    b, n = graph.slots.shape
    return [np.arange(i * n, (i + 1) * n) for i in range(b)]


def _attention_tape(params, nodes, graph, typed):
    from livlr.tensor import add, concat, gather, matmul, mul, relu, reshape

    p = _padded(nodes, graph)
    q, k = matmul(p, params.w_q), matmul(p, params.w_k)
    alphas = [
        row_softmax(matmul(gather(q, rows), transpose(gather(k, rows))),
                    mask=graph.adjacency[b], allow_empty=True)
        for b, rows in enumerate(_graph_rows(graph))
    ]
    msgs = matmul(p, params.w)
    agg = concat([matmul(a, gather(msgs, rows))
                  for a, rows in zip(alphas, _graph_rows(graph))], axis=0)
    pre = add(p, agg)
    if typed:
        b, n = graph.slots.shape
        idx = np.where(graph.adjacency, graph.edge_types - 1, 0).ravel()
        bias = reshape(gather(params.type_bias, idx), (b * n, n))
        shift = concat([sum_axis1(mul(a, gather(bias, rows)))
                        for a, rows in zip(alphas, _graph_rows(graph))], axis=0)
        pre = add_column(pre, shift)
    return gather(relu(pre), graph.row_pos)


def attn_gcn_layer_tape(params, nodes, graph):
    return _attention_tape(params, nodes, graph, typed=False)


def typed_edge_gcn_layer_tape(params, nodes, graph):
    return _attention_tape(params, nodes, graph, typed=True)


# ---------------------------------------------------------------------------
# per-item oracles: the encoders one frame, sentence, sequence and candidate
# at a time, each graph through the layers as a batch of one

def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function on a raw array by the two-branch formula.
    exp(-|x|) <= 1, so neither branch can overflow."""
    with np.errstate(over="ignore", under="ignore"):
        z = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def lstm_final_hidden(params, seq):
    """One direction over one sequence (T, d_in) from zero states, as one
    tape node; returns the final hidden state (1, h)."""
    from livlr.tensor import Tensor, _record, add, matmul

    t_len = seq.data.shape[0]
    h_dim = params.hidden
    pre = add(matmul(seq, params.w_x), params.bias)  # (T, 4h)
    w_h = params.w_h

    p = pre.data
    wh = w_h.data
    h = np.zeros(h_dim, dtype=p.dtype)
    c = np.zeros(h_dim, dtype=p.dtype)
    h_prev = np.zeros((t_len, h_dim), dtype=p.dtype)
    c_prev = np.zeros((t_len, h_dim), dtype=p.dtype)
    act = np.zeros((t_len, 4 * h_dim), dtype=p.dtype)  # i, f, o, g after squashing
    c_new = np.zeros((t_len, h_dim), dtype=p.dtype)
    for t in range(t_len):
        h_prev[t] = h
        c_prev[t] = c
        z = p[t] + h @ wh
        act[t, : 3 * h_dim] = stable_sigmoid(z[: 3 * h_dim])
        act[t, 3 * h_dim :] = np.tanh(z[3 * h_dim :])
        gi, gf, go, gg = np.split(act[t], 4)
        c = gf * c + gi * gg
        c_new[t] = c
        h = go * np.tanh(c)

    out = Tensor(h.reshape(1, h_dim).copy())

    def bwd(g):
        dh = g.reshape(h_dim).copy()
        dc = np.zeros(h_dim, dtype=p.dtype)
        dpre = np.zeros_like(p)
        dwh = np.zeros_like(wh)
        for t in range(t_len - 1, -1, -1):
            gi, gf, go, gg = np.split(act[t], 4)
            tc = np.tanh(c_new[t])
            d_o = dh * tc
            dc = dc + dh * go * (1.0 - tc * tc)
            dz = np.concatenate([
                dc * gg * gi * (1.0 - gi),
                dc * c_prev[t] * gf * (1.0 - gf),
                d_o * go * (1.0 - go),
                dc * gi * (1.0 - gg * gg),
            ])
            dpre[t] = dz
            dwh += np.outer(h_prev[t], dz)
            dh = wh @ dz
            dc = dc * gf
        return dpre, dwh

    return _record(out, (pre, w_h), bwd)


def bilstm_embed(params, seq):
    """One sequence (T, d_in) -> (d_out,): the forward pass's final state,
    then the reversed pass's."""
    from livlr.tensor import concat, gather, reshape

    t_len = seq.data.shape[0]
    h_f = lstm_final_hidden(params.fwd, seq)
    h_b = lstm_final_hidden(params.bwd, gather(seq, list(range(t_len - 1, -1, -1))))
    both = concat([h_f, h_b], axis=1)
    return reshape(both, (both.data.shape[1],))


def encode_sequence(params, tokens, rectify):
    """One token matrix -> (projected rows (T, d), summary (d,))."""
    from livlr.tensor import constant, linear, relu

    proj = linear(constant(tokens, params.dtype), params.w_tok, params.b_tok)
    if rectify:
        proj = relu(proj)
    return proj, bilstm_embed(params.lstm, proj)


def encode_question(params, tokens):
    return encode_sequence(params, tokens, rectify=True)


# one frame of a clip: appearance (d_a,), objects (n, d_o), class_attr
# (n, d_c) and boxes (n, 4)
Frame = namedtuple("Frame", "appearance objects class_attr boxes")


def clip_of(frames, frame_size=(320.0, 240.0)):
    """The ClipFeatures of a non-empty list of Frames, stacked in order."""
    from livlr.visual import ClipFeatures

    rows = lambda name: np.concatenate([getattr(f, name) for f in frames])
    return ClipFeatures(np.stack([f.appearance for f in frames]), rows("objects"),
                        rows("class_attr"), rows("boxes"), [len(f.boxes) for f in frames],
                        frame_size)


def frames_of(clip):
    """A clip's Frames, each its rows of the clip's arrays."""
    arrays = (clip.objects, clip.class_attr, clip.boxes)
    ends = np.cumsum(clip.n_objects)
    return [Frame(clip.appearance[f], *(a[end - n : end] for a in arrays))
            for f, (n, end) in enumerate(zip(clip.n_objects, ends))]


def encode_frame(params, frame, frame_size):
    """One frame's fine-grained vector (d,)."""
    from livlr.graph import attn_gcn_layer, learn_adjacency, typed_edge_gcn_layer
    from livlr.tensor import add, concat, constant, linear, matmul
    from livlr.visual import classify_spatial_edges, position_features

    dtype = params.dtype
    obj = linear(constant(frame.objects, dtype), params.w_obj, params.b_obj)
    positions = position_features(frame.boxes, frame_size)
    pos = linear(constant(positions, dtype), params.w_pos, params.b_pos)
    v_sp = matmul(concat([obj, pos], axis=1), params.w_spatial_mix)
    g_sp = one_graph(*classify_spatial_edges(frame.boxes, frame_size))
    v_sp = typed_edge_gcn_layer(params.spatial_gcn, v_sp, g_sp)
    cls = linear(constant(frame.class_attr, dtype), params.w_cls, params.b_cls)
    v_se = matmul(concat([obj, cls], axis=1), params.w_semantic_mix)
    _, g_se = learn_adjacency(params.learn_w1, params.learn_w2, v_se, params.n_keep, g_sp)
    v_se = attn_gcn_layer(params.semantic_gcn, v_se, g_se)
    return add(mean_pool(v_sp), mean_pool(v_se))


def encode_holistic(params, clip):
    """(N_f, d): one projected appearance row per frame."""
    from livlr.tensor import constant, linear

    app = constant(np.stack([f.appearance for f in frames_of(clip)]), params.dtype)
    return linear(app, params.w_hol, params.b_hol)


def encode_clip(params, clip):
    from livlr.tensor import concat, reshape

    rows = [reshape(encode_frame(params, f, clip.frame_size), (1, -1)) for f in frames_of(clip)]
    return encode_holistic(params, clip), concat(rows, axis=0)


def encode_sentence(params, tokens, parse):
    """One sentence -> (event vector (d,), pooled local vector (d,))."""
    from livlr.errors import DataError
    from livlr.graph import attn_gcn_layer
    from livlr.linguistic import build_role_graph
    from livlr.tensor import concat, constant, gather, matmul, mul, reshape

    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] != parse.tokens:
        raise DataError(f"token matrix {tokens.shape} does not match {parse.tokens} tokens")
    d = params.sentence.w_tok.data.shape[1]
    _, event = encode_sequence(params.sentence, tokens, rectify=False)
    adj, roles, spans = build_role_graph(parse)
    if any(r > params.n_roles for r in roles):
        raise DataError(f"role id {max(roles)} exceeds the role vocabulary ({params.n_roles})")
    nodes = reshape(event, (1, d))
    if roles:
        span_means = np.stack([tokens[lo : hi + 1].mean(axis=0) for lo, hi in spans])
        locals_ = matmul(constant(span_means, params.dtype), params.w_local)
        scale = gather(params.role_matrix, [r - 1 for r in roles])
        nodes = concat([nodes, mul(locals_, scale)], axis=0)
    nodes = attn_gcn_layer(params.role_gcn, nodes, one_graph(adj))
    if roles:
        pooled = mean_pool(nodes, subset=list(range(1, 1 + len(roles))))
    else:
        pooled = constant(np.zeros(d), params.dtype)
    return reshape(gather(nodes, [0]), (d,)), pooled


def encode_all(params, tokens, parses):
    """The sentences whose tokens are stacked in tokens, one parse each."""
    from livlr.errors import DataError
    from livlr.tensor import concat, reshape

    if not parses:
        raise DataError("need at least one sentence")
    tokens = np.asarray(tokens, dtype=np.float64)
    ends = np.cumsum([p.tokens for p in parses])
    if tokens.ndim != 2 or len(tokens) != ends[-1]:
        raise DataError(f"token matrix {tokens.shape} does not match {ends[-1]} tokens")
    pairs = [encode_sentence(params, tokens[end - p.tokens : end], p)
             for p, end in zip(parses, ends)]
    rows = lambda i: concat([reshape(pair[i], (1, -1)) for pair in pairs], axis=0)
    return rows(0), rows(1)


def encode_candidates(head, candidates):
    """One BiLSTM embedding (d,) per candidate, in a list."""
    return [encode_sequence(head.cand_encoder, c, rectify=True)[1] for c in candidates]


def score_candidates(head, x_hat, q_hat, embeddings):
    """One linear regression per candidate embedding, scores (N_k,)."""
    from livlr.tensor import concat, linear, reshape

    scores = [linear(concat([_row(x_hat), _row(q_hat), _row(e)], axis=1), head.w_score, head.b_score)
              for e in embeddings]
    return reshape(concat(scores, axis=0), (len(embeddings),))


def open_ended(head, x_hat, q_hat):
    """Answer-set logits (A,) of one sample from its (d,) vectors."""
    from livlr.tensor import concat, linear, relu, reshape

    hidden = relu(linear(concat([_row(x_hat), _row(q_hat)], axis=1), head.w1, head.b1))
    logits = linear(hidden, head.w2, head.b2)
    return reshape(logits, (logits.data.shape[1],))


def cross_entropy(logits, label):
    """-log softmax(logits)[label] of one sample, op by op."""
    from livlr.tensor import add, gather, mul, sum_all

    shifted = add(logits, -float(logits.data.max()))
    picked = gather(shifted, [label])
    return add(log(sum_all(exp(shifted))), mul(picked, -1.0))


def hinge_loss(scores, correct):
    """One sample's summed pairwise hinge, op by op."""
    from livlr.tensor import add, gather, mul, relu, sum_all

    pos = gather(scores, [correct])
    neg = gather(scores, [k for k in range(scores.data.shape[0]) if k != correct])
    return sum_all(relu(add(add(neg, mul(pos, -1.0)), 1.0)))


# ---------------------------------------------------------------------------
# the per-sample model: Model.forward as it ran before the sample-batch axis

def sample_forward(model, sample):
    """One sample's (loss, scores, encoder rows) through the per-item
    encoders above, integrate_tape and the heads one sample at a time."""
    from livlr.davl import RepresentationBundle
    from livlr.tensor import reshape

    x_vg, x_vl = encode_clip(model.visual, sample.clip)
    x_lg, x_ll = encode_all(model.linguistic, sample.tokens, sample.parses)
    q, q_hat = encode_question(model.question, sample.question)
    rows = (x_vg, x_vl, x_lg, x_ll, q, reshape(q_hat, (1, -1)))
    x_hat = integrate_tape(model.davl, RepresentationBundle(x_vg, x_vl, x_lg, x_ll), q)
    if model.oe_head is not None:
        logits = open_ended(model.oe_head, x_hat, q_hat)
        return cross_entropy(logits, sample.label), logits, rows
    head = model.mc_head
    scores = score_candidates(head, x_hat, q_hat, encode_candidates(head, sample.candidates))
    return hinge_loss(scores, sample.correct), scores, rows


def batch_forward(model, samples):
    """Model.batch_loss's mean loss as the sum of sample_forward losses
    times 1/n, and each sample's scores."""
    from livlr.tensor import add, mul

    total, scores = None, []
    for s in samples:
        loss, sc, _ = sample_forward(model, s)
        total = loss if total is None else add(total, loss)
        scores.append(sc)
    return mul(total, 1.0 / len(samples)), scores
