"""Independent oracles for the numeric kernels.

The loop oracles recompute a layer with explicit index loops and plain
scalar math, sharing no code with the package (numpy is used only as an
array container). Tests compare the real implementations against these
on random instances.

The tape oracles at the end are the straight compositions of primitive
tape ops (one node per matmul, transpose, softmax, ...) that the fused
attention nodes replace. They record the same arithmetic in the same
order, so a fused node must match them bit for bit, gradients included.
"""
from __future__ import annotations

import math

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
        gi = [1.0 / (1.0 + math.exp(-z[g])) for g in range(hd)]
        gf = [1.0 / (1.0 + math.exp(-z[hd + g])) for g in range(hd)]
        go = [1.0 / (1.0 + math.exp(-z[2 * hd + g])) for g in range(hd)]
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
    from livlr.tensor import concat, matmul, mul, row_softmax, transpose

    dh = block.heads[0].w_q.data.shape[1]
    scale = 1.0 / math.sqrt(dh)
    outs = []
    for head in block.heads:
        scores = matmul(matmul(x, head.w_q), transpose(matmul(q, head.w_k)))
        alpha = row_softmax(mul(scores, scale))
        outs.append(matmul(matmul(alpha, matmul(q, head.w_v)), head.w_o))
    return concat(outs, axis=1)


def integrate_tape(params, bundle, q):
    """davl.integrate with one question_attention_tape per source."""
    from livlr.davl import SOURCE_NAMES, RiVariant, apply_index_embedding
    from livlr.graph import learn_adjacency, mean_pool, vanilla_gcn_layer
    from livlr.tensor import add, concat, linear, matmul, row_softmax, transpose

    attended = [
        question_attention_tape(params.qatt[name], x, q)
        for name, x in zip(SOURCE_NAMES, bundle.matrices())
    ]
    variant = params.variant
    if variant == RiVariant.RI_CONCAT:
        flat = concat([mean_pool(a) for a in attended], axis=0)
        return linear(flat, params.w_concat, params.b_concat)
    nodes = concat(attended, axis=0)
    if variant == RiVariant.DAVL:
        nodes = apply_index_embedding(params.index_matrix, nodes, bundle.sources())
    if variant in (RiVariant.DAVL, RiVariant.RI_GCN):
        _, graph = learn_adjacency(params.learn_w1, params.learn_w2, nodes, params.n_keep)
        if params.attn_gcn is not None:
            nodes = attn_gcn_layer_tape(params.attn_gcn, nodes, graph)
        else:
            nodes = vanilla_gcn_layer(params.w_gcn, nodes, graph, normalize=params.normalize)
        return mean_pool(nodes)
    n = nodes.data.shape[0]
    scores = matmul(matmul(nodes, params.learn_w1), transpose(matmul(nodes, params.learn_w2)))
    beta = row_softmax(scores, mask=~np.eye(n, dtype=bool))
    return mean_pool(add(nodes, matmul(beta, nodes)))


def attention_coefficients_tape(params, nodes, graph):
    from livlr.tensor import matmul, row_softmax, transpose

    scores = matmul(matmul(nodes, params.w_q), transpose(matmul(nodes, params.w_k)))
    return row_softmax(scores, mask=graph.adjacency, allow_empty=True)


def attn_gcn_layer_tape(params, nodes, graph):
    from livlr.tensor import add, matmul, relu

    alpha = attention_coefficients_tape(params, nodes, graph)
    return relu(add(nodes, matmul(alpha, matmul(nodes, params.w))))


def typed_edge_gcn_layer_tape(params, nodes, graph):
    from livlr.tensor import add, matmul, mul, relu, reshape, sum_axis1, take

    alpha = attention_coefficients_tape(params, nodes, graph)
    agg = matmul(alpha, matmul(nodes, params.w))
    idx = np.where(graph.adjacency, graph.edge_types - 1, 0).ravel()
    bias_mat = reshape(take(params.type_bias, idx), graph.adjacency.shape)
    shift = sum_axis1(mul(alpha, bias_mat))
    return relu(add(add(nodes, agg), shift))
