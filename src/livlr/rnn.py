"""LSTM cell and the bidirectional sequence embedder.

Gate weights are packed (input, forget, output, cell) along the output
axis, so one matmul per sequence covers every gate pre-activation. The
recurrence itself is a single fused tape node: the forward loop runs on
raw arrays and the backward replays it in reverse (backprop through
time), keeping the tape cost per sequence constant rather than per step.
The bidirectional embedder runs one pass forward and one over the
reversed sequence, each with hidden width d/2, and concatenates the two
final hidden states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .optim import ParamStore, make_param
from .tensor import Tensor, _record, add, concat, index_rows, matmul, reshape, stable_sigmoid


@dataclass
class LstmParams:
    """One direction: w_x (in, 4h), w_h (h, 4h), bias (4h,).

    Column blocks of the packed axis are [input | forget | output | cell].
    """

    w_x: Tensor
    w_h: Tensor
    bias: Tensor

    @property
    def hidden(self) -> int:
        return self.w_h.data.shape[0]


@dataclass
class BiLstmParams:
    fwd: LstmParams
    bwd: LstmParams


def create_lstm_params(
    store: ParamStore, prefix: str, rng, d_in: int, d_hidden: int, dtype
) -> LstmParams:
    return LstmParams(
        w_x=make_param(store, f"{prefix}.w_x", rng, (d_in, 4 * d_hidden), dtype),
        w_h=make_param(store, f"{prefix}.w_h", rng, (d_hidden, 4 * d_hidden), dtype),
        bias=make_param(store, f"{prefix}.bias", rng, (4 * d_hidden,), dtype, init="zeros"),
    )


def create_bilstm_params(
    store: ParamStore, prefix: str, rng, d_in: int, d_out: int, dtype
) -> BiLstmParams:
    if d_out % 2 != 0:
        raise ShapeError(f"bidirectional output width must be even, got {d_out}")
    h = d_out // 2
    return BiLstmParams(
        fwd=create_lstm_params(store, f"{prefix}.fwd", rng, d_in, h, dtype),
        bwd=create_lstm_params(store, f"{prefix}.bwd", rng, d_in, h, dtype),
    )


def lstm_final_hidden(params: LstmParams, seq: Tensor) -> Tensor:
    """Run the cell over seq (T, d_in) from zero states; return the final
    hidden state as (1, h)."""
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
        gi = act[t, :h_dim]
        gf = act[t, h_dim : 2 * h_dim]
        go = act[t, 2 * h_dim : 3 * h_dim]
        gg = act[t, 3 * h_dim :]
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
            gi = act[t, :h_dim]
            gf = act[t, h_dim : 2 * h_dim]
            go = act[t, 2 * h_dim : 3 * h_dim]
            gg = act[t, 3 * h_dim :]
            tc = np.tanh(c_new[t])
            d_o = dh * tc
            dc = dc + dh * go * (1.0 - tc * tc)
            dz = np.empty(4 * h_dim, dtype=p.dtype)
            dz[:h_dim] = dc * gg * gi * (1.0 - gi)
            dz[h_dim : 2 * h_dim] = dc * c_prev[t] * gf * (1.0 - gf)
            dz[2 * h_dim : 3 * h_dim] = d_o * go * (1.0 - go)
            dz[3 * h_dim :] = dc * gi * (1.0 - gg * gg)
            dpre[t] = dz
            dwh += np.outer(h_prev[t], dz)
            dh = wh @ dz
            dc = dc * gf
        return dpre, dwh

    return _record(out, (pre, w_h), bwd)


def bilstm_embed(params: BiLstmParams, seq: Tensor) -> Tensor:
    """Sequence (T, d_in) -> fixed vector (d_out,): concat of the forward
    pass's final hidden state and the reversed pass's final hidden state."""
    t_len = seq.data.shape[0]
    h_f = lstm_final_hidden(params.fwd, seq)
    rev = index_rows(seq, list(range(t_len - 1, -1, -1)))
    h_b = lstm_final_hidden(params.bwd, rev)
    both = concat([h_f, h_b], axis=1)  # (1, d_out)
    return reshape(both, (both.data.shape[1],))
