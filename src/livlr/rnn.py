"""LSTM cell and the bidirectional sequence embedder.

Gate weights are packed (input, forget, output, cell) along the output
axis, so one matmul covers every gate pre-activation. The bidirectional
embedder runs one pass forward and one over the reversed sequence, each
with hidden width d/2, and concatenates the two final hidden states. It
takes a ragged batch of sequences and is a single fused tape node: the
forward loop steps every sequence and both directions at once on raw
arrays, and the backward replays it in reverse (backprop through time),
so the tape cost is constant rather than per step or per sequence.

A step costs numpy dispatch, not arithmetic, so it makes few calls: one
tanh squashes all four gates, with the sigmoid gates taken as
sigmoid(x) = tanh(x/2)/2 + 1/2, and a step where every sequence is live
skips the hold. Outside a recording scope the loop keeps no step's
states, so a prediction pays for none of the backward's bookkeeping. The
step indices depend only on the lengths, so they are built once per tuple
of lengths.

The sequence encoder, shared by sentences, questions and multiple-choice
candidates, projects tokens to width d and summarises them with that
embedder.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .optim import ParamStore, make_param
from .tensor import Tensor, _record, constant, is_recording, linear, relu


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


@dataclass
class SeqEncoderParams:
    """Token projection (d_t, d) plus a bidirectional LSTM of width d."""

    w_tok: Tensor
    b_tok: Tensor
    lstm: BiLstmParams

    @property
    def dtype(self):
        return self.w_tok.data.dtype


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


def create_seq_encoder(
    store: ParamStore, prefix: str, rng, d_t: int, d: int, dtype, lstm: str = "lstm"
) -> SeqEncoderParams:
    """Registers {prefix}.token_proj.w/.b, then {prefix}.{lstm}.*. These names
    and this order fix the checkpoint tensors and the RNG draws."""
    return SeqEncoderParams(
        w_tok=make_param(store, f"{prefix}.token_proj.w", rng, (d_t, d), dtype),
        b_tok=make_param(store, f"{prefix}.token_proj.b", rng, (d,), dtype, init="zeros"),
        lstm=create_bilstm_params(store, f"{prefix}.{lstm}", rng, d, d, dtype),
    )


@functools.lru_cache(maxsize=64)
def _steps(lengths: tuple):
    """(rows in all, active, rows, full): what bilstm_embed's steps read
    that depends only on the sequence lengths, built once per tuple of
    them. ``active`` (T, B) marks the sequences step t advances, ``rows``
    (T, 2, B) holds the row each direction reads at step t, forward then
    reversed (a held step reads row 0), and ``full[t]`` says whether every
    sequence is live at step t, so that it needs no hold. None unless
    there is a length and each is >= 1."""
    if not lengths or min(lengths) < 1:
        return None
    n = np.array(lengths, dtype=np.intp)
    starts = np.cumsum(n) - n
    step = np.arange(n.max())[:, None]
    active = step < n  # (T, B)
    rows = np.array([np.where(active, starts + step, 0),
                     np.where(active, starts + n - 1 - step, 0)])
    return int(n.sum()), active, rows.swapaxes(0, 1), active.all(axis=1).tolist()


def bilstm_embed(params: BiLstmParams, seq: Tensor, lengths) -> Tensor:
    """Ragged batch of sequences -> one fixed vector per sequence, (B, d_out).

    seq stacks the B sequences' rows in order, lengths[b] rows for sequence
    b. Row b of the output concatenates the forward pass's hidden state
    after sequence b's last row and the reversed pass's after its first.
    Step t advances every sequence longer than t; the others hold their
    state, so each one's final state is taken at its own length.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    x = seq.data
    steps = _steps(tuple(lengths.tolist())) if lengths.ndim == 1 else None
    if x.ndim != 2 or steps is None or steps[0] != x.shape[0]:
        raise ShapeError(f"sequence rows {x.shape} do not split into lengths {lengths.tolist()}")
    _, active, rows, full = steps
    fwd, rev = params.fwd, params.bwd
    hd = fwd.hidden
    t_max, n_seq = active.shape
    w_x = np.concatenate([fwd.w_x.data, rev.w_x.data], axis=1)  # (d_in, 8h)
    pre = x @ w_x
    pre += np.concatenate([fwd.bias.data, rev.bias.data])
    dt = pre.dtype
    # each step's inputs (T, 2, B, 4h) in one gather; pre is let go before
    # the steps run, as at a batch's size the two are the node's largest
    # arrays
    z_in = pre.reshape(-1, 2, 4 * hd)[rows, [[0], [1]]]
    del pre
    w_h = np.array([fwd.w_h.data, rev.w_h.data])  # (2, h, 4h)
    # sigmoid(x) = tanh(x/2)/2 + 1/2, so one tanh squashes all four gates:
    # the sigmoid gates' pre-activations are halved (exactly, by scaling
    # their columns) and their tanh is halved and shifted back
    half = np.ones(4 * hd, dtype=dt)
    half[: 3 * hd] = 0.5
    shift = 1.0 - half
    z_in *= half
    w_h_half = w_h * half

    h = np.zeros((2, n_seq, hd), dtype=dt)
    c = np.zeros((2, n_seq, hd), dtype=dt)
    # backward reads every step's (h_prev, c_prev, act, tanh_c), act being
    # the gates i, f, o, g after squashing; each step makes these arrays
    # anew, so keeping them is free, and outside a recording scope none is
    # kept
    history = [] if is_recording() else None
    gates = lambda a: (a[..., :hd], a[..., hd : 2 * hd], a[..., 2 * hd : 3 * hd], a[..., 3 * hd :])
    for t in range(t_max):
        act = np.tanh(z_in[t] + h @ w_h_half)
        act *= half
        act += shift
        gi, gf, go, gg = gates(act)
        c_t = gf * c + gi * gg
        tanh_c = np.tanh(c_t)
        if history is not None:
            history.append((h, c, act, tanh_c))
        if full[t]:
            h, c = go * tanh_c, c_t
        else:
            live = active[t][:, None]
            h, c = np.where(live, go * tanh_c, h), np.where(live, c_t, c)

    out = Tensor(np.concatenate([h[0], h[1]], axis=1))

    def bwd(g):
        h_prev, c_prev, act, tanh_c = (np.stack(a) for a in zip(*history))
        gi, gf, go, gg = gates(act)
        # each step's pre-activation gradient is [dc, dc, dh, dc] times these
        coef = np.concatenate([
            gg * gi * (1.0 - gi),
            c_prev * gf * (1.0 - gf),
            tanh_c * go * (1.0 - go),
            gi * (1.0 - gg * gg),
        ], axis=-1)
        dc_dh = go * (1.0 - tanh_c * tanh_c)
        w_h_t = w_h.transpose(0, 2, 1)
        dh = np.stack([g[:, :hd], g[:, hd:]])
        dc = np.zeros_like(dh)
        dz = np.zeros_like(act)
        for t in range(t_max - 1, -1, -1):
            dct = dc + dh * dc_dh[t]
            live = active[t][:, None]
            dz[t] = np.where(live, np.concatenate([dct, dct, dh, dct], axis=-1) * coef[t], 0.0)
            dh = np.where(live, dz[t] @ w_h_t, dh)
            dc = np.where(live, dct * gf[t], dc)
        # sum over steps and sequences at once: (2, h, T*B) @ (2, T*B, 4h)
        dwh = (h_prev.transpose(1, 3, 0, 2).reshape(2, hd, -1)
               @ dz.transpose(1, 0, 2, 3).reshape(2, -1, 4 * hd))
        dpre = np.zeros((x.shape[0], 8 * hd), dtype=dt)
        dpre[rows[:, 0][active], : 4 * hd] = dz[:, 0][active]
        dpre[rows[:, 1][active], 4 * hd :] = dz[:, 1][active]
        g_wx = x.T @ dpre
        g_b = dpre.sum(axis=0)
        return (dpre @ w_x.T,
                g_wx[:, : 4 * hd], dwh[0], g_b[: 4 * hd],
                g_wx[:, 4 * hd :], dwh[1], g_b[4 * hd :])

    inputs = (seq, fwd.w_x, fwd.w_h, fwd.bias, rev.w_x, rev.w_h, rev.bias)
    return _record(out, inputs, bwd)


def encode_sequences(
    params: SeqEncoderParams, tokens: np.ndarray, lengths, rectify: bool
) -> tuple[Tensor, Tensor]:
    """Stacked token rows (sum(lengths), d_t) of a ragged batch ->
    (projected rows (sum(lengths), d), BiLSTM summaries (B, d)). rectify
    puts a ReLU on the projection (questions and candidates do, sentences
    do not)."""
    proj = linear(constant(tokens, params.dtype), params.w_tok, params.b_tok)
    if rectify:
        proj = relu(proj)
    return proj, bilstm_embed(params.lstm, proj, lengths)
