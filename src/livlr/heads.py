"""Question encoder and the two answer heads.

Open-ended answering is a classifier over a fixed answer set; its loss is
cross entropy. Multiple-choice answering scores each candidate with a
linear regressor over [fused; question; candidate] and trains with a
summed pairwise hinge: every wrong candidate must trail the right one by
a margin of 1.

Each function takes a minibatch with its samples' rows stacked in order,
and each loss is one tape node that gives one loss per sample. The heads'
products run sample by sample (``grouped_matmul``), so a sample's scores
have the same bits in any batch whose samples share its candidate count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .optim import ParamStore, make_param
from .rnn import SeqEncoderParams, create_seq_encoder, encode_sequences
from .tensor import Tensor, _record, add, concat, gather, grouped_matmul, relu, reshape


@dataclass
class OpenEndedHead:
    w1: Tensor  # (2d, d_h)
    b1: Tensor
    w2: Tensor  # (d_h, answer_set_size)
    b2: Tensor


@dataclass
class MultiChoiceHead:
    cand_encoder: SeqEncoderParams  # the question encoder's architecture, own weights
    w_score: Tensor  # (3d, 1)
    b_score: Tensor


def create_open_ended_head(
    store: ParamStore, rng, d: int, d_h: int, n_answers: int, dtype
) -> OpenEndedHead:
    return OpenEndedHead(
        w1=make_param(store, "head.fc1.w", rng, (2 * d, d_h), dtype),
        b1=make_param(store, "head.fc1.b", rng, (d_h,), dtype, init="zeros"),
        w2=make_param(store, "head.fc2.w", rng, (d_h, n_answers), dtype),
        b2=make_param(store, "head.fc2.b", rng, (n_answers,), dtype, init="zeros"),
    )


def create_multichoice_head(
    store: ParamStore, rng, d: int, d_t: int, dtype
) -> MultiChoiceHead:
    return MultiChoiceHead(
        cand_encoder=create_seq_encoder(store, "head.cand", rng, d_t, d, dtype),
        w_score=make_param(store, "head.score.w", rng, (3 * d, 1), dtype),
        b_score=make_param(store, "head.score.b", rng, (1,), dtype, init="zeros"),
    )


def encode_question(params: SeqEncoderParams, questions: list) -> tuple[Tensor, Tensor]:
    """(Q, q_hat) of a list of questions, each (N_t, d_t): every question's
    token rows after a ReLU projection, stacked, and one BiLSTM summary per
    question (B, d), through one BiLSTM node."""
    return encode_sequences(
        params, np.concatenate(questions), [len(t) for t in questions], rectify=True)


def predict_open_ended(head: OpenEndedHead, x_hat: Tensor, q_hat: Tensor) -> Tensor:
    """Answer-set logits (B, A) from a batch's fused and question rows,
    each (B, d); each sample's row is multiplied on its own."""
    rows = [1] * x_hat.data.shape[0]
    joint = concat([x_hat, q_hat], axis=1)
    hidden = relu(add(grouped_matmul(joint, head.w1, rows), head.b1))
    return add(grouped_matmul(hidden, head.w2, rows), head.b2)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """-log softmax(logits)[label], stabilized by max subtraction, as one
    node: a scalar from logits (A,) and an int label, or one loss per row
    (B,) from logits (B, A) and B labels."""
    z = logits.data
    rows = z.reshape(-1, z.shape[-1])
    y = np.asarray(labels, dtype=np.intp).reshape(-1)
    n = rows.shape[1]
    if y.shape != rows.shape[:1] or ((y < 0) | (y >= n)).any():
        raise ContractError(f"labels {labels} out of range for {n} answers, or not one per row")
    pick = (np.arange(y.size), y)
    shifted = rows - rows.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1, keepdims=True)
    loss = np.log(s[:, 0]) - shifted[pick]

    def bwd(g):
        g = np.reshape(g, (-1, 1))
        dz = (g / s) * e
        dz[pick] -= g[:, 0]
        return (dz.reshape(z.shape),)

    return _record(Tensor(loss.reshape(z.shape[:-1])), (logits,), bwd)


def encode_candidates(head: MultiChoiceHead, sets: list) -> Tensor:
    """A list of candidate token matrices (N_k, n_tok, d_t), one per
    sample -> one BiLSTM embedding per candidate, (total N_k, d), through
    one ragged BiLSTM node."""
    for c in sets:
        if c.ndim != 3:
            raise ContractError(f"candidates must be (N_k, n_tok, d_t), got {c.shape}")
    rows = np.concatenate([c.reshape(-1, c.shape[2]) for c in sets],
                          dtype=head.cand_encoder.dtype)
    lengths = [c.shape[1] for c in sets for _ in range(c.shape[0])]
    return encode_sequences(head.cand_encoder, rows, lengths, rectify=True)[1]


def score_candidates(
    head: MultiChoiceHead, x_hat: Tensor, q_hat: Tensor, embeddings: Tensor, sizes
) -> Tensor:
    """Scores (total N_k,): one linear regression over the stacked rows
    [x_hat; q_hat; e_k] of every candidate embedding e_k. x_hat and q_hat
    are a batch's (B, d) rows, with sizes[b] candidates for sample b,
    stacked in sample order; each sample's rows are one product of their
    own."""
    n_k = embeddings.data.shape[0]
    shared = concat([x_hat, q_hat], axis=1)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    joint = concat([gather(shared, owner), embeddings], axis=1)  # (N_k, 3d)
    return reshape(add(grouped_matmul(joint, head.w_score, sizes), head.b_score), (n_k,))


def hinge_loss(scores: Tensor, correct, sizes) -> Tensor:
    """Sum over wrong candidates of max(0, 1 - (s_correct - s_wrong)), as
    one node. scores stack B samples' candidates, sizes[b] of them for
    sample b and correct[b] the right one among those; the result is one
    loss per sample (B,)."""
    s = scores.data
    sizes = np.asarray(sizes, dtype=np.intp)
    c = np.asarray(correct, dtype=np.intp).reshape(-1)
    if c.shape != sizes.shape or ((c < 0) | (c >= sizes)).any():
        raise ContractError(f"correct index {correct} out of range for {sizes.tolist()} candidates")
    if (sizes < 2).any():
        raise ContractError("need at least two candidates")
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(sizes.size), sizes)
    right = starts + c
    wrong = np.ones(s.shape, dtype=bool)
    wrong[right] = False
    pre = (s + s[right][owner] * -1.0) + 1.0
    live = wrong & (pre > 0)  # relu's subgradient at 0 is 0
    loss = np.add.reduceat(np.where(wrong, np.maximum(pre, 0.0), 0.0), starts)

    def bwd(g):
        gk = np.where(live, np.reshape(g, -1)[owner], 0.0)
        gk[right] = np.add.reduceat(gk, starts) * -1.0
        return (gk,)

    return _record(Tensor(loss), (scores,), bwd)
