"""Question encoder and the two answer heads.

Open-ended answering is a classifier over a fixed answer set; its loss is
cross entropy. Multiple-choice answering scores each candidate with a
linear regressor over [fused; question; candidate] and trains with a
summed pairwise hinge: every wrong candidate must trail the right one by
a margin of 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .optim import ParamStore, make_param
from .rnn import SeqEncoderParams, create_seq_encoder, encode_sequences
from .tensor import (
    Tensor,
    add,
    concat,
    exp,
    gather,
    linear,
    log,
    mul,
    relu,
    reshape,
    sum_all,
)


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


def encode_question(params: SeqEncoderParams, tokens: np.ndarray) -> tuple[Tensor, Tensor]:
    """(Q, q_hat): token-level rows (N_t, d) after a ReLU projection, and
    the BiLSTM summary (d,) over those rows."""
    rows, summary = encode_sequences(params, tokens, [len(tokens)], rectify=True)
    return rows, reshape(summary, (summary.data.shape[1],))


def predict_open_ended(head: OpenEndedHead, x_hat: Tensor, q_hat: Tensor) -> Tensor:
    """Answer-set logits from the fused and question vectors."""
    joint = concat([x_hat, q_hat], axis=0)
    hidden = relu(linear(joint, head.w1, head.b1))
    return linear(hidden, head.w2, head.b2)


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label], stabilized by max subtraction."""
    n = logits.data.shape[0]
    if not (0 <= label < n):
        raise ContractError(f"label {label} out of range for {n} answers")
    m = float(logits.data.max())
    shifted = add(logits, -m)
    lse = log(sum_all(exp(shifted)))  # log-sum-exp of the shifted logits
    picked = gather(shifted, [label])  # (1,), added to the 0-d lse as one element
    return add(lse, mul(picked, -1.0))


def encode_candidates(head: MultiChoiceHead, candidates: np.ndarray) -> Tensor:
    """Candidate token matrices (N_k, n_tok, d_t) -> one BiLSTM embedding
    per candidate, (N_k, d), through one ragged BiLSTM node."""
    if candidates.ndim != 3:
        raise ContractError(
            f"candidates must be (N_k, n_tok, d_t), got {candidates.shape}"
        )
    n_k, n_tok, d_t = candidates.shape
    rows = candidates.reshape(n_k * n_tok, d_t)
    return encode_sequences(head.cand_encoder, rows, [n_tok] * n_k, rectify=True)[1]


def score_candidates(
    head: MultiChoiceHead, x_hat: Tensor, q_hat: Tensor, embeddings: Tensor
) -> Tensor:
    """Scores (N_k,): one linear regression over the stacked rows
    [x_hat; q_hat; e_k] of every candidate embedding e_k."""
    n_k = embeddings.data.shape[0]
    shared = concat([x_hat, q_hat], axis=0)
    shared = gather(reshape(shared, (1, shared.data.shape[0])), np.zeros(n_k, dtype=np.intp))
    joint = concat([shared, embeddings], axis=1)  # (N_k, 3d)
    return reshape(linear(joint, head.w_score, head.b_score), (n_k,))


def hinge_loss(scores: Tensor, correct: int) -> Tensor:
    """Sum over wrong candidates of max(0, 1 - (s_correct - s_wrong))."""
    n = scores.data.shape[0]
    if not (0 <= correct < n):
        raise ContractError(f"correct index {correct} out of range for {n} candidates")
    if n < 2:
        raise ContractError("need at least two candidates")
    pos = gather(scores, [correct])  # (1,)
    neg_idx = [k for k in range(n) if k != correct]
    neg = gather(scores, neg_idx)
    margins = relu(add(add(neg, mul(pos, -1.0)), 1.0))
    return sum_all(margins)
