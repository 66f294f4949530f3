"""Sentence encoder: sequence embeddings plus semantic-role graphs.

Each sentence yields one event-level vector (a bidirectional LSTM summary
of its tokens) and one local vector (mean of its role-graph nodes after
message passing). The role graph has the sentence event as node 0,
one node per predicate, and one node per argument entry; arguments hang
off their predicate, predicates hang off the event node.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, GraphIntegrityError
from .graph import AttnGcnParams, DenseGraph, attn_gcn_layer, mean_pool
from .optim import ParamStore, make_param
from .rnn import SeqEncoderParams, create_seq_encoder, encode_sequence
from .tensor import (
    Tensor,
    concat,
    constant,
    index_rows,
    matmul,
    mul,
    reshape,
)

PREDICATE_ROLE = 1  # role id reserved for predicate nodes themselves


@dataclass
class SrlArgument:
    span: tuple[int, int]  # inclusive token range [lo, hi]
    role: int  # >= 2; 1 is reserved for predicates
    pred: int  # index into the parse's predicate list


@dataclass
class SrlParse:
    """Shallow semantic-role parse of one sentence."""

    tokens: int
    predicates: list[tuple[int, int]] = field(default_factory=list)
    arguments: list[SrlArgument] = field(default_factory=list)

    def __post_init__(self):
        if self.tokens < 1:
            raise DataError(f"parse needs at least one token, got {self.tokens}")
        for lo, hi in self.predicates:
            self._check_span(lo, hi, "predicate")
        for a in self.arguments:
            self._check_span(a.span[0], a.span[1], "argument")
            if a.role <= PREDICATE_ROLE:
                raise DataError(
                    f"argument role must be >= 2 (1 is the predicate role), got {a.role}"
                )
            if not (0 <= a.pred < len(self.predicates)):
                raise GraphIntegrityError(
                    f"argument points at predicate {a.pred} but the parse has "
                    f"{len(self.predicates)}"
                )

    def _check_span(self, lo: int, hi: int, kind: str):
        if not (0 <= lo <= hi < self.tokens):
            raise DataError(
                f"{kind} span [{lo}, {hi}] out of range for {self.tokens} tokens"
            )

    def to_dict(self) -> dict:
        return {
            "tokens": self.tokens,
            "predicates": [[lo, hi] for lo, hi in self.predicates],
            "arguments": [
                {"span": [a.span[0], a.span[1]], "role": a.role, "pred": a.pred}
                for a in self.arguments
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SrlParse":
        try:
            preds = [(int(lo), int(hi)) for lo, hi in d["predicates"]]
            args = [
                SrlArgument(
                    span=(int(a["span"][0]), int(a["span"][1])),
                    role=int(a["role"]),
                    pred=int(a["pred"]),
                )
                for a in d["arguments"]
            ]
            return cls(tokens=int(d["tokens"]), predicates=preds, arguments=args)
        except (
            KeyError, IndexError, TypeError, ValueError, OverflowError, GraphIntegrityError
        ) as e:
            raise DataError(f"malformed parse record: {e!r}") from e


def build_role_graph(parse: SrlParse) -> tuple[DenseGraph, list[int], list[tuple[int, int]]]:
    """Role graph plus, for each local node, its role id and token span.

    Node 0 is the event node; predicates follow in order, then argument
    entries in order. Every argument entry becomes its own node even when
    spans repeat. Edges are symmetric: event-predicate and
    predicate-argument only.
    """
    n_pred = len(parse.predicates)
    n = 1 + n_pred + len(parse.arguments)
    adj = np.zeros((n, n), dtype=bool)
    roles: list[int] = []
    spans: list[tuple[int, int]] = []
    for p, span in enumerate(parse.predicates):
        adj[0, 1 + p] = adj[1 + p, 0] = True
        roles.append(PREDICATE_ROLE)
        spans.append(span)
    for a_i, arg in enumerate(parse.arguments):
        node = 1 + n_pred + a_i
        parent = 1 + arg.pred
        adj[node, parent] = adj[parent, node] = True
        roles.append(arg.role)
        spans.append(arg.span)
    return DenseGraph(n, adj), roles, spans


@dataclass
class LinguisticEncoderParams:
    sentence: SeqEncoderParams  # token projection (no ReLU) + sentence BiLSTM
    w_local: Tensor  # span-mean projection, no bias
    role_matrix: Tensor  # (n_roles, d), multiplicative, ones at init
    role_gcn: AttnGcnParams

    @property
    def dtype(self):
        return self.sentence.dtype

    @property
    def n_roles(self) -> int:
        return self.role_matrix.data.shape[0]


def create_linguistic_params(
    store: ParamStore, rng, d: int, d_t: int, n_roles: int, dtype
) -> LinguisticEncoderParams:
    mk = lambda name, shape, **kw: make_param(store, f"linguistic.{name}", rng, shape, dtype, **kw)
    return LinguisticEncoderParams(
        sentence=create_seq_encoder(store, "linguistic", rng, d_t, d, dtype, lstm="sent_lstm"),
        w_local=mk("local_proj.w", (d_t, d)),
        role_matrix=mk("roles", (n_roles, d), init="ones"),
        role_gcn=AttnGcnParams(  # ".l0" names the graph's one layer
            w=mk("role_gcn.l0.w", (d, d)),
            w_q=mk("role_gcn.l0.w_q", (d, d)),
            w_k=mk("role_gcn.l0.w_k", (d, d)),
        ),
    )


def encode_sentence(
    params: LinguisticEncoderParams, tokens: np.ndarray, parse: SrlParse
) -> tuple[Tensor, Tensor]:
    """One sentence -> (event vector (d,), pooled local vector (d,)).

    Local nodes start from projected span means of the raw tokens, get
    scaled per-feature by their role's row of the role matrix, then mix
    with the event node through one role-graph layer. A parse with no
    predicates and no arguments pools to the zero vector.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] != parse.tokens:
        raise DataError(
            f"token matrix {tokens.shape} does not match parse over {parse.tokens} tokens"
        )
    d = params.sentence.w_tok.data.shape[1]
    _, event = encode_sequence(params.sentence, tokens, rectify=False)
    graph, roles, spans = build_role_graph(parse)
    if any(r > params.n_roles for r in roles):
        bad = max(roles)
        raise DataError(f"role id {bad} exceeds the role vocabulary ({params.n_roles})")

    n_local = len(roles)
    nodes = reshape(event, (1, d))
    if n_local:
        span_means = np.stack([tokens[lo : hi + 1].mean(axis=0) for lo, hi in spans])
        locals_ = matmul(constant(span_means, params.dtype), params.w_local)
        scale = index_rows(params.role_matrix, [r - 1 for r in roles])
        nodes = concat([nodes, mul(locals_, scale)], axis=0)
    nodes = attn_gcn_layer(params.role_gcn, nodes, graph)
    if n_local:
        pooled = mean_pool(nodes, subset=list(range(1, 1 + n_local)))
    else:
        pooled = constant(np.zeros(d), params.dtype)
    event_out = reshape(index_rows(nodes, [0]), (d,))
    return event_out, pooled


def encode_all(
    params: LinguisticEncoderParams,
    sentences: list[tuple[np.ndarray, SrlParse]],
) -> tuple[Tensor, Tensor]:
    """All sentences -> event rows (N_s, d) and local rows (N_s, d)."""
    if not sentences:
        raise DataError("need at least one sentence")
    d = params.sentence.w_tok.data.shape[1]
    ev_rows, loc_rows = [], []
    for tokens, parse in sentences:
        ev, loc = encode_sentence(params, tokens, parse)
        ev_rows.append(reshape(ev, (1, d)))
        loc_rows.append(reshape(loc, (1, d)))
    return concat(ev_rows, axis=0), concat(loc_rows, axis=0)
