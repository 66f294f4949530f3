"""Sentence encoder: sequence embeddings plus semantic-role graphs.

Each sentence yields one event-level vector (a bidirectional LSTM summary
of its tokens) and one local vector (mean of its role-graph nodes after
message passing). The role graph has the sentence event as node 0,
one node per predicate, and one node per argument entry; arguments hang
off their predicate, predicates hang off the event node. All sentences of
a minibatch are encoded at once: one ragged BiLSTM node, one role-graph
layer over every sentence's graph and one pool over those graphs' local
slots (``graph.pool``), one product per sentence. What the encoder
needs of the sentences besides their tokens is a ``SentenceLayout``, a
pure function of the data that ``Sample.sentence_layout()`` keeps.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, GraphIntegrityError
from .graph import (
    AttnGcnParams,
    GraphBatch,
    attn_gcn_layer,
    mean_weights,
    pad_blocks,
    pool,
    run_stage,
)
from .optim import ParamStore, make_param
from .rnn import SeqEncoderParams, create_seq_encoder, encode_sequences
from .tensor import Tensor, concat, constant, gather, matmul, mul

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
        def span(pair):
            lo, hi = pair
            return int(lo), int(hi)

        try:
            preds = [span(p) for p in d["predicates"]]
            args = [
                SrlArgument(span=span(a["span"]), role=int(a["role"]), pred=int(a["pred"]))
                for a in d["arguments"]
            ]
            return cls(tokens=int(d["tokens"]), predicates=preds, arguments=args)
        except (
            KeyError, IndexError, TypeError, ValueError, OverflowError, GraphIntegrityError
        ) as e:
            raise DataError(f"malformed parse record: {e!r}") from e


def build_role_graph(parse: SrlParse) -> tuple[np.ndarray, list[int], list[tuple[int, int]]]:
    """The role graph's adjacency matrix (n, n) plus, for each local node,
    its role id and token span.

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
    return adj, roles, spans


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


@dataclass
class SentenceLayout:
    """Sentences as the encoder stacks them, from the data alone: their
    token matrices (the sentences' own arrays, not copies) and their role
    graphs as one batch over the node rows [every event; every local
    node], sentence by sentence within each block, each graph's event
    first (``_role_graphs``). Per local node: its role id and its token span
    (inclusive rows of the stacked tokens)."""

    tokens: list[np.ndarray]
    graphs: GraphBatch
    roles: np.ndarray
    spans: np.ndarray

    @property
    def n_sentences(self) -> int:
        return len(self.tokens)

    @staticmethod
    def join(layouts: list["SentenceLayout"]) -> "SentenceLayout":
        """Several layouts as one, in order: their tokens, role graphs'
        blocks, local-node counts, roles and spans concatenated. One layout
        is itself."""
        if len(layouts) == 1:
            return layouts[0]
        n_tok = [sum(len(x) for x in t.tokens) for t in layouts]
        return SentenceLayout(
            [t for text in layouts for t in text.tokens],
            _role_graphs(np.concatenate([t.graphs.counts for t in layouts]) - 1,
                        pad_blocks([t.graphs.adjacency for t in layouts])),
            np.concatenate([t.roles for t in layouts]),
            np.concatenate([t.spans + lo for t, lo in zip(layouts, np.cumsum(n_tok) - n_tok)]),
        )


def _role_graphs(n_local, adjacency: np.ndarray) -> GraphBatch:
    """Role graphs over the node rows [every event; every local node], from
    each sentence's local-node count and the graphs' padded adjacency
    blocks: graph b's slot 0 holds event row b, and its slots 1..n_local[b]
    its local nodes, which follow those of the graphs before it."""
    n_local = np.asarray(n_local, dtype=np.intp)
    n_s = n_local.size
    slot = np.arange(1 + n_local.max())
    first = n_s + np.cumsum(n_local) - n_local - 1  # the row of slot i is first + i
    slots = np.where(slot <= n_local[:, None], first[:, None] + slot, -1)
    slots[:, 0] = np.arange(n_s)
    return GraphBatch(slots, adjacency)


def sentence_layout(sentences: list[tuple[np.ndarray, SrlParse]]) -> SentenceLayout:
    if not sentences:
        raise DataError("need at least one sentence")
    tokens, adjacency, roles, spans = [], [], [], []
    start = 0
    for toks, parse in sentences:
        toks = np.asarray(toks, dtype=np.float64)
        if toks.ndim != 2 or toks.shape[0] != parse.tokens:
            raise DataError(
                f"token matrix {toks.shape} does not match parse over {parse.tokens} tokens"
            )
        adj, r, sp = build_role_graph(parse)
        tokens.append(toks)
        adjacency.append(adj)
        roles += r
        spans += [(start + lo, start + hi) for lo, hi in sp]
        start += parse.tokens
    if len({t.shape[1] for t in tokens}) > 1:
        raise DataError(f"a sample's sentences differ in token width: {[t.shape for t in tokens]}")
    return SentenceLayout(
        tokens,
        _role_graphs([len(a) - 1 for a in adjacency], pad_blocks(adjacency)),
        np.asarray(roles, dtype=np.intp),
        np.array(spans, dtype=np.intp).reshape(-1, 2),
    )


def encode_all(
    params: LinguisticEncoderParams, texts: list[SentenceLayout], run=run_stage
) -> tuple[Tensor, Tensor]:
    """The sentences of a list of ``SentenceLayout``s, joined in order ->
    event rows (N_s, d) and pooled local rows (N_s, d).

    Two stages go through the stage hook run(name, fn). In
    "linguistic.sentence" every sentence's tokens go through one ragged
    BiLSTM node, which gives the event nodes. In "linguistic.role_graph"
    local nodes start from projected span means of the raw tokens, get
    scaled per-feature by their role's row of the role matrix, then mix
    with their sentence's event node through one role-graph layer over
    every sentence's graph. A parse with no predicates and no arguments
    pools to the zero vector. What depends only on the sentences (the
    joined layout, the stacked tokens, the span means, the pooling
    weights) is built once per call, when a stage first reads it, so
    calling a stage's fn again reruns only its products with weights.
    """

    @functools.cache
    def data():
        text = SentenceLayout.join(texts)
        d_t = params.sentence.w_tok.data.shape[0]
        widths = {t.shape[1] for t in text.tokens}
        if widths != {d_t}:
            raise DataError(f"token widths {sorted(widths)} do not match d_t={d_t}")
        if text.roles.size and text.roles.max() > params.n_roles:
            raise DataError(
                f"role id {text.roles.max()} exceeds the role vocabulary ({params.n_roles})")
        tokens = np.concatenate(text.tokens)
        # each local node's mean of its span of raw tokens: every span's sum
        # is one reduceat over [lo, hi + 1) row pairs, after a zero row
        lo, hi = text.spans.T
        ends = np.stack([lo, hi + 1], axis=1).ravel()
        sums = np.add.reduceat(np.vstack([tokens, np.zeros_like(tokens[:1])]), ends, axis=0)[::2]
        local_slots = text.graphs.valid.copy()
        local_slots[:, 0] = False  # slot 0 holds the sentence's event node
        return (text, tokens, constant(sums / (hi - lo + 1)[:, None], params.dtype),
                mean_weights(local_slots))

    def sentence():
        text, tokens, _, _ = data()
        return encode_sequences(
            params.sentence, tokens, [len(t) for t in text.tokens], rectify=False)[1]

    events = run("linguistic.sentence", sentence)

    def role_graph():
        text, _, means, local_mean = data()
        locals_ = matmul(means, params.w_local)
        scale = gather(params.role_matrix, text.roles - 1)
        # rows: every sentence's event, then every sentence's local nodes
        nodes = concat([events, mul(locals_, scale)], axis=0)
        nodes = attn_gcn_layer(params.role_gcn, nodes, text.graphs)
        return gather(nodes, np.arange(text.n_sentences)), pool(local_mean, nodes, text.graphs)

    return run("linguistic.role_graph", role_graph)
