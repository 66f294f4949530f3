"""The batched model against the per-sample oracle.

Every frame, sentence, question and candidate of a batch goes through one
node per layer. ``oracles.py`` keeps the model as it ran before, one
sample, frame, sentence, sequence and candidate at a time. In double
precision the batched model must reproduce its loss, outputs and every
parameter gradient to within 1e-12 of each tensor's largest entry, on
ragged samples and batches drawn by hypothesis. Malformed inputs must
raise the same error types as before.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from livlr.config import tiny_config
from livlr.data import Sample
from livlr.errors import DataError, NumericError
from livlr.graph import GraphBatch, learn_adjacency
from livlr.linguistic import SrlArgument, SrlParse, encode_all, sentence_layout
from livlr.model import Model
from livlr.tensor import Tensor, backward, constant, recording
from livlr.visual import ClipFeatures, encode_clip

TOL = 1e-12
FRAME = (320.0, 240.0)


def rel_err(got, want) -> float:
    """Largest difference relative to the tensor's largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.abs(want).max(initial=0.0)
    diff = np.abs(got - want).max(initial=0.0)
    return diff if scale == 0.0 else diff / scale


def random_frame(rng, n_obj, cfg):
    xy = rng.uniform(0, 200, (n_obj, 2))
    wh = rng.uniform(5, 40, (n_obj, 2))
    return oracles.Frame(
        appearance=rng.standard_normal(cfg.d_a),
        objects=rng.standard_normal((n_obj, cfg.d_o)),
        class_attr=rng.standard_normal((n_obj, cfg.d_c)),
        boxes=np.hstack([xy, wh]),
    )


def random_parse(rng, n_tok, n_roles):
    def span():
        lo = int(rng.integers(0, n_tok))
        return lo, int(rng.integers(lo, n_tok))

    preds = [span() for _ in range(int(rng.integers(0, 3)))]
    args = []
    if preds:
        args = [SrlArgument(span=span(), role=int(rng.integers(2, n_roles + 1)),
                            pred=int(rng.integers(0, len(preds))))
                for _ in range(int(rng.integers(0, 4)))]
    return SrlParse(tokens=n_tok, predicates=preds, arguments=args)


def insert_one(draw, sizes, value):
    sizes.insert(draw(st.integers(0, len(sizes))), value)
    return sizes


@st.composite
def ragged_samples(draw):
    """A tiny-config sample with 1-6 objects per frame (one frame has a
    single object, so its semantic graph has no edges), sentences of 1-6
    tokens (one parse has no predicates and pools to zero) and 2-5
    candidates."""
    cfg = tiny_config()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objects = insert_one(draw, draw(st.lists(st.integers(1, 6), min_size=0, max_size=3)), 1)
    tokens = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    empty = draw(st.integers(0, len(tokens)))
    sentences = []
    for i, n_tok in enumerate(tokens + [draw(st.integers(1, 6))]):
        parse = SrlParse(tokens=n_tok) if i == empty else random_parse(rng, n_tok, cfg.N_r)
        sentences.append((rng.standard_normal((n_tok, cfg.d_t)), parse))
    n_k = draw(st.integers(2, 5))
    return Sample(
        clip=oracles.clip_of([random_frame(rng, n, cfg) for n in objects]),
        tokens=np.concatenate([t for t, _ in sentences]),
        parses=[p for _, p in sentences],
        question=rng.standard_normal((int(rng.integers(1, 6)), cfg.d_t)),
        label=int(rng.integers(0, cfg.answer_set_size)),
        candidates=rng.standard_normal((n_k, int(rng.integers(1, 6)), cfg.d_t)),
        correct=int(rng.integers(0, n_k)),
    )


def run(model, sample):
    """Loss, outputs, encoder rows and every gradient of one recorded pass."""
    model.store.zero_grads()
    with recording():
        enc = model.encode(sample)
        loss, scores = model.answer(sample, enc)
        rows = [t.data.copy() for t in (*enc.visual, *enc.linguistic, *enc.question)]
        backward(loss)
    grads = {n: p.grad.copy() for n, p in model.store.items()}
    return float(loss.data), scores.data.copy(), rows, grads


def oracle_run(model, sample):
    model.store.zero_grads()
    with recording():
        loss, scores, rows = oracles.sample_forward(model, sample)
        rows = [t.data.copy() for t in rows]
        backward(loss)
    grads = {n: p.grad.copy() for n, p in model.store.items()}
    return float(loss.data), scores.data.copy(), rows, grads


def assert_grads_match(setting, got, want):
    # under MC the pairwise hinge cancels whatever adds the same amount to
    # every candidate's score (ROADMAP item 2): nothing before the head,
    # the score bias and the x_hat/q_hat rows of the score weights have a
    # true gradient, and both paths leave only rounding residue there,
    # such as -3w + 3w, which each path rounds its own way
    largest = max(np.abs(g).max() for g in want.values())
    for name, grad in want.items():
        g, w = got[name], grad
        if setting == "MC" and not name.startswith("head.cand."):
            if name == "head.score.w":  # its candidate rows do have one
                shared = 2 * w.shape[0] // 3
                assert rel_err(g[shared:], w[shared:]) <= TOL, name
                g, w = g[:shared], w[:shared]
            assert max(np.abs(w).max(), np.abs(g).max()) <= TOL * largest, name
        else:
            assert rel_err(g, w) <= TOL, name


@pytest.mark.parametrize("setting", ["OE", "MC"])
@settings(max_examples=40, deadline=None)
@given(sample=ragged_samples(), keep=st.integers(1, 5))
def test_batched_model_matches_per_item_oracles(setting, sample, keep):
    model = Model(tiny_config(question_setting=setting, N_n=keep))
    batched = run(model, sample)
    per_item = oracle_run(model, sample)
    assert rel_err(batched[0], per_item[0]) <= TOL
    assert rel_err(batched[1], per_item[1]) <= TOL
    for got, want in zip(batched[2], per_item[2]):
        assert got.shape == want.shape and rel_err(got, want) <= TOL
    assert_grads_match(setting, batched[3], per_item[3])
    # the sentence whose parse is empty pools to exactly zero
    empty = [i for i, p in enumerate(sample.parses) if not p.predicates]
    assert not batched[2][3][empty].any()


@pytest.mark.parametrize("variant", ["DAVL", "RI_GCN", "RI_AT", "RI_CONCAT"])
@pytest.mark.parametrize("setting", ["OE", "MC"])
@settings(max_examples=15, deadline=None)
@given(samples=st.lists(ragged_samples(), min_size=1, max_size=5), keep=st.integers(1, 5))
def test_batch_loss_matches_the_per_sample_oracle(setting, variant, samples, keep):
    # one node per layer over the whole ragged batch: the block masks keep
    # each sample's rows on its own question, graph and candidates
    model = Model(tiny_config(question_setting=setting, ri_variant=variant, N_n=keep))
    model.store.zero_grads()
    with recording():
        mean, losses, hits = model.batch_loss(samples)
        enc = model.encode(samples)
        _, scores = model.answer(samples, enc)
        backward(mean)
    batched = {n: p.grad.copy() for n, p in model.store.items()}
    model.store.zero_grads()
    with recording():
        want, want_scores = oracles.batch_forward(model, samples)
        backward(want)
    assert rel_err(float(mean.data), float(want.data)) <= TOL
    per_sample = np.split(scores.data, np.cumsum([len(s.candidates) for s in samples])[:-1]) \
        if setting == "MC" else list(scores.data)
    for got, w in zip(per_sample, want_scores):
        assert got.shape == w.data.shape and rel_err(got, w.data) <= TOL
    targets = [s.label if setting == "OE" else s.correct for s in samples]
    assert hits == sum(int(np.argmax(w.data)) == t for w, t in zip(want_scores, targets))
    assert_grads_match(setting, batched, {n: p.grad.copy() for n, p in model.store.items()})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 7), min_size=1, max_size=5),
       keep=st.integers(1, 6))
def test_batched_graph_learner_keeps_each_frames_top_edges(seed, sizes, keep):
    # small integers tie often and multiply exactly, so the scores of the
    # batched and the per-frame path are equal and every tie must break
    # the same way: towards the lower column index
    rng = np.random.default_rng(seed)
    d = 2
    w1 = Tensor(rng.integers(-1, 2, (d, d)).astype(float), requires_grad=True)
    w2 = Tensor(rng.integers(-1, 2, (d, d)).astype(float), requires_grad=True)
    v = rng.integers(-1, 2, (sum(sizes), d)).astype(float)
    starts = np.cumsum(sizes) - sizes
    slots = np.full((len(sizes), max(sizes)), -1)
    for b, (lo, n) in enumerate(zip(starts, sizes)):
        slots[b, :n] = np.arange(lo, lo + n)
    layout = GraphBatch(slots, np.zeros(slots.shape + slots.shape[1:], dtype=bool))
    scores, graph = learn_adjacency(w1, w2, constant(v, np.float64), keep, layout)
    assert not graph.adjacency[~layout.valid].any()
    assert not graph.adjacency.transpose(0, 2, 1)[~layout.valid].any()
    for b, (lo, n) in enumerate(zip(starts, sizes)):
        want_scores, want_adj = oracles.learned_edges_loop(v[lo : lo + n], w1.data, w2.data, keep)
        assert np.array_equal(scores.data[b, :n, :n], want_scores)
        assert np.array_equal(graph.adjacency[b, :n, :n], want_adj)
        assert (want_adj.sum(axis=1) == min(keep, n - 1)).all()


def test_graph_learner_checks_only_the_entries_a_frame_scores():
    # score(i, j) = x_i * y_j: frame 0 has only x, frame 1 only y, so just
    # the cross-frame pairs, which no frame scores, overflow
    w1 = Tensor(np.array([[0.0, 1.0], [0.0, 0.0]]), requires_grad=True)
    w2 = Tensor(np.eye(2), requires_grad=True)
    v = np.array([[1e200, 0.0], [2e200, 0.0], [0.0, 1e200], [0.0, 3e200]])
    layout = GraphBatch([[0, 1], [2, 3]], np.zeros((2, 2, 2), dtype=bool))
    scores, _ = learn_adjacency(w1, w2, constant(v, np.float64), 1, layout)
    assert np.isfinite(scores.data).all()
    with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
        learn_adjacency(w1, w2, constant(v, np.float64), 1, oracles.edgeless(4))  # one graph over all rows
    # within a frame, one overflowing pair is enough
    v[1] = [1e200, 1e200]
    with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
        learn_adjacency(w1, w2, constant(v, np.float64), 1, layout)


@pytest.mark.parametrize("encode", [lambda params, clip: encode_clip(params, [clip]), oracles.encode_clip],
                         ids=["batched", "per_frame"])
def test_non_finite_affinity_is_a_numeric_error(encode):
    cfg = tiny_config()
    rng = np.random.default_rng(3)
    model = Model(cfg)
    model.visual.learn_w1.data[0, 0] = np.nan
    clip = oracles.clip_of([random_frame(rng, n, cfg) for n in (3, 1, 4)])
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        encode(model.visual, clip)


@pytest.mark.parametrize("encode", [lambda params, t, p: encode_all(params, [sentence_layout(t, p)]),
                                    oracles.encode_all],
                         ids=["batched", "per_sentence"])
def test_role_beyond_the_vocabulary_is_a_data_error(encode):
    cfg = tiny_config()
    rng = np.random.default_rng(4)
    model = Model(cfg)
    bad = SrlParse(tokens=3, predicates=[(0, 0)],
                   arguments=[SrlArgument(span=(1, 2), role=cfg.N_r + 1, pred=0)])
    with pytest.raises(DataError):
        encode(model.linguistic, rng.standard_normal((6, cfg.d_t)), [SrlParse(tokens=3), bad])


def test_token_width_mismatch_is_a_data_error():
    cfg = tiny_config()
    rng = np.random.default_rng(6)
    model = Model(cfg)
    ok = sentence_layout(rng.standard_normal((3, cfg.d_t)), [SrlParse(tokens=3)])
    wide = sentence_layout(rng.standard_normal((3, cfg.d_t + 1)), [SrlParse(tokens=3)])
    for layouts in ([wide], [ok, wide]):  # every sample too wide, or one of a batch
        with pytest.raises(DataError, match="width"):
            encode_all(model.linguistic, layouts)


def test_box_and_object_mismatch_is_a_data_error():
    cfg = tiny_config()
    rng = np.random.default_rng(5)
    frame = random_frame(rng, 3, cfg)
    with pytest.raises(DataError):
        ClipFeatures(frame.appearance[None], frame.objects, frame.class_attr, frame.boxes[:2],
                     [3], FRAME)
