"""End-to-end model composition.

``Model.forward`` runs an encode stage (visual, linguistic, question and
multiple-choice candidate encoders) and then the integration module plus
the answer head. The reference below composes the same layers in one
straight line, each candidate encoded right before it is scored; the
split must reproduce its loss and every gradient bit for bit. The fused
attention nodes must likewise reproduce the per-op tape compositions in
``oracles.py`` bit for bit.
"""
import numpy as np
import pytest

import livlr.linguistic
import livlr.model
import livlr.visual
import oracles
from livlr.config import desk_config, tiny_config
from livlr.data import SyntheticTaskSpec, gen_synthetic
from livlr.davl import RepresentationBundle, integrate
from livlr.heads import (
    cross_entropy,
    encode_question,
    hinge_loss,
    predict_open_ended,
)
from livlr.linguistic import encode_all
from livlr.model import Model
from livlr.tensor import backward, concat, linear, tape_size
from livlr.visual import encode_clip


def unsplit_forward(model, sample):
    x_vg, x_vl = encode_clip(model.visual, sample.clip)
    x_lg, x_ll = encode_all(model.linguistic, sample.sentences)
    q, q_hat = encode_question(model.question, sample.question)
    x_hat = integrate(model.davl, RepresentationBundle(x_vg, x_vl, x_lg, x_ll), q)
    if model.oe_head is not None:
        logits = predict_open_ended(model.oe_head, x_hat, q_hat)
        return cross_entropy(logits, sample.label), logits
    head = model.mc_head
    scores = []
    for k in range(sample.candidates.shape[0]):
        _, e_k = encode_question(head.cand_encoder, sample.candidates[k])
        joint = concat([x_hat, q_hat, e_k], axis=0)
        scores.append(linear(joint, head.w_score, head.b_score))
    scores = concat(scores, axis=0)
    return hinge_loss(scores, sample.correct), scores


def loss_and_grads(model, samples, forward):
    model.store.zero_grads()
    total = None
    for s in samples:
        loss, _ = forward(s)
        total = loss if total is None else total + loss
    backward(total)
    return total.data.tobytes(), {n: p.grad.tobytes() for n, p in model.store.items()}


@pytest.mark.parametrize("variant", ["DAVL", "RI_GCN", "RI_AT", "RI_CONCAT"])
@pytest.mark.parametrize("setting", ["OE", "MC"])
@pytest.mark.parametrize("precision", ["double", "single"])
def test_split_forward_matches_unsplit_bit_for_bit(setting, variant, precision):
    cfg = tiny_config(question_setting=setting, ri_variant=variant, precision=precision)
    spec = SyntheticTaskSpec(
        n_samples=3, signal_source="question_dependent", noise_scale=0.3, n_classes=4
    )
    samples = gen_synthetic(spec, cfg, seed=5).samples()
    model = Model(cfg)

    split = loss_and_grads(model, samples, model.forward)
    unsplit = loss_and_grads(model, samples, lambda s: unsplit_forward(model, s))

    assert split[0] == unsplit[0]
    assert split[1].keys() == unsplit[1].keys()
    for name in split[1]:
        assert split[1][name] == unsplit[1][name], name
    assert any(np.frombuffer(g, dtype=cfg.dtype).any() for g in split[1].values())


def tape_oracle_forward(monkeypatch, model, sample):
    """model.forward with every fused attention node swapped for the per-op
    tape composition it replaces."""
    with monkeypatch.context() as m:
        m.setattr(livlr.model, "integrate", oracles.integrate_tape)
        m.setattr(livlr.visual, "attn_gcn_layer", oracles.attn_gcn_layer_tape)
        m.setattr(livlr.visual, "typed_edge_gcn_layer", oracles.typed_edge_gcn_layer_tape)
        m.setattr(livlr.linguistic, "attn_gcn_layer", oracles.attn_gcn_layer_tape)
        return model.forward(sample)


def outputs_loss_and_grads(model, samples, forward):
    scores = []

    def run(s):
        loss, sc = forward(s)
        scores.append(sc.data.tobytes())
        return loss, sc

    total, grads = loss_and_grads(model, samples, run)
    return scores, total, grads


@pytest.mark.parametrize("n_heads", [1, 2, 4, 8])
@pytest.mark.parametrize("variant", ["DAVL", "RI_GCN", "RI_AT", "RI_CONCAT"])
@pytest.mark.parametrize("setting", ["OE", "MC"])
@pytest.mark.parametrize("precision", ["double", "single"])
def test_fused_nodes_match_tape_oracles_bit_for_bit(
    monkeypatch, setting, variant, precision, n_heads
):
    # tiny has d = 8, so the head counts run from one head to one per dimension
    cfg = tiny_config(
        question_setting=setting, ri_variant=variant, precision=precision, N_h=n_heads
    )
    spec = SyntheticTaskSpec(
        n_samples=2, signal_source="question_dependent", noise_scale=0.3, n_classes=4
    )
    samples = gen_synthetic(spec, cfg, seed=7).samples()
    model = Model(cfg)

    fused = outputs_loss_and_grads(model, samples, model.forward)
    tape = outputs_loss_and_grads(
        model, samples, lambda s: tape_oracle_forward(monkeypatch, model, s)
    )
    assert fused[0] == tape[0]
    assert fused[1] == tape[1]
    assert fused[2].keys() == tape[2].keys()
    for name in fused[2]:
        assert fused[2][name] == tape[2][name], name
    # under MC the fused vector adds the same amount to every candidate
    # score, so the pairwise hinge sends it no gradient; OE must reach it
    live = [g for n, g in fused[2].items() if setting == "MC" or ".qatt." in n]
    assert any(np.frombuffer(g, dtype=cfg.dtype).any() for g in live)


@pytest.mark.parametrize("precision", ["double", "single"])
def test_fused_fusion_gcn_matches_tape_oracle(monkeypatch, precision):
    # the experimental attention-weighted fusion GCN runs attn_gcn_layer too
    cfg = tiny_config(davl_attention_gcn=True, precision=precision)
    spec = SyntheticTaskSpec(
        n_samples=2, signal_source="question_dependent", noise_scale=0.3, n_classes=4
    )
    samples = gen_synthetic(spec, cfg, seed=8).samples()
    model = Model(cfg)
    fused = outputs_loss_and_grads(model, samples, model.forward)
    tape = outputs_loss_and_grads(
        model, samples, lambda s: tape_oracle_forward(monkeypatch, model, s)
    )
    assert fused == tape


def test_desk_oe_sample_tape_node_count():
    # the number of tape nodes one training sample records; it repeats
    # exactly, and it is the dispatch cost the fused nodes drive down
    cfg = desk_config(ri_variant="DAVL", question_setting="OE", seed=3)
    spec = SyntheticTaskSpec(
        n_samples=2, signal_source="question_dependent", noise_scale=0.1, n_classes=4
    )
    samples = gen_synthetic(spec, cfg, seed=3).samples()
    model = Model(cfg)
    for s in samples:
        assert tape_size() == 0
        loss, _ = model.forward(s)
        assert tape_size() == 182
        backward(loss)


@pytest.mark.parametrize("setting", ["OE", "MC"])
def test_predict_leaves_the_tape_alone(setting):
    cfg = tiny_config(question_setting=setting)
    spec = SyntheticTaskSpec(
        n_samples=3, signal_source="question_dependent", noise_scale=0.3, n_classes=4
    )
    samples = gen_synthetic(spec, cfg, seed=9).samples()
    model = Model(cfg)
    before = tape_size()
    for _ in range(2):
        for s in samples:
            model.predict(s)
            assert tape_size() == before
