"""Gradient checker tests.

A checker is only trustworthy if it can catch a wrong gradient, so one
test wires a custom op with a deliberately broken backward rule and
requires the report to flag exactly that tensor.
"""
import dataclasses

import numpy as np
import pytest

import livlr.davl
import livlr.model
from livlr.config import tiny_config
from livlr.errors import ConfigError, NumericError
from livlr.gradcheck import SCORE_CHUNK, check_gradients, grad_check, probe_batch, relative_error
from livlr.model import SCORE_STAGES, Encoded, Model
from livlr.tensor import Tensor, _record, add, matmul, relu, sum_all, tape_size


def test_relative_error_uses_absolute_floor_near_zero():
    a = np.array([0.0, 1.0])
    n = np.array([1e-6, 1.0])
    # |0 - 1e-6| / max(0, 1e-6, 1e-3) = 1e-3
    assert relative_error(a, n) == pytest.approx(1e-3)


def test_correct_composite_passes():
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    v = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

    def loss_fn():
        return sum_all(relu(matmul(w, v)))

    report = check_gradients(loss_fn, {"w": w, "v": v})
    assert report.passed
    assert {e.name for e in report.entries} == {"w", "v"}
    assert all(e.max_rel_err < 1e-6 for e in report.entries)


def test_raising_loss_fn_leaves_no_tape():
    w = Tensor(np.ones(3), requires_grad=True)

    def loss_fn():
        sum_all(relu(w))  # recorded, then abandoned
        raise NumericError("loss blew up")

    with pytest.raises(NumericError):
        check_gradients(loss_fn, {"w": w})
    assert tape_size() == 0


def test_wrong_backward_rule_is_flagged():
    # square with a broken vjp (3x g instead of 2x g): only the tensor fed
    # through it may fail
    def bad_square(x):
        out = Tensor(x.data * x.data)
        return _record(out, (x,), lambda g: (3.0 * x.data * g,))

    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal(4) + 1.0, requires_grad=True)
    v = Tensor(rng.standard_normal(4), requires_grad=True)

    def loss_fn():
        return add(sum_all(bad_square(w)), sum_all(bad_square(relu(v))))

    report = check_gradients(loss_fn, {"w": w, "v": v})
    assert not report.passed
    assert "w" in {e.name for e in report.failures()}


def test_grad_check_requires_double_precision():
    with pytest.raises(ConfigError, match="double"):
        grad_check(tiny_config(precision="single"))


BAD_STEPS = [True, float("nan"), float("inf"), -1.0, 0, "1e-4"]


@pytest.mark.parametrize("value", BAD_STEPS, ids=repr)
def test_check_gradients_rejects_a_bad_step_or_tolerance_before_any_forward(value):
    # a bool, a non-finite or non-positive number and a string would each
    # pass or fail every tensor, or raise a bare TypeError, only after
    # all the forwards
    w = Tensor(np.ones(3), requires_grad=True)
    forwards = []

    def loss_fn():
        forwards.append(1)
        return sum_all(relu(w))

    for name in ("h", "tolerance"):
        with pytest.raises(ConfigError, match=name):
            check_gradients(loss_fn, {"w": w}, **{name: value})
    assert not forwards


@pytest.mark.parametrize("value", BAD_STEPS, ids=repr)
def test_grad_check_rejects_a_bad_tolerance_before_any_forward(value, monkeypatch):
    encodes = []
    encode = Model.encode
    monkeypatch.setattr(Model, "encode", lambda *args: encodes.append(1) or encode(*args))
    with pytest.raises(ConfigError, match="tolerance"):
        grad_check(micro_config(), seed=0, batch_size=1, tolerance=value)
    assert not encodes


def micro_config(**overrides):
    return tiny_config(
        d=4, d_a=3, d_o=3, d_c=3, d_t=3,
        N_f=1, N_o=2, N_s=1, N_t=3, N_r=3, N_n=1, N_h=1, N_k=2,
        answer_set_size=2, d_h=4, **overrides,
    )


VARIANTS = ["DAVL", "RI_GCN", "RI_AT", "RI_CONCAT"]
# the first prefix a parameter's name starts with gives its stage
STAGE_PREFIXES = {
    "candidates": "head.cand.",
    "head": "head.",
    "qatt": "davl.qatt.",
    "fusion": "davl.",
    "visual": "visual.",
    "linguistic": "linguistic.",
    "question": "question.",
}
ENCODER_FUNCTIONS = {
    "visual": "encode_clip",
    "linguistic": "encode_all",
    "question": "encode_question",
    "candidates": "encode_candidates",
}


def stage_named(name):
    return next(stage for stage, prefix in STAGE_PREFIXES.items() if name.startswith(prefix))


def test_full_model_audit_passes_on_a_micro_config():
    cfg = micro_config()
    report = grad_check(cfg, seed=0, batch_size=1)
    assert report.passed
    worst = max(e.max_rel_err for e in report.entries)
    assert worst < 1e-4


def test_report_flags_the_tensors_no_gradient_reaches():
    # the graph learners only select edges, so no gradient reaches them
    # (ROADMAP item 3); every head tensor gets one
    report = grad_check(tiny_config(question_setting="OE", ri_variant="DAVL"), seed=0, batch_size=1)
    learners = [e for e in report.entries if ".learner." in e.name]
    heads = [e for e in report.entries if e.name.startswith("head.")]
    assert {e.name.split(".")[0] for e in learners} == {"visual", "davl"} and heads
    assert all(e.dead and e.zero_share == 1.0 for e in learners)
    assert not any(e.dead for e in heads)
    assert all(0.0 <= e.zero_share < 1.0 for e in report.entries if not e.dead)


@pytest.mark.parametrize("setting", ["OE", "MC"])
def test_reused_stages_are_exactly_their_param_groups(setting):
    encoders = ["visual", "linguistic", "question"] + (["candidates"] if setting == "MC" else [])
    # an encoder stage's output is the field of its name
    assert set(encoders) <= {f.name for f in dataclasses.fields(Encoded)}
    for variant in VARIANTS:
        model = Model(micro_config(question_setting=setting, ri_variant=variant))
        name_of = {id(t): name for name, t in model.store.items()}
        stages = model.stage_params()
        assert list(stages) == encoders + list(SCORE_STAGES)
        # every store tensor is in exactly one stage, the one its name says
        owned = [name_of[id(t)] for tensors in stages.values() for t in tensors]
        assert sorted(owned) == sorted(model.store.names()), variant
        for stage, tensors in stages.items():
            got = sorted(name_of[id(t)] for t in tensors)
            assert got and all(stage_named(n) == stage for n in got), (variant, stage)


def test_stage_reuse_reruns_only_the_perturbed_stage(monkeypatch):
    # every stage runs once on the probe batch for the base pass, once for
    # the analytic pass and twice per scalar it owns (a question-attention
    # scalar: its own source's block alone); no other forward runs it on
    # the probe batch. The stages after a perturbed one score its
    # perturbations SCORE_CHUNK at a time, over copies of the batch, and
    # the stages before it run no more at all
    cfg = micro_config(question_setting="MC")
    calls = {}

    def count(module, attr, stage, batch_of):
        fn = getattr(module, attr)

        def counted(*args):
            key = (stage, batch_of(*args))
            calls[key] = calls.get(key, 0) + 1
            return fn(*args)

        monkeypatch.setattr(module, attr, counted)

    # the encoders run only on the probe batch
    for stage, attr in ENCODER_FUNCTIONS.items():
        count(livlr.model, attr, stage, lambda *args: 1)
    count(livlr.davl, "question_attention", "qatt", lambda blocks, xs, q, pad: (pad.n, len(blocks)))
    count(livlr.davl, "fuse", "fusion", lambda params, nodes, layout: layout.n)
    count(livlr.model, "score_candidates", "head", lambda head, x_hat, *rest: x_hat.data.shape[0])
    assert grad_check(cfg, seed=0, batch_size=1).passed

    stages = Model(cfg).stage_params()
    own = {stage: sum(t.size for t in tensors) for stage, tensors in stages.items()}
    for stage in ENCODER_FUNCTIONS:
        assert calls.pop((stage, 1)) == 2 * own[stage] + 2, stage
    # the base and the analytic pass run all four sources in one node
    assert calls.pop(("qatt", (1, 4))) == 2
    assert calls.pop(("qatt", (1, 1))) == 2 * own["qatt"]
    for stage in ("fusion", "head"):
        assert calls.pop((stage, 1)) == 2 * own[stage] + 2, stage
    # each tensor's perturbations are scored in chunks of copies
    chunks = {stage: sum(-(-2 * t.size // SCORE_CHUNK) for t in tensors)
              for stage, tensors in stages.items()}
    earlier = list(ENCODER_FUNCTIONS)
    for stage in SCORE_STAGES:
        runs = {b: calls.pop((s, b)) for s, b in list(calls) if s == stage}
        assert sum(runs.values()) == sum(chunks[e] for e in earlier), stage
        assert all(np.min(b) >= 2 for b in runs), stage  # copies, not the probe batch
        earlier.append(stage)
    assert not calls


@pytest.mark.parametrize("batch_size", [1, 2])
@pytest.mark.parametrize("variant", ["DAVL", "RI_GCN", "RI_AT", "RI_CONCAT"])
@pytest.mark.parametrize("setting", ["OE", "MC"])
def test_batched_scoring_errors_match_full_forwards_bit_for_bit(setting, variant, batch_size):
    # grad_check scores the encoder-stage perturbations as copies of the
    # probe batch in one forward; each copy must get the bits of its own
    # full forward, so every error is the same float. micro_config has one
    # frame and one sentence, so two source blocks hold one row a sample
    cfg = micro_config(question_setting=setting, ri_variant=variant)
    batched = grad_check(cfg, seed=0, batch_size=batch_size)

    model, samples = probe_batch(cfg, seed=0, batch_size=batch_size)
    params = {name: model.store[name] for name in model.store.names()}
    plain = check_gradients(lambda: model.batch_loss(samples)[0], params)

    assert [(e.name, e.max_rel_err.hex()) for e in batched.entries] == [
        (e.name, e.max_rel_err.hex()) for e in plain.entries
    ]
