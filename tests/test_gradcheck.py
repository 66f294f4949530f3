"""Gradient checker tests.

A checker is only trustworthy if it can catch a wrong gradient, so one
test wires a custom op with a deliberately broken backward rule and
requires the report to flag exactly that tensor.
"""
import dataclasses

import numpy as np
import pytest

import livlr.model
from livlr.config import tiny_config
from livlr.errors import ConfigError, NumericError
from livlr.gradcheck import check_gradients, grad_check, probe_batch, relative_error
from livlr.model import Encoded, Model
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


def micro_config(**overrides):
    return tiny_config(
        d=4, d_a=3, d_o=3, d_c=3, d_t=3,
        N_f=1, N_o=2, N_s=1, N_t=3, N_r=3, N_n=1, N_h=1, N_k=2,
        answer_set_size=2, d_h=4, **overrides,
    )


STAGE_PREFIXES = {
    "visual": "visual.",
    "linguistic": "linguistic.",
    "question": "question.",
    "candidates": "head.cand.",
}
STAGE_FUNCTIONS = {
    "visual": "encode_clip",
    "linguistic": "encode_all",
    "question": "encode_question",
    "candidates": "encode_candidates",
}


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
    model = Model(micro_config(question_setting=setting))
    name_of = {id(t): name for name, t in model.store.items()}
    stages = model.encoder_params()
    expected = set(STAGE_PREFIXES) - ({"candidates"} if setting == "OE" else set())
    assert set(stages) == expected
    # grad_check hands a stage back as the base encoding's field of its name
    assert set(stages) <= {f.name for f in dataclasses.fields(Encoded)}
    for stage, tensors in stages.items():
        got = sorted(name_of[id(t)] for t in tensors)
        want = [n for n in model.store.names() if n.startswith(STAGE_PREFIXES[stage])]
        assert got == want, stage


def test_stage_reuse_reruns_only_the_perturbed_stage(monkeypatch):
    # each stage runs once for the base encoding, once for the analytic pass
    # and twice per scalar it owns; integration and head scalars run none
    cfg = micro_config(question_setting="MC")
    runs = {}
    for stage, attr in STAGE_FUNCTIONS.items():
        def counted(*args, stage=stage, fn=getattr(livlr.model, attr)):
            runs[stage] = runs.get(stage, 0) + 1
            return fn(*args)

        monkeypatch.setattr(livlr.model, attr, counted)
    assert grad_check(cfg, seed=0, batch_size=1).passed
    for stage, tensors in Model(cfg).encoder_params().items():
        own = sum(t.size for t in tensors)
        assert runs[stage] == 2 * own + 2, stage


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
