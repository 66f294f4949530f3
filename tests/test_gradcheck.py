"""Gradient checker tests.

A checker is only trustworthy if it can catch a wrong gradient, so one
test wires a custom op with a deliberately broken backward rule and
requires the report to flag exactly that tensor.
"""
import numpy as np
import pytest

from livlr.config import tiny_config
from livlr.errors import ConfigError, NumericError
from livlr.gradcheck import SCORE_CHUNK, check_gradients, grad_check, probe_batch, relative_error
from livlr.graph import run_stage
from livlr.model import ENCODER_STAGES, SCORE_STAGES, Model
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
# every stage in forward order, with the name prefixes of its parameters;
# the longest prefix a parameter's name starts with gives its stage
STAGE_PREFIXES = {
    "visual.proj": ("visual.",),
    "visual.spatial": ("visual.spatial_gcn.",),
    "visual.semantic": ("visual.learner.", "visual.semantic_gcn."),
    "linguistic.sentence": ("linguistic.",),
    "linguistic.role_graph": ("linguistic.local_proj.", "linguistic.roles", "linguistic.role_gcn."),
    "question": ("question.",),
    "candidates": ("head.cand.",),
    "qatt": ("davl.qatt.",),
    "fusion": ("davl.",),
    "head": ("head.",),
}


def stage_named(name):
    return max(((len(p), stage) for stage, prefixes in STAGE_PREFIXES.items()
                for p in prefixes if name.startswith(p)))[1]


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
    names = [s for s in STAGE_PREFIXES if setting == "MC" or s != "candidates"]
    assert [s for chain in ENCODER_STAGES for s in chain] + list(SCORE_STAGES) == list(STAGE_PREFIXES)
    for variant in VARIANTS:
        model = Model(micro_config(question_setting=setting, ri_variant=variant))
        name_of = {id(t): name for name, t in model.store.items()}
        stages = model.stage_params()
        assert list(stages) == names
        # every store tensor is in exactly one stage, the one its name says
        owned = [name_of[id(t)] for tensors in stages.values() for t in tensors]
        assert sorted(owned) == sorted(model.store.names()), variant
        for stage, tensors in stages.items():
            got = sorted(name_of[id(t)] for t in tensors)
            assert got and all(stage_named(n) == stage for n in got), (variant, stage)


def counting_stages(monkeypatch):
    """Wrap every stage's fn as Model.encode and Model.score hand it to
    their stage hook, so that a caller that keeps fn and calls it again is
    counted too: (stage, samples in the batch, whether fn got arguments)
    -> calls."""
    calls = {}

    def counting(samples, run):
        def counted_run(name, fn):
            def counted(*args):
                key = (name, len(samples), bool(args))
                calls[key] = calls.get(key, 0) + 1
                return fn(*args)
            return run(name, counted)
        return counted_run

    encode, score = Model.encode, Model.score
    monkeypatch.setattr(Model, "encode", lambda self, samples, run=run_stage:
                        encode(self, samples, counting(samples, run)))
    monkeypatch.setattr(Model, "score", lambda self, samples, enc, run=run_stage:
                        score(self, samples, enc, counting(samples, run)))
    return calls


def test_stage_reuse_reruns_only_the_perturbed_stage(monkeypatch):
    # every stage's own fn runs once on the probe batch for the base pass,
    # once for the analytic pass and twice per scalar it owns, called
    # again from the base pass; no stage fn, "qatt" included, ever gets
    # arguments. A stage that reads the perturbed stage's output, directly
    # or not, scores its perturbations SCORE_CHUNK at a time, over copies
    # of the batch: an encoder's later stages read its first stage, and a
    # score stage every encoder stage and the score stages before it. No
    # other stage runs for them at all
    cfg = micro_config(question_setting="MC")
    calls = counting_stages(monkeypatch)
    assert grad_check(cfg, seed=0, batch_size=1).passed
    assert not [key for key in calls if key[2]]

    stages = Model(cfg).stage_params()
    own = {stage: sum(t.size for t in tensors) for stage, tensors in stages.items()}
    for stage in stages:
        assert calls.pop((stage, 1, False)) == 2 * own[stage] + 2, stage
    # each tensor's perturbations are scored in chunks of copies
    chunks = {stage: sum(-(-2 * t.size // SCORE_CHUNK) for t in tensors)
              for stage, tensors in stages.items()}
    encoders = [s for chain in ENCODER_STAGES for s in chain if s in stages]
    reads = {chain[i]: [chain[0]] for chain in ENCODER_STAGES for i in range(1, len(chain))}
    for i, stage in enumerate(SCORE_STAGES):
        reads[stage] = encoders + list(SCORE_STAGES[:i])
    for stage in stages:
        runs = {key: calls.pop(key) for key in list(calls) if key[0] == stage}
        assert sum(runs.values()) == sum(chunks[s] for s in reads.get(stage, [])), stage
        # copies, not the probe batch
        assert all(b >= 2 for _, b, _ in runs), stage
    assert not calls


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("setting", ["OE", "MC"])
def test_a_kept_stage_fn_reproduces_its_output_bit_for_bit(setting, variant):
    # grad_check calls each stage's fn again from the base pass, on the
    # inputs that pass gave it: at the unperturbed weights it must give the
    # kept output again, so no op writes into a stage's inputs and nothing
    # a stage reads changes after it ran
    model, samples = probe_batch(micro_config(question_setting=setting, ri_variant=variant))
    base, fns = {}, {}

    def keep(name, fn):
        fns[name], base[name] = fn, fn()
        return base[name]

    model.score(samples, model.encode(samples, keep), keep)
    assert list(base) == list(model.stage_params())
    flat = lambda out: [t.data for t in (out if isinstance(out, tuple) else (out,))]
    for name, fn in fns.items():
        for a, b in zip(flat(fn()), flat(base[name]), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b), name


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
