"""Training loop tests.

The loop must be a pure function of (config, dataset): identical seeds give
bitwise-identical metric traces and final weights. Zero learning rate must
leave the initialization untouched, metrics files must mirror the returned
records, and a non-finite loss must abort with a diagnostic.
"""
import csv
import importlib

import numpy as np
import pytest

from livlr.checkpoint import load_model_from
from livlr.config import ModelConfig, tiny_config
from livlr.data import SyntheticTaskSpec, gen_synthetic
from livlr.errors import ConfigError, DataError, NumericError
from livlr.model import Model
from livlr.tensor import recording, tape_size
from livlr.train import METRIC_COLUMNS, _numeric_error, evaluate, train


def make_dataset(cfg, n=8, noise=0.2, source="holistic_visual", seed=0):
    spec = SyntheticTaskSpec(
        n_samples=n, signal_source=source, noise_scale=noise, n_classes=4
    )
    return gen_synthetic(spec, cfg, seed=seed)


# ---------------------------------------------------------------------------
# determinism


def test_zero_lr_keeps_parameters_at_init():
    cfg = tiny_config(lr=0.0, epochs=3)
    ds = make_dataset(cfg)
    result = train(cfg, ds)
    fresh = Model(cfg)
    for name, p in fresh.store.items():
        assert np.array_equal(result.model.store[name].data, p.data), name
    # the epoch permutation reorders the float accumulation, so the mean
    # loss can move in the last ulp even with frozen weights
    losses = [m.train_loss for m in result.metrics]
    assert losses[1] == pytest.approx(losses[0], rel=1e-12)
    assert losses[2] == pytest.approx(losses[0], rel=1e-12)


def test_same_seed_gives_identical_traces():
    cfg = tiny_config(epochs=3)
    ds = make_dataset(cfg)
    a = train(cfg, ds)
    b = train(cfg, ds)
    assert [m.train_loss for m in a.metrics] == [m.train_loss for m in b.metrics]
    assert [m.train_acc for m in a.metrics] == [m.train_acc for m in b.metrics]
    for name, p in a.model.store.items():
        assert np.array_equal(b.model.store[name].data, p.data), name


def test_loss_decreases_on_learnable_task():
    cfg = tiny_config(epochs=8)
    ds = make_dataset(cfg, n=16, noise=0.1)
    result = train(cfg, ds)
    assert result.final_loss < result.metrics[0].train_loss


def test_multichoice_training_runs():
    cfg = tiny_config(question_setting="MC", epochs=2)
    ds = make_dataset(cfg, n=8, noise=0.2)
    result = train(cfg, ds)
    assert len(result.metrics) == 2
    for m in result.metrics:
        assert np.isfinite(m.train_loss) and 0.0 <= m.train_acc <= 1.0


# ---------------------------------------------------------------------------
# emitted files


def test_metrics_csv_mirrors_returned_records(tmp_path):
    cfg = tiny_config(epochs=3)
    ds = make_dataset(cfg)
    out = tmp_path / "run"
    result = train(cfg, ds, out_dir=out)
    with open(out / "metrics.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == METRIC_COLUMNS
    body = rows[1:]
    assert len(body) == len(result.metrics) == 3
    for row, m in zip(body, result.metrics):
        assert int(row[0]) == m.epoch
        assert float(row[1]) == pytest.approx(m.train_loss, rel=1e-9)
        assert float(row[2]) == pytest.approx(m.train_acc, rel=1e-9)
        assert float(row[3]) >= 0.0
    assert [m.epoch for m in result.metrics] == [0, 1, 2]


def test_config_json_round_trips(tmp_path):
    cfg = tiny_config(epochs=1, ri_variant="RI_CONCAT")
    ds = make_dataset(cfg, n=4)
    out = tmp_path / "run"
    train(cfg, ds, out_dir=out)
    text = (out / "config.json").read_text(encoding="utf-8")
    assert ModelConfig.from_json(text) == cfg


def test_checkpoint_is_written_and_loadable(tmp_path):
    cfg = tiny_config(epochs=2)
    ds = make_dataset(cfg)
    out = tmp_path / "run"
    result = train(cfg, ds, out_dir=out)
    assert result.checkpoint_path == str(out / "checkpoint.lvlr")
    back, back_cfg = load_model_from(result.checkpoint_path)
    assert back_cfg == cfg
    e_mem = evaluate(result.model, ds)
    e_ckpt = evaluate(back, ds)
    assert e_ckpt["n"] == len(ds)
    # weights pass through float32 on disk, so allow a small drift
    assert abs(e_ckpt["loss"] - e_mem["loss"]) < 1e-3


def test_no_out_dir_writes_nothing(tmp_path):
    cfg = tiny_config(epochs=1)
    ds = make_dataset(cfg, n=4)
    result = train(cfg, ds)
    assert result.checkpoint_path is None
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# early stop


def test_stop_at_acc_breaks_after_threshold_epoch():
    cfg = tiny_config(epochs=50)
    ds = make_dataset(cfg, n=4)
    result = train(cfg, ds, stop_at_acc=0.0)  # any accuracy qualifies
    assert len(result.metrics) == 1


def test_without_stop_at_acc_all_epochs_run():
    cfg = tiny_config(epochs=4)
    ds = make_dataset(cfg, n=4)
    result = train(cfg, ds)
    assert len(result.metrics) == 4


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.0, -0.1, True, "0.5"])
def test_stop_at_acc_outside_0_1_is_a_config_error(tmp_path, value):
    # nan and 2 once trained every epoch, since no accuracy reaches them
    cfg = tiny_config(epochs=50)
    ds = make_dataset(cfg, n=4)
    with pytest.raises(ConfigError, match="stop_at_acc"):
        train(cfg, ds, out_dir=str(tmp_path / "run"), stop_at_acc=value)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# numeric aborts


def test_nan_features_abort_with_numeric_error():
    cfg = tiny_config(epochs=1)
    ds = make_dataset(cfg, n=4)
    ds.appearance[0, 0, 0] = np.nan
    # the abort may fire at the loss check or earlier inside the forward
    # pass; either way it must carry the epoch/batch diagnostics
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="epoch 0, batch 0"):
            train(cfg, ds)


def test_divergent_lr_aborts_with_numeric_error():
    cfg = tiny_config(epochs=3, lr=1e200)
    ds = make_dataset(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            train(cfg, ds)


@pytest.mark.parametrize("poisoned, message", [
    pytest.param("davl.learner.w1", "non-finite edge affinity scores at epoch 0", id="forward"),
    pytest.param("head.fc2.b", "non-finite loss at epoch 0", id="loss-check"),
])
def test_failed_batch_leaves_the_tape_empty(monkeypatch, poisoned, message):
    # livlr.train, the attribute, is the train function; patch the module
    train_module = importlib.import_module("livlr.train")

    def poisoned_model(cfg):
        model = Model(cfg)
        model.store[poisoned].data[...] = np.nan
        return model

    monkeypatch.setattr(train_module, "Model", poisoned_model)
    cfg = tiny_config(epochs=1)
    assert tape_size() == 0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=message):
            train(cfg, make_dataset(cfg, n=4))
    assert tape_size() == 0


def test_numeric_error_mid_forward_leaves_no_tape():
    cfg = tiny_config()
    model = Model(cfg)
    model.store["davl.learner.w1"].data[...] = np.nan
    sample = make_dataset(cfg, n=1).samples()[0]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="edge affinity"), recording():
            model.forward(sample)
    assert tape_size() == 0


def test_abort_diagnostic_names_first_bad_parameter():
    cfg = tiny_config()
    model = Model(cfg)
    name = model.store.names()[0]
    model.store[name].data[...] = np.nan
    err = _numeric_error("non-finite loss", model, epoch=0, batch=0)
    assert str(err) == f"non-finite loss at epoch 0, batch 0; first non-finite parameter: {name}"


def test_abort_diagnostic_reports_loss_overflow_when_params_are_finite():
    cfg = tiny_config()
    model = Model(cfg)
    err = _numeric_error("non-finite loss", model, epoch=2, batch=1)
    assert str(err) == "non-finite loss at epoch 2, batch 1; parameters are finite"


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_is_deterministic_and_bounded():
    cfg = tiny_config(epochs=1)
    ds = make_dataset(cfg)
    result = train(cfg, ds)
    e1 = evaluate(result.model, ds)
    e2 = evaluate(result.model, ds)
    assert e1 == e2
    assert e1["n"] == len(ds)
    assert 0.0 <= e1["accuracy"] <= 1.0
    assert e1["loss"] >= 0.0


@pytest.mark.parametrize("setting", ["OE", "MC"])
@pytest.mark.parametrize("precision", ["single", "double"])
def test_evaluate_is_the_per_sample_forwards(setting, precision):
    # evaluate is batch_loss over consecutive batch_size chunks in dataset
    # order: 19 samples at batch 8 give chunks of 8, 8 and 3. Its loss
    # agrees with the per-sample forwards up to summation order, and its
    # accuracy with predict exactly
    cfg = tiny_config(question_setting=setting, precision=precision)
    ds = make_dataset(cfg, n=19, source="question_dependent")
    model = train(cfg.with_overrides(epochs=2), ds).model
    got = evaluate(model, ds)
    samples = ds.samples()
    loss_sum, hits, sizes = 0.0, 0, []
    for start in range(0, 19, cfg.batch_size):
        chunk = samples[start : start + cfg.batch_size]
        _, losses, chunk_hits = model.batch_loss(chunk)
        sizes.append(len(losses))
        for loss in losses:
            loss_sum += loss
        hits += chunk_hits
    assert sizes == [8, 8, 3]
    assert got == {"n": 19, "loss": loss_sum / 19, "accuracy": hits / 19}

    single = [float(model.forward(s)[0].data) for s in samples]
    tol = 1e-12 if precision == "double" else 1e-5
    assert abs(got["loss"] - sum(single) / 19) <= tol * abs(got["loss"])
    right = [model.predict(s) == (s.label if setting == "OE" else s.correct) for s in samples]
    assert got["accuracy"] == sum(right) / 19


def test_evaluate_builds_each_frame_once(monkeypatch):
    data_module = importlib.import_module("livlr.data")
    built = []

    class CountingFrame(data_module.FrameFeatures):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(data_module, "FrameFeatures", CountingFrame)
    cfg = tiny_config()
    ds = make_dataset(cfg, n=3)
    model = Model(cfg)
    first = evaluate(model, ds)
    assert evaluate(model, ds) == first
    assert len(built) == len(ds) * cfg.N_f


def test_evaluate_builds_each_clip_geometry_once(monkeypatch):
    # the clip-level graph batch and stacked box geometry are built on a
    # clip's first forward pass and kept with it
    visual = importlib.import_module("livlr.visual")
    built = []
    build = visual.clip_geometry

    def counting(frames):
        built.append(frames)
        return build(frames)

    monkeypatch.setattr(visual, "clip_geometry", counting)
    cfg = tiny_config()
    ds = make_dataset(cfg, n=3)
    model = Model(cfg)
    first = evaluate(model, ds)
    assert evaluate(model, ds) == first
    assert len(built) == len(ds)


def test_evaluate_rejects_mismatched_dataset():
    cfg = tiny_config()
    other = tiny_config(N_f=3)
    model = Model(cfg)
    ds = make_dataset(other)
    with pytest.raises(DataError):
        evaluate(model, ds)
