"""Training loop, evaluation, and metrics emission.

One optimizer step per batch; epoch order comes from a seeded permutation
indexed by (config seed, epoch), so a (config, dataset) pair fully
determines every metric and checkpoint byte. ``Model.batch_loss`` runs a
minibatch through the model, each layer once over all its samples, and
gives its mean loss, recorded in one tape scope. ``evaluate`` runs it
outside a scope over consecutive chunks of ``batch_size`` samples, in
dataset order.
"""
from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import save_checkpoint
from .config import ModelConfig, _number
from .data import SyntheticDataset
from .errors import ConfigError, NumericError
from .model import Model
from .optim import adamw_step
from .tensor import backward, recording

METRIC_COLUMNS = ("epoch", "train_loss", "train_acc", "wall_ms")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    wall_ms: float


@dataclass
class TrainResult:
    metrics: list[EpochMetrics]
    checkpoint_path: str | None
    final_acc: float
    final_loss: float
    model: "Model"


def _first_nonfinite_param(model: Model) -> str | None:
    for name, p in model.store.items():
        if not np.isfinite(p.data).all():
            return name
    for name, p in model.store.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            return name
    return None


def _numeric_error(what: str, model: Model, epoch: int, batch: int) -> NumericError:
    """``what`` at the epoch and batch, plus the first non-finite parameter."""
    culprit = _first_nonfinite_param(model)
    detail = ("parameters are finite" if culprit is None
              else f"first non-finite parameter: {culprit}")
    return NumericError(f"{what} at epoch {epoch}, batch {batch}; {detail}")


def train(
    config: ModelConfig,
    dataset: SyntheticDataset,
    out_dir: str | None = None,
    stop_at_acc: float | None = None,
) -> TrainResult:
    """Train a fresh model on the dataset.

    When out_dir is given, writes config.json (canonical, every field
    explicit), metrics.csv (one row per epoch run) and checkpoint.lvlr.
    stop_at_acc, when set, ends training after the first epoch whose train
    accuracy reaches the threshold, a finite number in [0, 1].
    """
    config.validate()
    if stop_at_acc is not None and not (_number(stop_at_acc) and 0.0 <= stop_at_acc <= 1.0):
        raise ConfigError(f"stop_at_acc must be a number in [0, 1], got {stop_at_acc!r}")
    dataset.check_config(config)
    model = Model(config)
    samples = dataset.samples()
    n = len(samples)

    writer = None
    csv_file = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as f:
            f.write(config.to_canonical_json())
        csv_file = open(os.path.join(out_dir, "metrics.csv"), "w", newline="", encoding="utf-8")
        writer = csv.writer(csv_file)
        writer.writerow(METRIC_COLUMNS)

    metrics: list[EpochMetrics] = []
    try:
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            order = np.random.default_rng([config.seed, epoch]).permutation(n)
            epoch_loss, epoch_acc = _run_epoch(model, samples, order, epoch)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            row = EpochMetrics(epoch, epoch_loss, epoch_acc, wall_ms)
            metrics.append(row)
            if writer is not None:
                writer.writerow(
                    [row.epoch, f"{row.train_loss:.10g}", f"{row.train_acc:.10g}", f"{row.wall_ms:.3f}"]
                )
            if stop_at_acc is not None and epoch_acc >= stop_at_acc:
                break
    finally:
        if csv_file is not None:
            csv_file.close()

    ckpt_path = None
    if out_dir is not None:
        ckpt_path = os.path.join(out_dir, "checkpoint.lvlr")
        save_checkpoint(ckpt_path, config, model.store)
    last = metrics[-1]
    return TrainResult(
        metrics=metrics,
        checkpoint_path=ckpt_path,
        final_acc=last.train_acc,
        final_loss=last.train_loss,
        model=model,
    )


def _run_epoch(model: Model, samples, order, epoch) -> tuple[float, float]:
    cfg = model.config
    n = len(samples)
    loss_sum = 0.0
    hits = 0
    for b, start in enumerate(range(0, n, cfg.batch_size)):
        idx = order[start : start + cfg.batch_size]
        model.store.zero_grads()
        with recording():
            try:
                batch_loss, losses, batch_hits = model.batch_loss([samples[int(i)] for i in idx])
            except NumericError as e:
                # a forward pass can detect the blow-up before a loss exists
                raise _numeric_error(str(e), model, epoch, b) from e
            for loss in losses:  # sequential, as sum() would round differently
                loss_sum += loss
            hits += batch_hits
            if not np.isfinite(batch_loss.data):
                raise _numeric_error("non-finite loss", model, epoch, b)
            backward(batch_loss)
        adamw_step(model.store, cfg.lr, cfg.betas, cfg.eps, cfg.weight_decay)
    return loss_sum / n, hits / n


def evaluate(model: Model, dataset: SyntheticDataset) -> dict:
    """Mean loss and accuracy over a dataset (values only, outside a scope).
    The samples go through ``Model.batch_loss`` in dataset order, in
    consecutive chunks of the config's batch size."""
    dataset.check_config(model.config)
    samples = dataset.samples()
    size = model.config.batch_size
    loss_sum = 0.0
    hits = 0
    for start in range(0, len(samples), size):
        _, losses, chunk_hits = model.batch_loss(samples[start : start + size])
        for loss in losses:  # sequential, as sum() would round differently
            loss_sum += loss
        hits += chunk_hits
    n = len(samples)
    return {"n": n, "loss": loss_sum / n, "accuracy": hits / n}
