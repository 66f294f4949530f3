"""Finite-difference verification of the end-to-end gradients.

The analytic gradient of the mean batch loss is compared against central
differences (f(x+h) - f(x-h)) / 2h taken one parameter scalar at a time.
Relative error uses max(|analytic|, |numeric|, floor) as the denominator
so near-zero entries compare absolutely against the floor.

The full-model audit (``grad_check``) perturbs one scalar at a time, and
each encoder stage (visual, linguistic, question, MC candidates) reads
only its own parameter group, so most stages see unchanged parameters in
most forward passes. Outside a recording scope the audit keeps each
stage's last output for the probe batch together with a byte snapshot of
that stage's parameters, and hands the output back while the parameters
are still bit-equal to the snapshot: only the perturbed stage, the
integration module and the head are rerun. The analytic pass (recorded) reuses
nothing. A reused output is exactly what a rerun would compute, and no
later op writes into its inputs, so the numeric gradients are
bit-identical to those from full forward passes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .data import SyntheticTaskSpec, gen_synthetic
from .errors import ConfigError
from .model import Model
from .tensor import backward, is_recording, recording

DEFAULT_H = 1e-5
DEFAULT_TOLERANCE = 1e-4
REL_FLOOR = 1e-3


@dataclass
class TensorReport:
    name: str
    max_rel_err: float
    passed: bool


@dataclass
class GradCheckReport:
    entries: list[TensorReport]
    tolerance: float
    passed: bool

    def failures(self) -> list[TensorReport]:
        return [e for e in self.entries if not e.passed]


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = REL_FLOOR) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def check_gradients(
    loss_fn,
    params: dict,
    h: float = DEFAULT_H,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GradCheckReport:
    """Compare analytic grads against central differences.

    loss_fn() must rebuild the forward pass from the current parameter
    values and return the loss Tensor. params maps name -> Tensor.
    """
    for name in sorted(params):
        params[name].zero_grad()
    with recording():
        backward(loss_fn())
    analytic = {name: params[name].grad.copy() for name in params}

    entries = []
    for name in sorted(params):
        p = params[name]
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = float(loss_fn().data)
            flat[j] = orig - h
            down = float(loss_fn().data)
            flat[j] = orig
            num_flat[j] = (up - down) / (2.0 * h)
        err = relative_error(analytic[name], numeric)
        entries.append(TensorReport(name, err, err < tolerance))
    return GradCheckReport(entries, tolerance, all(e.passed for e in entries))


class StageReuse:
    """A stage hook for ``Model.batch_loss`` that reuses encoder outputs of
    the one batch it is used with.

    Outside a recording scope ``run(name, fn)`` returns the output stored
    for stage ``name`` when the stage's parameters are byte-for-byte the
    ones it was computed from, and otherwise reruns the stage and stores
    the new output. While recording it always reruns and stores nothing.
    """

    def __init__(self, model: Model):
        self.params = model.encoder_params()
        self._memo = {}

    def run(self, name, fn):
        if is_recording():
            return fn()
        snap = [p.data.tobytes() for p in self.params[name]]
        hit = self._memo.get(name)
        if hit is not None and hit[0] == snap:
            return hit[1]
        out = fn()
        self._memo[name] = (snap, out)
        return out


def probe_batch(config: ModelConfig, seed: int = 0, batch_size: int = 2):
    """(model, samples) for the audit. The probe task plants signal in all
    four channels so every code path carries non-degenerate values."""
    config.validate()
    if config.precision != "double":
        raise ConfigError("grad check needs precision=double")
    spec = SyntheticTaskSpec(
        n_samples=batch_size,
        signal_source="question_dependent",
        noise_scale=0.3,
        n_classes=min(4, config.answer_set_size),
    )
    dataset = gen_synthetic(spec, config, seed=seed)
    return Model(config), dataset.samples()


def grad_check(
    config: ModelConfig,
    seed: int = 0,
    batch_size: int = 2,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GradCheckReport:
    """Build a model and one random batch, then finite-difference every
    parameter tensor. The probe batch is kept small because the cost is
    2 * (number of parameter scalars) forward passes of the batch; encoder
    stages whose parameters are not being perturbed are reused rather
    than rerun.
    """
    model, samples = probe_batch(config, seed, batch_size)
    reuse = StageReuse(model)
    params = {name: model.store[name] for name in model.store.names()}
    return check_gradients(
        lambda: model.batch_loss(samples, reuse.run)[0], params, tolerance=tolerance
    )
