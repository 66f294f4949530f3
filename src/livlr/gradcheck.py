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
are still bit-equal to the snapshot: only the perturbed stage is rerun.
The analytic pass (recorded) reuses nothing. A reused output is exactly
what a rerun would compute, and no later op writes into its inputs.

Most scalars belong to encoder stages, and their forwards differ only in
the encoder outputs: the integration module and the head see the same
weights each time. So the audit collects those outputs and scores up to
``SCORE_CHUNK`` of them with one ``Model.answer`` over as many copies of
the probe batch (operation batching: Neubig, Goldberg & Dyer, NeurIPS
2017). The integration module and the heads multiply each sample's rows
in products of their own, whose shapes depend only on that sample's row
counts, so every copy gets the bits its own one-batch forward would (the
batch-invariance argument of He et al., "Defeating Nondeterminism in LLM
Inference", 2025). Integration and head scalars keep one forward each.
Either way the numeric gradients are bit-identical to those from full
forward passes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .data import SyntheticTaskSpec, gen_synthetic
from .errors import ConfigError
from .model import Encoded, Model
from .tensor import backward, is_recording, recording

DEFAULT_H = 1e-5
DEFAULT_TOLERANCE = 1e-4
REL_FLOOR = 1e-3
# encoder-stage perturbations scored by one forward; more would raise the
# audit's peak memory without saving much more dispatch
SCORE_CHUNK = 32


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


def _perturbations(p, h: float):
    """Set each scalar of p to x + h and then to x - h, yielding after
    each; the scalar is restored before the next one, and on any exit."""
    flat = p.data.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        try:
            flat[j] = orig + h
            yield
            flat[j] = orig - h
            yield
        finally:
            flat[j] = orig


def _check(loss_fn, params: dict, h: float, tolerance: float, losses_of) -> GradCheckReport:
    """Analytic grads from one recorded loss_fn() against central
    differences: losses_of(p) gives f(x + h), f(x - h) for each scalar of
    p in turn, as _perturbations sets them."""
    for name in sorted(params):
        params[name].zero_grad()
    with recording():
        backward(loss_fn())
    entries = []
    for name in sorted(params):
        p = params[name]
        up_down = np.array(losses_of(p)).reshape(-1, 2)
        numeric = ((up_down[:, 0] - up_down[:, 1]) / (2.0 * h)).astype(p.data.dtype)
        err = relative_error(p.grad, numeric.reshape(p.data.shape))
        entries.append(TensorReport(name, err, err < tolerance))
    return GradCheckReport(entries, tolerance, all(e.passed for e in entries))


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
    return _check(loss_fn, params, h, tolerance,
                  lambda p: [float(loss_fn().data) for _ in _perturbations(p, h)])


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
    if (isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer))
            or batch_size < 1):
        raise ConfigError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    spec = SyntheticTaskSpec(
        n_samples=int(batch_size),
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
    than rerun, and the forwards that perturb an encoder stage are scored
    SCORE_CHUNK at a time, as copies of the probe batch.
    """
    model, samples = probe_batch(config, seed, batch_size)
    reuse = StageReuse(model)
    params = {name: model.store[name] for name in model.store.names()}
    staged = {id(t) for ts in reuse.params.values() for t in ts}
    loss_fn = lambda: model.batch_loss(samples, reuse.run)[0]

    def losses_of(p):
        if id(p) in staged:
            encs = (model.encode(samples, reuse.run) for _ in _perturbations(p, DEFAULT_H))
            return _scored_losses(model, samples, encs)
        return [float(loss_fn().data) for _ in _perturbations(p, DEFAULT_H)]

    return _check(loss_fn, params, DEFAULT_H, tolerance, losses_of)


def _scored_losses(model: Model, samples: list, encs) -> list[float]:
    """The mean loss of samples on each encoding in encs, as batch_loss
    gives it, scored SCORE_CHUNK encodings at a time by one Model.answer
    over that many copies of the batch. The layers above the encoders give
    a sample the same bits in any batch of samples with its row counts, so
    each mean is bit-equal to the one-batch forward's."""
    n, encs, out = len(samples), iter(encs), []
    while chunk := list(itertools.islice(encs, SCORE_CHUNK)):
        losses, _ = model.answer(samples * len(chunk), Encoded.join(chunk))
        # batch_loss's sum_all and 1/n, one copy at a time
        out += [float(c.sum() * (1.0 / n)) for c in losses.data.reshape(len(chunk), n)]
    return out
