"""Finite-difference verification of the end-to-end gradients.

The analytic gradient of the mean batch loss is compared against central
differences (f(x+h) - f(x-h)) / 2h taken one parameter scalar at a time.
Relative error uses max(|analytic|, |numeric|, floor) as the denominator
so near-zero entries compare absolutely against the floor.

The full-model audit (``grad_check``) perturbs one scalar at a time and
knows which encoder stage (visual, linguistic, question, MC candidates)
owns it: each stage reads only its own parameter group
(``Model.encoder_params``). So it encodes the probe batch once at the
unperturbed weights, and a forward that perturbs a stage's scalar reruns
only that stage and takes every other stage's output from that base
encoding. A forward that perturbs an integration or head scalar runs no
encoder at all. A reused output is exactly what a rerun would compute,
and no later op writes into its inputs. The analytic pass (recorded)
reuses nothing.

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
from .tensor import backward, recording

DEFAULT_H = 1e-5
DEFAULT_TOLERANCE = 1e-4
REL_FLOOR = 1e-3
# encoder-stage perturbations scored by one forward; more would raise the
# audit's peak memory without saving much more dispatch
SCORE_CHUNK = 32


@dataclass
class TensorReport:
    """One tensor's audit: its worst relative error, whether that is under
    the tolerance, and the share of its analytic gradient's entries that
    are exactly 0 on the probe batch. A tensor whose every entry is 0 is
    ``dead``: no gradient reaches it, and the audit passes it only because
    its numeric gradient is 0 too."""

    name: str
    max_rel_err: float
    passed: bool
    zero_share: float

    @property
    def dead(self) -> bool:
        return self.zero_share == 1.0


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
        entries.append(TensorReport(name, err, err < tolerance, float(np.mean(p.grad == 0.0))))
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
    2 * (number of parameter scalars) forward passes of the batch. Each
    forward reruns only the encoder stage that owns the perturbed scalar,
    if any, and takes the others from one encoding at the unperturbed
    weights; the forwards that perturb an encoder stage are scored
    SCORE_CHUNK at a time, as copies of the probe batch.
    """
    model, samples = probe_batch(config, seed, batch_size)
    params = {name: model.store[name] for name in model.store.names()}
    stage_of = {id(t): name for name, ts in model.encoder_params().items() for t in ts}
    base = model.encode(samples)

    def losses_of(p):
        stage = stage_of.get(id(p))
        if stage is None:
            return [_mean(model.answer(samples, base)[0].data)
                    for _ in _perturbations(p, DEFAULT_H)]
        run = lambda name, fn: fn() if name == stage else getattr(base, name)
        encs = (model.encode(samples, run) for _ in _perturbations(p, DEFAULT_H))
        return _scored_losses(model, samples, encs)

    return _check(lambda: model.batch_loss(samples)[0], params, DEFAULT_H, tolerance, losses_of)


def _mean(losses: np.ndarray) -> float:
    """The mean of one batch's losses as batch_loss gives it: the sum
    times 1/n."""
    return float(losses.sum() * (1.0 / losses.size))


def _scored_losses(model: Model, samples: list, encs) -> list[float]:
    """The mean loss of samples on each encoding in encs, scored
    SCORE_CHUNK encodings at a time by one Model.answer over that many
    copies of the batch. The layers above the encoders give a sample the
    same bits in any batch of samples with its row counts, so each mean is
    bit-equal to the one-batch forward's."""
    n, encs, out = len(samples), iter(encs), []
    while chunk := list(itertools.islice(encs, SCORE_CHUNK)):
        losses, _ = model.answer(samples * len(chunk), Encoded.join(chunk))
        out += [_mean(c) for c in losses.data.reshape(len(chunk), n)]
    return out
