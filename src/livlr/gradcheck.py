"""Finite-difference verification of the end-to-end gradients.

The analytic gradient of the mean batch loss is compared against central
differences (f(x+h) - f(x-h)) / 2h taken one parameter scalar at a time.
Relative error uses max(|analytic|, |numeric|, floor) as the denominator
so near-zero entries compare absolutely against the floor.

The full-model audit (``grad_check``) perturbs one scalar at a time and
knows which stage of the forward owns it (``Model.stage_params``): the
encoder stages (``ENCODER_STAGES``: the clip encoder's projections and
its spatial and semantic graphs, the sentence encoder's BiLSTM and its
role graph, the question and the MC candidates), then question
attention, the fusion after it and the head. Each stage reads only its
own parameter group, and the forward runs every stage through a hook
``run(name, fn)``. So the audit runs the probe batch once at the
unperturbed weights and keeps every stage's output and its fn. For a
perturbed scalar it calls the owning stage's kept fn again, which holds
the inputs the base pass gave it; for a question-attention scalar, with
its source, so that only that source's block reruns (``davl.attend``).
The encoders build what depends only on the samples once per call, so
such a call reruns only the stage's products with weights. A kept fn
gives exactly what a rerun in a full forward would, since no later op
writes into its inputs. The analytic pass (recorded) reuses nothing.

The forwards that perturb one scalar differ only in that stage's output:
every later stage sees the same weights each time. So the audit collects
those outputs and runs the stages that read them, and the loss, on up
to ``SCORE_CHUNK`` of them at once, over as many copies of the probe
batch (operation batching: Neubig, Goldberg & Dyer, NeurIPS 2017). Those
are the later stages of the perturbed stage's own encoder, if it is the
encoder's first, and the ``SCORE_STAGES`` after it; every other stage
hands back copies of its base output. The question and candidate
BiLSTMs never run over copies. The graph stages, the integration module
and the heads multiply each frame's, sentence's and sample's rows in
products of their own, whose shapes depend only on that item's row
counts, so every copy gets the bits its own one-batch forward would (the
batch-invariance argument of He et al., "Defeating Nondeterminism in LLM
Inference", 2025). So the numeric gradients are bit-identical to those
from full forward passes.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .data import SyntheticTaskSpec, gen_synthetic
from .davl import SOURCE_NAMES
from .errors import ConfigError
from .model import ENCODER_STAGES, SCORE_STAGES, Model
from .tensor import Tensor, backward, recording

DEFAULT_H = 1e-5
DEFAULT_TOLERANCE = 1e-4
REL_FLOOR = 1e-3
# perturbations whose later stages one forward scores; more would raise
# the audit's peak memory without saving much more dispatch
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


def _check_positive(name: str, value) -> None:
    """ConfigError unless value is a finite real number > 0; a bool is
    not one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value <= 0):
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")


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
    values and return the loss Tensor. params maps name -> Tensor. h and
    tolerance must be finite numbers > 0 (ConfigError).
    """
    _check_positive("h", h)
    _check_positive("tolerance", tolerance)
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
    2 * (number of parameter scalars) forwards of the batch. Each forward
    calls only the fn of the stage that owns the perturbed scalar, as one
    pass at the unperturbed weights kept it with its inputs (for a
    question-attention scalar, only its source's block), and takes every
    other stage's output from that pass; the stages that read the
    perturbed one's output then run SCORE_CHUNK perturbations at a time,
    over as many copies of the probe batch.
    """
    _check_positive("tolerance", tolerance)
    model, samples = probe_batch(config, seed, batch_size)
    params = {name: model.store[name] for name in model.store.names()}
    stage_of = {id(t): name for name, ts in model.stage_params().items() for t in ts}
    source_of = {id(t): s for s, name in enumerate(SOURCE_NAMES)
                 for h in model.davl.qatt[name].heads for t in vars(h).values()}
    base, fns = {}, {}

    def keep(name, fn):
        fns[name], base[name] = fn, fn()
        return base[name]

    enc = model.encode(samples, keep)
    model.score(samples, enc, keep)
    spans = enc.layout.spans
    join = lambda name, outs: _join(outs, spans if name == "qatt" else None)
    tiled = functools.cache(lambda name, copies: join(name, [base[name]] * copies))

    def losses_of(p):
        stage, source = stage_of[id(p)], source_of.get(id(p))
        later = _later_stages(stage)
        fn, args = fns[stage], () if source is None else (source, base[stage])
        outs = (fn(*args) for _ in _perturbations(p, DEFAULT_H))
        n, losses = len(samples), []
        while chunk := list(itertools.islice(outs, SCORE_CHUNK)):
            copies = samples * len(chunk)

            def run(name, fn):
                if name in later:
                    return fn()
                return join(name, chunk) if name == stage else tiled(name, len(chunk))

            scored, _ = model.answer(copies, model.encode(copies, run), run)
            losses += [_mean(c) for c in scored.data.reshape(len(chunk), n)]
        return losses

    return _check(lambda: model.batch_loss(samples)[0], params, DEFAULT_H, tolerance, losses_of)


def _later_stages(stage: str) -> tuple:
    """The stages that read stage's output, directly or not: the later
    stages of its own encoder if it is the encoder's first, and the
    ``SCORE_STAGES`` after it."""
    if stage in SCORE_STAGES:
        return SCORE_STAGES[SCORE_STAGES.index(stage) + 1:]
    first, *rest = next(chain for chain in ENCODER_STAGES if stage in chain)
    return (tuple(rest) if stage == first else ()) + SCORE_STAGES


def _mean(losses: np.ndarray) -> float:
    """The mean of one batch's losses as batch_loss gives it: the sum
    times 1/n."""
    return float(losses.sum() * (1.0 / losses.size))


def _join(outs: list, spans=None):
    """One stage's outputs on several copies of a batch -> its output on
    the batch of all the copies, their samples in order. Question
    attention stacks its rows source by source (``spans``), so there each
    source's rows of every copy go together. The joined tensors are new
    leaves, so this is for forwards that record nothing."""
    if isinstance(outs[0], tuple):
        return tuple(_join(list(o), spans) for o in zip(*outs))
    x = np.stack([o.data for o in outs])
    if spans is None:
        return Tensor(x.reshape(-1, *x.shape[2:]))
    return Tensor(np.concatenate([x[:, lo:hi].reshape(-1, x.shape[-1]) for lo, hi in spans]))
