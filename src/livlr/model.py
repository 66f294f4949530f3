"""Full model: both encoders, the integration module and an answer head,
built into one named parameter store.

The forward runs a batch of samples at once: each layer is one tape node
over every frame, sentence, question and candidate of the batch, so the
node count does not grow with the batch. The layers take only that batch
form; ``Model`` alone also takes one sample, as a batch of one.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .config import ModelConfig
from .data import Sample
from .davl import (
    SOURCE_NAMES,
    BundleLayout,
    DavlParams,
    RepresentationBundle,
    RiVariant,
    create_davl_params,
    integrate,
)
from .errors import ContractError, DataError
from .graph import run_stage
from .heads import (
    MultiChoiceHead,
    OpenEndedHead,
    create_multichoice_head,
    create_open_ended_head,
    cross_entropy,
    encode_candidates,
    encode_question,
    hinge_loss,
    predict_open_ended,
    score_candidates,
)
from .linguistic import LinguisticEncoderParams, create_linguistic_params, encode_all
from .optim import ParamStore
from .rnn import SeqEncoderParams, create_seq_encoder
from .tensor import Tensor, mul, reshape, sum_all
from .visual import VisualEncoderParams, create_visual_params, encode_clip

# each encoder's stages, in the order Model.encode runs them through its
# stage hook; an encoder's later stages read only its first stage's output
# and the samples
ENCODER_STAGES = (
    ("visual.proj", "visual.spatial", "visual.semantic"),
    ("linguistic.sentence", "linguistic.role_graph"),
    ("question",),
    ("candidates",),
)
# the stages Model.score runs through its stage hook, in order, after the
# encoder stages; each reads the one before it
SCORE_STAGES = ("qatt", "fusion", "head")


@dataclass
class Encoded:
    """A batch's encoder outputs, each stacking the samples' rows in
    order, and each sample's (frames, sentences, question tokens); the
    rest of the forward reads only these. ``question`` and ``candidates``
    are the outputs of the stages of those names; ``visual`` adds the two
    graph stages' pooled rows to the holistic rows of "visual.proj", and
    ``linguistic`` is the output of "linguistic.role_graph"
    (``ENCODER_STAGES``)."""

    visual: tuple[Tensor, Tensor]  # holistic rows, fine-grained rows (one per frame)
    linguistic: tuple[Tensor, Tensor]  # event rows, local rows (one per sentence)
    question: tuple[Tensor, Tensor]  # token rows, summaries q_hat (B, d)
    candidates: Tensor | None  # MC candidate embeddings (total N_k, d)
    counts: tuple

    @property
    def layout(self) -> BundleLayout:
        """Where each sample's rows sit in the integration module."""
        return _bundle_layout(self.counts)


@functools.lru_cache(maxsize=64)
def _bundle_layout(counts: tuple) -> BundleLayout:
    """The layout of a batch whose samples have these (frames, sentences,
    question tokens); a pure function of the counts, so built once each."""
    c = np.array(counts, dtype=np.intp).reshape(-1, 3)
    return BundleLayout(c[:, [0, 0, 1, 1]], c[:, 2])


def _batch(samples) -> list:
    return [samples] if isinstance(samples, Sample) else samples


def _one(sample) -> Sample:
    if not isinstance(sample, Sample):
        raise ContractError(f"expected one Sample, got {type(sample).__name__}")
    return sample


def _leaves(obj):
    """Tensors reachable through a parameter dataclass's fields."""
    if isinstance(obj, Tensor):
        yield obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _leaves(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)


class Model:
    """Owns the parameter store and runs the end-to-end forward pass."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.store = ParamStore()
        dtype = config.dtype
        rng = np.random.default_rng(config.seed)

        self.visual: VisualEncoderParams = create_visual_params(
            self.store, rng, config.d, config.d_a, config.d_o, config.d_c, config.N_n, dtype,
        )
        self.linguistic: LinguisticEncoderParams = create_linguistic_params(
            self.store, rng, config.d, config.d_t, config.N_r, dtype,
        )
        self.question: SeqEncoderParams = create_seq_encoder(
            self.store, "question", rng, config.d_t, config.d, dtype,
        )
        self.davl: DavlParams = create_davl_params(
            self.store, rng, config.d, config.N_h, config.N_n,
            RiVariant(config.ri_variant), dtype,
        )
        self.oe_head: OpenEndedHead | None = None
        self.mc_head: MultiChoiceHead | None = None
        if config.question_setting == "OE":
            self.oe_head = create_open_ended_head(
                self.store, rng, config.d, config.d_h, config.answer_set_size, dtype,
            )
        else:
            self.mc_head = create_multichoice_head(
                self.store, rng, config.d, config.d_t, dtype,
            )

    def stage_params(self) -> dict[str, list[Tensor]]:
        """Stage name -> every parameter tensor that stage reads, in
        forward order: the encoder stages ``encode`` runs
        (``ENCODER_STAGES``), then ``SCORE_STAGES``. Each stage is handed
        only these parameters, so they are all its output can depend on
        besides its inputs, and every parameter belongs to exactly one
        stage."""
        davl, mc, v, text = self.davl, self.mc_head, self.visual, self.linguistic
        stages = {
            "visual.proj": [v.w_hol, v.b_hol, v.w_obj, v.b_obj, v.w_pos, v.b_pos,
                            v.w_spatial_mix, v.w_cls, v.b_cls, v.w_semantic_mix],
            "visual.spatial": v.spatial_gcn,
            "visual.semantic": [v.learn_w1, v.learn_w2, v.semantic_gcn],
            "linguistic.sentence": text.sentence,
            "linguistic.role_graph": [text.w_local, text.role_matrix, text.role_gcn],
            "question": self.question,
        }
        if mc is not None:
            stages["candidates"] = mc.cand_encoder
        stages["qatt"] = [davl.qatt[name] for name in SOURCE_NAMES]
        stages["fusion"] = [davl.index_matrix, davl.learn_w1, davl.learn_w2, davl.w_gcn,
                            davl.w_concat, davl.b_concat]
        stages["head"] = self.oe_head if mc is None else [mc.w_score, mc.b_score]
        return {name: list(_leaves(params)) for name, params in stages.items()}

    def encode(self, samples, run=run_stage) -> Encoded:
        """Run the encoder stages over one sample or a list of samples (a
        batch), each stage once over the whole batch. Each stage goes
        through run(name, fn), which must return fn(); a caller may instead
        hand back an earlier output of that stage, or keep fn to call it
        again (see gradcheck). The clip and sentence encoders run their
        stages through run themselves (``ENCODER_STAGES``)."""
        batch = _batch(samples)
        if not batch:
            raise ContractError("a batch needs at least one sample")
        mc = self.mc_head
        if mc is not None and any(s.candidates is None for s in batch):
            raise DataError("multiple-choice sample is missing candidates")
        visual = encode_clip(self.visual, [s.clip for s in batch], run)
        linguistic = encode_all(self.linguistic, [s.sentence_layout() for s in batch], run)
        question = run("question", lambda: encode_question(self.question, [s.question for s in batch]))
        candidates = None
        if mc is not None:
            candidates = run("candidates", lambda: encode_candidates(mc, [s.candidates for s in batch]))
        counts = tuple((len(s.clip.n_objects), len(s.parses), len(s.question)) for s in batch)
        return Encoded(visual, linguistic, question, candidates, counts)

    def score(self, samples, enc: Encoded, run=run_stage) -> Tensor:
        """The integration module and the answer head on top of the encoder
        outputs, each one node over the batch: answer-set logits (B, A)
        (OE) or every candidate's score in sample order (MC). Needs no
        answer. Its stages, ``SCORE_STAGES``, go through run as
        ``encode``'s do (see ``davl.integrate``)."""
        q, q_hat = enc.question
        bundle = RepresentationBundle(*enc.visual, *enc.linguistic)
        x_hat = integrate(self.davl, bundle, q, enc.layout, run)
        if self.oe_head is not None:
            return run("head", lambda: predict_open_ended(self.oe_head, x_hat, q_hat))
        sizes = [len(s.candidates) for s in _batch(samples)]
        return run("head", lambda: score_candidates(
            self.mc_head, x_hat, q_hat, enc.candidates, sizes))

    def answer(self, samples, enc: Encoded, run=run_stage) -> tuple[Tensor, Tensor]:
        """score and its loss: (losses, scores). A batch gets one loss per
        sample (B,) and scores as score gives them; one sample gets a
        scalar loss and scores (A,) or (N_k,). run goes to score."""
        batch = _batch(samples)
        oe = self.oe_head is not None
        what = "label" if oe else "correct"
        targets = [getattr(s, what) for s in batch]
        if None in targets:
            raise DataError(f"sample is missing its answer ({what} is None)")
        scores = self.score(batch, enc, run)
        if oe:
            losses = cross_entropy(scores, targets)
        else:
            losses = hinge_loss(scores, targets, [len(s.candidates) for s in batch])
        if batch is samples:
            return losses, scores
        return reshape(losses, ()), reshape(scores, (-1,)) if oe else scores

    def forward(self, sample) -> tuple[Tensor, Tensor]:
        """(loss, scores) of one ``Sample``, a batch of one: scores are
        answer-set logits (OE) or candidate scores (MC). A list is a
        batch, for ``encode`` and ``answer``: ContractError."""
        return self.answer(_one(sample), self.encode(sample))

    def predict(self, sample) -> int:
        """Index of the best answer (OE) or candidate (MC). Computes the
        scores only, so the sample needs no answer; records nothing
        outside a recording() scope."""
        return int(np.argmax(self.score(_one(sample), self.encode(sample)).data))

    def batch_loss(self, samples: list) -> tuple[Tensor, list[float], int]:
        """Forward a batch, each layer once over all its samples: (mean
        loss, each sample's loss as a float, how many samples the argmax
        answers right). The mean is the loss sum times 1/n, so a recording
        caller can backward it."""
        losses, scores = self.answer(samples, self.encode(samples))
        if self.oe_head is not None:
            right = scores.data.argmax(axis=1) == [s.label for s in samples]
        else:
            ends = list(itertools.accumulate(len(s.candidates) for s in samples))
            right = [int(np.argmax(scores.data[hi - len(s.candidates) : hi])) == s.correct
                     for s, hi in zip(samples, ends)]
        mean = mul(sum_all(losses), 1.0 / len(samples))
        return mean, [float(v) for v in losses.data], int(np.sum(right))

    def param_count(self) -> dict:
        groups = self.store.count_by_group()
        return {"total": self.store.count(), "by_module": groups}
