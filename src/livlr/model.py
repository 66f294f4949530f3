"""Full model: both encoders, the integration module and an answer head,
built into one named parameter store."""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .config import ModelConfig
from .davl import DavlParams, RepresentationBundle, RiVariant, create_davl_params, integrate
from .errors import ContractError, DataError
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
from .tensor import Tensor, mul
from .visual import VisualEncoderParams, create_visual_params, encode_clip


@dataclass
class Encoded:
    """One sample's encoder outputs; the rest of the forward reads only these."""

    visual: tuple[Tensor, Tensor]  # holistic rows, fine-grained rows
    linguistic: tuple[Tensor, Tensor]  # event rows, local rows
    question: tuple[Tensor, Tensor]  # token rows, summary q_hat
    candidates: Tensor | None  # MC candidate embeddings (N_k, d)


def _run_stage(name: str, fn):
    return fn()


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

    def encoder_params(self) -> dict[str, list[Tensor]]:
        """Encoder stage name -> every parameter tensor that stage reads.
        Each encoder is handed only its own parameter dataclass, so these
        leaves are all it can depend on besides the sample."""
        stages = {"visual": self.visual, "linguistic": self.linguistic, "question": self.question}
        if self.mc_head is not None:
            stages["candidates"] = self.mc_head.cand_encoder
        return {name: list(_leaves(params)) for name, params in stages.items()}

    def encode(self, sample, run=_run_stage) -> Encoded:
        """Run the encoder stages. Each stage goes through run(name, fn),
        which must return fn(); a caller may instead hand back an earlier
        output of that stage (see gradcheck)."""
        mc = self.mc_head
        if mc is not None and (sample.candidates is None or sample.correct is None):
            raise DataError("multiple-choice sample is missing candidates")
        visual = run("visual", lambda: encode_clip(self.visual, sample.clip))
        linguistic = run("linguistic", lambda: encode_all(self.linguistic, sample.sentences))
        question = run("question", lambda: encode_question(self.question, sample.question))
        candidates = None
        if mc is not None:
            candidates = run("candidates", lambda: encode_candidates(mc, sample.candidates))
        return Encoded(visual, linguistic, question, candidates)

    def answer(self, sample, enc: Encoded) -> tuple[Tensor, Tensor]:
        """The integration module, the answer head and its loss on top of
        the encoder outputs: (loss, scores)."""
        q, q_hat = enc.question
        x_hat = integrate(self.davl, RepresentationBundle(*enc.visual, *enc.linguistic), q)
        if self.oe_head is not None:
            if sample.label is None:
                raise DataError("open-ended sample is missing its label")
            logits = predict_open_ended(self.oe_head, x_hat, q_hat)
            return cross_entropy(logits, sample.label), logits
        scores = score_candidates(self.mc_head, x_hat, q_hat, enc.candidates)
        return hinge_loss(scores, sample.correct), scores

    def forward(self, sample, run=_run_stage) -> tuple[Tensor, Tensor]:
        """(loss, scores): scores are answer-set logits (OE) or candidate
        scores (MC)."""
        return self.answer(sample, self.encode(sample, run))

    def predict(self, sample) -> int:
        """Index of the best answer (OE) or candidate (MC); records nothing
        outside a recording() scope."""
        _, scores = self.forward(sample)
        return int(np.argmax(scores.data))

    def batch_loss(self, samples, runner=lambda i: _run_stage) -> tuple[Tensor, list[float], int]:
        """Forward the samples in order: (mean loss, each sample's loss as
        a float, how many samples the argmax answers right). runner(i) is
        sample i's stage hook for encode. The mean is the loss sum times
        1/n, so a recording caller can backward it."""
        if not samples:
            raise ContractError("batch_loss needs at least one sample")
        total = None
        losses = []
        hits = 0
        for i, s in enumerate(samples):
            loss, scores = self.forward(s, runner(i))
            losses.append(float(loss.data))
            target = s.label if self.oe_head is not None else s.correct
            hits += int(np.argmax(scores.data)) == target
            total = loss if total is None else total + loss
        return mul(total, 1.0 / len(samples)), losses, hits

    def param_count(self) -> dict:
        groups = self.store.count_by_group()
        return {"total": self.store.count(), "by_module": groups}
