"""Model configuration: every knob the model and trainer read.

Configs serialize to canonical JSON (sorted keys, compact separators)
with every field explicit, so the bytes the trainer records and the bytes
embedded in checkpoints are reproducible.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

from .errors import ConfigError

RI_VARIANTS = ("DAVL", "RI_GCN", "RI_AT", "RI_CONCAT")
QUESTION_SETTINGS = ("OE", "MC")
PRECISIONS = ("single", "double")

# integer fields and their least value
_COUNTS = {
    **dict.fromkeys(("d", "d_a", "d_o", "d_c", "d_t", "N_f", "N_o", "N_s", "N_t",
                     "N_r", "N_n", "N_h", "batch_size", "epochs", "d_h"), 1),
    "N_k": 2, "answer_set_size": 2, "seed": 0,
}


def _integer(v) -> bool:
    """An int as JSON writes one; bools and floats are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    """A finite int or float; bools, strings and None are not numbers here."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)


@dataclass
class ModelConfig:
    d: int  # shared representation width
    d_a: int  # appearance feature width
    d_o: int  # object feature width
    d_c: int  # class/attribute feature width
    d_t: int  # token feature width
    N_f: int  # frames per clip
    N_o: int  # objects per frame
    N_s: int  # sentences per clip
    N_t: int  # tokens per sentence/question
    N_r: int  # role vocabulary size
    N_n: int  # neighbors kept per row by the graph learner
    N_h: int  # attention heads in the integration module
    N_k: int  # candidates in the multiple-choice setting
    answer_set_size: int
    ri_variant: str
    question_setting: str
    precision: str
    seed: int
    lr: float
    betas: tuple[float, float]
    eps: float
    weight_decay: float
    batch_size: int
    epochs: int
    d_h: int  # hidden width of the open-ended classifier

    def validate(self) -> "ModelConfig":
        for f, lo in _COUNTS.items():
            v = getattr(self, f)
            if not _integer(v) or v < lo:
                raise ConfigError(f"{f} must be an integer >= {lo}, got {v!r}")
        if self.d % 2 != 0:
            raise ConfigError(f"d must be even for the bidirectional split, got {self.d}")
        if self.d % self.N_h != 0:
            raise ConfigError(f"N_h={self.N_h} must divide d={self.d}")
        if self.ri_variant not in RI_VARIANTS:
            raise ConfigError(f"ri_variant must be one of {RI_VARIANTS}, got {self.ri_variant!r}")
        if self.question_setting not in QUESTION_SETTINGS:
            raise ConfigError(
                f"question_setting must be one of {QUESTION_SETTINGS}, got {self.question_setting!r}"
            )
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")
        if not _number(self.lr) or self.lr < 0:
            raise ConfigError(f"lr must be a finite number >= 0, got {self.lr!r}")
        b = self.betas
        if (not isinstance(b, (list, tuple)) or len(b) != 2
                or not all(_number(x) and 0.0 <= x < 1.0 for x in b)):
            raise ConfigError(f"betas must be two values in [0, 1), got {b!r}")
        self.betas = tuple(b)
        if not _number(self.eps) or self.eps <= 0:
            raise ConfigError(f"eps must be a finite number > 0, got {self.eps!r}")
        if not _number(self.weight_decay) or self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be a finite number >= 0, got {self.weight_decay!r}")
        return self

    @property
    def dtype(self):
        import numpy as np

        return np.float64 if self.precision == "double" else np.float32

    def with_overrides(self, **kw) -> "ModelConfig":
        return replace(self, **kw).validate()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["betas"] = list(self.betas)
        return d

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        import dataclasses

        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = known - set(d)
        if missing:
            raise ConfigError(
                f"config must list every field explicitly; missing: {sorted(missing)}"
            )
        try:
            cfg = cls(**d)
        except TypeError as e:
            raise ConfigError(f"bad config: {e}") from e
        return cfg.validate()

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(d, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(d)

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        return cls.from_json(text)


def tiny_config(**overrides) -> ModelConfig:
    """Small extents for gradient checks and fast experiments. Double
    precision so the same config feeds finite-difference checks."""
    cfg = ModelConfig(
        d=8, d_a=6, d_o=6, d_c=5, d_t=5,
        N_f=2, N_o=3, N_s=2, N_t=4, N_r=6, N_n=2, N_h=2, N_k=3,
        answer_set_size=4,
        ri_variant="DAVL", question_setting="OE", precision="double",
        seed=0, lr=1e-2, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0,
        batch_size=8, epochs=300, d_h=8,
    )
    return cfg.with_overrides(**overrides) if overrides else cfg.validate()


def desk_config(**overrides) -> ModelConfig:
    """Mid-scale defaults that train in minutes on a CPU."""
    cfg = ModelConfig(
        d=32, d_a=64, d_o=64, d_c=32, d_t=32,
        N_f=4, N_o=5, N_s=3, N_t=6, N_r=16, N_n=5, N_h=4, N_k=4,
        answer_set_size=8,
        ri_variant="DAVL", question_setting="OE", precision="single",
        seed=0, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0,
        batch_size=16, epochs=60, d_h=32,
    )
    return cfg.with_overrides(**overrides) if overrides else cfg.validate()


def full_config(**overrides) -> ModelConfig:
    """Full-scale extents; used for parameter counting, not training."""
    cfg = ModelConfig(
        d=512, d_a=2048, d_o=2048, d_c=768, d_t=768,
        N_f=64, N_o=10, N_s=12, N_t=20, N_r=16, N_n=5, N_h=16, N_k=5,
        answer_set_size=1000,
        ri_variant="DAVL", question_setting="OE", precision="single",
        seed=0, lr=8e-5, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-2,
        batch_size=256, epochs=80, d_h=512,
    )
    return cfg.with_overrides(**overrides) if overrides else cfg.validate()


PRESETS = {"tiny": tiny_config, "desk": desk_config, "full": full_config}
