"""Synthetic desk-scale tasks.

Every sample is a (clip, sentences+parses, question, answer) tuple whose
label is a deterministic function of a class prototype planted into
exactly one feature channel, chosen by the task's signal source:

  holistic_visual        prototype added to every frame appearance vector
  finegrained_visual     prototype added to every object class/attribute row
  holistic_linguistic    prototype added to sentence 0, token 0
  finegrained_linguistic prototype added to sentence 0's first argument span
  question_dependent     all four channels carry independent class ids and a
                         marker on question token 0 selects which one is the
                         answer

Question tokens always carry a fixed per-dataset token basis (plus noise)
so cross attention has stable content to mix; the basis is label-free, so
in single-source modes the planted channel stays the only label-bearing
one. All randomness flows through one seeded generator in a fixed draw
order, so a (spec, config, seed) triple fully determines every byte.
"""
from __future__ import annotations

import json
import os
import tokenize
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, _number
from .errors import ConfigError, DataError
from .linguistic import SentenceLayout, SrlArgument, SrlParse, sentence_layout
from .visual import ClipFeatures, FrameFeatures

SIGNAL_SOURCES = (
    "holistic_visual",
    "finegrained_visual",
    "holistic_linguistic",
    "finegrained_linguistic",
    "question_dependent",
)

FRAME_SIZE = (320.0, 240.0)
DATASET_FORMAT = 1


@dataclass
class SyntheticTaskSpec:
    n_samples: int
    signal_source: str
    noise_scale: float
    n_classes: int

    def validate(self) -> "SyntheticTaskSpec":
        if self.signal_source not in SIGNAL_SOURCES:
            raise ConfigError(
                f"signal_source must be one of {SIGNAL_SOURCES}, got {self.signal_source!r}"
            )
        for f, lo in (("n_samples", 1), ("n_classes", 2)):
            v = getattr(self, f)
            if isinstance(v, bool) or not isinstance(v, int) or v < lo:
                raise ConfigError(f"{f} must be an integer >= {lo}, got {v!r}")
        if not _number(self.noise_scale) or self.noise_scale < 0:
            raise ConfigError(f"noise_scale must be a finite number >= 0, got {self.noise_scale!r}")
        return self

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "signal_source": self.signal_source,
            "noise_scale": self.noise_scale,
            "n_classes": self.n_classes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticTaskSpec":
        try:
            spec = cls(
                n_samples=d["n_samples"],
                signal_source=str(d["signal_source"]),
                noise_scale=d["noise_scale"],
                n_classes=d["n_classes"],
            )
        except (KeyError, TypeError) as e:
            raise ConfigError(f"malformed task spec: {e}") from e
        spec.validate()
        spec.noise_scale = float(spec.noise_scale)  # JSON may write a whole number as 0
        return spec

    @classmethod
    def from_file(cls, path) -> "SyntheticTaskSpec":
        try:
            with open(path, "r", encoding="utf-8") as f:
                d = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read task spec {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"task spec is not valid JSON: {e}") from e
        return cls.from_dict(d)


@dataclass
class Sample:
    clip: ClipFeatures
    sentences: list
    question: np.ndarray
    label: int | None
    candidates: np.ndarray | None
    correct: int | None

    def __post_init__(self):
        self._sentence_layout = None

    def sentence_layout(self) -> SentenceLayout:
        """Built on first use and kept, as ``ClipFeatures.geometry()`` keeps
        a clip's: the layout is a pure function of the sentences."""
        if self._sentence_layout is None:
            self._sentence_layout = sentence_layout(self.sentences)
        return self._sentence_layout


@dataclass
class SyntheticDataset:
    spec: SyntheticTaskSpec
    seed: int
    appearance: np.ndarray  # (n, N_f, d_a)
    objects: np.ndarray  # (n, N_f, N_o, d_o)
    class_attr: np.ndarray  # (n, N_f, N_o, d_c)
    boxes: np.ndarray  # (n, N_f, N_o, 4)
    sent_tokens: np.ndarray  # (n, N_s, N_t, d_t)
    question: np.ndarray  # (n, N_t, d_t)
    labels: np.ndarray  # (n,)
    parses: list  # per sample: list of N_s SrlParse
    signal_span: tuple[int, int]  # argument span carrying finegrained text signal
    sources: np.ndarray | None = None  # (n,) channel per sample, question_dependent
    candidates: np.ndarray | None = None  # (n, N_k, N_t, d_t)
    correct: np.ndarray | None = None  # (n,)
    _samples: list | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return self.labels.shape[0]

    def sample(self, i: int) -> Sample:
        frames = [
            FrameFeatures(
                appearance=self.appearance[i, f],
                objects=self.objects[i, f],
                class_attr=self.class_attr[i, f],
                boxes=self.boxes[i, f],
                frame_size=FRAME_SIZE,
            )
            for f in range(self.appearance.shape[1])
        ]
        sentences = [
            (self.sent_tokens[i, s], self.parses[i][s])
            for s in range(self.sent_tokens.shape[1])
        ]
        mc = self.candidates is not None
        return Sample(
            clip=ClipFeatures(frames),
            sentences=sentences,
            question=self.question[i],
            label=None if mc else int(self.labels[i]),
            candidates=self.candidates[i] if mc else None,
            correct=int(self.correct[i]) if mc else None,
        )

    def samples(self) -> list[Sample]:
        """Every sample, built on the first call and shared by later ones."""
        if self._samples is None:
            self._samples = [self.sample(i) for i in range(len(self))]
        return self._samples

    def array_extents(self) -> dict:
        """The extents the arrays hold, keyed as the config fields they were
        drawn for; N_k is None without candidates. meta.json records them."""
        return {
            "d_a": self.appearance.shape[2],
            "d_o": self.objects.shape[3],
            "d_c": self.class_attr.shape[3],
            "d_t": self.sent_tokens.shape[3],
            "N_f": self.appearance.shape[1],
            "N_o": self.objects.shape[2],
            "N_s": self.sent_tokens.shape[1],
            "N_t": self.sent_tokens.shape[2],
            "N_k": None if self.candidates is None else self.candidates.shape[1],
        }

    def check_config(self, cfg: ModelConfig):
        """Raise DataError when the feature extents disagree with cfg."""
        checks = self.array_extents()
        del checks["N_k"]  # checked below, with the question setting
        for key, have in checks.items():
            want = getattr(cfg, key)
            if have != want:
                raise DataError(
                    f"dataset {key}={have} does not match config {key}={want}"
                )
        if self.candidates is not None:
            if cfg.question_setting != "MC":
                raise DataError("multiple-choice dataset but config.question_setting is OE")
            if self.candidates.shape[1] != cfg.N_k:
                raise DataError(
                    f"dataset N_k={self.candidates.shape[1]} does not match config N_k={cfg.N_k}"
                )
        elif cfg.question_setting != "OE":
            raise DataError("open-ended dataset but config.question_setting is MC")
        if self.labels.size and int(self.labels.max()) >= cfg.answer_set_size:
            raise DataError(
                f"label {int(self.labels.max())} outside answer set of {cfg.answer_set_size}"
            )


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _template_parse(n_tokens: int) -> tuple[SrlParse, tuple[int, int]]:
    """One predicate at token 1, a long argument span, and a one-token
    argument. The long span is where fine-grained text signal is planted."""
    span = (2, n_tokens - 1)
    parse = SrlParse(
        tokens=n_tokens,
        predicates=[(1, 1)],
        arguments=[
            SrlArgument(span=span, role=2, pred=0),
            SrlArgument(span=(0, 0), role=3, pred=0),
        ],
    )
    return parse, span


def _seed(value) -> int:
    """A dataset seed: a non-negative integer, numpy's included, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {value!r}")
    return int(value)


def gen_synthetic(
    spec: SyntheticTaskSpec, config: ModelConfig, seed: int | None = None
) -> SyntheticDataset:
    """Generate one dataset. Draw order is fixed; see the module docstring."""
    spec.validate()
    config.validate()
    if spec.n_classes > config.answer_set_size:
        raise ConfigError(
            f"n_classes={spec.n_classes} exceeds answer_set_size={config.answer_set_size}"
        )
    if config.N_t < 3:
        raise ConfigError("the sentence template needs N_t >= 3")
    if config.N_r < 3:
        raise ConfigError("the sentence template needs N_r >= 3 role ids")
    seed = config.seed if seed is None else _seed(seed)
    rng = np.random.default_rng([seed, 211])

    n = spec.n_samples
    nc = spec.n_classes
    noise = spec.noise_scale
    n_f, n_o, n_s, n_t = config.N_f, config.N_o, config.N_s, config.N_t
    d_a, d_o, d_c, d_t = config.d_a, config.d_o, config.d_c, config.d_t

    # 1) prototypes and fixed structures
    proto = {
        "holistic_visual": _unit_rows(rng, nc, d_a),
        "finegrained_visual": _unit_rows(rng, nc, d_c),
        "holistic_linguistic": _unit_rows(rng, nc, d_t),
        "finegrained_linguistic": _unit_rows(rng, nc, d_t),
    }
    source_markers = _unit_rows(rng, 4, d_t)
    token_basis = _unit_rows(rng, n_t, d_t)
    answer_protos = _unit_rows(rng, nc, d_t)

    # 2) background noise for every channel
    appearance = noise * rng.standard_normal((n, n_f, d_a))
    objects = noise * rng.standard_normal((n, n_f, n_o, d_o))
    class_attr = noise * rng.standard_normal((n, n_f, n_o, d_c))
    sent_tokens = noise * rng.standard_normal((n, n_s, n_t, d_t))
    question = token_basis[None, :, :] + noise * rng.standard_normal((n, n_t, d_t))

    # 3) boxes: valid random geometry inside the fixed frame
    fw, fh = FRAME_SIZE
    bw = rng.uniform(fw * 0.05, fw * 0.5, size=(n, n_f, n_o))
    bh = rng.uniform(fh * 0.05, fh * 0.5, size=(n, n_f, n_o))
    bx = rng.uniform(0.0, 1.0, size=(n, n_f, n_o)) * (fw - bw)
    by = rng.uniform(0.0, 1.0, size=(n, n_f, n_o)) * (fh - bh)
    boxes = np.stack([bx, by, bw, bh], axis=3)

    # 4) labels and planting
    parse, span = _template_parse(n_t)
    parses = [[parse] * n_s for _ in range(n)]
    lo, hi = span
    sources = None

    def plant(channel: str, classes: np.ndarray):
        p = proto[channel]
        if channel == "holistic_visual":
            appearance[np.arange(n)] += p[classes][:, None, :]
        elif channel == "finegrained_visual":
            class_attr[np.arange(n)] += p[classes][:, None, None, :]
        elif channel == "holistic_linguistic":
            sent_tokens[np.arange(n), 0, 0] += p[classes]
        elif channel == "finegrained_linguistic":
            sent_tokens[np.arange(n), 0, lo : hi + 1] += p[classes][:, None, :]

    if spec.signal_source == "question_dependent":
        per_channel = rng.integers(0, nc, size=(n, 4))
        sources = rng.integers(0, 4, size=n)
        for ch_idx, ch in enumerate(SIGNAL_SOURCES[:4]):
            plant(ch, per_channel[:, ch_idx])
        labels = per_channel[np.arange(n), sources]
        question[:, 0] += source_markers[sources]
    else:
        labels = rng.integers(0, nc, size=n)
        plant(spec.signal_source, labels)
        marker = source_markers[SIGNAL_SOURCES.index(spec.signal_source)]
        question[:, 0] += marker[None, :]

    # 5) multiple-choice candidates: answer prototypes on token 0
    candidates = correct = None
    if config.question_setting == "MC":
        n_k = config.N_k
        candidates = noise * rng.standard_normal((n, n_k, n_t, d_t))
        correct = rng.integers(0, n_k, size=n)
        wrong_draws = rng.integers(0, nc - 1, size=(n, n_k))
        for i in range(n):
            for k in range(n_k):
                if k == correct[i]:
                    c = labels[i]
                else:
                    c = wrong_draws[i, k]
                    if c >= labels[i]:
                        c += 1  # skip the true class, stay in range
                candidates[i, k, 0] += answer_protos[c]

    return SyntheticDataset(
        spec=spec,
        seed=seed,
        appearance=appearance,
        objects=objects,
        class_attr=class_attr,
        boxes=boxes,
        sent_tokens=sent_tokens,
        question=question,
        labels=labels.astype(np.int64),
        parses=parses,
        signal_span=span,
        sources=sources,
        candidates=candidates,
        correct=None if correct is None else correct.astype(np.int64),
    )


# ---------------------------------------------------------------------------
# on-disk format: one directory, plain .npy arrays + JSONL parses + meta

_ARRAY_FILES = [
    "appearance", "objects", "class_attr", "boxes",
    "sent_tokens", "question", "labels",
]

# rank of each array, and for each axis the name that ties its extent to
# the other arrays' (None: free)
_LAYOUT = {
    "appearance": ("n", "N_f", None),
    "objects": ("n", "N_f", "N_o", None),
    "class_attr": ("n", "N_f", "N_o", None),
    "boxes": ("n", "N_f", "N_o", "4"),
    "sent_tokens": ("n", None, "N_t", "d_t"),
    "question": ("n", "N_t", "d_t"),
    "labels": ("n",),
    "candidates": ("n", "N_k", "N_t", "d_t"),
    "correct": ("n",),
    "sources": ("n",),
}
_INDEX_ARRAYS = ("labels", "correct", "sources")


def save_dataset(ds: SyntheticDataset, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    meta = {
        "format": DATASET_FORMAT,
        "spec": ds.spec.to_dict(),
        "extents": ds.array_extents(),
        "seed": ds.seed,
        "frame_size": list(FRAME_SIZE),
        "signal_span": list(ds.signal_span),
        "has_candidates": ds.candidates is not None,
        "has_sources": ds.sources is not None,
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True, separators=(",", ":"))
    for name in _ARRAY_FILES:
        np.save(os.path.join(out_dir, f"{name}.npy"), getattr(ds, name))
    if ds.candidates is not None:
        np.save(os.path.join(out_dir, "candidates.npy"), ds.candidates)
        np.save(os.path.join(out_dir, "correct.npy"), ds.correct)
    if ds.sources is not None:
        np.save(os.path.join(out_dir, "sources.npy"), ds.sources)
    with open(os.path.join(out_dir, "parses.jsonl"), "w", encoding="utf-8") as f:
        for per_sample in ds.parses:
            for parse in per_sample:
                f.write(json.dumps(parse.to_dict(), sort_keys=True, separators=(",", ":")))
                f.write("\n")


def _check_layout(arrays: dict):
    """Raise DataError unless every array has its documented rank, a real
    dtype (integers for the index arrays) and extents that agree, and
    every index lies in range."""
    extents = {"4": 4}
    for name, arr in arrays.items():
        axes = _LAYOUT[name]
        kinds = "iu" if name in _INDEX_ARRAYS else "iuf"
        if arr.dtype.kind not in kinds:
            raise DataError(f"dataset array {name} has unsupported dtype {arr.dtype}")
        if arr.ndim != len(axes):
            raise DataError(
                f"dataset array {name} has shape {arr.shape}, expected rank {len(axes)}"
            )
        for axis, size in zip(axes, arr.shape):
            if axis is not None and extents.setdefault(axis, size) != size:
                raise DataError(
                    f"dataset array {name} has shape {arr.shape}: its {axis} axis "
                    f"is {size}, other arrays have {extents[axis]}"
                )
    # labels are capped by the answer set in check_config; sources name
    # one of the four planted channels
    caps = {"labels": None, "correct": extents.get("N_k"), "sources": 4}
    for name, cap in caps.items():
        arr = arrays.get(name)
        if arr is not None and arr.size and (arr.min() < 0 or cap and arr.max() >= cap):
            raise DataError(f"dataset array {name} holds an out-of-range index")


def load_dataset(data_dir: str) -> SyntheticDataset:
    """Read a directory written by save_dataset. Every malformed or
    inconsistent file raises DataError."""
    meta_path = os.path.join(data_dir, "meta.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as f:
            meta = json.load(f)
    except OSError as e:
        raise DataError(f"cannot read dataset meta {meta_path}: {e}") from e
    except ValueError as e:  # bad JSON or bad UTF-8
        raise DataError(f"dataset meta is not valid JSON: {e}") from e
    if not isinstance(meta, dict):
        raise DataError("dataset meta must be a JSON object")
    if meta.get("format") != DATASET_FORMAT:
        raise DataError(f"unsupported dataset format {meta.get('format')!r}")
    try:
        spec = SyntheticTaskSpec.from_dict(meta["spec"])
        seed = _seed(meta["seed"])
        lo, hi = (int(v) for v in meta["signal_span"])
        frame_size = meta["frame_size"]
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"malformed dataset meta: {e!r}") from e
    if frame_size != list(FRAME_SIZE):
        raise DataError(f"dataset frame_size {frame_size!r} is not {list(FRAME_SIZE)}")

    def load_arr(name):
        path = os.path.join(data_dir, f"{name}.npy")
        try:
            # memory-mapped first, so a header that claims more data than
            # the file holds fails before anything is allocated
            return np.array(np.load(path, mmap_mode="r"))
        except OSError as e:
            raise DataError(f"missing dataset array {path}: {e}") from e
        except (ValueError, EOFError, SyntaxError, tokenize.TokenError) as e:
            # what numpy raises on a corrupted header or body
            raise DataError(f"malformed dataset array {path}: {e!r}") from e

    names = list(_ARRAY_FILES)
    if meta.get("has_candidates"):
        names += ["candidates", "correct"]
    if meta.get("has_sources"):
        names.append("sources")
    arrays = {name: load_arr(name) for name in names}
    _check_layout(arrays)
    n = arrays["labels"].shape[0]
    if n == 0:
        raise DataError("dataset holds no samples")
    if n != spec.n_samples:
        raise DataError(f"dataset arrays hold {n} samples, but meta.json's spec says {spec.n_samples}")
    n_s = arrays["sent_tokens"].shape[1]
    parses_flat = []
    try:
        with open(os.path.join(data_dir, "parses.jsonl"), "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    parses_flat.append(SrlParse.from_dict(json.loads(line)))
    except OSError as e:
        raise DataError(f"cannot read parses: {e}") from e
    except ValueError as e:  # bad JSON or bad UTF-8
        raise DataError(f"malformed parses.jsonl: {e}") from e
    if len(parses_flat) != n * n_s:
        raise DataError(
            f"parses.jsonl has {len(parses_flat)} records, expected {n * n_s}"
        )
    parses = [parses_flat[i * n_s : (i + 1) * n_s] for i in range(n)]
    n_t = arrays["sent_tokens"].shape[2]
    if not 0 <= lo <= hi < n_t:
        raise DataError(f"signal_span [{lo}, {hi}] out of range for {n_t} tokens")

    ds = SyntheticDataset(
        spec=spec,
        seed=seed,
        appearance=arrays["appearance"],
        objects=arrays["objects"],
        class_attr=arrays["class_attr"],
        boxes=arrays["boxes"],
        sent_tokens=arrays["sent_tokens"],
        question=arrays["question"],
        labels=arrays["labels"],
        parses=parses,
        signal_span=(lo, hi),
        sources=arrays.get("sources"),
        candidates=arrays.get("candidates"),
        correct=arrays.get("correct"),
    )
    if meta.get("extents") != ds.array_extents():
        raise DataError(f"meta.json's extents {meta.get('extents')} do not match "
                        f"the arrays' {ds.array_extents()}")
    return ds
