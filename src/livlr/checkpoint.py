"""Binary checkpoint format.

Layout, little-endian throughout:

    magic          4 bytes  "LVLR"
    version        u32      currently 1
    config length  u32      followed by that many bytes of canonical
                            config JSON (UTF-8)
    tensor count   u32
    per tensor, in lexicographic name order:
        name length  u32, then UTF-8 name bytes
        rank         u32
        dims         u64 each
        data         float32, row-major

Values are stored as float32 regardless of the run precision; a
float32 -> float64 -> float32 round trip is exact, so save/load/save is
byte-identical in both precision modes.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import struct

import numpy as np

from .config import ModelConfig
from .errors import CheckpointError, ShapeError
from .optim import ParamStore, load_param_data

MAGIC = b"LVLR"
VERSION = 1


def serialize_params(config_json: str, store: ParamStore) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    cfg = config_json.encode("utf-8")
    buf.write(struct.pack("<I", len(cfg)))
    buf.write(cfg)
    buf.write(struct.pack("<I", len(store)))
    for name, p in store.items():
        nm = name.encode("utf-8")
        buf.write(struct.pack("<I", len(nm)))
        buf.write(nm)
        dims = p.data.shape
        buf.write(struct.pack("<I", len(dims)))
        for d in dims:
            buf.write(struct.pack("<Q", d))
        buf.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    return buf.getvalue()


def save_checkpoint(path: str, config: ModelConfig | str, store: ParamStore):
    """Write through a temp file in the same directory and rename it into
    place, so a failed or interrupted write leaves any previous file whole."""
    cfg_json = config if isinstance(config, str) else config.to_canonical_json()
    blob = serialize_params(cfg_json, store)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.read(8))[0]

    def text(self, what: str) -> str:
        raw = self.read(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{what} is not valid UTF-8: {e}") from e


def deserialize_params(blob: bytes) -> tuple[str, dict[str, np.ndarray]]:
    """Parse a checkpoint blob into (config JSON, name -> float32 array)."""
    r = _Reader(blob)
    if r.read(4) != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    cfg_json = r.text("config JSON")
    count = r.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.text("tensor name")
        if name in tensors:
            raise CheckpointError(f"tensor {name!r} appears twice")
        rank = r.u32()
        dims = tuple(r.u64() for _ in range(rank))
        n_bytes = 4 * math.prod(dims)
        if n_bytes > len(blob) - r.pos:  # corrupt dims can have thousands of digits
            raise CheckpointError(
                f"truncated checkpoint: tensor {name!r} of rank {rank} runs past the end"
            )
        raw = r.read(n_bytes)
        try:
            data = np.frombuffer(raw, dtype="<f4").reshape(dims)
        except ValueError as e:  # a zero dim lets any other dim through the read
            raise CheckpointError(f"tensor {name!r} has unsupported dims {dims}: {e}") from e
        tensors[name] = data
    if r.pos != len(blob):
        raise CheckpointError(f"{len(blob) - r.pos} trailing bytes after tensor data")
    return cfg_json, tensors


def load_checkpoint(path: str) -> tuple[str, dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    return deserialize_params(blob)


def apply_checkpoint(store: ParamStore, tensors: dict[str, np.ndarray]):
    """Copy stored values into a model's parameters. Name sets must match
    exactly; shape mismatches raise naming the offending tensor."""
    want = set(store.names())
    have = set(tensors)
    if want != have:
        missing = sorted(want - have)
        extra = sorted(have - want)
        raise CheckpointError(
            f"tensor names do not match the model (missing {missing[:3]}, "
            f"unexpected {extra[:3]})"
        )
    for name in store.names():
        load_param_data(store, name, tensors[name])


def load_model_from(path: str):
    """Rebuild a Model from a checkpoint's embedded config and weights.
    A tensor whose shape does not fit that config raises CheckpointError
    naming it.

    Returns (model, config)."""
    from .model import Model

    cfg_json, tensors = load_checkpoint(path)
    config = ModelConfig.from_json(cfg_json)
    model = Model(config)
    try:
        apply_checkpoint(model.store, tensors)
    except ShapeError as e:
        raise CheckpointError(f"checkpoint does not fit its own config: {e}") from e
    return model, config
