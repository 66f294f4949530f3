"""Checkpoint format tests.

The binary layout is pinned by a hand-assembled byte string built with
struct, independent of the writer. Round trips must be byte-identical in
both precisions (values are stored as float32, and float32 -> float64 ->
float32 is exact). Every corruption mode must surface as CheckpointError,
and shape mismatches must name the offending tensor.
"""
import errno
import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import livlr.checkpoint
from livlr.checkpoint import (
    MAGIC,
    VERSION,
    apply_checkpoint,
    deserialize_params,
    load_checkpoint,
    load_model_from,
    save_checkpoint,
    serialize_params,
)
from livlr.config import ModelConfig, tiny_config
from livlr.errors import CheckpointError, ConfigError, ShapeError
from livlr.model import Model
from livlr.optim import ParamStore
from livlr.tensor import Tensor


def store_with(arrays: dict) -> ParamStore:
    store = ParamStore()
    for name, data in arrays.items():
        store.add(name, Tensor(np.asarray(data, dtype=np.float64), requires_grad=True))
    return store


# ---------------------------------------------------------------------------
# layout pinned against a hand-built byte string


def test_single_tensor_layout_matches_hand_assembly():
    # values chosen exactly representable in float32
    w = np.array([[1.5, -2.0], [0.25, 3.0]])
    blob = serialize_params("{}", store_with({"w": w}))

    expect = b"".join([
        b"LVLR",
        struct.pack("<I", 1),        # version
        struct.pack("<I", 2), b"{}",  # config JSON
        struct.pack("<I", 1),        # tensor count
        struct.pack("<I", 1), b"w",  # name
        struct.pack("<I", 2),        # rank
        struct.pack("<Q", 2), struct.pack("<Q", 2),
        w.astype("<f4").tobytes(),
    ])
    assert blob == expect


def test_tensors_are_written_in_name_order():
    blob = serialize_params(
        "{}", store_with({"b": np.zeros(1), "a": np.ones(1), "c": np.zeros(1)})
    )
    assert blob.index(b"\x01\x00\x00\x00a") < blob.index(b"\x01\x00\x00\x00b")
    assert blob.index(b"\x01\x00\x00\x00b") < blob.index(b"\x01\x00\x00\x00c")


def test_deserialize_inverts_serialize():
    rng = np.random.default_rng(0)
    arrays = {
        "layer.w": rng.standard_normal((3, 4)),
        "layer.b": rng.standard_normal(4),
        "scalar": rng.standard_normal(()),
    }
    cfg_json, tensors = deserialize_params(serialize_params('{"d": 8}', store_with(arrays)))
    assert cfg_json == '{"d": 8}'
    assert set(tensors) == set(arrays)
    for name in arrays:
        assert tensors[name].dtype == np.float32
        assert np.array_equal(tensors[name], arrays[name].astype(np.float32))


# ---------------------------------------------------------------------------
# round trips


def _round_trip_bytes(dtype, tmp_path):
    rng = np.random.default_rng(3)
    store = ParamStore()
    for name, shape in [("a.w", (4, 3)), ("b.v", (5,)), ("c.m", (2, 2, 2))]:
        store.add(
            name,
            Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True),
        )
    p1 = tmp_path / "one.lvlr"
    p2 = tmp_path / "two.lvlr"
    save_checkpoint(p1, "{}", store)
    cfg_json, tensors = load_checkpoint(p1)
    fresh = ParamStore()
    for name, p in store.items():
        fresh.add(name, Tensor(np.zeros_like(p.data), requires_grad=True))
    apply_checkpoint(fresh, tensors)
    save_checkpoint(p2, cfg_json, fresh)
    return p1.read_bytes(), p2.read_bytes()


def test_save_load_save_is_byte_identical_double(tmp_path):
    a, b = _round_trip_bytes(np.float64, tmp_path)
    assert a == b


def test_save_load_save_is_byte_identical_single(tmp_path):
    a, b = _round_trip_bytes(np.float32, tmp_path)
    assert a == b


def test_model_round_trip_restores_every_parameter(tmp_path):
    cfg = tiny_config()
    model = Model(cfg)
    path = tmp_path / "m.lvlr"
    save_checkpoint(path, cfg, model.store)
    back, back_cfg = load_model_from(path)
    assert back_cfg == cfg
    assert back.store.names() == model.store.names()
    for name, p in model.store.items():
        stored = p.data.astype(np.float32).astype(p.data.dtype)
        assert np.array_equal(back.store[name].data, stored), name


def test_config_json_survives_verbatim(tmp_path):
    cfg = tiny_config(ri_variant="RI_AT", N_h=4)
    path = tmp_path / "m.lvlr"
    save_checkpoint(path, cfg, Model(cfg).store)
    cfg_json, _ = load_checkpoint(path)
    assert cfg_json == cfg.to_canonical_json()


# ---------------------------------------------------------------------------
# corruption


def _tiny_blob():
    return serialize_params("{}", store_with({"w": np.ones((2, 2))}))


def test_bad_magic_is_rejected():
    blob = b"XXXX" + _tiny_blob()[4:]
    with pytest.raises(CheckpointError, match="magic"):
        deserialize_params(blob)


def test_unsupported_version_is_rejected():
    blob = bytearray(_tiny_blob())
    blob[4:8] = struct.pack("<I", VERSION + 1)
    with pytest.raises(CheckpointError, match="version"):
        deserialize_params(bytes(blob))


def test_truncation_anywhere_is_rejected():
    blob = _tiny_blob()
    # every strict prefix must fail, never parse or crash differently
    for cut in [0, 3, 4, 7, 8, 11, 15, len(blob) // 2, len(blob) - 1]:
        with pytest.raises(CheckpointError):
            deserialize_params(blob[:cut])


def test_corrupted_rank_is_rejected():
    # rank 302 reads the 600 floats as 300 more dims near 4.6e18 each; their
    # product has thousands of digits
    blob = bytearray(serialize_params("{}", store_with({"w": np.ones((1, 600))})))
    rank_at = 4 + 4 + 4 + 2 + 4 + 4 + 1  # magic .. config, count, name
    assert struct.unpack_from("<I", blob, rank_at)[0] == 2
    struct.pack_into("<I", blob, rank_at, 302)
    with pytest.raises(CheckpointError, match="rank 302"):
        deserialize_params(bytes(blob))


def test_trailing_bytes_are_rejected():
    with pytest.raises(CheckpointError, match="trailing"):
        deserialize_params(_tiny_blob() + b"\x00")


def test_non_utf8_text_is_rejected():
    blob = serialize_params('{"k":1}', store_with({"w": np.ones(2)}))
    cfg_at = 12  # magic, version, config length
    name_at = cfg_at + 7 + 4 + 4  # config, tensor count, name length
    assert blob[name_at : name_at + 1] == b"w"
    for at, what in ((cfg_at, "config JSON"), (name_at, "tensor name")):
        bad = bytearray(blob)
        bad[at] = 0xFF
        with pytest.raises(CheckpointError, match=f"{what} is not valid UTF-8"):
            deserialize_params(bytes(bad))


def test_repeated_tensor_name_is_rejected():
    blob = serialize_params("{}", store_with({"a": np.ones(2), "b": np.zeros(2)}))
    at = blob.rindex(b"b")
    with pytest.raises(CheckpointError, match="'a' appears twice"):
        deserialize_params(blob[:at] + b"a" + blob[at + 1 :])


_MODEL_BLOB = serialize_params(tiny_config().to_canonical_json(), Model(tiny_config()).store)


def _header_offsets(blob):
    """Offsets of every byte that is not float data: the header, the config
    JSON and each tensor's name, rank and dims."""
    cfg_end = 12 + struct.unpack_from("<I", blob, 8)[0]
    count = struct.unpack_from("<I", blob, cfg_end)[0]
    offsets, pos = list(range(cfg_end + 4)), cfg_end + 4
    for _ in range(count):
        n = struct.unpack_from("<I", blob, pos)[0]
        rank = struct.unpack_from("<I", blob, pos + 4 + n)[0]
        dims = struct.unpack_from(f"<{rank}Q", blob, pos + 8 + n)
        end = pos + 8 + n + 8 * rank
        offsets.extend(range(pos, end))
        pos = end + 4 * math.prod(dims)
    assert pos == len(blob)
    return offsets


_offset = st.one_of(
    st.integers(0, len(_MODEL_BLOB) - 1), st.sampled_from(_header_offsets(_MODEL_BLOB))
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cut=st.none() | st.integers(0, len(_MODEL_BLOB) - 1),
    flips=st.lists(st.tuples(_offset, st.integers(1, 255)), max_size=6),
)
def test_corrupted_model_checkpoint_raises_only_checkpoint_errors(cut, flips):
    blob = bytearray(_MODEL_BLOB)
    for at, mask in flips:
        blob[at] ^= mask
    if cut is not None:
        del blob[cut:]
    try:
        deserialize_params(bytes(blob))
    except CheckpointError:
        pass


def test_missing_file_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.lvlr")


def test_magic_constant_is_fixed():
    assert MAGIC == b"LVLR" and VERSION == 1


# ---------------------------------------------------------------------------
# applying to a model


def test_apply_rejects_name_set_mismatch():
    src = store_with({"a": np.ones(2), "b": np.ones(2)})
    _, tensors = deserialize_params(serialize_params("{}", src))
    with pytest.raises(CheckpointError, match="names"):
        apply_checkpoint(store_with({"a": np.ones(2)}), tensors)
    with pytest.raises(CheckpointError, match="names"):
        apply_checkpoint(
            store_with({"a": np.ones(2), "b": np.ones(2), "c": np.ones(2)}), tensors
        )


def test_cross_config_load_names_the_bad_tensor(tmp_path):
    # same parameter names, different widths: the restore must fail with a
    # ShapeError that names the first offending tensor
    cfg_a = tiny_config()
    cfg_b = tiny_config(d=16, d_h=16)
    path = tmp_path / "a.lvlr"
    save_checkpoint(path, cfg_a, Model(cfg_a).store)
    _, tensors = load_checkpoint(path)
    other = Model(cfg_b)
    with pytest.raises(ShapeError, match=r"tensor '"):
        apply_checkpoint(other.store, tensors)


def test_checkpoint_that_does_not_fit_its_own_config_names_the_tensor(tmp_path):
    # tensors of a 4-answer tiny model under an embedded config that says 5
    # answers: the load is a CheckpointError naming the tensor, chained from
    # the ShapeError of the restore
    path = tmp_path / "mismatch.lvlr"
    save_checkpoint(path, tiny_config(answer_set_size=5), Model(tiny_config()).store)
    with pytest.raises(CheckpointError, match=r"tensor 'head\.") as info:
        load_model_from(path)
    assert isinstance(info.value.__cause__, ShapeError)


def test_applied_values_round_to_float32():
    val = np.array([0.1, 0.2, 0.3])  # not representable in float32
    _, tensors = deserialize_params(serialize_params("{}", store_with({"v": val})))
    dst = store_with({"v": np.zeros(3)})
    apply_checkpoint(dst, tensors)
    assert np.array_equal(dst["v"].data, val.astype(np.float32).astype(np.float64))
    assert not np.array_equal(dst["v"].data, val)


# ---------------------------------------------------------------------------
# crash-safe writes


class _HalfThenDiskFull:
    """A file that takes half of a write, then fails as a full disk would."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def _fail_replace(src, dst):
    raise OSError(errno.EIO, "rename failed")


@pytest.mark.parametrize("fault", ["write", "replace"])
def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch, fault):
    path = tmp_path / "model.lvlr"
    save_checkpoint(path, tiny_config(), Model(tiny_config()).store)
    before = path.read_bytes()
    if fault == "write":
        monkeypatch.setattr(
            livlr.checkpoint, "open", lambda *a: _HalfThenDiskFull(open(*a)), raising=False
        )
    else:
        monkeypatch.setattr(os, "replace", _fail_replace)
    cfg = tiny_config(seed=1)
    with pytest.raises(OSError):
        save_checkpoint(path, cfg, Model(cfg).store)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.lvlr"]


# ---------------------------------------------------------------------------
# retired config keys


def _assert_retired_key_rejected(tmp_path, key, value):
    # configs and checkpoints written while a retired field existed carry
    # its key; they must fail loudly, never build a model without it
    old = tiny_config().to_dict()
    old[key] = value
    old_json = json.dumps(old, sort_keys=True, separators=(",", ":"))
    with pytest.raises(ConfigError, match=key):
        ModelConfig.from_json(old_json)
    path = tmp_path / "old.lvlr"
    save_checkpoint(path, old_json, Model(tiny_config()).store)
    with pytest.raises(ConfigError, match=key):
        load_model_from(path)


@pytest.mark.parametrize("value", [False, True])
def test_retired_attention_gcn_key_is_rejected(tmp_path, value):
    _assert_retired_key_rejected(tmp_path, "davl_attention_gcn", value)


@pytest.mark.parametrize(
    "key,value",
    [("gcn_layers", 1), ("gcn_layers", 2), ("davl_gcn_normalize", True),
     ("davl_gcn_normalize", False)],
)
def test_retired_layer_keys_are_rejected(tmp_path, key, value):
    # every model ran one graph layer with mean aggregation; both fields
    # went when those became constants
    _assert_retired_key_rejected(tmp_path, key, value)
