"""Configuration tests: validation, canonical JSON, presets."""
import dataclasses
import json
import math

import numpy as np
import pytest

from livlr.config import (
    PRESETS,
    ModelConfig,
    desk_config,
    full_config,
    tiny_config,
)
from livlr.checkpoint import load_model_from, save_checkpoint
from livlr.errors import ConfigError
from livlr.model import Model


def test_presets_are_registered_and_valid():
    assert set(PRESETS) == {"tiny", "desk", "full"}
    for name, factory in PRESETS.items():
        cfg = factory()
        assert cfg.validate() is cfg, name


def test_canonical_json_has_every_field_and_sorted_keys():
    cfg = tiny_config()
    text = cfg.to_canonical_json()
    d = json.loads(text)
    field_names = {f.name for f in dataclasses.fields(ModelConfig)}
    assert set(d) == field_names
    assert list(d) == sorted(d)
    assert " " not in text  # compact separators


def test_json_round_trip_is_identity():
    for factory in (tiny_config, desk_config, full_config):
        cfg = factory()
        assert ModelConfig.from_json(cfg.to_canonical_json()) == cfg


def test_from_file_round_trip(tmp_path):
    cfg = tiny_config(ri_variant="RI_AT", seed=5)
    p = tmp_path / "cfg.json"
    p.write_text(cfg.to_canonical_json(), encoding="utf-8")
    assert ModelConfig.from_file(p) == cfg


def test_from_file_missing_path_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        ModelConfig.from_file(tmp_path / "absent.json")


def test_with_overrides_validates():
    cfg = tiny_config()
    assert cfg.with_overrides(N_h=4).N_h == 4
    with pytest.raises(ConfigError):
        cfg.with_overrides(N_h=3)  # does not divide d=8


def test_head_count_must_divide_width():
    with pytest.raises(ConfigError, match="N_h"):
        tiny_config(d=8, N_h=5)


def test_width_must_be_even():
    with pytest.raises(ConfigError, match="even"):
        tiny_config(d=7, N_h=1)


def test_enum_fields_are_validated():
    with pytest.raises(ConfigError, match="ri_variant"):
        tiny_config(ri_variant="CONCAT")
    with pytest.raises(ConfigError, match="question_setting"):
        tiny_config(question_setting="open")
    with pytest.raises(ConfigError, match="precision"):
        tiny_config(precision="half")


def test_count_fields_must_be_positive():
    for field in ("d_a", "N_f", "N_t", "epochs", "batch_size", "d_h"):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: 0})
    with pytest.raises(ConfigError, match="N_k"):
        tiny_config(N_k=1)
    with pytest.raises(ConfigError, match="answer_set_size"):
        tiny_config(answer_set_size=1)


def test_optimizer_fields_are_validated():
    with pytest.raises(ConfigError, match="lr"):
        tiny_config(lr=-0.1)
    with pytest.raises(ConfigError, match="betas"):
        tiny_config(betas=(0.9, 1.0))
    with pytest.raises(ConfigError, match="eps"):
        tiny_config(eps=0.0)
    with pytest.raises(ConfigError, match="weight_decay"):
        tiny_config(weight_decay=-1e-4)
    with pytest.raises(ConfigError, match="seed"):
        tiny_config(seed=-1)


def test_precision_selects_dtype():
    assert tiny_config().dtype == np.float64
    assert tiny_config(precision="single").dtype == np.float32


def test_from_dict_rejects_unknown_and_missing_fields():
    good = json.loads(tiny_config().to_canonical_json())
    extra = dict(good, bogus=1)
    with pytest.raises(ConfigError):
        ModelConfig.from_dict(extra)
    missing = dict(good)
    del missing["d_h"]
    with pytest.raises(ConfigError):
        ModelConfig.from_dict(missing)


NUMBER_FIELDS = ("d", "N_h", "N_k", "answer_set_size", "epochs", "seed", "lr", "eps",
                 "weight_decay")
WRONG_TYPED = (
    [(f, v) for f in NUMBER_FIELDS for v in ("1", None, True, math.nan, math.inf)]
    + [("betas", v) for v in (5, "0.9", None, [0.9, "0.999"], [0.9, None], [True, 0.999],
                              [0.9, math.nan], [0.9])]
)


@pytest.mark.parametrize("field,value", WRONG_TYPED)
def test_wrong_typed_values_are_config_errors(tmp_path, field, value):
    # a string, null, bool or non-finite number is a ConfigError naming
    # the field, in a config file and in a checkpoint's embedded config
    d = tiny_config().to_dict()
    d[field] = value
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    with pytest.raises(ConfigError, match=field):
        ModelConfig.from_json(text)
    path = tmp_path / "bad.lvlr"
    save_checkpoint(path, text, Model(tiny_config()).store)
    with pytest.raises(ConfigError, match=field):
        load_model_from(path)
