"""Synthetic task generator tests.

Determinism is pinned at the byte level: regenerating a dataset from the
same (spec, config, seed) triple and saving it must produce identical
files. Signal placement is verified by reading the raw channels directly,
and the label must be recoverable from the planted channel alone: the
nearest-centroid probe has to score 100% on noise-free data in every
signal mode.
"""
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from livlr.config import tiny_config
from livlr.data import (
    SIGNAL_SOURCES,
    SyntheticDataset,
    SyntheticTaskSpec,
    gen_synthetic,
    load_dataset,
    probe_accuracy,
    save_dataset,
    signal_features,
)
from livlr.errors import ConfigError, DataError


def spec_for(source, n=32, noise=0.0, n_classes=4):
    return SyntheticTaskSpec(
        n_samples=n, signal_source=source, noise_scale=noise, n_classes=n_classes
    )


# ---------------------------------------------------------------------------
# task spec validation


def test_spec_rejects_unknown_signal_source():
    with pytest.raises(ConfigError):
        spec_for("pixel_values").validate()


def test_spec_rejects_bad_counts():
    with pytest.raises(ConfigError):
        spec_for("holistic_visual", n=0).validate()
    with pytest.raises(ConfigError):
        spec_for("holistic_visual", noise=-0.1).validate()
    with pytest.raises(ConfigError):
        spec_for("holistic_visual", n_classes=1).validate()


def test_spec_dict_round_trip():
    spec = spec_for("finegrained_linguistic", n=17, noise=0.25, n_classes=3)
    again = SyntheticTaskSpec.from_dict(spec.to_dict())
    assert again == spec


def test_spec_from_dict_rejects_missing_key():
    with pytest.raises(ConfigError):
        SyntheticTaskSpec.from_dict({"n_samples": 4, "noise_scale": 0.1, "n_classes": 2})


@pytest.mark.parametrize("field,value", [
    ("n_samples", 1e400), ("n_samples", 4.7), ("n_samples", True), ("n_classes", 3.0),
    ("noise_scale", float("nan")), ("noise_scale", float("inf")), ("noise_scale", "0.1"),
])
def test_spec_from_dict_rejects_wrong_typed_values(field, value):
    # counts are integers that are not bools, the noise a finite number,
    # as ModelConfig.validate has them; nothing is truncated or coerced
    d = spec_for("holistic_visual").to_dict()
    d[field] = value
    with pytest.raises(ConfigError, match=field):
        SyntheticTaskSpec.from_dict(d)


def test_spec_from_file_rejects_bad_json(tmp_path):
    p = tmp_path / "task.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        SyntheticTaskSpec.from_file(p)


def test_gen_rejects_more_classes_than_answers():
    cfg = tiny_config()  # answer set has 4 entries
    with pytest.raises(ConfigError):
        gen_synthetic(spec_for("holistic_visual", n_classes=5), cfg, seed=0)


# ---------------------------------------------------------------------------
# determinism


def _dir_bytes(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


def test_same_seed_produces_identical_bytes(tmp_path):
    cfg = tiny_config()
    spec = spec_for("question_dependent", n=12, noise=0.3)
    a = tmp_path / "a"
    b = tmp_path / "b"
    save_dataset(gen_synthetic(spec, cfg, seed=7), a)
    save_dataset(gen_synthetic(spec, cfg, seed=7), b)
    da, db = _dir_bytes(a), _dir_bytes(b)
    assert da.keys() == db.keys()
    for name in da:
        assert da[name] == db[name], f"{name} differs between identical generations"


def test_different_seed_produces_different_data():
    cfg = tiny_config()
    spec = spec_for("holistic_visual", n=8, noise=0.3)
    a = gen_synthetic(spec, cfg, seed=1)
    b = gen_synthetic(spec, cfg, seed=2)
    assert not np.array_equal(a.appearance, b.appearance)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3"])
def test_seed_must_be_a_non_negative_integer(seed):
    cfg = tiny_config()
    spec = spec_for("holistic_visual", n=4, noise=0.1)
    # a numpy integer is the same seed as the int
    same = gen_synthetic(spec, cfg, seed=np.int64(7))
    assert same.seed == 7 and type(same.seed) is int
    assert np.array_equal(same.appearance, gen_synthetic(spec, cfg, seed=7).appearance)
    with pytest.raises(ConfigError, match="seed"):
        gen_synthetic(spec, cfg, seed=seed)


def test_seed_defaults_to_config_seed():
    cfg = tiny_config(seed=9)
    spec = spec_for("holistic_visual", n=4, noise=0.1)
    a = gen_synthetic(spec, cfg)
    b = gen_synthetic(spec, cfg, seed=9)
    assert np.array_equal(a.appearance, b.appearance)
    assert a.seed == 9


# ---------------------------------------------------------------------------
# signal placement and isolation


def test_probe_is_perfect_at_zero_noise_in_every_mode():
    cfg = tiny_config()
    for source in SIGNAL_SOURCES:
        ds = gen_synthetic(spec_for(source, n=40), cfg, seed=3)
        acc = probe_accuracy(ds)
        assert acc == 1.0, f"{source}: probe accuracy {acc} on noise-free data"


def test_probe_signature_requires_single_source():
    cfg = tiny_config()
    ds = gen_synthetic(spec_for("question_dependent", n=8), cfg, seed=0)
    with pytest.raises(DataError):
        signal_features(ds)


def test_visual_signal_leaves_text_channels_silent():
    # at noise 0 the only nonzero text content should be the fixed question
    # token basis + source marker; sentence tokens must stay exactly zero
    cfg = tiny_config()
    ds = gen_synthetic(spec_for("finegrained_visual", n=10), cfg, seed=4)
    assert np.all(ds.sent_tokens == 0.0)
    assert np.all(ds.appearance == 0.0)
    assert np.any(ds.class_attr != 0.0)
    # label-independent question content: identical across samples
    assert np.all(ds.question == ds.question[0])


def test_text_signal_leaves_visual_channels_silent():
    cfg = tiny_config()
    ds = gen_synthetic(spec_for("holistic_linguistic", n=10), cfg, seed=4)
    assert np.all(ds.appearance == 0.0)
    assert np.all(ds.class_attr == 0.0)
    assert np.any(ds.sent_tokens[:, 0, 0, :] != 0.0)
    # only sentence 0, token 0 carries the class prototype
    rest = ds.sent_tokens.copy()
    rest[:, 0, 0, :] = 0.0
    assert np.all(rest == 0.0)


def test_finegrained_text_signal_lands_on_the_argument_span():
    cfg = tiny_config()
    ds = gen_synthetic(spec_for("finegrained_linguistic", n=10), cfg, seed=4)
    lo, hi = ds.signal_span
    planted = ds.sent_tokens[:, 0, lo : hi + 1, :]
    assert np.all(np.any(planted != 0.0, axis=2))
    rest = ds.sent_tokens.copy()
    rest[:, 0, lo : hi + 1, :] = 0.0
    assert np.all(rest == 0.0)
    # same class, same planted rows
    labs = ds.labels
    i, j = np.flatnonzero(labs == labs[0])[:2]
    assert np.array_equal(planted[i], planted[j])


def test_question_dependent_marker_identifies_the_channel():
    cfg = tiny_config()
    ds = gen_synthetic(spec_for("question_dependent", n=40), cfg, seed=5)
    assert ds.sources is not None
    assert set(np.unique(ds.sources)) <= {0, 1, 2, 3}
    # noise-free: question token 0 is a pure function of the source channel
    tok0 = ds.question[:, 0, :]
    for ch in range(4):
        grp = np.flatnonzero(ds.sources == ch)
        if grp.size >= 2:
            assert np.array_equal(tok0[grp[0]], tok0[grp[1]])
    a = np.flatnonzero(ds.sources == 0)
    b = np.flatnonzero(ds.sources == 1)
    if a.size and b.size:
        assert not np.array_equal(tok0[a[0]], tok0[b[0]])


def test_labels_are_in_range_and_integer():
    cfg = tiny_config()
    for source in SIGNAL_SOURCES:
        ds = gen_synthetic(spec_for(source, n=16, noise=0.5), cfg, seed=6)
        assert ds.labels.dtype == np.int64
        assert ds.labels.min() >= 0 and ds.labels.max() < 4


# ---------------------------------------------------------------------------
# multiple choice


def test_mc_candidates_shapes_and_correct_range():
    cfg = tiny_config(question_setting="MC")
    ds = gen_synthetic(spec_for("holistic_visual", n=12, noise=0.2), cfg, seed=7)
    assert ds.candidates.shape == (12, cfg.N_k, cfg.N_t, cfg.d_t)
    assert ds.correct.shape == (12,)
    assert ds.correct.min() >= 0 and ds.correct.max() < cfg.N_k


def test_mc_wrong_candidates_never_carry_the_true_answer():
    # noise 0: candidate token 0 is exactly one answer prototype, and the
    # wrong slots must hold a different class than the correct slot
    cfg = tiny_config(question_setting="MC")
    ds = gen_synthetic(spec_for("holistic_visual", n=20), cfg, seed=8)
    for i in range(len(ds)):
        right = ds.candidates[i, ds.correct[i], 0]
        for k in range(cfg.N_k):
            if k != ds.correct[i]:
                assert not np.array_equal(ds.candidates[i, k, 0], right)


def test_mc_same_label_same_correct_candidate_content():
    cfg = tiny_config(question_setting="MC")
    ds = gen_synthetic(spec_for("holistic_visual", n=24), cfg, seed=9)
    labs = ds.labels
    i, j = np.flatnonzero(labs == labs[0])[:2]
    assert np.array_equal(
        ds.candidates[i, ds.correct[i], 0], ds.candidates[j, ds.correct[j], 0]
    )


def test_oe_dataset_has_no_candidates():
    cfg = tiny_config()
    ds = gen_synthetic(spec_for("holistic_visual", n=4), cfg, seed=0)
    assert ds.candidates is None and ds.correct is None
    s = ds.sample(0)
    assert s.label is not None and s.candidates is None and s.correct is None


def test_mc_sample_view():
    cfg = tiny_config(question_setting="MC")
    ds = gen_synthetic(spec_for("holistic_visual", n=4), cfg, seed=0)
    s = ds.sample(2)
    assert s.label is None
    assert s.candidates.shape == (cfg.N_k, cfg.N_t, cfg.d_t)
    assert s.correct == int(ds.correct[2])


# ---------------------------------------------------------------------------
# sample views are valid model inputs


def test_samples_pass_feature_validation():
    # FrameFeatures validates geometry on construction, so materializing
    # every sample checks the generated boxes are in-frame and positive
    cfg = tiny_config()
    for seed in range(3):
        ds = gen_synthetic(spec_for("holistic_visual", n=6, noise=0.4), cfg, seed=seed)
        samples = ds.samples()
        assert len(samples) == 6
        for s in samples:
            assert len(s.clip.frames) == cfg.N_f
            assert len(s.sentences) == cfg.N_s
            for toks, parse in s.sentences:
                assert toks.shape == (cfg.N_t, cfg.d_t)
                assert parse.tokens == cfg.N_t


# ---------------------------------------------------------------------------
# save / load


def test_round_trip_preserves_every_array(tmp_path):
    cfg = tiny_config()
    ds = gen_synthetic(spec_for("question_dependent", n=10, noise=0.3), cfg, seed=11)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.spec == ds.spec
    assert back.seed == ds.seed
    assert back.signal_span == ds.signal_span
    for name in ("appearance", "objects", "class_attr", "boxes", "sent_tokens", "question"):
        assert np.array_equal(getattr(back, name), getattr(ds, name)), name
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.sources, ds.sources)
    assert back.candidates is None
    assert len(back.parses) == len(ds.parses)
    for ps_a, ps_b in zip(back.parses, ds.parses):
        for a, b in zip(ps_a, ps_b):
            assert a.to_dict() == b.to_dict()


def test_round_trip_preserves_candidates(tmp_path):
    cfg = tiny_config(question_setting="MC")
    ds = gen_synthetic(spec_for("holistic_visual", n=6, noise=0.2), cfg, seed=12)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert np.array_equal(back.candidates, ds.candidates)
    assert np.array_equal(back.correct, ds.correct)
    assert back.sources is None


def test_load_missing_directory_is_a_data_error(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path / "nope")


def test_load_rejects_bad_meta_json(tmp_path):
    d = tmp_path / "ds"
    cfg = tiny_config()
    save_dataset(gen_synthetic(spec_for("holistic_visual", n=3), cfg, seed=0), d)
    (d / "meta.json").write_text("{broken", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(d)


def test_load_rejects_unknown_format_version(tmp_path):
    d = tmp_path / "ds"
    cfg = tiny_config()
    save_dataset(gen_synthetic(spec_for("holistic_visual", n=3), cfg, seed=0), d)
    meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
    meta["format"] = 99
    (d / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(d)


def test_load_rejects_missing_array(tmp_path):
    d = tmp_path / "ds"
    cfg = tiny_config()
    save_dataset(gen_synthetic(spec_for("holistic_visual", n=3), cfg, seed=0), d)
    os.remove(d / "labels.npy")
    with pytest.raises(DataError):
        load_dataset(d)


def test_load_rejects_truncated_parses(tmp_path):
    d = tmp_path / "ds"
    cfg = tiny_config()
    save_dataset(gen_synthetic(spec_for("holistic_visual", n=3), cfg, seed=0), d)
    lines = (d / "parses.jsonl").read_text(encoding="utf-8").strip().split("\n")
    (d / "parses.jsonl").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(d)


def _saved(tmp_path, setting="OE"):
    d = tmp_path / "ds"
    cfg = tiny_config(question_setting=setting)
    save_dataset(gen_synthetic(spec_for("question_dependent", n=3), cfg, seed=0), d)
    return d


def _edit_meta(d, edit):
    meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
    (d / "meta.json").write_text(json.dumps(edit(meta)), encoding="utf-8")


def test_load_rejects_wrong_rank_array(tmp_path):
    d = _saved(tmp_path)
    np.save(d / "sent_tokens.npy", np.zeros(5))
    with pytest.raises(DataError, match="sent_tokens"):
        load_dataset(d)


def test_load_rejects_meta_without_spec(tmp_path):
    d = _saved(tmp_path)
    _edit_meta(d, lambda m: {k: v for k, v in m.items() if k != "spec"})
    with pytest.raises(DataError, match="spec"):
        load_dataset(d)


def test_load_rejects_meta_that_is_not_an_object(tmp_path):
    d = _saved(tmp_path)
    _edit_meta(d, lambda m: [m])
    with pytest.raises(DataError, match="JSON object"):
        load_dataset(d)


@pytest.mark.parametrize("content", ["object", "garbage"])
def test_load_rejects_unreadable_array(tmp_path, content):
    d = _saved(tmp_path)
    if content == "object":
        np.save(d / "labels.npy", np.array([0, None, 1], dtype=object), allow_pickle=True)
    else:
        (d / "labels.npy").write_bytes(b"not an array at all")
    with pytest.raises(DataError, match="labels"):
        load_dataset(d)


def test_load_rejects_short_argument_span(tmp_path):
    d = _saved(tmp_path)
    text = (d / "parses.jsonl").read_text(encoding="utf-8")
    (d / "parses.jsonl").write_text(text.replace('"span":[0,0]', '"span":[0]', 1), encoding="utf-8")
    with pytest.raises(DataError, match="parse"):
        load_dataset(d)


def test_load_rejects_dangling_predicate_index(tmp_path):
    d = _saved(tmp_path)
    text = (d / "parses.jsonl").read_text(encoding="utf-8")
    (d / "parses.jsonl").write_text(text.replace('"pred":0', '"pred":4', 1), encoding="utf-8")
    with pytest.raises(DataError, match="predicate 4"):
        load_dataset(d)


@pytest.mark.parametrize("name,value", [("labels", -1), ("correct", 3), ("sources", 4)])
def test_load_rejects_out_of_range_index(tmp_path, name, value):
    d = _saved(tmp_path, setting="MC")
    arr = np.load(d / f"{name}.npy")
    arr[0] = value
    np.save(d / f"{name}.npy", arr)
    with pytest.raises(DataError, match=name):
        load_dataset(d)


def test_load_rejects_extents_that_disagree(tmp_path):
    d = _saved(tmp_path)
    np.save(d / "question.npy", np.load(d / "question.npy")[:, :, :2])
    with pytest.raises(DataError, match="d_t"):
        load_dataset(d)


@pytest.mark.parametrize("setting", ["OE", "MC"])
def test_load_rejects_a_dataset_with_no_samples(tmp_path, setting):
    # every array cut to 0 rows and no parses: consistent, but nothing to
    # average a loss or an accuracy over
    d = _saved(tmp_path, setting)
    for path in d.glob("*.npy"):
        np.save(path, np.load(path)[:0])
    (d / "parses.jsonl").write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="no samples"):
        load_dataset(d)


@pytest.mark.parametrize("setting", ["OE", "MC"])
def test_load_rejects_a_dataset_cut_short(tmp_path, setting):
    # every array and the parses cut to 2 of 3 samples: consistent with
    # each other, but not with the spec's sample count
    d = _saved(tmp_path, setting)
    for path in d.glob("*.npy"):
        np.save(path, np.load(path)[:2])
    lines = (d / "parses.jsonl").read_text(encoding="utf-8").splitlines()
    (d / "parses.jsonl").write_text("\n".join(lines[: 2 * len(lines) // 3]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="hold 2 samples.*says 3"):
        load_dataset(d)


def _dataset_files():
    with tempfile.TemporaryDirectory() as d:
        cfg = tiny_config(question_setting="MC")
        save_dataset(gen_synthetic(spec_for("question_dependent", n=3, noise=0.2), cfg, seed=0), d)
        return {path.name: path.read_bytes() for path in Path(d).iterdir()}


_FILES = _dataset_files()
_ARRAYS = sorted(name for name in _FILES if name.endswith(".npy"))


def _corruption(size, header):
    """An optional truncation point plus up to 6 xor flips, half of them
    drawn from the first `header` bytes."""
    offset = st.one_of(st.integers(0, size - 1), st.integers(0, min(header, size) - 1))
    return st.tuples(
        st.none() | st.integers(0, size - 1),
        st.lists(st.tuples(offset, st.integers(1, 255)), max_size=6),
    )


def _apply(blob, corruption):
    cut, flips = corruption
    blob = bytearray(blob)
    for at, mask in flips:
        blob[at] ^= mask
    return bytes(blob if cut is None else blob[:cut])


@st.composite
def _corrupted_files(draw):
    files = dict(_FILES)
    array = draw(st.sampled_from(_ARRAYS))
    for name, header in (("meta.json", 1 << 30), ("parses.jsonl", 1 << 30), (array, 128)):
        files[name] = _apply(files[name], draw(_corruption(len(files[name]), header)))
    return files


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(files=_corrupted_files())
def test_corrupted_dataset_raises_only_data_errors(files):
    # whatever load_dataset accepts must also pass the config check and
    # build every sample, or fail there with a DataError
    with tempfile.TemporaryDirectory() as d:
        for name, blob in files.items():
            with open(os.path.join(d, name), "wb") as f:
                f.write(blob)
        try:
            ds = load_dataset(d)
            ds.check_config(tiny_config(question_setting="MC"))
            ds.samples()
        except DataError:
            pass


# ---------------------------------------------------------------------------
# config compatibility


def test_check_config_accepts_matching_config():
    cfg = tiny_config()
    ds = gen_synthetic(spec_for("holistic_visual", n=4), cfg, seed=0)
    ds.check_config(cfg)  # no raise


def test_check_config_names_the_mismatched_extent():
    cfg = tiny_config()
    ds = gen_synthetic(spec_for("holistic_visual", n=4), cfg, seed=0)
    with pytest.raises(DataError, match="N_f"):
        ds.check_config(tiny_config(N_f=3))
    with pytest.raises(DataError, match="d_a"):
        ds.check_config(tiny_config(d_a=7))


def test_check_config_rejects_head_mismatch_both_ways():
    oe = gen_synthetic(spec_for("holistic_visual", n=4), tiny_config(), seed=0)
    with pytest.raises(DataError):
        oe.check_config(tiny_config(question_setting="MC"))
    mc_cfg = tiny_config(question_setting="MC")
    mc = gen_synthetic(spec_for("holistic_visual", n=4), mc_cfg, seed=0)
    with pytest.raises(DataError):
        mc.check_config(tiny_config())


def test_check_config_rejects_candidate_count_mismatch():
    mc_cfg = tiny_config(question_setting="MC")
    mc = gen_synthetic(spec_for("holistic_visual", n=4), mc_cfg, seed=0)
    with pytest.raises(DataError, match="N_k"):
        mc.check_config(tiny_config(question_setting="MC", N_k=4))


def test_check_config_rejects_out_of_range_label():
    cfg = tiny_config()
    ds = gen_synthetic(spec_for("holistic_visual", n=4), cfg, seed=0)
    ds.labels = ds.labels.copy()
    ds.labels[0] = cfg.answer_set_size
    with pytest.raises(DataError, match="answer set"):
        ds.check_config(cfg)
