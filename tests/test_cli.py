"""Command-line interface tests.

Each subcommand runs in-process through main(argv) against temp
directories. Exit codes are part of the contract: 0 success, 2 config
error, 3 data error (including unreadable checkpoints), 4 numeric failure.
"""
import json

import numpy as np
import pytest

from livlr.checkpoint import save_checkpoint
from livlr.cli import main
from livlr.config import tiny_config
from livlr.data import load_dataset
from livlr.model import Model

MICRO = dict(
    d=4, d_a=3, d_o=3, d_c=3, d_t=3,
    N_f=1, N_o=2, N_s=1, N_t=3, N_r=3, N_n=1, N_h=1, N_k=2,
    answer_set_size=2, d_h=4, epochs=2, batch_size=4,
)


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(tiny_config(**overrides).to_canonical_json(), encoding="utf-8")
    return str(path)


def write_spec(tmp_path, name="task.json", **kw):
    spec = {"n_samples": 6, "signal_source": "holistic_visual",
            "noise_scale": 0.1, "n_classes": 2}
    spec.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def gen_micro_dataset(tmp_path, **spec_kw):
    cfg = write_config(tmp_path, **MICRO)
    spec = write_spec(tmp_path, **spec_kw)
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg, "--spec", spec, "--out", data, "--seed", "1"]) == 0
    return cfg, data


# ---------------------------------------------------------------------------
# happy paths


def test_gen_data_writes_a_loadable_dataset(tmp_path, capsys):
    _, data = gen_micro_dataset(tmp_path)
    out = capsys.readouterr().out
    assert "wrote 6 samples" in out
    ds = load_dataset(data)
    assert len(ds) == 6


def test_gen_data_accepts_a_preset(tmp_path):
    spec = write_spec(tmp_path)
    data = str(tmp_path / "data")
    assert main(["gen-data", "--preset", "tiny", "--spec", spec, "--out", data]) == 0
    assert len(load_dataset(data)) == 6


def test_train_then_eval_round_trip(tmp_path, capsys):
    cfg, data = gen_micro_dataset(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", data, "--out-dir", str(run)]) == 0
    assert "trained 2 epochs" in capsys.readouterr().out
    for name in ("config.json", "metrics.csv", "checkpoint.lvlr"):
        assert (run / name).exists(), name
    code = main(["eval", "--checkpoint", str(run / "checkpoint.lvlr"), "--data", data])
    assert code == 0
    out = capsys.readouterr().out
    assert "loss=" in out and "acc=" in out


def test_train_stop_at_acc(tmp_path, capsys):
    cfg, data = gen_micro_dataset(tmp_path)
    run = tmp_path / "run"
    code = main(
        ["train", "--config", cfg, "--data", data, "--out-dir", str(run),
         "--stop-at-acc", "0.0"]
    )
    assert code == 0
    assert "trained 1 epochs" in capsys.readouterr().out


def test_grad_check_reports_every_tensor(tmp_path, capsys):
    cfg = write_config(tmp_path, **MICRO)
    code = main(["grad-check", "--config", cfg, "--batch-size", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if "max_rel_err=" in l]
    assert len(lines) >= 10
    assert all(l.endswith("ok") for l in lines)
    assert "within" in out.splitlines()[-1]


def test_param_count_totals_match(tmp_path, capsys):
    assert main(["param-count", "--preset", "tiny"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = {}
    for line in out:
        name, value = line.rsplit(None, 1)
        rows[name.strip()] = int(value.replace(",", ""))
    assert "total" in rows
    assert sum(v for k, v in rows.items() if k != "total") == rows["total"]
    assert {"visual", "linguistic", "question", "davl"} <= set(rows)


def test_sweep_nh_writes_summary_and_run_dirs(tmp_path, capsys):
    cfg, data = gen_micro_dataset(tmp_path)
    out_dir = tmp_path / "sweep"
    code = main(
        ["sweep-nh", "--config", cfg, "--data", data, "--out-dir", str(out_dir),
         "--values", "1,2", "--stop-at-acc", "0.0"]
    )
    assert code == 0
    summary = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
    assert [r["n_heads"] for r in summary] == [1, 2]
    for r in summary:
        assert 0.0 <= r["train_acc"] <= 1.0
    for n_h in (1, 2):
        assert (out_dir / f"nh_{n_h}" / "metrics.csv").exists()
        run_cfg = json.loads((out_dir / f"nh_{n_h}" / "config.json").read_text())
        assert run_cfg["N_h"] == n_h
    printed = capsys.readouterr().out
    assert "n_heads=  1" in printed and "n_heads=  2" in printed


# ---------------------------------------------------------------------------
# exit codes


def test_bad_config_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid", encoding="utf-8")
    spec = write_spec(tmp_path)
    code = main(["gen-data", "--config", str(bad), "--spec", spec, "--out", str(tmp_path / "d")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("lr", "0.1"), ("N_h", True)])
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, field, value):
    d = tiny_config().to_dict()
    d[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d), encoding="utf-8")
    assert main(["param-count", "--config", str(bad)]) == 2
    assert f"config error: {field} must be" in capsys.readouterr().err


def test_missing_config_and_preset_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path)
    code = main(["gen-data", "--spec", spec, "--out", str(tmp_path / "d")])
    assert code == 2


def test_overfull_class_count_exits_2(tmp_path):
    cfg = write_config(tmp_path, **MICRO)  # answer set of 2
    spec = write_spec(tmp_path, n_classes=3)
    code = main(["gen-data", "--config", cfg, "--spec", spec, "--out", str(tmp_path / "d")])
    assert code == 2


@pytest.mark.parametrize("field,value", [("noise_scale", float("nan")), ("n_samples", 1e400)])
def test_non_finite_spec_value_exits_2_and_writes_nothing(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, **MICRO)
    spec = write_spec(tmp_path, **{field: value})  # json writes NaN and Infinity
    out = tmp_path / "d"
    assert main(["gen-data", "--config", cfg, "--spec", spec, "--out", str(out)]) == 2
    assert f"config error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, **MICRO)
    out = tmp_path / "d"
    argv = ["gen-data", "--config", cfg, "--spec", write_spec(tmp_path), "--out", str(out)]
    assert main(argv + ["--seed", "-1"]) == 2
    assert "config error: seed must be" in capsys.readouterr().err
    assert not out.exists()
    assert main(["grad-check", "--config", cfg, "--seed", "-1"]) == 2
    assert "config error: seed must be" in capsys.readouterr().err


def test_grad_check_batch_size_error_names_batch_size(tmp_path, capsys):
    cfg = write_config(tmp_path, **MICRO)
    assert main(["grad-check", "--config", cfg, "--batch-size", "0"]) == 2
    assert "config error: batch_size must be" in capsys.readouterr().err


def test_sweep_nh_non_integer_value_exits_2(tmp_path, capsys):
    cfg, data = gen_micro_dataset(tmp_path)
    out_dir = tmp_path / "sweep"
    argv = ["sweep-nh", "--config", cfg, "--data", data, "--out-dir", str(out_dir)]
    assert main(argv + ["--values", "2,x"]) == 2
    assert "config error: --values must be" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_nh_repeated_value_exits_2(tmp_path, capsys):
    # a repeated head count would train twice into one nh_<N_h> directory
    cfg, data = gen_micro_dataset(tmp_path)
    out_dir = tmp_path / "sweep"
    argv = ["sweep-nh", "--config", cfg, "--data", data, "--out-dir", str(out_dir)]
    assert main(argv + ["--values", "1,2,1", "--stop-at-acc", "0.0"]) == 2
    assert "config error: --values repeats head counts [1]" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_nh_checks_every_head_count_before_training(tmp_path, capsys):
    # tiny has d = 8: 2 heads divide it and 3 do not, so nothing may train
    spec = write_spec(tmp_path)
    data = str(tmp_path / "data")
    assert main(["gen-data", "--preset", "tiny", "--spec", spec, "--out", data]) == 0
    out_dir = tmp_path / "sweep"
    code = main(["sweep-nh", "--preset", "tiny", "--data", data, "--out-dir", str(out_dir),
                 "--values", "2,3", "--stop-at-acc", "0.0"])
    assert code == 2
    assert "config error: N_h=3 must divide d=8" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_dataset_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, **MICRO)
    code = main(["train", "--config", cfg, "--data", str(tmp_path / "absent"),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_config_extent_mismatch_exits_3(tmp_path):
    _, data = gen_micro_dataset(tmp_path)
    other = write_config(tmp_path, name="other.json", **{**MICRO, "N_f": 2})
    code = main(["train", "--config", other, "--data", data,
                 "--out-dir", str(tmp_path / "run")])
    assert code == 3


def test_malformed_dataset_exits_3(tmp_path, capsys):
    cfg, data = gen_micro_dataset(tmp_path)
    np.save(f"{data}/sent_tokens.npy", np.zeros(4))
    code = main(["train", "--config", cfg, "--data", data, "--out-dir", str(tmp_path / "run")])
    assert code == 3
    assert "sent_tokens" in capsys.readouterr().err


def test_eval_on_a_dataset_with_no_samples_exits_3(tmp_path, capsys):
    _, data = gen_micro_dataset(tmp_path)
    ckpt = str(tmp_path / "model.lvlr")
    config = tiny_config(**MICRO)
    save_checkpoint(ckpt, config, Model(config).store)
    for path in (tmp_path / "data").glob("*.npy"):
        np.save(path, np.load(path)[:0])
    (tmp_path / "data" / "parses.jsonl").write_text("", encoding="utf-8")
    code = main(["eval", "--checkpoint", ckpt, "--data", data])
    assert code == 3
    assert "data error: dataset holds no samples" in capsys.readouterr().err


def test_eval_on_a_truncated_dataset_exits_3(tmp_path, capsys):
    _, data = gen_micro_dataset(tmp_path)
    ckpt = str(tmp_path / "model.lvlr")
    config = tiny_config(**MICRO)
    save_checkpoint(ckpt, config, Model(config).store)
    for path in (tmp_path / "data").glob("*.npy"):
        np.save(path, np.load(path)[:3])
    parses = tmp_path / "data" / "parses.jsonl"
    lines = parses.read_text(encoding="utf-8").splitlines()
    parses.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
    code = main(["eval", "--checkpoint", ckpt, "--data", data])
    assert code == 3
    assert "hold 3 samples, but meta.json's spec says 6" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_3(tmp_path, capsys):
    _, data = gen_micro_dataset(tmp_path)
    fake = tmp_path / "fake.lvlr"
    fake.write_bytes(b"XXXX not a checkpoint")
    code = main(["eval", "--checkpoint", str(fake), "--data", data])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_numeric_failure_exits_4(tmp_path, capsys):
    _, data = gen_micro_dataset(tmp_path)
    cfg = write_config(tmp_path, name="hot.json", **{**MICRO, "lr": 1e200, "epochs": 3})
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", cfg, "--data", data,
                     "--out-dir", str(tmp_path / "run")])
    assert code == 4
    assert "numeric error" in capsys.readouterr().err
