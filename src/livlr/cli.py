"""Command-line entry point.

Subcommands:
  gen-data     write a synthetic dataset directory
  train        train a model on a dataset, writing config/metrics/checkpoint
  eval         evaluate a checkpoint on a dataset
  grad-check   finite-difference audit of the analytic gradients
  param-count  report trainable parameter counts per module group
  sweep-nh     train once per attention-head count and report accuracies

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numeric failure during training.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import PRESETS, ModelConfig
from .data import SyntheticTaskSpec, gen_synthetic, load_dataset, save_dataset
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .gradcheck import grad_check
from .model import Model
from .train import evaluate, train


def _load_config(args) -> ModelConfig:
    preset = getattr(args, "preset", None)
    if preset is not None:
        return PRESETS[preset]()
    path = getattr(args, "config", None)
    if path is None:
        raise ConfigError("either --config or --preset is required")
    return ModelConfig.from_file(path)


def _cmd_gen_data(args) -> int:
    config = _load_config(args)
    spec = SyntheticTaskSpec.from_file(args.spec)
    dataset = gen_synthetic(spec, config, seed=args.seed)
    save_dataset(dataset, args.out)
    print(f"wrote {spec.n_samples} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    dataset = load_dataset(args.data)
    result = train(config, dataset, out_dir=args.out_dir, stop_at_acc=args.stop_at_acc)
    print(
        f"trained {len(result.metrics)} epochs: "
        f"loss={result.final_loss:.6f} acc={result.final_acc:.4f}"
    )
    return 0


def _cmd_eval(args) -> int:
    from .checkpoint import load_model_from

    model, _ = load_model_from(args.checkpoint)
    dataset = load_dataset(args.data)
    stats = evaluate(model, dataset)
    print(f"loss={stats['loss']:.6f} acc={stats['accuracy']:.4f}")
    return 0


def _cmd_grad_check(args) -> int:
    config = _load_config(args)
    report = grad_check(config, seed=args.seed, batch_size=args.batch_size)
    for entry in report.entries:
        flag = "ok" if entry.passed else "FAIL"
        print(f"{entry.name:40s} max_rel_err={entry.max_rel_err:.3e} {flag}")
    if not report.passed:
        print(f"{len(report.failures())} tensors exceeded tolerance {report.tolerance}")
        return 4
    print(f"all {len(report.entries)} parameter tensors within {report.tolerance}")
    return 0


def _cmd_param_count(args) -> int:
    config = _load_config(args)
    model = Model(config)
    counts = model.param_count()
    for group in sorted(counts["by_module"]):
        print(f"{group:12s} {counts['by_module'][group]:>12,}")
    print(f"{'total':12s} {counts['total']:>12,}")
    return 0


def _cmd_sweep_nh(args) -> int:
    base = _load_config(args)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated integers, got {args.values!r}") from None
    if not values:
        raise ConfigError("--values must list at least one head count")
    repeated = sorted({n_h for n_h in values if values.count(n_h) > 1})
    if repeated:
        raise ConfigError(f"--values repeats head counts {repeated}; each trains into nh_<N_h>")
    # every head count is validated before the first run writes anything
    configs = [base.with_overrides(N_h=n_h) for n_h in values]
    dataset = load_dataset(args.data)
    out_root = Path(args.out_dir)
    results = []
    for n_h, config in zip(values, configs):
        run_dir = out_root / f"nh_{n_h}"
        result = train(config, dataset, out_dir=str(run_dir), stop_at_acc=args.stop_at_acc)
        results.append(
            {"n_heads": n_h, "train_acc": result.final_acc, "train_loss": result.final_loss}
        )
        print(f"n_heads={n_h:3d} acc={result.final_acc:.4f} loss={result.final_loss:.6f}")
    out_root.mkdir(parents=True, exist_ok=True)
    with open(out_root / "sweep.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="livlr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="path to a JSON model config")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named built-in config")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    add_config_args(p)
    p.add_argument("--spec", required=True, help="path to a JSON task spec")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    add_config_args(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out-dir", required=True, help="run output directory")
    p.add_argument("--stop-at-acc", type=float, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    add_config_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=2)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("param-count", help="report parameter counts")
    add_config_args(p)
    p.set_defaults(func=_cmd_param_count)

    p = sub.add_parser("sweep-nh", help="train across attention-head counts")
    add_config_args(p)
    p.add_argument("--values", required=True, help="comma-separated head counts")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stop-at-acc", type=float, default=None)
    p.set_defaults(func=_cmd_sweep_nh)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
