"""A numeric fingerprint of the model: what a seeded run computes, bit for bit.

Each case is a seeded 2-epoch ``train`` on 19 question-dependent samples,
so the last batch of each epoch is partial, for one of the ``tiny`` and
``desk`` presets, both question settings and the four integration
variants. Its digest holds each epoch's training loss and accuracy as
``float.hex``, the sha256 of the saved checkpoint, the ``evaluate`` loss
and accuracy and every ``Model.predict``. ``--audit`` adds criterion 1's per-tensor
``max_rel_err`` values (about a minute more).

    python tests/fingerprint.py --write            # regenerate fingerprints.json
    python tests/fingerprint.py --diff OLD NEW     # how far two fingerprints differ;
                                                   # exits 1 if any bit did

A change that moves the numbers on purpose regenerates the committed file
with ``--write`` and quotes ``--diff`` old against new.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from livlr import SyntheticTaskSpec, evaluate, gen_synthetic, grad_check, train  # noqa: E402
from livlr.config import PRESETS, QUESTION_SETTINGS, RI_VARIANTS  # noqa: E402

PINNED = Path(__file__).resolve().parent / "fingerprints.json"
SEED = 3
TASK = SyntheticTaskSpec(
    n_samples=19, signal_source="question_dependent", noise_scale=0.1, n_classes=4
)
CASES = [(preset, setting, variant) for preset in ("tiny", "desk")
         for setting in QUESTION_SETTINGS for variant in RI_VARIANTS]


def case_data(preset: str, setting: str, variant: str):
    """The case's config and dataset."""
    cfg = PRESETS[preset](question_setting=setting, ri_variant=variant, epochs=2, seed=SEED)
    return cfg, gen_synthetic(TASK, cfg, seed=SEED)


def case_digest(preset: str, setting: str, variant: str) -> dict:
    cfg, ds = case_data(preset, setting, variant)
    with tempfile.TemporaryDirectory() as out:
        result = train(cfg, ds, out_dir=out)
        with open(os.path.join(out, "checkpoint.lvlr"), "rb") as f:
            checkpoint = hashlib.sha256(f.read()).hexdigest()
    model = result.model
    ev = evaluate(model, ds)
    return {
        "train_loss": [m.train_loss.hex() for m in result.metrics],
        "train_acc": [m.train_acc.hex() for m in result.metrics],
        "checkpoint_sha256": checkpoint,
        "eval_loss": float(ev["loss"]).hex(),
        "eval_accuracy": float(ev["accuracy"]).hex(),
        "predict": " ".join(str(model.predict(s)) for s in ds.samples()),
    }


def audit_digest() -> dict:
    """Criterion 1's max_rel_err per tensor, for its 8 combos."""
    out = {}
    for setting in QUESTION_SETTINGS:
        for variant in RI_VARIANTS:
            cfg = PRESETS["tiny"](question_setting=setting, ri_variant=variant)
            report = grad_check(cfg, seed=0, batch_size=1, tolerance=1e-4)
            out[f"{setting}/{variant}"] = {e.name: e.max_rel_err.hex() for e in report.entries}
    return out


def compute(audit: bool = False) -> dict:
    fp = {
        "numpy": np.__version__,
        "cases": {"/".join(c): case_digest(*c) for c in CASES},
    }
    if audit:
        fp["audit"] = audit_digest()
    return fp


def _floats(digest: dict) -> list[float]:
    return [float.fromhex(v) for key in ("train_loss", "train_acc") for v in digest[key]] + [
        float.fromhex(digest[key]) for key in ("eval_loss", "eval_accuracy") if key in digest
    ]


def rel_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(old), abs(new))


def diff(old: dict, new: dict) -> list[str]:
    """One line per case: the largest relative change of its floats, how
    many predictions changed and whether the checkpoint bytes did. Then one
    line per audit combo, how many of its values changed, and one line per
    changed value: its combo, its tensor and its old -> new value."""
    lines = []
    for name in sorted(set(old["cases"]) | set(new["cases"])):
        a, b = old["cases"].get(name), new["cases"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'new' if a is None else 'old'}")
            continue
        worst = max(rel_change(x, y) for x, y in zip(_floats(a), _floats(b)))
        pa, pb = a["predict"].split(), b["predict"].split()
        flips = sum(x != y for x, y in zip(pa, pb))
        same_ckpt = a["checkpoint_sha256"] == b["checkpoint_sha256"]
        lines.append(f"{name}: max rel change {worst:.3e}, {flips}/{len(pa)} "
                     f"predictions changed, checkpoint {'same' if same_ckpt else 'differs'}")
    for combo in sorted(set(old.get("audit", {})) & set(new.get("audit", {}))):
        a, b = old["audit"][combo], new["audit"][combo]
        changed = [k for k in a if a[k] != b.get(k)]
        lines.append(f"audit {combo}: {len(changed)}/{len(a)} max_rel_err values changed")
        lines += [f"  {combo} {k}: {_audit_value(a[k])} -> {_audit_value(b.get(k))}" for k in changed]
    return lines


def differs(old: dict, new: dict) -> bool:
    """Whether any case digest, or any audit value of a combo both hold,
    differs."""
    shared = set(old.get("audit", {})) & set(new.get("audit", {}))
    return old["cases"] != new["cases"] or any(old["audit"][c] != new["audit"][c] for c in shared)


def _audit_value(v) -> str:
    return "missing" if v is None else repr(float.fromhex(v))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", nargs="?", const=str(PINNED), metavar="PATH",
                      help=f"compute and write the fingerprint (default {PINNED.name})")
    mode.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--audit", action="store_true", help="also record criterion 1's errors")
    args = ap.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.diff)
        print("\n".join(diff(old, new)))
        return int(differs(old, new))
    Path(args.write).write_text(json.dumps(compute(args.audit), indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
