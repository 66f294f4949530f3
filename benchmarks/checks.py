"""Correctness checks on what a workload's program calls returned.

Each ``verify_*`` takes the evidence a workload collected (plain numbers
and arrays, see ``workloads.py``) and raises ``CheckFailed`` naming the
first check that does not hold. Every reference value is computed here
from the program's outputs, or is a property of the method; none is a
stored copy of an earlier output. ``selftest.py`` feeds each check a
corrupted copy of real evidence to show that it fails.
"""
from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _require(ok: bool, check: str, detail: str):
    if not ok:
        raise CheckFailed(check, detail)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def logsumexp_loss(logits, label: int) -> float:
    """Cross-entropy of one sample in float64: log-sum-exp of the logits
    minus the labelled logit."""
    z = np.asarray(logits, dtype=np.float64)
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - z[label])


def pairwise_hinge(scores, correct: int) -> float:
    """Sum over wrong candidates k of max(0, 1 - (s_correct - s_k)), float64."""
    s = np.asarray(scores, dtype=np.float64)
    wrong = np.delete(s, correct)
    return float(np.maximum(0.0, 1.0 - (s[correct] - wrong)).sum())


def max_rel_err(a, b, floor: float = 1e-9) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float((np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)).max())


def verify_train(ev: dict):
    losses = ev["epoch_losses"]
    _require(all(math.isfinite(x) for x in losses), "finite_losses", f"epoch losses {losses}")
    uniform = math.log(ev["answer_set_size"])
    _require(losses[-1] < losses[0] and losses[-1] < uniform, "loss_decreases",
             f"last epoch {losses[-1]!r}, first {losses[0]!r}, uniform guess {uniform!r}")
    _require(ev["rerun_first_loss"] == losses[0], "first_epoch_repeats",
             f"rerun {ev['rerun_first_loss']!r} != {losses[0]!r}")
    for k, trace in enumerate(ev["round_losses"]):
        _require(trace == losses, "rounds_repeat", f"round {k} trace {trace} != {losses}")
    _require(ev["reload_error"] is None, "checkpoint_reloads", str(ev["reload_error"]))
    for i, (mem, loaded) in enumerate(zip(ev["scores"], ev["reloaded_scores"], strict=True)):
        _require(same_bits(mem, loaded), "checkpoint_scores_bitwise", f"probe sample {i}")
    for i, (loss, logits, label) in enumerate(ev["loss_cases"]):
        want = logsumexp_loss(logits, label)
        _require(abs(loss - want) <= 1e-5 * max(1.0, abs(want)), "loss_is_logsumexp",
                 f"probe sample {i}: program {loss!r}, float64 reference {want!r}")


def verify_infer(ev: dict):
    scores, correct, preds = ev["scores"], ev["correct"], ev["predictions"]
    _require(len(preds) == len(scores) == len(correct), "one_prediction_per_sample",
             f"{len(preds)} predictions, {len(scores)} score vectors, {len(correct)} samples")
    for i, (p, s) in enumerate(zip(preds, scores)):
        _require(p == int(np.argmax(s)), "predict_is_argmax",
                 f"sample {i}: predict {p}, argmax of scores {int(np.argmax(s))}")
    hits = sum(int(p == c) for p, c in zip(preds, correct))
    ev_acc, ev_loss = ev["evaluate"]["accuracy"], ev["evaluate"]["loss"]
    _require(ev_acc == hits / len(correct), "accuracy_matches_predict",
             f"evaluate {ev_acc!r}, predict {hits}/{len(correct)}")
    want = sum(pairwise_hinge(s, c) for s, c in zip(scores, correct)) / len(correct)
    _require(abs(ev_loss - want) <= 1e-5 * max(1.0, abs(want)), "loss_is_pairwise_hinge",
             f"evaluate {ev_loss!r}, float64 hinge {want!r}")
    _require(ev["reload_error"] is None, "checkpoint_reloads", str(ev["reload_error"]))
    for i, (mem, loaded) in enumerate(zip(ev["memory_scores"], ev["reloaded_scores"], strict=True)):
        _require(same_bits(mem, loaded), "checkpoint_scores_bitwise", f"sample {i}")
    for k, (p, e) in enumerate(ev["rounds"]):
        _require(p == preds and e == ev["evaluate"], "rounds_repeat", f"round {k}")


def verify_audit(ev: dict):
    for combo in ev["combos"]:
        tag = combo["setting"]
        names = [e[0] for e in combo["entries"]]
        _require(sorted(names) == sorted(combo["param_names"]), "one_entry_per_tensor",
                 f"{tag}: {len(names)} entries for {len(combo['param_names'])} tensors")
        _require(combo["tolerance"] == ev["tolerance"], "tolerance", f"{tag}: {combo['tolerance']}")
        worst = max(e[1] for e in combo["entries"])
        _require(combo["passed"] and all(e[2] for e in combo["entries"]) and worst < ev["tolerance"],
                 "gradients_match", f"{tag}: worst relative error {worst!r}")
        err = max_rel_err(combo["integrate"], combo["oracle"])
        _require(err <= 1e-6, "integrate_matches_loop_oracle",
                 f"{tag}: max relative error {err!r}")
    for k, r in enumerate(ev["rounds"]):
        _require(r == [c["entries"] for c in ev["combos"]], "rounds_repeat", f"round {k}")
