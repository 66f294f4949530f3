"""Shows that every correctness check can fail.

    python3 benchmarks/run.py --selftest [--seed N]

For each workload: set up, run one round, collect the evidence and check
that it passes; then corrupt one output at a time (a perturbed score
vector, a flipped prediction, a truncated checkpoint, ...) and check that
verification fails, and fails at the check the corruption targets. Prints
one line per case; exits 1 if any case behaves otherwise.
"""
from __future__ import annotations

import argparse
import copy
import shutil
import sys
import tempfile

import numpy as np

from worker import OUT, import_program


def _ulp_up(x):
    return np.nextafter(x, np.inf, dtype=np.asarray(x).dtype)


def _truncated(path: str) -> str:
    out = path + ".truncated"
    with open(path, "rb") as f:
        blob = f.read()
    with open(out, "wb") as f:
        f.write(blob[: len(blob) // 2])
    return out


def train_cases(wl, st, outputs):
    from workloads import reload_scores

    probes = [st.ds.sample(i) for i in range(wl.N_PROBES)]

    def nan_epoch(ev):
        ev["epoch_losses"][2] = float("nan")

    def loss_rises(ev):
        ev["epoch_losses"][-1] = ev["epoch_losses"][0] + 1e-3

    def rerun_differs(ev):
        ev["rerun_first_loss"] = float(_ulp_up(ev["rerun_first_loss"]))

    def round_differs(ev):
        trace = list(ev["epoch_losses"])
        trace[-1] = float(_ulp_up(trace[-1]))
        ev["round_losses"].append(trace)

    def truncated_checkpoint(ev):
        path = _truncated(outputs[-1].checkpoint_path)
        ev["reloaded_scores"], ev["reload_error"] = reload_scores(path, probes)

    def reloaded_scores_differ(ev):
        ev["reloaded_scores"][1][3] = _ulp_up(ev["reloaded_scores"][1][3])

    def perturbed_logits(ev):
        loss, logits, label = ev["loss_cases"][0]
        logits = logits.copy()
        logits[label] += 1e-3
        ev["loss_cases"][0] = (loss, logits, label)

    return [
        ("NaN epoch loss", "finite_losses", nan_epoch),
        ("last epoch loss above the first", "loss_decreases", loss_rises),
        ("rerun first epoch off by one ulp", "first_epoch_repeats", rerun_differs),
        ("a round's loss trace off by one ulp", "rounds_repeat", round_differs),
        ("truncated checkpoint", "checkpoint_reloads", truncated_checkpoint),
        ("reloaded score off by one ulp", "checkpoint_scores_bitwise", reloaded_scores_differ),
        ("perturbed logit vector", "loss_is_logsumexp", perturbed_logits),
    ]


def infer_cases(wl, st, outputs):
    from workloads import reload_scores

    def dropped_prediction(ev):
        ev["predictions"] = ev["predictions"][:-1]

    def flipped_prediction(ev):
        ev["predictions"][0] = (ev["predictions"][0] + 1) % st.cfg.N_k

    def accuracy_off(ev):
        ev["evaluate"]["accuracy"] += 1.0 / len(ev["correct"])

    def perturbed_scores(ev):
        s = ev["scores"][3]
        s[int(np.argmax(s))] += 0.1  # keeps the argmax, moves the hinge

    def truncated_checkpoint(ev):
        ev["reloaded_scores"], ev["reload_error"] = reload_scores(_truncated(st.path), st.samples)

    def reloaded_scores_differ(ev):
        ev["reloaded_scores"][5][0] = _ulp_up(ev["reloaded_scores"][5][0])

    def round_differs(ev):
        preds = list(ev["predictions"])
        preds[7] = (preds[7] + 1) % st.cfg.N_k
        ev["rounds"].append((preds, ev["evaluate"]))

    return [
        ("a prediction dropped", "one_prediction_per_sample", dropped_prediction),
        ("flipped prediction", "predict_is_argmax", flipped_prediction),
        ("evaluate accuracy off by one sample", "accuracy_matches_predict", accuracy_off),
        ("perturbed score vector", "loss_is_pairwise_hinge", perturbed_scores),
        ("truncated checkpoint", "checkpoint_reloads", truncated_checkpoint),
        ("reloaded score off by one ulp", "checkpoint_scores_bitwise", reloaded_scores_differ),
        ("a round's prediction flipped", "rounds_repeat", round_differs),
    ]


def audit_cases(wl, st, outputs):
    def dropped_entry(ev):
        ev["combos"][1]["entries"].pop()

    def looser_tolerance(ev):
        ev["combos"][0]["tolerance"] = 1e-3

    def gradient_error(ev):
        name, _, _ = ev["combos"][0]["entries"][4]
        ev["combos"][0]["entries"][4] = (name, 2e-4, False)

    def perturbed_integrate(ev):
        ev["combos"][1]["integrate"][2] *= 1.0 + 1e-5

    def round_differs(ev):
        entries = [list(c["entries"]) for c in ev["combos"]]
        name, err, ok = entries[0][0]
        entries[0][0] = (name, err * 2.0, ok)
        ev["rounds"].append(entries)

    return [
        ("a parameter tensor missing from the report", "one_entry_per_tensor", dropped_entry),
        ("report at another tolerance", "tolerance", looser_tolerance),
        ("one tensor's gradient off", "gradients_match", gradient_error),
        ("perturbed integrate output", "integrate_matches_loop_oracle", perturbed_integrate),
        ("a round's error doubled", "rounds_repeat", round_differs),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    import_program()
    import checks
    from workloads import WORKLOADS

    cases_of = {"train-desk-oe": train_cases, "infer-desk-mc": infer_cases,
                "audit-tiny": audit_cases}
    OUT.mkdir(parents=True, exist_ok=True)
    bad = 0
    for name, cls in WORKLOADS.items():
        wl = cls()
        workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=OUT)
        try:
            st = wl.setup(args.seed, workdir)
            outputs = [wl.run_round(st).output]
            evidence = wl.collect(st, outputs)
            try:
                wl.verify(evidence)
                print(f"{name:14s} {'genuine outputs':44s} pass")
            except checks.CheckFailed as e:
                print(f"{name:14s} {'genuine outputs':44s} FAILED: {e}")
                bad += 1
            for label, expected, corrupt in cases_of[name](wl, st, outputs):
                ev = copy.deepcopy(evidence)
                corrupt(ev)
                try:
                    wl.verify(ev)
                    got = "passed (check did not catch it)"
                except checks.CheckFailed as e:
                    got = e.check
                ok = got == expected
                bad += not ok
                print(f"{name:14s} {label:44s} {'caught by' if ok else 'WRONG:'} {got}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {'all cases behave' if not bad else f'{bad} cases misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
