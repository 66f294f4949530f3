"""The committed numeric fingerprint (tests/fingerprints.json) must be what
the program computes now. A change that moves the numbers on purpose
regenerates it with ``python tests/fingerprint.py --write`` and says which
cases moved and why."""
import json

import numpy as np
import pytest

import fingerprint
from livlr.model import Model


@pytest.fixture(scope="module")
def now():
    return fingerprint.compute()


def test_fingerprint_matches_the_committed_file(now):
    pinned = json.loads(fingerprint.PINNED.read_text(encoding="utf-8"))
    if pinned["numpy"] != np.__version__:
        pytest.skip(f"fingerprint made with numpy {pinned['numpy']}, running {np.__version__}")
    assert now["cases"] == pinned["cases"], "\n".join(fingerprint.diff(pinned, now))


def test_evaluate_accuracy_is_the_share_of_right_predictions(now):
    # evaluate scores the samples in chunks and predict one at a time; the
    # two argmaxes must agree on every sample of every case
    for case in fingerprint.CASES:
        digest = now["cases"]["/".join(case)]
        cfg, ds = fingerprint.case_data(*case)
        targets = [s.label if cfg.question_setting == "OE" else s.correct for s in ds.samples()]
        predicted = [int(p) for p in digest["predict"].split()]
        right = sum(p == t for p, t in zip(predicted, targets))
        assert float.fromhex(digest["eval_accuracy"]) == right / len(targets), case


def test_predict_is_the_argmax_of_forward():
    # predict scores without the loss; it must pick what forward's scores do
    for case in fingerprint.CASES:
        cfg, ds = fingerprint.case_data(*case)
        model = Model(cfg)
        for s in ds.samples():
            assert model.predict(s) == int(np.argmax(model.forward(s)[1].data)), case


def test_diff_names_each_changed_audit_value():
    old = {"cases": {}, "audit": {"OE/DAVL": {"a.w": (0.5).hex(), "b.w": (1e-8).hex()}}}
    new = {"cases": {}, "audit": {"OE/DAVL": {"a.w": (0.5).hex(), "b.w": (2e-8).hex()}}}
    assert fingerprint.diff(old, new) == [
        "audit OE/DAVL: 1/2 max_rel_err values changed",
        "  OE/DAVL b.w: 1e-08 -> 2e-08",
    ]


def test_diff_exits_1_when_any_bit_differs(tmp_path):
    digest = {"train_loss": [(0.5).hex()], "train_acc": [(1.0).hex()],
              "checkpoint_sha256": "00", "predict": "1"}
    base = {"cases": {"tiny/OE/DAVL": digest}, "audit": {"OE/DAVL": {"a.w": (1e-8).hex()}}}
    case = {**base, "cases": {"tiny/OE/DAVL": {**digest, "checkpoint_sha256": "01"}}}
    audit = {**base, "audit": {"OE/DAVL": {"a.w": (2e-8).hex()}}}
    paths = {}
    for name, fp in (("base", base), ("case", case), ("audit", audit)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(fp), encoding="utf-8")
    run = lambda new: fingerprint.main(["--diff", str(paths["base"]), str(paths[new])])
    assert run("base") == 0
    assert run("case") == 1
    assert run("audit") == 1
