"""The committed numeric fingerprint (tests/fingerprints.json) must be what
the program computes now. A change that moves the numbers on purpose
regenerates it with ``python tests/fingerprint.py --write`` and says which
cases moved and why."""
import json

import numpy as np
import pytest

import fingerprint


def test_fingerprint_matches_the_committed_file():
    pinned = json.loads(fingerprint.PINNED.read_text(encoding="utf-8"))
    if pinned["numpy"] != np.__version__:
        pytest.skip(f"fingerprint made with numpy {pinned['numpy']}, running {np.__version__}")
    now = fingerprint.compute()
    assert now["cases"] == pinned["cases"], "\n".join(fingerprint.diff(pinned, now))
