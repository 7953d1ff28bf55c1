"""scripts/ab_compare.py: run against its own tree, every op kind's joint
bootstrap interval contains 1, and no op fails on either side."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def self_compare(tmp_path, deck, ops, seed):
    out = tmp_path / f"ab_{seed}.json"
    subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "ab_compare.py"),
                    ROOT, "--deck", deck, "--seeds", str(seed), "--ops", str(ops),
                    "--out", str(out)], check=True, capture_output=True,
                   timeout=60)
    return json.loads(out.read_text())


# a dozen ops or more of every kind: 10 closed-form decks of 40, 4
# chaos-growth decks of 12
@pytest.mark.parametrize("deck, ops", [("closed-form", 400),
                                       ("chaos-growth", 48)])
def test_own_tree_intervals_contain_one(tmp_path, deck, ops):
    # A burst of load on the host can push one interval off 1 in one run; a
    # bias of the harness between its two sides does so on every seed, so a
    # miss is run once more on a fresh seed before it fails.
    for seed in (1, 2):
        result = self_compare(tmp_path, deck, ops, seed)
        kinds = result["kinds"]
        assert kinds["all"]["ops"] == ops and min(
            row["ops"] for row in kinds.values()) >= 12
        assert result["failed"] == {"here": 0, "other": 0}
        for kind, row in kinds.items():
            assert 0.0 < row["lo"] <= row["ratio"] <= row["hi"], kind
        missed = {kind: row for kind, row in kinds.items()
                  if not row["lo"] <= 1.0 <= row["hi"]}
        if not missed:
            return
    pytest.fail(f"intervals exclude 1 at seeds 1 and 2: {missed}")
