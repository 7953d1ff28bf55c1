"""scripts/record_diff.py: estimate bodies unfold into fields, and a changed
field that holds no number shows no numeric change."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.fixture(scope="module")
def record_diff():
    path = os.path.join(ROOT, "scripts", "record_diff.py")
    spec = importlib.util.spec_from_file_location("record_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mc_record(mean, passed=True):
    body = json.dumps({"mean": mean, "stderr": [0.002, 0.001],
                       "config": {"seed": 7}})
    return {"05_mc_grid.json": {"passed": passed, "rows": [
        {"mc_mean": mean[0], "estimate_body": body, "note": "ok"}]}}


def run(record_diff, monkeypatch, capsys, old, new):
    monkeypatch.setattr(record_diff, "records",
                        lambda tree: old if tree == "other" else new)
    status = record_diff.main(["other"])
    header, *rows, summary = capsys.readouterr().out.splitlines()
    return status, {row.split()[0]: row.split()[1:] for row in rows}, summary


def test_json_string_unfolds_into_its_own_leaves(record_diff):
    got = record_diff.leaves(mc_record([0.5, -0.25]))
    assert got["05_mc_grid.json.rows[0].estimate_body.mean[1]"] == -0.25
    assert got["05_mc_grid.json.rows[0].estimate_body.config.seed"] == 7
    assert "05_mc_grid.json.rows[0].estimate_body" not in got
    # a plain string, and one that only looks like JSON, stay one leaf
    assert got["05_mc_grid.json.rows[0].note"] == "ok"
    assert record_diff.leaves({"s": "[not json"}) == {"s": "[not json"}
    assert record_diff.leaves({"s": "3"}) == {"s": "3"}


def test_changed_body_numbers_are_reported(record_diff, monkeypatch, capsys):
    status, rows, summary = run(record_diff, monkeypatch, capsys,
                                mc_record([0.5, -0.25]),
                                mc_record([0.5, -0.5]))
    assert status == 0
    assert rows["05_mc_grid.json.rows[].estimate_body.mean[]"] == [
        "1/2", "0.25", "1"]
    assert summary.endswith("passed flags agree")


def test_changed_field_without_a_number_prints_dashes(record_diff,
                                                      monkeypatch, capsys):
    old, new = mc_record([0.5, -0.25]), mc_record([0.5, -0.25], passed=False)
    new["05_mc_grid.json"]["rows"][0]["note"] = "changed"
    status, rows, summary = run(record_diff, monkeypatch, capsys, old, new)
    assert status == 1
    assert rows["05_mc_grid.json.rows[].note"] == ["1/1", "-", "-"]
    assert rows["05_mc_grid.json.passed"] == ["1/1", "-", "-"]
    assert summary.endswith("passed flags DIFFER")
