"""scripts/bench_snapshot.py: its layer and Monte Carlo row builders run on
the package as it is and give every row its timing quartiles."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.fixture(scope="module")
def bench_snapshot():
    path = os.path.join(ROOT, "scripts", "bench_snapshot.py")
    spec = importlib.util.spec_from_file_location("bench_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def has_quartiles(timing):
    return (set(timing) == {"p25", "p50", "p75"}
            and timing["p25"] <= timing["p50"] <= timing["p75"])


def test_layer_rows(bench_snapshot):
    for build in (bench_snapshot.closed_form_layers,
                  bench_snapshot.growth_fit_layers):
        rows = build(repeats=2, batch=1)["rows"]
        assert rows and all(has_quartiles(row["us"]) for row in rows)


def test_mc_block_rows(bench_snapshot, monkeypatch):
    monkeypatch.setattr(bench_snapshot, "MC_ACCEPTANCE_CASES",
                        bench_snapshot.MC_ACCEPTANCE_CASES[:1])
    (row,) = bench_snapshot.mc_block(repeats=2)
    assert all(has_quartiles(row[key])
               for key in ("rng_ms", "kernel_ms", "block_ms"))
    pairs = bench_snapshot.montecarlo.BLOCK_SIZE // 2
    assert row["normals"] == pairs * row["n_steps"] * row["d"]
    assert all(kib > 0 for kib in row["alloc_peak_kib"].values())
