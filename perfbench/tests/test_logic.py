"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import stats  # noqa: E402
import workloads  # noqa: E402


def _first_op(wl, kind):
    rng = np.random.default_rng(7)
    return next(op for op in (wl._draw(rng, k, d) for k, d in wl.deck * 2)
                if op.kind == kind)


@pytest.mark.parametrize("kind", ["s_current", "mollified", "first", "second",
                                  "origin", "gamma"])
def test_closed_form_flags_a_value_off_by_1e_6(kind):
    wl = workloads.ClosedForm(seed=1)
    op = _first_op(wl, kind)
    out = wl.run(op)
    assert wl.check(op, out)
    out["values"][-1] += 1e-6 * max(1.0, abs(out["values"][-1]))
    assert not wl.check(op, out)


def test_large_t_check_catches_the_silent_zero():
    # at T = 16 and 40 s_current returns ~1e-13 where the current is O(0.1)
    wl = workloads.ClosedForm(seed=1)
    op = _first_op(wl, "large_t")
    assert op.known_defect and op.T in (16.0, 40.0)
    d = len(op.x)
    assert not wl.check(op, {"values": [1e-13] * d})
    assert max(abs(v) for v in op.ref) > 10 * wl.tol


def test_chaos_growth_flags_a_value_off_by_1e_6():
    wl = workloads.ChaosGrowth(seed=1)
    op = _first_op(wl, "order1")
    out = wl.run(op)
    assert wl.check(op, out)
    out["numeric"] += 1e-6
    assert not wl.check(op, out)


def test_failed_op_is_a_failed_check():
    wl = workloads.ChaosGrowth(seed=1)
    op = _first_op(wl, "order2")
    assert not wl.check(op, {"error": "UnstableDerivativeError: differ"})


def test_tail_leaves_ten_samples_beyond():
    values = list(np.random.default_rng(0).permutation(100))
    value, beyond = stats.tail(values, 90.0)
    assert beyond == 10 and sum(v > value for v in values) == 10


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tail_percentile_fits_the_workload_op_count(workload):
    wl = workloads.WORKLOADS[workload]
    seconds = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
    _, beyond = stats.tail(range(workloads.run_length(wl, seconds)), wl.tail_pct)
    assert beyond >= 10


def test_known_defect_share_is_fixed_by_the_run_length():
    # whole decks, so every seed runs the same number of large-T ops
    wl = workloads.ClosedForm
    n = workloads.run_length(wl, 1.0)
    assert n % wl.deck_size == 0
    for seed in (1, 2):
        ops = list(islice(wl(seed).ops(), n))
        assert sum(op.known_defect for op in ops) == n // wl.deck_size * 2


def test_s_to_precision_skips_zero_components():
    # the d = 2 acceptance cases have an exactly zero second component
    secs = stats.s_to_precision(2.0, [0.01, 0.02], [0.2, 0.0])
    assert secs == pytest.approx(2.0 * (0.01 / (0.02 * 0.2)) ** 2)
    assert np.isfinite(stats.s_to_precision(1.0, [0.01, 0.5], [0.1, 1e-3]))
    with pytest.raises(ValueError):
        stats.s_to_precision(1.0, [0.01], [0.0])


def test_tracer_patches_every_binding():
    import hidacur
    from hidacur import chaos, experiments, montecarlo, quad, stransform
    from tracing import Tracer

    orig, orig_rng = quad.integrate_singular, montecarlo.simulate_increments
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = quad.integrate_singular
        assert wrapped is not orig
        for mod in (hidacur, stransform, chaos, experiments):
            assert mod.integrate_singular is wrapped
        assert montecarlo.simulate_increments is not orig_rng
        assert hidacur.simulate_increments is montecarlo.simulate_increments
        wl = workloads.MCGrid(seed=1)
        case = wl.cases[0]
        cfg = montecarlo.MCConfig(**{**case.cfg.__dict__, "n_paths": 2048})
        montecarlo.mc_s_transform(cfg, case.phi, n_threads=2)
        assert tracer.calls["montecarlo.rng"] == 2
        assert tracer.calls["montecarlo.kernel"] == 2
    finally:
        tracer.uninstall()
    assert quad.integrate_singular is orig and stransform.integrate_singular is orig
    assert montecarlo.simulate_increments is orig_rng


def test_traced_nodes_match_full_output():
    from tracing import Tracer

    wl = workloads.ClosedForm(seed=1)
    op = _first_op(wl, "s_current")
    tracer = Tracer()
    tracer.install()
    try:
        out = wl.run(op)
    finally:
        tracer.uninstall()
    assert tracer.counts["quad.nodes"] == out["nodes"] > 0
    assert tracer.entries["schwartz"] > 0 and tracer.self_time["quad"] > 0


def test_mc_check_needs_bit_identical_bodies():
    wl = workloads.MCGrid(seed=1)
    est = SimpleNamespace(mean=np.array([0.5]), stderr=np.array([0.1]),
                          to_json=lambda: "a")
    other = SimpleNamespace(to_json=lambda: "b")
    wl.cases[0].closed = np.array([0.5])
    assert wl.check(SimpleNamespace(case=0), {"one": est, "many": est})
    assert not wl.check(SimpleNamespace(case=0), {"one": est, "many": other})
    far = SimpleNamespace(mean=np.array([1.0]), stderr=np.array([0.1]),
                          to_json=lambda: "a")
    assert not wl.check(SimpleNamespace(case=0), {"one": far, "many": far})


def test_ops_repeat_for_a_seed_and_do_not_run_out():
    def kinds(seed, n):
        ops = workloads.ChaosGrowth(seed).ops()
        return [(op.kind, op.x.tolist()) for op in islice(ops, n)]

    n = 3 * len(workloads.ChaosGrowth.deck) + 1
    assert kinds(4, n) == kinds(4, n) != kinds(5, n)


def test_speed_factor_is_reference_over_recent_median(monkeypatch):
    import speed

    monkeypatch.setattr(speed, "EVERY_S", 0.0)
    monkeypatch.setattr(speed, "RECENT", 3)
    s = speed.Speed(speed.scalar_kernel)
    for _ in range(5):
        factor = s.factor_now()
    ref = speed.REFERENCE_S[speed.scalar_kernel]
    assert len(s.kernel_s) == 5
    assert factor == pytest.approx(ref / np.median(s.kernel_s[-3:]))
    monkeypatch.setattr(speed, "EVERY_S", 60.0)
    lazy = speed.Speed(speed.scalar_kernel)
    lazy.factor_now()
    lazy.factor_now()
    assert len(lazy.kernel_s) == 1


def test_reference_import_is_timed_in_a_fresh_interpreter():
    import run

    assert 0.0 < run._reference_import_s() < 60.0
