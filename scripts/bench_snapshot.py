"""Write a benchmark snapshot: machine record, perfbench results and the wall
time of every acceptance config.

    python3 scripts/bench_snapshot.py --out BENCH_<n>.json

Run from the repository root; hidacur is imported from ./src.  The snapshot
holds:

  * "machine": CPU count, platform, Python, numpy and scipy versions;
  * "src_lines": the line count of src/hidacur/*.py, as wc -l totals it;
  * "quad_nodes": the nodes and sweeps of one s_current call at
    x = (r, 0, ...), phi = [[1.0, 0.3]] * d, T = 1 and tol 1e-8, for d in
    {2, 3} and r from 1e-1 down to 1e-12, where the current blows up at the
    origin;
  * "closed_form_layers": on d in {1, 2, 3}, x = (0.8, 0, ...), T = 1 and
    the 5-mode phi LAYER_PHI in every component, the us per call of
    hermite_values(6, .) and of eval_and_cumulative on 144 nodes in (0, 1],
    of s_current and s_current_mollified (eps2 0.01) at tol 1e-8, and of
    the first and second closed chaos pairings of component 0, each
    quadrature with its nodes and sweeps (integrand calls), and of one
    "quad_sweep", integrate_singular on that s_current's mesh (damping
    0.32, T = 1, tol 1e-8) with an integrand that returns a precomputed
    array of ones, one row and three: the fixed cost of one sweep; median
    and quartiles of 15 interleaved repeats, each the mean of a batch of
    calls;
  * "growth_fit_layers": on d in {1, 2, 3} and LAYER_PHI in every component
    scaled to unit L^2 norm, the us per call of sup_norm and of
    fit_ufunctional_bound on the Donsker delta and on the current's
    integrand at x = (0.8, 0, ...), t = 1, over chaos-growth's 8 radii
    from 2 to 12 and 16 angles: median and quartiles of 15 interleaved
    repeats, each the mean of a batch of calls;
  * "mc_block": for each of criterion 5's four cases, one 1,024-path block
    at 4,096 steps: the normals drawn and the median and quartiles, over 7
    interleaved repeats, of the ms of simulate_increments and
    mollified_current_sample on the whole block and of _block_moments
    streaming it through one reused workspace, at one thread; and
    "alloc_peak_kib", tracemalloc's peak over one warm mc_s_transform of
    the case at 4,096 / d paths, at 1 thread and at the usable CPU count;
  * "perfbench": the last JSON line of perfbench/run.py --seed 1 for each
    workload, run for BENCHMARK.json's run_seconds;
  * "acceptance": per criterion 1-8, the wall time of its config at
    HIDACUR_THREADS=1 and at the CPU count, its passed flags and the time
    gate its acceptance test enforces.  Criterion 8 is criterion 5's config
    at HIDACUR_THREADS=8, compared body for body with the one-thread run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from hidacur import (CurrentParams, TestFunction,  # noqa: E402
                     first_chaos_pairing_closed, s_current,
                     s_current_mollified, second_chaos_pairing_closed,
                     stransform)
from hidacur import integrate_singular, montecarlo  # noqa: E402
from hidacur.experiments import (MC_ACCEPTANCE_CASES,  # noqa: E402
                                 mc_acceptance_phi, run_experiment)
from hidacur.schwartz import hermite_values  # noqa: E402

WORKLOADS = ("closed-form", "chaos-growth", "mc-grid")
SEED = 1
# the closed-form layer rows' phi, the same 5 modes in every component
LAYER_PHI = [0.6, -0.3, 0.25, 0.15, -0.1]
# criterion: (config, time gate in s); the config names its kind.  The one
# table of acceptance gates: tests/test_acceptance.py reads and enforces it
CRITERIA = {
    1: ("01_gamma_check.json", 5.0),
    2: ("02_existence.json", 10.0),
    3: ("03_chaos_order1.json", 10.0),
    4: ("04_chaos_order2.json", 20.0),
    5: ("05_mc_grid.json", 120.0),
    6: ("06_diverge.json", 1.0),
    7: ("07_ubound.json", 5.0),
}


def machine_record():
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def src_lines():
    return sum(p.read_bytes().count(b"\n")
               for p in (ROOT / "src" / "hidacur").glob("*.py"))


def quad_nodes():
    rows = []
    for d in (2, 3):
        phi = TestFunction([[1.0, 0.3]] * d)
        for r in (1e-1, 1e-4, 1e-8, 1e-10, 1e-12):
            p = CurrentParams([r] + [0.0] * (d - 1), 1.0)
            _, (res,) = s_current(p, phi, tol=1e-8, full_output=True)
            rows.append({"d": d, "r": r, "nodes": res.node_count,
                         "sweeps": res.sweeps})
    return {"T": 1.0, "tol": 1e-8, "rows": rows}


def quartiles(samples, scale, digits=3):
    """{p25, p50, p75} of samples times scale, each rounded to digits."""
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"p25": round(q1 * scale, digits), "p50": round(q2 * scale, digits),
            "p75": round(q3 * scale, digits)}


def interleaved(fns, repeats, batch=1):
    """Seconds per call of each of fns, one batch of calls per fn in turn,
    repeats times over: a list of repeats samples per fn."""
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, samples):
            t0 = time.perf_counter()
            for _ in range(batch):
                fn()
            out.append((time.perf_counter() - t0) / batch)
    return samples


def quad_sweep(k):
    """The row of one integrate_singular call on s_current's mesh at
    |x| = 0.8, T = 1, whose integrand returns k rows of precomputed ones
    (a scalar for k = 1): one sweep, the quadrature's own work alone."""
    n = integrate_singular(np.ones_like, 1.0, 0.0, 1e-8, damping=0.32).node_count
    ones = np.ones((k, n) if k > 1 else n)

    def fn():
        return integrate_singular(lambda t: ones, 1.0, 0.0, 1e-8, damping=0.32)

    res = fn()
    return {"layer": "quad_sweep", "d": None, "rows": k,
            "nodes": res.node_count, "sweeps": res.sweeps, "fn": fn}


def closed_form_layers(repeats=15, batch=20):
    t = (np.arange(144) + 0.5) / 144.0
    rows = [{"layer": "hermite_values", "d": None, "nodes": t.size,
             "fn": lambda: hermite_values(6, t)}, quad_sweep(1), quad_sweep(3)]
    for d in (1, 2, 3):
        phi = TestFunction([LAYER_PHI] * d)
        p = CurrentParams([0.8] + [0.0] * (d - 1), 1.0)
        # layer: (the QuadResult of one call, the timed call); a pairing's
        # QuadResult comes from the _integrate_current call it makes
        quads = {
            "s_current": (
                s_current(p, phi, tol=1e-8, full_output=True)[1][0],
                lambda p=p, phi=phi: s_current(p, phi, tol=1e-8)),
            "s_current_mollified": (
                s_current_mollified(p, phi, 0.01, tol=1e-8,
                                    full_output=True)[1][0],
                lambda p=p, phi=phi: s_current_mollified(p, phi, 0.01,
                                                         tol=1e-8)),
            "first_pairing": (
                stransform._integrate_current(p, phi, 1e-11, 0, order=1),
                lambda p=p, phi=phi: first_chaos_pairing_closed(p, phi, 0)),
            "second_pairing": (
                stransform._integrate_current(p, phi, 1e-11, 0, order=2),
                lambda p=p, phi=phi: second_chaos_pairing_closed(p, phi, 0)),
        }
        rows.append({"layer": "eval_and_cumulative", "d": d, "nodes": t.size,
                     "fn": lambda phi=phi: phi.eval_and_cumulative(t)})
        rows += [{"layer": layer, "d": d, "nodes": res.node_count,
                  "sweeps": res.sweeps, "fn": fn}
                 for layer, (res, fn) in quads.items()]
    samples = interleaved([row.pop("fn") for row in rows], repeats, batch)
    for row, sample in zip(rows, samples):
        row["us"] = quartiles(sample, 1e6, 2)
    return {"x_norm": 0.8, "T": 1.0, "tol": 1e-8, "pairing_tol": 1e-11,
            "eps2": 0.01, "phi": LAYER_PHI, "repeats": repeats,
            "batch": batch, "rows": rows}


def growth_fit_layers(repeats=15, batch=20):
    radii = np.geomspace(2.0, 12.0, 8)
    rows = []
    for d in (1, 2, 3):
        phi = TestFunction([LAYER_PHI] * d)
        phi = phi.scaled(1.0 / phi.l2_norm())
        x = [0.8] + [0.0] * (d - 1)
        rows += [
            {"layer": "sup_norm", "d": d, "fn": phi.sup_norm},
            *[{"layer": f"fit_bound_{kind}", "d": d,
               "fn": lambda F=F, phi=phi: stransform.fit_ufunctional_bound(
                   F, phi, radii, angles_per_radius=16)}
              for kind, F in (
                  ("donsker", stransform.donsker_ufunctional(x, 1.0)),
                  ("wick", stransform.wick_integrand_ufunctional(x, 1.0, 0)))],
        ]
    samples = interleaved([row.pop("fn") for row in rows], repeats, batch)
    for row, sample in zip(rows, samples):
        row["us"] = quartiles(sample, 1e6, 2)
    return {"x_norm": 0.8, "t": 1.0, "phi": LAYER_PHI, "radii": radii.tolist(),
            "angles_per_radius": 16, "repeats": repeats, "batch": batch,
            "rows": rows}


def mc_block(repeats=7):
    rows = []
    for case in MC_ACCEPTANCE_CASES:
        d = case["d"]
        cfg = montecarlo.MCConfig(
            d=d, T=1.0, x=tuple(case["x"]), n_paths=montecarlo.BLOCK_SIZE,
            n_steps=4096, eps2=case["eps2"], seed=case["seed"])
        phi = mc_acceptance_phi(d, case["eps2"])
        phi_grid = phi.eval_all(np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps))
        inc = montecarlo.simulate_increments(cfg, 0)
        work = montecarlo._Workspace(montecarlo._kernel_constants(
            cfg, phi_grid, montecarlo.DTYPE))
        rng, kernel, block = interleaved([
            lambda: montecarlo.simulate_increments(cfg, 0),
            lambda: montecarlo.mollified_current_sample(cfg, inc, phi_grid),
            lambda: montecarlo._block_moments(cfg, phi_grid, 0, work)],
            repeats)
        rows.append({
            "d": d, "eps2": case["eps2"], "paths": cfg.n_paths,
            "n_steps": cfg.n_steps, "normals": inc.size,
            "rng_ms": quartiles(rng, 1e3), "kernel_ms": quartiles(kernel, 1e3),
            "block_ms": quartiles(block, 1e3),
            "alloc_peak_kib": {f"threads{k}": alloc_peak_kib(
                dataclasses.replace(cfg, n_paths=4096 // d), phi, k)
                for k in dict.fromkeys((1, len(os.sched_getaffinity(0))))},
        })
    return rows


def alloc_peak_kib(cfg, phi, threads):
    """tracemalloc's peak, in KiB, over one mc_s_transform after a warm-up
    call."""
    montecarlo.mc_s_transform(cfg, phi, n_threads=threads)
    tracemalloc.start()
    try:
        montecarlo.mc_s_transform(cfg, phi, n_threads=threads)
        return round(tracemalloc.get_traced_memory()[1] / 1024)
    finally:
        tracemalloc.stop()


def perfbench(workload):
    with open(ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def timed_run(config, threads):
    """(wall seconds, record) of one config, run as the kind it names, at
    HIDACUR_THREADS=threads."""
    with open(ROOT / "configs" / config) as fh:
        knobs = json.load(fh)
    with mock.patch.dict(os.environ, {"HIDACUR_THREADS": str(threads)}):
        t0 = time.perf_counter()
        record = run_experiment(knobs["kind"], knobs)
        return time.perf_counter() - t0, record


def acceptance():
    nproc = os.cpu_count() or 1
    rows = {}
    for n, (config, gate) in CRITERIA.items():
        row = {"config": config, "gate_s": gate}
        for threads in dict.fromkeys((1, nproc)):
            wall, record = timed_run(config, threads)
            row[f"wall_s_threads{threads}"] = round(wall, 3)
            row[f"passed_threads{threads}"] = bool(record["passed"])
            if n == 5 and threads == 1:
                bodies1 = [r["estimate_body"] for r in record["rows"]]
        rows[str(n)] = row
    wall, record = timed_run("05_mc_grid.json", 8)
    rows["8"] = {"config": "05_mc_grid.json", "gate_s": None,
                 "wall_s_threads8": round(wall, 3),
                 "passed": [r["estimate_body"] for r in record["rows"]] == bodies1}
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    # perfbench first: a child's peak RSS starts at this process's, which
    # the Monte Carlo blocks raise by ~40 MB
    bench = {w: perfbench(w) for w in WORKLOADS}
    snapshot = {
        "machine": machine_record(),
        "src_lines": src_lines(),
        "quad_nodes": quad_nodes(),
        "closed_form_layers": closed_form_layers(),
        "growth_fit_layers": growth_fit_layers(),
        "mc_block": mc_block(),
        "perfbench": bench,
        "acceptance": acceptance(),
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
