"""Write a benchmark snapshot: machine record, perfbench results and the wall
time of every acceptance config.

    python3 scripts/bench_snapshot.py --out BENCH_<n>.json

Run from the repository root; hidacur is imported from ./src.  The snapshot
holds:

  * "machine": CPU count, platform, Python, numpy and scipy versions;
  * "src_lines": the line count of src/hidacur/*.py, as wc -l totals it;
  * "quad_nodes": the nodes of one s_current call at x = (r, 0, ...),
    phi = [[1.0, 0.3]] * d, T = 1 and tol 1e-8, for d in {2, 3} and r from
    1e-1 down to 1e-12, where the current blows up at the origin;
  * "perfbench": the last JSON line of perfbench/run.py --seed 1 for each
    workload, run for BENCHMARK.json's run_seconds;
  * "acceptance": per criterion 1-8, the wall time of its config at
    HIDACUR_THREADS=1 and at the CPU count, its passed flags and the time
    gate its acceptance test enforces.  Criterion 8 is criterion 5's config
    at HIDACUR_THREADS=8, compared body for body with the one-thread run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from hidacur import CurrentParams, TestFunction, s_current  # noqa: E402
from hidacur.experiments import run_experiment  # noqa: E402

WORKLOADS = ("closed-form", "chaos-growth", "mc-grid")
SEED = 1
# criterion: (kind, config, time gate in s of tests/test_acceptance.py)
CRITERIA = {
    1: ("gamma-check", "01_gamma_check.json", 5.0),
    2: ("stransform", "02_existence.json", 10.0),
    3: ("chaos", "03_chaos_order1.json", 10.0),
    4: ("chaos", "04_chaos_order2.json", 20.0),
    5: ("mc", "05_mc_grid.json", 120.0),
    6: ("diverge", "06_diverge.json", 1.0),
    7: ("ubound", "07_ubound.json", 5.0),
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
            rows.append({"d": d, "r": r, "nodes": res.node_count})
    return {"T": 1.0, "tol": 1e-8, "rows": rows}


def perfbench(workload):
    with open(ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def timed_run(kind, config, threads):
    """(wall seconds, record) of one config at HIDACUR_THREADS=threads."""
    with open(ROOT / "configs" / config) as fh:
        knobs = json.load(fh)
    old = os.environ.get("HIDACUR_THREADS")
    os.environ["HIDACUR_THREADS"] = str(threads)
    try:
        t0 = time.perf_counter()
        record = run_experiment(kind, knobs)
        return time.perf_counter() - t0, record
    finally:
        if old is None:
            os.environ.pop("HIDACUR_THREADS", None)
        else:
            os.environ["HIDACUR_THREADS"] = old


def acceptance():
    nproc = os.cpu_count() or 1
    rows = {}
    for n, (kind, config, gate) in CRITERIA.items():
        row = {"config": config, "gate_s": gate}
        for threads in dict.fromkeys((1, nproc)):
            wall, record = timed_run(kind, config, threads)
            row[f"wall_s_threads{threads}"] = round(wall, 3)
            row[f"passed_threads{threads}"] = bool(record["passed"])
            if n == 5 and threads == 1:
                bodies1 = [r["estimate_body"] for r in record["rows"]]
        rows[str(n)] = row
    wall, record = timed_run("mc", "05_mc_grid.json", 8)
    rows["8"] = {"config": "05_mc_grid.json", "gate_s": None,
                 "wall_s_threads8": round(wall, 3),
                 "passed": [r["estimate_body"] for r in record["rows"]] == bodies1}
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    snapshot = {
        "machine": machine_record(),
        "src_lines": src_lines(),
        "quad_nodes": quad_nodes(),
        "perfbench": {w: perfbench(w) for w in WORKLOADS},
        "acceptance": acceptance(),
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
