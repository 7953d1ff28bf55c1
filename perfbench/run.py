"""hidacur benchmark.

    python3 perfbench/run.py --workload {closed-form,chaos-growth,mc-grid}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; hidacur is imported from ./src.  Set-up
(importing hidacur, building the workload, warming up) is timed, then ops
run back to back on one caller (a closed loop).  A run is a fixed number of
ops: S seconds' worth at the workload's nominal rate (workloads.run_length),
about S seconds on the machine the rates were set on, so the same seed and
S give the same ops and the same failed count on any machine, and a faster
program runs the same ops in less time.  Each op's inputs are drawn from the
seeded stream just before it runs, outside its timing.  Every result is
checked after the timed phase: closed-form against scipy / mpmath references
that share no code with hidacur, chaos-growth against the experiment runners'
own thresholds, mc-grid against the mollified closed form (|z| <= 4) and for
bit-identical estimates at 1 and nproc threads.

--trace 0 prints the end-to-end metrics: setup_s (the median of five
set-ups, four of them in fresh interpreters, in reference seconds: scaled by
REFERENCE_IMPORT_S over the median time five fresh interpreters take to
import numpy and scipy.special, the imports that make up most of hidacur's
set-up and whose time swings by a third with the host's load), ops_per_s (ops that
passed their check per second of op time), op_ms_p50, op_ms_tail (the
workload's fixed tail percentile, chosen to leave at least 10 samples beyond
it) and peak_rss_mb.  The three op-time metrics are in reference time
(units ref-s, ref-ms): each op's wall time is scaled by the machine speed
that speed.Speed measures between ops with a kernel like the workload's
inner loop, because on a shared host whole runs
sit in phases a third slower or faster.  The wall-clock figures are in the
details line and file.

--trace 1 runs S/2 seconds' worth of ops untraced, then the same ops again
with every public function of schwartz, special, quad, stransform, chaos and
montecarlo wrapped in spans, and prints the per-layer metrics (wall seconds)
plus the tracing overhead (traced over untraced wall time of the same ops).
It fails if a layer the workload exercises records no call, or if quad.nodes
differs from the node counts s_current's full_output reports.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it, and perfbench/out/, hold the machine record and details.
Every failed op counts in "failed"; "correct" is false when any op fails
other than those of the known large-T slice of closed-form.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 4  # extra set-ups in fresh interpreters, for a median of 5
# The typical time of _REFERENCE_IMPORT on the 2-vCPU Xeon box the benchmark
# was tuned on; it converts set-up times to reference seconds.
REFERENCE_IMPORT_S = 0.4
_REFERENCE_IMPORT = ("from time import perf_counter as now; t0 = now(); "
                     "import numpy, scipy.special; print(now() - t0)")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def _import_hidacur():
    if not (SRC / "hidacur" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hidacur sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import hidacur

    if Path(hidacur.__file__).resolve().parent != SRC / "hidacur":
        sys.exit(f"perfbench: imported hidacur from {hidacur.__file__}, not {SRC}")
    return hidacur


def machine_record():
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            blas_threads = fn()
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "HIDACUR_THREADS": os.environ.get("HIDACUR_THREADS"),
    }


def _setup_in_fresh_interpreter(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _reference_import_s():
    """Seconds a fresh interpreter takes to import numpy and scipy.special."""
    proc = subprocess.run([sys.executable, "-c", _REFERENCE_IMPORT],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def timed_loop(wl, ops, tracer=None):
    """Run the ops of the iterable `ops` back to back.

    Returns the ops that ran, their wall times, the same in reference
    seconds, and their outputs.
    """
    from speed import Speed

    ran, times, ref_times, outs, node_gaps = [], [], [], [], []
    speed = Speed(wl.speed_kernel)
    start = perf_counter()
    for k, op in enumerate(ops):
        ran.append(op)
        if tracer is not None:
            tracer.op = k
            nodes_before = tracer.counts["quad.nodes"]
        factor = speed.factor_now()
        t0 = perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # a failed op is counted, and the run goes on
            out = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = perf_counter()
        times.append(t1 - t0)
        ref_times.append((t1 - t0) * factor)
        outs.append(out)
        if tracer is not None and "nodes" in out:
            traced_nodes = tracer.counts["quad.nodes"] - nodes_before
            if traced_nodes != out["nodes"]:
                node_gaps.append((k, out["nodes"], traced_nodes))
    return {"wall": perf_counter() - start, "ops": ran, "times": times, "outs": outs,
            "ref_times": ref_times, "kernel_s": speed.kernel_s,
            "node_gaps": node_gaps}


def check_all(wl, ops, outs):
    import oracle

    failures = oracle.QuadFailures()
    ok = [wl.check(op, out, failures) for op, out in zip(ops, outs)]
    errors = sorted({o["error"] for o in outs if "error" in o})
    return ok, {"oracle_quad_warnings": failures.count, "errors": errors[:5]}


def _layer_metrics(tr, thread_s):
    c, tot, st, n = tr.calls, tr.total, tr.self_time, tr.counts

    def ratio(a, b):
        return a / b if b else 0.0

    rng_s, kernel_s = tot["montecarlo.rng"], tot["montecarlo.kernel"]
    return {
        "schwartz.calls": tr.entries["schwartz"],
        "schwartz.points": n["schwartz.points"],
        "schwartz.self_s": st["schwartz"],
        "schwartz.ns_per_point": ratio(st["schwartz"] * 1e9, n["schwartz.points"]),
        "special.calls": tr.entries["special"],
        "special.self_s": st["special"],
        "quad.calls": c["quad.integrate_singular"],
        "quad.nodes": n["quad.nodes"],
        "quad.nodes_per_call": ratio(n["quad.nodes"], c["quad.integrate_singular"]),
        "quad.self_s": st["quad"],
        "quad.errors": sum(v for (name, _), v in tr.errors.items()
                           if name == "quad.integrate_singular"),
        "stransform.s_current.calls": c["stransform.s_current"],
        "stransform.s_current.s": tot["stransform.s_current"],
        "stransform.mollified.calls": c["stransform.mollified"],
        "stransform.mollified.s": tot["stransform.mollified"],
        "stransform.ufunctional.evals": c["stransform.ufunctional"],
        "stransform.ufunctional.s": tot["stransform.ufunctional"],
        "stransform.fit_bound.s": tot["stransform.fit_bound"],
        "stransform.self_s": st["stransform"],
        "chaos.extract.calls": c["chaos.extract"],
        "chaos.extract.s": tot["chaos.extract"],
        "chaos.f_evals_per_extract": ratio(n["chaos.extract_f_evals"],
                                           c["chaos.extract"]),
        "chaos.closed.calls": c["chaos.closed_first"] + c["chaos.closed_second"],
        "chaos.closed.s": tot["chaos.closed_first"] + tot["chaos.closed_second"],
        "chaos.unstable": tr.errors[("chaos.extract", "UnstableDerivativeError")],
        "chaos.self_s": st["chaos"],
        "montecarlo.blocks": c["montecarlo.block"],
        "montecarlo.normals": n["montecarlo.normals"],
        "montecarlo.rng_s": rng_s,
        "montecarlo.rng_ns_per_normal": ratio(rng_s * 1e9, n["montecarlo.normals"]),
        "montecarlo.kernel_s": kernel_s,
        "montecarlo.kernel_ns_per_pathstep": ratio(kernel_s * 1e9,
                                                   n["montecarlo.normals"]),
        "montecarlo.rest_s": max(thread_s - rng_s - kernel_s, 0.0),
        "montecarlo.busy_frac": ratio(tot["montecarlo.block"], thread_s),
        "montecarlo.bytes_computed": n["montecarlo.bytes_computed"],
    }


def run_traced(wl, ops):
    """The ops untraced, then the same ops traced: per-layer metrics."""
    from tracing import Tracer

    plain = timed_loop(wl, ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(wl, plain["ops"], tracer)
    finally:
        tracer.uninstall()
        tracer.op = -1

    problems = []
    for layer in wl.layers:
        if tracer.entries[layer] == 0:
            problems.append(f"layer {layer} recorded no calls")
    for k, reported, seen in traced["node_gaps"][:5]:
        problems.append(f"op {k}: full_output reports {reported} quad nodes, "
                        f"the trace saw {seen}")

    thread_s = sum(o.get("thread_s", 0.0) for o in traced["outs"])
    metrics = _layer_metrics(tracer, thread_s)
    metrics.update({
        "trace.untraced_wall_s": plain["wall"],
        "trace.traced_wall_s": traced["wall"],
        "trace.overhead": traced["wall"] / plain["wall"],
        "trace.spans": tracer.n_spans,
    })
    return plain, traced, tracer, metrics, problems


def main(argv=None):
    t_start = perf_counter()
    args = _parse(argv)
    _import_hidacur()
    import stats
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warmup()
    setup_s = perf_counter() - t_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "machine": machine_record()}
    problems = []
    if args.trace:
        n_ops = workloads.run_length(wl, args.seconds / 2.0)
        plain, traced, tracer, metrics, problems = run_traced(
            wl, islice(wl.ops(), n_ops))
        main_run = plain
        ok, info = check_all(wl, plain["ops"], plain["outs"])
        ok_traced, _ = check_all(wl, traced["ops"], traced["outs"])
        if ok_traced != ok:
            problems.append("traced ops checked differently from untraced ones")
        tracer.write(f"{stem}.spans.json.gz")
    else:
        setups, imports = [setup_s], [_reference_import_s()]
        for _ in range(SETUP_REPEATS):
            setups.append(_setup_in_fresh_interpreter(args))
            imports.append(_reference_import_s())
        n_ops = workloads.run_length(wl, args.seconds)
        main_run = timed_loop(wl, islice(wl.ops(), n_ops))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok, info = check_all(wl, main_run["ops"], main_run["outs"])
        ref = main_run["ref_times"]
        tail_s, beyond = stats.tail(ref, wl.tail_pct)
        metrics = {
            "setup_s": statistics.median(setups) * REFERENCE_IMPORT_S
            / statistics.median(imports),
            "ops_per_s": sum(ok) / sum(ref),
            "op_ms_p50": statistics.median(ref) * 1e3,
            "op_ms_tail": tail_s * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        wall = main_run["times"]
        details.update({
            "setups_s": setups, "reference_imports_s": imports, "tail_pct": wl.tail_pct,
            "tail_samples_beyond": beyond,
            "wall_clock": {"ops_per_s": sum(ok) / main_run["wall"],
                           "op_ms_p50": statistics.median(wall) * 1e3,
                           "op_ms_tail": stats.tail(wall, wl.tail_pct)[0] * 1e3},
            "kernel_ms_median": statistics.median(main_run["kernel_s"]) * 1e3,
        })

    ran = main_run["ops"]
    attempted, failed = len(ok), ok.count(False)
    unexpected = sum(1 for op, good in zip(ran, ok) if not good and not op.known_defect)
    if args.trace:
        metrics["fail_frac"] = failed / attempted
        summary = getattr(wl, "summary", None)
        metrics.update(summary(ran, main_run["outs"]) if summary else
                       {"mc_pathsteps_per_s_1t": 0.0,
                        "mc_pathsteps_per_s_nt": 0.0, "mc_s_to_2pct": 0.0})
    details.update(info)
    details.update({"wall_s": main_run["wall"], "ops": attempted,
                    "known_defect_ops": sum(op.known_defect for op in ran),
                    "failed_known_defect": failed - unexpected,
                    "failed_unexpected": unexpected, "problems": problems,
                    "metrics": metrics})
    with open(HERE.parent / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"]
                 for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                        "match BENCHMARK.json")
    with open(f"{stem}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    if problems:
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        return 1

    print(json.dumps({k: v for k, v in details.items() if k != "metrics"}))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
