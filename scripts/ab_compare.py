"""Compare the op times of this tree and another, op by op, in one process.

    python3 scripts/ab_compare.py <other tree> --deck closed-form|chaos-growth
        [--seeds 1 2 3] [--ops 400] [--out ab_compare.json]

This tree's src/hidacur is imported as the package hidacur_a and the other
tree's as hidacur_b, and perfbench/workloads.py of this tree is loaded once
against each, so both run the same benchmark code.  For every seed, both
copies of the deck's workload draw the same --ops ops from the seeded
stream; each op runs 2 x REPEATS times in each tree, first as often as
second.  An op's ratio is its median time here over its median time in the
other tree, so a ratio below 1 means this tree is faster.  Each op kind
gets the median of its ops' ratios with a percentile bootstrap interval
over its ops, and so does the whole deck ("all"); the
intervals hold together at LEVEL, each at 1 - (1 - LEVEL) / (number of
rows), so that run against its own tree, every interval should contain 1.
Give each kind a dozen ops or more: with n ops of a kind, all n fall on one
side of 1 with chance 2^(1-n).  The table is printed and written as JSON to
--out.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from collections import defaultdict
from itertools import islice
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DECKS = {"closed-form": "ClosedForm", "chaos-growth": "ChaosGrowth"}
LEVEL = 0.999  # the joint coverage of a table's bootstrap intervals
RESAMPLES = 2000
REPEATS = 2  # runs of each op in both orders


def _load(path, name, **kw):
    spec = importlib.util.spec_from_file_location(name, path, **kw)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(tree, name):
    """perfbench's workloads module bound to tree's src/hidacur, which is
    imported as the package `name`."""
    src = Path(tree).resolve() / "src" / "hidacur"
    if not (src / "__init__.py").is_file():
        sys.exit(f"ab_compare: no hidacur sources at {src}")
    _load(src / "__init__.py", name, submodule_search_locations=[str(src)])
    # workloads imports `hidacur` by that name: alias it while the module loads
    aliases = {"hidacur" + key[len(name):]: mod
               for key, mod in list(sys.modules.items())
               if key == name or key.startswith(name + ".")}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        return _load(PERFBENCH / "workloads.py", f"workloads_{name}")
    finally:
        for key, mod in saved.items():
            if mod is None:
                del sys.modules[key]
            else:
                sys.modules[key] = mod


def _time(wl, op):
    """(seconds, failed) of one op."""
    t0 = perf_counter()
    try:
        wl.run(op)
    except Exception:  # timed like any op, and counted
        return perf_counter() - t0, True
    return perf_counter() - t0, False


def run_pairs(wls, n_ops):
    """[(kind, ratio)] for the first n_ops ops of the two workloads, which
    draw the same inputs, and each tree's failed count."""
    for wl in wls:
        wl.warmup()
    streams = [islice(wl.ops(), n_ops) for wl in wls]
    rows, failed = [], [0, 0]
    for j, ops in enumerate(zip(*streams)):
        times = ([], [])
        # each repeat runs the pair in both orders, so each tree goes first
        # as often as second and a cost that falls on the first run cancels
        for r in range(REPEATS):
            for side in (0, 1, 1, 0) if (j + r) % 2 else (1, 0, 0, 1):
                t, bad = _time(wls[side], ops[side])
                times[side].append(t)
                failed[side] += bad
        rows.append((ops[0].kind, statistics.median(times[0])
                     / statistics.median(times[1])))
    return rows, failed


def interval(ratios, rng, tail):
    """(median, lo, hi) of ratios, the bounds the tail and 100 - tail
    percentiles of the median's bootstrap."""
    r = np.asarray(ratios)
    boot = np.median(rng.choice(r, size=(RESAMPLES, r.size)), axis=1)
    lo, hi = np.percentile(boot, [tail, 100.0 - tail])
    return float(np.median(r)), float(lo), float(hi)


def compare(other, deck, seeds, n_ops):
    sys.path.insert(0, str(PERFBENCH))  # workloads imports speed and stats
    cls = DECKS[deck]
    mods = [load_workloads(ROOT, "hidacur_a"), load_workloads(other, "hidacur_b")]
    by_kind, failed = defaultdict(list), [0, 0]
    for seed in seeds:
        rows, bad = run_pairs([getattr(m, cls)(seed) for m in mods], n_ops)
        failed = [f + b for f, b in zip(failed, bad)]
        for kind, ratio in rows:
            by_kind[kind].append(ratio)
    by_kind["all"] = [r for v in list(by_kind.values()) for r in v]
    rng = np.random.default_rng(0)
    tail = 50.0 * (1.0 - LEVEL) / len(by_kind)
    kinds = {}
    for kind, ratios in by_kind.items():
        med, lo, hi = interval(ratios, rng, tail)
        kinds[kind] = {"ops": len(ratios), "ratio": round(med, 4),
                       "lo": round(lo, 4), "hi": round(hi, 4)}
    return {"here": str(ROOT), "other": str(Path(other).resolve()),
            "deck": deck, "seeds": list(seeds), "ops_per_seed": n_ops,
            "repeats": REPEATS, "level": LEVEL,
            "ratio": "median op time here / in other", "kinds": kinds,
            "failed": {"here": failed[0], "other": failed[1]}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", help="root of the tree to compare against")
    ap.add_argument("--deck", required=True, choices=sorted(DECKS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--ops", type=int, default=400, help="ops per seed")
    ap.add_argument("--out", default="ab_compare.json")
    args = ap.parse_args(argv)
    result = compare(args.other, args.deck, args.seeds, args.ops)
    print(f"{args.deck}: median op time here / in {result['other']}, "
          f"bootstrap intervals jointly at {LEVEL:.1%}")
    for kind, row in result["kinds"].items():
        print(f"  {kind:>10} {row['ops']:5d} ops  x{row['ratio']:.3f}  "
              f"[{row['lo']:.3f}, {row['hi']:.3f}]")
    print(f"  failed ops: here {result['failed']['here']}, "
          f"other {result['failed']['other']}")
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return result


if __name__ == "__main__":
    main()
