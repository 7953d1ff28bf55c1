"""Command-line front end.

    hidacur <kind> --config <path> [--out <dir>] [--seed <u64>]

Each kind runs one experiment runner and writes ``<kind>.json`` (and, with
row data, a ``<kind>.csv`` of JSON-text cells) into ``--out``; records are
idempotent given the config apart from the wall-time field.  Both are strict
JSON: a NaN or infinite value is written as null.

Exit codes:
    0   success
    2   bad configuration (unreadable or non-strict JSON, bad kind or values)
    3   numeric failure (budget exhausted, unstable derivative, or a
        requested check that did not meet its tolerance)
    4   evaluation at a nonexistent object (x = 0 with d > 1) requested as
        if it existed; the ``diverge`` kind reports that regime as a
        successful negative result instead
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .errors import (IntegrandFailureError, NonexistenceError,
                     QuadratureBudgetError, UnstableDerivativeError)
from .experiments import EXPERIMENT_KINDS, run_experiment

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NONEXISTENT = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hidacur",
        description="Numerics for stochastic currents of Brownian motion.")
    parser.add_argument("kind", choices=sorted(EXPERIMENT_KINDS),
                        help="experiment kind to run")
    parser.add_argument("--config", required=True,
                        help="path to a JSON config for the chosen kind")
    parser.add_argument("--out", default=".",
                        help="directory for the result record (default: cwd)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (unsigned 64-bit)")
    return parser


def _write_outputs(out_dir, kind, record):
    os.makedirs(out_dir, exist_ok=True)
    # json.dumps writes NaN and +-inf bare; reading them back as null makes
    # both files strict JSON and leaves every finite value as it was
    record = json.loads(json.dumps(record), parse_constant=lambda name: None)
    path = os.path.join(out_dir, f"{kind}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = record.get("rows")
    if rows:
        csv_path = os.path.join(out_dir, f"{kind}.csv")
        keys = sorted({k for row in rows for k in row})
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(keys)
            for row in rows:
                writer.writerow([json.dumps(row.get(k, "")) for k in keys])
    return path


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            knobs = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        print(f"hidacur: cannot read config {args.config}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(knobs, dict):
        print("hidacur: config must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG
    if "kind" in knobs and knobs["kind"] != args.kind:
        print(f"hidacur: config is for kind {knobs['kind']!r}, "
              f"not {args.kind!r}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        if not 0 <= args.seed < 2 ** 64:
            print("hidacur: --seed must fit in an unsigned 64-bit integer",
                  file=sys.stderr)
            return EXIT_CONFIG
        knobs = dict(knobs, seed=args.seed)

    try:
        record = run_experiment(args.kind, knobs)
    except NonexistenceError as exc:
        print(f"hidacur: nonexistent object: {exc}", file=sys.stderr)
        return EXIT_NONEXISTENT
    except (QuadratureBudgetError, UnstableDerivativeError,
            IntegrandFailureError) as exc:
        print(f"hidacur: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (KeyError, TypeError, ValueError) as exc:
        print(f"hidacur: invalid config for kind {args.kind!r}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG

    path = _write_outputs(args.out, args.kind, record)
    # a record without "passed" ran no check: a single evaluation
    passed = record.get("passed")
    status = "done" if passed is None else "pass" if passed else "FAIL"
    print(f"{args.kind}: {status} ({record['wall_time_s']:.2f}s) -> {path}")
    return EXIT_NUMERIC if passed is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
