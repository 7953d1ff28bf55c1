"""Compare the acceptance records of this tree with those of another tree.

    python3 scripts/record_diff.py <other-tree>

Runs every configs/*.json of this tree through run_experiment once with
this tree's src and once with <other-tree>/src, each in its own Python
process, and drops wall_time_s.  Prints, per field (list indices folded,
so 01_gamma_check.json.rows[].closed is one field), how many values
changed and the largest absolute and relative change, or "-" where no
number changed.  A string that holds a JSON object or list, such as an
estimate body, is unfolded into fields of its own, e.g.
05_mc_grid.json.rows[].estimate_body.mean[].  Exits 1 if any "passed" flag
differs.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
from pathlib import Path
from hidacur.experiments import run_experiment
records = {}
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    knobs = json.loads(path.read_text())
    record = run_experiment(knobs["kind"], knobs)
    del record["wall_time_s"]
    records[path.name] = record
print(json.dumps(records))
"""


def records(tree):
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "configs")],
                         cwd=tree, env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


def leaves(node, path=""):
    """{path: value} for every leaf of a JSON value, e.g. "a.rows[3].x";
    a string holding a JSON object or list counts as that value."""
    if isinstance(node, str) and node.startswith(("{", "[")):
        try:
            node = json.loads(node)
        except ValueError:
            pass
    if isinstance(node, dict):
        items = ((f"{path}.{k}".lstrip("."), v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node}
    return {p: leaf for k, v in items for p, leaf in leaves(v, k).items()}


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit(__doc__)
    (other,) = args
    old, new = leaves(records(other)), leaves(records(ROOT))
    stats = {}  # field -> [changed, total, max abs, max rel]; None: no number
    passed_differs = False
    for path in sorted(old.keys() | new.keys()):
        field = re.sub(r"\[\d+\]", "[]", path)
        a, b = old.get(path), new.get(path)
        row = stats.setdefault(field, [0, 0, None, None])
        row[1] += 1
        same = a == b or (is_number(a) and is_number(b)
                          and math.isnan(a) and math.isnan(b))
        if same:
            continue
        row[0] += 1
        if is_number(a) and is_number(b):  # max() skips a NaN change
            diff = abs(b - a)
            row[2] = max(row[2] or 0.0, diff)
            row[3] = max(row[3] or 0.0, diff / abs(a) if a else math.inf)
        passed_differs |= field.rsplit(".", 1)[-1] == "passed"
    width = max(map(len, stats))
    print(f"{'field':<{width}}  changed/total  max abs     max rel")
    for field, (changed, total, diff, rel) in stats.items():
        if changed:
            diff, rel = ("-", "-") if diff is None else (f"{diff:.3g}",
                                                         f"{rel:.3g}")
            print(f"{field:<{width}}  {changed:>7}/{total:<5}  "
                  f"{diff:<10}  {rel}")
    unchanged = sum(1 for row in stats.values() if not row[0])
    print(f"{unchanged} of {len(stats)} fields unchanged; passed flags "
          + ("DIFFER" if passed_differs else "agree"))
    return 1 if passed_differs else 0


if __name__ == "__main__":
    sys.exit(main())
