"""Summary statistics and the numeric checks the workloads share."""

from __future__ import annotations

import math

PRECISION = 0.02  # criterion 5: stderr within 2% of the closed form
CLOSED_FLOOR = 1e-3  # components with |closed| at or below this are skipped


def tail(values, pct):
    """Nearest-rank pct-th percentile of values: (value, samples beyond it)."""
    s = sorted(values)
    k = max(math.ceil(pct / 100.0 * len(s)), 1) - 1
    return s[k], len(s) - 1 - k


def within(values, refs, atol, rtol=0.0):
    """True when every value is finite and |value - ref| <= atol + rtol |ref|."""
    return all(math.isfinite(v) and abs(v - r) <= atol + rtol * abs(r)
               for v, r in zip(values, refs, strict=True))


def s_to_precision(wall, stderr, closed):
    """Projected seconds for an estimate to reach stderr <= PRECISION |closed|.

    Monte Carlo stderr falls like N^(-1/2) and cost grows like N, so a run of
    wall seconds needs (stderr / (PRECISION |closed|))^2 times as long.  The
    worst component with |closed| > CLOSED_FLOOR sets it; a component whose
    closed value is (near) zero has no relative precision to reach and is
    skipped.
    """
    ratios = [(se / (PRECISION * abs(c))) ** 2
              for se, c in zip(stderr, closed, strict=True) if abs(c) > CLOSED_FLOOR]
    if not ratios:
        raise ValueError("no component has |closed| above the floor")
    return wall * max(ratios)
