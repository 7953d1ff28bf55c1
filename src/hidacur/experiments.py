"""Batch experiment runners shared by the CLI and the acceptance suite.

A config's keys are its runner's keyword parameters, so Python refuses a
key the runner does not take, as it refuses a stray key of an mc case
(_mc_case) or an inline phi (TestFunction); from_json refuses one in a phi
file.  Every seed, null and true included, passes errors.check_seed, and
every count and tolerance errors.check_int or errors.check_positive.  Each
runner returns a JSON-able record with outputs and error estimates, and a
pass flag if it ran a check (a single stransform or mollified evaluation
runs none); run_experiment refuses a check with no rows and echoes the
inputs.  The default parameters reproduce the acceptance grid exactly.
"""

from __future__ import annotations

import time

import numpy as np

from . import __version__
from .chaos import (extract_chaos_pairing, first_chaos_pairing_closed,
                    second_chaos_pairing_closed)
from .diagnostics import default_cutoffs, divergence_scan
from .errors import (NonexistenceError, check_int, check_positive,
                     check_reals, check_seed)
from .montecarlo import MCConfig, mc_s_transform
from .quad import integrate_singular
from .schwartz import TestFunction
from .special import singular_mass_closed
from .stransform import (CurrentParams, current_ufunctional,
                         donsker_ufunctional, fit_ufunctional_bound,
                         s_current, s_current_mollified,
                         wick_integrand_ufunctional)

__all__ = ["EXPERIMENT_KINDS", "run_experiment"]


# Test functions for the Monte Carlo acceptance grid, frozen at design time:
# unit-L2 Hermite coefficients concentrating the mass where the mollified
# kernel lives (the x-aligned component carries everything; the kernel's
# -|x - c(t)|^2 feedback rewards that alignment).
MC_PHI_COEFFS = {
    ("d1", 0.05): [
        0.6660649675024909, 0.4074646662453174, -0.23040367221857933,
        -0.36362946107871047, 0.06338163468498938, 0.29159743520158915,
        0.01798846570957435, -0.22219708828326043, -0.055322764143349176,
        0.16359079436537358, 0.06770844394092151, -0.11751809642070533,
        -0.0659784780464919, 0.08332974500027113, 0.05680551482044896,
        -0.05945566278924337,
    ],
    ("d1", 0.01): [
        0.6535170869648191, 0.41412085722237857, -0.21727068970477847,
        -0.3696523533124574, 0.04931923796129859, 0.29640379032385145,
        0.032565233234921054, -0.22571203568604453, -0.07006767753300734,
        0.16589521823383338, 0.08237422424484518, -0.1187467357278622,
        -0.08039851116138456, 0.08363076836801434, 0.07087388448560047,
        -0.05897261799365923,
    ],
    ("d2", 0.05): [
        0.6690270929200228, 0.3901471869516571, -0.24875886977721495,
        -0.3540170776258449, 0.08623787952226637, 0.28987455421909847,
        -0.004742214349238739, -0.22678820649071285, -0.035064119231082394,
        0.17264277502370898, 0.05101131187044587, -0.12931672873700364,
        -0.053174261018037274, 0.09643564257925227, 0.04776456715784163,
        -0.07273559716603059,
    ],
    ("d2", 0.01): [
        0.6661127619590808, 0.3919017264855121, -0.24558594589859012,
        -0.3557910221601951, 0.0825893522377445, 0.29141464079544444,
        -0.0006783625399380765, -0.22796844569425084, -0.039450069077795843,
        0.1733946032027265, 0.05562218171076169, -0.12960710099307735,
        -0.057917696298155776, 0.09625620518664922, 0.05255672568126623,
        -0.07209577232624657,
    ],
}

MC_ACCEPTANCE_CASES = [
    {"d": 1, "x": [0.5], "eps2": 0.05, "seed": 20260501},
    {"d": 1, "x": [0.5], "eps2": 0.01, "seed": 20260502},
    {"d": 2, "x": [1.0, 0.0], "eps2": 0.05, "seed": 20260503},
    {"d": 2, "x": [1.0, 0.0], "eps2": 0.01, "seed": 20260504},
]


def mc_acceptance_phi(d, eps2):
    coef = MC_PHI_COEFFS[(f"d{d}", eps2)]
    comps = [np.asarray(coef)] + [np.zeros(1)] * (d - 1)
    return TestFunction(comps)


def _phi_from_config(obj):
    if isinstance(obj, str):  # file path holding TestFunction JSON
        with open(obj) as fh:
            return TestFunction.from_json(fh.read())
    return TestFunction(**obj)


def _random_phi(rng, d):
    phi = TestFunction([rng.normal(size=5) for _ in range(d)])
    return phi.scaled(1.0 / phi.l2_norm())


def _random_instance(rng, half_width):
    """Draw d in {1, 2, 3}, then x uniform on [-half_width, half_width]^d
    redrawn until |x| >= 0.3, then a unit-L2 phi; returns (d, x, phi)."""
    d = int(rng.integers(1, 4))
    x = rng.uniform(-half_width, half_width, size=d)
    while np.linalg.norm(x) < 0.3:
        x = rng.uniform(-half_width, half_width, size=d)
    return d, x, _random_phi(rng, d)


def _worst(values):
    """Largest of values, 0.0 for none; NaN if any value is NaN."""
    return float(np.max(values, initial=0.0))


def run_gamma_check(d_values=(1, 2, 3, 4, 5), r_values=(0.5, 1.0, 2.0),
                    T_values=(0.5, 1.0, 2.0), rtol=1e-9):
    """Closed-form singular mass vs direct adaptive quadrature (criterion 1)."""
    rtol = check_positive("rtol", rtol)
    rows = []
    for d in d_values:
        for r in r_values:
            for T in T_values:
                closed = singular_mass_closed(d, r, T)
                res = integrate_singular(
                    lambda t: t ** (-d / 2.0) * np.exp(-r * r / (2.0 * t)),
                    T, sing_exponent=-d / 2.0, tol=1e-12, damping=r * r / 2.0)
                rel = abs(closed - res.value) / abs(closed)
                rows.append({"d": d, "r": r, "T": T, "closed": closed,
                             "quadrature": res.value, "rel_error": rel})
    worst = _worst([r["rel_error"] for r in rows])
    return {"rows": rows, "worst_rel_error": worst,
            "passed": bool(worst <= rtol), "rtol": rtol}


def _evaluate(current, x, T, phi, *args, tol=1e-10):
    """Record of one closed-form evaluation current(p, phi, *args)."""
    values, [res] = current(CurrentParams(x, T), _phi_from_config(phi), *args,
                            tol=tol, full_output=True)
    return {"value": values.tolist(),
            "abs_error_estimate": res.abs_error_estimate.tolist(),
            "node_count": res.node_count}


def run_stransform(sweep=False, **knobs):
    """Closed-form current S-transform on one parameter set: x, T, phi and
    tol.  At x = 0 with d > 1 it raises NonexistenceError (exit code 4 in
    the CLI).  With "sweep": true it runs run_existence on the other knobs
    instead."""
    return run_existence(**knobs) if sweep else _evaluate(s_current, **knobs)


def run_mollified(x, T, phi, eps2, tol=1e-10):
    """Mollified current S-transform on one parameter set."""
    return _evaluate(s_current_mollified, x, T, phi, eps2, tol=tol)


def run_existence(seed=20260201, tol=1e-8, n_nonzero=20, n_origin_d1=5):
    """Random sweep of the existence region plus the nonexistence wall
    (criterion 2)."""
    rng = np.random.default_rng(check_seed(seed))
    rows = []
    instances = [_random_instance(rng, 2.0)
                 for _ in range(check_int("n_nonzero", n_nonzero, 0))]
    instances += [(1, np.zeros(1), _random_phi(rng, 1))
                  for _ in range(check_int("n_origin_d1", n_origin_d1, 0))]
    for d, x, phi in instances:
        values, [res] = s_current(CurrentParams(x, 1.0), phi, tol=tol,
                                  full_output=True)
        err = float(np.max(res.abs_error_estimate))
        finite = bool(np.all(np.isfinite(values)))
        rows.append({"d": d, "x": x.tolist(), "value": values.tolist(),
                     "err": err, "finite": finite})
    refusals = []
    for d in (2, 3):
        try:
            s_current(CurrentParams(np.zeros(d), 1.0), _random_phi(rng, d))
            refusals.append({"d": d, "refused": False})
        except NonexistenceError as exc:
            refusals.append({"d": d, "refused": True, "message": str(exc)})
    passed = (all(r["finite"] and r["err"] <= tol for r in rows)
              and all(r["refused"] for r in refusals))
    return {"rows": rows, "refusals": refusals, "passed": passed, "tol": tol}


def _chaos_instances(seed, n_instances):
    """Yield (d, x, i, p, phi, F) per random instance: F is the
    U-functional of component i of the current at x, T = 1."""
    rng = np.random.default_rng(check_seed(seed))
    for _ in range(check_int("n_instances", n_instances, 1)):
        d, x, phi = _random_instance(rng, 1.5)
        i = int(rng.integers(0, d))
        p = CurrentParams(x, 1.0)
        yield d, x, i, p, phi, current_ufunctional(p, i, tol=1e-13)


def run_chaos(order=1, **knobs):
    """Chaos consistency (CLI kind): numeric extraction vs closed forms.

    "order": 1 (default) checks the first-chaos pairing; "order": 2 runs the
    second-chaos convention arbitration."""
    check_int("order", order, 1, 3)
    return (_first_chaos if order == 1 else run_second_chaos)(**knobs)


def _first_chaos(seed=20260301, n_instances=50, atol=1e-8):
    """First-chaos pairing, numeric extraction vs closed form (criterion 3)."""
    atol = check_positive("atol", atol)
    rows = []
    for d, x, i, p, phi, F in _chaos_instances(seed, n_instances):
        c0 = extract_chaos_pairing(F, phi, 0)
        c1 = extract_chaos_pairing(F, phi, 1)
        closed = first_chaos_pairing_closed(p, phi, i)
        diff = abs(c1.value - closed)
        rows.append({"d": d, "x": x.tolist(), "i": i, "numeric": c1.value,
                     "closed": closed, "diff": diff, "order0": c0.value})
    worst1 = _worst([r["diff"] for r in rows])
    worst0 = _worst([abs(r["order0"]) for r in rows])
    passed = worst1 <= atol and worst0 <= 1e-12
    return {"rows": rows, "worst_order1_diff": worst1,
            "worst_order0": worst0, "passed": bool(passed), "atol": atol}


def run_second_chaos(seed=20260401, n_instances=50, atol=1e-6):
    """Second-chaos arbitration between the two conventions (criterion 4).

    Asserts the derivative convention against the numeric second derivative
    and records (without asserting) the ratio of that numeric value to the
    printed-kernel convention, expected -2."""
    atol = check_positive("atol", atol)
    rows = []
    for d, x, i, p, phi, F in _chaos_instances(seed, n_instances):
        c2 = extract_chaos_pairing(F, phi, 2)
        deriv = second_chaos_pairing_closed(p, phi, i, convention="derivative")
        paper = -0.5 * deriv  # exactly second_chaos_pairing_closed's "paper"
        diff = abs(c2.value - deriv)
        row = {"d": d, "x": x.tolist(), "i": i, "numeric": c2.value,
               "derivative_convention": deriv, "paper_convention": paper,
               "diff": diff}
        if abs(paper) > 1e-10:
            row["ratio_derivative_to_paper"] = c2.value / paper
        rows.append(row)
    worst = _worst([r["diff"] for r in rows])
    ratios = [r["ratio_derivative_to_paper"] for r in rows
              if "ratio_derivative_to_paper" in r]
    return {"rows": rows, "worst_diff": worst, "passed": bool(worst <= atol),
            "atol": atol,
            "mean_ratio_derivative_to_paper":
                float(np.mean(ratios)) if ratios else None,
            "expected_ratio_flag": -2.0}


_CASE_SEEDS = object()  # run_mc's default: every case keeps its own seed


def _mc_case(n_paths, n_steps, d, x, eps2, seed):
    """(MCConfig, phi) of one mc case: mc_acceptance_phi(d, eps2) at T = 1."""
    cfg = MCConfig(d=d, T=1.0, x=x, n_paths=n_paths, n_steps=n_steps,
                   eps2=eps2, seed=seed)
    return cfg, mc_acceptance_phi(d, eps2)


def run_mc(cases=MC_ACCEPTANCE_CASES, seed=_CASE_SEEDS, n_paths=200000,
           n_steps=4096, stderr_fraction=0.02):
    """Monte Carlo vs the mollified closed form (criterion 5).  A case's
    keys are _mc_case's d, x, eps2 and seed, and every case is read before
    any runs.  A seed reseeds case k with (seed + k) mod 2^64.
    stderr_fraction bounds each stderr as a fraction of the closed-form
    magnitude; null disables that check (sensible for quick, small-N runs)."""
    if stderr_fraction is not None:
        stderr_fraction = check_positive("stderr_fraction", stderr_fraction)
    if seed is not _CASE_SEEDS:
        seed = check_seed(seed)
        cases = [dict(c, seed=(seed + k) % 2 ** 64)
                 for k, c in enumerate(cases)]
    runs = [_mc_case(n_paths, n_steps, **case) for case in cases]
    rows = []
    for case, (cfg, phi) in zip(cases, runs):
        d, eps2 = cfg.d, cfg.eps2
        est = mc_s_transform(cfg, phi)
        p = CurrentParams(case["x"], cfg.T)
        closed = s_current_mollified(p, phi, eps2, tol=1e-11)
        z = np.abs(est.mean - closed) / np.maximum(est.stderr, 1e-300)
        rel_ok = stderr_fraction is None or all(
            est.stderr[i] <= stderr_fraction * abs(closed[i])
            for i in range(d) if abs(closed[i]) > 1e-3)
        case_ok = bool(np.all(z <= 4.0) and rel_ok)
        rows.append({"d": d, "x": case["x"], "eps2": eps2, "seed": case["seed"],
                     "mc_mean": est.mean.tolist(), "stderr": est.stderr.tolist(),
                     "closed": closed.tolist(), "z": z.tolist(),
                     "stderr_within_2pct": rel_ok, "passed": case_ok,
                     "estimate_body": est.to_json()})
    return {"rows": rows, "n_paths": n_paths, "n_steps": n_steps,
            "passed": all(r["passed"] for r in rows)}


def run_diverge(T=1.0, d_values=(1, 2, 3, 4, 5, 6), cutoffs=None):
    """Divergence scan over dimensions (criterion 6); cutoffs default to
    default_cutoffs(T)."""
    cutoffs = np.asarray(default_cutoffs(T) if cutoffs is None
                         else check_reals("cutoffs", cutoffs))
    rows = []
    for d in d_values:
        rep = divergence_scan(d, T, cutoffs)
        expect = "convergent" if d == 1 else "divergent"
        row = {"d": d, "verdict": rep.verdict, "model": rep.model,
               "rate": rep.rate, "residual": rep.residual}
        row_ok = rep.verdict == expect
        if d == 1:
            row_ok &= abs(rep.rate - 2.0 * np.sqrt(T)) <= 1e-9
        elif d == 2:
            row_ok &= rep.model == "log" and abs(rep.rate - 1.0) <= 0.01
        else:
            row_ok &= rep.model == "power" and abs(rep.rate - (1.0 - d / 2.0)) <= 0.02
        row["passed"] = bool(row_ok)
        rows.append(row)
    return {"rows": rows, "T": T, "passed": all(r["passed"] for r in rows)}


def run_ubound(seed=20260701, n_samples=100,
               radii=tuple(np.geomspace(2.0, 12.0, 8)), angles_per_radius=16):
    """Growth-bound fits on the Donsker delta and the proof integrand
    (criterion 7): normalized C2 must not exceed the analytic 1/2."""
    rng = np.random.default_rng(check_seed(seed))
    check_reals("radii", radii)
    limit = 0.5 * (1.0 + 1e-6)
    rows = []
    for trial in range(check_int("n_samples", n_samples, 1)):
        d, x, phi = _random_instance(rng, 1.5)
        t = rng.uniform(0.5, 2.0)
        if trial % 2 == 0:
            F = donsker_ufunctional(x, t)
            kind = "donsker"
        else:
            F = wick_integrand_ufunctional(x, t, 0)
            kind = "wick_integrand"
        fit = fit_ufunctional_bound(F, phi, radii, angles_per_radius)
        rows.append({"kind": kind, "d": d, "x": x.tolist(), "t": t,
                     "C1": fit.C1, "C2": fit.C2})
    worst = _worst([r["C2"] for r in rows])
    return {"rows": rows, "worst_C2": worst, "limit": limit,
            "passed": bool(worst <= limit)}


EXPERIMENT_KINDS = {
    "gamma-check": run_gamma_check,
    "stransform": run_stransform,
    "mollified": run_mollified,
    "chaos": run_chaos,
    "mc": run_mc,
    "diverge": run_diverge,
    "ubound": run_ubound,
}


def run_experiment(kind, knobs):
    """Run a kind with knobs (less a "kind" key, which must name it) as its
    runner's keyword arguments; returns the record with knobs echoed."""
    if kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}; "
                         f"choose from {sorted(EXPERIMENT_KINDS)}")
    kwargs = dict(knobs)
    if kwargs.pop("kind", kind) != kind:
        raise ValueError(f"config is for kind {knobs['kind']!r}, not {kind!r}")
    t0 = time.perf_counter()
    out = EXPERIMENT_KINDS[kind](**kwargs)
    if "passed" in out and not out["rows"]:  # a check that ran nothing
        raise ValueError(f"{kind} ran no check: its config gives no rows")
    out["kind"] = kind
    out["inputs"] = knobs
    out["wall_time_s"] = time.perf_counter() - t0
    out["version"] = __version__
    return out
