"""CLI: config handling, exit codes, result records."""

import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

from hidacur import cli, experiments, stransform
from hidacur.cli import main
from hidacur.quad import QuadResult
from hidacur.stransform import BoundFit

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def phi_ref(components):
    return {"components": components}


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["stransform", "--config", str(tmp_path / "none.json")]) == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["stransform", "--config", str(path)]) == 2

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        assert main(["stransform", "--config", str(path)]) == 2

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"kind": "diverge"})
        assert main(["mc", "--config", cfg]) == 2

    def test_missing_field_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"x": [0.5]})  # no T, no phi
        assert main(["stransform", "--config", cfg,
                     "--out", str(tmp_path)]) == 2

    def test_nonexistence_is_exit_4(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "x": [0.0, 0.0], "T": 1.0, "phi": phi_ref([[1.0], [0.0]])})
        assert main(["stransform", "--config", cfg,
                     "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("r", [1e-200, 1e-160])
    def test_underflowing_x_is_numeric_failure(self, tmp_path, r):
        cfg = write_config(tmp_path, "c.json", {
            "x": [r, 0.0], "T": 1.0, "phi": phi_ref([[1.0, 0.3], [0.5]])})
        assert main(["stransform", "--config", cfg,
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("x, T", [
        ([float("inf")], 1.0), ([float("nan")], 1.0), ([0.5], float("inf"))])
    def test_non_finite_input_is_config_error(self, tmp_path, x, T):
        cfg = write_config(tmp_path, "c.json", {
            "x": x, "T": T, "phi": phi_ref([[1.0, 0.5]])})
        assert main(["stransform", "--config", cfg,
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kind, knobs", [
        ("ubound", {"n_samples": 2, "radii": [2, 4, math.inf]}),
        ("mollified", {"x": [0.5], "T": 1.0, "phi": phi_ref([[1.0]]),
                       "eps2": math.inf}),
        ("gamma-check", {"d_values": [1], "rtol": math.nan}),
    ])
    def test_non_finite_constant_is_config_error(self, tmp_path, capsys,
                                                 kind, knobs):
        # json.dumps writes Infinity and NaN; the config reader refuses them
        cfg = write_config(tmp_path, "c.json", knobs)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "is not a JSON number" in capsys.readouterr().err

    def test_fractional_step_count_names_the_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"kind": "mc", "n_steps": 64.5})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "n_steps must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["n_paths", "n_steps"])
    def test_boolean_count_names_the_field(self, tmp_path, capsys, field):
        # JSON true is a Python bool, an Integral, and would run as 1
        cfg = write_config(tmp_path, "c.json", {
            "n_paths": 64, "n_steps": 16, "stderr_fraction": None,
            field: True})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"{field} must be an integer >= 1, got True" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("angles", [2.5, True, 0],
                             ids=["ubound-angles-2.5", "ubound-angles-true",
                                  "ubound-angles-0"])
    def test_bad_angle_count_names_the_value(self, tmp_path, capsys, angles):
        # 2.5 and true ran and passed, 0 died in numpy's reduction
        cfg = write_config(tmp_path, "c.json", {
            "n_samples": 2, "angles_per_radius": angles})
        assert main(["ubound", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"angles_per_radius must be an integer >= 1, got {angles!r}" \
            in capsys.readouterr().err

    def test_bad_seed_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"T": 1.0})
        assert main(["diverge", "--config", cfg, "--seed", str(2 ** 64)]) == 2

    def test_success_is_exit_0(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"T": 1.0})
        assert main(["diverge", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("kind, knobs, argv, key", [
        ("stransform", {"x": [0.5], "T": 1.0, "phi": phi_ref([[1.0]]),
                        "eps2": 0.05}, [], "eps2"),
        ("gamma-check", {"d_values": [1], "r_values": [1.0],
                         "T_values": [1.0], "rtoll": 1e-30}, [], "rtoll"),
        ("ubound", {"n_samples": 2, "sed": 3}, [], "sed"),
        ("diverge", {"d_values": [1], "cutoff": [1e-3]}, [], "cutoff"),
        ("gamma-check", {"d_values": [1], "r_values": [1.0],
                         "T_values": [1.0]}, ["--seed", "5"], "seed"),
        ("stransform", {"x": [0.5, 0.5], "T": 1.0,
                        "phi": {"components": [[1.0], [2.0]], "d": 1}},
         [], "d"),
    ], ids=["stransform-eps2", "gamma-check-rtoll", "ubound-sed",
            "diverge-cutoff", "gamma-check-seed", "stransform-inline-phi-d"])
    def test_key_the_kind_does_not_take_is_config_error(
            self, tmp_path, capsys, kind, knobs, argv, key):
        # a misspelt or misplaced key would otherwise run on its default
        cfg = write_config(tmp_path, "c.json", knobs)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]
                    + argv) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [0, 3])
    def test_chaos_order_other_than_1_or_2_is_config_error(
            self, tmp_path, capsys, order):
        cfg = write_config(tmp_path, "c.json", {"order": order,
                                                "n_instances": 2})
        assert main(["chaos", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"order must be an integer in [1, 3), got {order}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("kind, knobs, shown", [
        ("stransform", {"x": [0.5], "T": True, "phi": phi_ref([[1.0]])},
         "T must be finite and > 0, got True"),
        ("diverge", {"T": True}, "T must be finite and > 0, got True"),
        ("mollified", {"x": [0.5], "T": 1.0, "phi": phi_ref([[1.0]]),
                       "eps2": True}, "eps2 must be finite and > 0, got True"),
        ("stransform", {"x": [0.5], "T": 1.0, "phi": phi_ref([[1.0]]),
                        "tol": True}, "tol must be finite and > 0, got True"),
        ("chaos", {"order": True, "n_instances": 2},
         "order must be an integer in [1, 3), got True"),
        ("chaos", {"order": 2, "n_instances": 3, "atol": True},
         "atol must be finite and > 0, got True"),
        ("gamma-check", {"d_values": [1], "rtol": True},
         "rtol must be finite and > 0, got True"),
        ("mc", {"n_paths": 64, "n_steps": 16, "stderr_fraction": True},
         "stderr_fraction must be finite and > 0, got True"),
        ("stransform", {"x": [True], "T": 1.0, "phi": phi_ref([[1.0]])},
         "x must hold real numbers (no bools), got [True]"),
        ("gamma-check", {"d_values": [True, 2.0]},
         "d must be an integer >= 1, got True"),
        ("gamma-check", {"d_values": [2.0]},
         "d must be an integer >= 1, got 2.0"),
        ("diverge", {"d_values": [True, 2.0]},
         "d must be an integer >= 1, got True"),
        ("diverge", {"d_values": [2.0]}, "d must be an integer >= 1, got 2.0"),
        ("ubound", {"n_samples": True},
         "n_samples must be an integer >= 1, got True"),
        ("stransform", {"sweep": True, "n_nonzero": True},
         "n_nonzero must be an integer >= 0, got True"),
        ("stransform", {"x": [0.5], "T": 1.0, "phi": phi_ref([[True, 0.3]])},
         "components must hold real numbers (no bools), got [True, 0.3]"),
        ("ubound", {"n_samples": 2, "radii": [True, 4.0]},
         "radii must hold real numbers (no bools), got [True, 4.0]"),
        ("diverge", {"d_values": [1], "cutoffs": [True, 0.1, 0.01]},
         "cutoffs must hold real numbers (no bools), got [True, 0.1, 0.01]"),
    ], ids=["stransform-T-true", "diverge-T-true", "mollified-eps2-true",
            "stransform-tol-true", "chaos-order-true", "chaos-atol-true",
            "gamma-check-rtol-true", "mc-stderr-fraction-true",
            "stransform-x-true", "gamma-check-d-true", "gamma-check-d-2.0",
            "diverge-d-true", "diverge-d-2.0", "ubound-n-samples-true", "stransform-sweep-n-nonzero-true",
            "stransform-phi-components-true", "ubound-radii-true",
            "diverge-cutoffs-true"])
    def test_bool_or_out_of_range_value_names_its_key(
            self, tmp_path, capsys, kind, knobs, shown):
        # each ran before: JSON true as 1 (atol true passed criterion 4 at
        # tolerance 1, a true coefficient ran as 1.0 and a true radius
        # fitted at radius 1), d 2.0 as 2, and 0 instances as a passed check
        cfg = write_config(tmp_path, "c.json", knobs)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert shown in capsys.readouterr().err

    @pytest.mark.parametrize("kind, knobs, shown", [
        ("chaos", {"order": 1, "n_instances": 0}, "n_instances"),
        ("chaos", {"order": 2, "n_instances": -3}, "n_instances"),
        ("ubound", {"n_samples": 0}, "n_samples"),
        ("stransform", {"sweep": True, "n_nonzero": 0, "n_origin_d1": 0},
         "stransform ran no check"),
        ("diverge", {"d_values": []}, "diverge ran no check"),
        ("gamma-check", {"d_values": []}, "gamma-check ran no check"),
        ("mc", {"cases": []}, "mc ran no check"),
    ], ids=["chaos-0", "chaos-minus-3", "ubound-0", "stransform-sweep-0",
            "diverge-empty", "gamma-check-empty", "mc-empty"])
    def test_check_that_runs_nothing_is_config_error(
            self, tmp_path, capsys, kind, knobs, shown):
        # each printed "<kind>: pass" with no rows and exited 0; 0 instances
        # and 0 samples are refused as counts, before any work
        cfg = write_config(tmp_path, "c.json", knobs)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"kind {kind!r}" in err and shown in err
        assert not (tmp_path / f"{kind}.json").exists()

    @pytest.mark.parametrize("kind, knobs, argv, shown", [
        ("ubound", {"n_samples": 2, "seed": None}, [], "None"),
        ("chaos", {"n_instances": 2, "seed": None}, [], "None"),
        ("stransform", {"sweep": True, "n_nonzero": 2, "n_origin_d1": 1,
                        "seed": None}, [], "None"),
        ("ubound", {"n_samples": 2}, ["--seed", str(2 ** 64)], str(2 ** 64)),
        ("ubound", {"n_samples": 2}, ["--seed", "-1"], "-1"),
        ("mc", {"n_paths": 64, "n_steps": 16, "stderr_fraction": None},
         ["--seed", str(2 ** 64)], str(2 ** 64)),
        ("mc", {"n_paths": 64, "n_steps": 16, "stderr_fraction": None},
         ["--seed", "-1"], "-1"),
        ("ubound", {"n_samples": 2, "seed": True}, [], "True"),
    ], ids=["ubound-null", "chaos-null", "stransform-sweep-null",
            "ubound-2^64", "ubound-minus-1", "mc-2^64", "mc-minus-1",
            "ubound-true"])
    def test_seed_outside_u64_is_config_error(self, tmp_path, capsys, kind,
                                              knobs, argv, shown):
        # a null seed would draw from OS entropy, and no rerun would
        # reproduce the record; JSON true would run as seed 1
        cfg = write_config(tmp_path, "c.json", knobs)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]
                    + argv) == 2
        assert shown in capsys.readouterr().err

    def test_runner_refuses_seed_outside_u64(self):
        with pytest.raises(ValueError, match=str(2 ** 64)):
            experiments.run_experiment("ubound", {"seed": 2 ** 64})

    def test_runner_refuses_unknown_kind(self):
        # the CLI's choices stop it first; run_experiment is also public
        with pytest.raises(ValueError, match="unknown experiment kind 'sweep'"):
            experiments.run_experiment("sweep", {})

    @pytest.mark.parametrize("env", ["0", "two"])
    def test_bad_thread_count_is_config_error(self, tmp_path, capsys,
                                              monkeypatch, env):
        # 0 ran one thread, and "two" raised int()'s own message
        monkeypatch.setenv("HIDACUR_THREADS", env)
        cfg = write_config(tmp_path, "c.json", {
            "n_paths": 64, "n_steps": 16, "stderr_fraction": None})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "HIDACUR_THREADS must be an integer >= 1" in (
            capsys.readouterr().err)

    def test_null_mc_seed_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "n_paths": 64, "n_steps": 16, "stderr_fraction": None,
            "seed": None})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestFailedCheck:
    """A NaN row fails its runner's check, a failed check exits 3, and its
    record and CSV are strict JSON."""

    @pytest.mark.parametrize("kind, knobs, name, nan", [
        ("gamma-check", {"d_values": [1, 2], "r_values": [1.0],
                         "T_values": [1.0]},
         "integrate_singular", QuadResult(math.nan, 0.0, 0, 0)),
        ("chaos", {"order": 1, "n_instances": 3},
         "first_chaos_pairing_closed", math.nan),
        ("chaos", {"order": 2, "n_instances": 3},
         "second_chaos_pairing_closed", math.nan),
        ("ubound", {"n_samples": 3}, "fit_ufunctional_bound",
         BoundFit(C1=math.nan, C2=math.nan)),
    ])
    def test_nan_row_fails_the_check(self, tmp_path, monkeypatch, kind, knobs,
                                     name, nan):
        real = getattr(experiments, name)
        calls = []

        def nan_first(*args, **kwargs):
            # the first row gets NaN, every later row its real value
            calls.append(1)
            return nan if len(calls) == 1 else real(*args, **kwargs)

        monkeypatch.setattr(experiments, name, nan_first)
        cfg = write_config(tmp_path, "c.json", knobs)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]) == 3
        with open(tmp_path / f"{kind}.json") as fh:
            rec = json.load(fh, parse_constant=cli._reject_constant)
        assert rec["passed"] is False
        assert len(calls) > 1
        with open(tmp_path / f"{kind}.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                for cell in row.values():
                    json.loads(cell, parse_constant=cli._reject_constant)

    def test_unrefused_origin_fails_the_sweep(self, monkeypatch):
        # a current that no longer refused x = 0 in d > 1 must fail
        # criterion 2, with a refusal row saying so
        real = experiments.s_current

        def lenient(p, phi, **kwargs):
            if p.at_origin and p.d > 1:
                return np.zeros(p.d)
            return real(p, phi, **kwargs)

        monkeypatch.setattr(experiments, "s_current", lenient)
        rec = experiments.run_existence(n_nonzero=2, n_origin_d1=1)
        assert rec["refusals"] == [{"d": 2, "refused": False},
                                   {"d": 3, "refused": False}]
        assert rec["passed"] is False

    def test_no_ratio_rows_give_null_mean(self, monkeypatch):
        # every second-chaos value NaN: no row has |paper| > 1e-10
        monkeypatch.setattr(experiments, "second_chaos_pairing_closed",
                            lambda *args, **kwargs: math.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = experiments.run_second_chaos(n_instances=2)
        assert rec["mean_ratio_derivative_to_paper"] is None
        assert rec["passed"] is False


class TestRecords:
    def test_diverge_record(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"T": 1.0, "d_values": [2]})
        assert main(["diverge", "--config", cfg, "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "diverge.json").read_text())
        row = rec["rows"][0]
        assert row["verdict"] == "divergent"
        assert row["model"] == "log"
        assert abs(row["rate"] - 1.0) <= 0.01
        assert rec["version"]
        assert rec["wall_time_s"] >= 0.0
        assert rec["inputs"]["T"] == 1.0
        assert (tmp_path / "diverge.csv").exists()

    def test_diverge_at_small_T(self, tmp_path):
        # the default cutoffs lie inside (0, T) for T < 1 too
        cfg = write_config(tmp_path, "c.json", {"T": 0.005})
        assert main(["diverge", "--config", cfg, "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "diverge.json").read_text())
        assert rec["passed"] is True
        assert rec["rows"][0]["rate"] == pytest.approx(2.0 * 0.005 ** 0.5,
                                                       abs=1e-9)

    def test_csv_reads_back_to_the_record_rows(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "sweep": True, "n_nonzero": 3, "n_origin_d1": 1, "seed": 5})
        assert main(["stransform", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "stransform.json").read_text())
        with open(tmp_path / "stransform.csv", newline="") as fh:
            rows = [{k: json.loads(v) for k, v in row.items()}
                    for row in csv.DictReader(fh)]
        assert any(len(row["x"]) > 1 for row in rows)
        assert rows == rec["rows"]

    def test_mollified_needs_eps2(self, tmp_path):
        knobs = {"x": [0.5, 0.3], "T": 1.0, "phi": phi_ref([[1.0], [0.5]])}
        cfg = write_config(tmp_path, "c.json", knobs)
        assert main(["mollified", "--config", cfg,
                     "--out", str(tmp_path)]) == 2
        cfg = write_config(tmp_path, "c.json", dict(knobs, eps2=0.05))
        assert main(["mollified", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "mollified.json").read_text())
        assert len(rec["value"]) == len(rec["abs_error_estimate"]) == 2
        assert rec["node_count"] > 0

    @pytest.mark.parametrize("eps2, ref", [
        (1e-4, 1.05295), (1e-6, 1.60339), (1e-10, 2.70444), (1e-14, 3.80550)])
    def test_mollified_at_origin_meets_tol(self, tmp_path, eps2, ref):
        # references from scipy quad in log t (tests/test_stransform.py);
        # the record said "passed" with 0.922 for every eps2 <= 1e-6
        cfg = write_config(tmp_path, "c.json", {
            "x": [0.0, 0.0], "T": 1.0, "phi": phi_ref([[1.0, 0.3]] * 2),
            "eps2": eps2, "tol": 0.3})
        assert main(["mollified", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "mollified.json").read_text())
        assert abs(rec["value"][0] - ref) <= 0.3

    @pytest.mark.parametrize("kind", ["stransform", "mollified"])
    def test_single_evaluation_prints_done(self, tmp_path, capsys, kind):
        # one evaluation checks nothing, so its record holds no pass flag
        knobs = {"x": [0.5], "T": 1.0, "phi": phi_ref([[1.0]])}
        if kind == "mollified":
            knobs["eps2"] = 0.05
        cfg = write_config(tmp_path, "c.json", knobs)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith(f"{kind}: done (")
        rec = json.loads((tmp_path / f"{kind}.json").read_text())
        assert "passed" not in rec

    def test_stransform_zero_phi_zero_vector(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "x": [0.5, 0.3], "T": 1.0, "phi": phi_ref([[0.0], [0.0]])})
        assert main(["stransform", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "stransform.json").read_text())
        assert rec["value"] == [0.0, 0.0]

    def test_stransform_near_origin_loose_tol(self, tmp_path):
        # S xi(x) is 1.19545e5 per component here; a quadrature that misses
        # the kernel's peak near t = r^2 / 3 meets tol 3 on the tail alone
        cfg = write_config(tmp_path, "c.json", {
            "x": [1e-6, 0.0, 0.0], "T": 1.0, "tol": 3.0,
            "phi": phi_ref([[1.0, 0.3]] * 3)})
        assert main(["stransform", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "stransform.json").read_text())
        assert all(abs(v - 1.19545e5) <= 3.0 for v in rec["value"])

    def test_mc_record_matches_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "n_paths": 4000, "n_steps": 256, "stderr_fraction": None,
            "cases": [{"d": 1, "x": [0.5], "eps2": 0.05, "seed": 7}]})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "mc.json").read_text())
        assert all(z <= 4.0 for z in rec["rows"][0]["z"])

    def test_phi_from_file_reference(self, tmp_path):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"d": 1, "components": [[1.0]]}))
        cfg = write_config(tmp_path, "c.json", {
            "x": [0.5], "T": 1.0, "phi": str(phi_path)})
        assert main(["stransform", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "stransform.json").read_text())
        assert rec["value"][0] > 0.0

    def test_phi_file_stray_key_is_config_error(self, tmp_path, capsys):
        # a key the file format does not have would otherwise be ignored:
        # "scale" ran unscaled
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"d": 1, "components": [[1.0]],
                                        "scale": 2.0}))
        cfg = write_config(tmp_path, "c.json", {
            "x": [0.5], "T": 1.0, "phi": str(phi_path)})
        assert main(["stransform", "--config", cfg,
                     "--out", str(tmp_path)]) == 2
        assert "'scale'" in capsys.readouterr().err

    def test_phi_file_d_true_is_config_error(self, tmp_path, capsys):
        # true == 1 passed the component count check against one component
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"d": True, "components": [[1.0]]}))
        cfg = write_config(tmp_path, "c.json", {
            "x": [0.5], "T": 1.0, "phi": str(phi_path)})
        assert main(["stransform", "--config", cfg,
                     "--out", str(tmp_path)]) == 2
        assert "d must be an integer >= 1, got True" in capsys.readouterr().err

    def test_idempotent_modulo_wall_time(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"seed": 3, "n_samples": 4})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["ubound", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["ubound", "--config", cfg, "--out", str(out2)]) == 0
        r1 = json.loads((out1 / "ubound.json").read_text())
        r2 = json.loads((out2 / "ubound.json").read_text())
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2

    def test_mc_seed_reseeds_each_case(self, tmp_path):
        # configs/05_mc_grid.json has no "cases"; --seed must still reach
        # the acceptance grid, case k getting seed + k
        cfg = write_config(tmp_path, "c.json", {
            "n_paths": 256, "n_steps": 64, "stderr_fraction": None})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["mc", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["mc", "--config", cfg, "--out", str(out2),
                     "--seed", "5"]) == 0
        r1 = json.loads((out1 / "mc.json").read_text())
        r2 = json.loads((out2 / "mc.json").read_text())
        assert [r["seed"] for r in r1["rows"]] == [20260501, 20260502,
                                                   20260503, 20260504]
        assert [r["seed"] for r in r2["rows"]] == [5, 6, 7, 8]
        for a, b in zip(r1["rows"], r2["rows"]):
            assert a["mc_mean"] != b["mc_mean"]

    def test_mc_top_seed_wraps_per_case(self, tmp_path):
        # case k gets (seed + k) mod 2^64, so seed + 1 must not overflow
        # the generator key
        cfg = write_config(tmp_path, "c.json", {
            "n_paths": 64, "n_steps": 16, "stderr_fraction": None})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path),
                     "--seed", str(2 ** 64 - 1)]) == 0
        rows = json.loads((tmp_path / "mc.json").read_text())["rows"]
        assert [r["seed"] for r in rows] == [2 ** 64 - 1, 0, 1, 2]

    def test_mc_case_seed_outside_u64_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "n_paths": 64, "n_steps": 16, "stderr_fraction": None,
            "cases": [{"d": 1, "x": [0.5], "eps2": 0.05, "seed": -1}]})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key, value, n_good", [
        ("phi", phi_ref([[1.0]]), 0), ("T", 2.0, 0), ("eps", 0.05, 0),
        ("eps", 0.05, 1)],
        ids=["phi-value0", "T-2.0", "eps-0.05", "eps-0.05-in-second-case"])
    def test_mc_unknown_case_key_is_config_error(self, tmp_path, capsys,
                                                 monkeypatch, key, value,
                                                 n_good):
        # a case runs the acceptance phi at T = 1; a key that would not take
        # effect is refused, not ignored, and before any case runs
        def ran(*args, **kwargs):
            raise AssertionError("an mc case ran")

        monkeypatch.setattr(experiments, "mc_s_transform", ran)
        good = {"d": 1, "x": [0.5], "eps2": 0.05, "seed": 7}
        cfg = write_config(tmp_path, "c.json", {
            "n_paths": 64, "n_steps": 16, "stderr_fraction": None,
            "cases": [good] * n_good + [dict(good, **{key: value})]})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_mc_explicit_cases_keep_their_seeds(self, tmp_path):
        from hidacur.experiments import mc_acceptance_phi
        from hidacur.montecarlo import MCConfig, mc_s_transform

        cfg = write_config(tmp_path, "c.json", {
            "n_paths": 256, "n_steps": 64, "stderr_fraction": None,
            "cases": [{"d": 1, "x": [0.5], "eps2": 0.05, "seed": 7}]})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = json.loads((tmp_path / "mc.json").read_text())["rows"][0]
        expected = mc_s_transform(
            MCConfig(d=1, T=1.0, x=(0.5,), n_paths=256, n_steps=64,
                     eps2=0.05, seed=7), mc_acceptance_phi(1, 0.05))
        assert row["seed"] == 7
        assert row["estimate_body"] == expected.to_json()

    def test_seed_override_changes_sweep(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "sweep": True, "n_nonzero": 2, "n_origin_d1": 1, "seed": 1})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["stransform", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["stransform", "--config", cfg, "--out", str(out2),
                     "--seed", "42"]) == 0
        r1 = json.loads((out1 / "stransform.json").read_text())
        r2 = json.loads((out2 / "stransform.json").read_text())
        assert r1["rows"][0]["x"] != r2["rows"][0]["x"]


class TestShippedConfigs:
    """The fast shipped configs run green end to end (the heavy mc config
    is exercised by the acceptance suite)."""

    @pytest.mark.parametrize("kind,name", [
        ("gamma-check", "01_gamma_check.json"),
        ("diverge", "06_diverge.json"),
    ])
    def test_config_runs_clean(self, tmp_path, kind, name):
        cfg = os.path.join(CONFIG_DIR, name)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / f"{kind}.json").read_text())
        assert rec["passed"] is True

    @pytest.mark.parametrize("name", [*sorted(os.listdir(CONFIG_DIR)),
                                      "stransform", "mollified"])
    def test_unknown_key_refused_before_any_work(self, monkeypatch, name):
        # covers the sweep and order forwarding without running a criterion
        def no_work(*args, **kwargs):
            raise AssertionError("ran work before refusing the key")

        for attr in ("integrate_singular", "mc_s_transform",
                     "divergence_scan", "fit_ufunctional_bound"):
            monkeypatch.setattr(experiments, attr, no_work)
        monkeypatch.setattr(stransform, "integrate_singular", no_work)
        if name.endswith(".json"):
            with open(os.path.join(CONFIG_DIR, name)) as fh:
                knobs = json.load(fh)
        else:
            knobs = {"kind": name, "x": [0.5], "T": 1.0,
                     "phi": phi_ref([[1.0]])}
            if name == "mollified":
                knobs["eps2"] = 0.05
        with pytest.raises(TypeError, match="'bogus'"):
            experiments.run_experiment(knobs["kind"], dict(knobs, bogus=1))

    def test_all_shipped_configs_parse(self):
        names = sorted(os.listdir(CONFIG_DIR))
        assert len(names) == 7
        for name in names:
            with open(os.path.join(CONFIG_DIR, name)) as fh:
                obj = json.load(fh)
            assert "kind" in obj
