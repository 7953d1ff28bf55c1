"""CLI: config handling, exit codes, result records."""

import csv
import json
import math
import os
import warnings
from types import SimpleNamespace

import pytest

from hidacur import cli, experiments
from hidacur.cli import main
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

    def test_bad_seed_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"T": 1.0})
        assert main(["diverge", "--config", cfg, "--seed", str(2 ** 64)]) == 2

    def test_success_is_exit_0(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"T": 1.0})
        assert main(["diverge", "--config", cfg, "--out", str(tmp_path)]) == 0


class TestFailedCheck:
    """A NaN row fails its runner's check, a failed check exits 3, and its
    record and CSV are strict JSON."""

    @pytest.mark.parametrize("kind, knobs, name, nan", [
        ("gamma-check", {"d_values": [1, 2], "r_values": [1.0],
                         "T_values": [1.0]},
         "integrate_singular", SimpleNamespace(value=math.nan)),
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

    def test_no_ratio_rows_give_null_mean(self, monkeypatch):
        # every second-chaos value NaN: no row has |paper| > 1e-10
        monkeypatch.setattr(experiments, "second_chaos_pairing_closed",
                            lambda *args, **kwargs: math.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = experiments.run_second_chaos({"n_instances": 2})
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
        cfg = write_config(tmp_path, "c.json", {
            "x": [0.5], "T": 1.0, "eps2": 0.05, "phi": phi_ref([[1.0]])})
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

    def test_idempotent_modulo_wall_time(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "T": 1.0, "seed": 3, "n_samples": 4})
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

    @pytest.mark.parametrize("key, value", [
        ("phi", phi_ref([[1.0]])), ("T", 2.0), ("eps", 0.05)])
    def test_mc_unknown_case_key_is_config_error(self, tmp_path, capsys, key,
                                                 value):
        # a case runs the acceptance phi at T = 1; a key that would not take
        # effect is refused, not ignored
        case = {"d": 1, "x": [0.5], "eps2": 0.05, "seed": 7, key: value}
        cfg = write_config(tmp_path, "c.json", {
            "n_paths": 64, "n_steps": 16, "stderr_fraction": None,
            "cases": [case]})
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"unknown mc case keys ['{key}']" in capsys.readouterr().err

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

    def test_all_shipped_configs_parse(self):
        names = sorted(os.listdir(CONFIG_DIR))
        assert len(names) == 7
        for name in names:
            with open(os.path.join(CONFIG_DIR, name)) as fh:
                obj = json.load(fh)
            assert "kind" in obj
