import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dwtlife import cli

SUBCOMMANDS = {
    "fatigue endurance", "fatigue sn", "fatigue life",
    "blade bending", "blade torsion", "blade life",
    "tower column", "tower life",
    "ballast",
    "aero torque", "aero betz", "aero sweep",
    "bearing life",
    "weibull fit", "weibull cdf", "weibull quantile", "weibull hazard", "weibull sample",
    "system mttf", "system reliability", "system life",
    "schedule generate", "schedule report", "schedule rul",
}

PUBLIC_OPERATIONS = {
    "units": ["convert"],
    "fatigue": [
        "endurance_limit_unmodified", "marin_modified_endurance", "sn_constants",
        "cycles_to_failure", "cycles_to_calendar",
    ],
    "structural": [
        "ballast_required_weight", "ballast_height_for_weight", "secant_deflection",
        "secant_allowable_load", "blade_root_bending_moment", "rect_bending_stress",
        "rect_torsion_max_shear",
    ],
    "rotor": [
        "tip_speed_ratio", "torque_coefficient", "rotor_torque", "rotor_power",
        "ducted_betz_limit",
    ],
    "bearing": [
        "basic_dynamic_axial_rating", "oscillating_rating", "equivalent_axial_load",
        "l10_life", "modified_life", "raceway_stress_cycles", "bearing_calendar_life",
    ],
    "weibull": [
        "cdf", "quantile_Bp", "fit_two_quantiles", "hazard", "average_failure_rate",
        "sample", "failure_regime",
    ],
    "system": [
        "series_reliability", "parallel_reliability", "system_reliability_at",
        "monte_carlo_mttf", "expected_repairs", "poisson_pmf", "system_service_life",
    ],
    "schedule": [
        "load_registry", "generate_schedule", "remaining_service_life", "emit_report",
    ],
}


def run_lines(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, rest = line.partition(" = ")
        pairs[key] = rest
    return pairs


class TestOperationCoverage:
    def test_every_operation_mapped_exactly_once(self):
        expected = {
            f"{module}.{func}"
            for module, funcs in PUBLIC_OPERATIONS.items()
            for func in funcs
        }
        assert set(cli.OPERATION_COMMANDS) == expected

    def test_mapped_operations_exist(self):
        for key in cli.OPERATION_COMMANDS:
            module_name, func = key.split(".")
            module = importlib.import_module(f"dwtlife.{module_name}")
            assert callable(getattr(module, func))

    def test_mapped_subcommands_exist(self, capsys):
        assert set(cli.OPERATION_COMMANDS.values()) <= SUBCOMMANDS
        for path in SUBCOMMANDS:
            code, _, _ = run_lines(capsys, path.split() + ["--help"])
            assert code == 0, path


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_lines(capsys, ["transmogrify"])
        assert code == 1
        assert "usage" in err

    def test_validation_error(self, capsys):
        code, _, err = run_lines(capsys, ["weibull", "cdf", "--beta", "1", "--eta", "10", "--t", "-1"])
        assert code == 1
        assert "error" in err

    def test_numeric_failure(self, capsys):
        code, _, err = run_lines(
            capsys, ["weibull", "hazard", "--beta", "0.5", "--eta", "1", "--t", "0"]
        )
        assert code == 2
        assert "numeric" in err


class TestAeroCommands:
    def test_sweep_json_matches_published_torques(self, capsys):
        code, out, _ = run_lines(capsys, ["aero", "sweep", "--json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        published = {(0.5, 600.0): 4027.0, (0.6, 600.0): 4838.0, (0.4, 900.0): 2154.0}
        assert len(rows) == 3
        for row in rows:
            assert row["torque"] == pytest.approx(published[(row["cp"], row["rpm"])], rel=5e-3)

    def test_sweep_csv(self, capsys):
        code, out, _ = run_lines(capsys, ["aero", "sweep"])
        assert code == 0
        assert out.splitlines()[0] == "cp,rpm,torque_nm"
        assert len(out.splitlines()) == 4

    def test_betz(self, capsys):
        code, out, _ = run_lines(capsys, ["aero", "betz", "--a0", "0"])
        assert code == 0
        assert "0.592593" in out


class TestWeibullCommands:
    def test_cdf_at_zero(self, capsys):
        code, out, _ = run_lines(capsys, ["weibull", "cdf", "--beta", "1", "--eta", "10", "--t", "0"])
        assert code == 0
        assert parse_kv(out)["probability"] == "0"

    def test_fit_json_round_trips_into_cdf(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["weibull", "fit", "--p", "10", "--bp", "10", "--q", "50", "--bq", "20", "--json"],
        )
        assert code == 0
        params = json.loads(out)
        code, out, _ = run_lines(
            capsys,
            ["weibull", "cdf", "--beta", str(params["beta"]), "--eta", str(params["eta"]),
             "--t", "10", "--json"],
        )
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(0.10, abs=1e-9)

    def test_sample_determinism_and_count(self, capsys):
        argv = ["weibull", "sample", "--beta", "2", "--eta", "5", "--seed", "3", "--samples", "50"]
        _, out1, _ = run_lines(capsys, argv)
        _, out2, _ = run_lines(capsys, argv)
        assert out1 == out2
        assert len(out1.splitlines()) == 50


class TestSystemCommands:
    @pytest.fixture
    def topology_file(self, tmp_path):
        doc = {
            "series": [
                {"component": {"id": "a", "model": {"exponential": {"rate": 0.1}}}},
                {"component": {"id": "b", "model": {"exponential": {"rate": 0.3}}}},
            ]
        }
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_mttf_deterministic_per_seed(self, capsys, topology_file):
        argv = ["system", "mttf", "--config", topology_file, "--seed", "7", "--samples", "20000"]
        code, out1, _ = run_lines(capsys, argv)
        assert code == 0
        _, out2, _ = run_lines(capsys, argv)
        assert out1 == out2
        assert float(parse_kv(out1)["mttf"]) == pytest.approx(2.5, rel=0.05)

    def test_reliability_with_repairs(self, capsys, topology_file):
        code, out, _ = run_lines(
            capsys,
            ["system", "reliability", "--config", topology_file, "--t", "2",
             "--repair-rate", "0.2", "--events", "0"],
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["reliability"]) == pytest.approx(0.449329, rel=1e-4)
        assert float(values["expected_repairs"]) == pytest.approx(0.4)

    def test_default_life_summary(self, capsys):
        code, out, _ = run_lines(capsys, ["system", "life"])
        assert code == 0
        values = parse_kv(out)
        assert values["limiting_component"] == "generator"
        assert float(values["system_life_years"]) == 20.0


class TestStructuralCommands:
    def test_ballast(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["ballast", "--thrust", "6035", "--nacelle-diameter", "2",
             "--safety-factor", "1.5", "--base-diameter", "3", "--base-area", "4"],
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["weight"].split()[0]) == pytest.approx(6035.0)

    def test_tower_column(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["tower", "column", "--load", "10000", "--eccentricity", "0.01",
             "--centroid", "0.05", "--gyration", "0.05", "--height", "6",
             "--area", "0.01", "--inertia", "1e-5"],
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["deflection"].split()[0]) == pytest.approx(2.293e-4, rel=1e-3)
        assert "allowable_load" in values

    def test_imperial_output_units(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["fatigue", "endurance", "--sut", "58ksi", "--preset", "tower",
             "--units", "imperial"],
        )
        assert code == 0
        values = parse_kv(out)
        assert values["se_prime"] == "29 ksi"
        assert values["se"].endswith("ksi")
        assert float(values["se"].split()[0]) == pytest.approx(19.73, rel=1e-3)

    def test_blade_torsion_accepts_unit_suffix(self, capsys):
        code, out, _ = run_lines(capsys, ["blade", "torsion", "--torque", "300 Nm"])
        assert code == 0
        assert float(parse_kv(out)["max_shear"].split()[0]) == pytest.approx(308.0, rel=1e-3)

    def test_tower_life_chain(self, capsys):
        code, out, _ = run_lines(capsys, ["tower", "life"])
        assert code == 0
        values = parse_kv(out)
        assert float(values["cycles"]) == pytest.approx(1.4e7, rel=0.05)
        assert float(values["years"]) > 38.0


class TestBearingCommand:
    def test_life_from_config(self, capsys, tmp_path):
        doc = {
            "geometry": {
                "fcm": 1.0, "rows": 1, "balls": 30, "ball_diameter_mm": 25.0,
                "contact_angle_deg": 60.0, "raceway_center_diameter_mm": 1000.0,
            },
            "loads": {"radial_n": 0.0, "axial_n": 1000.0, "moment_nm": 100.0},
            "theta_deg": 30.0,
            "oscillations_per_day": 1500.0,
        }
        path = tmp_path / "bearing.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_lines(capsys, ["bearing", "life", "--config", str(path)])
        assert code == 0
        values = parse_kv(out)
        assert float(values["basic_rating_Ca"]) == pytest.approx(3379.708, rel=1e-4)
        assert "years_raceway_basis" in values
        assert "years_oscillation_basis" in values

    def test_missing_config_is_validation_error(self, capsys):
        code, _, err = run_lines(capsys, ["bearing", "life"])
        assert code == 1
        assert "--config" in err


class TestFatigueCommands:
    def test_sn_constants(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["fatigue", "sn", "--sut", "45ksi", "--se", "17.6ksi", "--units", "imperial"],
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["a"].split()[0]) == pytest.approx(93.196, rel=1e-4)
        assert float(values["b"]) == pytest.approx(-0.1206, rel=1e-3)

    def test_life_from_constants(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["fatigue", "life", "--stress", "6.48ksi", "--a", "93.196ksi",
             "--b", "-0.1206", "--cycles-per-day", "144000"],
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["cycles"]) == pytest.approx(4.0e9, rel=0.05)
        assert float(values["years"]) > 75.0


class TestWeibullQuantileCommand:
    def test_quantile(self, capsys):
        code, out, _ = run_lines(
            capsys, ["weibull", "quantile", "--beta", "1", "--eta", "1", "--p", "10"]
        )
        assert code == 0
        assert float(parse_kv(out)["life"]) == pytest.approx(0.1053605, rel=1e-5)


class TestScheduleCommands:
    def test_generate_default_registry(self, capsys):
        code, out, _ = run_lines(
            capsys, ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "1"]
        )
        assert code == 0
        assert out.splitlines()[0] == "due_date,component_id,task,reason"
        assert "2026-01-01,Ballast Foundation,Top off ballast material every year,interval_elapsed" in out

    def test_generate_json(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "1", "--json"],
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        assert any(e["component_id"] == "Ballast Foundation" for e in entries)

    def test_report_markdown(self, capsys):
        code, out, _ = run_lines(capsys, ["schedule", "report"])
        assert code == 0
        assert "## Structural" in out
        assert "Inspect / Check torque" in out

    def test_rul(self, capsys):
        code, out, _ = run_lines(
            capsys, ["schedule", "rul", "--component", "Generator", "--elapsed", "5"]
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["remaining"]) == pytest.approx(15.0)
        assert float(values["fraction_consumed"]) == pytest.approx(0.25)

    def test_generate_from_full_config(self, capsys, tmp_path):
        doc = {
            "install": {
                "install_date": "2025-01-01",
                "events": [{"date": "2025-06-01", "kind": "high_load"}],
                "cycles": {"jack_cycles": [{"date": "2025-03-15", "count": 15}]},
            },
            "usage": {
                "counters": {
                    "rotor_cycles": 144000,
                    "yaw_oscillations": 1500,
                    "tower_stress_cycles": 1000,
                    "jack_cycles": 0,
                }
            },
        }
        path = tmp_path / "site.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_lines(
            capsys, ["schedule", "generate", "--config", str(path), "--horizon", "1"]
        )
        assert code == 0
        assert "2025-06-01,Voltsys Controller,Inspect after high load events,event" in out
        assert "2025-03-15" in out  # logged jack cycles fire the 15-cycle tasks

    def test_registry_env_var(self, capsys, tmp_path, monkeypatch):
        doc = {
            "components": [
                {
                    "id": "solo",
                    "group": "Control",
                    "failure_modes": ["IC failure"],
                    "tasks": [
                        {"description": "annual look", "trigger": {"calendar_interval": {"years": 1}}}
                    ],
                }
            ]
        }
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("DWT_REGISTRY", str(path))
        code, out, _ = run_lines(capsys, ["schedule", "report"])
        assert code == 0
        assert "solo" in out
        assert "Ballast Foundation" not in out


SINGLE_LEAF_TOPOLOGY = {"component": {"id": "a", "model": {"exponential": {"rate": 0.1}}}}


class TestInputFileErrors:
    @staticmethod
    def commands(path):
        return [
            ["system", "mttf", "--config", path],
            ["system", "reliability", "--config", path, "--t", "1"],
            ["bearing", "life", "--config", path],
            ["schedule", "report", "--registry", path],
            ["schedule", "generate", "--config", path, "--horizon", "1"],
        ]

    @staticmethod
    def assert_one_line_error(capsys, argv):
        code, out, err = run_lines(capsys, argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_missing_file(self, capsys, tmp_path):
        for argv in self.commands(str(tmp_path / "missing.json")):
            self.assert_one_line_error(capsys, argv)

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"series": [')
        for argv in self.commands(str(path)):
            self.assert_one_line_error(capsys, argv)

    def test_directory_instead_of_file(self, capsys, tmp_path):
        self.assert_one_line_error(capsys, ["system", "mttf", "--config", str(tmp_path)])

    def test_missing_registry_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DWT_REGISTRY", str(tmp_path / "nope.json"))
        self.assert_one_line_error(capsys, ["schedule", "report"])

    @pytest.mark.parametrize("argv", [
        ["weibull", "cdf", "--beta", "2", "--eta", "5", "--t", "nan"],
        ["weibull", "hazard", "--beta", "2", "--eta", "5", "--t", "nan"],
        ["weibull", "hazard", "--beta", "2", "--eta", "5", "--t", "1", "--t2", "nan"],
        ["schedule", "generate", "--install-date", "2025-13-01"],
        ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "inf"],
        ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "8000"],
        ["weibull", "hazard", "--beta", "2", "--eta", "5", "--t", "1", "--t2", "inf"],
        ["fatigue", "endurance", "--sut", "1e999 ksi"],
    ], ids=["cdf_nan", "hazard_nan", "average_nan", "install_month_13", "horizon_inf",
            "horizon_8000", "average_inf", "sut_inf"])
    def test_bad_values_are_validation_errors(self, capsys, argv):
        self.assert_one_line_error(capsys, argv)

    @pytest.mark.parametrize("doc", [
        {"lives": {"a": "x"}},
        {"lives": {"a": None}},
        {"lives": [20.0]},
        {"lives": {"a": "inf"}},
    ], ids=["text", "null", "list", "inf"])
    def test_bad_lives_in_system_life_config(self, capsys, tmp_path, doc):
        path = tmp_path / "lives.json"
        path.write_text(json.dumps(doc))
        self.assert_one_line_error(capsys, ["system", "life", "--config", str(path)])

    def test_nan_time_in_reliability_config(self, capsys, tmp_path):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(SINGLE_LEAF_TOPOLOGY))
        self.assert_one_line_error(
            capsys, ["system", "reliability", "--config", str(path), "--t", "nan"]
        )


# Runs in a fresh interpreter: every command but the Monte Carlo and sampling
# ones must leave numpy unloaded.
LAZY_NUMPY_CHILD = """
import contextlib, io, json, sys
from dwtlife import cli

cheap, mc = json.loads(sys.argv[1])
for argv in cheap:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    assert code == 0, (argv, code)
    assert "numpy" not in sys.modules, argv
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(mc)
assert code == 0, (mc, code)
assert "numpy" in sys.modules
"""


class TestLazyNumpy:
    def test_numpy_loaded_only_for_monte_carlo(self, tmp_path):
        topology = tmp_path / "topology.json"
        topology.write_text(json.dumps(SINGLE_LEAF_TOPOLOGY))
        bearing = tmp_path / "bearing.json"
        bearing.write_text(json.dumps({
            "geometry": {
                "fcm": 1.0, "balls": 30, "ball_diameter_mm": 25.0,
                "contact_angle_deg": 60.0, "raceway_center_diameter_mm": 1000.0,
            },
            "loads": {"axial_n": 1000.0, "moment_nm": 100.0},
        }))
        cheap = [
            ["fatigue", "endurance", "--sut", "58ksi", "--preset", "tower"],
            ["blade", "torsion", "--torque", "300 Nm"],
            ["tower", "life"],
            ["ballast", "--thrust", "6035", "--nacelle-diameter", "2",
             "--base-diameter", "3", "--base-area", "4"],
            ["aero", "torque"],
            ["bearing", "life", "--config", str(bearing)],
            ["weibull", "fit", "--p", "10", "--bp", "10", "--q", "50", "--bq", "20"],
            ["weibull", "cdf", "--beta", "2", "--eta", "5", "--t", "1"],
            ["weibull", "quantile", "--beta", "2", "--eta", "5", "--p", "10"],
            ["weibull", "hazard", "--beta", "2", "--eta", "5", "--t", "1"],
            ["system", "reliability", "--config", str(topology), "--t", "1"],
            ["system", "life"],
            ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "1"],
            ["schedule", "report"],
            ["schedule", "rul", "--component", "Generator", "--elapsed", "5"],
        ]
        mc = ["system", "mttf", "--config", str(topology), "--samples", "1000"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_NUMPY_CHILD, json.dumps([cheap, mc])],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
