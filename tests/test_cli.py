import argparse
import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dwtlife import cli
from dwtlife.presets import DEFAULT_USAGE
from oracles import PARENT_PRESETS

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402

LIFE_ARGV = ["fatigue", "life", "--stress", "200MPa", "--a", "1000MPa", "--b"]
COLUMN = ["tower", "column", "--load", "1e4", "--eccentricity", "0.01", "--centroid", "0.05",
          "--gyration", "0.05", "--inertia", "1e-5"]
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
        "l10_life", "modified_life", "raceway_stress_cycles",
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


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, rest = line.partition(" = ")
        pairs[key] = rest
    return pairs


class TestOperationCoverage:
    def test_mapped_operations_exist(self):
        for module_name, funcs in PUBLIC_OPERATIONS.items():
            module = importlib.import_module(f"dwtlife.{module_name}")
            for func in funcs:
                assert callable(getattr(module, func)), f"{module_name}.{func}"

    def test_mapped_subcommands_exist(self):
        assert set(cli.COMMANDS) == SUBCOMMANDS
        for path in SUBCOMMANDS:
            code, _, _ = regen.run_cli(path.split() + ["--help"])
            assert code == 0, path


QUANTITY_DEFAULTS = [
    (path, flag, spec) for path, (_, _, flags) in cli.COMMANDS.items()
    for flag, spec in flags.items() if "dim" in spec and "default" in spec
]


@pytest.mark.parametrize("path, flag, spec", QUANTITY_DEFAULTS,
                         ids=[f"{path} {flag}" for path, flag, _ in QUANTITY_DEFAULTS])
def test_quantity_default_names_its_unit(path, flag, spec):
    """A default that names its unit reads the same under either --units mode."""
    dest = flag[2:].replace("-", "_")
    si_values = []
    for units in ("si", "imperial"):
        args = argparse.Namespace(units=units, **{dest: spec["default"]})
        cli._to_si(args, {flag: spec})
        si_values.append(getattr(args, dest))
    assert si_values[0] == si_values[1]


def calls_to(tree, name: str) -> list:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


class TestNoDocumentFormat:
    def test_read_document_is_called_only_inside_read_json(self):
        """The CLI reads a file or stdin; the library module owning a type reads its document."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        (read_json,) = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_read_json"
        ]
        assert calls_to(read_json, "read_document")
        assert calls_to(tree, "read_document") == calls_to(read_json, "read_document")


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, _, err = regen.run_cli(["transmogrify"])
        assert code == 1
        assert "usage" in err

    def test_validation_error(self):
        code, _, err = regen.run_cli(["weibull", "cdf", "--beta", "1", "--eta", "10", "--t", "-1"])
        assert code == 1
        assert "error" in err

    def test_numeric_failure(self):
        code, _, err = regen.run_cli(
            ["weibull", "hazard", "--beta", "0.5", "--eta", "1", "--t", "0"]
        )
        assert code == 2
        assert "numeric" in err

    @pytest.mark.parametrize("argv", [
        ["weibull", "hazard", "--beta", "1e300", "--eta", "2.5", "--t", "37"],
        ["system", "reliability", "--config", "topology.json", "--t", "1e308"],
        [*COLUMN, "--area", "0.01", "--height", "1e-300"],
        ["blade", "torsion", "--torque", "1e308"],
        ["blade", "torsion", "--torque", "1e308", "--json"],
        [*COLUMN, "--area", "1e300", "--height", "6"],
        ["weibull", "sample", "--beta", "0.01", "--eta", "1e300", "--seed", "1", "--samples", "3"],
        [*COLUMN, "--area", "1e200", "--height", "1e-60"],
    ], ids=["hazard_pow", "reliability_pow", "column_pow", "shear_inf", "shear_inf_json",
            "column_inf", "sample_inf", "column_buckling_inf"])
    def test_overflow_is_one_line_numeric_failure(self, monkeypatch, argv):
        monkeypatch.chdir(Path(__file__).resolve().parent / "golden" / "inputs")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = regen.run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("numeric failure: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 7.45 GiB")],
                             ids=["bare", "numpy"])
    def test_out_of_memory_is_one_line_numeric_failure(self, monkeypatch, error):
        def exhausted(args):
            raise error

        handler, *rest = cli.COMMANDS["weibull sample"]
        monkeypatch.setitem(cli.COMMANDS, "weibull sample", (exhausted, *rest))
        code, out, err = regen.run_cli(["weibull", "sample", "--beta", "2", "--eta", "10"])
        assert (code, out) == (2, "")
        assert err.startswith("numeric failure: out of memory") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, key", [
    (["weibull", "cdf", "--beta", "1", "--eta", "5", "--t", "-0"], "probability"),
    (["blade", "torsion", "--torque", "-0"], "max_shear"),
    (["tower", "column", "--load", "1e4", "--eccentricity", "-0", "--centroid", "0.05",
      "--gyration", "0.05", "--inertia", "1e-5", "--height", "6", "--area", "0.01"], "deflection"),
    (["schedule", "rul", "--component", "Generator", "--elapsed", "-0", "--json"],
     "fraction_consumed"),
], ids=["weibull_cdf", "blade_torsion", "tower_column", "schedule_rul_json"])
def test_zero_prints_without_a_sign(argv, key):
    code, out, err = regen.run_cli(argv)
    assert (code, err) == (0, "")
    shown = json.loads(out)[key] if "--json" in argv else float(parse_kv(out)[key].split()[0])
    assert shown == 0 and math.copysign(1.0, shown) == 1.0, out


# A subnormal Euler load, 4.2e-316 N: a bisection to 1e-9 of it, 0, would not end.
COLUMN_HANG = ["tower", "column", "--load", "13095", "--eccentricity", "0.01", "--centroid",
               "0.05", "--gyration", "0.05", "--height", "7.65", "--area", "5e-324",
               "--inertia", "1e-5"]


def edge_probes() -> list:
    """Each float or quantity flag of each command set in turn to each edge value, in the
    first golden argv of that command that exits 0; a flag the argv leaves out is added."""
    probes = []
    for path, (_, _, flags) in cli.COMMANDS.items():
        argv, options = next(
            (argv, options) for name, (argv, options) in regen.CASES.items()
            if argv[:len(path.split())] == path.split() and "--help" not in argv
            and "\nexit 0\n" in (regen.EXPECTED / f"{name}.txt").read_text(encoding="utf-8")
        )
        for flag, spec in flags.items():
            if spec.get("type") is not float and "dim" not in spec:
                continue
            for value in regen.EDGE_VALUES:
                probes.append(pytest.param(regen.set_flag(argv, flag, value), options,
                                           id=f"{path} {flag} {value}"))
    return [*probes, pytest.param(COLUMN_HANG, {}, id="tower column subnormal buckling load")]


@pytest.mark.parametrize("argv, options", edge_probes())
def test_edge_value_gives_one_of_three_results(argv, options):
    """A finite answer (exit 0), or one error line (exit 1) or numeric failure line (exit 2),
    within regen.run_cli's time limit."""
    code, out, err = regen.run_case(argv, options)
    assert code in (0, 1, 2)
    assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out), out
    if code:
        reasons = [line for line in err.splitlines()
                   if line.startswith(("error: ", "numeric failure: "))]
        assert len(reasons) == 1, err


def test_subnormal_buckling_load_ends_in_a_fresh_process(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "dwtlife.cli", *COLUMN_HANG], cwd=tmp_path,
                          env=cold_env(), capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("numeric failure: ") and proc.stderr.count("\n") == 1


class TestAeroCommands:
    def test_sweep_json_matches_published_torques(self):
        code, out, _ = regen.run_cli(["aero", "sweep", "--json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        published = {(0.5, 600.0): 4027.0, (0.6, 600.0): 4838.0, (0.4, 900.0): 2154.0}
        assert len(rows) == 3
        for row in rows:
            assert row["torque"] == pytest.approx(published[(row["cp"], row["rpm"])], rel=5e-3)

    def test_sweep_csv(self):
        code, out, _ = regen.run_cli(["aero", "sweep"])
        assert code == 0
        assert out.splitlines()[0] == "cp,rpm,torque_nm"
        assert len(out.splitlines()) == 4

    def test_betz(self):
        code, out, _ = regen.run_cli(["aero", "betz", "--a0", "0"])
        assert code == 0
        assert "0.592593" in out


class TestWeibullCommands:
    def test_cdf_at_zero(self):
        code, out, _ = regen.run_cli(["weibull", "cdf", "--beta", "1", "--eta", "10", "--t", "0"])
        assert code == 0
        assert parse_kv(out)["probability"] == "0"

    def test_fit_json_round_trips_into_cdf(self):
        code, out, _ = regen.run_cli(
            ["weibull", "fit", "--p", "10", "--bp", "10", "--q", "50", "--bq", "20", "--json"],
        )
        assert code == 0
        params = json.loads(out)
        code, out, _ = regen.run_cli(
            ["weibull", "cdf", "--beta", str(params["beta"]), "--eta", str(params["eta"]),
             "--t", "10", "--json"],
        )
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(0.10, abs=1e-9)

    def test_sample_determinism_and_count(self):
        argv = ["weibull", "sample", "--beta", "2", "--eta", "5", "--seed", "3", "--samples", "50"]
        _, out1, _ = regen.run_cli(argv)
        _, out2, _ = regen.run_cli(argv)
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

    def test_mttf_deterministic_per_seed(self, topology_file):
        argv = ["system", "mttf", "--config", topology_file, "--seed", "7", "--samples", "20000"]
        code, out1, _ = regen.run_cli(argv)
        assert code == 0
        _, out2, _ = regen.run_cli(argv)
        assert out1 == out2
        assert float(parse_kv(out1)["mttf"]) == pytest.approx(2.5, rel=0.05)

    def test_reliability_with_repairs(self, topology_file):
        code, out, _ = regen.run_cli(
            ["system", "reliability", "--config", topology_file, "--t", "2",
             "--repair-rate", "0.2", "--events", "0"],
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["reliability"]) == pytest.approx(0.449329, rel=1e-4)
        assert float(values["expected_repairs"]) == pytest.approx(0.4)

    def test_default_life_summary(self):
        code, out, _ = regen.run_cli(["system", "life"])
        assert code == 0
        values = parse_kv(out)
        assert values["limiting_component"] == "generator"
        assert float(values["system_life_years"]) == 20.0


class TestStructuralCommands:
    def test_ballast(self):
        code, out, _ = regen.run_cli(
            ["ballast", "--thrust", "6035", "--nacelle-diameter", "2",
             "--safety-factor", "1.5", "--base-diameter", "3", "--base-area", "4"],
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["weight"].split()[0]) == pytest.approx(6035.0)

    def test_tower_column(self):
        code, out, _ = regen.run_cli(
            ["tower", "column", "--load", "10000", "--eccentricity", "0.01",
             "--centroid", "0.05", "--gyration", "0.05", "--height", "6",
             "--area", "0.01", "--inertia", "1e-5"],
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["deflection"].split()[0]) == pytest.approx(2.293e-4, rel=1e-3)
        assert "allowable_load" in values

    def test_imperial_output_units(self):
        code, out, _ = regen.run_cli(
            ["fatigue", "endurance", "--sut", "58ksi", "--preset", "tower",
             "--units", "imperial"],
        )
        assert code == 0
        values = parse_kv(out)
        assert values["se_prime"] == "29 ksi"
        assert values["se"].endswith("ksi")
        assert float(values["se"].split()[0]) == pytest.approx(19.73, rel=1e-3)

    def test_blade_torsion_accepts_unit_suffix(self):
        code, out, _ = regen.run_cli(["blade", "torsion", "--torque", "300 Nm"])
        assert code == 0
        assert float(parse_kv(out)["max_shear"].split()[0]) == pytest.approx(308.0, rel=1e-3)

    def test_tower_life_chain(self):
        code, out, _ = regen.run_cli(["tower", "life"])
        assert code == 0
        values = parse_kv(out)
        assert float(values["cycles"]) == pytest.approx(1.4e7, rel=0.05)
        assert float(values["years"]) > 38.0


class TestBearingCommand:
    def test_life_from_config(self, tmp_path):
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
        code, out, _ = regen.run_cli(["bearing", "life", "--config", str(path)])
        assert code == 0
        values = parse_kv(out)
        assert float(values["basic_rating_Ca"]) == pytest.approx(3379.708, rel=1e-4)
        assert "years_raceway_basis" in values
        assert "years_oscillation_basis" in values

    def test_missing_config_is_validation_error(self):
        code, _, err = regen.run_cli(["bearing", "life"])
        assert code == 1
        assert "--config" in err


# (argv ending in a flag, a negative value for it, the error it gives)
NEGATIVE_WORDS = [
    (LIFE_ARGV, "-inf", "S-N exponent b must lie in (-inf, 0), got -inf"),
    (LIFE_ARGV, "-INFINITY", "S-N exponent b must lie in (-inf, 0), got -inf"),
    (LIFE_ARGV, "-Nan", "S-N exponent b must lie in (-inf, 0), got nan"),
    (["fatigue", "endurance", "--sut"], "-1MPa",
     "ultimate_tensile_strength must lie in (0, inf), got -1000000.0"),
    (["fatigue", "endurance", "--sut"], "-.5ksi",
     "ultimate_tensile_strength must lie in (0, inf), got -3447378.5"),
]


class TestFatigueCommands:
    def test_sn_constants(self):
        code, out, _ = regen.run_cli(
            ["fatigue", "sn", "--sut", "45ksi", "--se", "17.6ksi", "--units", "imperial"],
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["a"].split()[0]) == pytest.approx(93.196, rel=1e-4)
        assert float(values["b"]) == pytest.approx(-0.1206, rel=1e-3)

    def test_life_from_constants(self):
        code, out, _ = regen.run_cli(
            ["fatigue", "life", "--stress", "6.48ksi", "--a", "93.196ksi",
             "--b", "-0.1206", "--cycles-per-day", "144000"],
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["cycles"]) == pytest.approx(4.0e9, rel=0.05)
        assert float(values["years"]) > 75.0

    def test_life_takes_no_strength_fraction(self):
        code, out, err = regen.run_cli(
            ["fatigue", "life", "--stress", "200MPa", "--a", "1000MPa", "--b", "-0.1", "--f", "0.5"],
        )
        assert (code, out) == (1, "")
        assert err.endswith("error: unrecognized arguments: --f 0.5\n")

    @pytest.mark.parametrize("value, expected", [("-1e-3", 0), ("-1e-300", 2)])
    def test_negative_e_notation_is_a_flag_value(self, value, expected):
        argv = ["fatigue", "life", "--stress", "999MPa", "--a", "1000MPa"]
        spaced = regen.run_cli([*argv, "--b", value])
        assert spaced == regen.run_cli([*argv, f"--b={value}"])
        assert spaced[0] == expected

    @pytest.mark.parametrize("argv, value, message", NEGATIVE_WORDS,
                             ids=[value for _, value, _ in NEGATIVE_WORDS])
    def test_negative_word_is_a_flag_value(self, argv, value, message):
        """A word starting "-" then a digit, or -inf or -nan, reads as its --flag=value form."""
        spaced = regen.run_cli([*argv, value])
        assert spaced == regen.run_cli([*argv[:-1], f"{argv[-1]}={value}"])
        assert spaced[2] == f"error: {message}\n"


class TestWeibullQuantileCommand:
    def test_quantile(self):
        code, out, _ = regen.run_cli(
            ["weibull", "quantile", "--beta", "1", "--eta", "1", "--p", "10"]
        )
        assert code == 0
        assert float(parse_kv(out)["life"]) == pytest.approx(0.1053605, rel=1e-5)


class TestScheduleCommands:
    def test_generate_default_registry(self):
        code, out, _ = regen.run_cli(
            ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "1"]
        )
        assert code == 0
        assert out.splitlines()[0] == "due_date,component_id,task,reason"
        assert "2026-01-01,Ballast Foundation,Top off ballast material every year,interval_elapsed" in out

    def test_generate_json(self):
        code, out, _ = regen.run_cli(
            ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "1", "--json"],
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        assert any(e["component_id"] == "Ballast Foundation" for e in entries)

    def test_report_markdown(self):
        code, out, _ = regen.run_cli(["schedule", "report"])
        assert code == 0
        assert "## Structural" in out
        assert "Inspect / Check torque" in out

    def test_rul(self):
        code, out, _ = regen.run_cli(
            ["schedule", "rul", "--component", "Generator", "--elapsed", "5"]
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["remaining"]) == pytest.approx(15.0)
        assert float(values["fraction_consumed"]) == pytest.approx(0.25)

    def test_generate_from_full_config(self, tmp_path):
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
        code, out, _ = regen.run_cli(
            ["schedule", "generate", "--config", str(path), "--horizon", "1"]
        )
        assert code == 0
        assert "2025-06-01,Voltsys Controller,Inspect after high load events,event" in out
        assert "2025-03-15" in out  # logged jack cycles fire the 15-cycle tasks

    def test_registry_env_var(self, tmp_path, monkeypatch):
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
        code, out, _ = regen.run_cli(["schedule", "report"])
        assert code == 0
        assert "solo" in out
        assert "Ballast Foundation" not in out


SINGLE_LEAF_TOPOLOGY = {"component": {"id": "a", "model": {"exponential": {"rate": 0.1}}}}
BEARING_DOC = {
    "geometry": {
        "fcm": 1.0, "balls": 30, "ball_diameter_mm": 25.0,
        "contact_angle_deg": 60.0, "raceway_center_diameter_mm": 1000.0,
    },
    "loads": {"axial_n": 1000.0, "moment_nm": 100.0},
}

# Followed by a dict in test_bad_values_are_validation_errors: the --config document.
GENERATE_WITH_CONFIG = [
    "schedule", "generate", "--install-date", "2025-01-01", "--horizon", "1", "--config",
]
RUL_WITH_CONFIG = ["schedule", "rul", "--component", "Generator", "--elapsed", "5", "--config"]
MTTF_WITH_CONFIG = ["system", "mttf", "--samples", "1000", "--config"]
REPORT_WITH_REGISTRY = ["schedule", "report", "--registry"]
INF_LIFE_REGISTRY = {"components": [
    {"id": "a", "group": "Control", "service_life": {"value": "inf", "unit": "years"}},
]}


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
    def assert_one_line_error(argv):
        code, out, err = regen.run_cli(argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_missing_file(self, tmp_path):
        for argv in self.commands(str(tmp_path / "missing.json")):
            self.assert_one_line_error(argv)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"series": [')
        for argv in self.commands(str(path)):
            self.assert_one_line_error(argv)

    def test_directory_instead_of_file(self, tmp_path):
        self.assert_one_line_error(["system", "mttf", "--config", str(tmp_path)])

    def test_missing_registry_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DWT_REGISTRY", str(tmp_path / "nope.json"))
        self.assert_one_line_error(["schedule", "report"])

    @pytest.mark.parametrize("argv", [
        ["weibull", "cdf", "--beta", "2", "--eta", "5", "--t", "nan"],
        ["weibull", "hazard", "--beta", "2", "--eta", "5", "--t", "nan"],
        ["weibull", "hazard", "--beta", "2", "--eta", "5", "--t", "1", "--t2", "nan"],
        ["schedule", "generate", "--install-date", "2025-13-01"],
        ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "inf"],
        ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "8000"],
        ["weibull", "hazard", "--beta", "2", "--eta", "5", "--t", "1", "--t2", "inf"],
        ["fatigue", "endurance", "--sut", "1e999 ksi"],
        [*GENERATE_WITH_CONFIG, {"usage": {"jack_cycles": "x"}}],
        [*GENERATE_WITH_CONFIG, {"usage": [1, 2]}],
        [*GENERATE_WITH_CONFIG, {"usage": {**DEFAULT_USAGE.counters, "yaw_oscillations": "nan"}}],
        [*RUL_WITH_CONFIG, {"usage": {"counters": {"rotor_cycles": "inf"}}}],
        ["schedule", "generate", "--horizon", "1", "--config", {"install": {
            "install_date": "2024-01-01",
            "cycles": {"jack_cycles": [{"date": "2024-02-01", "count": "nan"}]},
        }}],
        [*MTTF_WITH_CONFIG, {"component": {"id": "a", "model": {"exponential": {"rate": "x"}}}}],
        [*MTTF_WITH_CONFIG, {"series": 5}],
        [*MTTF_WITH_CONFIG, {"component": {"id": "a", "model": {}}}],
        [*MTTF_WITH_CONFIG, {"component": {"id": "a", "model": {
            "exponential": {"rate": 1}, "fixed_life": {"life": 2},
        }}}],
        [*REPORT_WITH_REGISTRY, {"components": 5}],
        [*REPORT_WITH_REGISTRY, {"components": [5]}],
        ["schedule", "generate", "--install-date", "2025-01-01", "--registry", INF_LIFE_REGISTRY],
        ["schedule", "rul", "--component", "a", "--elapsed", "1", "--registry", INF_LIFE_REGISTRY],
        [*REPORT_WITH_REGISTRY, {"components": [{"id": "a", "group": "Control", "tasks": [
            {"description": "x", "trigger": {"calendar_interval": {"years": 1e999}}},
        ]}]}],
        ["aero", "torque", "--rpm", "inf"],
        ["ballast", "--thrust", "6035", "--nacelle-diameter", "2", "--base-diameter", "3",
         "--base-area", "inf"],
        ["tower", "column", "--load", "1e4", "--eccentricity", "0.01", "--centroid", "0.05",
         "--gyration", "0.05", "--inertia", "inf", "--area", "0.01", "--height", "6"],
        ["system", "reliability", "--t", "1", "--repair-rate", "nan", "--config",
         SINGLE_LEAF_TOPOLOGY],
        ["schedule", "rul", "--component", "Generator", "--elapsed", "nan"],
        ["weibull", "fit", "--p", "10", "--bp", "10", "--q", "50", "--bq", "inf"],
        ["system", "mttf", "--seed", "-1", *MTTF_WITH_CONFIG[2:], SINGLE_LEAF_TOPOLOGY],
        ["system", "mttf", "--seed", str(2**128), *MTTF_WITH_CONFIG[2:], SINGLE_LEAF_TOPOLOGY],
        ["weibull", "sample", "--beta", "2", "--eta", "5", "--seed", "-1"],
    ], ids=["cdf_nan", "hazard_nan", "average_nan", "install_month_13", "horizon_inf",
            "horizon_8000", "average_inf", "sut_inf", "usage_text", "usage_list", "usage_nan",
            "rul_usage_inf", "cycle_count_nan", "rate_text", "series_number", "model_empty",
            "model_two_tags", "components_number", "component_number", "generate_life_inf",
            "rul_life_inf", "interval_inf", "rpm_inf", "base_area_inf", "column_inertia_inf",
            "repair_rate_nan", "elapsed_nan", "quantile_life_inf", "mttf_seed_negative",
            "mttf_seed_2_128", "sample_seed_negative"])
    def test_bad_values_are_validation_errors(self, tmp_path, argv):
        if isinstance(argv[-1], dict):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(argv[-1]))
            argv = [*argv[:-1], str(path)]
        self.assert_one_line_error(argv)

    @pytest.mark.parametrize("doc", [
        {"lives": {"a": "x"}},
        {"lives": {"a": None}},
        {"lives": [20.0]},
        {"lives": {"a": "inf"}},
    ], ids=["text", "null", "list", "inf"])
    def test_bad_lives_in_system_life_config(self, tmp_path, doc):
        path = tmp_path / "lives.json"
        path.write_text(json.dumps(doc))
        self.assert_one_line_error(["system", "life", "--config", str(path)])

    def test_nan_time_in_reliability_config(self, tmp_path):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(SINGLE_LEAF_TOPOLOGY))
        self.assert_one_line_error(["system", "reliability", "--config", str(path), "--t", "nan"])


# Validation branches the CLI reaches and no other test runs: argv (a trailing
# dict is the --config document) and the exact error line.
VALIDATION_BRANCHES = [
    (["fatigue", "life", "--stress", "200MPa", "--a", "900MPa", "--b", "0.1"],
     "S-N exponent b must lie in (-inf, 0), got 0.1"),
    (["aero", "torque", "--cp", "1.5"], "power coefficient must lie in (0, 1), got 1.5"),
    (["weibull", "fit", "--p", "150", "--bp", "10", "--q", "50", "--bq", "20"],
     "percent must lie in (0, 100), got 150.0"),
    (["blade", "bending", "--mount-angle", "95"], "mount_angle_phi must lie in [0, 90], got 95.0"),
    (["schedule", "generate", "--horizon", "1", "--config", {"install": {
        "install_date": "2025-01-01",
        "events": [{"date": "2025-06-01", "kind": "high_load"},
                   {"date": "2025-03-01", "kind": "high_load"}],
    }}], "installation document: event log dates must be nondecreasing"),
    (["bearing", "life", "--config",
      {**BEARING_DOC, "geometry": {**BEARING_DOC["geometry"], "rows": 0}}],
     "bearing document: rows_i must lie in [1, inf), got 0"),
    (["bearing", "life", "--config",
      {**BEARING_DOC, "factors": {"a1": 3, "a2": 1, "a3": 1, "a4": 1}}],
     "bearing document: life factor a1 must lie in (0, 2], got 3.0"),
]


@pytest.mark.parametrize("argv, message", VALIDATION_BRANCHES, ids=[
    "sn_exponent_positive", "cp_above_one", "percent_above_100", "mount_angle_95",
    "events_back_in_date", "zero_rows", "life_factor_3",
])
def test_validation_branch_error_line(tmp_path, argv, message):
    if isinstance(argv[-1], dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(path)]
    assert regen.run_cli(argv) == (1, "", f"error: {message}\n")


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
        bearing.write_text(json.dumps(BEARING_DOC))
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


# Runs one cold command the way `python -m dwtlife.cli` does, then prints its
# exit code and the dwtlife modules loaded by then.
COLD_IMPORTS_CHILD = """
import contextlib, io, json, runpy, sys
sys.argv = ["dwtlife", *json.loads(sys.argv[1])]
code = 0
try:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_module("dwtlife.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("dwtlife."))]))
"""


class TestColdImports:
    @staticmethod
    def cold_modules(tmp_path, argv):
        (tmp_path / "topology.json").write_text(json.dumps(SINGLE_LEAF_TOPOLOGY))
        (tmp_path / "bearing.json").write_text(json.dumps(BEARING_DOC))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", COLD_IMPORTS_CHILD, json.dumps(argv)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == 0, (argv, proc.stderr)
        return set(modules)

    @pytest.mark.parametrize("argv", [
        ["fatigue", "endurance", "--sut", "58ksi", "--preset", "tower"],
        ["blade", "bending"],
        ["tower", "life"],
        ["ballast", "--thrust", "6035", "--nacelle-diameter", "2",
         "--base-diameter", "3", "--base-area", "4"],
        ["aero", "torque"],
        ["bearing", "life", "--config", "bearing.json"],
        ["weibull", "hazard", "--beta", "2", "--eta", "5", "--t", "1"],
        ["system", "reliability", "--config", "topology.json", "--t", "1"],
        ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "1"],
    ], ids=lambda argv: argv[0])
    def test_only_schedule_commands_load_schedule(self, tmp_path, argv):
        loaded = self.cold_modules(tmp_path, argv)
        assert ("dwtlife.schedule" in loaded) == (argv[0] == "schedule"), loaded

    def test_weibull_cdf_loads_only_what_it_runs(self, tmp_path):
        argv = ["weibull", "cdf", "--beta", "2", "--eta", "5", "--t", "1"]
        assert self.cold_modules(tmp_path, argv) == {
            "dwtlife.errors", "dwtlife.model", "dwtlife.weibull",
        }

    def test_blade_torsion_loads_no_preset(self, tmp_path):
        loaded = self.cold_modules(tmp_path, ["blade", "torsion", "--torque", "300Nm"])
        assert "dwtlife.presets" not in loaded, loaded

    def test_blade_bending_loads_no_preset(self, tmp_path):
        loaded = self.cold_modules(tmp_path, ["blade", "bending"])
        assert "dwtlife.presets" not in loaded, loaded

    def test_tower_column_loads_no_preset(self, tmp_path):
        argv = [*COLUMN, "--height", "6", "--area", "0.01", "--syc", "450MPa"]
        loaded = self.cold_modules(tmp_path, argv)
        assert "dwtlife.presets" not in loaded, loaded

    def test_presets_load_only_model(self, tmp_path):
        child = ("import json, sys, dwtlife.presets; "
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('dwtlife.'))))")
        proc = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=cold_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["dwtlife.errors", "dwtlife.model", "dwtlife.presets"]

    def test_system_life_loads_at_most_four_modules(self, tmp_path):
        loaded = self.cold_modules(tmp_path, ["system", "life"])
        assert len(loaded) <= 4, loaded

    @pytest.mark.parametrize("argv", [
        ["schedule", "generate", "--install-date", "2025-01-01", "--config", "usage.json"],
        ["schedule", "rul", "--component", "Generator", "--elapsed", "5", "--config", "usage.json"],
    ], ids=lambda argv: argv[1])
    def test_schedule_with_usage_config_loads_no_preset(self, tmp_path, argv):
        (tmp_path / "usage.json").write_text(json.dumps({"usage": DEFAULT_USAGE.counters}))
        loaded = self.cold_modules(tmp_path, argv)
        for module in ("presets", "bearing", "fatigue", "rotor"):
            assert f"dwtlife.{module}" not in loaded, loaded


# A valid argv for every subcommand, run from a directory holding
# topology.json and bearing.json.
LEAF_ARGV = {
    "fatigue endurance": "--sut 58ksi",
    "fatigue sn": "--sut 310MPa --se 120MPa",
    "fatigue life": "--stress 200MPa --a 1000MPa --b -0.1",
    "blade bending": "",
    "blade torsion": "--torque 300Nm",
    "blade life": "",
    "tower column": " ".join(COLUMN[2:]) + " --height 6 --area 0.01",
    "tower life": "",
    "ballast": "--thrust 6035 --nacelle-diameter 2 --base-diameter 3 --base-area 4",
    "aero torque": "",
    "aero betz": "--a0 0.1",
    "aero sweep": "",
    "bearing life": "--config bearing.json",
    "weibull fit": "--p 10 --bp 10 --q 50 --bq 20",
    "weibull cdf": "--beta 2 --eta 5 --t 1",
    "weibull quantile": "--beta 2 --eta 5 --p 10",
    "weibull hazard": "--beta 2 --eta 5 --t 1",
    "weibull sample": "--beta 2 --eta 5 --samples 10",
    "system mttf": "--config topology.json --samples 1000",
    "system reliability": "--config topology.json --t 1",
    "system life": "",
    "schedule generate": "--install-date 2025-01-01",
    "schedule report": "",
    "schedule rul": "--component Generator --elapsed 5",
}
NUMPY_LEAVES = {"system mttf", "weibull sample"}

# Flags after LEAF_ARGV that reach the operations a leaf argv leaves unrun.
OPTIONAL_OPERATION_ARGV = {
    "weibull hazard": "--t2 2",
    "system reliability": "--repair-rate 0.1 --events 1",
    "fatigue life": "--cycles-per-day 100",
}


def test_every_public_operation_runs_under_some_command(monkeypatch, tmp_path):
    """Each PUBLIC_OPERATIONS entry, replaced by a spy, is called by at least one
    subcommand's LEAF_ARGV (with its OPTIONAL_OPERATION_ARGV)."""
    public = {f"{module}.{name}" for module, names in PUBLIC_OPERATIONS.items() for name in names}
    called = set()
    for operation in public:
        module_name, name = operation.split(".")
        module = importlib.import_module(f"dwtlife.{module_name}")

        def spy(*args, _real=getattr(module, name), _operation=operation, **kwargs):
            called.add(_operation)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    # a series holding a parallel group, so both reliability folds run
    leaf = {"component": {"id": "a", "model": {"exponential": {"rate": 0.1}}}}
    parallel = {"parallel": [{"component": {"id": "b", "model": {"fixed_life": {"life": 5.0}}}},
                             {"component": {"id": "c", "model": {"exponential": {"rate": 1}}}}]}
    (tmp_path / "topology.json").write_text(json.dumps({"series": [leaf, parallel]}))
    (tmp_path / "bearing.json").write_text(json.dumps(BEARING_DOC))
    monkeypatch.chdir(tmp_path)
    for path, argv in LEAF_ARGV.items():
        code, _, err = regen.run_cli(
            [*path.split(), *argv.split(), *OPTIONAL_OPERATION_ARGV.get(path, "").split()]
        )
        assert code == 0, (path, err)
    assert public - called == set()


# Each own flag with a default in cli.COMMANDS -> another valid value. Giving
# the flag that value after the subcommand's LEAF_ARGV must change what the
# command prints: a flag that changes no output is refused, not ignored.
DEFAULTED_FLAG_VALUES = {
    ("fatigue endurance", "--preset"): "tower",
    ("fatigue sn", "--f"): "0.85",
    ("blade bending", "--mass"): "5",
    ("blade bending", "--width"): "0.3m",
    ("blade bending", "--thickness"): "0.005m",
    ("blade bending", "--span"): "2m",
    ("blade torsion", "--width"): "0.3m",
    ("blade torsion", "--thickness"): "0.005m",
    ("blade life", "--stress"): "40MPa",
    ("blade life", "--cycles-per-day"): "100000",
    ("tower column", "--syc"): "300MPa",
    ("tower column", "--modulus"): "70000MPa",
    ("tower life", "--stress"): "60MPa",
    ("tower life", "--cycles-per-day"): "2000",
    ("ballast", "--safety-factor"): "1.5",
    ("ballast", "--density"): "2000kg/m³",
    ("aero torque", "--cp"): "0.5",
    ("aero torque", "--rpm"): "900",
    ("aero torque", "--wind"): "40m/s",
    ("aero torque", "--air-density"): "1.2kg/m³",
    ("aero torque", "--radius"): "2m",
    ("aero sweep", "--wind"): "40m/s",
    ("aero sweep", "--air-density"): "1.2kg/m³",
    ("aero sweep", "--radius"): "2m",
    ("schedule generate", "--horizon"): "2",
}
# The blade's mount angle is validated but resolves no load (see CHANGES.md, the
# FOUND line on blade bending --mount-angle); removing it changes benchmark argv.
NO_OP_DEFAULTED_FLAGS = {("blade bending", "--mount-angle")}


def test_every_defaulted_flag_has_a_value_row():
    defaulted = {(path, flag) for path, (_, _, flags) in cli.COMMANDS.items()
                 for flag, spec in flags.items() if "default" in spec}
    assert defaulted == DEFAULTED_FLAG_VALUES.keys() | NO_OP_DEFAULTED_FLAGS


@pytest.mark.parametrize("path, flag", sorted(DEFAULTED_FLAG_VALUES),
                         ids=[f"{path} {flag}" for path, flag in sorted(DEFAULTED_FLAG_VALUES)])
def test_defaulted_flag_changes_the_output(path, flag):
    argv = [*path.split(), *LEAF_ARGV[path].split()]
    code, default_out, err = regen.run_cli(argv)
    assert code == 0, err
    code, out, err = regen.run_cli([*argv, flag, DEFAULTED_FLAG_VALUES[path, flag]])
    assert code == 0, err
    assert out != default_out


def test_every_preset_is_read():
    """Each public presets name is read in code as presets.<NAME> by a dwtlife module."""
    from dwtlife import presets

    public = {name for name in vars(presets) if name.isupper() and name[0] != "_"}
    read = {
        node.attr
        for module in Path(cli.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "presets"
    }
    assert public <= read, public - read


def test_readers_build_the_presets_as_before():
    """The strengths, Marin sets and bearing factors built from the plain presets data."""
    from dwtlife import presets
    from dwtlife.bearing import LifeModFactors
    from dwtlife.units import parse_quantity

    def fields(record):
        return tuple((name, getattr(record, name)) for name in record._fields)

    def marin(preset):
        flags = dict.fromkeys(("ka", "kb", "kc", "kd", "ke", "kf"))
        return fields(cli._marin_from_args(argparse.Namespace(preset=preset, **flags)))

    assert {
        "TOWER_STEEL_SUT": parse_quantity(presets.TOWER_STEEL_SUT, "Pa"),
        "BLADE_ALUMINUM_SUT": parse_quantity(presets.BLADE_ALUMINUM_SUT, "Pa"),
        "TOWER_MARIN": marin("tower"),
        "BLADE_MARIN": marin("blade"),
        "BEARING_LIFE_FACTORS": fields(LifeModFactors(**presets.BEARING_LIFE_FACTORS)),
    } == PARENT_PRESETS


def cold_env() -> dict:
    """The environment of a cold CLI process: this checkout's src, stdout block-buffered."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for name in ("DWT_REGISTRY", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    return env


def cold_cli(tmp_path, argv, **options):
    """A fresh ``python -m dwtlife.cli ARGV`` process, run in tmp_path; bytes out."""
    (tmp_path / "topology.json").write_text(json.dumps(SINGLE_LEAF_TOPOLOGY))
    (tmp_path / "bearing.json").write_text(json.dumps(BEARING_DOC))
    return subprocess.run([sys.executable, *options.pop("python", ()), "-m", "dwtlife.cli", *argv],
                          cwd=tmp_path, env=cold_env(), capture_output=True, timeout=60, **options)


class TestColdStart:
    def test_every_subcommand_has_an_argv(self):
        assert set(LEAF_ARGV) == set(cli.COMMANDS)

    @pytest.mark.parametrize("path", sorted(LEAF_ARGV), ids=lambda path: path.replace(" ", "_"))
    def test_no_dataclasses_and_no_inspect_without_numpy(self, tmp_path, path):
        argv = [*path.split(), *LEAF_ARGV[path].split()]
        proc = cold_cli(tmp_path, argv, python=["-X", "importtime"])
        assert proc.returncode == 0, proc.stderr
        imported = {line.split("|")[-1].strip() for line in proc.stderr.decode().splitlines()}
        assert "dataclasses" not in imported
        assert ("numpy" in imported) == (path in NUMPY_LEAVES)
        if path not in NUMPY_LEAVES:
            assert "inspect" not in imported


class TestOpenBlasDefault:
    """main() runs numpy's OpenBLAS on one thread unless the environment sets a count."""

    @pytest.mark.parametrize("given, seen", [(None, "1"), ("4", "4")], ids=["unset", "set"])
    def test_main_sets_only_an_unset_count(self, monkeypatch, given, seen):
        if given is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
        counts = []

        def run():
            counts.append(os.environ["OPENBLAS_NUM_THREADS"])
            return 0

        monkeypatch.setattr(cli, "run", run)
        monkeypatch.setattr(cli.atexit, "register", lambda *args: None)
        with pytest.raises(SystemExit):
            cli.main()
        assert counts == [seen]


class TestFastExit:
    """main() ends the process from an atexit hook with os._exit, after a flush."""

    def test_stdout_bytes_match_in_process_run(self, tmp_path):
        argv = ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "30"]
        code, out, err = regen.run_cli(argv)
        proc = cold_cli(tmp_path, argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
        assert code == 0 and len(proc.stdout) > 100_000

    @pytest.mark.parametrize("argv, expected", [
        (["aero", "betz", "--a0", "0.1"], 0),
        (["aero", "betz", "--help"], 0),
        (["aero", "betz", "--a0", "2"], 1),
        (["aero", "betz"], 1),
        (["blade", "torsion", "--torque", "1e308"], 2),
    ], ids=["ok", "help", "validation", "usage", "numeric"])
    def test_exit_code_and_output_survive(self, tmp_path, argv, expected):
        code, out, err = regen.run_cli(argv)
        proc = cold_cli(tmp_path, argv)
        assert code == expected
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())

    def test_closed_stdout_is_one_error_line(self, tmp_path):
        proc = cold_cli(tmp_path, ["aero", "betz", "--a0", "0.1"], stdout=None,
                        preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (1, b"error: stdout is closed\n")

    @pytest.mark.parametrize("argv", [
        ["aero", "betz", "--a0", "0.1"],
        ["schedule", "generate", "--install-date", "2025-01-01", "--horizon", "30"],
    ], ids=["flushed_at_exit", "written_by_run"])
    def test_broken_pipe_is_one_error_line(self, tmp_path, argv):
        proc = subprocess.Popen([sys.executable, "-m", "dwtlife.cli", *argv], cwd=tmp_path,
                                env=cold_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before the command writes
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"error: [Errno 32] Broken pipe\n")
