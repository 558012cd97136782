"""Golden corpus of the CLI: every subcommand, every --help and usage errors.

Each case runs ``dwtlife.cli.run`` in-process with ``inputs/`` as the
working directory and records its exact stdout, stderr and exit code in
``expected/<name>.txt``; ``tests/test_golden.py`` diffs every file byte for
byte. Rewrite the files after a deliberate output change with

    PYTHONPATH=src python tests/golden/regen.py

which writes only the files whose bytes change and prints their names; list
each rewritten file in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

GENERATE = ["schedule", "generate", "--install-date", "2025-01-01"]
RUL = ["schedule", "rul", "--component"]


def _argv(text: str) -> list[str]:
    return text.split()


# Every --help page: the top level, each family, and each subcommand.
FAMILIES = "fatigue blade tower aero bearing weibull system schedule".split()
SUBCOMMANDS = [
    "fatigue endurance", "fatigue sn", "fatigue life", "blade bending", "blade torsion",
    "blade life", "tower column", "tower life", "ballast", "aero torque", "aero betz",
    "aero sweep", "bearing life", "weibull fit", "weibull cdf", "weibull quantile",
    "weibull hazard", "weibull sample", "system mttf", "system reliability", "system life",
    "schedule generate", "schedule report", "schedule rul",
]
HELP = {
    "help": (["--help"], {}),
    **{f"help_{family}": ([family, "--help"], {}) for family in FAMILIES},
    **{f"help_{path.replace(' ', '_')}": ([*path.split(), "--help"], {}) for path in SUBCOMMANDS},
}

COLUMN = "tower column --load 1e4 --eccentricity 0.01 --centroid 0.05 --gyration 0.05 --inertia 1e-5"
BALLAST = "ballast --thrust 6035 --nacelle-diameter 2 --base-diameter 3"

# name -> (argv, {"env": {...}, "stdin": <input file>})
CASES = {
    **HELP,
    # one usage error per family: a required flag left out
    "usage_fatigue_endurance_no_sut": (_argv("fatigue endurance --preset tower"), {}),
    "usage_blade_torsion_no_torque": (_argv("blade torsion"), {}),
    "usage_tower_column_no_area": (_argv(f"{COLUMN} --height 6"), {}),
    "usage_ballast_no_base_area": (_argv(BALLAST), {}),
    "usage_aero_betz_no_a0": (_argv("aero betz"), {}),
    "usage_weibull_cdf_no_t": (_argv("weibull cdf --beta 2 --eta 5"), {}),
    "usage_system_reliability_no_t": (_argv("system reliability --config topology.json"), {}),
    "usage_schedule_rul_no_component": (_argv("schedule rul --elapsed 1"), {}),
    # fatigue
    "fatigue_endurance": (_argv("fatigue endurance --sut 58ksi --preset tower"), {}),
    "fatigue_endurance_json": (_argv("fatigue endurance --sut 400MPa --kb 0.85 --json"), {}),
    "fatigue_endurance_imperial": (
        _argv("fatigue endurance --sut 58 --preset blade --units imperial"), {}
    ),
    "fatigue_sn": (_argv("fatigue sn --sut 310MPa --se 120MPa"), {}),
    "fatigue_sn_json": (_argv("fatigue sn --sut 310MPa --se 120MPa --f 0.85 --json"), {}),
    "fatigue_sn_imperial": (_argv("fatigue sn --sut 45 --se 17.6 --units imperial"), {}),
    "fatigue_life": (
        _argv("fatigue life --stress 6.48ksi --a 93.196ksi --b -0.1206 --cycles-per-day 144000"),
        {},
    ),
    "fatigue_life_json": (_argv("fatigue life --stress 200MPa --a 1000MPa --b -0.1 --json"), {}),
    "fatigue_life_imperial": (
        _argv("fatigue life --stress 6.48 --a 93.196 --b -0.1206 --units imperial"), {}
    ),
    "error_fatigue_life_zero_rate": (
        _argv("fatigue life --stress 200MPa --a 1000MPa --b -0.1 --cycles-per-day 0"), {}
    ),
    "error_fatigue_life_infinite_rate": (
        _argv("fatigue life --stress 200MPa --a 1000MPa --b -0.1 --cycles-per-day inf"), {}
    ),
    # blade
    "blade_bending": (_argv("blade bending"), {}),
    "blade_bending_json": (_argv("blade bending --mass 5 --mount-angle 20 --json"), {}),
    "blade_bending_imperial": (
        _argv("blade bending --width 4 --thickness 0.5 --span 30 --units imperial"), {}
    ),
    "blade_torsion": (_argv("blade torsion --torque 300Nm"), {}),
    "blade_torsion_json": (
        _argv("blade torsion --torque 300Nm --width 0.12m --thickness 0.01m --json"), {}
    ),
    "blade_torsion_imperial": (_argv("blade torsion --torque 200 --units imperial"), {}),
    "blade_life": (_argv("blade life"), {}),
    "blade_life_json": (_argv("blade life --stress 40MPa --cycles-per-day 100000 --json"), {}),
    "blade_life_imperial": (_argv("blade life --stress 6 --units imperial"), {}),
    "error_blade_bending_infinite_mass": (_argv("blade bending --mass inf"), {}),
    # tower
    "tower_column": (_argv(f"{COLUMN} --height 6 --area 0.01"), {}),
    "tower_column_json": (_argv(f"{COLUMN} --height 4 --area 0.02 --json"), {}),
    "tower_column_imperial": (
        _argv("tower column --load 2000 --eccentricity 0.4 --centroid 2 --gyration 2 "
              "--height 240 --area 0.01 --inertia 1e-5 --units imperial"),
        {},
    ),
    "tower_life": (_argv("tower life"), {}),
    "tower_life_json": (_argv("tower life --stress 60MPa --cycles-per-day 2000 --json"), {}),
    "tower_life_imperial": (_argv("tower life --units imperial"), {}),
    "error_tower_life_infinite_rate": (_argv("tower life --cycles-per-day inf"), {}),
    # ballast
    "ballast": (_argv(f"{BALLAST} --base-area 4 --safety-factor 1.5"), {}),
    "ballast_json": (_argv(f"{BALLAST} --base-area 4 --density 2000kg/m³ --json"), {}),
    "ballast_imperial": (
        _argv("ballast --thrust 1357 --nacelle-diameter 79 --base-diameter 118 --base-area 4 "
              "--density 1.6 --units imperial"),
        {},
    ),
    # aero
    "aero_torque": (_argv("aero torque"), {}),
    "aero_torque_json": (_argv("aero torque --cp 0.5 --rpm 900 --json"), {}),
    "aero_torque_imperial": (_argv("aero torque --wind 109 --radius 59 --units imperial"), {}),
    "aero_betz": (_argv("aero betz --a0 0.1"), {}),
    "aero_betz_json": (_argv("aero betz --a0 0 --json"), {}),
    "aero_sweep": (_argv("aero sweep"), {}),
    "aero_sweep_json": (_argv("aero sweep --wind 40m/s --json"), {}),
    "aero_sweep_imperial": (_argv("aero sweep --wind 100 --units imperial"), {}),
    # weibull
    "weibull_fit": (_argv("weibull fit --p 10 --bp 10 --q 50 --bq 20"), {}),
    "weibull_fit_json": (_argv("weibull fit --p 5 --bp 3 --q 63.2 --bq 12 --json"), {}),
    "weibull_cdf": (_argv("weibull cdf --beta 2 --eta 5 --t 3"), {}),
    "weibull_cdf_json": (_argv("weibull cdf --beta 0.7 --eta 40 --t 10 --json"), {}),
    "weibull_quantile": (_argv("weibull quantile --beta 1 --eta 1 --p 10"), {}),
    "weibull_quantile_json": (_argv("weibull quantile --beta 3.2 --eta 38 --p 1 --json"), {}),
    "weibull_hazard": (_argv("weibull hazard --beta 2 --eta 5 --t 1 --t2 4"), {}),
    "weibull_hazard_json": (_argv("weibull hazard --beta 1 --eta 5 --t 0 --json"), {}),
    "weibull_sample": (_argv("weibull sample --beta 2 --eta 5 --seed 3 --samples 5"), {}),
    "weibull_sample_json": (
        _argv("weibull sample --beta 0.8 --eta 20 --seed 11 --samples 4 --json"), {}
    ),
    # system
    "system_mttf": (_argv("system mttf --config topology.json --samples 5000 --seed 7"), {}),
    "system_mttf_default_samples_json": (_argv("system mttf --config topology.json --json"), {}),
    "system_mttf_stdin": (
        _argv("system mttf --config - --samples 1000"), {"stdin": "topology_single.json"}
    ),
    "system_reliability": (_argv("system reliability --config topology.json --t 5"), {}),
    "system_reliability_repairs_json": (
        _argv("system reliability --config topology.json --t 2 --repair-rate 0.5 --events 1 --json"),
        {},
    ),
    "system_life_default": (_argv("system life"), {}),
    "system_life_config": (_argv("system life --config lives.json"), {}),
    "system_life_config_flat_json": (_argv("system life --config lives_flat.json --json"), {}),
    "error_system_mttf_no_config": (_argv("system mttf"), {}),
    "error_system_mttf_missing_file": (_argv("system mttf --config missing.json"), {}),
    "error_system_mttf_broken_json": (_argv("system mttf --config broken.json"), {}),
    "error_system_mttf_too_few_samples": (
        _argv("system mttf --config topology.json --samples 0"), {}
    ),
    "error_topology_unknown_tag": (_argv("system mttf --config topology_unknown_tag.json"), {}),
    "error_topology_two_tags": (_argv("system mttf --config topology_two_tags.json"), {}),
    "error_topology_empty_series": (_argv("system mttf --config topology_empty_series.json"), {}),
    "error_topology_unknown_model": (
        _argv("system mttf --config topology_unknown_model.json"), {}
    ),
    "error_topology_missing_rate": (_argv("system mttf --config topology_missing_rate.json"), {}),
    "error_topology_missing_id": (_argv("system mttf --config topology_missing_id.json"), {}),
    "error_topology_negative_rate": (
        _argv("system reliability --config topology_negative_rate.json --t 1"), {}
    ),
    "error_topology_bool_rate": (
        _argv("system reliability --config topology_bool_rate.json --t 1"), {}
    ),
    "error_topology_null_id": (
        _argv("system reliability --config topology_null_id.json --t 1"), {}
    ),
    "error_topology_duplicate_ids": (
        _argv("system reliability --config topology_duplicate_ids.json --t 1"), {}
    ),
    "error_topology_weibull_zero_shape": (
        _argv("system mttf --config topology_weibull_zero_shape.json"), {}
    ),
    "error_reliability_nan_time": (
        _argv("system reliability --config topology.json --t nan"), {}
    ),
    "error_lives_text": (_argv("system life --config lives_text.json"), {}),
    "error_lives_list": (_argv("system life --config lives_list.json"), {}),
    "error_lives_empty": (_argv("system life --config lives_empty.json"), {}),
    "error_lives_negative": (_argv("system life --config lives_negative.json"), {}),
    "error_lives_string_number": (_argv("system life --config lives_string_number.json"), {}),
    "error_system_life_empty_config": (["system", "life", "--config", ""], {}),
    # bearing
    "bearing_life": (_argv("bearing life --config bearing.json"), {}),
    "bearing_life_minimal_json": (_argv("bearing life --config bearing_minimal.json --json"), {}),
    "bearing_life_stdin": (_argv("bearing life --config -"), {"stdin": "bearing.json"}),
    "error_bearing_no_config": (_argv("bearing life"), {}),
    "error_bearing_broken_json": (_argv("bearing life --config broken.json"), {}),
    "error_bearing_missing_geometry": (
        _argv("bearing life --config bearing_missing_geometry.json"), {}
    ),
    "error_bearing_bad_balls": (_argv("bearing life --config bearing_bad_balls.json"), {}),
    "error_bearing_bad_angle": (_argv("bearing life --config bearing_bad_angle.json"), {}),
    "error_bearing_unknown_factor": (
        _argv("bearing life --config bearing_unknown_factor.json"), {}
    ),
    "error_bearing_empty_factors": (_argv("bearing life --config bearing_empty_factors.json"), {}),
    # schedule generate
    "schedule_generate_csv": ([*GENERATE, "--horizon", "2"], {}),
    "schedule_generate_markdown": ([*GENERATE, "--format", "markdown"], {}),
    "schedule_generate_json": ([*GENERATE, "--json"], {}),
    "schedule_generate_full_config": (
        _argv("schedule generate --config site.json --horizon 3"), {}
    ),
    "schedule_generate_config_stdin_markdown": (
        _argv("schedule generate --config - --format markdown"), {"stdin": "site.json"}
    ),
    "schedule_generate_usage_config": (
        [*GENERATE, "--config", "usage_flat.json", "--horizon", "1.5"], {}
    ),
    "schedule_generate_registry": ([*GENERATE, "--registry", "registry.json", "--horizon", "6"], {}),
    "schedule_generate_registry_config_json": (
        _argv("schedule generate --registry registry.json --config site.json --horizon 2 --json"),
        {},
    ),
    "schedule_generate_registry_env": (
        [*GENERATE, "--horizon", "3", "--format", "markdown"],
        {"env": {"DWT_REGISTRY": "registry.json"}},
    ),
    "error_generate_no_install": (_argv("schedule generate"), {}),
    "error_generate_bad_install_date": (_argv("schedule generate --install-date 2025-13-01"), {}),
    "error_generate_empty_install_date": (
        ["schedule", "generate", "--install-date", "", "--horizon", "1"], {}
    ),
    "error_generate_horizon_inf": ([*GENERATE, "--horizon", "inf"], {}),
    "error_generate_horizon_8000": ([*GENERATE, "--horizon", "8000"], {}),
    "error_generate_config_missing_file": ([*GENERATE, "--config", "missing.json"], {}),
    "error_generate_config_broken_json": ([*GENERATE, "--config", "broken.json"], {}),
    "error_generate_empty_config": ([*GENERATE, "--config", ""], {}),
    "error_usage_text": ([*GENERATE, "--config", "usage_text.json"], {}),
    "error_usage_list": ([*GENERATE, "--config", "usage_list.json"], {}),
    "error_usage_negative": ([*GENERATE, "--config", "usage_negative.json"], {}),
    "error_install_missing_date": (
        _argv("schedule generate --config install_missing_date.json"), {}
    ),
    "error_install_bad_date": (_argv("schedule generate --config install_bad_date.json"), {}),
    "error_install_bad_event": (_argv("schedule generate --config install_bad_event.json"), {}),
    "error_install_decreasing_log": (
        _argv("schedule generate --config install_decreasing_log.json"), {}
    ),
    "error_generate_huge_logged_count": (
        _argv("schedule generate --config install_huge_count.json --horizon 1"), {}
    ),
    "error_generate_huge_usage_rate": (
        _argv("schedule generate --config usage_huge_rate.json --horizon 1"), {}
    ),
    "error_registry_missing_file": ([*GENERATE, "--registry", "missing.json"], {}),
    "error_registry_broken_json": ([*GENERATE, "--registry", "broken.json"], {}),
    "error_registry_no_components": ([*GENERATE, "--registry", "registry_no_components.json"], {}),
    "error_registry_unknown_group": ([*GENERATE, "--registry", "registry_unknown_group.json"], {}),
    "error_registry_unknown_trigger": (
        [*GENERATE, "--registry", "registry_unknown_trigger.json"], {}
    ),
    "error_registry_two_tag_trigger": (
        [*GENERATE, "--registry", "registry_two_tag_trigger.json"], {}
    ),
    "error_registry_zero_interval": ([*GENERATE, "--registry", "registry_zero_interval.json"], {}),
    "error_registry_vanishing_interval": (
        [*GENERATE, "--horizon", "1", "--registry", "registry_vanishing_interval.json"], {}
    ),
    "error_registry_missing_description": (
        [*GENERATE, "--registry", "registry_missing_description.json"], {}
    ),
    "error_registry_missing_years": ([*GENERATE, "--registry", "registry_missing_years.json"], {}),
    "error_registry_bad_event": ([*GENERATE, "--registry", "registry_bad_event.json"], {}),
    "error_registry_duplicate_id": ([*GENERATE, "--registry", "registry_duplicate_id.json"], {}),
    "error_registry_bad_life_unit": ([*GENERATE, "--registry", "registry_bad_life_unit.json"], {}),
    "error_registry_cycles_life_no_counter": (
        [*GENERATE, "--registry", "registry_cycles_life_no_counter.json"], {}
    ),
    "error_registry_unknown_counter": (
        [*GENERATE, "--registry", "registry_unknown_counter.json"], {}
    ),
    "error_registry_missing_id": ([*GENERATE, "--registry", "registry_missing_id.json"], {}),
    "error_registry_env_missing_file": (
        [*GENERATE], {"env": {"DWT_REGISTRY": "missing.json"}}
    ),
    # schedule report
    "schedule_report_markdown": (_argv("schedule report"), {}),
    "schedule_report_csv": (_argv("schedule report --format csv"), {}),
    "schedule_report_registry": (_argv("schedule report --registry registry.json"), {}),
    "schedule_report_registry_env_csv": (
        _argv("schedule report --format csv"), {"env": {"DWT_REGISTRY": "registry.json"}}
    ),
    "error_report_registry_unknown_group": (
        _argv("schedule report --registry registry_unknown_group.json"), {}
    ),
    "error_report_empty_registry": (["schedule", "report", "--registry", ""], {}),
    "error_report_null_id": (_argv("schedule report --registry registry_null_id.json"), {}),
    # schedule rul
    "schedule_rul_generator": ([*RUL, "Generator", "--elapsed", "5"], {}),
    "schedule_rul_slip_ring_json": ([*RUL, "Slip Ring", "--elapsed", "3", "--json"], {}),
    "schedule_rul_usage_config": (
        _argv("schedule rul --registry registry.json --component jack --elapsed 0.001 "
              "--config usage_flat.json"),
        {},
    ),
    "schedule_rul_overconsumed": (
        _argv("schedule rul --registry registry.json --component jack --elapsed 1"), {}
    ),
    "error_rul_unknown_component": ([*RUL, "Flux Capacitor", "--elapsed", "1"], {}),
    "error_rul_not_lifed": ([*RUL, "Voltsys Controller", "--elapsed", "1"], {}),
    "error_rul_negative_elapsed": ([*RUL, "Generator", "--elapsed", "-1"], {}),
    "error_rul_usage_text": ([*RUL, "Generator", "--elapsed", "1", "--config", "usage_text.json"], {}),
    "error_rul_registry_unknown_counter": (
        _argv("schedule rul --registry registry_unknown_counter.json --component a --elapsed 1"),
        {},
    ),
}


@contextlib.contextmanager
def _environment(env: dict, stdin: str | None):
    """Run with inputs/ as cwd, only the given dwtlife env vars, and stdin from a file."""
    saved_cwd, saved_stdin = os.getcwd(), sys.stdin
    saved_env = {key: os.environ.get(key) for key in ("DWT_REGISTRY", "COLUMNS", *env)}
    os.environ.pop("DWT_REGISTRY", None)
    os.environ.update({"COLUMNS": "80", **env})
    try:
        os.chdir(INPUTS)
        if stdin is not None:
            sys.stdin = io.StringIO((INPUTS / stdin).read_text(encoding="utf-8"))
        yield
    finally:
        sys.stdin = saved_stdin
        os.chdir(saved_cwd)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def render(name: str) -> bytes:
    """The golden file text of one case: command, exit code, stdout, stderr."""
    from dwtlife import cli

    argv, options = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with _environment(options.get("env", {}), options.get("stdin")):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    header = [f"$ dwtlife {shlex.join(argv)}"]
    header += [f"env {key}={value}" for key, value in options.get("env", {}).items()]
    if "stdin" in options:
        header.append(f"stdin {options['stdin']}")
    text = "\n".join([*header, f"exit {code}", "--- stdout", out.getvalue() + "--- stderr",
                      err.getvalue()])
    return text.encode("utf-8")


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    written = 0
    for name in CASES:
        path = EXPECTED / f"{name}.txt"
        text = render(name)
        if not path.exists() or path.read_bytes() != text:
            path.write_bytes(text)
            print(path.name)
            written += 1
    print(f"wrote {written} of {len(CASES)} files in {EXPECTED}")


if __name__ == "__main__":
    main()
