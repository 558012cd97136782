"""Command-line front end.

Subcommand map:

    fatigue endurance|sn|life      blade bending|torsion|life
    tower column|life              ballast
    aero torque|betz|sweep         bearing life
    weibull fit|cdf|quantile|hazard|sample
    system mttf|reliability|life   schedule generate|report|rul

One table, COMMANDS, holds a row per subcommand: its handler, the shared
flags it reads (--units, --json, --seed, --samples, --config, --format)
and its own flags. One loop builds the parser from the table, so a
subcommand accepts only the flags it reads and any other flag is a usage
error. A flag that another flag leaves unread is refused with one error
line: ``system reliability --events`` without ``--repair-rate``,
``schedule generate --json --format`` and, in
``schedule.site_from_document``, --install-date beside a --config
'install' record. The file holds no document format: ``_read_json`` reads
a JSON file or stdin, and the library reader next to the document's type,
such as ``bearing.summary_from_document``, builds it.

A quantity flag (a "dim" key in its row) accepts a unit suffix of its
dimension ("58 ksi", "300Nm"; "58 mph" for a stress is an error); a bare
number takes the --units mode's unit for that dimension. ``run`` converts
every quantity flag to an SI float before the handler runs, then prints
what the handler returns through ``_emit``: 6 significant digits, or
--json, and never a non-finite number. Diagnostics go to stderr. Exit
codes: 0 success, 1 validation/usage error, 2 numeric failure (an
overflow or a division by zero included).

An omitted flag takes its COMMANDS row's default, which names its unit
if it is a quantity: the study's stresses, blade section and mass, gust
flow, tower steel yield and modulus. A handler fills in a value only where
a row cannot: the Marin factors (their base set depends on --preset), the
shared --samples and --format (their default differs per command) and
``fatigue life --cycles-per-day`` (absent means no years row).

A cold command pays only for its own work. At module level this file
imports only the standard library and ``.errors``; each handler imports
the library modules it uses, so ``weibull cdf`` loads ``errors``, ``model``
and ``weibull``, and only the ``schedule`` commands load ``schedule``.
``_build_parser`` names every family but builds only the subcommands of
the family in argv and the flags of the subcommand in argv. ``main`` ends
the process with ``os._exit`` once the output is flushed, skipping
interpreter teardown, and runs numpy's OpenBLAS on one thread unless the
environment says otherwise; ``run`` has neither side effect, for
in-process callers.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import math
import os
import re
import sys

from .errors import NumericError, ValidationError

_DISPLAY_UNITS = {
    "si": {
        "stress": "MPa",
        "force": "N",
        "torque": "N·m",
        "length": "m",
        "speed": "m/s",
        "density": "kg/m³",
    },
    "imperial": {
        "stress": "ksi",
        "force": "lbf",
        "torque": "ft·lb",
        "length": "in",
        "speed": "mph",
        "density": "g/cc",
    },
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word that starts "-" and then a digit or ".digit" ("-1e-3", "-1MPa", "-.5"),
        # or is -inf, -infinity or -nan in any case, is a value: no flag name starts so
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.I)

    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise NumericError(f"result is not finite ({value})")
    return f"{value:.6g}"


def _display(args, value, dim) -> tuple:
    """value in the --units mode's unit for dim, and that unit ("" for none); a
    float gains 0.0, so a negative zero shows as 0 and any other value as it is."""
    unit = ""
    if dim is not None and isinstance(value, (int, float)):
        from .units import from_si

        unit = _DISPLAY_UNITS[args.units][dim]
        value = from_si(value, unit)
    return (value + 0.0 if isinstance(value, float) else value), unit


def _emit(args, result) -> None:
    """Print a handler's result; a number that is not finite is a NumericError, never printed.

    result is a list of (key, value, dimension-or-None) rows, printed as one
    JSON object or as ``key = value [unit]`` lines; or, for the list-shaped
    outputs, a JSON object (under --json) or text. Text numbers go through
    _fmt.
    """
    if isinstance(result, list):
        shown = [(key, *_display(args, value, dim)) for key, value, dim in result]
        if args.json:
            result = {key: value for key, value, _ in shown}
        else:
            result = "".join(
                f"{key} = {_fmt(value) if isinstance(value, float) else value}"
                + (f" {unit}\n" if unit else "\n")
                for key, value, unit in shown
            )
    if isinstance(result, dict):
        try:
            result = json.dumps(result, allow_nan=False) + "\n"
        except ValueError:
            raise NumericError("result is not finite") from None
    if sys.stdout is None:  # the process was started with stdout closed
        raise OSError("stdout is closed")
    sys.stdout.write(result)


def _read_json(path: str):
    """The JSON document of --config, --registry or DWT_REGISTRY ('-' for stdin)."""
    from .model import read_document

    if path == "-":
        return read_document("malformed JSON input", json.load, sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return read_document("malformed JSON input", json.load, handle)


def _read_config(args):
    if not args.config:
        raise ValidationError("this subcommand needs --config <path> (or '-' for stdin)")
    return _read_json(args.config)


# ---------------------------------------------------------------------------
# fatigue / tower / blade chains


def _marin_from_args(args):
    from .fatigue import MarinFactors

    names = MarinFactors._fields
    if args.preset in ("tower", "blade"):
        from . import presets

        base = presets.TOWER_MARIN if args.preset == "tower" else presets.BLADE_MARIN
    else:
        base = dict.fromkeys(names, 1)
    return MarinFactors(**{
        name: base[name] if getattr(args, name) is None else getattr(args, name)
        for name in names
    })


def _cmd_fatigue_endurance(args):
    from . import fatigue

    se_prime = fatigue.endurance_limit_unmodified(args.sut)
    se = fatigue.marin_modified_endurance(se_prime, _marin_from_args(args))
    return [("se_prime", se_prime, "stress"), ("se", se, "stress")]


def _cmd_fatigue_sn(args):
    from . import fatigue

    constants = fatigue.sn_constants(args.sut, args.se, args.f)
    return [("a", constants.a, "stress"), ("b", constants.b, None), ("f", args.f, None)]


def _life_rows(constants, args) -> list:
    """The cycles and flags rows of args.stress on the S-N curve, and the years row when args
    holds a daily rate. A refused rate is named before any formed value."""
    from . import fatigue
    from .model import _require_in

    rate = args.cycles_per_day
    if rate is not None:
        _require_in("cycles_per_day", rate, "(0, inf)")
    life = fatigue.cycles_to_failure(args.stress, constants)
    rows = [("cycles", life.cycles, None), ("flags", ",".join(life.flags) or "none", None)]
    if rate is not None:
        rows.append(("years", fatigue.cycles_to_calendar(life.cycles, rate), None))
    return rows


def _cmd_fatigue_life(args):
    from . import fatigue

    return _life_rows(fatigue.SnConstants(a=args.a, b=args.b), args)


def _life_chain(s_ut_text: str, marin: dict, args):
    from . import fatigue
    from .units import parse_quantity

    s_ut = parse_quantity(s_ut_text, "Pa")
    se_prime = fatigue.endurance_limit_unmodified(s_ut)
    se = fatigue.marin_modified_endurance(se_prime, fatigue.MarinFactors(**marin))
    constants = fatigue.sn_constants(s_ut, se)
    return [
        ("se", se, "stress"),
        ("a", constants.a, "stress"),
        ("b", constants.b, None),
        ("stress", args.stress, "stress"),
        *_life_rows(constants, args),
    ]


def _cmd_tower_life(args):
    from . import presets

    return _life_chain(presets.TOWER_STEEL_SUT, presets.TOWER_MARIN, args)


def _cmd_blade_life(args):
    from . import presets

    return _life_chain(presets.BLADE_ALUMINUM_SUT, presets.BLADE_MARIN, args)


def _cmd_tower_column(args):
    from . import structural
    from .model import ColumnSpec

    col = ColumnSpec(
        load_P=args.load,
        eccentricity_e=args.eccentricity,
        centroid_c=args.centroid,
        gyration_k=args.gyration,
        height_l=args.height,
        area_A=args.area,
        moment_I=args.inertia,
        yield_strength_compressive=args.syc,
        elastic_modulus=args.modulus,
    )
    return [
        ("deflection", structural.secant_deflection(col), "length"),
        ("allowable_load", structural.secant_allowable_load(col), "force"),
    ]


def _cmd_ballast(args):
    from . import structural

    spec = structural.BallastSpec(
        turbine_thrust=args.thrust,
        nacelle_diameter=args.nacelle_diameter,
        safety_factor=args.safety_factor,
        base_diameter=args.base_diameter,
        base_area=args.base_area,
        ballast_mass_density=args.density,
    )
    weight = structural.ballast_required_weight(spec)
    return [
        ("weight", weight, "force"),
        ("height", structural.ballast_height_for_weight(weight, spec), "length"),
    ]


def _blade_section(args):
    from .model import RectSection

    return RectSection(args.width, args.thickness)


def _cmd_blade_bending(args):
    from . import structural

    section = _blade_section(args)
    blade = structural.BladeSpec(section, args.span, args.mount_angle, args.mass)
    moment = structural.blade_root_bending_moment(blade)
    return [
        ("moment", moment, "torque"),
        ("stress_flat", structural.rect_bending_stress(moment, section, structural.FLAT), "stress"),
        ("stress_upright", structural.rect_bending_stress(moment, section, structural.UPRIGHT),
         "stress"),
    ]


def _cmd_blade_torsion(args):
    from . import structural

    max_shear = structural.rect_torsion_max_shear(args.torque, _blade_section(args))
    return [("max_shear", max_shear, "stress")]


# ---------------------------------------------------------------------------
# aero / bearing


def _rotor_state(args, cp: float, rpm: float):
    from .rotor import RotorState
    from .units import convert

    return RotorState(
        radius_R=args.radius,
        rotor_speed_omega=convert(rpm, "rpm", "rad/s"),
        wind_speed_V=args.wind,
        air_density_rho=args.air_density,
        power_coefficient_Cp=cp,
    )


def _cmd_aero_torque(args):
    from . import rotor

    state = _rotor_state(args, args.cp, args.rpm)
    lam = rotor.tip_speed_ratio(state)
    torque = rotor.rotor_torque(state)
    return [
        ("tip_speed_ratio", lam, None),
        ("cq", rotor.torque_coefficient(state.power_coefficient_Cp, lam), None),
        ("torque", torque, "torque"),
        ("power", rotor.rotor_power(torque, state.rotor_speed_omega), None),
    ]


def _cmd_aero_betz(args):
    from . import rotor

    return [("cp_max", rotor.ducted_betz_limit(args.a0), None)]


def _cmd_aero_sweep(args):
    from . import presets, rotor

    rows = [
        {"cp": cp, "rpm": rpm, "torque": rotor.rotor_torque(_rotor_state(args, cp, rpm))}
        for cp, rpm in presets.TORQUE_SWEEP
    ]
    if args.json:
        return {"rows": rows}
    lines = (f"{_fmt(row['cp'])},{_fmt(row['rpm'])},{_fmt(row['torque'])}\n" for row in rows)
    return "cp,rpm,torque_nm\n" + "".join(lines)


def _cmd_bearing_life(args):
    from . import bearing

    summary = bearing.summary_from_document(_read_config(args))
    return [(key, value, None) for key, value in summary.items()]


# ---------------------------------------------------------------------------
# weibull / system / schedule


def _weibull_params(args):
    from .weibull import WeibullParams

    return WeibullParams(shape_beta=args.beta, scale_eta=args.eta)


def _cmd_weibull_fit(args):
    from . import weibull

    params = weibull.fit_two_quantiles(
        weibull.QuantilePoint(percent_p=args.p, life_Bp=args.bp),
        weibull.QuantilePoint(percent_p=args.q, life_Bp=args.bq),
    )
    return [("beta", params.shape_beta, None), ("eta", params.scale_eta, None)]


def _cmd_weibull_cdf(args):
    from . import weibull

    return [("probability", weibull.cdf(args.t, _weibull_params(args)), None)]


def _cmd_weibull_quantile(args):
    from . import weibull

    return [("life", weibull.quantile_Bp(args.p, _weibull_params(args)), None)]


def _cmd_weibull_hazard(args):
    from . import weibull

    params = _weibull_params(args)
    rows = [
        ("hazard", weibull.hazard(args.t, params), None),
        ("regime", weibull.failure_regime(params.shape_beta), None),
    ]
    if args.t2 is not None:
        rows.append(("average_rate", weibull.average_failure_rate(args.t, args.t2, params), None))
    return rows


def _cmd_weibull_sample(args):
    from . import weibull

    count = 1000 if args.samples is None else args.samples
    values = weibull.sample(_weibull_params(args), seed=args.seed, count=count)
    if args.json:
        return {"samples": [float(v) for v in values]}
    return "".join(f"{_fmt(v)}\n" for v in values)


def _cmd_system_mttf(args):
    from . import system

    topo = system.topology_from_document(_read_config(args))
    samples = 100000 if args.samples is None else args.samples
    estimate, std_err = system.monte_carlo_mttf(topo, samples=samples, seed=args.seed)
    return [
        ("mttf", estimate, None),
        ("standard_error", std_err, None),
        ("samples", samples, None),
        ("seed", args.seed, None),
    ]


def _cmd_system_reliability(args):
    from . import system

    if args.events is not None and args.repair_rate is None:
        raise ValidationError("--events needs --repair-rate")
    topo = system.topology_from_document(_read_config(args))
    rows = [("reliability", system.system_reliability_at(args.t, topo), None)]
    if args.repair_rate is not None:
        mean = system.expected_repairs(args.repair_rate, args.t)
        rows.append(("expected_repairs", mean, None))
        if args.events is not None:
            rows.append(("poisson_probability", system.poisson_pmf(args.events, mean), None))
    return rows


def _cmd_system_life(args):
    from . import system

    lives = system.SERVICE_LIFE_SUMMARY_YEARS
    if args.config is not None:
        lives = system.lives_from_document(_read_config(args))
    years, limiting = system.system_service_life(lives)
    return [("system_life_years", years, None), ("limiting_component", limiting, None)]


def _load_registry_for(args):
    from . import schedule

    path = args.registry
    if path is None:
        path = os.environ.get("DWT_REGISTRY") or None  # an empty DWT_REGISTRY is unset
    return schedule.default_registry() if path is None else schedule.load_registry(_read_json(path))


def _site(args):
    """The schedule commands' --config object; {} without one."""
    return {} if args.config is None else _read_config(args)


def _cmd_schedule_generate(args):
    from . import schedule

    if args.json and args.format is not None:
        raise ValidationError("--format sets the text output; it cannot go with --json")
    registry = _load_registry_for(args)
    install, usage = schedule.site_from_document(_site(args), args.install_date)
    if install is None:
        raise ValidationError("need --install-date or a --config with an 'install' record")
    entries = schedule.generate_schedule(registry, install, usage, args.horizon)
    if not args.json:
        return schedule.emit_report(entries, args.format or schedule.CSV)
    return {
        "entries": [
            {
                "due_date": e.due_date.isoformat(),
                "component_id": e.component_id,
                "task": e.task,
                "reason": e.reason,
                **({"due_count": e.due_count} if e.due_count is not None else {}),
            }
            for e in entries
        ]
    }


def _cmd_schedule_report(args):
    from . import schedule

    return schedule.emit_report(_load_registry_for(args), args.format or schedule.MARKDOWN)


def _cmd_schedule_rul(args):
    from . import schedule

    registry = _load_registry_for(args)
    install, usage = schedule.site_from_document(_site(args), None)
    component = registry.get(args.component)
    result = schedule.remaining_service_life(component, usage, args.elapsed, install)
    return [
        ("remaining", result.remaining, None),
        ("unit", result.unit, None),
        ("fraction_consumed", result.fraction_consumed, None),
        ("overconsumed", result.overconsumed, None),
    ]


# ---------------------------------------------------------------------------
# the command table and the parser it builds

# The shared flags, in --help order; each COMMANDS row names those it reads.
_SHARED = {
    "units": {"choices": ("si", "imperial"), "default": "si"},
    "json": {"action": "store_true"},
    "seed": {"type": int, "default": 0},
    "samples": {"type": int},
    "config": {"help": "JSON input document ('-' for stdin)"},
    "format": {"choices": ("csv", "markdown")},
}
_QUANTITIES = ("units", "json")
_JSON = ("json",)
_DOCUMENT = ("json", "config")

# Own flags several rows share: argparse keywords, plus "dim" on a quantity flag.
_FLOAT = {"type": float}
_REQUIRED = {"type": float, "required": True}
_MARIN = {f"--{factor}": _FLOAT for factor in ("ka", "kb", "kc", "kd", "ke", "kf")}
_SECTION = {  # the blade's rectangular cross section
    "--width": {"default": "0.185 m", "dim": "length"},
    "--thickness": {"default": "0.004 m", "dim": "length"},
}
_FLOW = {
    "--wind": {"default": "48.72 m/s", "dim": "speed"},
    "--air-density": {"default": "1.24 kg/m³", "dim": "density"},
    "--radius": {"default": "1.5 m", "dim": "length"},
}
_SHAPE = {"--beta": _REQUIRED, "--eta": _REQUIRED}
_STRESS = {"required": True, "dim": "stress"}
_LENGTH = {"required": True, "dim": "length"}

# path -> (handler, shared flags read, own flags)
COMMANDS = {
    "fatigue endurance": (_cmd_fatigue_endurance, _QUANTITIES, {
        "--sut": {**_STRESS, "help": "ultimate tensile strength"},
        "--preset": {"choices": ("tower", "blade", "none"), "default": "none"},
        **_MARIN,
    }),
    "fatigue sn": (_cmd_fatigue_sn, _QUANTITIES, {
        "--sut": _STRESS, "--se": _STRESS, "--f": {"type": float, "default": 0.9},
    }),
    "fatigue life": (_cmd_fatigue_life, _QUANTITIES, {
        "--stress": _STRESS,
        "--a": _STRESS,
        "--b": _REQUIRED,
        "--cycles-per-day": _FLOAT,
    }),
    "blade bending": (_cmd_blade_bending, _QUANTITIES, {
        "--mass": {"type": float, "default": 3.0},
        "--mount-angle": {"type": float, "default": 0.0},
        **_SECTION,
        "--span": {"default": "1.4988 m", "dim": "length"},  # the blade as a cantilever
    }),
    "blade torsion": (_cmd_blade_torsion, _QUANTITIES, {
        "--torque": {"required": True, "dim": "torque"}, **_SECTION,
    }),
    "blade life": (_cmd_blade_life, _QUANTITIES, {
        # fully reversed root bending stress amplitude, blade horizontal
        "--stress": {"default": "6.48 ksi", "dim": "stress"},
        "--cycles-per-day": {"type": float, "default": 144000.0},
    }),
    "tower column": (_cmd_tower_column, _QUANTITIES, {
        "--load": {"required": True, "dim": "force"},
        "--eccentricity": _LENGTH,
        "--centroid": _LENGTH,
        "--gyration": _LENGTH,
        "--height": _LENGTH,
        "--area": {**_REQUIRED, "help": "cross-section area, m²"},
        "--inertia": {**_REQUIRED, "help": "second moment, m⁴"},
        # the standard ASTM A36 compressive yield (36 ksi, rounded) and elastic modulus
        "--syc": {"default": "248.21 MPa", "dim": "stress"},
        "--modulus": {"default": "200000 MPa", "dim": "stress"},
    }),
    "tower life": (_cmd_tower_life, _QUANTITIES, {
        # fully reversed von Mises stress amplitude of the 109 mph extreme-gust FEA case
        "--stress": {"default": "13.56 ksi", "dim": "stress"},
        "--cycles-per-day": {"type": float, "default": 1000.0},
    }),
    "ballast": (_cmd_ballast, _QUANTITIES, {
        "--thrust": {"required": True, "dim": "force"},
        "--nacelle-diameter": _LENGTH,
        "--safety-factor": {"type": float, "default": 1.0},
        "--base-diameter": _LENGTH,
        "--base-area": {**_REQUIRED, "help": "base area, m²"},
        "--density": {"default": "1600 kg/m³", "dim": "density"},
    }),
    "aero torque": (_cmd_aero_torque, _QUANTITIES, {
        "--cp": {"type": float, "default": 0.40},
        "--rpm": {"type": float, "default": 600.0},
        **_FLOW,
    }),
    "aero betz": (_cmd_aero_betz, _JSON, {"--a0": _REQUIRED}),
    "aero sweep": (_cmd_aero_sweep, _QUANTITIES, _FLOW),
    "bearing life": (_cmd_bearing_life, _DOCUMENT, {}),
    "weibull fit": (_cmd_weibull_fit, _JSON, {
        "--p": _REQUIRED, "--bp": _REQUIRED, "--q": _REQUIRED, "--bq": _REQUIRED,
    }),
    "weibull cdf": (_cmd_weibull_cdf, _JSON, {**_SHAPE, "--t": _REQUIRED}),
    "weibull quantile": (_cmd_weibull_quantile, _JSON, {**_SHAPE, "--p": _REQUIRED}),
    "weibull hazard": (_cmd_weibull_hazard, _JSON, {**_SHAPE, "--t": _REQUIRED, "--t2": _FLOAT}),
    "weibull sample": (_cmd_weibull_sample, ("json", "seed", "samples"), _SHAPE),
    "system mttf": (_cmd_system_mttf, ("json", "seed", "samples", "config"), {}),
    "system reliability": (_cmd_system_reliability, _DOCUMENT, {
        "--t": _REQUIRED, "--repair-rate": _FLOAT, "--events": {"type": int},
    }),
    "system life": (_cmd_system_life, _DOCUMENT, {}),
    "schedule generate": (_cmd_schedule_generate, ("json", "config", "format"), {
        "--install-date": {"help": "ISO date, e.g. 2025-01-01"},
        "--horizon": {"type": float, "default": 1.0, "help": "years"},
        "--registry": {},
    }),
    "schedule report": (_cmd_schedule_report, ("format",), {"--registry": {}}),
    "schedule rul": (_cmd_schedule_rul, _DOCUMENT, {
        "--component": {"required": True},
        "--elapsed": {**_REQUIRED, "help": "years in service"},
        "--registry": {},
    }),
}


def _build_parser(argv: list) -> _Parser:
    """The parser argparse needs for argv, built from COMMANDS.

    Every family is named, for the top-level usage and --help. Only the
    family that argv names gets its subcommands, and only the subcommand it
    names gets its flags. The names are argv's first two words that do not
    start with "-", the two positionals argparse itself reads; any other
    word in their place is an invalid choice before a flag is read.
    """
    words = [word for word in argv if not word.startswith("-")][:2]
    parser = _Parser(
        prog="dwtlife", description="Ducted wind turbine lifing and maintenance engine"
    )
    top = parser.add_subparsers(dest="command", required=True)
    families = {}
    for path, (_, shared, flags) in COMMANDS.items():
        family, _, name = path.partition(" ")
        if name and family not in families:
            family_parser = top.add_parser(family)
            families[family] = family_parser.add_subparsers(dest="subcommand", required=True)
        if name and words[:1] != [family]:
            continue
        sub = families[family].add_parser(name) if name else top.add_parser(family)
        sub.set_defaults(path=path)
        if path.split() != words[: len(path.split())]:
            continue
        for flag, spec in _SHARED.items():
            if flag in shared:
                sub.add_argument(f"--{flag}", **spec)
        for flag, spec in flags.items():
            sub.add_argument(flag, **{key: value for key, value in spec.items() if key != "dim"})
    return parser


def _to_si(args, flags: dict) -> None:
    """Replace each quantity flag's text by its SI value; a bare number takes the --units unit."""
    for flag, spec in flags.items():
        dest = flag[2:].replace("-", "_")
        if "dim" in spec and getattr(args, dest) is not None:
            from .units import parse_quantity

            unit = _DISPLAY_UNITS[args.units][spec["dim"]]
            setattr(args, dest, parse_quantity(getattr(args, dest), unit))


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
        handler, _, flags = COMMANDS[args.path]
        _to_si(args, flags)
        _emit(args, handler(args))
        return 0
    except (_UsageError, ValidationError, OSError) as exc:  # OSError: unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, OverflowError, ZeroDivisionError) as exc:
        # a float ** overflow carries (errno, text) as its args
        print(f"numeric failure: {exc.args[-1] if exc.args else exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the array it could not allocate
        detail = f" ({exc})" if str(exc) else ""
        print(f"numeric failure: out of memory{detail}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def _exit_now(code: int) -> None:
    """Flush stdout and stderr, then end the process without interpreter teardown.

    A failed flush (a closed pipe, a full disk) is one error line and exit 1,
    unless the command already failed and said why.
    """
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError) as exc:
        if code == 0:
            code = 1
            with contextlib.suppress(OSError, ValueError):
                print(f"error: {exc}", file=sys.stderr, flush=True)
    os._exit(code)


def main() -> None:
    """The console entry point: run argv, then exit at once.

    The exit happens in an atexit hook, after sys.exit has unwound: a caller
    that catches SystemExit, such as runpy, still finishes its own work,
    and the process then skips freeing every module, most of a cold
    command's exit time.
    """
    # numpy's OpenBLAS starts a spinning thread per CPU at import; dwtlife makes no BLAS call
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = run()
    atexit.register(_exit_now, code)
    sys.exit(code)


if __name__ == "__main__":
    main()
