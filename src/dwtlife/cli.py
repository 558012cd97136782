"""Command-line front end.

Subcommand map:

    fatigue endurance|sn|life      blade bending|torsion|life
    tower column|life              ballast
    aero torque|betz|sweep         bearing life
    weibull fit|cdf|quantile|hazard|sample
    system mttf|reliability|life   schedule generate|report|rul

Quantity-valued flags accept a unit suffix ("58 ksi", "300Nm"); bare
numbers take the active unit mode's default for that flag. Results go to
stdout (6 significant digits, or --json); diagnostics go to stderr. Exit
codes: 0 success, 1 validation/usage error, 2 numeric failure.

At module level this file imports only the standard library and
``.errors``; each handler imports the library modules it uses, and
building the parser reads none of them. A cold command therefore loads
only what its subcommand runs: ``weibull cdf`` loads ``errors``, ``model``
and ``weibull``, and only the ``schedule`` commands load ``schedule``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import NumericError, ValidationError

# Where each library operation surfaces on the command line. The test
# suite checks this map covers the whole public API exactly once.
OPERATION_COMMANDS = {
    "units.convert": "fatigue endurance",
    "fatigue.endurance_limit_unmodified": "fatigue endurance",
    "fatigue.marin_modified_endurance": "fatigue endurance",
    "fatigue.sn_constants": "fatigue sn",
    "fatigue.cycles_to_failure": "fatigue life",
    "fatigue.cycles_to_calendar": "fatigue life",
    "structural.ballast_required_weight": "ballast",
    "structural.ballast_height_for_weight": "ballast",
    "structural.secant_deflection": "tower column",
    "structural.secant_allowable_load": "tower column",
    "structural.blade_root_bending_moment": "blade bending",
    "structural.rect_bending_stress": "blade bending",
    "structural.rect_torsion_max_shear": "blade torsion",
    "rotor.tip_speed_ratio": "aero torque",
    "rotor.torque_coefficient": "aero torque",
    "rotor.rotor_torque": "aero torque",
    "rotor.rotor_power": "aero torque",
    "rotor.ducted_betz_limit": "aero betz",
    "bearing.basic_dynamic_axial_rating": "bearing life",
    "bearing.oscillating_rating": "bearing life",
    "bearing.equivalent_axial_load": "bearing life",
    "bearing.l10_life": "bearing life",
    "bearing.modified_life": "bearing life",
    "bearing.raceway_stress_cycles": "bearing life",
    "bearing.bearing_calendar_life": "bearing life",
    "weibull.cdf": "weibull cdf",
    "weibull.quantile_Bp": "weibull quantile",
    "weibull.fit_two_quantiles": "weibull fit",
    "weibull.hazard": "weibull hazard",
    "weibull.average_failure_rate": "weibull hazard",
    "weibull.failure_regime": "weibull hazard",
    "weibull.sample": "weibull sample",
    "system.series_reliability": "system reliability",
    "system.parallel_reliability": "system reliability",
    "system.system_reliability_at": "system reliability",
    "system.monte_carlo_mttf": "system mttf",
    "system.expected_repairs": "system reliability",
    "system.poisson_pmf": "system reliability",
    "system.system_service_life": "system life",
    "schedule.load_registry": "schedule generate",
    "schedule.generate_schedule": "schedule generate",
    "schedule.remaining_service_life": "schedule rul",
    "schedule.emit_report": "schedule report",
}

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
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _qty_in(args, text: str, dimension: str) -> float:
    """Parse a flag value into SI, defaulting to the unit mode's unit."""
    from .units import parse_quantity

    return parse_quantity(str(text), _DISPLAY_UNITS[args.units][dimension]).si_value


def _display(args, si_value: float, dimension: str) -> tuple[float, str]:
    from .units import from_si

    unit = _DISPLAY_UNITS[args.units][dimension]
    return from_si(si_value, unit), unit


def _emit(args, rows):
    """rows: (key, value, dimension-or-None). Prints text or JSON."""
    if args.json:
        payload = {}
        for key, value, dim in rows:
            if dim is not None and isinstance(value, (int, float)):
                value = _display(args, value, dim)[0]
            payload[key] = value
        print(json.dumps(payload))
        return
    for key, value, dim in rows:
        if dim is not None and isinstance(value, (int, float)):
            shown, unit = _display(args, value, dim)
            print(f"{key} = {_fmt(shown)} {unit}")
        elif isinstance(value, float):
            print(f"{key} = {_fmt(value)}")
        else:
            print(f"{key} = {value}")


def _read_json(path: str):
    """The JSON document of --config, --registry or DWT_REGISTRY ('-' for stdin)."""
    from .model import read_document

    if path == "-":
        return read_document("malformed JSON input", json.load, sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return read_document("malformed JSON input", json.load, handle)


def _read_config(args):
    if not getattr(args, "config", None):
        raise ValidationError("this subcommand needs --config <path> (or '-' for stdin)")
    return _read_json(args.config)


# ---------------------------------------------------------------------------
# fatigue / tower / blade chains


def _marin_from_args(args):
    from .fatigue import MarinFactors

    if args.preset in ("tower", "blade"):
        from . import presets

        base = presets.TOWER_MARIN if args.preset == "tower" else presets.BLADE_MARIN
    else:
        base = MarinFactors(1, 1, 1, 1, 1, 1)
    values = {
        name: getattr(args, name) if getattr(args, name) is not None else getattr(base, name)
        for name in ("ka", "kb", "kc", "kd", "ke", "kf")
    }
    return MarinFactors(**values)


def _cmd_fatigue_endurance(args):
    from . import fatigue
    from .model import Material

    sut = _qty_in(args, args.sut, "stress")
    material = Material(name="cli", ultimate_tensile_strength=sut)
    se_prime = fatigue.endurance_limit_unmodified(material)
    se = fatigue.marin_modified_endurance(se_prime, _marin_from_args(args))
    _emit(args, [("se_prime", se_prime, "stress"), ("se", se, "stress")])


def _cmd_fatigue_sn(args):
    from . import fatigue

    constants = fatigue.sn_constants(
        _qty_in(args, args.sut, "stress"), _qty_in(args, args.se, "stress"), args.f
    )
    _emit(args, [("a", constants.a, "stress"), ("b", constants.b, None), ("f", constants.f, None)])


def _cmd_fatigue_life(args):
    from . import fatigue

    constants = fatigue.SnConstants(a=_qty_in(args, args.a, "stress"), b=args.b, f=args.f)
    life = fatigue.cycles_to_failure(_qty_in(args, args.stress, "stress"), constants)
    rows = [("cycles", life.cycles, None), ("flags", ",".join(life.flags) or "none", None)]
    if args.cycles_per_day:
        rows.append(("years", fatigue.cycles_to_calendar(life.cycles, args.cycles_per_day), None))
    _emit(args, rows)


def _life_chain(args, material, marin, stress_si, cycles_per_day):
    from . import fatigue, presets

    se_prime = fatigue.endurance_limit_unmodified(material)
    se = fatigue.marin_modified_endurance(se_prime, marin)
    constants = fatigue.sn_constants(
        material.ultimate_tensile_strength, se, presets.FATIGUE_STRENGTH_FRACTION
    )
    life = fatigue.cycles_to_failure(stress_si, constants)
    _emit(args, [
        ("se", se, "stress"),
        ("a", constants.a, "stress"),
        ("b", constants.b, None),
        ("stress", stress_si, "stress"),
        ("cycles", life.cycles, None),
        ("flags", ",".join(life.flags) or "none", None),
        ("years", fatigue.cycles_to_calendar(life.cycles, cycles_per_day), None),
    ])


def _cmd_tower_life(args):
    from . import presets

    stress = _qty_in(args, args.stress, "stress") if args.stress else presets.TOWER_GUST_STRESS
    _life_chain(args, presets.TOWER_STEEL, presets.TOWER_MARIN, stress, args.cycles_per_day)


def _cmd_blade_life(args):
    from . import presets

    stress = _qty_in(args, args.stress, "stress") if args.stress else presets.BLADE_BENDING_STRESS
    _life_chain(args, presets.BLADE_ALUMINUM, presets.BLADE_MARIN, stress, args.cycles_per_day)


def _cmd_tower_column(args):
    from . import presets, structural
    from .model import ColumnSpec, Material

    col = ColumnSpec(
        load_P=_qty_in(args, args.load, "force"),
        eccentricity_e=_qty_in(args, args.eccentricity, "length"),
        centroid_c=_qty_in(args, args.centroid, "length"),
        gyration_k=_qty_in(args, args.gyration, "length"),
        height_l=_qty_in(args, args.height, "length"),
        area_A=args.area,
        moment_I=args.inertia,
    )
    material = Material(
        name="cli",
        ultimate_tensile_strength=presets.TOWER_STEEL.ultimate_tensile_strength,
        yield_strength_compressive=_qty_in(args, args.syc, "stress"),
        elastic_modulus=_qty_in(args, args.modulus, "stress"),
    )
    _emit(args, [
        ("deflection", structural.secant_deflection(col, material.elastic_modulus), "length"),
        ("allowable_load", structural.secant_allowable_load(col, material), "force"),
    ])


def _cmd_ballast(args):
    from . import structural

    spec = structural.BallastSpec(
        turbine_thrust=_qty_in(args, args.thrust, "force"),
        nacelle_diameter=_qty_in(args, args.nacelle_diameter, "length"),
        safety_factor=args.safety_factor,
        base_diameter=_qty_in(args, args.base_diameter, "length"),
        base_area=args.base_area,
        ballast_mass_density=_qty_in(args, args.density, "density"),
    )
    weight = structural.ballast_required_weight(spec)
    _emit(args, [
        ("weight", weight, "force"),
        ("height", structural.ballast_height_for_weight(weight, spec), "length"),
    ])


def _blade_section(args):
    """The --width/--thickness/--span section; an omitted flag takes the preset's."""
    from . import presets
    from .model import RectSection

    def length(text, preset_m):
        return preset_m if text is None else _qty_in(args, text, "length")

    preset = presets.BLADE_SECTION
    return RectSection(
        width_b=length(args.width, preset.width_b),
        thickness_t=length(args.thickness, preset.thickness_t),
        span_L=length(args.span, preset.span_L),
    )


def _cmd_blade_bending(args):
    from . import presets, structural

    section = _blade_section(args)
    blade = structural.BladeSpec(
        section=section,
        material=presets.BLADE_ALUMINUM,
        mount_angle_phi=args.mount_angle,
        mass=presets.BLADE_MASS_KG if args.mass is None else args.mass,
    )
    moment = structural.blade_root_bending_moment(blade)
    _emit(args, [
        ("moment", moment, "torque"),
        ("stress_flat", structural.rect_bending_stress(moment, section, structural.FLAT), "stress"),
        ("stress_upright", structural.rect_bending_stress(moment, section, structural.UPRIGHT), "stress"),
    ])


def _cmd_blade_torsion(args):
    from . import structural

    section = _blade_section(args)
    torque = _qty_in(args, args.torque, "torque")
    _emit(args, [
        ("max_shear", structural.rect_torsion_max_shear(torque, section), "stress"),
    ])


# ---------------------------------------------------------------------------
# aero / bearing


def _rotor_state(args):
    from .rotor import RotorState
    from .units import Quantity, convert

    omega = convert(Quantity(args.rpm, "rpm"), "rad/s").value
    return RotorState(
        radius_R=_qty_in(args, args.radius, "length"),
        rotor_speed_omega=omega,
        wind_speed_V=_qty_in(args, args.wind, "speed"),
        air_density_rho=_qty_in(args, args.air_density, "density"),
        power_coefficient_Cp=args.cp,
    )


def _cmd_aero_torque(args):
    from . import rotor

    state = _rotor_state(args)
    lam = rotor.tip_speed_ratio(state)
    torque = rotor.rotor_torque(state)
    _emit(args, [
        ("tip_speed_ratio", lam, None),
        ("cq", rotor.torque_coefficient(state.power_coefficient_Cp, lam), None),
        ("torque", torque, "torque"),
        ("power", rotor.rotor_power(torque, state.rotor_speed_omega), None),
    ])


def _cmd_aero_betz(args):
    from . import rotor

    _emit(args, [("cp_max", rotor.ducted_betz_limit(args.a0), None)])


def _cmd_aero_sweep(args):
    from . import presets, rotor
    from .units import Quantity, convert

    rows = []
    for cp, rpm in presets.TORQUE_SWEEP:
        state = rotor.RotorState(
            radius_R=_qty_in(args, args.radius, "length"),
            rotor_speed_omega=convert(Quantity(rpm, "rpm"), "rad/s").value,
            wind_speed_V=_qty_in(args, args.wind, "speed"),
            air_density_rho=_qty_in(args, args.air_density, "density"),
            power_coefficient_Cp=cp,
        )
        rows.append({"cp": cp, "rpm": rpm, "torque": rotor.rotor_torque(state)})
    if args.json:
        print(json.dumps({"rows": rows}))
        return
    print("cp,rpm,torque_nm")
    for row in rows:
        print(f"{row['cp']:g},{row['rpm']:g},{_fmt(row['torque'])}")


def _cmd_bearing_life(args):
    from . import bearing, presets
    from .model import read_document

    def build(doc):
        geo, loads, factors = doc["geometry"], doc["loads"], doc.get("factors")
        return bearing.life_summary(
            bearing.SlewingBearingGeometry(
                groove_factor_fcm=float(geo["fcm"]),
                rows_i=int(geo.get("rows", 1)),
                ball_count_Z=int(geo["balls"]),
                ball_diameter_Dr=float(geo["ball_diameter_mm"]),
                contact_angle_alpha=float(geo["contact_angle_deg"]),
                raceway_center_diameter_dm=float(geo["raceway_center_diameter_mm"]),
            ),
            bearing.BearingLoads(
                radial_Fr=float(loads.get("radial_n", 0.0)),
                axial_Fa=float(loads.get("axial_n", 0.0)),
                moment_M=float(loads.get("moment_nm", 0.0)),
            ),
            float(doc.get("theta_deg", presets.BEARING_OSC_HALF_ARC_DEG)),
            bearing.LifeModFactors(**{k: float(v) for k, v in factors.items()})
            if factors
            else presets.BEARING_LIFE_FACTORS,
            float(doc.get("oscillations_per_day", 1500.0)),
            float(doc.get("exponent", bearing.BALL_EXPONENT)),
        )

    summary = read_document("bearing document", build, _read_config(args))
    _emit(args, [(key, value, None) for key, value in summary.items()])


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
    _emit(args, [("beta", params.shape_beta, None), ("eta", params.scale_eta, None)])


def _cmd_weibull_cdf(args):
    from . import weibull

    _emit(args, [("probability", weibull.cdf(args.t, _weibull_params(args)), None)])


def _cmd_weibull_quantile(args):
    from . import weibull

    _emit(args, [("life", weibull.quantile_Bp(args.p, _weibull_params(args)), None)])


def _cmd_weibull_hazard(args):
    from . import weibull

    params = _weibull_params(args)
    rows = [
        ("hazard", weibull.hazard(args.t, params), None),
        ("regime", weibull.failure_regime(params.shape_beta), None),
    ]
    if args.t2 is not None:
        rows.append(("average_rate", weibull.average_failure_rate(args.t, args.t2, params), None))
    _emit(args, rows)


def _cmd_weibull_sample(args):
    from . import weibull

    count = 1000 if args.samples is None else args.samples
    values = weibull.sample(_weibull_params(args), seed=args.seed, count=count)
    if args.json:
        print(json.dumps({"samples": [float(v) for v in values]}))
        return
    for v in values:
        print(_fmt(v))


def _cmd_system_mttf(args):
    from . import system

    topo = system.topology_from_document(_read_config(args))
    samples = 100000 if args.samples is None else args.samples
    estimate, std_err = system.monte_carlo_mttf(topo, samples=samples, seed=args.seed)
    _emit(args, [
        ("mttf", estimate, None),
        ("standard_error", std_err, None),
        ("samples", samples, None),
        ("seed", args.seed, None),
    ])


def _cmd_system_reliability(args):
    from . import system

    topo = system.topology_from_document(_read_config(args))
    rows = [("reliability", system.system_reliability_at(args.t, topo), None)]
    if args.repair_rate is not None:
        mean = system.expected_repairs(args.repair_rate, args.t)
        rows.append(("expected_repairs", mean, None))
        if args.events is not None:
            rows.append(("poisson_probability", system.poisson_pmf(args.events, mean), None))
    _emit(args, rows)


def _cmd_system_life(args):
    from . import system

    if getattr(args, "config", None):
        from .model import read_document

        def build(doc):
            return {str(k): float(v) for k, v in doc.get("lives", doc).items()}

        lives = read_document("lives document", build, _read_config(args))
    else:
        from . import presets

        lives = presets.SERVICE_LIFE_SUMMARY_YEARS
    years, limiting = system.system_service_life(lives)
    _emit(args, [("system_life_years", years, None), ("limiting_component", limiting, None)])


def _load_registry_for(args):
    from . import schedule

    path = getattr(args, "registry", None) or os.environ.get("DWT_REGISTRY")
    return schedule.load_registry(_read_json(path)) if path else schedule.default_registry()


def _site_and_usage(args):
    """The schedule commands' --config object ({} without one) and its usage rates."""
    from . import presets, schedule

    site = _read_config(args) if getattr(args, "config", None) else {}
    if not isinstance(site, dict):
        raise ValidationError(f"--config must hold a JSON object, got {type(site).__name__}")
    return site, schedule.usage_from_document(site["usage"]) if "usage" in site else presets.DEFAULT_USAGE


def _installation_and_usage(args):
    from datetime import date

    from . import schedule
    from .model import read_document

    site, usage = _site_and_usage(args)
    if "install" in site:
        return schedule.installation_from_document(site["install"]), usage
    if not getattr(args, "install_date", None):
        raise ValidationError("need --install-date or a --config with an 'install' record")
    install_date = read_document(
        f"--install-date {args.install_date!r}", date.fromisoformat, args.install_date
    )
    return schedule.InstallationRecord(install_date=install_date), usage


def _cmd_schedule_generate(args):
    from . import schedule

    registry = _load_registry_for(args)
    install, usage = _installation_and_usage(args)
    entries = schedule.generate_schedule(registry, install, usage, args.horizon)
    if args.json:
        print(json.dumps({
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
        }))
        return
    sys.stdout.write(schedule.emit_report(entries, args.format or schedule.CSV))


def _cmd_schedule_report(args):
    from . import schedule

    registry = _load_registry_for(args)
    sys.stdout.write(schedule.emit_report(registry, args.format or schedule.MARKDOWN))


def _cmd_schedule_rul(args):
    from . import schedule

    registry = _load_registry_for(args)
    _, usage = _site_and_usage(args)
    result = schedule.remaining_service_life(registry.get(args.component), usage, args.elapsed)
    _emit(args, [
        ("remaining", result.remaining, None),
        ("unit", result.unit, None),
        ("fraction_consumed", result.fraction_consumed, None),
        ("overconsumed", result.overconsumed, None),
    ])


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--units", choices=("si", "imperial"), default="si")
    common.add_argument("--json", action="store_true")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--samples", type=int, default=None)
    common.add_argument("--config", default=None, help="JSON input document ('-' for stdin)")
    common.add_argument("--format", choices=("csv", "markdown"), default=None)

    parser = _Parser(prog="dwtlife", description="Ducted wind turbine lifing and maintenance engine")
    top = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, **kwargs):
        sub = group.add_parser(name, parents=[common], **kwargs)
        sub.set_defaults(handler=handler)
        return sub

    fat = top.add_parser("fatigue").add_subparsers(dest="subcommand", required=True)
    p = leaf(fat, "endurance", _cmd_fatigue_endurance)
    p.add_argument("--sut", required=True, help="ultimate tensile strength")
    p.add_argument("--preset", choices=("tower", "blade", "none"), default="none")
    for factor in ("ka", "kb", "kc", "kd", "ke", "kf"):
        p.add_argument(f"--{factor}", type=float, default=None)
    p = leaf(fat, "sn", _cmd_fatigue_sn)
    p.add_argument("--sut", required=True)
    p.add_argument("--se", required=True)
    p.add_argument("--f", type=float, default=0.9)
    p = leaf(fat, "life", _cmd_fatigue_life)
    p.add_argument("--stress", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--f", type=float, default=0.9)
    p.add_argument("--cycles-per-day", type=float, default=None)

    blade = top.add_parser("blade").add_subparsers(dest="subcommand", required=True)
    p = leaf(blade, "bending", _cmd_blade_bending)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--mount-angle", type=float, default=0.0)
    p = leaf(blade, "torsion", _cmd_blade_torsion)
    p.add_argument("--torque", required=True)
    p = leaf(blade, "life", _cmd_blade_life)
    p.add_argument("--stress", default=None)
    p.add_argument("--cycles-per-day", type=float, default=144000.0)
    for sub in blade.choices.values():
        if sub.get_default("handler") in (_cmd_blade_bending, _cmd_blade_torsion):
            sub.add_argument("--width", default=None)
            sub.add_argument("--thickness", default=None)
            sub.add_argument("--span", default=None)

    tower = top.add_parser("tower").add_subparsers(dest="subcommand", required=True)
    p = leaf(tower, "column", _cmd_tower_column)
    p.add_argument("--load", required=True)
    p.add_argument("--eccentricity", required=True)
    p.add_argument("--centroid", required=True)
    p.add_argument("--gyration", required=True)
    p.add_argument("--height", required=True)
    p.add_argument("--area", type=float, required=True, help="cross-section area, m²")
    p.add_argument("--inertia", type=float, required=True, help="second moment, m⁴")
    p.add_argument("--syc", default="248.21 MPa")
    p.add_argument("--modulus", default="200000 MPa")
    p = leaf(tower, "life", _cmd_tower_life)
    p.add_argument("--stress", default=None)
    p.add_argument("--cycles-per-day", type=float, default=1000.0)

    p = leaf(top, "ballast", _cmd_ballast)
    p.add_argument("--thrust", required=True)
    p.add_argument("--nacelle-diameter", required=True)
    p.add_argument("--safety-factor", type=float, default=1.0)
    p.add_argument("--base-diameter", required=True)
    p.add_argument("--base-area", type=float, required=True, help="base area, m²")
    p.add_argument("--density", default="1600 kg/m³")

    aero = top.add_parser("aero").add_subparsers(dest="subcommand", required=True)
    p = leaf(aero, "torque", _cmd_aero_torque)
    p.add_argument("--cp", type=float, default=0.40)
    p.add_argument("--rpm", type=float, default=600.0)
    p = leaf(aero, "betz", _cmd_aero_betz)
    p.add_argument("--a0", type=float, required=True)
    p = leaf(aero, "sweep", _cmd_aero_sweep)
    for sub in aero.choices.values():
        if sub.get_default("handler") in (_cmd_aero_torque, _cmd_aero_sweep):
            sub.add_argument("--wind", default="48.72 m/s")
            sub.add_argument("--air-density", default="1.24 kg/m³")
            sub.add_argument("--radius", default="1.5 m")

    brg = top.add_parser("bearing").add_subparsers(dest="subcommand", required=True)
    leaf(brg, "life", _cmd_bearing_life)

    wb = top.add_parser("weibull").add_subparsers(dest="subcommand", required=True)
    p = leaf(wb, "fit", _cmd_weibull_fit)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--bp", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--bq", type=float, required=True)
    for name, handler in (
        ("cdf", _cmd_weibull_cdf),
        ("quantile", _cmd_weibull_quantile),
        ("hazard", _cmd_weibull_hazard),
        ("sample", _cmd_weibull_sample),
    ):
        p = leaf(wb, name, handler)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--eta", type=float, required=True)
        if name in ("cdf", "hazard"):
            p.add_argument("--t", type=float, required=True)
        if name == "hazard":
            p.add_argument("--t2", type=float, default=None)
        if name == "quantile":
            p.add_argument("--p", type=float, required=True)

    sysgrp = top.add_parser("system").add_subparsers(dest="subcommand", required=True)
    leaf(sysgrp, "mttf", _cmd_system_mttf)
    p = leaf(sysgrp, "reliability", _cmd_system_reliability)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--repair-rate", type=float, default=None)
    p.add_argument("--events", type=int, default=None)
    leaf(sysgrp, "life", _cmd_system_life)

    sched = top.add_parser("schedule").add_subparsers(dest="subcommand", required=True)
    p = leaf(sched, "generate", _cmd_schedule_generate)
    p.add_argument("--install-date", default=None, help="ISO date, e.g. 2025-01-01")
    p.add_argument("--horizon", type=float, default=1.0, help="years")
    p.add_argument("--registry", default=None)
    p = leaf(sched, "report", _cmd_schedule_report)
    p.add_argument("--registry", default=None)
    p = leaf(sched, "rul", _cmd_schedule_rul)
    p.add_argument("--component", required=True)
    p.add_argument("--elapsed", type=float, required=True, help="years in service")
    p.add_argument("--registry", default=None)

    return parser


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, OSError) as exc:  # OSError: unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
