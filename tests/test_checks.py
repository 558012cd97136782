"""The one domain rule of an input (model._require_in) at every field it guards, the
one check of a formed value (model._require_normal), and the one document number and
text readers (model.number, model.text).

DOMAINS pins each field's interval: its probes are each finite end of the interval,
the float on either side of that end, both infinities and NaN, and a predicate written
here, not _require_in, decides which of them the field accepts."""

import argparse
import ast
import math
import operator
from datetime import date
from pathlib import Path

import pytest

import dwtlife
from dwtlife import bearing, cli, fatigue, presets, rotor, schedule, structural, system, weibull
from dwtlife.errors import NumericError, ValidationError
from dwtlife.model import ColumnSpec, RectSection, UsageProfile, _require_in, _require_normal
from dwtlife.model import number, text
from dwtlife.rotor import RotorState
from dwtlife.schedule import ComponentRecord, InstallationRecord, Recurrence
from dwtlife.schedule import remaining_service_life
from dwtlife.weibull import QuantilePoint, WeibullParams, failure_regime


def replacing(make, valid: dict, field: str):
    """make(**valid) with field set to the value under test."""
    return lambda value: make(**{**valid, field: value})


ROTOR = dict(radius_R=1.5, rotor_speed_omega=60.0, wind_speed_V=20.0, air_density_rho=1.2,
             power_coefficient_Cp=0.4)
BALLAST = dict(turbine_thrust=6035.0, nacelle_diameter=2.0, safety_factor=1.0,
               base_diameter=3.0, base_area=4.0, ballast_mass_density=1600.0)
SECTION = dict(width_b=0.1, thickness_t=0.01)
COLUMN = dict(load_P=1e4, eccentricity_e=0.01, centroid_c=0.05, gyration_k=0.05, height_l=6.0,
              area_A=0.01, moment_I=1e-5, yield_strength_compressive=2.5e8, elastic_modulus=2e11)
BLADE = dict(section=RectSection(**SECTION), span_L=1.0, mount_angle_phi=0.0, mass=3.0)
GEOMETRY = dict(groove_factor_fcm=1.0, rows_i=1, ball_count_Z=30, ball_diameter_Dr=25.0,
                contact_angle_alpha=60.0, raceway_center_diameter_dm=1000.0)
BEARING_LOADS = dict(radial_Fr=0.0, axial_Fa=1000.0, moment_M=100.0)
LIFE_FACTORS = dict(a1=1.0, a2=1.0, a3=1.0, a4=1.0)
MARIN_FACTORS = dict(ka=1.0, kb=1.0, kc=1.0, kd=1.0, ke=1.0, kf=1.0)
LOADS = bearing.BearingLoads(**BEARING_LOADS)
MARIN = fatigue.MarinFactors(**MARIN_FACTORS)
SN = fatigue.SnConstants(a=1e9, b=-0.1)
BALLAST_SPEC = structural.BallastSpec(**BALLAST)
BEARING_DOCUMENT = {
    "geometry": {"fcm": 1.0, "balls": 30, "ball_diameter_mm": 25.0, "contact_angle_deg": 60.0,
                 "raceway_center_diameter_mm": 1000.0},
    "loads": {"axial_n": 1000.0, "moment_nm": 100.0},
}
WEIBULL = WeibullParams(shape_beta=2.0, scale_eta=10.0)
EXPONENTIAL = system.LifeModel.exponential(1.0)
RECT = RectSection(**SECTION)
LIFED = ComponentRecord("a", "Control", service_life=Recurrence(years=4.0))
INSTALL = InstallationRecord(date(2025, 1, 1))


def fatigue_life(cycles_per_day: float):
    return cli._cmd_fatigue_life(argparse.Namespace(
        stress=1e8, a=1e9, b=-0.1, cycles_per_day=cycles_per_day))


def tower_life(cycles_per_day: float):
    return cli._life_chain(presets.TOWER_STEEL_SUT, presets.TOWER_MARIN,
                           argparse.Namespace(stress=1e8, cycles_per_day=cycles_per_day))


# (field name as the error message gives it, its domain, a call that checks a value for it,
# and, where several rules share one field name, the rule that names the row's probes):
# every model._require_in call of the package but parse_quantity's, whose text can hold
# neither NaN nor an arbitrary double (tests/test_units.py pins it).
DOMAINS = [
    # model
    ("width_b", "(0, inf)", replacing(RectSection, SECTION, "width_b")),
    ("thickness_t", "(0, inf)", replacing(RectSection, SECTION, "thickness_t")),
    ("eccentricity_e", "[0, inf)", replacing(ColumnSpec, COLUMN, "eccentricity_e")),
    *((name, "(0, inf)", replacing(ColumnSpec, COLUMN, name))
      for name in ("load_P", "centroid_c", "gyration_k", "height_l", "area_A", "moment_I",
                   "yield_strength_compressive", "elastic_modulus")),
    ("usage rate for 'c'", "[0, inf)", lambda v: UsageProfile(counters={"c": v})),
    # fatigue
    *((f"Marin factor {name}", "(0, 1.5]", replacing(fatigue.MarinFactors, MARIN_FACTORS, name))
      for name in MARIN_FACTORS),
    ("S-N intercept a", "(0, inf)", replacing(fatigue.SnConstants, dict(a=1e9, b=-0.1), "a")),
    ("S-N exponent b", "(-inf, 0)", replacing(fatigue.SnConstants, dict(a=1e9, b=-0.1), "b")),
    ("ultimate_tensile_strength", "(0, inf)", fatigue.endurance_limit_unmodified),
    ("endurance limit", "(0, inf)", lambda v: fatigue.marin_modified_endurance(v, MARIN)),
    ("endurance limit", "(0, inf)", lambda v: fatigue.sn_constants(4e8, v)),
    ("fatigue strength fraction f", "(0, 1]", lambda v: fatigue.sn_constants(4e8, 1e8, v)),
    ("stress", "(0, inf)", lambda v: fatigue.cycles_to_failure(v, SN)),
    ("cycles_per_day", "(0, inf)", lambda v: fatigue.cycles_to_calendar(1e6, v)),
    ("cycles_per_day", "(0, inf)", fatigue_life),
    ("cycles_per_day", "(0, inf)", tower_life),
    # bearing
    *((name, domain, replacing(bearing.SlewingBearingGeometry, GEOMETRY, field))
      for name, field, domain in [
          ("groove_factor_fcm", "groove_factor_fcm", "(0, inf)"),
          ("rows_i", "rows_i", "[1, inf)"),
          ("ball_count_Z", "ball_count_Z", "[1, inf)"),
          ("ball_diameter_Dr", "ball_diameter_Dr", "(0, inf)"),
          ("contact angle", "contact_angle_alpha", "(0, 90)"),
          ("raceway_center_diameter_dm", "raceway_center_diameter_dm", "(0, inf)"),
      ]),
    *((name, "[0, inf)", replacing(bearing.BearingLoads, BEARING_LOADS, name))
      for name in BEARING_LOADS),
    *((f"life factor {name}", "(0, 2]", replacing(bearing.LifeModFactors, LIFE_FACTORS, name))
      for name in LIFE_FACTORS),
    ("oscillation half-arc", "(0, 180]", lambda v: bearing.oscillating_rating(1e5, v)),
    ("raceway center diameter", "(0, inf)", lambda v: bearing.equivalent_axial_load(LOADS, v)),
    ("equivalent load", "(0, inf)", lambda v: bearing.l10_life(1e5, v)),
    ("L10", "[0, inf]", lambda v: bearing.modified_life(v, bearing.LifeModFactors(1, 1, 1, 1))),
    ("ball count", "[1, inf]", lambda v: bearing.raceway_stress_cycles(1e6, v)),
    ("bearing document: oscillations_per_day", "(0, inf)",
     lambda v: bearing.summary_from_document({**BEARING_DOCUMENT, "oscillations_per_day": v})),
    # rotor
    *((name, "(0, inf)", replacing(RotorState, ROTOR, name))
      for name in ("radius_R", "rotor_speed_omega", "wind_speed_V", "air_density_rho")),
    ("power coefficient", "(0, 1)", replacing(RotorState, ROTOR, "power_coefficient_Cp")),
    ("axial induction factor", "[0, 1]", rotor.ducted_betz_limit),
    ("tip-speed ratio", "(0, inf)", lambda v: rotor.torque_coefficient(0.4, v)),
    # structural
    *((name, "(0, inf)", replacing(structural.BallastSpec, BALLAST, name))
      for name in ("turbine_thrust", "nacelle_diameter", "base_diameter", "base_area",
                   "ballast_mass_density")),
    ("safety_factor", "[1, inf)", replacing(structural.BallastSpec, BALLAST, "safety_factor")),
    ("span_L", "(0, inf)", replacing(structural.BladeSpec, BLADE, "span_L")),
    ("mount_angle_phi", "[0, 90]", replacing(structural.BladeSpec, BLADE, "mount_angle_phi")),
    ("mass", "(0, inf)", replacing(structural.BladeSpec, BLADE, "mass")),
    ("weight", "(0, inf)", lambda v: structural.ballast_height_for_weight(v, BALLAST_SPEC)),
    ("moment", "[0, inf]", lambda v: structural.rect_bending_stress(v, RECT, structural.FLAT)),
    ("torque", "[0, inf]", lambda v: structural.rect_torsion_max_shear(v, RECT)),
    # system
    ("exponential rate", "(0, inf)", system.LifeModel.exponential),
    ("fixed_life life", "(0, inf)", system.LifeModel.fixed_life),
    ("time", "[0, inf]", EXPONENTIAL.survival),
    ("time", "[0, inf]", system.LifeModel.weibull(WEIBULL).survival),
    ("time", "[0, inf]",
     lambda v: system.system_reliability_at(v, system.Component("a", EXPONENTIAL))),
    ("reliability", "[0, 1]", lambda v: system.series_reliability([v])),
    ("reliability", "[0, 1]", lambda v: system.parallel_reliability([v])),
    ("samples", "[100, inf]",
     lambda v: system.monte_carlo_mttf(system.Component("a", EXPONENTIAL), v, 1)),
    ("repair rate", "[0, inf)", lambda v: system.expected_repairs(v, 1.0)),
    ("horizon", "[0, inf)", lambda v: system.expected_repairs(1.0, v)),
    ("count", "[0, inf]", lambda v: system.poisson_pmf(v, 1.0)),
    ("mean", "[0, inf)", lambda v: system.poisson_pmf(2, v)),
    ("mean", "[0, inf)", lambda v: system.poisson_pmf(0, v)),
    ("life for 'a'", "(0, inf)", lambda v: system.system_service_life({"a": v})),
    # schedule
    ("years", "(0, inf)", lambda v: Recurrence(years=v), "calendar interval"),
    ("cycles", "(0, inf)", lambda v: Recurrence(cycles=v, counter="c"), "cycle interval"),
    ("years", "(0, inf)", lambda v: Recurrence(years=v, cycles=1.0, counter="c"),
     "whichever_first years"),
    ("cycles", "(0, inf)", lambda v: Recurrence(years=1.0, cycles=v, counter="c"),
     "whichever_first cycles"),
    ("years", "(0, inf)", lambda v: schedule._service_life({"value": v, "unit": "years"}),
     "service life"),
    ("cycles", "(0, inf)",
     lambda v: schedule._service_life({"value": v, "unit": "cycles", "counter": "c"}),
     "service life cycles"),
    ("cycle log count for 'c'", "(-inf, inf)",
     lambda v: InstallationRecord(date(2025, 1, 1), cycle_log={"c": ((date(2025, 2, 1), v),)})),
    ("horizon", "(0, inf)", lambda v: schedule.generate_schedule(
        schedule.Registry(()), INSTALL, UsageProfile({}), v)),
    ("elapsed_years", "[0, inf)", lambda v: remaining_service_life(LIFED, UsageProfile({}), v)),
    # weibull
    ("shape", "(0, inf)", lambda v: WeibullParams(shape_beta=v, scale_eta=1.0)),
    ("scale", "(0, inf)", lambda v: WeibullParams(shape_beta=1.0, scale_eta=v)),
    ("shape", "(0, inf)", failure_regime),
    ("life", "(0, inf)", lambda v: QuantilePoint(percent_p=10.0, life_Bp=v)),
    ("percent", "(0, 100)", lambda v: QuantilePoint(percent_p=v, life_Bp=1.0)),
    ("percent", "(0, 100)", lambda v: weibull.quantile_Bp(v, WEIBULL)),
    *(("time", "[0, inf]", lambda v, f=f: f(v, WEIBULL))
      for f in (weibull.cdf, weibull.hazard, weibull.cumulative_hazard)),
    ("t2", "(0, inf)", lambda v: weibull.average_failure_rate(0.0, v, WEIBULL)),
    ("count", "[1, inf]", lambda v: weibull.sample(WEIBULL, 1, v)),
    ("seed", "[0, inf]", lambda v: weibull.sample(WEIBULL, v, 3)),
]

_ENDS = {"(": operator.lt, "[": operator.le, ")": operator.lt, "]": operator.le}


def inside(value: float, domain: str) -> bool:
    """Whether value lies in the interval written as domain, "(0, 1.5]"."""
    low, high = map(float, domain[1:-1].split(", "))
    return _ENDS[domain[0]](low, value) and _ENDS[domain[-1]](value, high)


def probes(domain: str) -> list[float]:
    """Each finite end of domain and the double on either side of it, both infinities, NaN."""
    ends = [end for end in map(float, domain[1:-1].split(", ")) if math.isfinite(end)]
    near = [math.nextafter(end, toward) for end in ends for toward in (-math.inf, math.inf)]
    return [*ends, *near, math.inf, -math.inf, math.nan]


def domain_message(check, value):
    """The message of the ValidationError that check(value) raises, if any; a formed
    value's numeric failure (an accepted input) gives None."""
    try:
        check(value)
    except ValidationError as exc:
        return str(exc)
    except ArithmeticError:  # NumericError, or float ** past a float's range
        pass
    return None


PROBES = [pytest.param(name, domain, check, value,
                       id=f"{rule[0] if rule else name.rpartition(': ')[2]} {value!r}")
          for name, domain, check, *rule in DOMAINS for value in probes(domain)]


@pytest.mark.parametrize("name, domain, check, value", PROBES)
def test_field_accepts_exactly_its_domain(name, domain, check, value):
    """A probe outside the domain gives the field's exact message, naming the value; a probe
    inside passes the field's check (a later check of the call may refuse it)."""
    message = domain_message(check, value)
    expected = f"{name} must lie in {domain}, got {value}"
    if inside(value, domain):
        assert message != expected
    else:
        assert message == expected


@pytest.mark.parametrize("name, domain, check", [row[:3] for row in DOMAINS if inside(0, row[1])],
                         ids=[name for name, domain, *_ in DOMAINS if inside(0, domain)])
def test_zero_is_accepted(name, domain, check):
    check(0)


def test_an_int_past_a_float_lies_outside_an_open_infinite_end():
    """An open infinite end holds the doubles short of it: a whole count past the largest
    double is refused there, not by the float arithmetic after it. A closed end holds it."""
    with pytest.raises(ValidationError, match=r"^balls must lie in \[1, inf\), got 1000"):
        _require_in("balls", 10**400, "[1, inf)")
    assert _require_in("seed", 10**400, "[0, inf]") == 10**400
    with pytest.raises(ValidationError, match=r"^x must lie in \(-inf, 0\), got -1000"):
        _require_in("x", -10**400, "(-inf, 0)")


def test_require_in_returns_the_value():
    assert _require_in("x", 1.5, "(0, 1.5]") == 1.5
    assert _require_in("x", 3, "[1, inf)") == 3


# (field name as the error message gives it, a call that checks a value for it,
#  a value the count's domain lets through that the count rejects, the reason)
OUT_OF_DOMAIN = [
    ("count", lambda v: system.poisson_pmf(v, 1.0), math.inf, "a whole number"),
    ("count", lambda v: system.poisson_pmf(v, 1.0), 2.5, "a whole number"),
    ("count", lambda v: system.poisson_pmf(v, 1.0), True, "a finite number"),
]


@pytest.mark.parametrize(
    "name, check, value, reason", OUT_OF_DOMAIN, ids=["count_inf", "count_2.5", "count_true"],
)
def test_value_out_of_domain_names_the_field(name, check, value, reason):
    with pytest.raises(ValidationError) as caught:
        check(value)
    assert str(caught.value) == f"{name} must be {reason}, got {value}"


def package_sources():
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(Path(dwtlife.__file__).parent.glob("*.py"))}


def domain_literals() -> list:
    """(module, domain) of each _require_in call of the package; a domain that is not a
    string literal is given as None."""
    return [(name, node.args[2].value if isinstance(node.args[2], ast.Constant) else None)
            for name, source in package_sources().items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require_in"]


def test_every_domain_is_a_literal_interval():
    """Each _require_in call passes an interval as its text: "(" or "[", a low and a high
    double with low < high, then ")" or "]"."""
    calls = domain_literals()
    assert calls
    for module, domain in calls:
        assert isinstance(domain, str), f"{module}: the domain must be a string literal"
        assert domain[0] in "([" and domain[-1] in ")]", (module, domain)
        low, high = map(float, domain[1:-1].split(", "))
        assert low < high, (module, domain)


def test_only_model_writes_a_domain_message():
    phrases = ("must lie in", "must be positive", "must be >= 0", "must be finite", "outside (")
    writers = [(name, phrase) for name, source in package_sources().items()
               for phrase in phrases if name != "model.py" and phrase in source]
    assert writers == [], "call model._require_in instead"


def test_only_weibull_writes_the_percent_range_message():
    writers = [module for module, domain in domain_literals() if domain == "(0, 100)"]
    assert writers == ["weibull.py"], "call weibull._percent_hazard instead"


def test_only_fatigue_divides_by_the_days_per_year():
    """fatigue.cycles_to_calendar is the one rule that turns a count into years. The one
    other division, generate_schedule's recurrence bound, divides the horizon's days by
    an interval's days: a number of recurrences, not years."""
    package = Path(dwtlife.__file__).parent
    divisors = [(path.name, ast.unparse(node.right)) for path in sorted(package.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and "DAYS_PER_YEAR" in ast.unparse(node.right)]
    assert divisors == [("fatigue.py", "cycles_per_day * DAYS_PER_YEAR"),
                        ("schedule.py", "years * DAYS_PER_YEAR")], \
        "call fatigue.cycles_to_calendar instead"


TINY_BALLAST = {**BALLAST, "turbine_thrust": 1e-300}

# (the numeric failure's message, a call of valid inputs whose result underflows to 0)
UNDERFLOWS = [
    ("ballast weight underflows: 0.0 N is not a normal double",
     lambda: structural.ballast_required_weight(
         structural.BallastSpec(**{**TINY_BALLAST, "nacelle_diameter": 1e-300}))),
    ("ballast height underflows: 0.0 m is not a normal double",
     lambda: structural.ballast_height_for_weight(
         1e-300, structural.BallastSpec(**{**TINY_BALLAST, "base_area": 1e300}))),
    ("(f*S_ut)² underflows: 0.0 Pa² is not a normal double",
     lambda: fatigue.sn_constants(1e-200, 1e-201)),
    ("root bending moment underflows: 2.5e-323 N·m is not a normal double",
     lambda: structural.blade_root_bending_moment(
         structural.BladeSpec(**{**BLADE, "mass": 5e-324}))),
    ("second moment of area underflows: 0.0 m⁴ is not a normal double",
     lambda: structural.rect_bending_stress(1.0, RectSection(1.0, 1e-110), structural.FLAT)),
    ("bending stress underflows: 0.0 Pa is not a normal double",
     lambda: structural.rect_bending_stress(5e-324, RECT, structural.FLAT)),
    ("b·t² underflows: 0.0 m³ is not a normal double",
     lambda: structural.rect_torsion_max_shear(1.0, RectSection(1.0, 1e-170))),
    ("max shear stress underflows: 1.482197e-318 Pa is not a normal double",
     lambda: structural.rect_torsion_max_shear(5e-324, RECT)),
    ("tip-speed ratio underflows: 0.0 is not a normal double",
     lambda: rotor.tip_speed_ratio(
         RotorState(**{**ROTOR, "radius_R": 1e-300, "wind_speed_V": 1e300}))),
    ("rotor torque underflows: 0.0 N·m is not a normal double",
     lambda: rotor.rotor_torque(RotorState(**{**ROTOR, "wind_speed_V": 1e-300}))),
    ("shaft power underflows: 0.0 W is not a normal double",
     lambda: rotor.rotor_power(1e-300, 1e-300)),
    ("failure probability underflows: 2e-321 is not a normal double",
     lambda: weibull.cdf(1e-320, WeibullParams(shape_beta=1.0, scale_eta=5.0))),
    ("k² underflows: 0.0 m² is not a normal double",
     lambda: ColumnSpec(**{**COLUMN, "gyration_k": 1e-300}).eccentricity_ratio),
]
UNDERFLOW_IDS = ["weight", "height", "sn_intercept", "blade_moment", "second_moment",
                 "bending_stress", "bt2", "max_shear", "tip_speed_ratio", "rotor_torque",
                 "shaft_power", "failure_probability", "gyration_squared"]


@pytest.mark.parametrize("message, call", UNDERFLOWS, ids=UNDERFLOW_IDS)
def test_underflow_to_zero_is_a_numeric_failure(message, call):
    with pytest.raises(NumericError) as caught:
        call()
    assert str(caught.value) == message


# (the numeric failure's message, a call of valid inputs where a float ** passes the
#  largest double, which float ** raises as an OverflowError naming no quantity, or
#  raises 0 to a negative power, which it refuses with a ZeroDivisionError)
POWER_OVERFLOWS = {
    "sn_square": ("(f*S_ut)² is not finite (inf Pa²)", lambda: fatigue.sn_constants(1e160, 1e100)),
    "cycles_to_failure": ("cycles to failure is not finite (inf)",
                          lambda: fatigue.cycles_to_failure(1e-300, SN)),
    # σ/a of a 5e-324 Pa stress is 0.0
    "cycles_to_failure_zero_ratio": ("cycles to failure is not finite (inf)",
                                     lambda: fatigue.cycles_to_failure(5e-324, SN)),
    "bearing_rating": ("basic rating C_a is not finite (inf N)",
                       lambda: bearing.basic_dynamic_axial_rating(bearing.SlewingBearingGeometry(
                           **{**GEOMETRY, "ball_diameter_Dr": 1e200,
                              "raceway_center_diameter_dm": 1e201}))),
    "l10": ("L10 is not finite (inf)", lambda: bearing.l10_life(1e120, 0.1)),
    "rotor_torque": ("rotor torque is not finite (inf N·m)",
                     lambda: rotor.rotor_torque(RotorState(**{**ROTOR, "wind_speed_V": 1e200}))),
    "second_moment": ("second moment of area is not finite (inf m⁴)",
                      lambda: structural.rect_bending_stress(1.0, RectSection(1e300, 0.01),
                                                             structural.UPRIGHT)),
    "bt2": ("b·t² is not finite (inf m³)",
            lambda: structural.rect_torsion_max_shear(1.0, RectSection(1e300, 1e200))),
    "gyration_squared": ("k² is not finite (inf m²)",
                         lambda: ColumnSpec(**{**COLUMN, "gyration_k": 1e200}).eccentricity_ratio),
    "buckling_load": ("buckling load is not finite (inf N)",
                      lambda: structural.secant_allowable_load(
                          ColumnSpec(**{**COLUMN, "gyration_k": 1e150, "height_l": 1e-10}))),
}


@pytest.mark.parametrize("message, call", POWER_OVERFLOWS.values(), ids=POWER_OVERFLOWS)
def test_power_past_the_largest_double_names_its_quantity(message, call):
    with pytest.raises(NumericError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_formed_value_is_a_numeric_failure(value):
    for from_nonzero in (True, False):
        with pytest.raises(NumericError) as caught:
            _require_normal("load", value, " N", from_nonzero)
        assert str(caught.value) == f"load is not finite ({value} N)"


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -2.2e-308])
def test_formed_value_below_the_smallest_normal_underflows(value):
    with pytest.raises(NumericError) as caught:
        _require_normal("load", value, " N")
    assert str(caught.value) == f"load underflows: {value} N is not a normal double"
    assert _require_normal("load", value, " N", from_nonzero=False) == value


@pytest.mark.parametrize("value", [2.2250738585072014e-308, -2.2250738585072014e-308, 1.0,
                                   1.7976931348623157e308])
def test_normal_formed_value_is_returned(value):
    assert _require_normal("load", value) == value


def test_only_model_tests_for_a_normal_double():
    writers = [name for name, source in package_sources().items()
               if "float_info" in source or "underflows: " in source]
    assert writers == ["model.py"], "call model._require_normal instead"


def test_no_while_loop():
    """Every loop of the package is bounded: a for loop over a finite range or collection."""
    loops = [(name, node.lineno) for name, source in package_sources().items()
             for node in ast.walk(ast.parse(source)) if isinstance(node, ast.While)]
    assert loops == []


class TestNumber:
    @pytest.mark.parametrize("value, kind, expected", [
        (2, float, 2.0), (2.5, float, 2.5), (10**20, float, 1e20), (3, int, 3), (3.0, int, 3),
    ])
    def test_json_numbers_convert(self, value, kind, expected):
        result = number("x", value, kind)
        assert result == expected and type(result) is kind

    @pytest.mark.parametrize("value", [True, False, None, "1", "0.5", "inf", "nan"])
    def test_bool_text_and_null_rejected(self, value):
        with pytest.raises(ValidationError, match=r"^x must be a finite number, got "):
            number("x", value)

    def test_text_that_is_no_number_keeps_the_conversion_message(self):
        with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
            number("x", "a")
        with pytest.raises(ValueError, match=r"invalid literal for int\(\) with base 10: 'a'"):
            number("x", "a", int)


class TestText:
    @pytest.mark.parametrize("value, expected", [("a", "a"), ("", ""), (7, "7"), (2.5, "2.5")])
    def test_strings_and_numbers_read_as_text(self, value, expected):
        assert text("x", value) == expected

    @pytest.mark.parametrize("value", [None, True, False, [], ["a"], {}, {"a": 1}])
    def test_null_bool_array_and_object_rejected(self, value):
        with pytest.raises(ValidationError, match=r"^x must be text, got "):
            text("x", value)
