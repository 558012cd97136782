"""The one positive-and-finite check (model._require_positive) and the one
non-negative check (model._require_nonnegative) at every field they guard, the
one check of a formed value (model._require_normal), and the one document
number and text readers (model.number, model.text)."""

import ast
import math
from pathlib import Path

import pytest

import dwtlife
from dwtlife import bearing, fatigue, structural, system, weibull
from dwtlife.errors import NumericError, ValidationError
from dwtlife.model import ColumnSpec, RectSection, UsageProfile, _require_normal, number, text
from dwtlife.rotor import RotorState
from dwtlife.schedule import CalendarInterval, CycleInterval, ServiceLife, WhicheverFirst
from dwtlife.schedule import ComponentRecord, remaining_service_life
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
GEOMETRY = dict(groove_factor_fcm=1.0, rows_i=1, ball_count_Z=30, ball_diameter_Dr=25.0,
                contact_angle_alpha=60.0, raceway_center_diameter_dm=1000.0)
BEARING_LOADS = dict(radial_Fr=0.0, axial_Fa=1000.0, moment_M=100.0)
LOADS = bearing.BearingLoads(**BEARING_LOADS)
MARIN = fatigue.MarinFactors(1, 1, 1, 1, 1, 1)
SN = fatigue.SnConstants(a=1e9, b=-0.1)
BALLAST_SPEC = structural.BallastSpec(**BALLAST)
BEARING_DOCUMENT = {
    "geometry": {"fcm": 1.0, "balls": 30, "ball_diameter_mm": 25.0, "contact_angle_deg": 60.0,
                 "raceway_center_diameter_mm": 1000.0},
    "loads": {"axial_n": 1000.0, "moment_nm": 100.0},
}

# (field name as the error message gives it, a call that checks a value for it)
GUARDED = [
    ("calendar interval", lambda v: CalendarInterval(years=v)),
    ("cycle interval", lambda v: CycleInterval(cycles=v, counter="c")),
    ("whichever_first years", lambda v: WhicheverFirst(years=v, cycles=1.0, counter="c")),
    ("whichever_first cycles", lambda v: WhicheverFirst(years=1.0, cycles=v, counter="c")),
    ("service life", lambda v: ServiceLife(value=v, unit="years")),
    ("shape", lambda v: WeibullParams(shape_beta=v, scale_eta=1.0)),
    ("scale", lambda v: WeibullParams(shape_beta=1.0, scale_eta=v)),
    ("shape", failure_regime),
    ("life", lambda v: QuantilePoint(percent_p=10.0, life_Bp=v)),
    ("cycles_per_day", lambda v: fatigue.cycles_to_calendar(1e6, v)),
    ("endurance limit", lambda v: fatigue.marin_modified_endurance(v, MARIN)),
    ("endurance limit", lambda v: fatigue.sn_constants(4e8, v)),
    ("stress", lambda v: fatigue.cycles_to_failure(v, SN)),
    ("S-N intercept a", replacing(fatigue.SnConstants, dict(a=1e9, b=-0.1), "a")),
    ("life for 'a'", lambda v: system.system_service_life({"a": v})),
    ("exponential rate", system.LifeModel.exponential),
    ("fixed_life life", system.LifeModel.fixed_life),
    *((name, replacing(RotorState, ROTOR, name))
      for name in ("radius_R", "rotor_speed_omega", "wind_speed_V", "air_density_rho")),
    *((name, replacing(structural.BallastSpec, BALLAST, name))
      for name in ("turbine_thrust", "nacelle_diameter", "base_diameter", "base_area",
                   "ballast_mass_density")),
    ("mass", lambda v: structural.BladeSpec(RectSection(**SECTION), 1.0, 0.0, v)),
    ("span_L", lambda v: structural.BladeSpec(RectSection(**SECTION), v, 0.0, 3.0)),
    ("weight", lambda v: structural.ballast_height_for_weight(v, BALLAST_SPEC)),
    ("ultimate_tensile_strength", fatigue.endurance_limit_unmodified),
    ("thickness_t", replacing(RectSection, SECTION, "thickness_t")),
    *((name, replacing(ColumnSpec, COLUMN, name))
      for name in ("load_P", "centroid_c", "gyration_k", "height_l", "area_A", "moment_I",
                   "yield_strength_compressive", "elastic_modulus")),
    ("groove_factor_fcm", replacing(bearing.SlewingBearingGeometry, GEOMETRY, "groove_factor_fcm")),
    ("raceway center diameter", lambda v: bearing.equivalent_axial_load(LOADS, v)),
    ("equivalent load", lambda v: bearing.l10_life(1e5, v)),
    ("bearing document: oscillations_per_day",
     lambda v: bearing.summary_from_document({**BEARING_DOCUMENT, "oscillations_per_day": v})),
]
# a case is named by its field, without a document reader's "<document>: " prefix
CASES = pytest.mark.parametrize("name, check", GUARDED,
                                ids=[name.rpartition(": ")[2] for name, _ in GUARDED])


# An exact message shows that the field's own check raised, not another check of the call.
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@CASES
def test_non_positive_or_non_finite_value_names_the_field(name, check, value):
    with pytest.raises(ValidationError) as caught:
        check(value)
    reason = "finite" if value == math.inf else "positive"
    assert str(caught.value) == f"{name} must be {reason}, got {value}"


WEIBULL = WeibullParams(shape_beta=2.0, scale_eta=10.0)
EXPONENTIAL = system.LifeModel.exponential(1.0)
RECT = RectSection(**SECTION)
LIFED = ComponentRecord("a", "Control", service_life=ServiceLife(value=4.0, unit="years"))

# (field name as the error message gives it, a call that checks a value for it,
#  whether a finite check runs first and so reports NaN as not finite)
NON_NEGATIVE = [
    *(("time", lambda v, f=f: f(v, WEIBULL), False)
      for f in (weibull.cdf, weibull.hazard, weibull.cumulative_hazard)),
    ("seed", lambda v: weibull.sample(WEIBULL, v, 3), False),
    ("time", EXPONENTIAL.survival, False),
    ("time", system.LifeModel.weibull(WEIBULL).survival, False),
    ("time", lambda v: system.system_reliability_at(v, system.Component("a", EXPONENTIAL)), False),
    ("repair rate", lambda v: system.expected_repairs(v, 1.0), True),
    ("horizon", lambda v: system.expected_repairs(1.0, v), True),
    ("count", lambda v: system.poisson_pmf(v, 1.0), False),
    ("mean", lambda v: system.poisson_pmf(2, v), False),
    ("moment", lambda v: structural.rect_bending_stress(v, RECT, structural.FLAT), False),
    ("torque", lambda v: structural.rect_torsion_max_shear(v, RECT), False),
    *((name, replacing(bearing.BearingLoads, BEARING_LOADS, name), True) for name in BEARING_LOADS),
    ("L10", lambda v: bearing.modified_life(v, bearing.LifeModFactors(1, 1, 1, 1)), False),
    ("eccentricity_e", replacing(ColumnSpec, COLUMN, "eccentricity_e"), True),
    ("usage rate for 'c'", lambda v: UsageProfile(counters={"c": v}), True),
    ("elapsed_years", lambda v: remaining_service_life(LIFED, UsageProfile({}), v), True),
]
NON_NEGATIVE_CASES = pytest.mark.parametrize(
    "name, check, finite_first", NON_NEGATIVE, ids=[name for name, *_ in NON_NEGATIVE]
)


@pytest.mark.parametrize("value", [-1.0, math.nan], ids=["-1", "nan"])
@NON_NEGATIVE_CASES
def test_negative_or_nan_value_names_the_field(name, check, finite_first, value):
    with pytest.raises(ValidationError) as caught:
        check(value)
    reason = "finite" if finite_first and math.isnan(value) else ">= 0"
    assert str(caught.value) == f"{name} must be {reason}, got {value}"


@NON_NEGATIVE_CASES
def test_zero_is_accepted(name, check, finite_first):
    check(0)


# (field name as the error message gives it, a call that checks a value for it,
#  a value the non-negative check lets through that the field rejects, the reason)
OUT_OF_DOMAIN = [
    ("mean", lambda v: system.poisson_pmf(2, v), math.inf, "finite"),
    ("mean", lambda v: system.poisson_pmf(0, v), math.inf, "finite"),
    ("count", lambda v: system.poisson_pmf(v, 1.0), math.inf, "a whole number"),
    ("count", lambda v: system.poisson_pmf(v, 1.0), 2.5, "a whole number"),
    ("count", lambda v: system.poisson_pmf(v, 1.0), True, "a finite number"),
]


@pytest.mark.parametrize(
    "name, check, value, reason", OUT_OF_DOMAIN,
    ids=["mean_inf", "mean_inf_count_0", "count_inf", "count_2.5", "count_true"],
)
def test_value_out_of_domain_names_the_field(name, check, value, reason):
    with pytest.raises(ValidationError) as caught:
        check(value)
    assert str(caught.value) == f"{name} must be {reason}, got {value}"


def test_only_model_writes_the_non_negative_message():
    package = Path(dwtlife.__file__).parent
    writers = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "model.py" and "must be >= 0" in path.read_text(encoding="utf-8")]
    assert writers == [], "call model._require_nonnegative instead"


def test_only_weibull_writes_the_percent_range_message():
    package = Path(dwtlife.__file__).parent
    writers = [path.name for path in sorted(package.glob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines()
               if "percent must lie in" in line]
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
]


@pytest.mark.parametrize("message, call", UNDERFLOWS, ids=["weight", "height", "sn_intercept"])
def test_underflow_to_zero_is_a_numeric_failure(message, call):
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


def package_sources():
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(Path(dwtlife.__file__).parent.glob("*.py"))}


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
