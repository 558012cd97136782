"""The one positive-and-finite check (model._require_positive) at every field it
guards, and the one document number and text readers (model.number, model.text)."""

import math

import pytest

from dwtlife import bearing, fatigue, structural, system
from dwtlife.errors import ValidationError
from dwtlife.model import ColumnSpec, Material, RectSection, number, text
from dwtlife.rotor import RotorState
from dwtlife.schedule import CalendarInterval, CycleInterval, ServiceLife, WhicheverFirst
from dwtlife.weibull import QuantilePoint, WeibullParams, failure_regime


def replacing(make, valid: dict, field: str):
    """make(**valid) with field set to the value under test."""
    return lambda value: make(**{**valid, field: value})


ROTOR = dict(radius_R=1.5, rotor_speed_omega=60.0, wind_speed_V=20.0, air_density_rho=1.2,
             power_coefficient_Cp=0.4)
BALLAST = dict(turbine_thrust=6035.0, nacelle_diameter=2.0, safety_factor=1.0,
               base_diameter=3.0, base_area=4.0, ballast_mass_density=1600.0)
MATERIAL = dict(name="steel", ultimate_tensile_strength=4e8, yield_strength_compressive=2.5e8,
                elastic_modulus=2e11, mass_density=7850.0)
SECTION = dict(width_b=0.1, thickness_t=0.01, span_L=1.0)
COLUMN = dict(load_P=1e4, eccentricity_e=0.01, centroid_c=0.05, gyration_k=0.05, height_l=6.0,
              area_A=0.01, moment_I=1e-5)
GEOMETRY = dict(groove_factor_fcm=1.0, rows_i=1, ball_count_Z=30, ball_diameter_Dr=25.0,
                contact_angle_alpha=60.0, raceway_center_diameter_dm=1000.0)
LOADS = bearing.BearingLoads(radial_Fr=0.0, axial_Fa=1000.0, moment_M=100.0)
MARIN = fatigue.MarinFactors(1, 1, 1, 1, 1, 1)
SN = fatigue.SnConstants(a=1e9, b=-0.1, f=0.9)
BALLAST_SPEC = structural.BallastSpec(**BALLAST)

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
    ("S-N intercept a", replacing(fatigue.SnConstants, dict(a=1e9, b=-0.1, f=0.9), "a")),
    ("life for 'a'", lambda v: system.system_service_life({"a": v})),
    *((name, replacing(RotorState, ROTOR, name))
      for name in ("radius_R", "rotor_speed_omega", "wind_speed_V", "air_density_rho")),
    *((name, replacing(structural.BallastSpec, BALLAST, name))
      for name in ("turbine_thrust", "nacelle_diameter", "base_diameter", "base_area",
                   "ballast_mass_density")),
    ("mass", lambda v: structural.BladeSpec(RectSection(**SECTION), Material(**MATERIAL), 0.0, v)),
    ("weight", lambda v: structural.ballast_height_for_weight(v, BALLAST_SPEC)),
    *((name, replacing(Material, MATERIAL, name))
      for name in ("ultimate_tensile_strength", "yield_strength_compressive", "elastic_modulus",
                   "mass_density")),
    *((name, replacing(RectSection, SECTION, name)) for name in ("thickness_t", "span_L")),
    *((name, replacing(ColumnSpec, COLUMN, name))
      for name in ("load_P", "centroid_c", "gyration_k", "height_l", "area_A", "moment_I")),
    ("groove_factor_fcm", replacing(bearing.SlewingBearingGeometry, GEOMETRY, "groove_factor_fcm")),
    ("load-life exponent", lambda v: bearing.oscillating_rating(1e5, 30.0, v)),
    ("raceway center diameter", lambda v: bearing.equivalent_axial_load(LOADS, v)),
    ("equivalent load", lambda v: bearing.l10_life(1e5, v)),
    ("oscillation rate", lambda v: bearing.bearing_calendar_life(1e6, v, bearing.OSCILLATIONS)),
]
CASES = pytest.mark.parametrize("name, check", GUARDED, ids=[name for name, _ in GUARDED])


# An exact message shows that the field's own check raised, not another check of the call.
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@CASES
def test_non_positive_or_non_finite_value_names_the_field(name, check, value):
    with pytest.raises(ValidationError) as caught:
        check(value)
    reason = "finite" if value == math.inf else "positive"
    assert str(caught.value) == f"{name} must be {reason}, got {value}"


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
