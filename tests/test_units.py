import itertools

import pytest
from hypothesis import given, strategies as st

from dwtlife.errors import ValidationError
from dwtlife.fatigue import endurance_limit_unmodified
from dwtlife.model import ColumnSpec
from dwtlife.units import canonical_unit, convert, from_si, parse_quantity
from dwtlife.units import _UNITS  # unit table drives the round-trip sweep


def test_ksi_to_mpa():
    mpa = convert(45.0, "ksi", "MPa")
    assert mpa == pytest.approx(310.264065, rel=1e-9)
    assert mpa == pytest.approx(310.0, rel=1e-3)  # published rounded figure


def test_identity_conversion():
    assert convert(100.0, "MPa", "MPa") == 100.0


def test_58_ksi():
    assert convert(58.0, "ksi", "MPa") == pytest.approx(399.895906, rel=1e-9)


def test_force_and_torque_factors():
    assert convert(1.0, "lbf", "N") == pytest.approx(4.4482216)
    assert convert(1.0, "ft·lb", "N·m") == pytest.approx(1.3558179)


def test_dimension_mismatch_names_both_units():
    with pytest.raises(ValidationError, match="ksi.*N·m|N·m.*ksi"):
        convert(1.0, "ksi", "N·m")


@pytest.mark.parametrize(
    "u1,u2",
    [
        (u1, u2)
        for dim in {d for d, _ in _UNITS.values()}
        for u1, u2 in itertools.permutations(
            [u for u, (d, _) in _UNITS.items() if d == dim], 2
        )
    ],
)
@given(value=st.floats(min_value=1e-6, max_value=1e9))
def test_round_trip_identity(u1, u2, value):
    assert convert(convert(value, u1, u2), u2, u1) == pytest.approx(value, rel=1e-12)


def test_aliases():
    assert canonical_unit("Nm") == "N·m"
    assert canonical_unit("ft-lb") == "ft·lb"
    assert canonical_unit("kg/m3") == "kg/m³"
    with pytest.raises(ValidationError):
        canonical_unit("furlong")


def test_parse_quantity_forms():
    assert parse_quantity("58 ksi", "MPa") == 58.0 * 6.894757e6
    assert parse_quantity("58ksi", "MPa") == 58.0 * 6.894757e6
    assert parse_quantity("58", "MPa") == 58.0e6
    assert parse_quantity("300Nm", "N·m") == 300.0
    with pytest.raises(ValidationError):
        parse_quantity("not-a-number", "MPa")


@pytest.mark.parametrize("text, default_unit, message", [
    ("58 mph", "MPa", "quantity '58 mph' has dimension speed, expected stress"),
    ("300 ksi", "N·m", "quantity '300 ksi' has dimension stress, expected torque"),
    ("2 ft-lb", "in", "quantity '2 ft-lb' has dimension torque, expected length"),
])
def test_parse_quantity_rejects_another_dimension(text, default_unit, message):
    with pytest.raises(ValidationError) as info:
        parse_quantity(text, default_unit)
    assert str(info.value) == message


@pytest.mark.parametrize("unit", sorted(_UNITS))
def test_from_si_inverts_parse_quantity(unit):
    assert from_si(parse_quantity(f"2.5 {unit}", unit), unit) == pytest.approx(2.5, rel=1e-15)


@pytest.mark.parametrize("text", ["ee", "1e Nm", ".", "1.2.3 MPa", "--1"])
def test_parse_quantity_rejects_malformed_number(text):
    with pytest.raises(ValidationError) as info:
        parse_quantity(text, "MPa")
    assert str(info.value) == f"cannot parse quantity {text!r}"


@pytest.mark.parametrize("text", ["1e999 ksi", "-1e999", "1e400MPa"])
def test_parse_quantity_rejects_non_finite(text):
    with pytest.raises(ValidationError, match=r"must lie in \(-inf, inf\), got -?inf$"):
        parse_quantity(text, "MPa")


def test_material_nonpositive_rejected():
    with pytest.raises(ValidationError):
        endurance_limit_unmodified(0.0)
    with pytest.raises(ValidationError):
        ColumnSpec(1e4, 0.01, 0.05, 0.05, 6.0, 0.01, 1e-5, 2.5e8, -1.0)
