import itertools

import pytest
from hypothesis import given, strategies as st

from dwtlife.errors import ValidationError
from dwtlife.model import Material
from dwtlife.units import Quantity, canonical_unit, convert, parse_quantity
from dwtlife.units import _UNITS  # unit table drives the round-trip sweep


def test_ksi_to_mpa():
    q = convert(Quantity(45.0, "ksi"), "MPa")
    assert q.value == pytest.approx(310.264065, rel=1e-9)
    assert q.value == pytest.approx(310.0, rel=1e-3)  # published rounded figure


def test_identity_conversion():
    q = convert(Quantity(100.0, "MPa"), "MPa")
    assert q.value == 100.0
    assert q.unit == "MPa"


def test_58_ksi():
    assert convert(Quantity(58.0, "ksi"), "MPa").value == pytest.approx(
        399.895906, rel=1e-9
    )


def test_force_and_torque_factors():
    assert convert(Quantity(1.0, "lbf"), "N").value == pytest.approx(4.4482216)
    assert convert(Quantity(1.0, "ft·lb"), "N·m").value == pytest.approx(1.3558179)


def test_dimension_mismatch_names_both_units():
    with pytest.raises(ValidationError, match="ksi.*N·m|N·m.*ksi"):
        convert(Quantity(1.0, "ksi"), "N·m")


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
    back = convert(convert(Quantity(value, u1), u2), u1)
    assert back.value == pytest.approx(value, rel=1e-12)


def test_aliases():
    assert canonical_unit("Nm") == "N·m"
    assert canonical_unit("ft-lb") == "ft·lb"
    assert canonical_unit("kg/m3") == "kg/m³"
    with pytest.raises(ValidationError):
        canonical_unit("furlong")


def test_parse_quantity_forms():
    assert parse_quantity("58 ksi", "MPa") == Quantity(58.0, "ksi")
    assert parse_quantity("58ksi", "MPa") == Quantity(58.0, "ksi")
    assert parse_quantity("58", "MPa") == Quantity(58.0, "MPa")
    assert parse_quantity("300Nm", "N·m") == Quantity(300.0, "N·m")
    with pytest.raises(ValidationError):
        parse_quantity("not-a-number", "MPa")


@pytest.mark.parametrize("text", ["1e999 ksi", "-1e999", "1e400MPa"])
def test_parse_quantity_rejects_non_finite(text):
    with pytest.raises(ValidationError, match="finite"):
        parse_quantity(text, "MPa")


def test_material_yield_above_ultimate_rejected():
    with pytest.raises(ValidationError):
        Material(name="bad", ultimate_tensile_strength=1e8, yield_strength_compressive=2e8)


def test_material_nonpositive_rejected():
    with pytest.raises(ValidationError):
        Material(name="bad", ultimate_tensile_strength=0.0)
    with pytest.raises(ValidationError):
        Material(name="bad", ultimate_tensile_strength=1e8, mass_density=-1.0)
