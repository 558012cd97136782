"""Unit tags and exact-factor conversion.

A quantity in memory is a plain float in SI (Pa, N, N·m, m, kg/m³, rad/s,
m/s). Unit text is read once, at the boundary, by parse_quantity, which
refuses a unit of the wrong dimension; from_si expresses an SI value in a
display unit. Only the dimensions actually used by the engine are covered;
this is not a general unit-algebra layer.
"""

from __future__ import annotations

import math
import re

from .errors import ValidationError
from .model import _require_in

# Standard gravity, used wherever a weight is derived from a mass.
GRAVITY = 9.80665  # m/s²

# unit tag -> (dimension, factor to SI base unit of that dimension)
_UNITS: dict[str, tuple[str, float]] = {
    "Pa": ("stress", 1.0),
    "MPa": ("stress", 1.0e6),
    "ksi": ("stress", 6.894757e6),
    "N": ("force", 1.0),
    "lbf": ("force", 4.4482216),
    "N·m": ("torque", 1.0),
    "ft·lb": ("torque", 1.3558179),
    "m": ("length", 1.0),
    "mm": ("length", 1.0e-3),
    "in": ("length", 0.0254),
    "kg/m³": ("density", 1.0),
    "g/cc": ("density", 1000.0),
    "rpm": ("angular_speed", 2.0 * math.pi / 60.0),
    "rad/s": ("angular_speed", 1.0),
    "m/s": ("speed", 1.0),
    "mph": ("speed", 0.44704),
}

# ASCII spellings accepted at input boundaries.
_ALIASES = {
    "pa": "Pa",
    "mpa": "MPa",
    "Nm": "N·m",
    "N.m": "N·m",
    "N-m": "N·m",
    "ft-lb": "ft·lb",
    "ftlb": "ft·lb",
    "ft.lb": "ft·lb",
    "kg/m3": "kg/m³",
    "g/cm3": "g/cc",
    "g/cm³": "g/cc",
}


def canonical_unit(unit: str) -> str:
    """Resolve a unit spelling to its canonical tag, or raise."""
    if unit in _UNITS:
        return unit
    if unit in _ALIASES:
        return _ALIASES[unit]
    raise ValidationError(f"unknown unit {unit!r}")


def from_si(value: float, unit: str) -> float:
    """Express value, given in the SI base unit of unit's dimension, in unit.

    The inverse of parse_quantity, for display.
    """
    return value / _UNITS[canonical_unit(unit)][1]


def convert(value: float, unit: str, target_unit: str) -> float:
    """value in unit, expressed in another unit of the same dimension."""
    source, target = canonical_unit(unit), canonical_unit(target_unit)
    (dim_src, factor_src), (dim_dst, factor_dst) = _UNITS[source], _UNITS[target]
    if dim_src != dim_dst:
        raise ValidationError(
            f"cannot convert {source!r} ({dim_src}) to {target!r} ({dim_dst})"
        )
    return value * factor_src / factor_dst


_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([^\s0-9].*?)?\s*$")


def parse_quantity(text: str, default_unit: str) -> float:
    """The SI value of "58 ksi", "58ksi", or a bare number (given the default unit).

    A unit of another dimension than default_unit's is refused.
    """
    m = _QUANTITY_RE.match(text)
    if not m or not re.fullmatch(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", m.group(1)):
        raise ValidationError(f"cannot parse quantity {text!r}")
    value = float(m.group(1))
    _require_in(f"quantity {text!r}", value, "(-inf, inf)")
    dimension, factor = _UNITS[canonical_unit(m.group(2) or default_unit)]
    expected = _UNITS[canonical_unit(default_unit)][0]
    if dimension != expected:
        raise ValidationError(f"quantity {text!r} has dimension {dimension}, expected {expected}")
    return value * factor
