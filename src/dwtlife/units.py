"""Unit tags and exact-factor conversion.

Internal computation everywhere in this package is SI (Pa, N, N·m, m,
kg/m³, rad/s, m/s); the tags below exist so imperial values can enter and
leave at the boundaries. Only the dimensions actually used by the engine
are covered; this is not a general unit-algebra layer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ValidationError
from .model import _require_finite

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


def dimension_of(unit: str) -> str:
    return _UNITS[canonical_unit(unit)][0]


@dataclass(frozen=True)
class Quantity:
    """A scalar with a unit tag."""

    value: float
    unit: str

    def __post_init__(self):
        object.__setattr__(self, "unit", canonical_unit(self.unit))

    def to(self, target_unit: str) -> "Quantity":
        return convert(self, target_unit)

    @property
    def si_value(self) -> float:
        """Value expressed in the SI base unit of this quantity's dimension."""
        return self.value * _UNITS[self.unit][1]


def convert(q: Quantity, target_unit: str) -> Quantity:
    """Convert a quantity to another unit of the same physical dimension."""
    target = canonical_unit(target_unit)
    dim_src, factor_src = _UNITS[q.unit]
    dim_dst, factor_dst = _UNITS[target]
    if dim_src != dim_dst:
        raise ValidationError(
            f"cannot convert {q.unit!r} ({dim_src}) to {target!r} ({dim_dst})"
        )
    return Quantity(q.value * factor_src / factor_dst, target)


_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([^\s0-9].*?)?\s*$")


def parse_quantity(text: str, default_unit: str) -> Quantity:
    """Parse "58 ksi", "58ksi", or a bare number (given the default unit)."""
    m = _QUANTITY_RE.match(text)
    if not m:
        raise ValidationError(f"cannot parse quantity {text!r}")
    try:
        value = float(m.group(1))
    except ValueError:
        raise ValidationError(f"cannot parse quantity {text!r}") from None
    _require_finite(f"quantity {text!r}", value)
    unit = m.group(2) or default_unit
    return Quantity(value, canonical_unit(unit))
