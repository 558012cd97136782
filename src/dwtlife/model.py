"""Shared domain types for the lifing engine. All fields are SI."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError


def _require_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValidationError(f"{name} must be strictly positive, got {value}")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Material:
    """Strength, stiffness, and density properties of a structural material."""

    name: str
    ultimate_tensile_strength: float  # Pa
    yield_strength_compressive: Optional[float] = None  # Pa
    elastic_modulus: Optional[float] = None  # Pa
    mass_density: Optional[float] = None  # kg/m³

    def __post_init__(self):
        _require_positive("ultimate_tensile_strength", self.ultimate_tensile_strength)
        for field in ("yield_strength_compressive", "elastic_modulus", "mass_density"):
            value = getattr(self, field)
            if value is not None:
                _require_positive(field, value)
        if (
            self.yield_strength_compressive is not None
            and self.yield_strength_compressive > self.ultimate_tensile_strength
        ):
            raise ValidationError(
                f"{self.name}: compressive yield "
                f"{self.yield_strength_compressive} exceeds ultimate strength "
                f"{self.ultimate_tensile_strength}"
            )


@dataclass(frozen=True)
class RectSection:
    """Rectangular cross section, width >= thickness."""

    width_b: float  # m
    thickness_t: float  # m
    span_L: float  # m

    def __post_init__(self):
        _require_positive("thickness_t", self.thickness_t)
        _require_positive("span_L", self.span_L)
        if self.width_b < self.thickness_t:
            raise ValidationError(
                f"width_b {self.width_b} must be >= thickness_t {self.thickness_t}"
            )


@dataclass(frozen=True)
class ColumnSpec:
    """Eccentrically loaded column: load, geometry, and section properties."""

    load_P: float  # N
    eccentricity_e: float  # m, >= 0
    centroid_c: float  # m
    gyration_k: float  # m
    height_l: float  # m
    area_A: float  # m²
    moment_I: float  # m⁴

    def __post_init__(self):
        if self.eccentricity_e < 0:
            raise ValidationError(
                f"eccentricity_e must be >= 0, got {self.eccentricity_e}"
            )
        for field in ("load_P", "centroid_c", "gyration_k", "height_l", "area_A", "moment_I"):
            _require_positive(field, getattr(self, field))

    @property
    def eccentricity_ratio(self) -> float:
        """Eccentricity ratio ec/k², the dimensionless stress amplification."""
        return self.eccentricity_e * self.centroid_c / self.gyration_k**2
