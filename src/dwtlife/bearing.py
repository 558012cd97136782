"""Slewing-bearing life pipeline.

basic rating -> oscillation correction -> equivalent axial load -> L10 ->
standard modified rating life -> raceway stress cycles -> calendar years, the
last by fatigue.cycles_to_calendar, the one rule that turns a count into years.

Ball diameter D_r and raceway center diameter d_m follow the rolling-
bearing rating convention and are carried in millimeters; loads are N and
moments N·m. The rating-factor f_cm is caller input (for the bearing used
here the groove conformity is 0.53; the corresponding f_cm comes from the
rating tables, not from this module).
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .fatigue import cycles_to_calendar
from .model import Record, _require_in, _require_normal, known_keys, number, read_document, whole

BALL_EXPONENT = 3.0  # load-life exponent p of a ball bearing (ISO 281), the one p used here


class SlewingBearingGeometry(Record):
    groove_factor_fcm: float
    rows_i: int
    ball_count_Z: int
    ball_diameter_Dr: float  # mm
    contact_angle_alpha: float  # deg
    raceway_center_diameter_dm: float  # mm

    def __post_init__(self):
        _require_in("groove_factor_fcm", self.groove_factor_fcm, "(0, inf)")
        _require_in("rows_i", self.rows_i, "[1, inf)")
        _require_in("ball_count_Z", self.ball_count_Z, "[1, inf)")
        _require_in("ball_diameter_Dr", self.ball_diameter_Dr, "(0, inf)")
        _require_in("contact angle", self.contact_angle_alpha, "(0, 90)")
        _require_in("raceway_center_diameter_dm", self.raceway_center_diameter_dm, "(0, inf)")
        if not self.ball_diameter_Dr < self.raceway_center_diameter_dm:
            raise ValidationError("ball diameter must be smaller than the raceway center diameter")


class BearingLoads(Record):
    radial_Fr: float  # N
    axial_Fa: float  # N
    moment_M: float  # N·m

    def __post_init__(self):
        for name in self._fields:
            _require_in(name, getattr(self, name), "[0, inf)")


class LifeModFactors(Record):
    """Rating-life corrections: a1 reliability, a2 material, a3 lubrication,
    a4 supporting-structure flexibility."""

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self):
        for name in self._fields:
            _require_in(f"life factor {name}", getattr(self, name), "(0, 2]")

    def product(self) -> float:
        return self.a1 * self.a2 * self.a3 * self.a4


def basic_dynamic_axial_rating(g: SlewingBearingGeometry) -> float:
    """C_a = f_cm * (i cos alpha)^0.7 * Z^(2/3) * D_r^1.8 * tan alpha."""
    alpha = math.radians(g.contact_angle_alpha)
    return (
        g.groove_factor_fcm
        * (g.rows_i * math.cos(alpha)) ** 0.7
        * g.ball_count_Z ** (2.0 / 3.0)
        * g.ball_diameter_Dr**1.8
        * math.tan(alpha)
    )


def oscillating_rating(ca: float, theta_deg: float) -> float:
    """Rating uplift C_a * (180/theta)^(1/p) for a bearing dithering over
    an arc of half-amplitude theta instead of rotating."""
    _require_in("oscillation half-arc", theta_deg, "(0, 180]")
    return ca * (180.0 / theta_deg) ** (1.0 / BALL_EXPONENT)


def equivalent_axial_load(loads: BearingLoads, dm: float) -> float:
    """P_ea = 0.75 F_r + F_a + 2 M / d_m, with M and d_m in consistent units."""
    _require_in("raceway center diameter", dm, "(0, inf)")
    return 0.75 * loads.radial_Fr + loads.axial_Fa + 2.0 * loads.moment_M / dm


def l10_life(ca_osc: float, pea: float) -> float:
    """L10 = (C_a,osc / P_ea)^p, a cycle count on the rating's oscillation basis (a power
    past the largest float raises OverflowError, as float ** does)."""
    _require_in("equivalent load", pea, "(0, inf)")
    return _require_normal("L10", (ca_osc / pea) ** BALL_EXPONENT)


def modified_life(l10: float, f: LifeModFactors) -> float:
    """Standard modified rating life L_nm = a1 a2 a3 a4 L10."""
    _require_in("L10", l10, "[0, inf]")
    return _require_normal("modified life", f.product() * l10, from_nonzero=l10 != 0)


def raceway_stress_cycles(lnm: float, ball_count_z: int) -> float:
    """Raceway stress cycles: each oscillation loads every ball once."""
    _require_in("ball count", ball_count_z, "[1, inf]")
    return _require_normal("raceway stress cycles", lnm * ball_count_z, from_nonzero=lnm != 0)


def life_summary(
    geometry: SlewingBearingGeometry,
    loads: BearingLoads,
    theta_deg: float,
    factors: LifeModFactors,
    oscillations_per_day: float,
) -> dict:
    """Run the full pipeline; returns every intermediate plus both calendar
    bases, L_nm (oscillations) and L_nm * Z (raceway cycles) at the daily
    oscillation rate. Moment loads are converted to N·mm to match d_m in mm."""
    ca = basic_dynamic_axial_rating(geometry)
    ca_osc = oscillating_rating(ca, theta_deg)
    loads_mm = BearingLoads(loads.radial_Fr, loads.axial_Fa, loads.moment_M * 1000.0)
    pea = equivalent_axial_load(loads_mm, geometry.raceway_center_diameter_dm)
    l10 = l10_life(ca_osc, pea)
    lnm = modified_life(l10, factors)
    raceway = raceway_stress_cycles(lnm, geometry.ball_count_Z)
    return {
        "basic_rating_Ca": ca,
        "oscillating_rating_Ca_osc": ca_osc,
        "equivalent_axial_load_Pea": pea,
        "l10_oscillations": l10,
        "modified_life_oscillations": lnm,
        "raceway_stress_cycles": raceway,
        "years_oscillation_basis": cycles_to_calendar(lnm, oscillations_per_day),
        "years_raceway_basis": cycles_to_calendar(raceway, oscillations_per_day),
    }


# Document keys of the geometry fields after ball_count_Z, and of BearingLoads, in field order.
_GEOMETRY_MM_DEG = ("ball_diameter_mm", "contact_angle_deg", "raceway_center_diameter_mm")
_LOADS = ("radial_n", "axial_n", "moment_nm")
_OPTIONAL = ("factors", "theta_deg", "oscillations_per_day")


def summary_from_document(document) -> dict:
    """life_summary of a bearing document (README, "Bearing life"). Its "factors"
    object, or presets.BEARING_LIFE_FACTORS if absent or null, builds the LifeModFactors;
    an absent "oscillations_per_day" takes presets.DEFAULT_USAGE's yaw_oscillations rate,
    and a present one lies in (0, inf). Only the typed inputs are read as the document:
    a value the pipeline computes past a float's range is a numeric failure, not a
    malformed document."""
    from . import presets

    def build(doc):
        known_keys(doc, ("geometry", "loads"), _OPTIONAL)
        geo = known_keys(doc["geometry"], ("fcm", "balls", *_GEOMETRY_MM_DEG), ("rows",))
        loads = known_keys(doc["loads"], (), _LOADS)
        factors = doc.get("factors")
        if factors is None:
            factors = presets.BEARING_LIFE_FACTORS
        rate = number("oscillations_per_day", doc.get(
            "oscillations_per_day", presets.DEFAULT_USAGE.counters["yaw_oscillations"]))
        _require_in("oscillations_per_day", rate, "(0, inf)")
        return (
            SlewingBearingGeometry(
                number("fcm", geo["fcm"]),
                whole("rows", geo.get("rows", 1)),
                whole("balls", geo["balls"]),
                *(number(key, geo[key]) for key in _GEOMETRY_MM_DEG),
            ),
            BearingLoads(*(number(key, loads.get(key, 0.0)) for key in _LOADS)),
            number("theta_deg", doc.get("theta_deg", presets.BEARING_OSC_HALF_ARC_DEG)),
            LifeModFactors(**{k: number(k, v) for k, v in factors.items()}),
            rate,
        )

    return life_summary(*read_document("bearing document", build, document))
