"""Ballast sizing, secant column mechanics, and blade section stresses.

The column relations are the classic eccentric-compression set: midspan
deflection delta = e*(sec x - 1) with x = sqrt(P/EI)*l/2, computed as
e*2*sin²(x/2)/cos x so that it does not cancel, and the implicit allowable
load P/A = S_yc / (1 + (ec/k²) sec((l/2k) sqrt(P/AE))), solved here by
bisection below the elastic stability bound. Each takes the ColumnSpec
alone: S_yc and E are two of its fields.
"""

from __future__ import annotations

import math

from .errors import NumericError, ValidationError
from .model import ColumnSpec, Record, RectSection, _require_in, _require_normal
from .units import GRAVITY

FLAT = "flat"  # bending about the wide axis: I = b t³/12, y = t/2
UPRIGHT = "upright"  # bending about the narrow axis: I = t b³/12, y = b/2
# Halvings that take secant_allowable_load's bracket, 1e-15 to 1 - 1e-12 of the Euler
# load, to 1e-9 of a root above its lower end: log2(1e24) < 80.
_HALVINGS = 80


class BallastSpec(Record):
    """Gravity-base ballast parameters for the tower moment balance."""

    turbine_thrust: float  # N
    nacelle_diameter: float  # m
    safety_factor: float
    base_diameter: float  # m
    base_area: float  # m²
    ballast_mass_density: float  # kg/m³

    def __post_init__(self):
        for name in ("turbine_thrust", "nacelle_diameter", "base_diameter", "base_area",
                     "ballast_mass_density"):
            _require_in(name, getattr(self, name), "(0, inf)")
        _require_in("safety_factor", self.safety_factor, "[1, inf)")


class BladeSpec(Record):
    """Blade idealized as a rectangular cantilever of span L mounted at angle phi."""

    section: RectSection
    span_L: float  # m
    mount_angle_phi: float  # deg, in [0, 90]
    mass: float  # kg

    def __post_init__(self):
        _require_in("span_L", self.span_L, "(0, inf)")
        _require_in("mount_angle_phi", self.mount_angle_phi, "[0, 90]")
        _require_in("mass", self.mass, "(0, inf)")


def ballast_required_weight(spec: BallastSpec) -> float:
    """Ballast weight (N) balancing the turbine tipping moment with margin."""
    moment = spec.turbine_thrust * spec.nacelle_diameter
    weight = moment * spec.safety_factor / spec.base_diameter
    _require_normal("ballast weight", weight, " N")  # first: an infinite moment gives it too
    _require_normal("tipping moment", moment, " N·m")
    return weight


def ballast_height_for_weight(weight: float, spec: BallastSpec) -> float:
    """Fill height (m) of ballast material providing the given weight.

    Linear in the weight: h = W / (rho * g * A_base).
    """
    _require_in("weight", weight, "(0, inf)")
    per_metre = spec.ballast_mass_density * GRAVITY * spec.base_area
    _require_normal("ballast weight per metre of fill", per_metre, " N/m")
    return _require_normal("ballast height", weight / per_metre, " m")


def secant_deflection(col: ColumnSpec) -> float:
    """Midspan deflection of a pinned eccentric column.

    Raises NumericError once sqrt(P/EI)*l/2 reaches pi/2, where the secant
    diverges, a concentric column included. e*(sec x - 1) is computed as
    e*2*sin^2(x/2)/cos x, which does not cancel as x falls to 0.
    """
    arg = math.sqrt(col.load_P / (col.elastic_modulus * col.moment_I)) * col.height_l / 2.0
    if arg >= math.pi / 2:
        raise NumericError(
            f"load {col.load_P} N is at or beyond the elastic buckling bound "
            f"(secant argument {arg:.4g} >= pi/2)"
        )
    return col.eccentricity_e * 2.0 * math.sin(arg / 2.0) ** 2 / math.cos(arg)


def secant_allowable_load(col: ColumnSpec) -> float:
    """Largest axial load (N) at which the extreme-fiber stress reaches S_yc.

    Solves the implicit secant-column equation for P by bisection on
    (0, P_buckle) to 1e-9 relative tolerance. With zero eccentricity ratio
    it gives the limit as the ratio falls to 0: the smaller of the yield
    load A * S_yc and the Euler load P_buckle. An Euler load that is not a
    normal double is a NumericError, but for an infinite one at zero ratio.
    """
    s_yc = col.yield_strength_compressive
    modulus = col.elastic_modulus
    ratio = col.eccentricity_ratio

    # Secant argument (l/2k)*sqrt(P/AE) reaches pi/2 at the Euler load.
    p_buckle = col.area_A * modulus * (math.pi * col.gyration_k / col.height_l) ** 2
    if ratio or p_buckle != math.inf:  # an unbounded Euler load leaves the yield load
        _require_normal("buckling load", p_buckle, " N")
    if ratio == 0:
        return min(col.area_A * s_yc, p_buckle)

    def residual(load: float) -> float:
        arg = (col.height_l / (2 * col.gyration_k)) * math.sqrt(
            load / (col.area_A * modulus)
        )
        return load / col.area_A * (1 + ratio / math.cos(arg)) - s_yc

    lo = p_buckle * 1e-15
    hi = p_buckle * (1 - 1e-12)
    if residual(lo) >= 0 or residual(hi) <= 0:
        raise NumericError(
            "column unstable: no yield-limited load below the buckling bound"
        )
    for _ in range(_HALVINGS):  # hi - lo starts near P_buckle, far above 1e-9 * hi
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            hi = mid
        else:
            lo = mid
        if not (hi - lo) > 1e-9 * hi:
            break
    else:
        raise NumericError(f"allowable load not bracketed to 1e-9 in {_HALVINGS} halvings")
    return 0.5 * (lo + hi)


def blade_root_bending_moment(blade: BladeSpec) -> float:
    """Root bending moment (N·m) from blade self-weight.

    The distributed weight resolves to m*g acting at mid-span of the
    cantilever, so M = m * g * L/2.
    """
    moment = blade.mass * GRAVITY * blade.span_L / 2.0
    return _require_normal("root bending moment", moment, " N·m")


def rect_bending_stress(moment: float, s: RectSection, orientation: str) -> float:
    """Extreme-fiber bending stress y*M/I for a rectangular section.

    orientation "flat" bends about the wide (b) axis, "upright" about the
    narrow (t) axis.
    """
    _require_in("moment", moment, "[0, inf]")
    if orientation == FLAT:
        inertia = s.width_b * s.thickness_t**3 / 12.0
        y = s.thickness_t / 2.0
    elif orientation == UPRIGHT:
        inertia = s.thickness_t * s.width_b**3 / 12.0
        y = s.width_b / 2.0
    else:
        raise ValidationError(f"orientation must be 'flat' or 'upright', got {orientation!r}")
    _require_normal("second moment of area", inertia, " m⁴")
    return _require_normal("bending stress", y * moment / inertia, " Pa", from_nonzero=moment != 0)


def rect_torsion_max_shear(torque: float, s: RectSection) -> float:
    """Peak torsional shear of a thin rectangle: T*(3 + 1.8 t/b)/(b t²).

    Consistent SI units throughout (torque N·m, section m, result Pa).
    """
    _require_in("torque", torque, "[0, inf]")
    b, t = s.width_b, s.thickness_t
    bt2 = _require_normal("b·t²", b * t**2, " m³")
    return _require_normal("max shear stress", torque * (3.0 + 1.8 * t / b) / bt2, " Pa",
                           from_nonzero=torque != 0)
