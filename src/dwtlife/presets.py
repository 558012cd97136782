"""Default dataset for the D3-class ducted turbine analyses.

Values come from the turbine's published lifing study; anything inferred
rather than published says so in a comment.
"""

from __future__ import annotations

from .bearing import LifeModFactors
from .fatigue import MarinFactors
from .model import Material, RectSection, UsageProfile
from .rotor import RotorState
from .units import Quantity, convert

# Tower material: ASTM A36, minimum ultimate strength 58 ksi. Yield and
# modulus are the standard A36 values (36 ksi, 200 GPa).
TOWER_STEEL = Material(
    name="ASTM A36 steel",
    ultimate_tensile_strength=convert(Quantity(58.0, "ksi"), "Pa").value,
    yield_strength_compressive=convert(Quantity(36.0, "ksi"), "Pa").value,
    elastic_modulus=200e9,
)

# Blade material: pressed aluminum 6061-T6, 45 ksi ultimate, 2.7 g/cc.
BLADE_ALUMINUM = Material(
    name="Aluminum 6061-T6",
    ultimate_tensile_strength=convert(Quantity(45.0, "ksi"), "Pa").value,
    mass_density=2700.0,
)

# Endurance-limit corrections: machined steel member under axial loading
# at 95% reliability (tower), pressed-surface beam in bending at 95%
# reliability (blade).
TOWER_MARIN = MarinFactors(ka=0.92, kb=1.00, kc=0.85, kd=1.00, ke=0.87, kf=1.00)
BLADE_MARIN = MarinFactors(ka=1.01, kb=0.89, kc=1.00, kd=1.00, ke=0.87, kf=1.00)

FATIGUE_STRENGTH_FRACTION = 0.9

# Fully reversed stress amplitudes driving the fatigue estimates: tower
# von Mises stress from the 109 mph extreme-gust FEA case, blade root
# bending stress with the blade horizontal.
TOWER_GUST_STRESS = convert(Quantity(13.56, "ksi"), "Pa").value
BLADE_BENDING_STRESS = convert(Quantity(6.48, "ksi"), "Pa").value

# Blade idealized as a rectangular cantilever.
BLADE_SECTION = RectSection(width_b=0.185, thickness_t=0.004, span_L=1.4988)
BLADE_MASS_KG = 3.0

# Rotor operating point assumed for the extreme-gust torque estimate.
GUST_ROTOR_STATE = RotorState(
    radius_R=1.5,
    rotor_speed_omega=convert(Quantity(600.0, "rpm"), "rad/s").value,
    wind_speed_V=48.72,
    air_density_rho=1.24,
    power_coefficient_Cp=0.40,
)

# (power coefficient, rotor rpm) torque sweep companions to the base case.
TORQUE_SWEEP = ((0.5, 600.0), (0.6, 600.0), (0.4, 900.0))

# Yaw-bearing rating-life corrections: 90% reliability, HRC 58 steel,
# recommended lubrication factor, tubular-tower support.
BEARING_LIFE_FACTORS = LifeModFactors(a1=1.00, a2=1.00, a3=0.10, a4=0.85)
BEARING_OSC_HALF_ARC_DEG = 30.0  # conservative yaw dither amplitude
BEARING_BALL_COUNT = 30  # inferred: back-solved from the published
# raceway-cycles / oscillations ratio; not a catalog figure.

# Daily usage counters. jack_cycles is log-driven (raise/lower events),
# hence rate 0.
DEFAULT_USAGE = UsageProfile(
    counters={
        "rotor_cycles": 144000.0,
        "yaw_oscillations": 1500.0,
        "tower_stress_cycles": 1000.0,
        "jack_cycles": 0.0,
    }
)

# Component service-life summary (years). The controller is tracked
# separately: 10-year conservative field estimate against a 20-year CMOS
# design MTTF, unreconciled.
SERVICE_LIFE_SUMMARY_YEARS = {
    "tower": 38.0,
    "slew_bearing": 80.0,
    "blades": 75.0,
    "generator": 20.0,
    "slip_ring": 80.0,
}
CONTROLLER_SERVICE_LIFE_YEARS = 10.0
CONTROLLER_DESIGN_MTTF_YEARS = 20.0
