"""Default dataset for the D3-class ducted turbine analyses.

Values come from the turbine's published lifing study; anything inferred
rather than published says so in a comment. The study's command-line
inputs (the stress amplitudes, the blade section and mass, the gust flow
state, the tower steel's yield strength and modulus) are not here: each is
the default of its flag in ``cli.COMMANDS``, and the fatigue strength
fraction is the default of ``fatigue.sn_constants``. The CLI reads from
this module only what no flag sets: the two ultimate strengths that
``tower life`` and ``blade life`` read, the Marin sets and the torque
sweep. Nothing here is a second copy of a flag default, and every name
here is read by a calculation.

Every figure is plain data, and each reader builds the type it needs: a
strength is quantity text, as a ``cli.COMMANDS`` default is, and a factor
set maps field names to values. Only the usage profile is a library type,
so reading this module loads only ``model``. The component service-life
summary's one home is ``system.SERVICE_LIFE_SUMMARY_YEARS``.
"""

from __future__ import annotations

from .model import UsageProfile

# (power coefficient, rotor rpm) torque sweep companions to the base case.
TORQUE_SWEEP = ((0.5, 600.0), (0.6, 600.0), (0.4, 900.0))

BEARING_OSC_HALF_ARC_DEG = 30.0  # conservative yaw dither amplitude

# Ultimate tensile strengths: ASTM A36 steel, minimum 58 ksi (tower);
# pressed aluminum 6061-T6, 45 ksi (blade).
TOWER_STEEL_SUT = "58 ksi"
BLADE_ALUMINUM_SUT = "45 ksi"

# Endurance-limit corrections (fatigue.MarinFactors fields): machined steel
# member under axial loading at 95% reliability (tower), pressed-surface beam
# in bending at 95% reliability (blade).
TOWER_MARIN = {"ka": 0.92, "kb": 1.00, "kc": 0.85, "kd": 1.00, "ke": 0.87, "kf": 1.00}
BLADE_MARIN = {"ka": 1.01, "kb": 0.89, "kc": 1.00, "kd": 1.00, "ke": 0.87, "kf": 1.00}

# Yaw-bearing rating-life corrections (bearing.LifeModFactors fields): 90%
# reliability, HRC 58 steel, recommended lubrication factor, tubular-tower support.
BEARING_LIFE_FACTORS = {"a1": 1.00, "a2": 1.00, "a3": 0.10, "a4": 0.85}

# Daily usage counters. jack_cycles is log-driven (raise/lower events), hence rate 0.
DEFAULT_USAGE = UsageProfile(
    counters={
        "rotor_cycles": 144000.0,
        "yaw_oscillations": 1500.0,
        "tower_stress_cycles": 1000.0,
        "jack_cycles": 0.0,
    }
)
