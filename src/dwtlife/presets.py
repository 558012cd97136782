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

Plain numbers are module constants. A default that needs a library call
(a unit conversion, an instance of a library type) is built on first use
(module ``__getattr__``), importing only what that one default needs, so
reading one default loads no module for the others. The component
service-life summary is not served here: its one home is
``system.SERVICE_LIFE_SUMMARY_YEARS``, next to ``system_service_life``.
"""

from __future__ import annotations

# (power coefficient, rotor rpm) torque sweep companions to the base case.
TORQUE_SWEEP = ((0.5, 600.0), (0.6, 600.0), (0.4, 900.0))

BEARING_OSC_HALF_ARC_DEG = 30.0  # conservative yaw dither amplitude


def _ksi(value: float) -> float:
    from .units import Quantity, convert

    return convert(Quantity(value, "ksi"), "Pa").value


def _marin(**factors):
    from .fatigue import MarinFactors

    return MarinFactors(**factors)


def _bearing_life_factors():
    """Yaw-bearing rating-life corrections: 90% reliability, HRC 58 steel,
    recommended lubrication factor, tubular-tower support."""
    from .bearing import LifeModFactors

    return LifeModFactors(a1=1.00, a2=1.00, a3=0.10, a4=0.85)


def _default_usage():
    """Daily usage counters. jack_cycles is log-driven (raise/lower events), hence rate 0."""
    from .model import UsageProfile

    return UsageProfile(
        counters={
            "rotor_cycles": 144000.0,
            "yaw_oscillations": 1500.0,
            "tower_stress_cycles": 1000.0,
            "jack_cycles": 0.0,
        }
    )


_BUILT_ON_FIRST_USE = {
    # Ultimate tensile strengths (Pa): ASTM A36 steel, minimum 58 ksi (tower);
    # pressed aluminum 6061-T6, 45 ksi (blade).
    "TOWER_STEEL_SUT": lambda: _ksi(58.0),
    "BLADE_ALUMINUM_SUT": lambda: _ksi(45.0),
    # Endurance-limit corrections: machined steel member under axial loading
    # at 95% reliability (tower), pressed-surface beam in bending at 95%
    # reliability (blade).
    "TOWER_MARIN": lambda: _marin(ka=0.92, kb=1.00, kc=0.85, kd=1.00, ke=0.87, kf=1.00),
    "BLADE_MARIN": lambda: _marin(ka=1.01, kb=0.89, kc=1.00, kd=1.00, ke=0.87, kf=1.00),
    "BEARING_LIFE_FACTORS": _bearing_life_factors,
    "DEFAULT_USAGE": _default_usage,
}


def __getattr__(name: str):
    """Build a default on first use and keep it as a module attribute."""
    if name not in _BUILT_ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = _BUILT_ON_FIRST_USE[name]()
    return value
