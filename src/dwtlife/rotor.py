"""Rotor power/torque coefficient relations and the ducted Betz limit."""

from __future__ import annotations

import math

from .model import Record, _power, _require_in, _require_normal


class RotorState(Record):
    """Operating point of the rotor."""

    radius_R: float  # m
    rotor_speed_omega: float  # rad/s
    wind_speed_V: float  # m/s
    air_density_rho: float  # kg/m³
    power_coefficient_Cp: float

    def __post_init__(self):
        for name in ("radius_R", "rotor_speed_omega", "wind_speed_V", "air_density_rho"):
            _require_in(name, getattr(self, name), "(0, inf)")
        _require_in("power coefficient", self.power_coefficient_Cp, "(0, 1)")


def tip_speed_ratio(state: RotorState) -> float:
    """lambda = R*omega/V."""
    return _require_normal("tip-speed ratio",
                           state.radius_R * state.rotor_speed_omega / state.wind_speed_V)


def torque_coefficient(cp: float, lam: float) -> float:
    """C_q = C_p / lambda."""
    return cp / _require_in("tip-speed ratio", lam, "(0, inf)")


def torque_from_coefficient(cq: float, rho: float, radius: float, wind_speed: float) -> float:
    """Rotor torque (N·m) from C_q: T = C_q * rho * A * V² * R / 2, A = pi R²."""
    area = math.pi * _power(radius, 2)
    return cq * rho * area * _power(wind_speed, 2) * radius / 2.0


def rotor_torque(state: RotorState) -> float:
    """Rotor torque (N·m) at the given operating point."""
    cq = torque_coefficient(state.power_coefficient_Cp, tip_speed_ratio(state))
    torque = torque_from_coefficient(cq, state.air_density_rho, state.radius_R, state.wind_speed_V)
    return _require_normal("rotor torque", torque, " N·m")


def rotor_power(torque: float, omega: float) -> float:
    """Shaft power P = T * omega."""
    return _require_normal("shaft power", torque * omega, " W",
                           from_nonzero=torque != 0 and omega != 0)


def ducted_betz_limit(a0: float) -> float:
    """Maximum power coefficient (16/27)*(1 - a0) for axial induction a0.

    a0 = 0 recovers the classical open-rotor Betz limit.
    """
    _require_in("axial induction factor", a0, "[0, 1]")
    return (16.0 / 27.0) * (1.0 - a0)
