import math

import numpy as np
import pytest

from dwtlife.errors import ValidationError
from dwtlife.rotor import (
    RotorState,
    ducted_betz_limit,
    rotor_power,
    rotor_torque,
    tip_speed_ratio,
    torque_coefficient,
    torque_from_coefficient,
)

RPM_600 = 600.0 * 2.0 * math.pi / 60.0


def gust_state(cp=0.40, omega=RPM_600):
    return RotorState(
        radius_R=1.5,
        rotor_speed_omega=omega,
        wind_speed_V=48.72,
        air_density_rho=1.24,
        power_coefficient_Cp=cp,
    )


def test_tip_speed_ratio():
    assert tip_speed_ratio(gust_state()) == pytest.approx(1.9344782, rel=1e-6)


def test_tip_speed_ratio_vanishes_with_rotor_speed():
    assert tip_speed_ratio(gust_state(omega=1e-12)) == pytest.approx(0.0, abs=1e-12)


def test_tip_speed_ratio_linear_in_omega():
    assert tip_speed_ratio(gust_state(omega=2 * RPM_600)) == pytest.approx(
        2 * tip_speed_ratio(gust_state()), rel=1e-12
    )


def test_torque_coefficient_published_value():
    lam = tip_speed_ratio(gust_state())
    assert torque_coefficient(0.40, lam) == pytest.approx(0.207, rel=5e-3)


def test_torque_coefficient_ratio_identity():
    assert torque_coefficient(1.934, 1.934) == 1.0


def test_torque_coefficient_sweep_value():
    lam = tip_speed_ratio(gust_state())
    assert torque_coefficient(0.5, lam) == pytest.approx(0.2584678, rel=1e-6)


def test_torque_coefficient_zero_lambda_rejected():
    with pytest.raises(ValidationError):
        torque_coefficient(0.4, 0.0)


def test_rotor_torque_published_value():
    assert rotor_torque(gust_state()) == pytest.approx(3231.0, rel=5e-3)


@pytest.mark.parametrize(
    "cp,rpm,published",
    [(0.5, 600.0, 4027.0), (0.6, 600.0, 4838.0), (0.4, 900.0, 2154.0)],
)
def test_torque_sweep(cp, rpm, published):
    state = gust_state(cp=cp, omega=rpm * 2 * math.pi / 60.0)
    assert rotor_torque(state) == pytest.approx(published, rel=5e-3)


def test_zero_wind_rejected_by_invariant():
    with pytest.raises(ValidationError):
        gust_state().__class__(
            radius_R=1.5, rotor_speed_omega=RPM_600, wind_speed_V=0.0,
            air_density_rho=1.24, power_coefficient_Cp=0.4,
        )


def test_rotor_power():
    assert rotor_power(0.0, RPM_600) == 0.0
    torque = rotor_torque(gust_state())
    assert rotor_power(torque, RPM_600) == pytest.approx(202.74e3, rel=1e-3)


def test_power_coefficient_closure():
    state = gust_state()
    power = rotor_power(rotor_torque(state), state.rotor_speed_omega)
    area = math.pi * state.radius_R**2
    cp = 2 * power / (state.air_density_rho * area * state.wind_speed_V**3)
    assert cp == pytest.approx(state.power_coefficient_Cp, rel=1e-9)


def test_closure_on_random_states():
    rng = np.random.default_rng(42)
    for _ in range(50):
        state = RotorState(
            radius_R=rng.uniform(0.5, 5.0),
            rotor_speed_omega=rng.uniform(1.0, 200.0),
            wind_speed_V=rng.uniform(1.0, 60.0),
            air_density_rho=rng.uniform(0.9, 1.4),
            power_coefficient_Cp=rng.uniform(0.05, 0.95),
        )
        power = rotor_power(rotor_torque(state), state.rotor_speed_omega)
        area = math.pi * state.radius_R**2
        cp = 2 * power / (state.air_density_rho * area * state.wind_speed_V**3)
        assert cp == pytest.approx(state.power_coefficient_Cp, rel=1e-9)


def test_torque_quadratic_in_wind_at_fixed_cq():
    base = torque_from_coefficient(0.207, 1.24, 1.5, 48.72)
    assert torque_from_coefficient(0.207, 1.24, 1.5, 2 * 48.72) == pytest.approx(
        4 * base, rel=1e-12
    )


def test_betz_limit():
    assert ducted_betz_limit(0.0) == pytest.approx(16.0 / 27.0, rel=1e-12)
    assert ducted_betz_limit(1.0) == 0.0
    assert ducted_betz_limit(0.1) == pytest.approx(0.5333333, rel=1e-6)


def test_betz_affine():
    samples = np.linspace(0.0, 1.0, 11)
    values = [ducted_betz_limit(a) for a in samples]
    diffs = np.diff(values)
    assert np.allclose(diffs, diffs[0], rtol=0, atol=1e-12)


def test_betz_out_of_range_rejected():
    with pytest.raises(ValidationError):
        ducted_betz_limit(-0.1)
    with pytest.raises(ValidationError):
        ducted_betz_limit(1.1)
