import math

import mpmath
import pytest

from dwtlife.errors import NumericError, ValidationError
from dwtlife import structural
from dwtlife.model import ColumnSpec, RectSection
from dwtlife.structural import (
    FLAT,
    UPRIGHT,
    BallastSpec,
    BladeSpec,
    ballast_height_for_weight,
    ballast_required_weight,
    blade_root_bending_moment,
    rect_bending_stress,
    rect_torsion_max_shear,
    secant_allowable_load,
    secant_deflection,
)
from dwtlife.units import GRAVITY

from oracles import fixed_point_allowable_load, ode_midspan_deflection

BLADE = RectSection(width_b=0.185, thickness_t=0.004)


def ballast_spec(**overrides):
    base = dict(
        turbine_thrust=1000.0,
        nacelle_diameter=2.0,
        safety_factor=1.0,
        base_diameter=2.0,
        base_area=4.0,
        ballast_mass_density=1600.0,
    )
    base.update(overrides)
    return BallastSpec(**base)


class TestBallast:
    def test_symmetric_cancellation(self):
        assert ballast_required_weight(ballast_spec()) == pytest.approx(1000.0)

    def test_extreme_gust_case(self):
        spec = ballast_spec(turbine_thrust=6035.0, safety_factor=1.5, base_diameter=3.0)
        assert ballast_required_weight(spec) == pytest.approx(6035.0 * 2.0 * 1.5 / 3.0)

    def test_doubling_safety_factor_doubles_weight(self):
        w1 = ballast_required_weight(ballast_spec(safety_factor=1.2))
        w2 = ballast_required_weight(ballast_spec(safety_factor=2.4))
        assert w2 == pytest.approx(2 * w1, rel=1e-12)

    def test_height_unit_construction(self):
        spec = ballast_spec()
        unit_weight = spec.ballast_mass_density * GRAVITY * spec.base_area
        assert ballast_height_for_weight(unit_weight, spec) == pytest.approx(1.0)

    def test_height_linearity(self):
        spec = ballast_spec()
        h1 = ballast_height_for_weight(31381.28, spec)
        h2 = ballast_height_for_weight(62762.56, spec)
        assert h2 == pytest.approx(2 * h1, rel=1e-12)
        assert ballast_height_for_weight(31381.28 + 62762.56, spec) == pytest.approx(
            h1 + h2, rel=1e-12
        )

    def test_reference_height(self):
        assert ballast_height_for_weight(62762.56, ballast_spec()) == pytest.approx(1.0)

    def test_safety_factor_below_one_rejected(self):
        with pytest.raises(ValidationError):
            ballast_spec(safety_factor=0.9)


def column(load=10e3, eccentricity=0.010, length=6.0, syc=250e6, modulus=200e9):
    return ColumnSpec(
        load_P=load,
        eccentricity_e=eccentricity,
        centroid_c=0.05,
        gyration_k=0.05,
        height_l=length,
        area_A=0.01,
        moment_I=1e-5,
        yield_strength_compressive=syc,
        elastic_modulus=modulus,
    )


class TestSecantDeflection:
    def test_zero_eccentricity(self):
        assert secant_deflection(column(eccentricity=0.0)) == 0.0

    def test_zero_eccentricity_beyond_buckling_raises(self):
        p_buckle = math.pi**2 * 200e9 * 1e-5 / 6.0**2
        with pytest.raises(NumericError, match=r"elastic buckling bound \(secant argument "):
            secant_deflection(column(load=1.01 * p_buckle, eccentricity=0.0))

    # (load N, relative budget): 1e-15, about 5 ulps, at every load. e*(sec x - 1) in floats
    # is 1e-5 off at 1e-6 N and 1.3% off at 1e-10 N, and loses up to 8 bits above x = 0.1
    # (2,222 N here).
    @pytest.mark.parametrize("load, budget", [
        (1e-10, 1e-15), (1e-6, 1e-15), (1.0, 1e-15), (1e2, 1e-15), (2.2e3, 1e-15),
        (2.3e3, 1e-15), (1e4, 1e-15), (5e4, 1e-15),
    ])
    def test_against_mpmath(self, load, budget):
        """e*(sec x - 1) at 50 digits."""
        with mpmath.workdps(50):
            x = mpmath.sqrt(mpmath.mpf(load) / (mpmath.mpf(200e9) * mpmath.mpf(1e-5))) * 3
            exact = mpmath.mpf(0.01) * (mpmath.sec(x) - 1)
        deflection = secant_deflection(column(load=load))
        assert deflection == pytest.approx(float(exact), rel=budget, abs=0.0)

    def test_vanishing_load_limit(self):
        assert secant_deflection(column(load=1e-6)) == pytest.approx(0.0, abs=1e-12)

    def test_against_ode_oracle(self):
        col = column()
        delta = secant_deflection(col)
        oracle = ode_midspan_deflection(10e3, 200e9, 1e-5, 0.010, 6.0)
        assert delta == pytest.approx(oracle, rel=1e-3)
        assert delta == pytest.approx(2.2929738786550357e-4, rel=1e-9)

    @pytest.mark.parametrize("load_fraction", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("ecc_fraction", [0.001, 0.01, 0.05])
    def test_oracle_grid(self, load_fraction, ecc_fraction):
        modulus, inertia, length = 200e9, 1e-5, 6.0
        p_buckle = math.pi**2 * modulus * inertia / length**2
        load = load_fraction * p_buckle
        ecc = ecc_fraction * length
        col = column(load=load, eccentricity=ecc, modulus=modulus)
        oracle = ode_midspan_deflection(load, modulus, inertia, ecc, length)
        assert secant_deflection(col) == pytest.approx(oracle, rel=1e-3)

    def test_buckling_error(self):
        modulus, inertia, length = 200e9, 1e-5, 6.0
        p_buckle = math.pi**2 * modulus * inertia / length**2
        with pytest.raises(NumericError, match=r"elastic buckling bound \(secant argument "):
            secant_deflection(column(load=1.01 * p_buckle, modulus=modulus))


class TestSecantAllowableLoad:
    def test_zero_eccentricity_ratio_gives_yield_load(self):
        col = column(eccentricity=0.0, length=2.0)  # Euler load 1.23e7 N above A*S_yc
        assert secant_allowable_load(col) == 0.01 * 250e6

    def test_zero_eccentricity_ratio_above_euler_gives_buckling_load(self):
        col = column(eccentricity=0.0, length=5.0)  # A*S_yc 2.5e6 N above Euler 1.97e6 N
        p_buckle = 0.01 * 200e9 * (math.pi * 0.05 / 5.0) ** 2
        assert secant_allowable_load(col) == p_buckle

    @pytest.mark.parametrize("length", [2.0, 5.0])
    def test_zero_eccentricity_ratio_is_the_small_eccentricity_limit(self, length):
        concentric = secant_allowable_load(column(eccentricity=0.0, length=length))
        nearly = secant_allowable_load(column(eccentricity=1e-9, length=length))
        assert nearly == pytest.approx(concentric, rel=1e-6)

    def test_residual_of_returned_load(self):
        col = column(eccentricity=0.05, length=5.0)
        load = secant_allowable_load(col)
        arg = (col.height_l / (2 * col.gyration_k)) * math.sqrt(
            load / (col.area_A * col.elastic_modulus)
        )
        residual = load / col.area_A * (
            1 + col.eccentricity_ratio / math.cos(arg)
        ) - col.yield_strength_compressive
        assert abs(residual) / col.yield_strength_compressive < 1e-8

    def test_against_fixed_point_oracle(self):
        # e = c = k, l/k = 100
        col = column(eccentricity=0.05, length=5.0)
        load = secant_allowable_load(col)
        oracle = fixed_point_allowable_load(
            area=0.01, gyration=0.05, height=5.0, ecc_ratio=1.0,
            s_yc=250e6, modulus=200e9,
        )
        assert load == pytest.approx(oracle, rel=1e-6)

    def test_monotone_in_eccentricity_ratio(self):
        loads = [
            secant_allowable_load(column(eccentricity=e, length=5.0))
            for e in (0.01, 0.02, 0.05, 0.10)
        ]
        assert loads == sorted(loads, reverse=True)

    # A subnormal Euler load has lost digits. With an eccentricity the bisection's 1e-9 * hi
    # tolerance is 0 as well; test_cli runs that case under a time limit.
    def test_subnormal_euler_load_is_a_numeric_failure(self):
        col = ColumnSpec(load_P=1e4, eccentricity_e=0.0, centroid_c=0.05,
                         gyration_k=0.05, height_l=7.65, area_A=5e-324, moment_I=1e-5,
                         yield_strength_compressive=250e6, elastic_modulus=200e9)
        with pytest.raises(NumericError, match="buckling load underflows"):
            secant_allowable_load(col)

    @pytest.mark.parametrize("eccentricity", [0.0, 0.01])
    def test_unbounded_euler_load_is_the_yield_load_at_zero_eccentricity(self, eccentricity):
        col = ColumnSpec(load_P=1e4, eccentricity_e=eccentricity, centroid_c=0.05,
                         gyration_k=0.05, height_l=6.0, area_A=1e10, moment_I=1e-5,
                         yield_strength_compressive=250e6, elastic_modulus=1e302)
        if eccentricity == 0:  # A * E overflows: P_buckle = inf
            assert secant_allowable_load(col) == 1e10 * 250e6
        else:
            with pytest.raises(NumericError, match=r"^buckling load is not finite \(inf N\)$"):
                secant_allowable_load(col)

    def test_stocky_column_is_solved_within_the_halving_bound(self):
        # the root lies near 5e-14 of the Euler load: about 75 halvings
        load = secant_allowable_load(column(length=1e-6))
        assert load == pytest.approx(0.01 * 250e6 / (1 + 0.01 * 0.05 / 0.05**2), rel=1e-8)

    def test_bisection_past_its_halving_bound_is_a_numeric_failure(self, monkeypatch):
        monkeypatch.setattr(structural, "_HALVINGS", 5)
        with pytest.raises(NumericError, match="not bracketed to 1e-9 in 5 halvings"):
            secant_allowable_load(column())


class TestBladeBending:
    def test_published_moment(self):
        blade = BladeSpec(section=BLADE, span_L=1.4988, mount_angle_phi=0.0, mass=3.0)
        moment = blade_root_bending_moment(blade)
        assert moment == pytest.approx(3.0 * GRAVITY * 1.4988 / 2.0, rel=1e-12)
        assert moment * 1000 == pytest.approx(22055.0, rel=5e-3)  # N·mm

    def test_moment_linear_in_mass_and_span(self):
        small = BladeSpec(section=BLADE, span_L=1.4988, mount_angle_phi=0.0, mass=1e-9)
        assert blade_root_bending_moment(small) == pytest.approx(0.0, abs=1e-6)
        double_span = BladeSpec(section=BLADE, span_L=2 * 1.4988, mount_angle_phi=0.0, mass=3.0)
        base = BladeSpec(section=BLADE, span_L=1.4988, mount_angle_phi=0.0, mass=3.0)
        assert blade_root_bending_moment(double_span) == pytest.approx(
            2 * blade_root_bending_moment(base), rel=1e-12
        )

    def test_zero_mass_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            BladeSpec(section=BLADE, span_L=1.4988, mount_angle_phi=0.0, mass=0.0)

    def test_flat_stress(self):
        stress = rect_bending_stress(22.055, BLADE, FLAT)
        assert stress == pytest.approx(44.70608e6, rel=1e-5)
        assert stress == pytest.approx(44.7e6, rel=0.01)

    def test_upright_stress(self):
        stress = rect_bending_stress(22.055, BLADE, UPRIGHT)
        assert stress == pytest.approx(0.96661797e6, rel=1e-5)
        assert stress == pytest.approx(0.97e6, rel=0.02)

    def test_zero_moment(self):
        assert rect_bending_stress(0.0, BLADE, FLAT) == 0.0

    def test_flat_at_least_upright(self):
        for b, t in ((0.185, 0.004), (0.05, 0.05), (0.2, 0.1)):
            section = RectSection(b, t)
            assert rect_bending_stress(10.0, section, FLAT) >= rect_bending_stress(
                10.0, section, UPRIGHT
            )

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ValidationError):
            rect_bending_stress(1.0, BLADE, "sideways")


class TestTorsion:
    def test_consistent_unit_oracle(self):
        tau = rect_torsion_max_shear(300.0, BLADE)
        oracle = 300.0 * (3.0 + 1.8 * 0.004 / 0.185) / (0.185 * 0.004**2)
        assert tau == pytest.approx(oracle, rel=1e-12)
        assert tau == pytest.approx(307.9985e6, rel=1e-5)

    def test_zero_torque(self):
        assert rect_torsion_max_shear(0.0, BLADE) == 0.0

    def test_linear_in_torque(self):
        assert rect_torsion_max_shear(600.0, BLADE) == pytest.approx(
            2 * rect_torsion_max_shear(300.0, BLADE), rel=1e-12
        )
