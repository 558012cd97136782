import math

import pytest

from dwtlife.bearing import (
    BearingLoads,
    LifeModFactors,
    SlewingBearingGeometry,
    basic_dynamic_axial_rating,
    equivalent_axial_load,
    l10_life,
    life_summary,
    modified_life,
    oscillating_rating,
    raceway_stress_cycles,
)
from dwtlife.errors import NumericError, ValidationError
from dwtlife.fatigue import cycles_to_calendar

TABLE_FACTORS = LifeModFactors(a1=1.00, a2=1.00, a3=0.10, a4=0.85)


def geometry(**overrides):
    base = dict(
        groove_factor_fcm=1.0,
        rows_i=1,
        ball_count_Z=30,
        ball_diameter_Dr=25.0,
        contact_angle_alpha=60.0,
        raceway_center_diameter_dm=1000.0,
    )
    base.update(overrides)
    return SlewingBearingGeometry(**base)


class TestBasicRating:
    def test_scalar_oracle(self):
        # independent evaluation of f_cm (i cos a)^0.7 Z^(2/3) D^1.8 tan a
        oracle = (
            1.0
            * math.cos(math.radians(60.0)) ** 0.7
            * 30.0 ** (2.0 / 3.0)
            * 25.0**1.8
            * math.tan(math.radians(60.0))
        )
        assert basic_dynamic_axial_rating(geometry()) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(3379.708, rel=1e-6)

    def test_vanishing_contact_angle_limit(self):
        tiny = basic_dynamic_axial_rating(geometry(contact_angle_alpha=1e-3))
        assert tiny == pytest.approx(0.0, abs=1.0)

    def test_ball_count_exponent_law(self):
        ratio = basic_dynamic_axial_rating(geometry(ball_count_Z=60)) / (
            basic_dynamic_axial_rating(geometry())
        )
        assert ratio == pytest.approx(2 ** (2.0 / 3.0), rel=1e-12)

    def test_geometry_invariants(self):
        with pytest.raises(ValidationError):
            geometry(contact_angle_alpha=90.0)
        with pytest.raises(ValidationError):
            geometry(ball_diameter_Dr=1200.0)  # exceeds raceway diameter


class TestOscillatingRating:
    def test_full_arc_identity(self):
        assert oscillating_rating(1234.5, 180.0) == pytest.approx(1234.5, rel=1e-15)

    def test_conservative_30_degree_factor(self):
        assert oscillating_rating(1.0, 30.0) == pytest.approx(6 ** (1 / 3), abs=1e-9)
        assert oscillating_rating(1.0, 30.0) == pytest.approx(1.8171206, abs=1e-6)

    def test_90_degree_factor(self):
        assert oscillating_rating(1.0, 90.0) == pytest.approx(2 ** (1 / 3), rel=1e-12)

    def test_arc_out_of_range(self):
        with pytest.raises(ValidationError):
            oscillating_rating(1.0, 0.0)
        with pytest.raises(ValidationError):
            oscillating_rating(1.0, 181.0)


class TestEquivalentLoad:
    def test_pure_axial(self):
        assert equivalent_axial_load(BearingLoads(0.0, 5000.0, 0.0), 1000.0) == 5000.0

    def test_radial_weighting(self):
        loads = BearingLoads(radial_Fr=4000.0, axial_Fa=1000.0, moment_M=0.0)
        assert equivalent_axial_load(loads, 1000.0) == pytest.approx(4000.0)

    def test_moment_term(self):
        # 330 kN axial + 1.38e5 kN·mm moment on a 1 m raceway diameter
        loads = BearingLoads(radial_Fr=0.0, axial_Fa=330e3, moment_M=1.38e8 / 1000.0)
        assert equivalent_axial_load(loads, 1.0) == pytest.approx(606e3, rel=1e-12)


class TestLifePipeline:
    def test_l10_unit_ratio(self):
        assert l10_life(1000.0, 1000.0) == 1.0

    def test_l10_cube_law(self):
        assert l10_life(10.0, 1.0) == pytest.approx(1000.0, rel=1e-12)
        assert l10_life(2.5, 1.0) == pytest.approx(15.625, rel=1e-12)

    def test_l10_overflow_rejected(self):
        with pytest.raises(OverflowError):  # float ** past the largest float
            l10_life(1e200, 1.0)
        with pytest.raises(NumericError, match=r"^L10 is not finite \(inf\)$"):
            l10_life(math.inf, 1.0)
        with pytest.raises(NumericError, match=r"^L10 underflows: 0.0 is not a normal double$"):
            l10_life(1e-200, 1.0)

    def test_modification_product(self):
        assert TABLE_FACTORS.product() == 0.085
        assert modified_life(100.0, TABLE_FACTORS) == pytest.approx(8.5)

    def test_identity_factors(self):
        unity = LifeModFactors(1, 1, 1, 1)
        assert modified_life(7.7, unity) == 7.7

    def test_back_solved_modified_life(self):
        l10 = 1.49e6 / 0.085
        assert modified_life(l10, TABLE_FACTORS) == pytest.approx(1.49e6, rel=1e-9)

    def test_raceway_cycles(self):
        assert raceway_stress_cycles(1.49e6, 30) == pytest.approx(44.89e6, rel=0.01)
        assert raceway_stress_cycles(3.3, 1) == 3.3
        assert raceway_stress_cycles(2.0, 10) == pytest.approx(
            2 * raceway_stress_cycles(1.0, 10), rel=1e-12
        )

    def test_calendar_bases(self):
        # both bases are fatigue.cycles_to_calendar of their counts, the one count-to-years rule
        summary = life_summary(geometry(), BearingLoads(1e3, 5e4, 1e4), 30.0, TABLE_FACTORS, 1500.0)
        assert summary["years_oscillation_basis"] == cycles_to_calendar(
            summary["modified_life_oscillations"], 1500.0
        )
        assert summary["years_raceway_basis"] == cycles_to_calendar(
            summary["raceway_stress_cycles"], 1500.0
        )
        assert cycles_to_calendar(44.89e6, 1500.0) == pytest.approx(81.99, rel=1e-3)
        assert cycles_to_calendar(1.49e6, 1500.0) == pytest.approx(2.7215, rel=1e-3)


class TestPipelineProperties:
    def test_load_increase_decreases_l10(self):
        geo = geometry()
        base = life_summary(geo, BearingLoads(1e3, 5e4, 1e4), 30.0, TABLE_FACTORS, 1500.0)
        for bumped in (
            BearingLoads(2e3, 5e4, 1e4),
            BearingLoads(1e3, 6e4, 1e4),
            BearingLoads(1e3, 5e4, 2e4),
        ):
            worse = life_summary(geo, bumped, 30.0, TABLE_FACTORS, 1500.0)
            assert worse["l10_oscillations"] < base["l10_oscillations"]

    def test_scale_covariance(self):
        geo = geometry()
        scale = 3.7
        base = life_summary(geo, BearingLoads(1e3, 5e4, 1e4), 30.0, TABLE_FACTORS, 1500.0)
        scaled = life_summary(
            geo,
            BearingLoads(scale * 1e3, scale * 5e4, scale * 1e4),
            30.0,
            TABLE_FACTORS,
            1500.0,
        )
        assert scaled["l10_oscillations"] == pytest.approx(
            base["l10_oscillations"] * scale**-3, rel=1e-9
        )
