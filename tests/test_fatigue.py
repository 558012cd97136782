import math

import pytest
from hypothesis import given, strategies as st

from dwtlife import presets
from dwtlife.errors import ValidationError
from dwtlife.fatigue import (
    MarinFactors,
    SnConstants,
    cycles_to_calendar,
    cycles_to_failure,
    endurance_limit_unmodified,
    marin_modified_endurance,
    sn_constants,
)
from dwtlife.units import convert, parse_quantity

KSI = 6.894757e6  # Pa


def ksi(value):
    return value * KSI


def to_ksi(pa):
    return convert(pa, "Pa", "ksi")


TOWER_SUT = parse_quantity(presets.TOWER_STEEL_SUT, "Pa")
BLADE_SUT = parse_quantity(presets.BLADE_ALUMINUM_SUT, "Pa")


def tower_endurance():
    se_prime = endurance_limit_unmodified(TOWER_SUT)
    return marin_modified_endurance(se_prime, MarinFactors(**presets.TOWER_MARIN))


def blade_endurance():
    se_prime = endurance_limit_unmodified(BLADE_SUT)
    return marin_modified_endurance(se_prime, MarinFactors(**presets.BLADE_MARIN))


class TestEnduranceLimit:
    def test_58_ksi_halves_to_29(self):
        assert to_ksi(endurance_limit_unmodified(TOWER_SUT)) == pytest.approx(29.0)

    def test_45_ksi_halves(self):
        assert to_ksi(endurance_limit_unmodified(BLADE_SUT)) == pytest.approx(22.5)

    def test_zero_strength_rejected(self):
        with pytest.raises(ValidationError):
            endurance_limit_unmodified(0.0)


class TestMarinModification:
    def test_tower_chain(self):
        se = to_ksi(tower_endurance())
        assert se == pytest.approx(0.92 * 0.85 * 0.87 * 29.0, rel=1e-12)
        assert se == pytest.approx(19.68, rel=5e-3)  # published rounded figure

    def test_identity_factors(self):
        unity = MarinFactors(1, 1, 1, 1, 1, 1)
        assert marin_modified_endurance(123.0, unity) == 123.0

    def test_blade_chain(self):
        assert to_ksi(blade_endurance()) == pytest.approx(17.6, rel=5e-3)

    def test_single_factor_scaling_is_exact(self):
        base = MarinFactors(0.92, 1.0, 0.85, 1.0, 0.87, 1.0)
        scaled = MarinFactors(0.92, 1.0, 0.85, 1.0, 0.87 * 0.5, 1.0)
        assert marin_modified_endurance(ksi(29), scaled) == pytest.approx(
            0.5 * marin_modified_endurance(ksi(29), base), rel=1e-15
        )

    def test_factor_range_enforced(self):
        with pytest.raises(ValidationError):
            MarinFactors(0.92, 1.0, 0.85, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            MarinFactors(1.6, 1.0, 1.0, 1.0, 1.0, 1.0)


class TestSnConstants:
    def test_blade_published_pair(self):
        c = sn_constants(ksi(45.0), ksi(17.6), 0.9)
        assert to_ksi(c.a) == pytest.approx(93.196, rel=1e-4)
        assert c.b == pytest.approx(-0.1206, rel=5e-4)

    def test_log_base_10_pin(self):
        # the published slope -0.1206 only falls out of a base-10 logarithm
        c = sn_constants(ksi(45.0), ksi(17.6), 0.9)
        natural = -math.log(0.9 * 45.0 / 17.6) / 3.0
        assert abs(c.b + 0.1206) / 0.1206 < 5e-4
        assert abs(natural + 0.1206) / 0.1206 > 0.5

    @pytest.mark.parametrize("f", [0.0, -0.5, 1.5, 2.0, math.nan])
    def test_fraction_outside_unit_interval_rejected(self, f):
        with pytest.raises(ValidationError) as caught:
            sn_constants(ksi(45.0), ksi(17.6), f)
        assert str(caught.value) == f"fatigue strength fraction f must lie in (0, 1], got {f}"

    def test_degenerate_boundary_rejected(self):
        with pytest.raises(ValidationError):
            sn_constants(ksi(45.0), ksi(0.9 * 45.0), 0.9)

    def test_tower_derived_pair(self):
        c = sn_constants(ksi(58.0), ksi(19.73), 0.9)
        # independent evaluation of the defining formulas
        assert c.a == pytest.approx((0.9 * ksi(58.0)) ** 2 / ksi(19.73), rel=1e-12)
        assert c.b == pytest.approx(-math.log10(0.9 * 58.0 / 19.73) / 3.0, rel=1e-12)
        assert to_ksi(c.a) == pytest.approx(138.1, rel=1e-3)
        assert c.b == pytest.approx(-0.1408, rel=1e-3)

    def test_knee_stresses_recovered(self):
        c = sn_constants(ksi(45.0), ksi(17.6), 0.9)
        assert to_ksi(c.low_cycle_stress) == pytest.approx(40.5, rel=1e-9)
        assert to_ksi(c.endurance_stress) == pytest.approx(17.6, rel=1e-9)


class TestCyclesToFailure:
    def test_tower_gust_stress(self):
        c = sn_constants(ksi(58.0), tower_endurance(), 0.9)
        life = cycles_to_failure(ksi(13.56), c)
        assert life.cycles == pytest.approx(1.4e7, rel=0.05)
        assert "below_endurance_extrapolation" in life.flags

    def test_stress_at_intercept_gives_one_cycle(self):
        c = SnConstants(a=ksi(93.196), b=-0.1206)
        assert cycles_to_failure(c.a, c).cycles == pytest.approx(1.0)

    def test_blade_bending_stress(self):
        c = sn_constants(ksi(45.0), blade_endurance(), 0.9)
        life = cycles_to_failure(ksi(6.48), c)
        assert life.cycles == pytest.approx(4.0e9, rel=0.05)

    def test_low_cycle_flag(self):
        c = sn_constants(ksi(45.0), ksi(17.6), 0.9)
        assert "low_cycle" in cycles_to_failure(ksi(42.0), c).flags

    def test_nonpositive_stress_rejected(self):
        c = sn_constants(ksi(45.0), ksi(17.6), 0.9)
        with pytest.raises(ValidationError):
            cycles_to_failure(0.0, c)

    @given(
        s1=st.floats(min_value=5.0, max_value=40.0),
        s2=st.floats(min_value=5.0, max_value=40.0),
    )
    def test_monotonicity(self, s1, s2):
        c = sn_constants(ksi(45.0), ksi(17.6), 0.9)
        if s1 == s2:
            return
        lo, hi = sorted((s1, s2))
        assert cycles_to_failure(ksi(lo), c).cycles > cycles_to_failure(ksi(hi), c).cycles

    @given(stress=st.floats(min_value=1.0, max_value=40.0))
    def test_round_trip_through_curve(self, stress):
        c = sn_constants(ksi(45.0), ksi(17.6), 0.9)
        n = cycles_to_failure(ksi(stress), c).cycles
        assert c.a * n**c.b == pytest.approx(ksi(stress), rel=1e-9)


class TestCalendarConversion:
    def test_tower_rate(self):
        years = cycles_to_calendar(1.4e7, 1000.0)
        assert years == pytest.approx(38.36, rel=1e-3)
        assert years > 38.0

    def test_blade_rate(self):
        years = cycles_to_calendar(4.0e9, 144000.0)
        assert years == pytest.approx(76.10, rel=1e-3)
        assert years > 75.0

    def test_zero_cycles(self):
        assert cycles_to_calendar(0.0, 1000.0) == 0.0

    def test_bad_rate_rejected(self):
        with pytest.raises(ValidationError):
            cycles_to_calendar(1e6, 0.0)
