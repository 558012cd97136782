import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from dwtlife.errors import NumericError, ValidationError
from dwtlife.weibull import (
    EARLY_LIFE,
    RANDOM,
    WEAR_OUT,
    QuantilePoint,
    WeibullParams,
    average_failure_rate,
    cdf,
    cumulative_hazard,
    failure_regime,
    fit_two_quantiles,
    hazard,
    inverse_transform,
    quantile_Bp,
    sample,
)

from oracles import empirical_cdf_distance


def density(t: float, w: WeibullParams) -> float:
    """The Weibull density (beta/eta)(t/eta)^(beta-1) exp(-(t/eta)^beta), in mpmath."""
    with mpmath.workdps(30):
        beta, z = mpmath.mpf(w.shape_beta), mpmath.mpf(t) / w.scale_eta
        return float(beta / w.scale_eta * z ** (beta - 1) * mpmath.exp(-(z**beta)))


class TestCdf:
    def test_scale_definition(self):
        w = WeibullParams(shape_beta=2.3, scale_eta=7.0)
        assert cdf(7.0, w) == pytest.approx(1 - math.exp(-1), abs=1e-12)
        assert cdf(7.0, w) == pytest.approx(0.63212, abs=1e-5)

    def test_at_zero(self):
        assert cdf(0.0, WeibullParams(1.5, 4.0)) == 0.0

    def test_exponential_median(self):
        w = WeibullParams(shape_beta=1.0, scale_eta=10.0)
        assert cdf(10.0 * math.log(2), w) == pytest.approx(0.5, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            cdf(-1.0, WeibullParams(1.0, 1.0))

    def test_monotone_with_limits(self):
        w = WeibullParams(shape_beta=0.8, scale_eta=3.0)
        grid = np.linspace(0.0, 100.0, 500)
        values = [cdf(t, w) for t in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0, abs=1e-6)


class TestNanTime:
    W = WeibullParams(shape_beta=2.0, scale_eta=5.0)

    @pytest.mark.parametrize("call", [
        lambda w: cdf(math.nan, w),
        lambda w: hazard(math.nan, w),
        lambda w: cumulative_hazard(math.nan, w),
        lambda w: average_failure_rate(math.nan, 1.0, w),
        lambda w: average_failure_rate(1.0, math.nan, w),
    ], ids=["cdf", "hazard", "cumulative_hazard", "average_t1", "average_t2"])
    def test_nan_time_rejected(self, call):
        with pytest.raises(ValidationError):
            call(self.W)

    def test_infinite_time_gives_limit(self):
        assert cdf(math.inf, self.W) == 1.0


class TestQuantile:
    def test_scale_recovery(self):
        w = WeibullParams(shape_beta=1.7, scale_eta=42.0)
        assert quantile_Bp(100 * (1 - math.exp(-1)), w) == pytest.approx(42.0, rel=1e-9)

    def test_b10_exponential(self):
        assert quantile_Bp(10.0, WeibullParams(1.0, 1.0)) == pytest.approx(
            -math.log(0.9), rel=1e-12
        )

    def test_round_trip_with_cdf(self):
        w = WeibullParams(shape_beta=3.1, scale_eta=0.7)
        for p in (0.5, 10.0, 50.0, 90.0, 99.9):
            assert cdf(quantile_Bp(p, w), w) == pytest.approx(p / 100.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            quantile_Bp(0.0, WeibullParams(1.0, 1.0))
        with pytest.raises(ValidationError):
            quantile_Bp(100.0, WeibullParams(1.0, 1.0))

    # p/100 is 0 at 2e-322 and rounds to the smallest subnormal, 4.9e-324, at 3e-322
    @pytest.mark.parametrize("p", [2e-322, 3e-322])
    def test_underflowing_percent_is_a_numeric_failure(self, p):
        with pytest.raises(NumericError, match=f"percent {p} underflows"):
            quantile_Bp(p, WeibullParams(2.0, 5.0))

    def test_fraction_below_the_smallest_normal_is_a_numeric_failure(self):
        # p/100 = 1e-308 is subnormal, while p * 100 = 1e-304 is normal
        with pytest.raises(NumericError, match=r"^p/100 of percent 1e-306 underflows: 1e-308 "):
            quantile_Bp(1e-306, WeibullParams(2.0, 5.0))

    def test_smallest_normal_fraction_gives_a_life(self):
        life = quantile_Bp(100 * sys.float_info.min, WeibullParams(2.0, 5.0))
        assert math.isfinite(life) and life > 0


class TestTwoQuantileFit:
    def test_b10_b50_fit(self):
        params = fit_two_quantiles(QuantilePoint(10.0, 10.0), QuantilePoint(50.0, 20.0))
        assert params.shape_beta == pytest.approx(2.7178274, rel=1e-6)
        assert params.scale_eta == pytest.approx(22.887419, rel=1e-6)
        assert cdf(10.0, params) == pytest.approx(0.10, abs=1e-12)
        assert cdf(20.0, params) == pytest.approx(0.50, abs=1e-12)

    def test_exact_recovery(self):
        w = WeibullParams(shape_beta=2.0, scale_eta=5.0)
        fitted = fit_two_quantiles(
            QuantilePoint(10.0, quantile_Bp(10.0, w)),
            QuantilePoint(60.0, quantile_Bp(60.0, w)),
        )
        assert fitted.shape_beta == pytest.approx(2.0, rel=1e-10)
        assert fitted.scale_eta == pytest.approx(5.0, rel=1e-10)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValidationError):
            fit_two_quantiles(QuantilePoint(10.0, 5.0), QuantilePoint(10.0, 9.0))
        with pytest.raises(ValidationError):
            fit_two_quantiles(QuantilePoint(10.0, 5.0), QuantilePoint(50.0, 5.0))
        with pytest.raises(ValidationError):
            fit_two_quantiles(QuantilePoint(10.0, 9.0), QuantilePoint(50.0, 5.0))

    # p/100 underflows to 0 (log of 0 was a ValueError) or to a subnormal that keeps few digits
    @pytest.mark.parametrize("p, bp, q, bq", [
        (2e-322, 10.0, 50.0, 20.0),
        (50.0, 20.0, 1e-322, 10.0),
        (3e-322, 10.0, 50.0, 20.0),
    ], ids=["p_to_zero", "q_to_zero", "p_subnormal"])
    def test_underflowing_percent_is_numeric_error(self, p, bp, q, bq):
        with pytest.raises(NumericError,
                           match=r"^p/100 of percent .* underflows: .* is not a normal double$"):
            fit_two_quantiles(QuantilePoint(p, bp), QuantilePoint(q, bq))

    def test_smallest_normal_fraction_fits(self):
        p = 100 * sys.float_info.min
        assert p / 100 == sys.float_info.min
        assert fit_two_quantiles(QuantilePoint(p, 10.0), QuantilePoint(50.0, 20.0)).shape_beta > 0

    @pytest.mark.parametrize("p, bp, q, bq, budget", [
        # lives within a factor of 2: ln(bp) - ln(bq) cancelled to a 9.3e-8 error in beta
        (10.0, 5e10, 90.0, 5.0000001e10, 4e-16),
        # percents close as well: the rounding of -log1p(-p/100) is left, over u1 - u2 ~ 1e-7 u1
        (10.0, 1000.0, 10.000001, 1000.0000001, 1e-9),
    ], ids=["close_lives", "close_percents"])
    def test_shape_against_mpmath(self, p, bp, q, bq, budget):
        beta = fit_two_quantiles(QuantilePoint(p, bp), QuantilePoint(q, bq)).shape_beta
        with mpmath.workdps(60):
            def u(percent):
                return -mpmath.log1p(-mpmath.mpf(percent) / 100)

            exact = mpmath.log(u(p) / u(q)) / mpmath.log(mpmath.mpf(bp) / mpmath.mpf(bq))
            assert abs((beta - exact) / exact) < budget

    @settings(max_examples=200)
    @given(
        beta=st.floats(min_value=0.5, max_value=5.0),
        eta=st.floats(min_value=0.1, max_value=1e6),
        p=st.floats(min_value=1.0, max_value=49.0),
        q=st.floats(min_value=51.0, max_value=99.0),
    )
    def test_fit_inverts_quantiles(self, beta, eta, p, q):
        w = WeibullParams(shape_beta=beta, scale_eta=eta)
        fitted = fit_two_quantiles(
            QuantilePoint(p, quantile_Bp(p, w)), QuantilePoint(q, quantile_Bp(q, w))
        )
        assert fitted.shape_beta == pytest.approx(beta, rel=1e-10)
        assert fitted.scale_eta == pytest.approx(eta, rel=1e-10)


class TestHazard:
    def test_constant_for_exponential(self):
        w = WeibullParams(shape_beta=1.0, scale_eta=8.0)
        for t in (0.0, 0.5, 3.0, 50.0):
            assert hazard(t, w) == pytest.approx(1 / 8.0, rel=1e-12)

    def test_closed_form(self):
        assert hazard(1.0, WeibullParams(2.0, 1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_wear_out_increasing(self):
        w = WeibullParams(shape_beta=3.0, scale_eta=2.0)
        values = [hazard(t, w) for t in np.linspace(0.1, 10, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_singularity_at_zero(self):
        with pytest.raises(NumericError, match=r"^hazard diverges at t = 0 for shape < 1$"):
            hazard(0.0, WeibullParams(0.5, 1.0))

    def test_wear_out_hazard_is_zero_at_zero(self):
        assert hazard(0.0, WeibullParams(2.0, 5.0)) == 0.0

    @given(
        beta=st.floats(min_value=0.3, max_value=6.0),
        eta=st.floats(min_value=0.01, max_value=1e4),
        t=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_hazard_is_pdf_over_survival(self, beta, eta, t):
        w = WeibullParams(shape_beta=beta, scale_eta=eta)
        # exact complement of the CDF; the literal 1 - cdf(t) cancels
        # catastrophically deep in the upper tail
        survival = math.exp(-cumulative_hazard(t, w))
        if survival < 1e-300:
            return
        assert hazard(t, w) == pytest.approx(density(t, w) / survival, rel=1e-9)


class TestInfiniteTime:
    W = WeibullParams(shape_beta=2.0, scale_eta=5.0)

    def test_average_rate_to_infinity_rejected(self):
        with pytest.raises(ValidationError):
            average_failure_rate(1.0, math.inf, self.W)


class TestAverageRate:
    def test_constant_hazard_case(self):
        w = WeibullParams(shape_beta=1.0, scale_eta=4.0)
        assert average_failure_rate(0.0, 9.0, w) == pytest.approx(0.25, rel=1e-12)
        assert average_failure_rate(2.0, 3.0, w) == pytest.approx(0.25, rel=1e-12)

    def test_unit_interval(self):
        assert average_failure_rate(0.0, 1.0, WeibullParams(2.0, 1.0)) == pytest.approx(1.0)

    def test_converges_to_hazard(self):
        w = WeibullParams(shape_beta=2.0, scale_eta=1.0)
        t, width = 0.7, 1e-8
        avg = average_failure_rate(t - width, t + width, w)
        assert abs(avg - hazard(t, w)) < 1e-6

    def test_bad_interval(self):
        with pytest.raises(ValidationError):
            average_failure_rate(2.0, 2.0, WeibullParams(1.0, 1.0))

    @pytest.mark.parametrize("t1, t2", [
        (3.0, 3.0000000000001), (3.0, 3.001), (3.0, 6.0), (3.0, 6.5), (1.0, 4.0), (0.0, 2.0),
    ])
    def test_against_mpmath(self, t1, t2):
        """(H(t2) - H(t1)) / (t2 - t1) at 50 digits for beta 2.5, eta 5, budget 1e-14
        relative. The float difference gave 0.232222 on [3, 3.0000000000001] (exact 0.232379)."""
        w = WeibullParams(shape_beta=2.5, scale_eta=5.0)
        with mpmath.workdps(50):
            h1, h2 = ((mpmath.mpf(t) / 5) ** mpmath.mpf(2.5) for t in (t1, t2))
            exact = (h2 - h1) / (mpmath.mpf(t2) - mpmath.mpf(t1))
        assert average_failure_rate(t1, t2, w) == pytest.approx(float(exact), rel=1e-14, abs=0.0)


class TestSampling:
    def test_determinism(self):
        w = WeibullParams(shape_beta=1.3, scale_eta=5.0)
        assert np.array_equal(sample(w, seed=7, count=1000), sample(w, seed=7, count=1000))

    def test_inverse_transform_scale_point(self):
        w = WeibullParams(shape_beta=2.2, scale_eta=9.0)
        p_at_eta = 100 * (1 - math.exp(-1))
        assert quantile_Bp(p_at_eta, w) == pytest.approx(9.0, rel=1e-9)

    @pytest.mark.parametrize("value, message", [
        (2.5, "count must be a whole number, got 2.5"),
        (True, "count must be a finite number, got True"),
    ])
    def test_count_must_be_whole(self, value, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            sample(WeibullParams(2.0, 5.0), seed=1, count=value)
        assert np.array_equal(sample(WeibullParams(2.0, 5.0), seed=1, count=3.0),
                              sample(WeibullParams(2.0, 5.0), seed=1, count=3))

    @pytest.mark.parametrize("value, message", [
        (1.5, "seed must be a whole number, got 1.5"),
        (True, "seed must be a finite number, got True"),
    ])
    def test_seed_must_be_whole(self, value, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            sample(WeibullParams(2.0, 5.0), seed=value, count=3)

    def test_empirical_cdf_close(self):
        w = WeibullParams(shape_beta=1.8, scale_eta=3.0)
        draws = sample(w, seed=11, count=1_000_000)
        # vectorized CDF to keep the KS scan fast
        distance = empirical_cdf_distance(
            draws, lambda t: -math.expm1(-((t / 3.0) ** 1.8))
        )
        assert distance < 0.005


class TestInverseTransform:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.3, 2.0, 3.7])
    def test_sample_is_the_closed_form_bit_for_bit(self, beta):
        w = WeibullParams(shape_beta=beta, scale_eta=5.0)
        u = np.random.default_rng(7).random(1000)
        want = 5.0 * (-np.log1p(-u)) ** (1.0 / beta)
        assert np.array_equal(sample(w, seed=7, count=1000), want)

    def test_overwrites_its_input(self):
        u = np.random.default_rng(1).random(10)
        assert inverse_transform(u, WeibullParams(2.0, 5.0)) is u


class TestPdfAndRegime:
    @pytest.mark.parametrize("beta,eta", [(0.7, 2.0), (1.0, 5.0), (2.5, 0.4), (4.0, 100.0)])
    def test_pdf_integrates_to_cdf(self, beta, eta):
        w = WeibullParams(shape_beta=beta, scale_eta=eta)
        for horizon in (0.5 * eta, eta, 3 * eta):
            integral, _ = quad(lambda t: density(t, w), 0.0, horizon, limit=200)
            assert integral == pytest.approx(cdf(horizon, w), abs=1e-8)

    def test_regimes(self):
        assert failure_regime(0.5) == EARLY_LIFE
        assert failure_regime(1.0) == RANDOM
        assert failure_regime(1.0 + 1e-12) == RANDOM
        assert failure_regime(3.0) == WEAR_OUT
        with pytest.raises(ValidationError):
            failure_regime(0.0)

    def test_cumulative_hazard(self):
        w = WeibullParams(shape_beta=2.0, scale_eta=1.0)
        assert cumulative_hazard(1.0, w) == pytest.approx(1.0, rel=1e-12)
