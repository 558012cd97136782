import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from dwtlife.errors import SingularityError, ValidationError
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
    pdf,
    quantile_Bp,
    sample,
)

from oracles import empirical_cdf_distance


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
        lambda w: pdf(math.nan, w),
        lambda w: hazard(math.nan, w),
        lambda w: cumulative_hazard(math.nan, w),
        lambda w: average_failure_rate(math.nan, 1.0, w),
        lambda w: average_failure_rate(1.0, math.nan, w),
    ], ids=["cdf", "pdf", "hazard", "cumulative_hazard", "average_t1", "average_t2"])
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
        with pytest.raises(SingularityError):
            hazard(0.0, WeibullParams(0.5, 1.0))

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
        assert hazard(t, w) == pytest.approx(pdf(t, w) / survival, rel=1e-9)


class TestInfiniteTime:
    W = WeibullParams(shape_beta=2.0, scale_eta=5.0)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_pdf_at_infinity_is_its_limit(self, beta):
        assert pdf(math.inf, WeibullParams(shape_beta=beta, scale_eta=5.0)) == 0.0

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


class TestSampling:
    def test_determinism(self):
        w = WeibullParams(shape_beta=1.3, scale_eta=5.0)
        assert np.array_equal(sample(w, seed=7, count=1000), sample(w, seed=7, count=1000))

    def test_inverse_transform_scale_point(self):
        w = WeibullParams(shape_beta=2.2, scale_eta=9.0)
        p_at_eta = 100 * (1 - math.exp(-1))
        assert quantile_Bp(p_at_eta, w) == pytest.approx(9.0, rel=1e-9)

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
            integral, _ = quad(lambda t: pdf(t, w), 0.0, horizon, limit=200)
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
