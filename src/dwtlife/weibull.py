"""Two-parameter Weibull life distribution.

F(t) = 1 - exp(-(t/eta)^beta), with the two-quantile fit

    beta = [ln(-ln(1 - p/100)) - ln(-ln(1 - q/100))] / [ln(B_p) - ln(B_q)]
    B_p  = eta * (-ln(1 - p/100))^(1/beta)

_percent_hazard() is the one rule for a percent p: one not in (0, 100) is a validation
error, and a p/100 that is not a normal double (digits lost) is a numeric failure
(model._require_normal).
Time carries whatever unit the life measure uses; rates are its inverse. Only the
array functions, inverse_transform() and sample(), need numpy; they import it
themselves, so the closed-form functions run without loading it.

sample() draws from PCG64 (numpy.random.default_rng), not from the Philox
streams of the system Monte Carlo: the benchmark's cold-CLI references
(perfbench/refs/cli_cold.json) pin the output of `weibull sample`, so
moving it to Philox would change a recorded benchmark output and belongs
with a change to the benchmark.
"""

from __future__ import annotations

import math

from .errors import NumericError, ValidationError
from .model import Record, _require_in, _require_normal, whole

EARLY_LIFE = "early_life"  # beta < 1, decreasing hazard
RANDOM = "random"  # beta = 1, constant hazard
WEAR_OUT = "wear_out"  # beta > 1, increasing hazard

_REGIME_TOL = 1e-9


class WeibullParams(Record):
    shape_beta: float
    scale_eta: float

    def __post_init__(self):
        _require_in("shape", self.shape_beta, "(0, inf)")
        _require_in("scale", self.scale_eta, "(0, inf)")


class QuantilePoint(Record):
    """A (percent, life) pair: life below which percent% of units fail."""

    percent_p: float
    life_Bp: float

    def __post_init__(self):
        _percent_hazard(self.percent_p)
        _require_in("life", self.life_Bp, "(0, inf)")


def cdf(t: float, w: WeibullParams) -> float:
    """Failure probability by time t: 1 - exp(-H(t)). One below the smallest normal
    double, but for t = 0, is a NumericError: its digits are lost."""
    return _require_normal("failure probability", -math.expm1(-cumulative_hazard(t, w)),
                           from_nonzero=t != 0)


def _percent_hazard(p: float) -> float:
    """-ln(1 - p/100), the cumulative hazard at the B_p life, of a percent in (0, 100)."""
    _require_in("percent", p, "(0, 100)")
    return -math.log1p(-_require_normal(f"p/100 of percent {p}", p / 100.0))


def quantile_Bp(p: float, w: WeibullParams) -> float:
    """B_p life: the p-th percentile of the distribution."""
    return w.scale_eta * _percent_hazard(p) ** (1.0 / w.shape_beta)


def fit_two_quantiles(q1: QuantilePoint, q2: QuantilePoint) -> WeibullParams:
    """Recover (beta, eta) from two distinct quantile points.

    The points must be consistently ordered: the lower percent must carry
    the shorter life, otherwise the implied shape would be nonpositive.
    """
    if q1.percent_p == q2.percent_p:
        raise ValidationError("quantile percents must differ")
    if q1.life_Bp == q2.life_Bp:
        raise ValidationError("quantile lives must differ")
    if (q1.percent_p < q2.percent_p) != (q1.life_Bp < q2.life_Bp):
        raise ValidationError(
            "inconsistent quantile ordering: the smaller percent must have "
            "the smaller life"
        )
    u1, u2 = _percent_hazard(q1.percent_p), _percent_hazard(q2.percent_p)
    beta = _log_ratio(u1, u2) / _log_ratio(q1.life_Bp, q2.life_Bp)
    eta = q1.life_Bp / u1 ** (1.0 / beta)
    return WeibullParams(shape_beta=beta, scale_eta=eta)


def _log_ratio(a: float, b: float) -> float:
    """ln(a / b) of positive a and b. Within a factor of 2, a - b is exact (Sterbenz),
    so log1p((a - b) / b) keeps the digits that ln(a) - ln(b) would cancel."""
    if b / 2 <= a <= 2 * b:
        return math.log1p((a - b) / b)
    return math.log(a) - math.log(b)


def hazard(t: float, w: WeibullParams) -> float:
    """Instantaneous failure rate h(t) = (beta/eta)(t/eta)^(beta-1)."""
    _require_in("time", t, "[0, inf]")
    if t == 0:
        if w.shape_beta < 1:
            raise NumericError("hazard diverges at t = 0 for shape < 1")
        if w.shape_beta == 1:
            return 1.0 / w.scale_eta
        return 0.0
    return (w.shape_beta / w.scale_eta) * (t / w.scale_eta) ** (w.shape_beta - 1)


def cumulative_hazard(t: float, w: WeibullParams) -> float:
    """H(t) = (t/eta)^beta."""
    _require_in("time", t, "[0, inf]")
    return (t / w.scale_eta) ** w.shape_beta


def average_failure_rate(t1: float, t2: float, w: WeibullParams) -> float:
    """Average rate over [t1, t2]: (H(t2) - H(t1)) / (t2 - t1), where for t2 <= 2*t1
    the difference is H(t1)*expm1(beta*log1p(d/t1)), with d = t2 - t1 exact: no cancellation."""
    _require_in("t2", t2, "(0, inf)")
    if not (0 <= t1 < t2):
        raise ValidationError(f"need 0 <= t1 < t2, got [{t1}, {t2}]")
    d = t2 - t1
    if t2 <= 2 * t1:
        return cumulative_hazard(t1, w) * math.expm1(w.shape_beta * math.log1p(d / t1)) / d
    return (cumulative_hazard(t2, w) - cumulative_hazard(t1, w)) / d


def inverse_transform(u: np.ndarray, w: WeibullParams) -> np.ndarray:
    """Overwrite uniforms u in [0, 1) with eta*(-ln(1-u))^(1/beta); returns u."""
    import numpy as np

    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    np.power(u, 1.0 / w.shape_beta, out=u)
    return np.multiply(u, w.scale_eta, out=u)


def sample(w: WeibullParams, seed: int, count: int) -> np.ndarray:
    """Inverse-transform samples eta*(-ln(1-u))^(1/beta), deterministic per seed.

    Raises NumericError when a sample overflows double precision.
    """
    import numpy as np

    count = whole("count", _require_in("count", count, "[1, inf]"))
    seed = whole("seed", _require_in("seed", seed, "[0, inf]"))
    with np.errstate(all="ignore"):
        values = inverse_transform(np.random.default_rng(seed).random(count), w)
    if not np.isfinite(values).all():
        raise NumericError("Weibull samples overflow double precision")
    return values


def failure_regime(beta: float) -> str:
    """Hazard-shape classification: early_life, random, or wear_out."""
    _require_in("shape", beta, "(0, inf)")
    if abs(beta - 1.0) <= _REGIME_TOL:
        return RANDOM
    return EARLY_LIFE if beta < 1 else WEAR_OUT
