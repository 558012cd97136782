"""Two-parameter Weibull life distribution.

F(t) = 1 - exp(-(t/eta)^beta), with the two-quantile fit

    beta = [ln(-ln(1 - p/100)) - ln(-ln(1 - q/100))] / [ln(B_p) - ln(B_q)]
    B_p  = eta * (-ln(1 - p/100))^(1/beta)

Time carries whatever unit the life measure uses; rates are its inverse.
Only the array functions, inverse_transform() and sample(), need numpy;
they import it themselves, so the closed-form functions run without
loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularityError, ValidationError
from .model import _require_finite

EARLY_LIFE = "early_life"  # beta < 1, decreasing hazard
RANDOM = "random"  # beta = 1, constant hazard
WEAR_OUT = "wear_out"  # beta > 1, increasing hazard

_REGIME_TOL = 1e-9


@dataclass(frozen=True)
class WeibullParams:
    shape_beta: float
    scale_eta: float

    def __post_init__(self):
        if not self.shape_beta > 0:
            raise ValidationError(f"shape must be positive, got {self.shape_beta}")
        if not self.scale_eta > 0:
            raise ValidationError(f"scale must be positive, got {self.scale_eta}")
        _require_finite("shape", self.shape_beta)
        _require_finite("scale", self.scale_eta)


@dataclass(frozen=True)
class QuantilePoint:
    """A (percent, life) pair: life below which percent% of units fail."""

    percent_p: float
    life_Bp: float

    def __post_init__(self):
        if not 0 < self.percent_p < 100:
            raise ValidationError(
                f"percent must lie in (0, 100), got {self.percent_p}"
            )
        if not self.life_Bp > 0:
            raise ValidationError(f"life must be positive, got {self.life_Bp}")


def cdf(t: float, w: WeibullParams) -> float:
    """Failure probability by time t."""
    if not t >= 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    return -math.expm1(-((t / w.scale_eta) ** w.shape_beta))


def pdf(t: float, w: WeibullParams) -> float:
    """Failure density (beta/eta)(t/eta)^(beta-1) exp(-(t/eta)^beta)."""
    if not t >= 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    if t == 0:
        return hazard(0.0, w)  # survival is 1 at t = 0
    if t == math.inf:
        return 0.0  # the limit; the formula gives inf * 0
    z = t / w.scale_eta
    return (
        (w.shape_beta / w.scale_eta)
        * z ** (w.shape_beta - 1)
        * math.exp(-(z**w.shape_beta))
    )


def quantile_Bp(p: float, w: WeibullParams) -> float:
    """B_p life: the p-th percentile of the distribution."""
    if not 0 < p < 100:
        raise ValidationError(f"percent must lie in (0, 100), got {p}")
    return w.scale_eta * (-math.log1p(-p / 100.0)) ** (1.0 / w.shape_beta)


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
    num = math.log(-math.log1p(-q1.percent_p / 100.0)) - math.log(
        -math.log1p(-q2.percent_p / 100.0)
    )
    den = math.log(q1.life_Bp) - math.log(q2.life_Bp)
    beta = num / den
    eta = q1.life_Bp / (-math.log1p(-q1.percent_p / 100.0)) ** (1.0 / beta)
    return WeibullParams(shape_beta=beta, scale_eta=eta)


def hazard(t: float, w: WeibullParams) -> float:
    """Instantaneous failure rate h(t) = (beta/eta)(t/eta)^(beta-1)."""
    if not t >= 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    if t == 0:
        if w.shape_beta < 1:
            raise SingularityError("hazard diverges at t = 0 for shape < 1")
        if w.shape_beta == 1:
            return 1.0 / w.scale_eta
        return 0.0
    return (w.shape_beta / w.scale_eta) * (t / w.scale_eta) ** (w.shape_beta - 1)


def cumulative_hazard(t: float, w: WeibullParams) -> float:
    """H(t) = (t/eta)^beta."""
    if not t >= 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    return (t / w.scale_eta) ** w.shape_beta


def average_failure_rate(t1: float, t2: float, w: WeibullParams) -> float:
    """Average rate over [t1, t2]: (H(t2) - H(t1)) / (t2 - t1)."""
    if not (0 <= t1 < t2):
        raise ValidationError(f"need 0 <= t1 < t2, got [{t1}, {t2}]")
    _require_finite("t2", t2)
    return (cumulative_hazard(t2, w) - cumulative_hazard(t1, w)) / (t2 - t1)


def inverse_transform(u: np.ndarray, w: WeibullParams) -> np.ndarray:
    """Overwrite uniforms u in [0, 1) with eta*(-ln(1-u))^(1/beta); returns u."""
    import numpy as np

    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    np.power(u, 1.0 / w.shape_beta, out=u)
    return np.multiply(u, w.scale_eta, out=u)


def sample(w: WeibullParams, seed: int, count: int) -> np.ndarray:
    """Inverse-transform samples eta*(-ln(1-u))^(1/beta), deterministic per seed."""
    import numpy as np

    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    return inverse_transform(np.random.default_rng(seed).random(count), w)


def failure_regime(beta: float) -> str:
    """Hazard-shape classification: early_life, random, or wear_out."""
    if not beta > 0:
        raise ValidationError(f"shape must be positive, got {beta}")
    if abs(beta - 1.0) <= _REGIME_TOL:
        return RANDOM
    return EARLY_LIFE if beta < 1 else WEAR_OUT
