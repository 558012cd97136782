"""Marin-modified endurance limits and S-N finite-life estimation.

The high-cycle life model is the power law sigma = a * N**b fitted between
the 10³-cycle strength f*S_ut and the modified endurance limit S_e at 10⁶
cycles, which gives

    a = (f*S_ut)² / S_e
    b = -(1/3) * log10(f*S_ut / S_e)
    N = (sigma / a)**(1/b)

All stresses are in Pa and refer to fully reversed loading.
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .model import DAYS_PER_YEAR, Record, _require_finite_fields, _require_normal
from .model import _require_positive


class MarinFactors(Record):
    """Multiplicative endurance-limit corrections.

    ka surface, kb size, kc load, kd temperature, ke reliability,
    kf miscellaneous. Each must lie in (0, 1.5].
    """

    ka: float
    kb: float
    kc: float
    kd: float
    ke: float
    kf: float

    def __post_init__(self):
        _require_finite_fields(self)
        for name in ("ka", "kb", "kc", "kd", "ke", "kf"):
            value = getattr(self, name)
            if not 0 < value <= 1.5:
                raise ValidationError(f"Marin factor {name}={value} outside (0, 1.5]")

    def product(self) -> float:
        return self.ka * self.kb * self.kc * self.kd * self.ke * self.kf


class SnConstants(Record):
    """Fitted S-N curve sigma = a * N**b. The fatigue strength fraction f is an
    input of the fit (sn_constants), not part of the curve."""

    a: float  # Pa
    b: float  # dimensionless, negative

    def __post_init__(self):
        _require_positive("S-N intercept a", self.a)
        _require_finite_fields(self)
        if not self.b < 0:
            raise ValidationError(f"S-N exponent b must be negative, got {self.b}")

    @property
    def low_cycle_stress(self) -> float:
        """f*S_ut recovered from the fit: a * 10**(3b)."""
        return self.a * 10 ** (3 * self.b)

    @property
    def endurance_stress(self) -> float:
        """S_e recovered from the fit: a * 10**(6b)."""
        return self.a * 10 ** (6 * self.b)


class CycleLife(Record):
    """Cycle count plus advisory validity flags for the S-N evaluation."""

    cycles: float
    flags: tuple[str, ...] = ()


def endurance_limit_unmodified(s_ut: float) -> float:
    """Unmodified endurance limit: half the ultimate tensile strength S_ut (Pa)."""
    _require_positive("ultimate_tensile_strength", s_ut)
    return 0.5 * s_ut


def marin_modified_endurance(se_prime: float, k: MarinFactors) -> float:
    """Apply the six Marin corrections to an unmodified endurance limit."""
    _require_positive("endurance limit", se_prime)
    return k.product() * se_prime


def sn_constants(s_ut: float, s_e: float, f: float = 0.9) -> SnConstants:
    """Fit the finite-life constants a, b from S_ut, S_e, and f.

    Requires f in (0, 1] and f*S_ut > S_e > 0, otherwise the log10 slope is
    undefined.
    """
    _require_positive("endurance limit", s_e)
    if not 0 < f <= 1:
        raise ValidationError(f"fatigue strength fraction f={f} outside (0, 1]")
    if not f * s_ut > s_e:
        raise ValidationError(
            f"f*S_ut = {f * s_ut} must exceed S_e = {s_e} for a finite-life fit"
        )
    square = _require_normal("(f*S_ut)²", (f * s_ut) ** 2, " Pa²")
    a = _require_normal("S-N intercept a", square / s_e, " Pa")
    b = _require_normal("S-N exponent b", -math.log10(f * s_ut / s_e) / 3.0)
    return SnConstants(a=a, b=b)


def cycles_to_failure(sigma_rev: float, c: SnConstants) -> CycleLife:
    """Cycles to failure N = (sigma/a)**(1/b) for a fully reversed stress.

    Stresses below the endurance limit are still evaluated (aluminum has no
    endurance knee) but the result is flagged "below_endurance_extrapolation";
    stresses above f*S_ut are flagged "low_cycle".
    """
    _require_positive("stress", sigma_rev)
    cycles = (sigma_rev / c.a) ** (1.0 / c.b)
    flags = []
    if sigma_rev < c.endurance_stress:
        flags.append("below_endurance_extrapolation")
    if sigma_rev > c.low_cycle_stress:
        flags.append("low_cycle")
    return CycleLife(cycles=cycles, flags=tuple(flags))


def cycles_to_calendar(n_cycles: float, cycles_per_day: float) -> float:
    """Convert a cycle count to years at a constant daily usage rate."""
    _require_positive("cycles_per_day", cycles_per_day)
    return n_cycles / (cycles_per_day * DAYS_PER_YEAR)
