"""Series/parallel system reliability and Monte Carlo system MTTF.

Component failures are independent. A series group fails with its first
child, a parallel group (non-repairable hot standby) with its last.

The Monte Carlo sampler addresses one Philox stream keyed by the seed: leaf
i of the depth-first leaf order owns draws [i * samples, (i + 1) * samples).
Its generator is moved to that offset once (Philox is counter-based, so this
costs no draws; Salmon et al., SC'11), and the samples are then walked in
fixed chunks of _CHUNK. Each chunk takes the next draws of every leaf, folds
the tree into preallocated buffers with in-place minimum/maximum, and merges
its (count, mean, M2) into the running moments (Chan, Golub & LeVeque,
1979). Memory therefore stays flat as samples grow. The draws are
bit-identical whatever the chunk size; the moments differ between chunk
sizes only by rounding, about 1e-15 relative, so a (topology, samples, seed)
triple always reproduces the same estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import NumericError, ValidationError
from .model import _require_finite
from .weibull import WeibullParams

EXPONENTIAL = "exponential"
WEIBULL = "weibull"
FIXED_LIFE = "fixed_life"

_CHUNK = 1 << 16  # samples per streamed chunk


@dataclass(frozen=True)
class LifeModel:
    """Failure-time model of a single component."""

    kind: str
    rate: Optional[float] = None  # 1/time, exponential
    params: Optional[WeibullParams] = None  # weibull
    life: Optional[float] = None  # time, fixed_life

    def __post_init__(self):
        if self.kind == EXPONENTIAL:
            if self.rate is None or not self.rate > 0:
                raise ValidationError(f"exponential model needs a positive rate, got {self.rate}")
            _require_finite("exponential rate", self.rate)
        elif self.kind == WEIBULL:
            if self.params is None:
                raise ValidationError("weibull model needs WeibullParams")
        elif self.kind == FIXED_LIFE:
            if self.life is None or not self.life > 0:
                raise ValidationError(f"fixed_life model needs a positive life, got {self.life}")
            _require_finite("fixed_life life", self.life)
        else:
            raise ValidationError(f"unknown life model kind {self.kind!r}")

    @classmethod
    def exponential(cls, rate: float) -> "LifeModel":
        return cls(kind=EXPONENTIAL, rate=rate)

    @classmethod
    def weibull(cls, params: WeibullParams) -> "LifeModel":
        return cls(kind=WEIBULL, params=params)

    @classmethod
    def fixed_life(cls, life: float) -> "LifeModel":
        return cls(kind=FIXED_LIFE, life=life)

    def survival(self, t: float) -> float:
        """Probability the component is still functioning at time t."""
        if t < 0:
            raise ValidationError(f"time must be >= 0, got {t}")
        if self.kind == EXPONENTIAL:
            return math.exp(-self.rate * t)
        if self.kind == WEIBULL:
            return math.exp(-((t / self.params.scale_eta) ** self.params.shape_beta))
        return 1.0 if t < self.life else 0.0

    def failure_times(self, u: np.ndarray) -> np.ndarray:
        """Inverse-transform failure times for uniforms u in [0, 1)."""
        if self.kind == EXPONENTIAL:
            return -np.log1p(-u) / self.rate
        if self.kind == WEIBULL:
            return self.params.scale_eta * (-np.log1p(-u)) ** (1.0 / self.params.shape_beta)
        return np.full_like(u, self.life)


@dataclass(frozen=True)
class Component:
    """Leaf node: a named component with its life model."""

    component_id: str
    model: LifeModel


@dataclass(frozen=True)
class Series:
    children: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValidationError("series group needs at least one child")


@dataclass(frozen=True)
class Parallel:
    children: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValidationError("parallel group needs at least one child")


SystemTopology = Union[Component, Series, Parallel]


def _leaves(topo: SystemTopology) -> list[Component]:
    """Leaves in depth-first order (the Monte Carlo draw order)."""
    if isinstance(topo, Component):
        return [topo]
    out: list[Component] = []
    for child in topo.children:
        out.extend(_leaves(child))
    return out


def validate_topology(topo: SystemTopology) -> None:
    ids = [leaf.component_id for leaf in _leaves(topo)]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValidationError(f"duplicate component ids in topology: {dupes}")


def series_reliability(reliabilities: list[float]) -> float:
    """Product of child reliabilities; the empty product is 1."""
    out = 1.0
    for r in reliabilities:
        if not 0 <= r <= 1:
            raise ValidationError(f"reliability {r} outside [0, 1]")
        out *= r
    return out


def parallel_reliability(reliabilities: list[float]) -> float:
    """1 - product of child failure probabilities."""
    out = 1.0
    for r in reliabilities:
        if not 0 <= r <= 1:
            raise ValidationError(f"reliability {r} outside [0, 1]")
        out *= 1.0 - r
    return 1.0 - out


def system_reliability_at(t: float, topo: SystemTopology) -> float:
    """Survival probability of the whole system at time t."""
    if t < 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    validate_topology(topo)
    return _reliability(t, topo)


def _reliability(t: float, topo: SystemTopology) -> float:
    if isinstance(topo, Component):
        return topo.model.survival(t)
    child_r = [_reliability(t, c) for c in topo.children]
    if isinstance(topo, Series):
        return series_reliability(child_r)
    return parallel_reliability(child_r)


def _positioned_stream(seed: int, offset: int) -> np.random.Generator:
    """Philox(key=seed) moved past its first `offset` doubles.

    Philox4x64 yields four 64-bit words per counter step and each double
    takes one word, so advancing the counter by offset // 4 and discarding
    offset % 4 doubles lands exactly where a single stream would be.
    """
    rng = np.random.Generator(np.random.Philox(key=seed).advance(offset // 4))
    rng.random(offset % 4)
    return rng


def _fold_depth(topo: SystemTopology) -> int:
    """Number of group levels, an upper bound on the fold buffers needed."""
    if isinstance(topo, Component):
        return 0
    return 1 + max(_fold_depth(c) for c in topo.children)


def _fold(topo: SystemTopology, leaf_times, buffers: list[np.ndarray]) -> np.ndarray:
    """System failure times of one chunk, folded in place.

    leaf_times yields each leaf's failure times in depth-first order. A group
    folds into buffers[0]; its first child may fold there too, the later
    children into buffers[1:], so the result of a child group is consumed
    before the next child overwrites it.
    """
    if isinstance(topo, Component):
        return next(leaf_times)
    out = buffers[0]
    first = _fold(topo.children[0], leaf_times, buffers)
    if first is not out:
        np.copyto(out, first)
    combine = np.minimum if isinstance(topo, Series) else np.maximum
    for child in topo.children[1:]:
        combine(out, _fold(child, leaf_times, buffers[1:]), out=out)
    return out


def monte_carlo_mttf(
    topo: SystemTopology, samples: int, seed: int
) -> tuple[float, float]:
    """Estimate the system MTTF; returns (mean, standard error).

    Standard error is the sample standard deviation over sqrt(samples).
    Raises NumericError when either is not finite, e.g. when failure times
    overflow double precision.
    """
    if samples < 100:
        raise ValidationError(f"need at least 100 samples, got {samples}")
    validate_topology(topo)
    leaves = _leaves(topo)
    streams = [_positioned_stream(seed, i * samples) for i in range(len(leaves))]
    buffers = [np.empty(min(_CHUNK, samples)) for _ in range(_fold_depth(topo))]
    mean, m2 = 0.0, 0.0
    with np.errstate(all="ignore"):
        for start in range(0, samples, _CHUNK):
            size = min(_CHUNK, samples - start)
            leaf_times = (
                leaf.model.failure_times(rng.random(size))
                for leaf, rng in zip(leaves, streams)
            )
            times = _fold(topo, leaf_times, [b[:size] for b in buffers])
            chunk_mean = float(times.mean())
            deviation = times - chunk_mean
            chunk_m2 = float(np.square(deviation, out=deviation).sum())
            # Chan, Golub & LeVeque (1979) merge of the first `start` samples
            # with this chunk's (size, chunk_mean, chunk_m2)
            delta = chunk_mean - mean
            mean += delta * size / (start + size)
            m2 += chunk_m2 + delta * delta * start * size / (start + size)
    std_err = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
    if not (math.isfinite(mean) and math.isfinite(std_err)):
        raise NumericError(
            f"Monte Carlo MTTF is not finite (mean {mean}, standard error {std_err}); "
            "failure times overflow double precision"
        )
    return mean, std_err


def topology_from_document(doc: dict) -> SystemTopology:
    """Build a topology from its JSON tree form.

    Nodes are single-key tagged objects: {"series": [...]},
    {"parallel": [...]}, or {"component": {"id": ..., "model":
    {"exponential": {"rate": r}} | {"weibull": {"beta": b, "eta": e}} |
    {"fixed_life": {"life": t}}}}.
    """
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValidationError(f"topology node must be a single-key tagged object, got {doc!r}")
    tag, body = next(iter(doc.items()))
    if tag == "series":
        return Series(children=tuple(topology_from_document(c) for c in body))
    if tag == "parallel":
        return Parallel(children=tuple(topology_from_document(c) for c in body))
    if tag == "component":
        try:
            model_doc = body["model"]
            model_tag, model_body = next(iter(model_doc.items()))
            if model_tag == EXPONENTIAL:
                model = LifeModel.exponential(float(model_body["rate"]))
            elif model_tag == WEIBULL:
                model = LifeModel.weibull(
                    WeibullParams(
                        shape_beta=float(model_body["beta"]),
                        scale_eta=float(model_body["eta"]),
                    )
                )
            elif model_tag == FIXED_LIFE:
                model = LifeModel.fixed_life(float(model_body["life"]))
            else:
                raise ValidationError(f"unknown life model tag {model_tag!r}")
            return Component(component_id=str(body["id"]), model=model)
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed component node: {exc}") from None
    raise ValidationError(f"unknown topology tag {tag!r}")


def expected_repairs(rate: float, horizon: float) -> float:
    """Expected Poisson repair-event count over the horizon: rate * horizon."""
    if rate < 0 or horizon < 0:
        raise ValidationError("rate and horizon must be >= 0")
    return rate * horizon


def poisson_pmf(k: int, mean: float) -> float:
    """P(N = k) for a Poisson count, evaluated in log space."""
    if k < 0:
        raise ValidationError(f"count must be >= 0, got {k}")
    if mean < 0:
        raise ValidationError(f"mean must be >= 0, got {mean}")
    if mean == 0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


def system_service_life(lives: dict[str, float]) -> tuple[float, str]:
    """Minimum component life and the component that sets it.

    Ties go to the lexicographically first component id.
    """
    if not lives:
        raise ValidationError("service-life mapping must not be empty")
    for cid, years in lives.items():
        if not years > 0:
            raise ValidationError(f"life for {cid!r} must be positive, got {years}")
    limiting = min(sorted(lives), key=lambda cid: lives[cid])
    return lives[limiting], limiting
