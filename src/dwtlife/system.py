"""Series/parallel system reliability and Monte Carlo system MTTF.

Component failures are independent. A series group fails with its first
child, a parallel group (non-repairable hot standby) with its last.

The Monte Carlo sampler addresses one Philox stream keyed by the seed: leaf
i of the depth-first leaf order owns draws [i * samples, (i + 1) * samples).
A generator is moved to any offset in that block without drawing (Philox is
counter-based; Salmon et al., SC'11), so each leaf's draws are fixed by the
seed alone, whoever draws them and in what order. A fixed-life leaf needs no
draws and gets none; skipping its block leaves every other leaf's unchanged.

The samples are walked in fixed chunks of _CHUNK. Per chunk, each leaf draws
into a preallocated buffer and LifeModel.failure_times turns the uniforms
into failure times in place; a group's first child writes straight into the
group's buffer and the later children are folded in with in-place
minimum/maximum. The chunk's (count, mean, M2) is then computed in place too.
Memory therefore stays flat as samples grow.

The chunks are split into one contiguous run per CPU, each worked by a
thread with its own positioned generators and buffers (numpy releases the
GIL while drawing and in the ufuncs). The calling thread merges the chunk
moments in chunk order (Chan, Golub & LeVeque, 1979), the same order as a
single thread would, so the estimate does not depend on the number of
threads. The draws are bit-identical whatever the chunk size; the moments
differ between chunk sizes only by rounding, about 1e-15 relative, so a
(topology, samples, seed) triple always reproduces the same estimate.

numpy is imported inside the sampling functions, not at module level, so
the closed-form reliability paths run without loading it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import NumericError, ValidationError
from .model import _require_finite
from .weibull import WeibullParams, inverse_transform

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
        if not t >= 0:
            raise ValidationError(f"time must be >= 0, got {t}")
        if self.kind == EXPONENTIAL:
            return math.exp(-self.rate * t)
        if self.kind == WEIBULL:
            return math.exp(-((t / self.params.scale_eta) ** self.params.shape_beta))
        return 1.0 if t < self.life else 0.0

    def failure_times(self, u: np.ndarray) -> np.ndarray:
        """Overwrite uniforms u in [0, 1) with failure times; returns u.

        A fixed-life model fills u with its life whatever u holds, so it
        needs no draws.
        """
        import numpy as np

        if self.kind == EXPONENTIAL:
            # log1p(-u) / -rate is exactly -log1p(-u) / rate
            np.negative(u, out=u)
            np.log1p(u, out=u)
            return np.divide(u, -self.rate, out=u)
        if self.kind == WEIBULL:
            return inverse_transform(u, self.params)
        u.fill(self.life)
        return u


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
    if not t >= 0:
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
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=seed).advance(offset // 4))
    rng.random(offset % 4)
    return rng


def _fold_depth(topo: SystemTopology) -> int:
    """Number of group levels, an upper bound on the scratch buffers _fold needs."""
    if isinstance(topo, Component):
        return 0
    return 1 + max(_fold_depth(c) for c in topo.children)


def _fold(topo: SystemTopology, streams, out: np.ndarray, scratch: list[np.ndarray]) -> None:
    """Write one chunk of topo's failure times into out, in place.

    streams yields each leaf's positioned generator in depth-first order,
    None for a fixed-life leaf. A group's first child writes straight into
    out; each later child writes into scratch[0], which is folded into out
    before the next child reuses it, and deeper groups use scratch[1:].
    """
    import numpy as np

    if isinstance(topo, Component):
        rng = next(streams)
        if rng is not None:
            rng.random(out=out)
        topo.model.failure_times(out)
        return
    first, *later = topo.children
    _fold(first, streams, out, scratch)
    combine = np.minimum if isinstance(topo, Series) else np.maximum
    for child in later:
        _fold(child, streams, scratch[0], scratch[1:])
        combine(out, scratch[0], out=out)


def _chunk_moments(
    topo: SystemTopology, samples: int, seed: int, lo: int, hi: int
) -> list[tuple[int, float, float]]:
    """(count, mean, M2) of each chunk of samples [lo, hi); lo is _CHUNK-aligned."""
    import numpy as np

    streams = [
        None if leaf.model.kind == FIXED_LIFE else _positioned_stream(seed, i * samples + lo)
        for i, leaf in enumerate(_leaves(topo))
    ]
    buffers = [np.empty(min(_CHUNK, hi - lo)) for _ in range(1 + _fold_depth(topo))]
    moments = []
    with np.errstate(all="ignore"):  # thread-local: every worker enters it
        for start in range(lo, hi, _CHUNK):
            size = min(_CHUNK, hi - start)
            times, *scratch = (b[:size] for b in buffers)
            _fold(topo, iter(streams), times, scratch)
            chunk_mean = float(times.mean())
            np.subtract(times, chunk_mean, out=times)
            moments.append((size, chunk_mean, float(np.square(times, out=times).sum())))
    return moments


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


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
    chunks = -(-samples // _CHUNK)
    workers = min(_worker_count(), chunks)
    if workers == 1:
        moments = _chunk_moments(topo, samples, seed, 0, samples)
    else:
        from concurrent.futures import ThreadPoolExecutor

        edges = [min(chunks * w // workers * _CHUNK, samples) for w in range(workers + 1)]
        with ThreadPoolExecutor(workers) as pool:
            runs = pool.map(
                lambda lo, hi: _chunk_moments(topo, samples, seed, lo, hi), edges[:-1], edges[1:]
            )
            moments = [chunk for run in runs for chunk in run]
    mean, m2, count = 0.0, 0.0, 0
    for size, chunk_mean, chunk_m2 in moments:
        # Chan, Golub & LeVeque (1979) merge of the first `count` samples
        # with this chunk's (size, chunk_mean, chunk_m2)
        delta = chunk_mean - mean
        mean += delta * size / (count + size)
        m2 += chunk_m2 + delta * delta * count * size / (count + size)
        count += size
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
        _require_finite(f"life for {cid!r}", years)
    limiting = min(sorted(lives), key=lambda cid: lives[cid])
    return lives[limiting], limiting
