"""Series/parallel system reliability and Monte Carlo system MTTF.

Component failures are independent. A series group fails with its first
child, a parallel group (non-repairable hot standby) with its last.
topology_from_document reads a topology through the shared tagged-object
reader (model.tagged, model.read_document): any malformed node is one
ValidationError, prefixed "topology:" and the component id when known.

The Monte Carlo sampler addresses one Philox stream keyed by the seed: leaf
i of the depth-first leaf order owns draws [i * samples, (i + 1) * samples).
A generator is moved to any offset in that block without drawing (Philox is
counter-based; Salmon et al., SC'11), so each leaf's draws are fixed by the
seed alone, whoever draws them and in what order. A fixed-life leaf needs no
draws and gets none; skipping its block leaves every other leaf's unchanged.

The samples are walked in fixed chunks of _CHUNK (2**15), and each chunk
is folded whole into one chunk buffer of failure times. Per chunk, each
drawn leaf draws into a preallocated buffer and LifeModel.failure_times
turns the uniforms into failure times in place; a group's first child
writes straight into the group's buffer and the later children are folded
in with in-place minimum/maximum. A fixed life needs no buffer: it is
folded in as a scalar, and fills the group's buffer only as its first
child. Each group folds its hungriest child first, so a worker holds the
chunk buffer and need - 1 scratch buffers of one chunk each, need being the
Sethi-Ullman count of the tree, planned once per estimate. Min and max are
exact and commutative, and split draws from a generator consume the same
words as one draw, so the fold order changes no bit. The chunk's (count,
mean, M2) is then computed in place over the chunk buffer. Memory therefore
stays flat as samples grow, at need chunks per worker.

The chunks are split into one contiguous run per CPU, each worked by its
own thread with its own positioned generators and buffers (numpy releases
the GIL while drawing and in the ufuncs); a single run (one chunk, or one
CPU) is worked on the calling thread. A run's exception is raised by the calling thread once
every thread has joined. The calling thread merges the chunk moments in
chunk order (Chan, Golub & LeVeque, 1979), the same order as a single
thread would, so the estimate does not depend on the number of threads.
The draws are bit-identical whatever the chunk size; the moments differ
between chunk sizes only by rounding, about 1e-15 relative, so a
(topology, samples, seed) triple always reproduces the same estimate.

numpy is imported inside the sampling functions, not at module level, so
the closed-form reliability paths run without loading it.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Optional, Union

from .errors import NumericError, ValidationError
from .model import Record, _require_finite, _require_positive, number, read_document, tagged
from .model import text
from .weibull import WeibullParams, cumulative_hazard, inverse_transform

EXPONENTIAL = "exponential"
WEIBULL = "weibull"
FIXED_LIFE = "fixed_life"

_CHUNK = 1 << 15  # samples per streamed chunk


class LifeModel(Record):
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
            return math.exp(-cumulative_hazard(t, self.params))
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


class Component(Record):
    """Leaf node: a named component with its life model."""

    component_id: str
    model: LifeModel


class Series(Record):
    children: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValidationError("series group needs at least one child")


class Parallel(Record):
    children: tuple = ()

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


def _plan(topo: SystemTopology, index) -> tuple[int, object]:
    """(need, plan) of topo's fold; index counts the leaves depth-first.

    A drawn leaf's plan is (its depth-first index, its model); a fixed-life
    leaf's plan is its life as a float, folded in as a scalar. A group's plan is (np.minimum or
    np.maximum, its children's plans), hungriest child first. need counts
    the buffers the fold holds at once, its own output included (Sethi &
    Ullman, 1970): 1 for a drawn leaf, 0 for a fixed life, and for a group
    the larger of the first child's need and 1 + the second child's.
    """
    import numpy as np

    if isinstance(topo, Component):
        i = next(index)
        if topo.model.kind == FIXED_LIFE:
            return 0, float(topo.model.life)
        return 1, (i, topo.model)
    children = sorted((_plan(c, index) for c in topo.children), key=lambda c: -c[0])
    needs = [need for need, _ in children]
    combine = np.minimum if isinstance(topo, Series) else np.maximum
    need = max(needs[0], 1 + (needs[1] if len(needs) > 1 else 0))
    return need, (combine, [plan for _, plan in children])


def _fold(plan, streams, out: np.ndarray, scratch: list[np.ndarray]) -> None:
    """Write one chunk of a _plan's failure times into out, in place.

    streams[i] is leaf i's positioned generator. A fixed life fills out
    only as a group's first child (or the root); later it is folded in as
    a scalar. A group's first child writes straight into out; each later
    drawn child or group writes into scratch[0], which is folded into out
    before the next child reuses it, and deeper groups use scratch[1:].
    """
    if isinstance(plan, float):
        out.fill(plan)
        return
    head, rest = plan
    if isinstance(head, int):
        streams[head].random(out=out)
        rest.failure_times(out)
        return
    first, *later = rest
    _fold(first, streams, out, scratch)
    for child in later:
        if isinstance(child, float):
            head(out, child, out=out)
        else:
            _fold(child, streams, scratch[0], scratch[1:])
            head(out, scratch[0], out=out)


def _chunk_moments(
    topo: SystemTopology, plan: tuple[int, object], samples: int, seed: int, lo: int, hi: int
) -> list[tuple[int, float, float]]:
    """(count, mean, M2) of each chunk of samples [lo, hi); lo is _CHUNK-aligned.

    plan is topo's (need, plan) from _plan. Each chunk is folded whole into
    one chunk buffer of failure times, with need - 1 chunk buffers of
    scratch.
    """
    import numpy as np

    need, root = plan
    streams = [
        None if leaf.model.kind == FIXED_LIFE else _positioned_stream(seed, i * samples + lo)
        for i, leaf in enumerate(_leaves(topo))
    ]
    buffer = np.empty(min(_CHUNK, hi - lo))
    scratch = [np.empty(buffer.size) for _ in range(need - 1)]
    moments = []
    with np.errstate(all="ignore"):  # thread-local: every worker enters it
        for start in range(lo, hi, _CHUNK):
            size = min(_CHUNK, hi - start)
            times = buffer[:size]
            _fold(root, streams, times, [s[:size] for s in scratch])
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
    if not 0 <= seed < 2**128:  # the Philox key is two 64-bit words
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")
    validate_topology(topo)
    plan = _plan(topo, itertools.count())
    chunks = -(-samples // _CHUNK)
    workers = min(_worker_count(), chunks)
    if workers == 1:
        moments = _chunk_moments(topo, plan, samples, seed, 0, samples)
    else:
        import threading

        edges = [min(chunks * w // workers * _CHUNK, samples) for w in range(workers + 1)]
        runs = [None] * workers

        def work(w):
            try:
                runs[w] = _chunk_moments(topo, plan, samples, seed, edges[w], edges[w + 1])
            except BaseException as exc:  # raised below, once every thread has joined
                runs[w] = exc

        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for run in runs:
            if isinstance(run, BaseException):
                raise run
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


_LIFE_MODELS = {
    EXPONENTIAL: lambda body: LifeModel.exponential(number("rate", body["rate"])),
    WEIBULL: lambda body: LifeModel.weibull(
        WeibullParams(shape_beta=number("beta", body["beta"]), scale_eta=number("eta", body["eta"]))
    ),
    FIXED_LIFE: lambda body: LifeModel.fixed_life(number("life", body["life"])),
}


def _life_model(doc: dict) -> LifeModel:
    return tagged(doc, "life model", _LIFE_MODELS)


def _component(body: dict) -> Component:
    cid = text("id", body["id"])
    return Component(cid, read_document(f"component {cid!r}", lambda b: _life_model(b["model"]), body))


def _node(doc: dict) -> SystemTopology:
    return tagged(doc, "node", _NODES)


_NODES = {
    "series": lambda body: Series(children=tuple(map(_node, body))),
    "parallel": lambda body: Parallel(children=tuple(map(_node, body))),
    "component": _component,
}


def topology_from_document(doc: dict) -> SystemTopology:
    """Build a topology from its JSON tree form.

    Nodes are single-key tagged objects: {"series": [...]},
    {"parallel": [...]}, or {"component": {"id": ..., "model":
    {"exponential": {"rate": r}} | {"weibull": {"beta": b, "eta": e}} |
    {"fixed_life": {"life": t}}}}.
    """
    return read_document("topology", _node, doc)


def expected_repairs(rate: float, horizon: float) -> float:
    """Expected Poisson repair-event count over the horizon: rate * horizon."""
    _require_finite("repair rate", rate)
    _require_finite("horizon", horizon)
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


# Component service-life summary of the published study (years); the default
# input of system_service_life on the command line.
SERVICE_LIFE_SUMMARY_YEARS = {
    "tower": 38.0,
    "slew_bearing": 80.0,
    "blades": 75.0,
    "generator": 20.0,
    "slip_ring": 80.0,
}


def lives_from_document(document) -> dict[str, float]:
    """Component lives (years) of a lives document: {"lives": {id: years}} or the bare mapping."""

    def build(doc):
        return {str(k): number(f"life for {k!r}", v) for k, v in doc.get("lives", doc).items()}

    return read_document("lives document", build, document)


def system_service_life(lives: dict[str, float]) -> tuple[float, str]:
    """Minimum component life and the component that sets it.

    Ties go to the lexicographically first component id.
    """
    if not lives:
        raise ValidationError("service-life mapping must not be empty")
    for cid, years in lives.items():
        _require_positive(f"life for {cid!r}", years)
    limiting = min(sorted(lives), key=lambda cid: lives[cid])
    return lives[limiting], limiting
