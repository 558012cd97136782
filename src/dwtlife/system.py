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

The samples are walked in fixed chunks of _CHUNK (2**15). Each chunk is
folded whole into one buffer of failure times by a walk of the topology: a
leaf fills a preallocated chunk buffer through LifeModel.failure_times (a
drawn leaf from its uniforms, a fixed life with its life), a group's first
child writes straight into the group's buffer, and each later child is
folded in with in-place minimum/maximum; a fixed life that is a later child
is folded in as a scalar and fills no buffer. Each group visits its
hungriest child first, ranked once per run, so a worker holds as many chunk
buffers as the tree's Sethi-Ullman need (Sethi & Ullman, 1970), however many
samples there are. Min and max are exact and commutative, and each drawn
leaf draws from its own stream, so the visit order changes no bit. The
chunk's (count, mean, M2) is then computed in place over the chunk buffer.

The chunks are split into one contiguous run per CPU, each with its own
positioned generators and buffers. The calling thread works the first run
and one thread per further run works the rest (numpy releases the GIL while
drawing and in the ufuncs), so one run starts no thread. A run's exception
is raised once every thread has joined. The calling thread merges the chunk
moments in chunk order (Chan, Golub & LeVeque, 1979), as a single thread
would, so the estimate does not depend on the number of threads. The draws
are bit-identical whatever the chunk size; the moments differ between chunk
sizes only by rounding, about 1e-15 relative, so a (topology, samples,
seed) triple always reproduces the same estimate.

numpy is imported inside the sampling functions, not at module level, so
the closed-form reliability paths run without loading it.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from typing import Union

from .errors import ValidationError
from .model import Record, _require_in, _require_normal, number
from .model import known_keys, named_numbers, read_document, tagged, text, whole
from .weibull import WeibullParams, cumulative_hazard, inverse_transform

EXPONENTIAL = "exponential"
WEIBULL = "weibull"
FIXED_LIFE = "fixed_life"

_CHUNK = 1 << 15  # samples per streamed chunk


class LifeModel(Record):
    """Failure-time model of a single component: its kind and that kind's one
    parameter, a rate (1/time, exponential), a WeibullParams (weibull) or a
    life (time, fixed_life). Build one through its kind's factory."""

    kind: str
    value: Union[float, WeibullParams]

    def __post_init__(self):
        if self.kind not in (EXPONENTIAL, WEIBULL, FIXED_LIFE):
            raise ValidationError(f"unknown life model kind {self.kind!r}")
        if self.kind != WEIBULL:  # "exponential rate", "fixed_life life"
            field = "rate" if self.kind == EXPONENTIAL else "life"
            _require_in(f"{self.kind} {field}", self.value, "(0, inf)")

    @classmethod
    def exponential(cls, rate: float) -> "LifeModel":
        return cls(EXPONENTIAL, rate)

    @classmethod
    def weibull(cls, params: WeibullParams) -> "LifeModel":
        return cls(WEIBULL, params)

    @classmethod
    def fixed_life(cls, life: float) -> "LifeModel":
        return cls(FIXED_LIFE, life)

    def survival(self, t: float) -> float:
        """Probability the component is still functioning at time t."""
        _require_in("time", t, "[0, inf]")
        if self.kind == EXPONENTIAL:
            return math.exp(-self.value * t)
        if self.kind == WEIBULL:
            return math.exp(-cumulative_hazard(t, self.value))
        return 1.0 if t < self.value else 0.0

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
            return np.divide(u, -self.value, out=u)
        if self.kind == WEIBULL:
            return inverse_transform(u, self.value)
        u.fill(self.value)
        return u


class Component(Record):
    """Leaf node: a named component with its life model."""

    component_id: str
    model: LifeModel


class _Group(Record):
    """Series or parallel group of one or more children; built only with distinct leaf ids."""

    children: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValidationError(f"{type(self).__name__.lower()} group needs at least one child")
        ids = [leaf.component_id for leaf in _leaves(self)]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate component ids: {dupes}")


class Series(_Group):
    pass


class Parallel(_Group):
    pass


SystemTopology = Union[Component, Series, Parallel]


def _leaves(topo: SystemTopology) -> list[Component]:
    """Leaves in depth-first order (the Monte Carlo draw order)."""
    if isinstance(topo, Component):
        return [topo]
    out: list[Component] = []
    for child in topo.children:
        out.extend(_leaves(child))
    return out


def series_reliability(reliabilities: list[float]) -> float:
    """Product of child reliabilities; the empty product is 1."""
    out = 1.0
    for r in reliabilities:
        out *= _require_in("reliability", r, "[0, 1]")
    return out


def parallel_reliability(reliabilities: list[float]) -> float:
    """1 - product of child failure probabilities, as -expm1(sum log1p(-R_i)):
    no cancellation when every child is near certain failure."""
    log_failure = 0.0
    for r in reliabilities:
        _require_in("reliability", r, "[0, 1]")
        log_failure += math.log1p(-r) if r < 1 else -math.inf  # log1p(-1) is a domain error
    return 0.0 - math.expm1(log_failure)  # 0.0 - x, not -x: no surviving child gives 0.0, not -0.0


def system_reliability_at(t: float, topo: SystemTopology) -> float:
    """Survival probability of the whole system at time t (each leaf refuses t < 0 or NaN)."""
    if isinstance(topo, Component):
        return topo.model.survival(t)
    child_r = [system_reliability_at(t, c) for c in topo.children]
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


def _need(topo: SystemTopology, ranks: dict) -> int:
    """Chunk buffers topo's fold holds at once, its own output included.

    0 for a fixed life, 1 for a drawn leaf, and for a group the larger of
    its hungriest child's need and 1 + the next child's (Sethi & Ullman,
    1970). Records each group's children, hungriest first, in
    ranks[id(group)].
    """
    if isinstance(topo, Component):
        return 0 if topo.model.kind == FIXED_LIFE else 1
    needs = sorted(((_need(c, ranks), c) for c in topo.children), key=lambda nc: -nc[0])
    ranks[id(topo)] = [c for _, c in needs]
    return max(needs[0][0], 1 + (needs[1][0] if len(needs) > 1 else 0))


def _fold(topo: SystemTopology, ranks: dict, streams: dict, out: np.ndarray, scratch: list) -> None:
    """Write one chunk of topo's failure times into out, in place.

    ranks orders each group's children as _need ranked them; streams maps
    each drawn leaf's id to its positioned generator (a fixed life has none
    and draws nothing). A group's first child writes straight into out; a later
    fixed life is folded in as a scalar, and each other later child writes
    into scratch[0], which is folded into out before the next child reuses
    it, and deeper groups use scratch[1:].
    """
    import numpy as np

    if isinstance(topo, Component):
        rng = streams.get(topo.component_id)
        if rng is not None:
            rng.random(out=out)
        topo.model.failure_times(out)
        return
    first, *later = ranks[id(topo)]
    _fold(first, ranks, streams, out, scratch)
    combine = np.minimum if isinstance(topo, Series) else np.maximum
    for child in later:
        if isinstance(child, Component) and child.model.kind == FIXED_LIFE:
            combine(out, child.model.value, out=out)
            continue
        _fold(child, ranks, streams, scratch[0], scratch[1:])
        combine(out, scratch[0], out=out)


def _chunk_moments(
    topo: SystemTopology, samples: int, seed: int, lo: int, hi: int
) -> list[tuple[int, float, float]]:
    """(count, mean, M2) of each chunk of samples [lo, hi); lo is _CHUNK-aligned.

    Each chunk is folded whole into one chunk buffer of failure times, with
    need - 1 chunk buffers of scratch, need being topo's _need.
    """
    import numpy as np

    streams = {leaf.component_id: _positioned_stream(seed, i * samples + lo)
               for i, leaf in enumerate(_leaves(topo)) if leaf.model.kind != FIXED_LIFE}
    ranks = {}
    buffers = [np.empty(min(_CHUNK, hi - lo)) for _ in range(max(1, _need(topo, ranks)))]
    moments = []
    with np.errstate(all="ignore"):  # thread-local: every worker enters it
        for start in range(lo, hi, _CHUNK):
            size = min(_CHUNK, hi - start)
            times, *scratch = (b[:size] for b in buffers)
            _fold(topo, ranks, streams, times, scratch)
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
    overflow double precision, or when the mean is not a normal double.
    """
    _require_in("samples", samples, "[100, inf]")
    if not 0 <= seed < 2**128:  # the Philox key is two 64-bit words
        raise ValidationError(f"seed must be a Philox key, in [0, 2**128), got {seed}")
    samples, seed = whole("samples", samples), whole("seed", seed)
    chunks = -(-samples // _CHUNK)
    workers = min(_worker_count(), chunks)
    edges = [min(chunks * w // workers * _CHUNK, samples) for w in range(workers + 1)]
    runs = [None] * workers

    def work(w):
        try:
            runs[w] = _chunk_moments(topo, samples, seed, edges[w], edges[w + 1])
        except BaseException as exc:  # raised below, once every thread has joined
            runs[w] = exc

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    for run in runs:
        if isinstance(run, BaseException):
            raise run
    mean, m2, count = 0.0, 0.0, 0
    for size, chunk_mean, chunk_m2 in itertools.chain.from_iterable(runs):
        # Chan, Golub & LeVeque (1979) merge of the first `count` samples
        # with this chunk's (size, chunk_mean, chunk_m2)
        delta = chunk_mean - mean
        mean += delta * size / (count + size)
        m2 += chunk_m2 + delta * delta * count * size / (count + size)
        count += size
    std_err = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
    _require_normal("Monte Carlo MTTF", mean)
    return mean, _require_normal("Monte Carlo standard error", std_err, from_nonzero=False)


def _numbers(body: dict, *keys) -> list[float]:
    """The numbers at keys of a life-model body that holds those keys alone."""
    known_keys(body, keys)
    return [number(key, body[key]) for key in keys]


_LIFE_MODELS = {
    EXPONENTIAL: lambda body: LifeModel.exponential(*_numbers(body, "rate")),
    WEIBULL: lambda body: LifeModel.weibull(WeibullParams(*_numbers(body, "beta", "eta"))),
    FIXED_LIFE: lambda body: LifeModel.fixed_life(*_numbers(body, "life")),
}


def _life_model(body: dict) -> LifeModel:
    """The life model of a component body, which holds its id and model alone."""
    return tagged(known_keys(body, ("id", "model"))["model"], "life model", _LIFE_MODELS)


def _component(body: dict) -> Component:
    cid = text("id", body["id"])
    return Component(cid, read_document(f"component {cid!r}", _life_model, body))


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
    _require_in("repair rate", rate, "[0, inf)")
    _require_in("horizon", horizon, "[0, inf)")
    return _require_normal("expected repair count", rate * horizon,
                           from_nonzero=rate > 0 and horizon > 0)


def poisson_pmf(k: int, mean: float) -> float:
    """P(N = k) for a Poisson count, evaluated in log space."""
    k = whole("count", _require_in("count", k, "[0, inf]"))
    _require_in("mean", mean, "[0, inf)")
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
    return read_document("lives document", lambda d: named_numbers(d, "lives", "life"), document)


def system_service_life(lives: dict[str, float]) -> tuple[float, str]:
    """Minimum component life and the component that sets it.

    Ties go to the lexicographically first component id.
    """
    if not lives:
        raise ValidationError("service-life mapping must not be empty")
    for cid, years in lives.items():
        _require_in(f"life for {cid!r}", years, "(0, inf)")
    limiting = min(sorted(lives), key=lambda cid: lives[cid])
    return lives[limiting], limiting
