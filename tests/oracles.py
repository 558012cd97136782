"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's own code paths: the column
deflection is solved as the governing boundary-value ODE by finite
differences, the allowable load by a damped fixed-point iteration, and the
Monte Carlo MTTF in one shot from the topology document. The Monte Carlo
MTTF is also computed chunk by chunk with one whole-chunk buffer per tree
level and every group folded in depth-first order, the bit-for-bit
reference for the library's hungriest-first fold. The CLI's
parser is built whole, every subcommand with every flag, as the reference
for the parser the CLI builds for one argv. The maintenance schedule is
compiled by scanning the whole cycle log for every threshold, with one
unbounded loop per recurring trigger kind.
"""

import math
from datetime import date, timedelta
from operator import attrgetter

import numpy as np
from scipy.linalg import solve_banded


def ode_midspan_deflection(load, modulus, inertia, eccentricity, length, nodes=4001):
    """Midspan deflection of y'' + (P/EI) y = -(P e)/(EI), y(0) = y(L) = 0.

    Central finite differences on a uniform grid, banded solve.
    """
    ksq = load / (modulus * inertia)
    x = np.linspace(0.0, length, nodes)
    h = x[1] - x[0]
    n = nodes - 2  # interior unknowns
    banded = np.zeros((3, n))
    banded[0, 1:] = 1.0 / h**2
    banded[1, :] = -2.0 / h**2 + ksq
    banded[2, :-1] = 1.0 / h**2
    rhs = np.full(n, -ksq * eccentricity)
    interior = solve_banded((1, 1), banded, rhs)
    full = np.zeros(nodes)
    full[1:-1] = interior
    return float(np.interp(length / 2.0, x, full))


def fixed_point_allowable_load(area, gyration, height, ecc_ratio, s_yc, modulus,
                               rel_tol=1e-12, max_iter=200000):
    """Damped fixed-point solve of P = A*S_yc / (1 + r*sec((l/2k) sqrt(P/AE)))."""
    p_buckle = area * modulus * (math.pi * gyration / height) ** 2
    load = 0.1 * p_buckle
    for _ in range(max_iter):
        arg = (height / (2 * gyration)) * math.sqrt(load / (area * modulus))
        proposal = area * s_yc / (1 + ecc_ratio / math.cos(arg))
        updated = 0.5 * (load + proposal)
        if abs(updated - load) <= rel_tol * updated:
            return updated
        load = updated
    raise AssertionError("fixed-point oracle failed to converge")


def empirical_cdf_distance(samples, cdf):
    """Kolmogorov-Smirnov distance between samples and a scalar CDF."""
    ordered = np.sort(np.asarray(samples))
    n = len(ordered)
    theoretical = np.array([cdf(t) for t in ordered])
    upper = np.abs(np.arange(1, n + 1) / n - theoretical).max()
    lower = np.abs(np.arange(0, n) / n - theoretical).max()
    return max(upper, lower)


def one_shot_mttf(doc, samples, seed):
    """Monte Carlo MTTF of a topology document with every draw held at once.

    One Philox stream keyed by the seed hands each leaf, in depth-first
    order, a block of `samples` uniforms; groups fold by vstack and
    min/max; the moments are numpy's mean and ddof=1 std over all samples.
    Returns (mean, standard error).
    """
    rng = np.random.Generator(np.random.Philox(key=seed))

    def failure_times(node):
        (tag, body), = node.items()
        if tag == "component":
            (kind, params), = body["model"].items()
            u = rng.random(samples)
            if kind == "exponential":
                return -np.log1p(-u) / params["rate"]
            if kind == "weibull":
                return params["eta"] * (-np.log1p(-u)) ** (1.0 / params["beta"])
            return np.full(samples, float(params["life"]))
        stacked = np.vstack([failure_times(child) for child in body])
        return stacked.min(axis=0) if tag == "series" else stacked.max(axis=0)

    times = failure_times(doc)
    return float(times.mean()), float(times.std(ddof=1) / math.sqrt(samples))


def _fold_depth(topo):
    from dwtlife.system import Component

    if isinstance(topo, Component):
        return 0
    return 1 + max(_fold_depth(c) for c in topo.children)


def _depth_first_fold(topo, streams, out, scratch):
    """One chunk of topo's failure times into out: children in depth-first
    order, every leaf (fixed lives too) through a whole-chunk buffer."""
    from dwtlife.system import Component, Series

    if isinstance(topo, Component):
        rng = next(streams)
        if rng is not None:
            rng.random(out=out)
        topo.model.failure_times(out)
        return
    first, *later = topo.children
    _depth_first_fold(first, streams, out, scratch)
    combine = np.minimum if isinstance(topo, Series) else np.maximum
    for child in later:
        _depth_first_fold(child, streams, scratch[0], scratch[1:])
        combine(out, scratch[0], out=out)


def _whole_chunk_moments(topo, samples, seed, lo, hi):
    """(count, mean, M2) of each chunk of samples [lo, hi), with 1 + depth
    whole-chunk buffers."""
    from dwtlife import system

    streams = [
        None if leaf.model.kind == system.FIXED_LIFE
        else system._positioned_stream(seed, i * samples + lo)
        for i, leaf in enumerate(system._leaves(topo))
    ]
    chunk = system._CHUNK
    buffers = [np.empty(min(chunk, hi - lo)) for _ in range(1 + _fold_depth(topo))]
    moments = []
    with np.errstate(all="ignore"):
        for start in range(lo, hi, chunk):
            size = min(chunk, hi - start)
            times, *scratch = (b[:size] for b in buffers)
            _depth_first_fold(topo, iter(streams), times, scratch)
            chunk_mean = float(times.mean())
            np.subtract(times, chunk_mean, out=times)
            moments.append((size, chunk_mean, float(np.square(times, out=times).sum())))
    return moments


def whole_chunk_mttf(topo, samples, seed, workers):
    """Monte Carlo MTTF folded with a whole-chunk buffer per tree level and
    the children in depth-first order: the same Philox streams, chunks of
    system._CHUNK split into one run per worker, and the same Chan, Golub &
    LeVeque merge. The runs are worked one after another. Returns (mean,
    standard error).
    """
    from dwtlife import system

    chunk = system._CHUNK
    chunks = -(-samples // chunk)
    workers = min(workers, chunks)
    edges = [min(chunks * w // workers * chunk, samples) for w in range(workers + 1)]
    moments = [
        m for lo, hi in zip(edges, edges[1:]) for m in _whole_chunk_moments(topo, samples, seed, lo, hi)
    ]
    mean, m2, count = 0.0, 0.0, 0
    for size, chunk_mean, chunk_m2 in moments:
        delta = chunk_mean - mean
        mean += delta * size / (count + size)
        m2 += chunk_m2 + delta * delta * count * size / (count + size)
        count += size
    return mean, math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)


def whole_parser():
    """The CLI parser with every subcommand and every flag, from cli.COMMANDS in one loop."""
    from dwtlife import cli

    parser = cli._Parser(
        prog="dwtlife", description="Ducted wind turbine lifing and maintenance engine"
    )
    top = parser.add_subparsers(dest="command", required=True)
    families = {}
    for path, (_, shared, flags, _) in cli.COMMANDS.items():
        family, _, name = path.partition(" ")
        if name and family not in families:
            family_parser = top.add_parser(family)
            families[family] = family_parser.add_subparsers(dest="subcommand", required=True)
        sub = families[family].add_parser(name) if name else top.add_parser(family)
        for flag, spec in cli._SHARED.items():
            if flag in shared:
                sub.add_argument(f"--{flag}", **spec)
        for flag, spec in flags.items():
            sub.add_argument(flag, **{key: value for key, value in spec.items() if key != "dim"})
        sub.set_defaults(path=path)
    return parser


def threshold_scan_schedule(registry, install, usage, horizon_years):
    """generate_schedule's entries, each cycle threshold found by a scan of the whole log."""
    from dwtlife import schedule as S
    from dwtlife.errors import ValidationError

    def days_after(start, days):
        try:
            return start + timedelta(days=days)
        except OverflowError:
            return None

    def whole_days(years):
        return round(years * S.DAYS_PER_YEAR)

    def counter_model(counter):
        if counter not in usage.counters and counter not in install.cycle_log:
            raise ValidationError(f"unknown cycle counter {counter!r}")
        log = install.cycle_log.get(counter, ())
        rate = usage.counters.get(counter, 0.0)
        last_date, last_count = log[-1] if log else (install.install_date, 0.0)

        def date_reaching(threshold):
            for when, count in log:
                if count >= threshold:
                    return when
            if rate > 0:  # a projection too far to count in days is never due
                days = (threshold - last_count) / rate
                return days_after(last_date, max(math.ceil(days), 0)) if days < math.inf else None
            return None

        return date_reaching

    if not 0 < horizon_years < math.inf:
        raise ValidationError(f"horizon must be positive and finite, got {horizon_years}")
    start = install.install_date
    end = days_after(start, whole_days(horizon_years))
    if end is None:
        raise ValidationError(f"horizon of {horizon_years} years from {start} ends after {date.max}")
    entries = []

    def within(d):
        return d is not None and start <= d <= end

    for component in registry.components:
        for task in component.tasks:
            trig = task.trigger
            if isinstance(trig, S.CalendarInterval):
                first, last, k = start.toordinal(), end.toordinal(), 1
                while (day := first + round(k * trig.years * S.DAYS_PER_YEAR)) <= last:
                    entries.append(S.ScheduleEntry(
                        date.fromordinal(day), component.id, task.description,
                        S.INTERVAL_ELAPSED, None))
                    k += 1
            elif isinstance(trig, S.CycleInterval):
                date_reaching = counter_model(trig.counter)
                k = 1
                while True:
                    due = date_reaching(k * trig.cycles)
                    if not within(due):
                        break
                    entries.append(S.ScheduleEntry(
                        due, component.id, task.description, S.CYCLES_ELAPSED, k * trig.cycles))
                    k += 1
            elif isinstance(trig, S.WhicheverFirst):
                date_reaching = counter_model(trig.counter)
                k = 1
                while True:
                    cal_due = days_after(start, whole_days(k * trig.years))
                    cyc_due = date_reaching(k * trig.cycles)
                    if cyc_due is not None and (cal_due is None or cyc_due < cal_due):
                        due, reason, count = cyc_due, S.CYCLES_ELAPSED, k * trig.cycles
                    else:
                        due, reason, count = cal_due, S.INTERVAL_ELAPSED, None
                    if not within(due):
                        break
                    entries.append(
                        S.ScheduleEntry(due, component.id, task.description, reason, count))
                    k += 1
            else:
                entries.extend(
                    S.ScheduleEntry(when, component.id, task.description, S.EVENT, None)
                    for when, kind in install.event_log
                    if kind == trig.kind and within(when)
                )
        life = component.service_life
        if life is not None:
            if life.unit == S.YEARS:
                due, count = days_after(start, whole_days(life.value)), None
            else:
                due, count = counter_model(life.counter)(life.value), life.value
            if within(due):
                entries.append(S.ScheduleEntry(
                    due, component.id, f"Service life reached ({S._life_text(life)})",
                    S.LIFE_EXPIRED, count))

    entries.sort(key=attrgetter("due_date", "component_id", "task", "reason"))
    return entries
