"""dwtlife benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/dwtlife``; the program
is imported from there, never from an installed copy. Inputs come from the
seed alone. Each op waits for the previous one to finish. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. With ``--trace 1`` the spans are
also written to ``perfbench/.work/trace-NAME-N.json``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import workloads as W
from cli_probe import MODULES
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPS = 5
BARE_REPS = 5
CHILD_TIMEOUT_S = 120
MC_EXACT_SIGMAS = 5.0
MC_REPRO_RTOL = 1e-12
PY = sys.executable


class Child:
    """A finished child process: times, exit code, output and peak RSS."""

    def __init__(self, argv, cwd):
        with tempfile.TemporaryFile(dir=WORK) as err:
            self.start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            self.end = time.perf_counter()
            proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.stderr = err.read().decode("utf-8", "replace")
        self.stdout = out.decode("utf-8", "replace")
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.ms = (self.end - self.start) * 1000.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DWT_REGISTRY", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_refs(refs_dir: Path | None, name: str) -> dict:
    """Reference outputs by case id; refs_dir None (while recording) gives none."""
    if refs_dir is None:
        return {}
    with open(refs_dir / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# workloads: setup() prepares inputs and warms up; op() runs and checks one
# op and returns (items, error-or-None), recording its own latency.


class CliCold:
    """Fresh ``python -m dwtlife.cli`` processes, one at a time."""

    name = "cli_cold"

    def __init__(self, refs_dir, tracer):
        self.refs = load_refs(refs_dir, self.name)
        self.tracer = tracer
        self.dir = WORK / "cli"
        self.strata = W.cli_strata()
        self.peak_rss_mb = 0.0

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        for stratum in self.strata:
            for case in stratum:
                for file_name, doc in case.params["files"].items():
                    with open(self.dir / file_name, "w", encoding="utf-8") as handle:
                        json.dump(doc, handle)
        self.op(self.strata[0][0], traced=False)  # fills the bytecode cache

    def op(self, case, traced):
        argv = case.params["argv"]
        if traced:
            child = Child([PY, str(HERE / "cli_probe.py"), *argv], self.dir)
        else:
            child = Child([PY, "-m", "dwtlife.cli", *argv], self.dir)
            self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        self.last_ms = child.ms
        stdout, code = child.stdout, child.exit
        if traced and code == 0:
            probe = json.loads(stdout)
            stdout, code = probe["stdout"], probe["exit"]
            self.tracer.add("interpreter.start", child.start, probe["started"])
            for name, start, end in probe["spans"]:
                if name == "cli.run":
                    name = f"cli.run.{case.id.split('/')[0]}"
                self.tracer.add(name, start, end)
            self.tracer.add("interpreter.exit", probe["spans"][-1][2], child.end)
        return 1, self.check(case, code, stdout, child.stderr)

    def check(self, case, code, stdout, stderr):
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}"
        if stderr:
            return f"stderr not empty: {stderr.strip()[-200:]}"
        if case.id not in self.refs:
            return "no reference"
        return W.check_output(stdout, self.refs[case.id])

    def modules_loaded(self, case):
        """Modules a real cold run of case imports, from -X importtime."""
        child = Child([PY, "-X", "importtime", "-m", "dwtlife.cli", *case.params["argv"]], self.dir)
        lines = [ln for ln in child.stderr.splitlines() if ln.startswith("import time:")]
        other = [ln for ln in child.stderr.splitlines() if not ln.startswith("import time:")]
        error = self.check(case, child.exit, child.stdout, "\n".join(other))
        return len(lines) - 1, error  # minus the column header line


class McMttf:
    """In-process system.monte_carlo_mttf on generated topologies."""

    name = "mc_mttf"

    def __init__(self, refs_dir):
        self.refs = load_refs(refs_dir, self.name)
        self.strata = W.mc_strata()
        self.seen = {}  # case id -> (case, topology, mean, se)

    def setup(self):
        from dwtlife import system

        self.system = system
        self.op(self.strata[0][0], traced=False)

    def estimate(self, case):
        topo = self.system.topology_from_document(case.params["doc"])
        return (topo, *self.system.monte_carlo_mttf(topo, W.MC_SAMPLES, case.params["seed"]))

    def op(self, case, traced):
        start = time.perf_counter()
        topo, mean, se = self.estimate(case)
        self.last_ms = (time.perf_counter() - start) * 1000.0
        self.seen.setdefault(case.id, (case, topo, mean, se))
        ref = self.refs.get(case.id)
        if ref is None:
            return W.MC_SAMPLES, "no reference"
        if not W.rel_close(mean, ref["mean"], MC_REPRO_RTOL):
            return W.MC_SAMPLES, f"mean {mean!r} does not reproduce {ref['mean']!r}"
        return W.MC_SAMPLES, None

    def exact_failures(self) -> set[str]:
        """Case ids whose estimate lies beyond 5 SE of the quadrature MTTF."""
        bad = set()
        for case_id, (case, topo, mean, se) in self.seen.items():
            exact = W.exact_mttf(case.params["doc"], self.system.system_reliability_at, topo)
            if not abs(mean - exact) <= MC_EXACT_SIGMAS * se:
                print(f"{case_id}: mean {mean} is {abs(mean - exact) / se:.1f} SE from exact {exact}",
                      file=sys.stderr)
                bad.add(case_id)
        return bad


class Schedule:
    """In-process load_registry -> installation -> generate -> emit."""

    # schedule_horizon alternates its output format; schedule_logged is CSV only
    FORMATS = {"schedule_horizon": ("csv", "markdown"), "schedule_logged": ("csv",)}

    def __init__(self, name, refs_dir):
        self.name = name
        self.refs = load_refs(refs_dir, name)
        self.strata = W.STRATA[name]()
        self.formats = itertools.cycle(self.FORMATS[name])

    def setup(self):
        from dwtlife import presets, schedule
        from dwtlife.default_registry import DEFAULT_REGISTRY_DOC

        self.schedule, self.usage, self.doc = schedule, presets.DEFAULT_USAGE, DEFAULT_REGISTRY_DOC
        self.op(self.strata[0][0], traced=False, fmt="csv")

    def pipeline(self, case, fmt):
        s = self.schedule
        registry = s.load_registry(self.doc)
        install = s.installation_from_document(case.params["install"])
        entries = s.generate_schedule(registry, install, self.usage, case.params["horizon"])
        return entries, s.emit_report(entries, fmt)

    def op(self, case, traced, fmt=None):
        fmt = fmt or next(self.formats)
        start = time.perf_counter()
        entries, text = self.pipeline(case, fmt)
        self.last_ms = (time.perf_counter() - start) * 1000.0
        ref = self.refs.get(W.schedule_ref_key(case, fmt))
        if ref is None:
            return len(entries), "no reference"
        if len(entries) != ref["entries"] or W.sha256(text) != ref["sha256"]:
            return len(entries), f"{fmt} output differs from reference"
        return len(entries), None


def make(name, refs_dir, tracer):
    if name == "cli_cold":
        return CliCold(refs_dir, tracer)
    if name == "mc_mttf":
        return McMttf(refs_dir)
    return Schedule(name, refs_dir)


# ---------------------------------------------------------------------------
# tracing hooks around the program's public calls


def install_wrappers(tracer):
    from dwtlife import schedule, system

    tracer.wrap(system, "topology_from_document", "system.topology_from_document")
    tracer.wrap(system, "monte_carlo_mttf", "system.monte_carlo_mttf")
    tracer.wrap(system.LifeModel, "failure_times", "system.LifeModel.failure_times",
                lambda args, out: {"items": len(args[1])})
    tracer.wrap(schedule, "load_registry", "schedule.load_registry")
    tracer.wrap(schedule, "installation_from_document", "schedule.installation_from_document")
    tracer.wrap(schedule, "generate_schedule", "schedule.generate_schedule",
                lambda args, out: {"entries": len(out)})
    tracer.wrap(schedule, "emit_report", lambda args: f"schedule.emit_report.{args[1]}",
                lambda args, out: {"bytes": len(out.encode("utf-8"))})


class Ops:
    """Attempted/failed bookkeeping, shared by the loop and the trace sweep."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.count = 0
        self.failed_ops: set[int] = set()
        self.errors: set[str] = set()

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def next_op(self) -> int:
        self.count += 1
        return self.count - 1

    def run(self, wl, case, traced, **kwargs):
        op = self.tracer.op = self.next_op()
        self.tracer.active = traced
        try:
            with self.tracer.span("op") if traced else nullcontext():
                items, error = wl.op(case, traced, **kwargs)
        except Exception as exc:  # a failed op is counted, not fatal
            items, error = 0, f"{type(exc).__name__}: {exc}"
        finally:
            self.tracer.active = False
        self.record(op, case, error)
        return items, error

    def record(self, op, case, error):
        """Count op as failed if error is not None; print the first few errors."""
        if error is None:
            return
        self.failed_ops.add(op)
        if error not in self.errors and len(self.errors) < 5:
            print(f"perfbench: {case.id}: {error}", file=sys.stderr)
        self.errors.add(error)


# ---------------------------------------------------------------------------


def time_setup(args) -> float:
    """Median wall time of fresh processes that only do the set-up."""
    times = []
    for _ in range(SETUP_REPS):
        child = Child([PY, str(HERE / "run.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--refs", str(args.refs), "--setup-only"], ROOT)
        if child.exit != 0:
            raise SystemExit(f"perfbench: set-up failed: {child.stderr.strip()[-500:]}")
        times.append(child.ms / 1000.0)
    return statistics.median(times)


@dataclass
class Sample:
    case: W.Case
    ms: float
    items: int
    traced: bool
    op: int


def measure(args, wl, ops):
    """The closed loop. With tracing, each case runs traced and untraced,
    in alternating order, so that the pair gives the tracing overhead."""
    cases = W.strata_sequence(wl.strata, args.seed)
    samples = []
    deadline = time.perf_counter() + args.seconds
    while not samples or time.perf_counter() < deadline:
        case = next(cases)
        modes = ((True, False), (False, True))[len(samples) // 2 % 2] if args.trace else (False,)
        for traced in modes:
            gc.collect()  # untimed: no op pays for the garbage of the one before
            items, _ = ops.run(wl, case, traced)
            samples.append(Sample(case, wl.last_ms, items, traced, ops.count - 1))
    if isinstance(wl, McMttf):
        bad = wl.exact_failures()
        for sample in samples:
            if sample.case.id in bad:
                ops.record(sample.op, sample.case, "estimate beyond 5 SE of exact MTTF")
    return samples


def end_to_end(samples, wl, setup_s, ops):
    latencies = [s.ms for s in samples]
    if isinstance(wl, CliCold):
        peak = wl.peak_rss_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_p90": statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0],
        "items_per_s": sum(s.items for s in samples) / (sum(latencies) / 1000.0),
        "peak_rss_mb": peak,
        "setup_s": setup_s,
        "ok_share": (ops.count - ops.failed) / ops.count,
    }


def sweep(args, ops, tracer, main_wl):
    """Traced runs of every layer, so each per-layer metric has a value."""
    cli = main_wl if isinstance(main_wl, CliCold) else CliCold(args.refs, tracer)
    mc = main_wl if isinstance(main_wl, McMttf) else McMttf(args.refs)
    horizon = main_wl if main_wl.name == "schedule_horizon" else Schedule("schedule_horizon", args.refs)
    logged = main_wl if main_wl.name == "schedule_logged" else Schedule("schedule_logged", args.refs)
    for wl in {id(w): w for w in (cli, mc, horizon, logged)}.values():
        if wl is not main_wl:
            wl.setup()
    probes = W.strata_sequence(cli.strata, args.seed + 1)
    out = {}

    bare = [Child([PY, "-c", "pass"], ROOT).ms for _ in range(BARE_REPS)]
    out["interpreter.bare_ms"] = statistics.median(bare)
    loaded = []
    for stratum in cli.strata:
        count, error = cli.modules_loaded(stratum[0])
        ops.record(ops.next_op(), stratum[0], error)
        loaded.append(count)
        ops.run(cli, next(probes), traced=True)
    out["cli.modules_loaded"] = statistics.fmean(loaded)

    mc_cases = [s[args.seed % len(s)] for s in (mc.strata[0], mc.strata[4], mc.strata[-1])]
    for case in mc_cases:
        ops.run(mc, case, traced=True)
    peaks = []
    for case in mc_cases:
        tracemalloc.start()
        try:
            ops.run(mc, case, traced=False)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    out["system.mc_alloc_peak_mb"] = statistics.median(peaks)
    for fmt in ("csv", "markdown"):
        ops.run(horizon, horizon.strata[0][args.seed % 4], traced=True, fmt=fmt)
    ops.run(logged, logged.strata[0][args.seed % 4], traced=True, fmt="csv")
    return out


def per_layer(samples, tracer, extra):
    out = dict(extra)
    out["interpreter.exit_ms"] = tracer.median_ms("interpreter.exit")
    for module in MODULES:
        out[f"import.{module}_ms"] = tracer.median_ms(f"import.{module}")
    for family in W.CLI_FAMILIES:
        out[f"cli.run.{family}_ms"] = tracer.median_ms(f"cli.run.{family}")
    for name in ("system.topology_from_document", "system.monte_carlo_mttf",
                 "schedule.load_registry", "schedule.installation_from_document",
                 "schedule.generate_schedule"):
        out[f"{name}.ms"] = tracer.median_ms(name)
    mttf = tracer.per_op("system.monte_carlo_mttf")
    draws = tracer.per_op("system.LifeModel.failure_times")
    out["system.LifeModel.failure_times.ms"] = statistics.median(v["ms"] for v in draws.values())
    out["system.LifeModel.failure_times.calls"] = statistics.fmean(v["calls"] for v in draws.values())
    out["system.LifeModel.failure_times.items"] = statistics.fmean(v["items"] for v in draws.values())
    out["system.mc_rest.ms"] = statistics.median(mttf[op]["ms"] - draws[op]["ms"] for op in mttf)
    out["schedule.generate_schedule.entries"] = statistics.fmean(
        v["entries"] for v in tracer.per_op("schedule.generate_schedule").values())
    out["schedule.emit_report.csv_ms"] = tracer.median_ms("schedule.emit_report.csv")
    out["schedule.emit_report.markdown_ms"] = tracer.median_ms("schedule.emit_report.markdown")
    out["schedule.emit_report.bytes"] = statistics.fmean(
        v["bytes"] for name in ("csv", "markdown")
        for v in tracer.per_op(f"schedule.emit_report.{name}").values())

    out["trace.op_ms"] = statistics.median(s.ms for s in samples if s.traced)
    out["trace.untraced_op_ms"] = statistics.median(s.ms for s in samples if not s.traced)
    pairs = zip(samples[::2], samples[1::2])
    out["trace.overhead_ms"] = statistics.median(
        (a.ms - b.ms) if a.traced else (b.ms - a.ms) for a, b in pairs)
    # share of each traced op's latency spent inside the op span's direct children
    op_span = {s["op"]: i for i, s in enumerate(tracer.spans) if s["name"] == "op"}
    covered = defaultdict(float)
    for s in tracer.spans:
        if s["parent"] is not None and s["parent"] == op_span.get(s["op"]):
            covered[s["op"]] += (s["end"] - s["start"]) * 1000.0
    out["trace.covered_share"] = statistics.fmean(covered[s.op] / s.ms for s in samples if s.traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(W.STRATA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", type=Path, default=HERE / "refs",
                        help="directory of reference outputs (default: perfbench/refs)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dwtlife" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC}/dwtlife; run inside a dwtlife checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    tracer = Tracer()
    wl = make(args.workload, args.refs, tracer)
    if args.setup_only:
        wl.setup()
        return 0
    setup_s = None if args.trace else time_setup(args)
    if args.trace:
        install_wrappers(tracer)
    wl.setup()
    ops = Ops(tracer)
    samples = measure(args, wl, ops)
    if args.trace:
        extra = sweep(args, ops, tracer, wl)
        metrics = per_layer(samples, tracer, extra)
        tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(samples, wl, setup_s, ops)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(names) ^ set(metrics))} "
                         "differ from BENCHMARK.json")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.count,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for m in wanted:
        print(f"{args.workload} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
