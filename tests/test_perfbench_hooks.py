"""The names the benchmark harness reaches into the program by, and the
Monte Carlo estimates it checks.

perfbench/run.py wraps library functions by name and reads two data names,
and perfbench/cli_probe.py imports each module by name. A renamed one makes
every traced benchmark run fail; these tests catch it without running the
benchmark, and change nothing under perfbench/. Each mc_mttf run also checks
its mean against perfbench/refs/mc_mttf.json, so a drift in the Monte Carlo
path fails here first.
"""

import importlib
import sys
import tracemalloc
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    """perfbench/run.py as a module; its sibling imports are removed again afterwards."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("run", "workloads", "cli_probe", "tracing"):
            sys.modules.pop(name, None)


class RecordingTracer:
    """A stand-in Tracer: records each (owner, attr) it is asked to wrap and patches nothing."""

    def __init__(self):
        self.hooks = []

    def wrap(self, owner, attr, name, counts=None):
        self.hooks.append((owner, attr))


def test_every_probed_module_imports(harness):
    for name in harness.MODULES:  # run.py's import of cli_probe.MODULES
        importlib.import_module(name)


def test_every_wrapped_hook_exists(harness):
    tracer = RecordingTracer()
    harness.install_wrappers(tracer)
    assert tracer.hooks
    missing = [f"{owner.__name__}.{attr}" for owner, attr in tracer.hooks
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_schedule_workload_data_exists():
    from dwtlife import default_registry, presets
    from dwtlife.model import UsageProfile

    assert isinstance(presets.DEFAULT_USAGE, UsageProfile)
    assert default_registry.DEFAULT_REGISTRY_DOC["components"]


# one tree from each of four mc_mttf strata (8, 11, 13 and 16 leaves): two
# three levels deep, and the two with the most fixed lives
@pytest.mark.parametrize("case_id", ["n8/0", "n11/3", "n13/0", "n16/3"])
def test_monte_carlo_reproduces_the_benchmark_refs(harness, case_id):
    from dwtlife import system

    W = harness.W
    case = next(c for stratum in W.mc_strata() for c in stratum if c.id == case_id)
    topo = system.topology_from_document(case.params["doc"])
    mean, _ = system.monte_carlo_mttf(topo, W.MC_SAMPLES, case.params["seed"])
    want = harness.load_refs(PERFBENCH / "refs", "mc_mttf")[case_id]["mean"]
    assert W.rel_close(mean, want, harness.MC_REPRO_RTOL), (mean, want)


def test_monte_carlo_holds_its_need_in_chunk_buffers(harness, monkeypatch):
    """n8/0 is three group levels deep, so a fold in listed order would hold
    1 + 3 = 4 chunk buffers per worker; hungriest child first it holds its
    need of 3."""
    from dwtlife import system

    W = harness.W
    case = next(c for stratum in W.mc_strata() for c in stratum if c.id == "n8/0")
    topo = system.topology_from_document(case.params["doc"])
    monkeypatch.setattr(system, "_worker_count", lambda: 2)
    system.monte_carlo_mttf(topo, 4 * system._CHUNK, 1)  # first-use imports outside the trace
    tracemalloc.start()
    try:
        system.monte_carlo_mttf(topo, W.MC_SAMPLES, case.params["seed"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2 * 3 * system._CHUNK * 8
