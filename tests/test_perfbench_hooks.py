"""The names the benchmark harness reaches into the program by.

perfbench/run.py wraps library functions by name and reads two data names,
and perfbench/cli_probe.py imports each module by name. A renamed one makes
every traced benchmark run fail; these tests catch it without running the
benchmark, and change nothing under perfbench/.
"""

import importlib
import sys
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
