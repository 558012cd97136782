"""Traced stand-in for one cold ``python -m dwtlife.cli ARGV`` process.

Imports numpy and then each dwtlife module one by one in dependency order,
timing each import, then runs ``dwtlife.cli.run(ARGV)`` with stdout
captured. Prints one JSON object: the spans (absolute perf_counter times),
the exit code and the captured stdout. Usage:

    PYTHONPATH=src python3 perfbench/cli_probe.py ARGV...
"""

import time

STARTED = time.perf_counter()

import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

# Each module's dependencies come before it, so each import times that
# module's own body only.
MODULES = (
    "numpy",
    "dwtlife.errors", "dwtlife.units", "dwtlife.model", "dwtlife.fatigue",
    "dwtlife.structural", "dwtlife.rotor", "dwtlife.bearing", "dwtlife.weibull",
    "dwtlife.system", "dwtlife.schedule", "dwtlife.default_registry",
    "dwtlife.presets", "dwtlife.cli",
)


def main() -> None:
    spans = []
    for name in MODULES:
        start = time.perf_counter()
        importlib.import_module(name)
        spans.append(["import." + name, start, time.perf_counter()])
    cli = sys.modules["dwtlife.cli"]
    captured = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(captured):
        code = cli.run(sys.argv[1:])
    spans.append(["cli.run", start, time.perf_counter()])
    print(json.dumps({"started": STARTED, "spans": spans, "exit": code,
                      "stdout": captured.getvalue()}))


if __name__ == "__main__":
    main()
