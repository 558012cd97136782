"""Record the reference outputs that every benchmark op is checked against.

    python3 perfbench/record_refs.py

Runs every pool case of every workload once on the program in ``src/`` and
writes ``perfbench/refs/<workload>.json``. Run it only on a commit whose
outputs are known good; the committed refs come from the seed commit. It
refuses to write anything if a CLI case fails or a Monte Carlo estimate
lies beyond 5 standard errors of the quadrature MTTF.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as W
from tracing import Tracer


def record_cli() -> dict:
    cli = run.CliCold(None, Tracer())
    cli.setup()
    refs = {}
    for case in (c for stratum in cli.strata for c in stratum):
        child = run.Child([run.PY, "-m", "dwtlife.cli", *case.params["argv"]], cli.dir)
        if child.exit != 0 or child.stderr:
            raise SystemExit(f"{case.id} {case.params['argv']}: exit {child.exit}: {child.stderr}")
        refs[case.id] = W.output_ref(child.stdout)
    return refs


def record_mc() -> dict:
    mc = run.McMttf(None)
    mc.setup()
    refs = {}
    for case in (c for stratum in mc.strata for c in stratum):
        topo, mean, se = mc.estimate(case)
        exact = W.exact_mttf(case.params["doc"], mc.system.system_reliability_at, topo)
        if not abs(mean - exact) <= run.MC_EXACT_SIGMAS * se:
            raise SystemExit(f"{case.id}: mean {mean} is {abs(mean - exact) / se:.2f} SE from {exact}")
        refs[case.id] = {"mean": mean, "se": se, "exact": exact}
    return refs


def record_schedule(name: str) -> dict:
    wl = run.Schedule(name, None)
    wl.setup()
    refs = {}
    for case in (c for stratum in wl.strata for c in stratum):
        for fmt in wl.FORMATS[name]:
            entries, text = wl.pipeline(case, fmt)
            refs[W.schedule_ref_key(case, fmt)] = {"sha256": W.sha256(text), "entries": len(entries)}
    return refs


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    recorded = {
        "cli_cold": record_cli(),
        "mc_mttf": record_mc(),
        "schedule_horizon": record_schedule("schedule_horizon"),
        "schedule_logged": record_schedule("schedule_logged"),
    }
    out = run.HERE / "refs"
    out.mkdir(exist_ok=True)
    for name, refs in recorded.items():
        with open(out / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(refs, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{name}: {len(refs)} references")


if __name__ == "__main__":
    main()
