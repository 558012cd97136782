"""Run the benchmark over several seeds and keep every result in one file.

    python3 perfbench/collect.py [--workloads cli_cold,mc_mttf] [--seeds 1-10]
                                 [--seconds S] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per (seed, workload), seeds in the outer loop so that
slow drift of the machine spreads over all workloads, and writes a results
file with the machine description and every run's metrics (default
``perfbench/.work/results-<time>.json``). It then prints, for every metric,
the median, the quartiles and the spread (q3 - q1) / median next to a
third of the metric's bound; ``compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def machine() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(results: dict, spec: dict) -> list[str]:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'workload':<17} {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>7} {'bound/3':>7}  unit"]
    for workload, runs in results["runs"].items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wall = sum(r["wall_s"] for r in runs) / len(runs)
        lines.append(f"{workload}: {len(runs)} runs, {failed} of {attempted} ops failed, "
                     f"{wall:.1f} s per run")
        for name in runs[0]["metrics"]:
            q1, med, q3 = quartiles([r["metrics"][name] for r in runs])
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            third = f"{bound / 3:7.3f}" if bound is not None else " " * 7
            flag = " !" if bound is not None and name != "setup_s" and spread > bound / 3 else ""
            lines.append(f"{workload:<17} {name:<40} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                         f"{spread:7.3f} {third}  {units.get(name, '')}{flag}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    out = args.out or HERE / ".work" / f"results-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    results = {"machine": machine(), "seconds": args.seconds, "trace": args.trace,
               "runs": {w: [] for w in args.workloads.split(",")}}
    for seed in parse_seeds(args.seeds):
        for workload in results["runs"]:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            started = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            results["runs"][workload].append({
                "seed": seed, "correct": last["correct"], "attempted": last["attempted"],
                "failed": last["failed"], "wall_s": wall,
                "metrics": {k: v["value"] for k, v in last["metrics"].items()}})
            print(f"{workload} seed {seed}: {last['attempted']} ops, {last['failed']} failed, "
                  f"{wall:.1f} s",
                  file=sys.stderr, flush=True)
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(results, handle, indent=1)
    print("\n".join(summary(results, spec)))
    print(f"results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
