"""Compare two results files written by ``collect.py``.

    python3 perfbench/compare.py PARENT.json CHANGE.json

For each workload and metric it prints both sides' median and quartiles
and a verdict:

- better: the change wins at least 9 of 10 pairs (runs paired in the order
  collect.py made them, which is seed order; ties count for neither) and
  the medians differ by more than the parent's own spread, q3 - q1;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (per-layer metrics, which have no bound: the mirror image
  of "better");
- unresolved: the parent's spread is wider than the bound (no bound: wider
  than the difference is not), unless every run of the change is better
  than every run of the parent;
- unchanged: otherwise.

Exit code 1 if any end-to-end metric is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from collect import ROOT, quartiles


def verdict(parent: list[float], change: list[float], better: str, bound: float | None,
            pairs: list[tuple[float, float]]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1, mid, q3 = quartiles(parent)
    spread = q3 - q1
    gain = sign * (statistics.median(change) - mid)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    all_better = all(sign * c > sign * p for c in change for p in parent)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse"
        return "unchanged" if abs(gain) <= spread else "unresolved"
    if -gain > bound * abs(mid):
        return "worse"
    if spread > bound * abs(mid) and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for side, results in (("parent", parent), ("change", change)):
        print(f"{side}: {results['machine']}")
    print(f"{'workload':<17} {'metric':<40} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  verdict")
    regressed = False
    for workload, old_runs in parent["runs"].items():
        new_runs = change["runs"].get(workload)
        if not new_runs:
            print(f"{workload}: no runs in {argv[1]}")
            continue
        for name in old_runs[0]["metrics"]:
            if name not in metrics or name not in new_runs[0]["metrics"]:
                continue
            old = [r["metrics"][name] for r in old_runs]
            new = [r["metrics"][name] for r in new_runs]
            pairs = list(zip(old, new))
            spec_m = metrics[name]
            v = verdict(old, new, spec_m["better"], spec_m.get("bound"), pairs)
            regressed |= v == "worse" and "bound" in spec_m
            o1, om, o3 = quartiles(old)
            n1, nm, n3 = quartiles(new)
            print(f"{workload:<17} {name:<40} {om:12.6g} [{o1:9.4g}, {o3:9.4g}] "
                  f"{nm:12.6g} [{n1:9.4g}, {n3:9.4g}]  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
