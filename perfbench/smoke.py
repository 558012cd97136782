"""Smoke test of the benchmark itself, on one-second runs.

    python3 perfbench/smoke.py

Checks that:
- every workload run.py accepts, untraced and traced, prints every metric of
  BENCHMARK.json by name with its unit, and no op fails;
- references that no longer match drive ok_share to 0 (every op failed);
- outside a checkout (only BENCHMARK.json and perfbench/ present) the
  benchmark exits non-zero and prints no result;
- compare.py gives the verdicts its rule promises on made-up runs.

Exits 0 when all hold; prints each failed check and exits 1 otherwise.
It writes only under perfbench/.work/. It is not part of the repository's
pytest suite, because it takes about a minute and times things.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from collect import HERE, ROOT
from compare import verdict
from workloads import STRATA

WORK = HERE / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# every workload run.py accepts, also those BENCHMARK.json leaves out
WORKLOADS = tuple(STRATA)
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(root, workload, trace=0, *extra):
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=300)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def check_metrics(workload):
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        got = result(bench(ROOT, workload, trace))
        expect(got is not None and set(got) == {"correct", "attempted", "failed", "metrics"},
               f"{workload} trace={trace}: one JSON result with the four keys")
        if got is None:
            continue
        expect(got["correct"] and got["failed"] == 0 and got["attempted"] >= 1,
               f"{workload} trace={trace}: {got['attempted']} ops, none failed")
        names = {m["name"]: m["unit"] for m in wanted}
        expect({k: v["unit"] for k, v in got["metrics"].items()} == names,
               f"{workload} trace={trace}: all {len(names)} metrics, each with its unit")
        expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                   for v in got["metrics"].values()),
               f"{workload} trace={trace}: every value a finite number")


def corrupt(ref):
    if "numbers" in ref:
        return {**ref, "numbers": [n * 1.001 + 1 for n in ref["numbers"]]}
    if "mean" in ref:
        return {**ref, "mean": ref["mean"] * (1 + 1e-9)}
    return {**ref, "sha256": "0" * 64}


def check_corrupted_refs():
    bad = WORK / "corrupt-refs"
    bad.mkdir(parents=True, exist_ok=True)
    for path in (HERE / "refs").glob("*.json"):
        refs = json.loads(path.read_text(encoding="utf-8"))
        (bad / path.name).write_text(json.dumps({k: corrupt(v) for k, v in refs.items()}))
    for workload in WORKLOADS:
        got = result(bench(ROOT, workload, 0, "--refs", str(bad)))
        expect(got is not None and not got["correct"] and got["failed"] == got["attempted"]
               and got["metrics"]["ok_share"]["value"] == 0.0,
               f"{workload}: corrupted references fail every op (ok_share 0)")


def check_outside_checkout():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, SPEC["workloads"][0]["name"])
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without src/dwtlife: non-zero exit and no result")
    shutil.rmtree(bare)


def check_compare():
    pairs = lambda old, new: list(zip(old, new))  # noqa: E731
    old = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [v * 0.8 for v in old]
    slower = [v * 1.2 for v in old]
    expect(verdict(old, faster, "lower", 0.1, pairs(old, faster)) == "better", "compare: better")
    expect(verdict(old, slower, "lower", 0.1, pairs(old, slower)) == "worse", "compare: worse")
    expect(verdict(old, list(old), "lower", 0.1, pairs(old, old)) == "unchanged",
           "compare: unchanged")
    noisy = [50.0, 150.0] * 5
    expect(verdict(noisy, [v * 0.95 for v in noisy], "lower", 0.1,
                   pairs(noisy, [v * 0.95 for v in noisy])) == "unresolved", "compare: unresolved")


def main() -> int:
    check_compare()
    for workload in WORKLOADS:
        check_metrics(workload)
    check_corrupted_refs()
    check_outside_checkout()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
