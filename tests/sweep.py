"""The 23-value edge sweep of the CLI, run in process through regen.run_case.

Every float or quantity flag of each golden argv (regen.CASES, --help pages left out) is
set in turn to each of VALUES; a flag the argv leaves out is added. For each command the
sweep counts the distinct argvs that exit 2 with a reason line naming no quantity (one of
regen.ANONYMOUS) and those that exit 0 and print a nonzero number below the smallest
normal double. It asserts nothing, and tier-1 does not collect it. Run it from the
repository root with

    PYTHONPATH=src python tests/sweep.py
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402

from dwtlife import cli  # noqa: E402

VALUES = (*regen.EDGE_VALUES,
          *"1 1.5 2 90 100 180 0.5 1e-320 1e-200 1e200 1e-150 1e150".split())
EXPONENT_NUMBER = re.compile(r"\d(?:\.\d*)?e-\d+")


def probes() -> dict:
    """(command path, options) of each distinct swept argv, keyed by the argv."""
    swept = {}
    for argv, options in regen.CASES.values():
        path = next((p for p in cli.COMMANDS if argv[:len(p.split())] == p.split()), None)
        if path is None or "--help" in argv:
            continue
        for flag, spec in cli.COMMANDS[path][2].items():
            if spec.get("type") is not float and "dim" not in spec:
                continue
            for value in VALUES:
                swept.setdefault(tuple(regen.set_flag(argv, flag, value)), (path, options))
    return swept


def prints_a_subnormal(out: str) -> bool:
    return any(0 < float(n) < sys.float_info.min for n in EXPONENT_NUMBER.findall(out))


def main() -> None:
    anonymous, subnormal, hangs = Counter(), Counter(), Counter()
    swept = probes()
    for argv, (path, options) in swept.items():
        try:
            code, out, err = regen.run_case(list(argv), options)
        except regen.Hang:
            hangs[path] += 1
            continue
        if code == 2 and any(text in err for text in regen.ANONYMOUS):
            anonymous[path] += 1
        if code == 0 and prints_a_subnormal(out):
            subnormal[path] += 1
    print(f"{'command':<20} {'anonymous':>9} {'subnormal':>9} {'hang':>4}")
    for path in sorted(anonymous.keys() | subnormal.keys() | hangs.keys()):
        print(f"{path:<20} {anonymous[path]:>9} {subnormal[path]:>9} {hangs[path]:>4}")
    print(f"{f'total of {len(swept)}':<20} {sum(anonymous.values()):>9} "
          f"{sum(subnormal.values()):>9} {sum(hangs.values()):>4}")


if __name__ == "__main__":
    main()
