"""The argv grammar built from cli.COMMANDS: which flags each subcommand takes, and fuzzing.

Every argv must end with exit code 0, 1 or 2 and no traceback, and a
successful run prints only finite numbers.
"""

import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from dwtlife import cli

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402

INPUTS = regen.INPUTS

# The shared flags each subcommand reads; any other shared flag is a usage error.
SHARED_FLAGS_READ = {
    **{path: {"units", "json"} for path in (
        "fatigue endurance", "fatigue sn", "fatigue life", "blade bending", "blade torsion",
        "blade life", "tower column", "tower life", "ballast", "aero torque", "aero sweep",
    )},
    **{path: {"json"} for path in (
        "aero betz", "weibull fit", "weibull cdf", "weibull quantile", "weibull hazard",
    )},
    **{path: {"json", "config"} for path in (
        "bearing life", "system reliability", "system life", "schedule rul",
    )},
    "weibull sample": {"json", "seed", "samples"},
    "system mttf": {"json", "seed", "samples", "config"},
    "schedule generate": {"json", "config", "format"},
    "schedule report": {"format"},
}
# Each shared flag with a value it would accept.
SHARED_ARGS = {
    "units": ["si"], "json": [], "seed": ["1"], "samples": ["100"], "config": ["c.json"],
    "format": ["csv"],
}
UNREAD = [
    (path, flag) for path, read in SHARED_FLAGS_READ.items() for flag in SHARED_ARGS
    if flag not in read
]


def required_flags(path):
    _, _, flags = cli.COMMANDS[path]
    return [text for flag, spec in flags.items() if spec.get("required") for text in (flag, "1")]


class TestSharedFlags:
    def test_each_subcommand_takes_only_the_shared_flags_it_reads(self):
        assert {path: set(row[1]) for path, row in cli.COMMANDS.items()} == SHARED_FLAGS_READ
        assert sum(map(len, SHARED_FLAGS_READ.values())) == 46
        assert len(UNREAD) == 98

    @pytest.mark.parametrize("path, flag", UNREAD, ids=lambda v: v.replace(" ", "_"))
    def test_unread_shared_flag_is_a_usage_error(self, path, flag):
        argv = [*path.split(), *required_flags(path), f"--{flag}", *SHARED_ARGS[flag]]
        code, out, err = regen.run_cli(argv)
        assert (code, out) == (1, "")
        assert f"error: unrecognized arguments: --{flag}" in err


# Flag values: numbers at and past the edges of double precision, quantities,
# text, every golden input file and a missing file. --samples and --horizon
# stay small, because run time grows with them.
POOL = [
    "0", "-1", "0.5", "37", "1e-308", "1e308", str(2**128), "nan", "inf", "-inf",
    "58ksi", "1 parsec", "x", "2025-01-01", "Generator",
    *sorted(str(path) for path in INPUTS.glob("*.json")), str(INPUTS / "missing.json"),
]
LIMITS = {"--samples": 1e4, "--horizon": 50}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _at_most(text, limit):
    try:
        return float(text) <= limit
    except ValueError:
        return True


@st.composite
def argvs(draw):
    """A subcommand with its required flags, some optional ones, and values from POOL."""
    path = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, shared, flags = cli.COMMANDS[path]
    argv = path.split()
    for flag, spec in {**{f"--{name}": cli._SHARED[name] for name in shared}, **flags}.items():
        if not (spec.get("required") or draw(st.booleans())):
            continue
        if spec.get("action") == "store_true":
            argv.append(flag)
        elif "choices" in spec:
            argv += [flag, draw(st.sampled_from(spec["choices"]))]
        else:
            pool = [v for v in POOL if _at_most(v, LIMITS.get(flag, float("inf")))]
            argv += [flag, draw(st.sampled_from(pool))]
    return argv


@settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(argvs())
def test_argv_fuzz(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = regen.run_cli(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        assert not NON_FINITE.search(out), (argv, out)


# Words an argv is drawn from: every family, subcommand and flag name, help
# flags, words argparse reads as positionals although they start with "-",
# and flag values.
_FLAGS = sorted({flag for _, _, flags in cli.COMMANDS.values() for flag in flags}
                | {f"--{name}" for name in cli._SHARED})
_NAMES = sorted({word for path in cli.COMMANDS for word in path.split()})
WORDS = [*_NAMES, *_FLAGS, "-h", "--help", "--he", "-", "--", "-5", "", "nope", "--nope",
         "--sut=58ksi", "0.5", "37", "2025-01-01", "Generator",
         str(INPUTS / "topology.json"), str(INPUTS / "bearing.json")]


@st.composite
def loose_argvs(draw):
    """A subcommand path and any words, in order or shuffled, or the words alone."""
    path = draw(st.sampled_from(sorted(cli.COMMANDS))).split()
    words = draw(st.lists(st.sampled_from(WORDS), max_size=6))
    shape = draw(st.sampled_from(("in order", "shuffled", "words alone")))
    if shape == "words alone":
        return words
    return path + words if shape == "in order" else draw(st.permutations(path + words))


@settings(
    max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(loose_argvs())
def test_leaf_parser_answers_as_the_whole_parser(argv):
    leaf = regen.run_cli(argv)
    with mock.patch.object(cli, "_build_parser", lambda _argv: oracles.whole_parser()):
        whole = regen.run_cli(argv)
    assert leaf == whole, argv
