"""Byte-for-byte check of the golden CLI corpus in tests/golden/."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_golden_output(name):
    expected = (regen.EXPECTED / f"{name}.txt").read_bytes()
    assert regen.render(name) == expected


def test_a_hang_fails_its_case_and_names_the_argv(monkeypatch):
    from dwtlife import cli

    def never_ends(args):
        while True:
            pass

    monkeypatch.setitem(cli.COMMANDS, "aero betz", (never_ends, *cli.COMMANDS["aero betz"][1:]))
    with pytest.raises(regen.Hang, match=r"^no result within 0.05 s: dwtlife aero betz --a0 0$"):
        regen.run_cli(["aero", "betz", "--a0", "0"], limit=0.05)


def test_no_reason_line_is_a_python_detail():
    """Each expected stderr is the package's own reason: no call signature of a Python
    constructor and no float error that names no quantity."""
    details = ("__init__()", "Numerical result out of range", "float division by zero")
    offenders = [(path.name, detail) for path in sorted(regen.EXPECTED.glob("*.txt"))
                 for detail in details
                 if detail in path.read_text(encoding="utf-8").partition("\n--- stderr\n")[2]]
    assert offenders == []


def test_every_input_is_named_by_a_case():
    """No orphan input: each file in inputs/ is an argv word, stdin or env value of a case."""
    named = {
        word
        for argv, options in regen.CASES.values()
        for word in (*argv, options.get("stdin"), *options.get("env", {}).values())
    }
    assert {path.name for path in regen.INPUTS.iterdir()} - named == set()


def test_every_expected_file_has_a_case():
    """No orphan output: each expected/*.txt is rendered by a case of the same name."""
    assert {path.stem for path in regen.EXPECTED.glob("*.txt")} - set(regen.CASES) == set()
