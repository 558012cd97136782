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
