"""Each entry of tests/mutants.py applies: its old text occurs once in its file and differs from its new."""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, file, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_each_mutant_applies_exactly_once(name, file, old, new):
    assert old != new
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1
