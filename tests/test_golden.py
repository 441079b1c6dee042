"""Every golden case reproduces its recorded entry (see tests/golden.py)."""

import json

import pytest

import golden


def _recorded(name):
    with open(golden.entry_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_files_match_cases():
    on_disk = sorted(p.stem for p in golden.GOLDEN_DIR.glob("*.json"))
    assert on_disk == sorted(golden.CASES)


@pytest.mark.parametrize("name", list(golden.CASES))
def test_golden_entry_reproduces(name):
    assert golden.record(golden.CASES[name]()) == _recorded(name)
