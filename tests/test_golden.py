"""Byte-for-byte CLI output at p = 3, against files saved from an earlier
commit, so that refactors cannot change what the program prints."""

from pathlib import Path

import pytest

from p4groups.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["classify", "--p", "3", "--format", "json"], "classify-p3.json"),
        (["classify", "--p", "3", "--format", "csv"], "classify-p3.csv"),
        (["tables", "--p", "3"], "tables-p3.txt"),
    ],
)
def test_output_matches_golden(capsys, argv, name):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
