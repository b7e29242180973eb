"""Byte-for-byte CLI output at p = 3 and p = 5, against files saved from an
earlier commit, so that refactors cannot change what the program prints."""

import json
from pathlib import Path

import pytest

from p4groups.classify import ClassifyConfig, candidate_types
from p4groups.cli import main

GOLDEN = Path(__file__).parent / "golden"
BENCH_REFERENCE = Path(__file__).parent.parent / "p4bench" / "reference"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["classify", "--p", "3", "--format", "json"], "classify-p3.json"),
        (["classify", "--p", "3", "--format", "csv"], "classify-p3.csv"),
        (["tables", "--p", "3"], "tables-p3.txt"),
        (["verify", "--p", "3", "--seed", "0"], "verify-p3.txt"),
    ],
)
def test_output_matches_golden(capsys, argv, name):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def test_classify_p5_matches_benchmark_reference(capsys):
    """The benchmark's correctness gate for classify-p5, read-only."""
    assert main(["classify", "--p", "5", "--format", "json"]) == 0
    want = (BENCH_REFERENCE / "classify-p5.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_iso_witness_matches_golden(capsys, tmp_path):
    """The first witness of the depth-first search for one p = 5 merge: a
    change to the order in which candidates are tried changes it."""
    cands = {c.label: c for c in candidate_types(ClassifyConfig.for_prime(5))}
    paths = []
    for label in ("2x2-r2-v-e2", "2x2-r3-v-e2"):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(cands[label].ext.to_json_dict()), encoding="utf-8")
        paths.append(str(path))
    assert main(["iso", *paths]) == 0
    want = (GOLDEN / "iso-p5-r2-v-e2-r3-v-e2.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
