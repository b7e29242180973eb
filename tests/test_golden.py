"""Byte-for-byte CLI output at p = 3, 5 and 7, against files saved from an
earlier commit, so that refactors cannot change what the program prints.
The p = 7 files are checked in the slow tier (``-m slow``)."""

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
        (["verify", "--p", "5", "--seed", "0"], "verify-p5.txt"),
        pytest.param(["classify", "--p", "7", "--format", "json"], "classify-p7.json",
                     marks=pytest.mark.slow),
        (["classify", "--p", "3", "--format", "table"], "classify-p3.txt"),
        (["tables", "--p", "5"], "tables-p5.txt"),
        pytest.param(["classify", "--p", "7", "--format", "table"], "classify-p7.txt",
                     marks=pytest.mark.slow),
        pytest.param(["tables", "--p", "7"], "tables-p7.txt", marks=pytest.mark.slow),
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


def check_iso_witness(capsys, tmp_path, p):
    """The first witness of the depth-first search for the merge of
    2x2-r2-v-e2 with 2x2-r3-v-e2: a change to the order in which candidates
    are tried changes it."""
    cands = {c.label: c for c in candidate_types(ClassifyConfig.for_prime(p))}
    paths = []
    for label in ("2x2-r2-v-e2", "2x2-r3-v-e2"):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(cands[label].ext.to_json_dict()), encoding="utf-8")
        paths.append(str(path))
    assert main(["iso", *paths]) == 0
    want = (GOLDEN / f"iso-p{p}-r2-v-e2-r3-v-e2.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_iso_witness_matches_golden(capsys, tmp_path):
    check_iso_witness(capsys, tmp_path, 5)


@pytest.mark.slow
def test_iso_witness_matches_golden_p7(capsys, tmp_path):
    check_iso_witness(capsys, tmp_path, 7)
