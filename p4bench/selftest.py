"""Self-test of the benchmark's known-answer checks.

    python3 p4bench/selftest.py

Each check must accept a genuine output and reject a wrong one: a flipped
iso verdict, a corrupted witness entry, a changed class count and a failed
verify check.  Genuine iso outputs come from real CLI calls at p = 5, which
take a few seconds; their type files go to p4bench/out/selftest/.  The
classify output is the saved reference.  Exits 1 if any check accepts a
wrong output or rejects a genuine one.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))
from workloads import (  # noqa: E402
    REFERENCE_DIR,
    VERIFY_P3_CHECKS,
    check_classify,
    check_iso,
    check_verify,
    iso_calls,
    oracle_types,
)


def cli_output(argv: list[str]) -> tuple[int, str]:
    from p4groups.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def main() -> int:
    cases: list[tuple[str, bool, tuple[int, list[str]]]] = []

    reference = (REFERENCE_DIR / "classify-p5.json").read_text(encoding="utf-8")
    check = check_classify(reference)
    changed = json.loads(reference)
    changed["counts"] = {"abelian": 5, "nonabelian": 9, "total": 14}
    cases += [
        ("classify: reference output", True, check(0, reference)),
        ("classify: changed class count", False, check(0, json.dumps(changed, indent=2) + "\n")),
        ("classify: class data changed, counts kept", False,
         check(0, reference.replace('"merged_labels": []', '"merged_labels": ["x"]', 1))),
        ("classify: failing exit code", False, check(1, reference)),
    ]

    ok_lines = "".join(f"[ok] {name}\n" for name in VERIFY_P3_CHECKS) + "13/13 checks passed\n"
    cases += [
        ("verify: all checks ok", True, check_verify(0, ok_lines)),
        ("verify: one check failed", False,
         check_verify(1, ok_lines.replace("[ok] group-axioms", "[FAIL] group-axioms — G: x"))),
        ("verify: one check missing", False,
         check_verify(0, ok_lines.replace("[ok] power-norm-law\n", ""))),
    ]

    negative, positive = iso_calls(oracle_types(5, seed=1), [False, True], BENCH_DIR / "out" / "selftest")
    neg_code, neg_out = cli_output(negative.argv)
    pos_code, pos_out = cli_output(positive.argv)
    other = list(oracle_types(5, seed=2).values())
    answer = json.loads(pos_out)
    witness = answer["witness"]
    swapped = witness.copy()
    swapped[1], swapped[2] = swapped[2], swapped[1]
    repeated = witness.copy()
    repeated[5] = repeated[6]
    cases += [
        ("iso: genuine negative verdict", True, negative.check(neg_code, neg_out)),
        ("iso: genuine positive verdict and witness", True, positive.check(pos_code, pos_out)),
        ("iso: flipped negative verdict", False,
         negative.check(0, json.dumps({"isomorphic": True, "witness": witness}))),
        ("iso: flipped positive verdict", False,
         positive.check(3, json.dumps({"isomorphic": False, "witness": None}))),
        ("iso: witness entries swapped", False,
         positive.check(0, json.dumps({"isomorphic": True, "witness": swapped}))),
        ("iso: witness entry repeated", False,
         positive.check(0, json.dumps({"isomorphic": True, "witness": repeated}))),
        ("iso: witness checked against another transform", False,
         check_iso(True, *other[2:])(pos_code, pos_out)),
    ]

    bad = 0
    for name, should_pass, (attempted, problems) in cases:
        passed = not problems
        good = passed == should_pass and attempted >= 1
        bad += not good
        verdict = "accepted" if passed else f"rejected ({problems[0]})"
        print(f"{'ok  ' if good else 'FAIL'} {name}: {verdict}")
    print(f"{len(cases) - bad}/{len(cases)} self-test cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
