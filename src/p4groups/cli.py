"""Command-line interface.

Subcommands: classify, construct, iso, tables, verify.  Exit codes: 0 for
success (for iso: isomorphic), 1 for validation or internal failures, 2 for
usage errors, 3 for a certified negative isomorphism answer.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .classify import (
    ClassificationError,
    ClassifyConfig,
    candidate_types,
    classify_p4,
    render_table1,
    render_table2,
)
from .extension import ExtensionType, build_group
from .groups import MAX_TABLE_ORDER, FiniteGroup, fingerprint, isomorphic, order_census
from .residues import MAX_PRIME
from .verification import run_verification_suite

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NOT_ISOMORPHIC = 3

CLASSIFY_GUARD = 7  # classify keeps 10 tables of p^8 two-byte entries: 4.3 GB at p = 11


class CliError(Exception):
    """Ends a command with one ``error:`` line on stderr and the given exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _guarded_config(args: argparse.Namespace) -> ClassifyConfig:
    """Config for ``--p`` of classify, tables and verify, behind the p guard.

    The guard comes first, so an oversized ``--p`` is rejected before any
    primality or residue work is done on it.  ``--force`` reaches only the
    primes whose p^4 elements fit a table; a p below 1 or above MAX_PRIME is
    left to ``for_prime``, which says what is wrong with it.
    """
    if args.p > CLASSIFY_GUARD and not args.force:
        raise CliError(
            f"{args.command} above p={CLASSIFY_GUARD} exceeds the runtime guard; "
            "pass --force to run anyway",
            EXIT_USAGE,
        )
    if 0 < args.p <= MAX_PRIME and args.p**4 > MAX_TABLE_ORDER:
        raise CliError(f"p={args.p}: {_over_limit(args.p**4)}", EXIT_USAGE)
    try:
        return ClassifyConfig.for_prime(args.p)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc


def _guarded_group(path: str, force: bool) -> FiniteGroup:
    """Load and build the group of a type file, behind the size guard."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            ext = ExtensionType.from_json_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        raise CliError(f"{path}: {exc}", EXIT_FAILURE) from exc
    if ext.group_order > CLASSIFY_GUARD ** 4 and not force:
        raise CliError(
            f"materializing a group of order {ext.group_order} exceeds the "
            "runtime guard; pass --force to run anyway",
            EXIT_USAGE,
        )
    if ext.group_order > MAX_TABLE_ORDER:
        raise CliError(f"{path}: {_over_limit(ext.group_order)}", EXIT_USAGE)
    return build_group(ext)


def _over_limit(order: int) -> str:
    return f"a group of order {order} exceeds the table limit of {MAX_TABLE_ORDER} elements"


def _csv_cell(value: object) -> str:
    if isinstance(value, list):
        return "|".join(map(str, value))
    return str(value).lower()


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = _guarded_config(args)
    try:
        result = classify_p4(cfg, candidate_types(cfg))
    except ClassificationError as exc:
        print(f"classification failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    if args.format == "json":
        print(json.dumps(result.to_json_dict(), indent=2))
    elif args.format == "csv":
        rows = [(cls.label, cls.fingerprint.to_json_dict()) for cls in result.classes]
        print(",".join(["label", *rows[0][1]]))
        for label, fp in rows:
            print(",".join([label, *map(_csv_cell, fp.values())]))
    else:
        print(f"groups of order {args.p}^4 = {args.p ** 4}")
        for cls in result.classes:
            fp = cls.fingerprint
            merged = f"  (merged: {', '.join(cls.merged_labels)})" if cls.merged_labels else ""
            center = "x".join(f"C{d}" for d in reversed(fp.center_invariants)) or "1"
            print(
                f"  {cls.label:24s} center={center:12s} "
                f"#order<=p={fp.census_le_p}{merged}"
            )
        print(
            f"total: {result.total} classes "
            f"({result.abelian_count} abelian, {result.nonabelian_count} nonabelian)"
        )
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    group = _guarded_group(args.type, args.force)

    out = sys.stdout
    if args.out:
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise CliError(str(exc), EXIT_FAILURE) from exc
    try:
        if args.emit == "cayley":
            print(group.size, file=out)
            for row in group.cayley_rows():
                print(",".join(map(str, row)), file=out)
        elif args.emit == "census":
            print(json.dumps({str(k): v for k, v in order_census(group).items()}), file=out)
        else:
            print(json.dumps(fingerprint(group).to_json_dict(), indent=2), file=out)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_iso(args: argparse.Namespace) -> int:
    groups = [_guarded_group(path, args.force) for path in (args.file_a, args.file_b)]
    ok, witness = isomorphic(groups[0], groups[1])
    print(json.dumps({"isomorphic": ok, "witness": witness}))
    return EXIT_OK if ok else EXIT_NOT_ISOMORPHIC


def cmd_tables(args: argparse.Namespace) -> int:
    cfg = _guarded_config(args)
    try:
        tables = [render_table1(cfg), render_table2(cfg)]
    except ClassificationError as exc:
        print(f"classification failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print("\n\n".join(tables))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _guarded_config(args)
    results = run_verification_suite(cfg)
    failed = 0
    for check in results:
        status = "ok" if check.ok else "FAIL"
        detail = f" — {check.detail}" if check.detail else ""
        print(f"[{status}] {check.name}{detail}")
        if not check.ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p4groups",
        description="Construct, inspect, and classify the groups of order p^4.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify all groups of order p^4")
    p_classify.add_argument("--p", type=int, required=True, help="odd prime")
    p_classify.add_argument("--format", choices=("json", "table", "csv"), default="table")
    p_classify.add_argument("--force", action="store_true",
                            help="lift the p<=7 runtime guard")
    p_classify.set_defaults(func=cmd_classify)

    p_construct = sub.add_parser("construct", help="build one group from a type file")
    p_construct.add_argument("--type", required=True, help="path to an extension type JSON file")
    p_construct.add_argument("--emit", choices=("cayley", "fingerprint", "census"),
                             default="fingerprint")
    p_construct.add_argument("--out", help="output path (default: stdout)")
    p_construct.add_argument("--force", action="store_true",
                             help="lift the group size runtime guard")
    p_construct.set_defaults(func=cmd_construct)

    p_iso = sub.add_parser("iso", help="decide isomorphism of two constructed groups")
    p_iso.add_argument("file_a", help="extension type JSON file")
    p_iso.add_argument("file_b", help="extension type JSON file")
    p_iso.add_argument("--force", action="store_true",
                       help="lift the group size runtime guard")
    p_iso.set_defaults(func=cmd_iso)

    p_tables = sub.add_parser("tables", help="print the catalog and classification tables")
    p_tables.add_argument("--p", type=int, required=True, help="odd prime")
    p_tables.add_argument("--force", action="store_true",
                          help="lift the p<=7 runtime guard")
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="run the full property suite")
    p_verify.add_argument("--p", type=int, required=True,
                          help="odd prime (group axioms are exact at every p)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="accepted for compatibility; has no effect")
    p_verify.add_argument("--force", action="store_true",
                          help="lift the p<=7 runtime guard")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
