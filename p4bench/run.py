"""Benchmark of the p4groups command line, one workload per process.

    python3 p4bench/run.py --workload classify-p5 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up (importing the library and generating the workload's
inputs) is repeated several times and its median reported as ``setup_s``.
Then rounds of the workload's CLI calls, each called in-process through
``p4groups.cli.main`` with its output captured, run one at a time until the
next round would overrun ``--seconds``; at least one round always runs.
Every output is checked against its known answer outside the timed region.

With ``--trace 0`` the last line of output reports the end-to-end metrics:
``wall_s`` (median round time), ``peak_rss_mb`` and ``setup_s``.  With
``--trace 1`` untraced and traced rounds alternate, the per-layer metrics
come from the traced rounds, and the spans are written to
``p4bench/out/``.  See p4bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 15

sys.path.insert(0, str(BENCH_DIR))
from tracer import ISO_OUTCOMES, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer times reported as metrics: only functions that run on every
# workload, so that no reported time is a structural zero.  The trace file
# and the printed table have all of them.
TIMED_EVERYWHERE = (
    "cli.main",
    "extension.build_group",
    "groups.isomorphic",
    "groups.center",
    "groups.derived_subgroup",
    "groups.quotient",
)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, result: tuple[int, list[str]]) -> None:
        attempted, problems = result
        self.attempted += attempted
        self.problems += problems


def set_up(workload, seed: int, workdir: Path):
    """Import the library afresh and generate the inputs; returns (cli, calls)."""
    for name in [m for m in sys.modules if m == "p4groups" or m.startswith("p4groups.")]:
        del sys.modules[name]
    cli = importlib.import_module("p4groups.cli")
    return cli, workload(seed, workdir)


def run_round(cli, calls, tally: Tally) -> list[float]:
    """Make every call of one round; returns the wall time of each call."""
    gc.collect()
    results = []
    for call in calls:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            out.write(traceback.format_exc())
        results.append((time.perf_counter() - start, code, out.getvalue()))
    for call, (_, code, text) in zip(calls, results):
        tally.add(call.check(code, text))
    return [elapsed for elapsed, _, _ in results]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round."""
    summary = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for layer, names in TRACED.items():
        for name in names:
            key = f"{layer}.{name}"
            metrics[f"{key}.calls"] = (summary[key]["calls"] / rounds, "count")
            if key in TIMED_EVERYWHERE:
                metrics[f"{key}.total_s"] = (summary[key]["total_s"] / rounds, "s")
                metrics[f"{key}.self_s"] = (summary[key]["self_s"] / rounds, "s")
    residues = [row for name, row in summary.items() if name.startswith("residues.")]
    metrics["residues.calls"] = (sum(r["calls"] for r in residues) / rounds, "count")
    metrics["residues.self_s"] = (sum(r["self_s"] for r in residues) / rounds, "s")
    iso_calls = summary["groups.isomorphic"]["calls"]
    for outcome in ISO_OUTCOMES:
        metrics[f"groups.isomorphic.{outcome}"] = (tracer.iso_outcomes[outcome] / rounds, "count")
    ratio = tracer.iso_outcomes["fp_rejected"] / iso_calls if iso_calls else 0.0
    metrics["groups.isomorphic.prefilter_ratio"] = (ratio, "ratio")
    return metrics


def print_layer_table(tracer: Tracer, rounds: int) -> None:
    print(f"per-layer, per traced round ({rounds} traced rounds):")
    print(f"  {'span':40s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}")
    for name, row in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"]:
            print(f"  {name:40s} {row['calls'] / rounds:10.1f} "
                  f"{row['total_s'] / rounds:10.4f} {row['self_s'] / rounds:10.4f}")
    outcomes = ", ".join(f"{k}={v}" for k, v in tracer.iso_outcomes.items())
    iso_calls = sum(tracer.iso_outcomes.values())
    print(f"  isomorphic outcomes over all traced rounds: {outcomes}; "
          f"prefilter_ratio = {tracer.iso_outcomes['fp_rejected']}/{iso_calls}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC_DIR))
    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        cli, calls = set_up(workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
    if not Path(cli.__file__).resolve().is_relative_to(SRC_DIR):
        raise SystemExit(f"p4groups was imported from {cli.__file__}, not from {SRC_DIR}")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for call in calls:
        print("  p4groups " + " ".join(call.argv))

    tally = Tally()
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        untraced.append(run_round(cli, calls, tally))
        last = sum(untraced[-1])
        if args.trace:
            tracer.round = len(traced)
            tracer.install()
            try:
                traced.append(run_round(cli, calls, tally))
            finally:
                tracer.uninstall()
            last += sum(traced[-1])
        if time.perf_counter() - start + last > args.seconds:
            break

    failed = len(tally.problems)
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    rounds = [sum(r) for r in untraced]
    wall = statistics.median(rounds)
    print(f"wall_s median {wall:.4f} over {len(rounds)} rounds "
          f"(min {min(rounds):.4f}, max {max(rounds):.4f}); per call: "
          + ", ".join(f"{statistics.median(t):.4f}" for t in zip(*untraced)))
    print(f"setup_s median {statistics.median(setup_times):.4f} over {SETUP_REPEATS} set-ups")
    print(f"error_rate {failed}/{tally.attempted} = {failed / tally.attempted:g}")

    if args.trace:
        print_layer_table(tracer, len(traced))
        traced_wall = statistics.median(sum(r) for r in traced)
        overhead = traced_wall - wall
        print(f"trace overhead_s {overhead:.4f} (traced wall_s median "
              f"{traced_wall:.4f} over {len(traced)} rounds)")
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "untraced_wall_s": untraced, "traced_wall_s": traced})
        print(f"spans written to {path.relative_to(BENCH_DIR.parent)}")
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
