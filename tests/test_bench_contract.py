"""The benchmark's contract with the library, read from p4bench/ without
changing it: every function its tracer wraps must exist, and the checks it
expects from ``verify --p 3`` must be the ones printed, in order."""

import importlib.util
import sys
from pathlib import Path

from p4groups.cli import main  # loads every layer the tracer looks up

BENCH = Path(__file__).parent.parent / "p4bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"p4bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_bench_module("tracer")
    targets = dict(tracer._targets())  # raises AttributeError on a missing name
    for layer, names in tracer.TRACED.items():
        for name in names:
            assert callable(targets[f"{layer}.{name}"]), f"{layer}.{name}"


def test_verify_p3_checks_match_the_printed_checks(capsys):
    workloads = load_bench_module("workloads")
    assert main(["verify", "--p", "3"]) == 0
    printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
               if line.startswith("[")]
    assert tuple(printed) == workloads.VERIFY_P3_CHECKS
