"""Span tracer that wraps the public functions of each p4groups layer.

Spans are recorded from outside the library: every traced function is
replaced, in each p4groups module namespace that binds it, by a wrapper that
records (name, parent span, start, end, round).  Spans stay in memory until
the run ends.  A span's self time is its duration minus the time covered by
its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

# Layer (module) -> traced public functions.  The residues layer is traced as
# a whole: every public function defined in it.
TRACED = {
    "extension": ("build_group", "multiply"),
    "groups": (
        "abelian_group",
        "fingerprint",
        "center",
        "derived_subgroup",
        "quotient",
        "isomorphic",
        "verify_group_axioms",
    ),
    "classify": ("candidate_types", "emit_table2", "classify_p4"),
    "verification": ("run_verification_suite",),
    "cli": ("main",),
}
ISO_OUTCOMES = ("fp_rejected", "search_positive", "search_negative")


def _iso_outcome(args: tuple, result: tuple) -> str:
    """Classify one isomorphic(g1, g2) call from its arguments and answer.

    A negative answer either came from the size/fingerprint prefilter or from
    an exhaustive search; the fingerprints are cached on the groups by then.
    """
    ok, _ = result
    if ok:
        return "search_positive"
    g1, g2 = args
    if g1.size != g2.size or g1.fingerprint_value != g2.fingerprint_value:
        return "fp_rejected"
    return "search_negative"


def _targets() -> list[tuple[str, object]]:
    """(span name, function) for every traced function of the loaded library."""
    out = []
    for layer, names in TRACED.items():
        mod = sys.modules[f"p4groups.{layer}"]
        out += [(f"{layer}.{name}", getattr(mod, name)) for name in names]
    residues = sys.modules["p4groups.residues"]
    out += [
        (f"residues.{name}", fn)
        for name, fn in vars(residues).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == residues.__name__
    ]
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.iso_outcomes = dict.fromkeys(ISO_OUTCOMES, 0)
        self.round = 0
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        fid = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, parent, start, end, self.round)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _count_iso(self, args, result) -> None:
        self.iso_outcomes[_iso_outcome(args, result)] += 1

    def install(self) -> None:
        """Wrap every traced function in all loaded p4groups modules."""
        if not self._wrappers:
            self._wrappers = [
                (fn, self._wrap(name, fn, self._count_iso if name == "groups.isomorphic" else None))
                for name, fn in _targets()
            ]
        modules = [m for k, m in sys.modules.items() if k == "p4groups" or k.startswith("p4groups.")]
        for original, wrapper in self._wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total_s and self_s summed over all spans."""
        child = [0.0] * len(self.spans)
        for fid, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, (fid, _, start, end, _) in enumerate(self.spans):
            row = out[self.names[fid]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **header,
                "names": self.names,
                "span_fields": ["name", "parent", "start", "end", "round"],
                "spans": self.spans,
                "iso_outcomes": self.iso_outcomes,
                "summary": self.summary(),
            }, fh)
