"""Workloads of the p4groups benchmark: seeded inputs, CLI calls and the
known answers each call is checked against.

A workload is a list of CLI calls made in order, one at a time; one pass over
the list is a round.  Every call has a check that turns its exit code and
standard output into (ops attempted, problems).  An op is one classification
output, one ``verify`` check or one ``iso`` verdict; each problem is one
failed op.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The checks ``verify --p 3`` runs, in the order it prints them.  The
# residue-twist pair is only checked above p = 3.
VERIFY_P3_CHECKS = (
    "tau-catalog-order",
    "candidate-validation",
    "group-axioms",
    "power-norm-law",
    "census-closed-form",
    "coset-census-balance",
    "table2-reverification",
    "classification-counts",
    "abelian-subgroup-property",
    "order-p2xp-subgroup-property",
    "iso-pair-shared-relations",
    "noniso-pair-split-v0",
    "transform-equivalence",
)

Check = Callable[[int, str], "tuple[int, list[str]]"]


@dataclass(frozen=True)
class Call:
    argv: list[str]
    check: Check


# ---------------------------------------------------------------------------
# Known-answer checks.  They use only the documented output formats and the
# documented element numbering, never the library.


def check_classify(reference: str) -> Check:
    """One op: exit 0, counts 5/10/15, and output byte-identical to the reference."""

    def check(code: int, out: str) -> tuple[int, list[str]]:
        problems = []
        if code != 0:
            problems.append(f"classify: exit {code}, expected 0")
        else:
            try:
                counts = json.loads(out)["counts"]
            except (ValueError, KeyError, TypeError) as exc:
                counts = f"unreadable ({exc})"
            if counts != {"abelian": 5, "nonabelian": 10, "total": 15}:
                problems.append(f"classify: counts {counts}, expected 5/10/15")
            elif out != reference:
                problems.append("classify: output differs from the reference")
        return 1, problems[:1]

    return check


def check_verify(code: int, out: str) -> tuple[int, list[str]]:
    """One op per expected check: its line reads ``[ok] <name>`` and the exit is 0."""
    status = {}
    for line in out.splitlines():
        if line.startswith("[") and "] " in line:
            tag, rest = line[1:].split("] ", 1)
            status[rest.split(" — ")[0]] = tag
    problems = [
        f"verify: check {name} is {status.get(name, 'missing')}"
        for name in VERIFY_P3_CHECKS
        if status.get(name) != "ok"
    ]
    unexpected = sorted(set(status) - set(VERIFY_P3_CHECKS))
    problems += [f"verify: unexpected check {name}" for name in unexpected]
    if code != 0 and not problems:
        problems = [f"verify: exit {code} with every check ok"]
    return len(VERIFY_P3_CHECKS) + len(unexpected), problems


def group_law(t: dict) -> tuple[int, Callable[[int, int], int], list[int]]:
    """(order, product, generators) of the group an extension type defines.

    Written from the documented floor form of the product,
    (x, a^i)(y, a^j) = (x + tau^i(y) + floor((i+j)/n) v, a^((i+j) mod n)),
    and the documented numbering: element (x, a^i) has index
    i * |kernel| + (lexicographic rank of x's coordinates).
    """
    p, n, tau, v = t["p"], t["n"], t["tau"], t["v"]
    moduli = (p * p, p) if t["shape"] == "p2xp" else (p, p, p)
    rank = len(moduli)
    kernel = 1
    for m in moduli:
        kernel *= m

    def coords(r: int) -> list[int]:
        out = []
        for m in reversed(moduli):
            out.append(r % m)
            r //= m
        return out[::-1]

    def index(i: int, x: list[int]) -> int:
        r = 0
        for c, m in zip(x, moduli):
            r = r * m + c % m
        return i * kernel + r

    def mul(g: int, h: int) -> int:
        i, x = divmod(g, kernel)
        j, y = divmod(h, kernel)
        y = coords(y)
        for _ in range(i):
            y = [sum(a * c for a, c in zip(row, y)) % m for row, m in zip(tau, moduli)]
        wraps = (i + j) // n
        z = [a + b + wraps * c for a, b, c in zip(coords(x), y, v)]
        return index((i + j) % n, z)

    gens = [index(0, [int(r == c) for r in range(rank)]) for c in range(rank)] + [kernel]
    return kernel * n, mul, gens


def witness_problem(witness, type_a: dict, type_b: dict) -> str:
    """Empty when the witness is a bijective homomorphism from A's group to B's.

    A map f with f(g s) = f(g) f(s) for every g and every generator s of A is
    a homomorphism, so checking the generators suffices.
    """
    size, mul_a, gens = group_law(type_a)
    size_b, mul_b, _ = group_law(type_b)
    if not isinstance(witness, list) or len(witness) != size or size != size_b:
        return "witness has the wrong length"
    if sorted(witness) != list(range(size)):
        return "witness is not a bijection"
    for g in range(size):
        for s in gens:
            if witness[mul_a(g, s)] != mul_b(witness[g], witness[s]):
                return f"witness breaks the product of elements {g} and {s}"
    return ""


def check_iso(expected: bool, type_a: dict, type_b: dict) -> Check:
    """One op: verdict and exit (0 if isomorphic, 3 if not) as known; a
    positive verdict carries a witness that is re-checked here."""

    def check(code: int, out: str) -> tuple[int, list[str]]:
        want_code = 0 if expected else 3
        try:
            answer = json.loads(out)
        except ValueError:
            answer = None
        if not isinstance(answer, dict):
            return 1, [f"iso: unreadable output (exit {code})"]
        got = answer.get("isomorphic")
        if code != want_code or got is not expected:
            return 1, [f"iso: verdict {got} with exit {code}, expected {expected} with exit {want_code}"]
        witness = answer.get("witness")
        if expected:
            problem = witness_problem(witness, type_a, type_b)
        else:
            problem = "" if witness is None else "negative verdict carries a witness"
        return 1, [f"iso: {problem}"] if problem else []

    return check


# ---------------------------------------------------------------------------
# Workloads.  Input generation imports the library, so it runs after the
# benchmark has put the source tree on the path.


def classify_p5(seed: int, workdir: Path) -> list[Call]:
    """The headline user run; the seed is not used."""
    reference = (REFERENCE_DIR / "classify-p5.json").read_text(encoding="utf-8")
    return [Call(["classify", "--p", "5", "--format", "json"], check_classify(reference))]


def verify_p3(seed: int, workdir: Path) -> list[Call]:
    return [Call(["verify", "--p", "3", "--seed", str(seed)], check_verify)]


def random_automorphism(profile, rng: random.Random):
    """A uniformly drawn automorphism of the kernel (rejection sampling)."""
    from p4groups import MixedModulusMatrix

    p = profile.p
    moduli = profile.moduli
    while True:
        rows = [[rng.randrange(m) for _ in moduli] for m in moduli]
        if profile.shape == "p2xp":
            rows[0][1] -= rows[0][1] % p
        phi = MixedModulusMatrix(tuple(map(tuple, rows)), profile)
        if phi.is_automorphism:
            return phi


def oracle_types(p: int, seed: int) -> dict[str, dict]:
    """The four type records of the oracle workload at prime p.

    The negative pair is the residue twist 2x2-r4-v0 / 2x2-r5-v0.  The
    positive pair is 2x2-r2-v-e2 against 2x2-r3-v-e2 carried through a seeded
    conjugation and generator shift, both of which preserve the class.
    """
    from p4groups import ClassifyConfig, ExtensionType, conjugate_type, shift_generator, tau_catalog

    cfg = ClassifyConfig.for_prime(p)
    profile = cfg.mixed_profile
    taus = dict(tau_catalog(cfg))
    zero, e2 = profile.zero(), profile.element((0, 1))
    rng = random.Random(seed)
    shifted = shift_generator(
        conjugate_type(ExtensionType(profile, p, taus["2x2-r3"], e2), random_automorphism(profile, rng)),
        profile.element([rng.randrange(m) for m in profile.moduli]),
    )
    types = {
        "2x2-r4-v0": ExtensionType(profile, p, taus["2x2-r4"], zero),
        "2x2-r5-v0": ExtensionType(profile, p, taus["2x2-r5"], zero),
        "2x2-r2-v-e2": ExtensionType(profile, p, taus["2x2-r2"], e2),
        f"2x2-r3-v-e2-seed{seed}": shifted,
    }
    return {label: t.to_json_dict() for label, t in types.items()}


def iso_calls(types: dict[str, dict], verdicts: list[bool], workdir: Path) -> list[Call]:
    """Write the type files and pair them up in order, one iso call per pair."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for label, record in types.items():
        path = workdir / f"{label}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        paths.append(path)
    records = list(types.values())
    return [
        Call(["iso", str(paths[2 * k]), str(paths[2 * k + 1])],
             check_iso(expected, records[2 * k], records[2 * k + 1]))
        for k, expected in enumerate(verdicts)
    ]


def oracle_p7(seed: int, workdir: Path) -> list[Call]:
    return iso_calls(oracle_types(7, seed), [False, True], workdir)


WORKLOADS: dict[str, Callable[[int, Path], list[Call]]] = {
    "classify-p5": classify_p5,
    "verify-p3": verify_p3,
    "oracle-p7": oracle_p7,
}
