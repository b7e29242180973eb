"""Classification of the groups of order p^4 for odd primes p.

The pipeline enumerates candidate extension types (a fixed catalog of seven
kernel automorphisms, each with its computed list of candidate fixed elements
v), builds every candidate group, and deduplicates by fingerprint followed by
the brute-force isomorphism oracle.  The five abelian groups are appended
from their invariant-factor descriptions.  The expected outcome, asserted at
the end of every run, is 10 nonabelian classes and 5 abelian ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .extension import ExtensionType, build_group, validate_type
from .groups import (
    FiniteGroup,
    Fingerprint,
    Subgroup,
    abelian_group,
    abelian_invariants,
    center,
    fingerprint,
    isomorphic,
    least_prime_factor,
)
from .residues import (
    MAX_PRIME,
    AbelianElement,
    MixedModulusMatrix,
    ModulusProfile,
    SHAPE_ELEMENTARY,
    SHAPE_MIXED,
    fixed_points,
    image_subgroup,
    is_prime,
    norm_matrix,
)


class ClassificationError(Exception):
    """The classification run contradicted an expected structural fact."""


@dataclass(frozen=True)
class ClassifyConfig:
    """Classification parameters: an odd prime p and a quadratic nonresidue."""

    p: int
    epsilon: int

    def __post_init__(self) -> None:
        _check_bound(self.p)
        least_nonresidue(self.p)  # rejects any p that is not an odd prime
        if not _is_nonresidue(self.epsilon, self.p):
            raise ValueError(f"{self.epsilon} is a square modulo {self.p}")

    @classmethod
    def for_prime(cls, p: int) -> "ClassifyConfig":
        _check_bound(p)
        return cls(p, least_nonresidue(p))

    @property
    def mixed_profile(self) -> ModulusProfile:
        return ModulusProfile(self.p, SHAPE_MIXED)

    @property
    def elementary_profile(self) -> ModulusProfile:
        return ModulusProfile(self.p, SHAPE_ELEMENTARY)


def _check_bound(p: int) -> None:
    """The kernel profiles stop at MAX_PRIME.  Checked before any primality
    or residue work: trial division of a huge p would not finish."""
    if p > MAX_PRIME:
        raise ValueError(f"p must be <= {MAX_PRIME}, got p={p}")


def _is_nonresidue(n: int, p: int) -> bool:
    """Euler's criterion: n is a quadratic nonresidue modulo the odd prime p."""
    return pow(n, (p - 1) // 2, p) == p - 1


def least_nonresidue(p: int) -> int:
    """Least positive quadratic nonresidue modulo an odd prime."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got p={p}")
    return next(n for n in range(2, p) if _is_nonresidue(n, p))


def tau_catalog(cfg: ClassifyConfig) -> list[tuple[str, MixedModulusMatrix]]:
    """The seven catalog automorphisms, each of order p, in fixed order."""
    p = cfg.p
    eps = cfg.epsilon
    mixed = cfg.mixed_profile
    elem = cfg.elementary_profile
    return [
        ("2x2-r1", MixedModulusMatrix(((1, p), (0, 1)), mixed)),
        ("2x2-r2", MixedModulusMatrix(((1 + p, 0), (0, 1)), mixed)),
        ("2x2-r3", MixedModulusMatrix(((1, 0), (1, 1)), mixed)),
        ("2x2-r4", MixedModulusMatrix(((1, p), (1, 1)), mixed)),
        ("2x2-r5", MixedModulusMatrix(((1, eps * p), (1, 1)), mixed)),
        ("3x3-J2", MixedModulusMatrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)), elem)),
        ("3x3-J3", MixedModulusMatrix(((1, 1, 0), (0, 1, 1), (0, 0, 1)), elem)),
    ]


def tau_candidates(cfg: ClassifyConfig, profile: ModulusProfile) -> list[MixedModulusMatrix]:
    return [m for _, m in tau_catalog(cfg) if m.profile == profile]


@dataclass(frozen=True)
class _TauKernel:
    """What the tables, the v candidates and the census read off one tau:
    its fixed subgroup, its norm matrix for n = p and the norm image."""

    fixed: Subgroup
    norm: MixedModulusMatrix
    image: Subgroup

    @cached_property
    def v_choices(self) -> tuple[AbelianElement, ...]:
        """The v candidates of tau; see ``v_candidates``."""
        fixed, image = self.fixed, self.image
        profile = self.norm.profile
        p = profile.p
        kernel = fixed.parent  # elements are ranks; the least rank has the least coordinates

        cosets: list[frozenset[int]] = []
        assigned: set[int] = set()
        for x in fixed.elements:
            if x in assigned:
                continue
            coset = frozenset(kernel.mul(x, h) for h in image.elements)
            cosets.append(coset)
            assigned.update(coset)

        coset_of = {x: idx for idx, coset in enumerate(cosets) for x in coset}
        units = [u for u in range(1, p * p) if u % p != 0]

        reps: list[AbelianElement] = []
        consumed: set[int] = set()
        for idx, coset in enumerate(cosets):
            if idx in consumed:
                continue
            pivot = min(coset)
            orbit_members: set[int] = set()
            for u in units:
                scaled = coset_of[kernel.power(pivot, u)]
                consumed.add(scaled)
                orbit_members.update(cosets[scaled])
            reps.append(profile.element(profile.coords_of(min(orbit_members))))
        return tuple(reps)


@lru_cache(maxsize=8)
def _tau_kernel(tau: MixedModulusMatrix) -> _TauKernel:
    """Fixed subgroup, norm and norm image of tau, computed once per tau (the
    catalog has seven) and shared by both tables, the v candidates and the
    census closed form."""
    norm = norm_matrix(tau, tau.profile.p)
    return _TauKernel(fixed_points(tau), norm, image_subgroup(norm))


def v_candidates(cfg: ClassifyConfig, tau: MixedModulusMatrix) -> list[AbelianElement]:
    """Candidate v values for a catalog automorphism.

    Enumerate the fixed subgroup, quotient by the image of the norm map, and
    keep one representative per orbit of the scaling action by integers prime
    to p (equal subgroups of the fixed group give the same class).  The zero
    element always comes first; the rest are ordered by their least member.
    """
    return list(_tau_kernel(tau).v_choices)


def v_label(v: AbelianElement) -> str:
    """Readable tag: v0 for zero, v-eK / v-peK for (scaled) basis vectors."""
    coords = v.coords
    if v.is_zero():
        return "v0"
    nonzero = [(i, c) for i, c in enumerate(coords) if c]
    if len(nonzero) == 1:
        i, c = nonzero[0]
        if c == 1:
            return f"v-e{i + 1}"
        if c == v.profile.p:
            return f"v-pe{i + 1}"
    return "v" + "_".join(map(str, coords))


@dataclass(frozen=True)
class CandidateType:
    """One (tau, v) pair from the catalog, with its run-unique label."""

    ext: ExtensionType
    label: str
    catalog_pos: tuple[int, int]  # (tau index in the catalog, v index in v_candidates)


def candidate_types(cfg: ClassifyConfig) -> list[CandidateType]:
    out: list[CandidateType] = []
    for tau_idx, (tau_name, tau) in enumerate(tau_catalog(cfg)):
        for v_idx, v in enumerate(v_candidates(cfg, tau)):
            ext = ExtensionType(tau.profile, cfg.p, tau, v)
            diag = validate_type(ext)
            if diag is not None:
                raise ClassificationError(f"catalog candidate {tau_name} invalid: {diag}")
            out.append(CandidateType(ext, f"{tau_name}-{v_label(v)}", (tau_idx, v_idx)))
    return out


def census_closed_form(t: ExtensionType) -> int:
    """Number of elements of order <= p, from the norm map alone.

    The kernel contributes its own count (p^2 or p^3 by profile); each of the
    p-1 nontrivial cosets contributes |ker(norm)| elements when v lies in the
    image of the norm map and none otherwise.
    """
    p = t.profile.p
    if t.n != p:
        raise ValueError("closed-form census requires quotient order n = p")
    base = p * p if t.profile.shape == SHAPE_MIXED else p ** 3
    image = _tau_kernel(t.tau).image
    if t.v.rank() in image:
        return base + (p - 1) * (t.profile.order // image.order)
    return base


def abelian_catalog(cfg: ClassifyConfig) -> list[tuple[str, tuple[int, ...], FiniteGroup]]:
    """The five abelian groups of order p^4 as (label, invariant chain, group)."""
    p = cfg.p
    chains = [
        (p ** 4,),
        (p, p ** 3),
        (p * p, p * p),
        (p, p, p * p),
        (p, p, p, p),
    ]
    out = []
    for chain in chains:
        label = "abelian-" + "x".join(f"C{d}" for d in reversed(chain))
        out.append((label, chain, abelian_group(chain)))
    return out


@dataclass(frozen=True)
class GroupClass:
    """One isomorphism class in a classification result."""

    label: str
    kind: str  # "nonabelian" | "abelian"
    tau: Optional[MixedModulusMatrix]
    v: Optional[AbelianElement]
    fingerprint: Fingerprint
    merged_labels: tuple[str, ...]
    group: FiniteGroup = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "tau": self.tau.to_json_list() if self.tau is not None else None,
            "v": self.v.to_json_list() if self.v is not None else None,
            "fingerprint": self.fingerprint.to_json_dict(),
            "merged_labels": list(self.merged_labels),
        }


@dataclass(frozen=True)
class ClassificationResult:
    p: int
    classes: tuple[GroupClass, ...]
    abelian_count: int
    nonabelian_count: int

    @property
    def total(self) -> int:
        return self.abelian_count + self.nonabelian_count

    @property
    def nonabelian_classes(self) -> tuple[GroupClass, ...]:
        return tuple(c for c in self.classes if c.kind == "nonabelian")

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "classes": [c.to_json_dict() for c in self.classes],
            "counts": {
                "abelian": self.abelian_count,
                "nonabelian": self.nonabelian_count,
                "total": self.total,
            },
        }


def classify_p4(cfg: ClassifyConfig) -> ClassificationResult:
    """Run the full classification for one odd prime.

    Candidates are folded in label order; a candidate joins the first class
    whose fingerprint matches and whose representative the oracle certifies
    isomorphic, otherwise it opens a new class.  The run then asserts the
    expected merges and counts and certifies all final representatives
    pairwise non-isomorphic.
    """
    cands = sorted(candidate_types(cfg), key=lambda c: c.label)
    built = {c.label: build_group(c.ext) for c in cands}
    verdicts: dict[tuple[str, str], bool] = {}

    def same_class(a: str, b: str) -> bool:
        # Memoized by label: the one exhaustive negative search of the merge
        # loop comes back in the final pairwise certification.
        if (a, b) not in verdicts:
            verdicts[a, b] = verdicts[b, a] = isomorphic(built[a], built[b])[0]
        return verdicts[a, b]

    class_members: list[list[CandidateType]] = []
    for cand in cands:
        group = built[cand.label]
        fp = fingerprint(group)
        placed = False
        for members in class_members:
            rep_group = built[members[0].label]
            if fingerprint(rep_group) == fp and same_class(members[0].label, cand.label):
                members.append(cand)
                placed = True
                break
        if not placed:
            class_members.append([cand])

    # Representative = catalog-first member, so classes read like the table.
    normalized: list[tuple[CandidateType, list[CandidateType]]] = []
    for members in class_members:
        rep = min(members, key=lambda c: c.catalog_pos)
        rest = sorted((c for c in members if c is not rep), key=lambda c: c.catalog_pos)
        normalized.append((rep, rest))
    normalized.sort(key=lambda pair: pair[0].catalog_pos)

    _assert_expected_merges(cfg, normalized)

    if len(normalized) != 10:
        raise ClassificationError(
            f"expected 10 nonabelian classes at p={cfg.p}, found {len(normalized)}:\n"
            + _describe_classes(normalized, built)
        )

    classes: list[GroupClass] = []
    for rep, rest in normalized:
        group = built[rep.label]
        classes.append(
            GroupClass(
                label=rep.label,
                kind="nonabelian",
                tau=rep.ext.tau,
                v=rep.ext.v,
                fingerprint=fingerprint(group),
                merged_labels=tuple(c.label for c in rest),
                group=group,
            )
        )

    abelian = abelian_catalog(cfg)
    for label, _, group in abelian:
        built[label] = group
        classes.append(
            GroupClass(
                label=label,
                kind="abelian",
                tau=None,
                v=None,
                fingerprint=fingerprint(group),
                merged_labels=(),
                group=group,
            )
        )
    if len(abelian) != 5:
        raise ClassificationError(f"expected 5 abelian groups, found {len(abelian)}")

    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if same_class(classes[i].label, classes[j].label):
                raise ClassificationError(
                    f"classes {classes[i].label} and {classes[j].label} are isomorphic"
                )

    return ClassificationResult(
        p=cfg.p,
        classes=tuple(classes),
        abelian_count=len(abelian),
        nonabelian_count=len(normalized),
    )


def _assert_expected_merges(
    cfg: ClassifyConfig, normalized: list[tuple[CandidateType, list[CandidateType]]]
) -> None:
    by_label: dict[str, str] = {}
    for rep, rest in normalized:
        by_label[rep.label] = rep.label
        for c in rest:
            by_label[c.label] = rep.label

    pair = ("2x2-r2-v-e2", "2x2-r3-v-e2")
    if by_label.get(pair[0]) != by_label.get(pair[1]):
        raise ClassificationError(
            f"expected {pair[0]} and {pair[1]} to land in one class; "
            f"got {by_label.get(pair[0])} vs {by_label.get(pair[1])}"
        )
    for label, rep_label in by_label.items():
        if label.startswith("3x3-J2-") and label != "3x3-J2-v0" and rep_label == label:
            raise ClassificationError(
                f"candidate {label} opened a new class; it should merge into an "
                "existing one"
            )


def _describe_classes(
    normalized: list[tuple[CandidateType, list[CandidateType]]],
    built: dict[str, FiniteGroup],
) -> str:
    lines = []
    for rep, rest in normalized:
        fp = fingerprint(built[rep.label])
        merged = (" <- " + ", ".join(c.label for c in rest)) if rest else ""
        lines.append(f"  {rep.label}{merged}  {fp.to_json_dict()}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Structural properties of groups of order p^4.


def verify_prop_abelian_subgroup(g: FiniteGroup) -> bool:
    """True iff g (of order p^4) has an abelian subgroup of order >= p^3.

    Extends the center by one or two commuting elements; every abelian
    subgroup of order p^3 in a nonabelian g contains the center, so the scan
    over centralizing pairs is exhaustive.
    """
    p = least_prime_factor(g.size)
    if g.size != p ** 4:
        raise ValueError("property applies to groups of order p^4")
    if g.is_abelian:
        return True
    target = p ** 3
    mul = g.mul
    z_elems = center(g).elements
    z_set = set(z_elems)
    for x in range(g.size):
        if x in z_set:
            continue
        a_elements = set(g.closure((*z_elems, x)))
        if len(a_elements) >= target:
            return True
        for y in range(g.size):
            if y in a_elements or mul(x, y) != mul(y, x):
                continue
            if len(g.closure((*z_elems, x, y))) >= target:
                return True
    return False


def verify_prop_no_cyclic(g: FiniteGroup) -> bool:
    """True iff g (nonabelian, order p^4) has no element of order p^3 or it
    contains a subgroup with invariant factors (p, p^2)."""
    p = least_prime_factor(g.size)
    if g.size != p ** 4:
        raise ValueError("property applies to groups of order p^4")
    if g.is_abelian:
        raise ValueError("property applies to nonabelian groups")
    orders = g.element_orders
    if p ** 3 not in orders:
        return True
    mul = g.mul
    order_p = [i for i in range(g.size) if orders[i] == p]
    for x in range(g.size):
        if orders[x] != p * p:
            continue
        powers = set(g.closure((x,)))
        for y in order_p:
            if y not in powers and mul(x, y) == mul(y, x):
                return True
    return False


# ---------------------------------------------------------------------------
# The two summary tables.


@dataclass(frozen=True)
class Table1Row:
    tau_label: str
    tau: MixedModulusMatrix
    fixed_subgroup: Subgroup
    norm: MixedModulusMatrix
    image: Subgroup
    v_choices: tuple[AbelianElement, ...]


def emit_table1(cfg: ClassifyConfig) -> list[Table1Row]:
    """Fixed subgroup, norm matrix, norm image, and v choices per catalog tau.

    The printed v column for the 3x3-J2 row is just the zero vector: its
    nonzero candidates reproduce groups of classes already listed, which the
    classification run verifies with the oracle.
    """
    rows = []
    for tau_name, tau in tau_catalog(cfg):
        k = _tau_kernel(tau)
        if tau_name == "3x3-J2":
            choices: tuple[AbelianElement, ...] = (tau.profile.zero(),)
        else:
            choices = k.v_choices
        rows.append(Table1Row(tau_name, tau, k.fixed, k.norm, k.image, choices))
    return rows


@dataclass(frozen=True)
class Table2Row:
    tau_label: str
    tau: MixedModulusMatrix
    v: AbelianElement
    center_invariants: tuple[int, ...]
    census_le_p: int


def _table2_pairs(cfg: ClassifyConfig) -> list[tuple[str, MixedModulusMatrix, AbelianElement]]:
    pairs = []
    for tau_name, tau in tau_catalog(cfg):
        for v in v_candidates(cfg, tau):
            if tau_name == "3x3-J2" and not v.is_zero():
                continue  # reproduces earlier classes; dropped from the table
            if tau_name == "2x2-r3" and not v.is_zero():
                continue  # same class as 2x2-r2 with the matching v
            pairs.append((tau_name, tau, v))
    return pairs


def emit_table2(cfg: ClassifyConfig) -> list[Table2Row]:
    """Center type and order-<=p census for the 10 applicable (tau, v) rows.

    Centers are computed from the fixed subgroup of tau and re-verified
    against the center of the built group; the census closed form is
    re-verified against a brute-force count.
    """
    rows = []
    for tau_name, tau, v in _table2_pairs(cfg):
        ext = ExtensionType(tau.profile, cfg.p, tau, v)
        invariants = _tau_kernel(tau).fixed.invariant_factors()
        census = census_closed_form(ext)

        group = build_group(ext)
        center_inv = abelian_invariants(center(group))
        if center_inv != invariants:
            raise ClassificationError(
                f"center of {tau_name}-{v_label(v)} is {center_inv}, "
                f"fixed subgroup gives {invariants}"
            )
        e = group.identity_index
        brute = sum(1 for i in range(group.size) if group.power(i, cfg.p) == e)
        if brute != census:
            raise ClassificationError(
                f"census closed form {census} != brute force {brute} "
                f"for {tau_name}-{v_label(v)}"
            )
        rows.append(Table2Row(tau_name, tau, v, invariants, census))
    return rows


def _fmt_matrix(m: MixedModulusMatrix) -> str:
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in m.entries) + "]"


def _fmt_vec(coords: Sequence[int]) -> str:
    return "(" + ",".join(map(str, coords)) + ")"


def _fmt_gens(s: Subgroup, profile: ModulusProfile) -> str:
    """Generators of a kernel subgroup as coordinates; the trivial one as <0>."""
    return "<" + ", ".join(_fmt_vec(profile.coords_of(g)) for g in s.generators or (0,)) + ">"


def render_table1(cfg: ClassifyConfig) -> str:
    headers = ["tau", "fixed", "norm", "image", "v choices"]
    rows = [
        [
            f"{row.tau_label} {_fmt_matrix(row.tau)}",
            _fmt_gens(row.fixed_subgroup, row.tau.profile),
            _fmt_matrix(row.norm),
            _fmt_gens(row.image, row.tau.profile),
            "{" + ", ".join(_fmt_vec(v.coords) for v in row.v_choices) + "}",
        ]
        for row in emit_table1(cfg)
    ]
    return _render_columns(f"fixed points, norms, and v choices (p={cfg.p})", headers, rows)


def render_table2(cfg: ClassifyConfig) -> str:
    headers = ["tau", "v", "center", "#order<=p"]
    rows = [
        [
            f"{row.tau_label} {_fmt_matrix(row.tau)}",
            _fmt_vec(row.v.coords),
            "x".join(f"C{d}" for d in reversed(row.center_invariants)),
            str(row.census_le_p),
        ]
        for row in emit_table2(cfg)
    ]
    return _render_columns(f"nonabelian classes of order p^4 (p={cfg.p})", headers, rows)


def _render_columns(title: str, headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)
