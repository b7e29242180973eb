"""Classification of the groups of order p^4 for odd primes p.

The pipeline enumerates candidate extension types (a fixed catalog of seven
kernel automorphisms, each with its computed list of candidate fixed elements
v), each of which owns its group, built on first use.  A candidate that an
expected merge covers joins its class by an explicit map, checked on the
representative's table (``_merge_maps``); every other candidate is a class
of its own.  The five abelian groups are appended from their invariant-factor
chains, with closed-form fingerprints and no tables.  The expected outcome,
asserted at the end of every run, is 10 nonabelian classes and 5 abelian
ones, told apart pairwise by fingerprint or twist count, with no
isomorphism search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .extension import ExtensionType, _relations_problem, build_group
from .groups import (
    FiniteGroup,
    Fingerprint,
    Subgroup,
    abelian_group,
    abelian_invariants,
    center,
    fingerprint,
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
    """Classification parameters: an odd prime p."""

    p: int

    def __post_init__(self) -> None:
        _check_bound(self.p)
        least_nonresidue(self.p)  # rejects any p that is not an odd prime

    @classmethod
    def for_prime(cls, p: int) -> "ClassifyConfig":
        return cls(p)

    @property
    def epsilon(self) -> int:
        """The least quadratic nonresidue modulo p."""
        return least_nonresidue(self.p)

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


def v_candidates(tau: MixedModulusMatrix) -> list[AbelianElement]:
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

    @cached_property
    def group(self) -> FiniteGroup:
        """The candidate's group, built on first use: the one table that a
        run's checks and its classification share."""
        return build_group(self.ext)


def candidate_types(cfg: ClassifyConfig) -> list[CandidateType]:
    out: list[CandidateType] = []
    for tau_idx, (tau_name, tau) in enumerate(tau_catalog(cfg)):
        for v_idx, v in enumerate(v_candidates(tau)):
            try:
                ext = ExtensionType(tau.profile, cfg.p, tau, v)
            except ValueError as exc:
                raise ClassificationError(f"catalog candidate {tau_name} {exc}") from exc
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


def abelian_catalog(cfg: ClassifyConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The five abelian groups of order p^4 as (label, invariant chain), one
    per partition of 4."""
    p = cfg.p
    chains = [
        (p ** 4,),
        (p, p ** 3),
        (p * p, p * p),
        (p, p, p * p),
        (p, p, p, p),
    ]
    return [("abelian-" + "x".join(f"C{d}" for d in reversed(chain)), chain) for chain in chains]


def abelian_fingerprint(chain: Sequence[int]) -> Fingerprint:
    """The fingerprint of the abelian p-group with invariant chain
    d1 | ... | dk, in closed form: the group is its own center and its own
    abelianization, its p-torsion is p^k (p elements in each cyclic
    factor), G' is trivial, the exponent is dk, and both flags hold because
    every quotient of an abelian group is abelian."""
    p = least_prime_factor(chain[0])
    return Fingerprint(
        group_order=math.prod(chain),
        center_invariants=tuple(chain),
        census_le_p=p ** len(chain),
        derived_order=1,
        abelianization_invariants=tuple(chain),
        exponent=chain[-1],
        power_quotient_abelian=True,
        low_order_commute=True,
    )


@dataclass(frozen=True)
class GroupClass:
    """One isomorphism class in a classification result.

    ``source`` is the representative of a nonabelian class, its one member
    without a map in ``_merge_maps``, or the invariant chain of an abelian
    one.  ``merged_labels`` are the mapped members, in catalog order.
    ``group`` is the representative's table, or ``abelian_group(chain)``
    built when first read; ``classify_p4`` reads no abelian class's group.
    """

    label: str
    kind: str  # "nonabelian" | "abelian"
    tau: Optional[MixedModulusMatrix]
    v: Optional[AbelianElement]
    fingerprint: Fingerprint
    merged_labels: tuple[str, ...]
    source: CandidateType | tuple[int, ...] = field(repr=False, compare=False)

    @cached_property
    def group(self) -> FiniteGroup:
        if isinstance(self.source, CandidateType):
            return self.source.group
        return abelian_group(self.source)

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


def classify_p4(cfg: ClassifyConfig, candidates: Sequence[CandidateType]) -> ClassificationResult:
    """Run the full classification for one odd prime over its catalog
    candidates, ``candidate_types(cfg)``, whose groups it builds or reuses.

    The candidates are taken in catalog order.  One with a map in
    ``_merge_maps`` joins the class of the map's target once the map passes
    ``_relations_problem`` on the target's table (von Dyck's theorem), and
    gets no table of its own; a map that fails, or a target that is not
    among the candidates, raises ClassificationError.  Every other candidate
    is a class of its own, represented by itself.  The five abelian classes
    take closed-form fingerprints from their chains, so the run builds one
    table per unmapped candidate and no other.  After the counts are
    asserted, every pair of classes is certified non-isomorphic by a
    fingerprint field that differs, or, for two nonabelian classes with
    equal fingerprints, by their twist counts (``FiniteGroup.twist_count``).
    A pair that neither separates raises ClassificationError; no
    isomorphism search runs.
    """
    tau_names = [name for name, _ in tau_catalog(cfg)]
    maps = _merge_maps(cfg.p)
    p = cfg.p
    class_members: dict[tuple, list[CandidateType]] = {}  # keyed like _merge_maps
    for cand in sorted(candidates, key=lambda c: c.catalog_pos):
        key = (tau_names[cand.catalog_pos[0]], cand.ext.v.coords)
        if key not in maps:
            class_members[key] = [cand]
            continue
        target, images = maps[key]
        if target not in class_members:
            raise ClassificationError(
                f"{cand.label}: merge target {target[0]} v={target[1]} is not a candidate")
        members = class_members[target]
        problem = _relations_problem(
            cand.ext, [i * p ** 3 + x1 * p + x2 for x1, x2, i in images], members[0].group)
        if problem:
            raise ClassificationError(f"{cand.label} -> {members[0].label}: {problem}")
        members.append(cand)

    if len(class_members) != 10:
        raise ClassificationError(
            f"expected 10 nonabelian classes at p={cfg.p}, found {len(class_members)}:\n"
            + _describe_classes(class_members.values())
        )

    classes: list[GroupClass] = []
    for rep, *rest in class_members.values():
        classes.append(
            GroupClass(
                label=rep.label,
                kind="nonabelian",
                tau=rep.ext.tau,
                v=rep.ext.v,
                fingerprint=fingerprint(rep.group),
                merged_labels=tuple(c.label for c in rest),
                source=rep,
            )
        )

    abelian = abelian_catalog(cfg)
    for label, chain in abelian:
        classes.append(
            GroupClass(
                label=label,
                kind="abelian",
                tau=None,
                v=None,
                fingerprint=abelian_fingerprint(chain),
                merged_labels=(),
                source=chain,
            )
        )
    if len(abelian) != 5:
        raise ClassificationError(f"expected 5 abelian groups, found {len(abelian)}")

    # Abelian classes differ from nonabelian ones in derived_order and from
    # each other in their chains, so only two nonabelian classes can need
    # the twist count.
    for i, a in enumerate(classes):
        for b in classes[i + 1 :]:
            if a.fingerprint != b.fingerprint:
                continue
            if a.kind == b.kind == "nonabelian" and a.group.twist_count != b.group.twist_count:
                continue
            raise ClassificationError(
                f"classes {a.label} and {b.label} are told apart by neither "
                "fingerprint nor twist count"
            )

    return ClassificationResult(
        p=cfg.p,
        classes=tuple(classes),
        abelian_count=len(abelian),
        nonabelian_count=len(class_members),
    )


def _merge_maps(p: int) -> dict:
    """The expected merges as explicit isomorphisms, keyed by a candidate's
    catalog tau name and v coordinates.  Each value is the (tau name, v) of
    the class the candidate joins, on the mixed kernel, and the images of
    the candidate's generators e_1, ..., e_k, a in that type's floor form,
    each (x1, x2, i) for ((x1, x2), a^i), at index i*p^3 + x1*p + x2 of
    that type's table.  Every a goes to e_1 = (1, 0; 0), of order p^2.  The
    p + 1 maps from 3x3-J2 cross from the C_p^3 kernel to C_p^2 x C_p, which
    no move on the kernel reaches."""
    a, j2_e1, j2_e2 = (1, 0, 0), (0, p - 1, 0), (0, 0, 1)
    maps = {
        ("3x3-J2", (1, 0, 0)): (("2x2-r2", (0, 0)), [(p, 0, 0), (0, 0, p - 1), (0, 1, 0), a]),
        ("2x2-r3", (0, 1)): (("2x2-r2", (0, 1)), [(0, p - 1, p - 1), (p, 0, 0), a]),
        ("3x3-J2", (0, 0, 1)): (("2x2-r3", (0, 0)), [j2_e1, j2_e2, (p, 0, 0), a]),
    }
    for k in range(1, p):
        k_inv = pow(k, -1, p)
        maps["3x3-J2", (1, 0, k)] = ("2x2-r3", (0, 0)), [j2_e1, j2_e2, (k_inv * p, k_inv, 0), a]
    return maps


def _describe_classes(class_members: Iterable[list[CandidateType]]) -> str:
    lines = []
    for rep, *rest in class_members:
        fp = fingerprint(rep.group)
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
    nonzero candidates reproduce groups of classes already listed, and each
    joins its class by an explicit map (``_merge_maps``).
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


def emit_table2(
    cfg: ClassifyConfig, candidates: Optional[Sequence[CandidateType]] = None
) -> list[Table2Row]:
    """Center type and order-<=p census for the 10 applicable (tau, v) rows.

    The rows are the catalog candidates less those keyed in ``_merge_maps``,
    which join an earlier class.  Centers are computed from the fixed subgroup of tau
    and re-verified against the center of the built group; the census closed
    form is re-verified against a brute-force count.  Given the run's
    candidates, ``candidate_types(cfg)``, each row reads its candidate's
    group; without them, each row's table is built here and dropped after
    its row, so one row table at a time is alive.
    """
    tau_names = [name for name, _ in tau_catalog(cfg)]
    merged = _merge_maps(cfg.p)
    rows = []
    for c in candidate_types(cfg) if candidates is None else candidates:
        tau_name, t = tau_names[c.catalog_pos[0]], c.ext
        if (tau_name, t.v.coords) in merged:
            continue
        invariants = _tau_kernel(t.tau).fixed.invariant_factors()
        census = census_closed_form(t)

        group = build_group(t) if candidates is None else c.group
        center_inv = abelian_invariants(center(group))
        if center_inv != invariants:
            raise ClassificationError(
                f"center of {c.label} is {center_inv}, fixed subgroup gives {invariants}"
            )
        brute = group.pth_powers.count(group.identity_index)
        if brute != census:
            raise ClassificationError(
                f"census closed form {census} != brute force {brute} for {c.label}"
            )
        rows.append(Table2Row(tau_name, t.tau, t.v, invariants, census))
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
