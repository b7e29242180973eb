"""Deterministic property suite behind the ``verify`` CLI command.

Each check returns its name, a pass flag, and on failure a minimal
reproducing datum.  Every check is deterministic and exact at every prime.
group-axioms proves each candidate table a group by Light's test (see
``verify_group_axioms``), then proves it the group of the candidate's type:
the standard generators satisfy the type's defining relations and generate
the table (``_relations_problem``, by von Dyck's theorem).  Each transform
trial is certified the same way, with no search and no table built: the
substitution the transform stands for (a -> x*a, a -> a^i, or phi^-1 on the
kernel) names images in the candidate's group, which must satisfy the
transformed type's relations (see ``_transforms_problem``).  Only the
transform trials shrink above p = 3.

Every check that reads a table runs in one pass over the candidates, on
the table the pass holds: each class representative in catalog order, then
each candidate mapped onto it, while the representative's table is still
alive.  So at most two tables are alive, and each is built once.  Each
check reports the candidate first in catalog order that fails it.  The
classes keep their fingerprints and twist counts as values, which certify
the classification and the non-isomorphic pairs after the pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classify import (
    ClassificationError,
    ClassifyConfig,
    _certified,
    _class_plan,
    _nonabelian_class,
    _table2_values,
    _told_apart,
    candidate_types,
    census_closed_form,
    tau_catalog,
    verify_prop_abelian_subgroup,
    verify_prop_no_cyclic,
)
from .extension import (
    _basis,
    _inverse,
    _relations_problem,
    _standard_images,
    conjugate_type,
    norm_apply,
    power_substitute,
    shift_generator,
)
from .groups import element_order, isomorphic, verify_group_axioms
from .residues import MixedModulusMatrix, mat_apply, mat_pow


# The pair whose isomorphism is found by a search, on both tables: the
# second is mapped onto the first, so the pass holds both at once.
ISO_PAIR = ("2x2-r2-v-e2", "2x2-r3-v-e2")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _result(name: str, detail) -> CheckResult:
    """A check that failed with detail, or passed when detail is empty."""
    return CheckResult(name, not detail, detail or "")


def run_verification_suite(cfg: ClassifyConfig) -> list[CheckResult]:
    results: list[CheckResult] = []
    p = cfg.p

    # p is prime, so tau has order p exactly when tau^p = I and tau != I.
    bad = []
    for name, tau in tau_catalog(cfg):
        identity = MixedModulusMatrix.identity(tau.profile)
        if tau == identity or mat_pow(tau, p) != identity:
            bad.append(name)
    results.append(_result("tau-catalog-order", bad and f"catalog entries of wrong order: {bad}"))

    # Every candidate is a valid type, or candidate_types raises naming the
    # catalog tau; no later check can run without them.
    try:
        cands = candidate_types(cfg)
    except ClassificationError as exc:
        results.append(CheckResult("candidate-validation", False, str(exc)))
        return results
    results.append(CheckResult("candidate-validation", True))

    trials = {c.label: 5 for c in cands} if p == 3 else {c.label: 1 for c in cands[:3]}
    first: dict[str, tuple[tuple[int, int], str]] = {}  # check -> (catalog position, detail)

    def note(name, c, detail):
        if detail and (name not in first or c.catalog_pos < first[name][0]):
            first[name] = (c.catalog_pos, detail)

    def check(c, g):
        for name, problem in CANDIDATE_CHECKS:
            detail = problem(c, g)
            note(name, c, detail and f"{c.label}: {detail}")
        if c.label in trials:
            note("transform-equivalence", c, _transforms_problem(c, g, trials[c.label]))

    plan, failures = _class_plan(cfg, cands)
    classes, lacking, violating, found = [], [], [], None
    for rep, sources in plan:
        group = rep.build()
        check(rep, group)
        try:
            _table2_values(rep, group)
        except ClassificationError as exc:
            note("table2-reverification", rep, str(exc))
        classes.append(_nonabelian_class(rep, sources, group, failures))
        if not verify_prop_abelian_subgroup(group):
            lacking.append(rep.label)
        if not verify_prop_no_cyclic(group):
            violating.append(rep.label)
        for source, _ in sources:
            partner = source.build()
            check(source, partner)
            if (rep.label, source.label) == ISO_PAIR:
                found, _ = isomorphic(group, partner)
            del partner  # so that the pass holds two tables at most

    details = {name: detail for name, (_, detail) in first.items()}
    for name in [name for name, _ in CANDIDATE_CHECKS] + ["table2-reverification"]:
        results.append(_result(name, details.get(name)))
    try:
        classification = _certified(cfg, classes, failures)
    except ClassificationError as exc:
        results.append(_result("classification-counts", str(exc)))
    else:
        counts = classification.abelian_count, classification.nonabelian_count
        results.append(_result("classification-counts", "" if counts == (5, 10) else
                               "counts: {} abelian, {} nonabelian".format(*counts)))
        results.append(_result("abelian-subgroup-property", lacking and
                               f"classes without a large abelian subgroup: {lacking}"))
        results.append(_result("order-p2xp-subgroup-property", violating and
                               f"classes violating the subgroup property: {violating}"))

    results.append(_result("iso-pair-shared-relations", "" if found else
                           "{} vs {}: got {}, expected True".format(*ISO_PAIR, found)))
    # The non-isomorphic pairs are certified by their classes' values.
    by_label = {cls.label: cls for cls in classes}
    results.append(_result(
        "noniso-pair-split-v0",
        "" if _told_apart(by_label["2x2-r2-v0"], by_label["2x2-r3-v0"]) else
        "2x2-r2-v0 vs 2x2-r3-v0: told apart by neither fingerprint nor twist count"))
    if p > 3:
        # No fingerprint field separates this pair above p = 3; its
        # certificate is the twist count.
        a, b = by_label["2x2-r4-v0"].twist_count, by_label["2x2-r5-v0"].twist_count
        results.append(_result("noniso-pair-residue-twist", "" if a != b else
                               f"2x2-r4-v0 vs 2x2-r5-v0: twist counts {a} and {b}"))
    results.append(_result("transform-equivalence", details.get("transform-equivalence")))
    return results


def _axioms_problem(c, g) -> str:
    """Light's test, then the type's defining relations on the generators
    (e_k, a^0) and (0, a) of the table, at indices rank(e_k) and |N|."""
    report = verify_group_axioms(g)
    if not report.ok:
        return f"{report.failure}"
    return _relations_problem(c.ext, _standard_images(c.ext.profile), g)


def _power_norm_problem(c, g) -> str:
    """The first kernel element x, as "x=<coords>", whose p-th power
    (x, a)^p in the candidate's table is not (norm(x) + v, a^0), else "".

    Every catalog type has n = p, so (x, a)^n is the entry of ``pth_powers``
    for (x, a), index |N| + rank(x).  The expected side is computed on the
    kernel elements with ``norm_apply``, not with the rank machinery that
    builds the table."""
    t, powers = c.ext, g.pth_powers
    nsize = t.profile.order
    for x in t.profile.elements():
        if powers[nsize + x.rank()] != (norm_apply(t, x) + t.v).rank():
            return f"x={x.coords}"
    return ""


def _census_problem(c, g) -> str:
    closed = census_closed_form(c.ext)
    brute = g.pth_powers.count(g.identity_index)
    return "" if closed == brute else f"closed={closed} brute={brute}"


def _coset_balance_problem(c, g) -> str:
    """The nontrivial cosets of the kernel must hold equally many elements
    of order dividing p."""
    p, nsize = c.ext.profile.p, c.ext.profile.order
    per_coset = [
        sum(1 for r in range(nsize) if element_order(g, i * nsize + r) in (1, p))
        for i in range(p)
    ]
    return "" if len(set(per_coset[1:])) <= 1 else f"per-coset counts {per_coset}"


# The checks run on every candidate's table, problem(c, g) -> "" or a
# detail, in the order they print.
CANDIDATE_CHECKS = [
    ("group-axioms", _axioms_problem),
    ("power-norm-law", _power_norm_problem),
    ("census-closed-form", _census_problem),
    ("coset-census-balance", _coset_balance_problem),
]

def _transforms_problem(c, g, count) -> str:
    """Each equivalence transformation must come with its own isomorphism.

    Every trial applies the transform, which validates the transformed type
    t' (or raises, a failure), and names in g, the group of c, the images of
    the generators of t', the substitution the transform stands for:

    - ``shift_generator(t, x)``: e_k -> e_k, a' -> x*a;
    - ``power_substitute(t, i)``: e_k -> e_k, b -> a^i;
    - ``conjugate_type(t, phi)``: e_k -> phi^-1(e_k), c -> a.

    The images must pass ``_relations_problem`` for t', which proves the map
    an isomorphism given that g is a group (group-axioms).  No search is run:
    a map that fails is a failure of the transform, and the first one is
    returned.  At p = 3 every candidate gets up to five parameters of each
    kind (count); above p = 3, the first three candidates get one.
    """
    for op_name, op, images in _transform_trials(c.ext, g, count):
        try:
            transformed = op()
        except ValueError as exc:
            return f"{c.label} {op_name}: {exc}"
        problem = _relations_problem(transformed, images, g)
        if problem:
            return f"{c.label} {op_name}: its map is not an isomorphism ({problem})"
    return ""


def _transform_trials(t, g, count):
    """(transform name, thunk returning the transformed type, images in g of
    the transformed type's generators) for count parameters of each kind;
    g is the group of t, numbered as ``build_group`` does
    (``_standard_images``).  No parameter is the identity: exponents
    start at 2, the scalars are the units of Z/e other than 1, e the
    kernel's exponent, and the automorphism pool has no identity.  The
    shifts are the last kernel elements in rank order, whose first
    coordinate is a unit; on the mixed kernel their norm is nonzero for most
    catalog tau, so v moves."""
    profile, n = t.profile, t.n
    *kernel, a = _standard_images(profile)

    trials = []
    for r in range(profile.order - count, profile.order):
        trials.append(("shift_generator", lambda x=profile.element_of(r): shift_generator(t, x),
                       kernel + [g.mul(r, a)]))
    for i in [i for i in range(2, 5 * n) if math.gcd(i, n) == 1][:count]:
        trials.append(("power_substitute", lambda i=i: power_substitute(t, i),
                       kernel + [g.power(a, i)]))
    # The scalar automorphism i*I commutes with tau, so conjugating by it
    # takes v to i*v alone: the scaling orbits of ``v_candidates``.
    scalars = [MixedModulusMatrix.scalar(profile, i) for i in range(2, max(profile.moduli))
               if i % profile.p][:count]
    for phi in scalars + _kernel_automorphisms(profile)[:count]:
        phi_inverse = _inverse(phi)
        trials.append(("conjugate_type", lambda phi=phi: conjugate_type(t, phi),
                       [mat_apply(phi_inverse, x).rank() for x in _basis(profile)] + [a]))
    return trials


def _kernel_automorphisms(profile) -> list[MixedModulusMatrix]:
    """Four fixed automorphisms of the kernel, none the identity, at every odd p.

    ``conjugate_type`` rejects a matrix that is not an automorphism, and the
    transform check reports that as a failure.
    """
    p = profile.p
    if profile.rank == 2:
        pool = [
            ((1, 0), (1, 1)),
            ((1, p), (0, 1)),
            ((2, 0), (0, 1)),
            ((1 + p, p), (1, 2)),
        ]
    else:
        pool = [
            ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
            ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
            ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
        ]
    return [MixedModulusMatrix(rows, profile) for rows in pool]
