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
transformed type's relations (see ``_check_transforms``).  Only the
transform trials shrink above p = 3.  The per-candidate checks,
``classify_p4`` and the transform trials share each candidate's one group,
``CandidateType.group``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classify import (
    ClassificationError,
    ClassifyConfig,
    candidate_types,
    census_closed_form,
    classify_p4,
    emit_table2,
    tau_catalog,
    verify_prop_abelian_subgroup,
    verify_prop_no_cyclic,
)
from .extension import (
    _basis,
    _inverse,
    _relations_problem,
    conjugate_type,
    norm_apply,
    power_substitute,
    shift_generator,
)
from .groups import element_order, isomorphic, verify_group_axioms
from .residues import MixedModulusMatrix, mat_apply, mat_pow


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def run_verification_suite(cfg: ClassifyConfig) -> list[CheckResult]:
    results: list[CheckResult] = []
    p = cfg.p

    # p is prime, so tau has order p exactly when tau^p = I and tau != I.
    bad = []
    for name, tau in tau_catalog(cfg):
        identity = MixedModulusMatrix.identity(tau.profile)
        if tau == identity or mat_pow(tau, p) != identity:
            bad.append(name)
    results.append(CheckResult(
        "tau-catalog-order",
        not bad,
        "" if not bad else f"catalog entries of wrong order: {bad}",
    ))

    # Every candidate is a valid type, or candidate_types raises naming the
    # catalog tau; no later check can run without them.
    try:
        cands = candidate_types(cfg)
    except ClassificationError as exc:
        results.append(CheckResult("candidate-validation", False, str(exc)))
        return results
    results.append(CheckResult("candidate-validation", True))

    for name, problem in [
        ("group-axioms", _axioms_problem),
        ("power-norm-law", _power_norm_problem),
        ("census-closed-form", _census_problem),
        ("coset-census-balance", _coset_balance_problem),
    ]:
        failure = _first_failure(cands, problem)
        results.append(CheckResult(name, not failure, failure))

    try:
        emit_table2(cfg, cands)
        results.append(CheckResult("table2-reverification", True))
    except ClassificationError as exc:
        results.append(CheckResult("table2-reverification", False, str(exc)))

    classification = None
    try:
        classification = classify_p4(cfg, cands)
        ok = (classification.abelian_count, classification.nonabelian_count) == (5, 10)
        results.append(CheckResult(
            "classification-counts",
            ok,
            "" if ok else f"counts: {classification.abelian_count} abelian, "
                          f"{classification.nonabelian_count} nonabelian",
        ))
    except ClassificationError as exc:
        results.append(CheckResult("classification-counts", False, str(exc)))

    if classification is not None:
        failing = [
            cls.label
            for cls in classification.nonabelian_classes
            if not verify_prop_abelian_subgroup(cls.group)
        ]
        results.append(CheckResult(
            "abelian-subgroup-property",
            not failing,
            "" if not failing else f"classes without a large abelian subgroup: {failing}",
        ))
        failing = [
            cls.label
            for cls in classification.nonabelian_classes
            if not verify_prop_no_cyclic(cls.group)
        ]
        results.append(CheckResult(
            "order-p2xp-subgroup-property",
            not failing,
            "" if not failing else f"classes violating the subgroup property: {failing}",
        ))

    checks = [
        ("iso-pair-shared-relations", "2x2-r2-v-e2", "2x2-r3-v-e2", True),
        ("noniso-pair-split-v0", "2x2-r2-v0", "2x2-r3-v0", False),
    ]
    by_label = {c.label: c for c in cands}
    for name, left, right, expected in checks:
        got, _ = isomorphic(by_label[left].group, by_label[right].group)
        results.append(CheckResult(
            name,
            got == expected,
            "" if got == expected else f"{left} vs {right}: got {got}, expected {expected}",
        ))
    if p > 3:
        # No fingerprint field separates this pair above p = 3; its
        # certificate is the twist count.
        left, right = by_label["2x2-r4-v0"].group, by_label["2x2-r5-v0"].group
        got, _ = isomorphic(left, right)
        ok = not got and left.twist_count != right.twist_count
        results.append(CheckResult(
            "noniso-pair-residue-twist",
            ok,
            "" if ok else f"2x2-r4-v0 vs 2x2-r5-v0: isomorphic {got}, "
                          f"twist counts {left.twist_count} and {right.twist_count}",
        ))

    results.append(_check_transforms(cfg, cands))
    return results


def _first_failure(cands, problem) -> str:
    """"<label>: <detail>" for the first candidate c whose problem(c) is
    non-empty, else ""."""
    for c in cands:
        detail = problem(c)
        if detail:
            return f"{c.label}: {detail}"
    return ""


def _axioms_problem(c) -> str:
    """Light's test, then the type's defining relations on the generators
    (e_k, a^0) and (0, a) of the table, at indices rank(e_k) and |N|."""
    report = verify_group_axioms(c.group)
    if not report.ok:
        return f"{report.failure}"
    profile = c.ext.profile
    standard = [x.rank() for x in _basis(profile)] + [profile.order]
    return _relations_problem(c.ext, standard, c.group)


def _power_norm_problem(c) -> str:
    """The first kernel element x, as "x=<coords>", whose p-th power
    (x, a)^p in the candidate's table is not (norm(x) + v, a^0), else "".

    Every catalog type has n = p, so (x, a)^n is the entry of ``pth_powers``
    for (x, a), index |N| + rank(x).  The expected side is computed on the
    kernel elements with ``norm_apply``, not with the rank machinery that
    builds the table."""
    t, powers = c.ext, c.group.pth_powers
    nsize = t.profile.order
    for x in t.profile.elements():
        if powers[nsize + x.rank()] != (norm_apply(t, x) + t.v).rank():
            return f"x={x.coords}"
    return ""


def _census_problem(c) -> str:
    closed = census_closed_form(c.ext)
    brute = c.group.pth_powers.count(c.group.identity_index)
    return "" if closed == brute else f"closed={closed} brute={brute}"


def _coset_balance_problem(c) -> str:
    """The nontrivial cosets of the kernel must hold equally many elements
    of order dividing p."""
    p, nsize = c.ext.profile.p, c.ext.profile.order
    per_coset = [
        sum(1 for r in range(nsize) if element_order(c.group, i * nsize + r) in (1, p))
        for i in range(p)
    ]
    return "" if len(set(per_coset[1:])) <= 1 else f"per-coset counts {per_coset}"


def _check_transforms(cfg, cands) -> CheckResult:
    """Each equivalence transformation must come with its own isomorphism.

    Every trial applies the transform, which validates the transformed type
    t' (or raises, a failure), and names in the candidate's group g the
    images of the generators of t', the substitution the transform stands for:

    - ``shift_generator(t, x)``: e_k -> e_k, a' -> x*a;
    - ``power_substitute(t, i)``: e_k -> e_k, b -> a^i;
    - ``conjugate_type(t, phi)``: e_k -> phi^-1(e_k), c -> a.

    The images must pass ``_relations_problem`` for t', which proves the map
    an isomorphism given that g is a group (group-axioms).  No search is run:
    a map that fails is a failure of the transform.  At p = 3 every candidate
    gets up to five parameters of each kind; above p = 3, the first three
    candidates get one.
    """
    p = cfg.p
    selected, count = (cands, 5) if p == 3 else (cands[:3], 1)
    for c in selected:
        for op_name, op, images in _transform_trials(c.ext, c.group, count):
            try:
                transformed = op()
            except ValueError as exc:
                return CheckResult("transform-equivalence", False,
                                   f"{c.label} {op_name}: {exc}")
            problem = _relations_problem(transformed, images, c.group)
            if problem:
                return CheckResult("transform-equivalence", False, f"{c.label} {op_name}: "
                                   f"its map is not an isomorphism ({problem})")
    return CheckResult("transform-equivalence", True)


def _transform_trials(t, g, count):
    """(transform name, thunk returning the transformed type, images in g of
    the transformed type's generators) for count parameters of each kind;
    g is the group of t, numbered as ``build_group`` does, so e_k has index
    rank(e_k) and a has index |N|.  No parameter is the identity: exponents
    start at 2, the scalars are the units of Z/e other than 1, e the
    kernel's exponent, and the automorphism pool has no identity.  The
    shifts are the last kernel elements in rank order, whose first
    coordinate is a unit; on the mixed kernel their norm is nonzero for most
    catalog tau, so v moves."""
    profile, n = t.profile, t.n
    nsize = profile.order
    basis = _basis(profile)
    kernel = [x.rank() for x in basis]

    trials = []
    for r in range(nsize - count, nsize):
        x = profile.element(profile.coords_of(r))
        trials.append(("shift_generator", lambda x=x: shift_generator(t, x),
                       kernel + [g.mul(r, nsize)]))
    for i in [i for i in range(2, 5 * n) if math.gcd(i, n) == 1][:count]:
        trials.append(("power_substitute", lambda i=i: power_substitute(t, i),
                       kernel + [g.power(nsize, i)]))
    # The scalar automorphism i*I commutes with tau, so conjugating by it
    # takes v to i*v alone: the scaling orbits of ``v_candidates``.
    scalars = [MixedModulusMatrix.scalar(profile, i) for i in range(2, max(profile.moduli))
               if i % profile.p][:count]
    for phi in scalars + _kernel_automorphisms(profile)[:count]:
        phi_inverse = _inverse(phi)
        trials.append(("conjugate_type", lambda phi=phi: conjugate_type(t, phi),
                       [mat_apply(phi_inverse, x).rank() for x in basis] + [nsize]))
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
