"""Deterministic property suite behind the ``verify`` CLI command.

Each check returns its name, a pass flag, and on failure a minimal
reproducing datum.  Every check is deterministic and exact at every prime:
the group axioms are proved for each candidate table by Light's test (see
``verify_group_axioms``).  Only the transform trials shrink above p = 3.
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
    ExtElement,
    build_group,
    conjugate_type,
    ext_power,
    norm_apply,
    power_substitute,
    shift_generator,
)
from .groups import element_order, isomorphic, verify_group_axioms
from .residues import MixedModulusMatrix, mat_pow


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

    # candidate_types validates every candidate it returns; no later check
    # can run without them.
    try:
        cands = candidate_types(cfg)
    except ClassificationError as exc:
        results.append(CheckResult("candidate-validation", False, str(exc)))
        return results
    results.append(CheckResult("candidate-validation", True))

    groups = {c.label: build_group(c.ext) for c in cands}

    failure = ""
    for label, group in groups.items():
        report = verify_group_axioms(group)
        if not report.ok:
            failure = f"{label}: {report.failure}"
            break
    results.append(CheckResult("group-axioms", not failure, failure))

    failure = ""
    for c in cands:
        t = c.ext
        for x in t.profile.elements():
            lhs = ext_power(t, ExtElement(x, 1), t.n)
            rhs = ExtElement(norm_apply(t, x) + t.v, 0)
            if lhs != rhs:
                failure = f"{c.label}: x={x.coords}"
                break
        if failure:
            break
    results.append(CheckResult("power-norm-law", not failure, failure))

    failure = ""
    for c in cands:
        closed = census_closed_form(c.ext)
        group = groups[c.label]
        e = group.identity_index
        brute = sum(1 for i in range(group.size) if group.power(i, p) == e)
        if closed != brute:
            failure = f"{c.label}: closed={closed} brute={brute}"
            break
    results.append(CheckResult("census-closed-form", not failure, failure))

    failure = ""
    nsize = p ** 3
    for c in cands:
        group = groups[c.label]
        per_coset = [
            sum(1 for r in range(nsize) if element_order(group, i * nsize + r) in (1, p))
            for i in range(p)
        ]
        if len(set(per_coset[1:])) > 1:
            failure = f"{c.label}: per-coset counts {per_coset}"
            break
    results.append(CheckResult("coset-census-balance", not failure, failure))

    try:
        emit_table2(cfg)
        results.append(CheckResult("table2-reverification", True))
    except ClassificationError as exc:
        results.append(CheckResult("table2-reverification", False, str(exc)))

    classification = None
    try:
        classification = classify_p4(cfg)
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
    for name, left, right, expected in checks:
        got, _ = isomorphic(groups[left], groups[right])
        results.append(CheckResult(
            name,
            got == expected,
            "" if got == expected else f"{left} vs {right}: got {got}, expected {expected}",
        ))
    if p > 3:
        # No fingerprint field separates this pair above p = 3; its
        # certificate is the twist count.
        left, right = groups["2x2-r4-v0"], groups["2x2-r5-v0"]
        got, _ = isomorphic(left, right)
        ok = not got and left.twist_count != right.twist_count
        results.append(CheckResult(
            "noniso-pair-residue-twist",
            ok,
            "" if ok else f"2x2-r4-v0 vs 2x2-r5-v0: isomorphic {got}, "
                          f"twist counts {left.twist_count} and {right.twist_count}",
        ))

    results.append(_check_transforms(cfg, cands, groups))
    return results


def _check_transforms(cfg, cands, groups) -> CheckResult:
    """Each equivalence transformation must produce an oracle-isomorphic group."""
    p = cfg.p
    if p == 3:
        selected = cands
        param_count = 5
    else:
        selected = cands[:3]
        param_count = 1

    for c in selected:
        t = c.ext
        base = groups[c.label]
        profile = t.profile
        elements = list(profile.elements())

        shift_args = elements[1 : 1 + param_count]
        coprime_n = [i for i in range(1, 5 * t.n) if math.gcd(i, t.n) == 1][:param_count]
        coprime_order = [i for i in range(1, 5 * p) if math.gcd(i, profile.order) == 1][:param_count]
        # The scalar automorphism i*I commutes with tau, so conjugating by it
        # takes v to i*v alone: the scaling orbits of ``v_candidates``.
        scalars = [MixedModulusMatrix.scalar(profile, i) for i in coprime_order]
        phis = _kernel_automorphisms(profile)[:param_count]

        trials = (
            [("shift_generator", lambda tt, x=x: shift_generator(tt, x)) for x in shift_args]
            + [("power_substitute", lambda tt, i=i: power_substitute(tt, i)) for i in coprime_n]
            + [("conjugate_type", lambda tt, m=m: conjugate_type(tt, m)) for m in scalars + phis]
        )
        for op_name, op in trials:
            try:
                transformed = op(t)
            except ValueError as exc:
                return CheckResult("transform-equivalence", False,
                                   f"{c.label} {op_name}: {exc}")
            ok, _ = isomorphic(base, build_group(transformed))
            if not ok:
                return CheckResult("transform-equivalence", False,
                                   f"{c.label} {op_name} produced a non-isomorphic group")
    return CheckResult("transform-equivalence", True)


def _kernel_automorphisms(profile) -> list[MixedModulusMatrix]:
    """The identity and four fixed automorphisms of the kernel, at every odd p.

    ``conjugate_type`` rejects a matrix that is not an automorphism, and the
    transform check reports that as a failure.
    """
    p = profile.p
    if profile.rank == 2:
        pool = [
            ((1, 0), (0, 1)),
            ((1, 0), (1, 1)),
            ((1, p), (0, 1)),
            ((2, 0), (0, 1)),
            ((1 + p, p), (1, 2)),
        ]
    else:
        pool = [
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
            ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
            ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
        ]
    return [MixedModulusMatrix(rows, profile) for rows in pool]
