"""Deterministic property suite behind the ``verify`` CLI command.

Each check returns its name, a pass flag, and on failure a minimal
reproducing datum.  Every check is deterministic and exact at every prime:
the group axioms are proved for each candidate table by Light's test (see
``verify_group_axioms``).  Each transform trial is certified by the map
the transform defines, with no search (see ``_check_transforms``):
a -> x*a maps (y, a'^j) to (y + x + tau(x) + ... + tau^(j-1)(x), a^j),
a -> a^i maps (y, b^j) to (y + floor(ij/n)*v, a^(ij mod n)), and phi maps
(y, c^j) to (phi^-1(y), a^j); the map must be a bijection that respects the
products with the candidate's generators.  A trial builds no table: it reads
the columns it checks from the transformed type's floor form
(``extension._product_column``).  The certificate has two premises: the
candidate table is associative (group-axioms), and the transformed type is
valid by construction, so its floor form is a group.  Only the transform
trials shrink above p = 3.  The per-candidate checks, ``classify_p4`` and the transform
trials share each candidate's one group, ``CandidateType.group``.
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
    _coset_map,
    _linear_ranks,
    _product_column,
    conjugate_type,
    norm_apply,
    power_substitute,
    shift_generator,
)
from .groups import _gather, element_order, isomorphic, verify_group_axioms
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
    report = verify_group_axioms(c.group)
    return "" if report.ok else f"{report.failure}"


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
    t' (or raises, a failure), and writes down the map the transform defines
    from the group of t' onto the group of the type t, on the numbering
    (x, a^j) -> j*|N| + rank(x) of ``build_group``:

    - ``shift_generator(t, x)``: (y, a'^j) -> (y + x + tau(x) + ... + tau^(j-1)(x), a^j);
    - ``power_substitute(t, i)``: (y, b^j) -> (y + floor(ij/n)*v, a^(ij mod n));
    - ``conjugate_type(t, phi)``: (y, c^j) -> (phi^-1(y), a^j).

    The map is inverted as a permutation, which fails unless it is a
    bijection, and the inverse must satisfy img(x*s) = img(x)*img(s) for
    every x and every member s of the generating sequence of t's group
    (``_is_isomorphism``).  The products on the side of t' are the columns
    img(s) of its floor form, read from t' without building its table.  The
    certificate has two premises: t's group is associative (group-axioms),
    and t' is valid by construction, so its floor form is a group.  No
    search is run: a map that fails is a failure of the transform.  At p = 3
    every candidate gets up to five parameters of each kind; above p = 3,
    the first three candidates get one.
    """
    p = cfg.p
    selected, count = (cands, 5) if p == 3 else (cands[:3], 1)
    for c in selected:
        base = c.group
        for op_name, op, img in _transform_trials(c.ext, count):
            try:
                transformed = op()
            except ValueError as exc:
                return CheckResult("transform-equivalence", False,
                                   f"{c.label} {op_name}: {exc}")
            if not _is_isomorphism(img, transformed, base):
                return CheckResult("transform-equivalence", False,
                                   f"{c.label} {op_name}: its map is not an isomorphism")
    return CheckResult("transform-equivalence", True)


def _transform_trials(t, count):
    """(transform name, thunk returning the transformed type, index map from
    the transformed group onto the group of t) for count parameters of each
    kind.  No parameter is the identity: exponents start at 2, the scalars
    are the units of Z/e other than 1, e the kernel's exponent, and the
    automorphism pool has no identity.  The shifts are the last kernel
    elements in rank order, whose first coordinate is a unit; on the mixed
    kernel their norm is nonzero for most catalog tau, so v moves."""
    profile, n = t.profile, t.n
    nsize = profile.order
    same = range(nsize)
    zeros = [profile.zero()] * n

    trials = []
    for r in range(nsize - count, nsize):
        x = profile.element(profile.coords_of(r))
        partial_norms = [profile.zero()]
        for _ in range(n - 1):
            partial_norms.append(x + mat_apply(t.tau, partial_norms[-1]))
        trials.append(("shift_generator", lambda x=x: shift_generator(t, x),
                       _coset_map(profile, same, partial_norms, 1)))
    for i in [i for i in range(2, 5 * n) if math.gcd(i, n) == 1][:count]:
        wraps = [t.v.scale(i * j // n) for j in range(n)]
        trials.append(("power_substitute", lambda i=i: power_substitute(t, i),
                       _coset_map(profile, same, wraps, i)))
    # The scalar automorphism i*I commutes with tau, so conjugating by it
    # takes v to i*v alone: the scaling orbits of ``v_candidates``.
    scalars = [MixedModulusMatrix.scalar(profile, i) for i in range(2, max(profile.moduli))
               if i % profile.p][:count]
    for phi in scalars + _kernel_automorphisms(profile)[:count]:
        phi_ranks = _linear_ranks(phi)
        phi_inverse = sorted(same, key=phi_ranks.__getitem__)
        trials.append(("conjugate_type", lambda phi=phi: conjugate_type(t, phi),
                       _coset_map(profile, phi_inverse, zeros, 1)))
    return trials


def _is_isomorphism(img, t, g) -> bool:
    """Whether the index map img from the group of type t onto g is an
    isomorphism: its inverse, found by sorting, must be a bijection that
    respects the products with g's generating sequence, read on t's side
    from the floor form (``_product_column``).  As in
    ``groups._respects_generators``, that proves an isomorphism because g is
    associative (group-axioms) and t is valid by construction, so its floor
    form is a group."""
    size = g.size
    if t.group_order != size or len(img) != size:
        return False
    inverse = sorted(range(size), key=img.__getitem__)
    if _gather(img, inverse) != tuple(range(size)):
        return False
    table = g._table
    return all(
        _gather(inverse, table[s::size]) == _gather(_product_column(t, inverse[s]), inverse)
        for s in g.generating_sequence
    )


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
