"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  All tolerances are exact (integer or boolean) equality.  Criteria 1
and 4-9 assert on the checks of ``run_verification_suite``, the suite behind
``p4groups verify``, run once at p = 3 and once at p = 5.
"""

import math
from contextlib import contextmanager

import pytest

from p4groups.classify import ClassifyConfig, emit_table1, emit_table2
from p4groups.residues import (
    MixedModulusMatrix,
    ModulusProfile,
    mat_inverse,
    mat_mul,
    mat_pow,
)
from p4groups.verification import run_verification_suite


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL — {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS — {description}")


@pytest.fixture(scope="module")
def suite():
    """The verify suite's checks at p = 3 and p = 5, keyed by prime and name."""
    return {
        p: {check.name: check for check in run_verification_suite(ClassifyConfig.for_prime(p))}
        for p in (3, 5)
    }


def assert_checks_ok(suite, *names, primes=(3, 5)):
    for p in primes:
        for name in names:
            check = suite[p][name]
            assert check.ok, f"p={p} {name}: {check.detail}"


def test_criterion_1_classification_counts(suite):
    with criterion(1, "15 classes (5 abelian, 10 nonabelian) at p=3 and p=5, "
                      "pairwise non-isomorphic by fingerprint or twist count"):
        # classify_p4 certifies every pair of classes non-isomorphic.
        assert_checks_ok(suite, "classification-counts")


EXPECTED_TABLE2_P3 = [
    ("2x2-r1", (0, 0), (9,), 27),
    ("2x2-r1", (1, 0), (9,), 9),
    ("2x2-r2", (0, 0), (3, 3), 27),
    ("2x2-r2", (0, 1), (3, 3), 9),
    ("2x2-r3", (0, 0), (3, 3), 27),
    ("2x2-r4", (0, 0), (3,), 27),
    ("2x2-r5", (0, 0), (3,), 63),
    ("2x2-r5", (3, 0), (3,), 9),
    ("3x3-J2", (0, 0, 0), (3, 3), 81),
    ("3x3-J3", (0, 0, 0), (3,), 45),
]

EXPECTED_TABLE2_P5 = [
    ("2x2-r1", (0, 0), (25,), 125),
    ("2x2-r1", (1, 0), (25,), 25),
    ("2x2-r2", (0, 0), (5, 5), 125),
    ("2x2-r2", (0, 1), (5, 5), 25),
    ("2x2-r3", (0, 0), (5, 5), 125),
    ("2x2-r4", (0, 0), (5,), 125),
    ("2x2-r5", (0, 0), (5,), 125),
    ("3x3-J2", (0, 0, 0), (5, 5), 625),
    ("3x3-J3", (0, 0, 0), (5,), 625),
    ("3x3-J3", (1, 0, 0), (5,), 125),
]



def test_criterion_2_table2_reproduction():
    with criterion(2, "center invariants and order-<=p census per row at p=3, p=5"):
        for p, expected in ((3, EXPECTED_TABLE2_P3), (5, EXPECTED_TABLE2_P5)):
            rows = emit_table2(ClassifyConfig.for_prime(p))  # re-verifies against brute force
            got = [(r.tau_label, r.v.coords, r.center_invariants, r.census_le_p)
                   for r in rows]
            assert got == expected


EXPECTED_TABLE1_P3 = [
    ("2x2-r1", ((1, 3), (0, 1)), [(1, 0)], ((3, 0), (0, 0)), [(3, 0)], [(0, 0), (1, 0)]),
    ("2x2-r2", ((4, 0), (0, 1)), [(3, 0), (0, 1)], ((3, 0), (0, 0)), [(3, 0)], [(0, 0), (0, 1)]),
    ("2x2-r3", ((1, 0), (1, 1)), [(3, 0), (0, 1)], ((3, 0), (0, 0)), [(3, 0)], [(0, 0), (0, 1)]),
    ("2x2-r4", ((1, 3), (1, 1)), [(3, 0)], ((6, 0), (0, 0)), [(3, 0)], [(0, 0)]),
    ("2x2-r5", ((1, 6), (1, 1)), [(3, 0)], ((0, 0), (0, 0)), [], [(0, 0), (3, 0)]),
    ("3x3-J2", ((1, 1, 0), (0, 1, 0), (0, 0, 1)), [(1, 0, 0), (0, 0, 1)],
     ((0, 0, 0), (0, 0, 0), (0, 0, 0)), [], [(0, 0, 0)]),
    ("3x3-J3", ((1, 1, 0), (0, 1, 1), (0, 0, 1)), [(1, 0, 0)],
     ((0, 0, 1), (0, 0, 0), (0, 0, 0)), [(1, 0, 0)], [(0, 0, 0)]),
]

EXPECTED_TABLE1_P5 = [
    ("2x2-r1", ((1, 5), (0, 1)), [(1, 0)], ((5, 0), (0, 0)), [(5, 0)], [(0, 0), (1, 0)]),
    ("2x2-r2", ((6, 0), (0, 1)), [(5, 0), (0, 1)], ((5, 0), (0, 0)), [(5, 0)], [(0, 0), (0, 1)]),
    ("2x2-r3", ((1, 0), (1, 1)), [(5, 0), (0, 1)], ((5, 0), (0, 0)), [(5, 0)], [(0, 0), (0, 1)]),
    ("2x2-r4", ((1, 5), (1, 1)), [(5, 0)], ((5, 0), (0, 0)), [(5, 0)], [(0, 0)]),
    ("2x2-r5", ((1, 10), (1, 1)), [(5, 0)], ((5, 0), (0, 0)), [(5, 0)], [(0, 0)]),
    ("3x3-J2", ((1, 1, 0), (0, 1, 0), (0, 0, 1)), [(1, 0, 0), (0, 0, 1)],
     ((0, 0, 0), (0, 0, 0), (0, 0, 0)), [], [(0, 0, 0)]),
    ("3x3-J3", ((1, 1, 0), (0, 1, 1), (0, 0, 1)), [(1, 0, 0)],
     ((0, 0, 0), (0, 0, 0), (0, 0, 0)), [], [(0, 0, 0), (1, 0, 0)]),
]



def test_criterion_3_table1_reproduction():
    with criterion(3, "fixed-point generators, norm matrices, images, and "
                      "v choices per catalog row at p=3, p=5"):
        for p, expected in ((3, EXPECTED_TABLE1_P3), (5, EXPECTED_TABLE1_P5)):
            got = [
                (
                    r.tau_label,
                    r.tau.entries,
                    [r.tau.profile.coords_of(g) for g in r.fixed_subgroup.generators],
                    r.norm.entries,
                    [r.tau.profile.coords_of(g) for g in r.image.generators],
                    [v.coords for v in r.v_choices],
                )
                for r in emit_table1(ClassifyConfig.for_prime(p))
            ]
            assert got == expected


def test_criterion_4_known_pair_oracle_checks(suite):
    with criterion(4, "the known equivalent pair merges and the two known "
                      "inequivalent pairs separate, by oracle"):
        assert_checks_ok(suite, "iso-pair-shared-relations", "noniso-pair-split-v0")
        assert_checks_ok(suite, "noniso-pair-residue-twist", primes=(5,))


def test_criterion_5_construction_soundness(suite):
    with criterion(5, "group axioms hold for every candidate, exactly at p=3 "
                      "and p=5: full identity and inverse checks, and "
                      "associativity by Light's test on the generators"):
        assert_checks_ok(suite, "group-axioms")


def test_criterion_6_power_norm_law(suite):
    with criterion(6, "(x, a)^p equals (norm(x) + v, identity coset) for all "
                      "x in the kernel, every catalog type"):
        assert_checks_ok(suite, "power-norm-law")


def test_criterion_7_equivalence_transformations(suite):
    with criterion(7, "shift_generator, power_substitute, and conjugate_type "
                      "(by scalar and by fixed automorphisms) give groups "
                      "isomorphic by the transform's own map for every catalog "
                      "type at p=3, up to five parameters each"):
        assert_checks_ok(suite, "transform-equivalence")


def test_criterion_8_census_closed_form(suite):
    with criterion(8, "closed-form order-<=p census equals brute force for "
                      "every candidate at p=3 and p=5"):
        assert_checks_ok(suite, "census-closed-form")


def test_criterion_9_structural_propositions(suite):
    with criterion(9, "every nonabelian class at p=3 and p=5 has an abelian "
                      "subgroup of order >= p^3 and satisfies the order-p^3 "
                      "cyclic-subgroup property"):
        assert_checks_ok(suite, "abelian-subgroup-property", "order-p2xp-subgroup-property")


def test_criterion_10_matrix_identities():
    with criterion(10, "the four 2x2 conjugation/power identities hold for "
                       "all parameters s, r, q in [0, p) at p in {3, 5, 7}"):
        for p in (3, 5, 7):
            profile = ModulusProfile(p, "p2xp")

            def m(rows):
                return MixedModulusMatrix(rows, profile)

            conj_zero = m(((1, 0), (1, 1)))
            conj_zero_inv = mat_inverse(conj_zero)
            conj_one = m(((1, -p), (0, 1)))
            conj_one_inv = mat_inverse(conj_one)
            scaling = m(((1 + p, 0), (0, 1)))

            for s in range(p):
                assert mat_pow(scaling, s) == m(((1 + s * p, 0), (0, 1)))
                for r in range(p):
                    alpha, beta = 1 + s * p, r * p
                    upper = m(((alpha, beta), (0, 1)))
                    assert mat_mul(mat_mul(conj_zero, upper), conj_zero_inv) == m(
                        ((alpha - beta, beta), (0, 1))
                    )
                    lower = m(((alpha, beta), (1, 1)))
                    assert mat_mul(mat_mul(conj_one, lower), conj_one_inv) == m(
                        ((alpha - p, beta), (1, 1))
                    )
            for r in range(p):
                unipotent = m(((1, r * p), (1, 1)))
                for q in range(p):
                    expected = m(((1 + math.comb(q, 2) * r * p, q * r * p), (q, 1)))
                    assert mat_pow(unipotent, q) == expected
