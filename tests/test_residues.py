"""Mixed-modulus matrix algebra: application, powers, inverses, fixed points,
norm matrices and images."""

import math
import random
from itertools import product

import pytest

from p4groups.classify import ClassifyConfig, tau_catalog
from p4groups.groups import (
    Subgroup,
    _small_generating_subset,
    abelian_group,
    abelian_invariants,
    invariant_factors_from_orders,
)
from p4groups.residues import (
    KernelSubgroup,
    MixedModulusMatrix,
    ModulusProfile,
    fixed_points,
    image_subgroup,
    mat_apply,
    mat_inverse,
    mat_mul,
    mat_pow,
    norm_matrix,
)


def mixed(p):
    return ModulusProfile(p, "p2xp")


def elem3(p):
    return ModulusProfile(p, "pxpxp")


def mat(rows, profile):
    return MixedModulusMatrix(tuple(tuple(r) for r in rows), profile)


FULL_JORDAN = ((1, 1, 0), (0, 1, 1), (0, 0, 1))


class TestProfile:
    def test_moduli(self):
        assert mixed(3).moduli == (9, 3)
        assert elem3(5).moduli == (5, 5, 5)

    def test_order_and_rank(self):
        assert mixed(3).order == 27
        assert elem3(7).rank == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ModulusProfile(4, "p2xp")
        with pytest.raises(ValueError):
            ModulusProfile(3, "p3")
        with pytest.raises(ValueError):
            ModulusProfile(101, "p2xp")

    def test_accepts_p2(self):
        # Construction machinery stays usable at p = 2; only the
        # classification layer restricts to odd primes.
        assert ModulusProfile(2, "p2xp").moduli == (4, 2)

    def test_rank_roundtrip(self):
        prof = mixed(3)
        for i, e in enumerate(prof.elements()):
            assert e.rank() == i
            assert prof.coords_of(i) == e.coords

    @pytest.mark.parametrize("prof", [mixed(3), elem3(3)], ids=["p2xp", "pxpxp"])
    def test_kernel_group_numbering(self, prof):
        # abelian_group(moduli) numbers its elements by rank, so its product
        # is coordinate addition.
        kernel = abelian_group(prof.moduli)
        for a in prof.elements():
            for b in prof.elements():
                assert kernel.mul(a.rank(), b.rank()) == (a + b).rank()


class TestAbelianElement:
    def test_reduction_and_addition(self):
        prof = mixed(3)
        a = prof.element((10, 4))
        assert a.coords == (1, 1)
        b = prof.element((8, 2))
        assert (a + b).coords == (0, 0)
        assert (-b).coords == (1, 1)

    def test_order_in_kernel_group(self):
        # The kernel group numbers elements by rank, so additive orders are
        # read off its element orders.
        prof = mixed(3)
        orders = abelian_group(prof.moduli).element_orders
        assert orders[prof.zero().rank()] == 1
        assert orders[prof.element((1, 0)).rank()] == 9
        assert orders[prof.element((3, 1)).rank()] == 3

    def test_profile_mismatch(self):
        with pytest.raises(ValueError):
            mixed(3).element((0, 0)) + mixed(5).element((0, 0))


class TestMatApply:
    def test_identity_is_identity_function(self):
        prof = mixed(3)
        ident = MixedModulusMatrix.identity(prof)
        v = prof.element((5, 2))
        assert mat_apply(ident, v) == v

    def test_shear_on_second_generator(self):
        prof = mixed(3)
        assert mat_apply(mat([[1, 3], [0, 1]], prof), prof.element((0, 1))).coords == (3, 1)

    def test_shear_on_first_generator(self):
        prof = mixed(3)
        assert mat_apply(mat([[1, 0], [1, 1]], prof), prof.element((1, 0))).coords == (1, 1)

    def test_profile_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mat_apply(MixedModulusMatrix.identity(mixed(3)), mixed(5).element((0, 0)))


class TestMatMul:
    def test_square_of_shear(self):
        prof = mixed(3)
        m = mat([[1, 3], [0, 1]], prof)
        assert mat_mul(m, m).entries == ((1, 6), (0, 1))

    def test_square_with_unipotent_part(self):
        prof = mixed(5)
        m = mat([[1, 5], [1, 1]], prof)
        assert mat_mul(m, m).entries == ((6, 10), (2, 1))

    def test_identity_neutral(self):
        prof = mixed(7)
        m = mat([[1, 7], [1, 1]], prof)
        ident = MixedModulusMatrix.identity(prof)
        assert mat_mul(ident, m) == m
        assert mat_mul(m, ident) == m

    def test_divisibility_invariant_enforced(self):
        with pytest.raises(ValueError):
            mat([[1, 1], [0, 1]], mixed(3))

    def test_composition_exhaustive_p3(self):
        prof = mixed(3)
        sample = [
            mat([[1, 3], [0, 1]], prof),
            mat([[4, 0], [0, 1]], prof),
            mat([[1, 0], [1, 1]], prof),
            mat([[1, 6], [1, 1]], prof),
            norm_matrix(mat([[1, 3], [0, 1]], prof), 3),
        ]
        for a, b in product(sample, repeat=2):
            ab = mat_mul(a, b)
            for v in prof.elements():
                assert mat_apply(ab, v) == mat_apply(a, mat_apply(b, v))

    def test_composition_random_p5(self):
        import random

        rng = random.Random(0)
        prof = elem3(5)
        mats = []
        while len(mats) < 4:
            rows = tuple(tuple(rng.randrange(5) for _ in range(3)) for _ in range(3))
            mats.append(mat(rows, prof))
        vs = [prof.element(tuple(rng.randrange(5) for _ in range(3))) for _ in range(50)]
        for a, b in product(mats, repeat=2):
            ab = mat_mul(a, b)
            for v in vs:
                assert mat_apply(ab, v) == mat_apply(a, mat_apply(b, v))


class TestMatPow:
    def test_zeroth_power(self):
        prof = mixed(5)
        m = mat([[1, 5], [1, 1]], prof)
        assert mat_pow(m, 0) == MixedModulusMatrix.identity(prof)

    def test_scaling_power(self):
        prof = mixed(5)
        assert mat_pow(mat([[6, 0], [0, 1]], prof), 3).entries == ((16, 0), (0, 1))

    def test_unipotent_cube_is_identity(self):
        prof = mixed(3)
        m = mat([[1, 3], [1, 1]], prof)
        assert mat_pow(m, 3) == MixedModulusMatrix.identity(prof)

    def test_matches_repeated_multiplication(self):
        prof = mixed(3)
        m = mat([[4, 3], [1, 2]], prof)
        acc = MixedModulusMatrix.identity(prof)
        for k in range(8):
            assert mat_pow(m, k) == acc
            acc = mat_mul(acc, m)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(MixedModulusMatrix.identity(mixed(3)), -1)


@pytest.mark.parametrize("p", [3, 5, 7])
class TestClosedFormIdentities:
    def test_scaling_powers(self, p):
        prof = mixed(p)
        base = mat([[1 + p, 0], [0, 1]], prof)
        for s in range(p):
            assert mat_pow(base, s) == mat([[1 + s * p, 0], [0, 1]], prof)

    def test_unipotent_powers(self, p):
        prof = mixed(p)
        for r in range(p):
            base = mat([[1, r * p], [1, 1]], prof)
            for q in range(p):
                expected = mat(
                    [[1 + math.comb(q, 2) * r * p, q * r * p], [q, 1]], prof
                )
                assert mat_pow(base, q) == expected

    def test_conjugation_of_upper_types(self, p):
        prof = mixed(p)
        phi = mat([[1, 0], [1, 1]], prof)
        phi_inv = mat_inverse(phi)
        for s in range(p):
            for r in range(p):
                alpha, beta = 1 + s * p, r * p
                tau = mat([[alpha, beta], [0, 1]], prof)
                expected = mat([[alpha - beta, beta], [0, 1]], prof)
                assert mat_mul(mat_mul(phi, tau), phi_inv) == expected

    def test_conjugation_of_lower_types(self, p):
        prof = mixed(p)
        phi = mat([[1, -p], [0, 1]], prof)
        phi_inv = mat_inverse(phi)
        for s in range(p):
            for r in range(p):
                alpha, beta = 1 + s * p, r * p
                tau = mat([[alpha, beta], [1, 1]], prof)
                expected = mat([[alpha - p, beta], [1, 1]], prof)
                assert mat_mul(mat_mul(phi, tau), phi_inv) == expected


class TestMatOrder:
    """``mat_inverse``, which rests on m^|Aut N| = I."""

    def test_non_automorphism_rejected(self):
        with pytest.raises(ValueError):
            mat_inverse(mat([[3, 0], [0, 1]], mixed(3)))

    def test_inverse(self):
        samples = [
            mat([[7, 10], [3, 4]], mixed(5)),
            mat([[0, 1, 2], [1, 0, 0], [1, 1, 1]], elem3(3)),
        ]
        for m in samples:
            identity = MixedModulusMatrix.identity(m.profile)
            assert mat_mul(m, mat_inverse(m)) == identity == mat_mul(mat_inverse(m), m)


class TestFixedPoints:
    def test_shear_fixes_first_axis(self):
        prof = mixed(3)
        sub = fixed_points(mat([[1, 3], [0, 1]], prof))
        assert [prof.coords_of(g) for g in sub.generators] == [(1, 0)]
        assert sub.order == 9
        assert all(prof.coords_of(e)[1] == 0 for e in sub.elements)

    def test_scaling_fixed_subgroup(self):
        prof = mixed(3)
        sub = fixed_points(mat([[4, 0], [0, 1]], prof))
        assert [prof.coords_of(g) for g in sub.generators] == [(3, 0), (0, 1)]
        assert sub.order == 9

    def test_elements_are_ranks(self):
        prof = mixed(5)
        m = mat([[1, 5], [1, 1]], prof)
        sub = fixed_points(m)
        assert sub.profile == prof
        assert sub.elements == tuple(sorted(v.rank() for v in prof.elements() if mat_apply(m, v) == v))
        assert list(sub.generators) == sorted(sub.generators, reverse=True)

    def test_identity_fixes_everything(self):
        prof = mixed(3)
        assert fixed_points(MixedModulusMatrix.identity(prof)).order == 27

    def test_closed_under_addition_and_negation(self):
        prof = mixed(5)
        sub = fixed_points(mat([[1, 5], [1, 1]], prof))
        els = {prof.element_of(r) for r in sub.elements}
        for a in els:
            assert -a in els
            for b in els:
                assert a + b in els


def random_maps(seed, count):
    """Seeded random matrices of both shapes at p <= 11, automorphisms or not."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((3, 5, 7, 11))
        profile = ModulusProfile(p, rng.choice(("p2xp", "pxpxp")))
        rows = [[rng.randrange(m) for _ in profile.moduli] for m in profile.moduli]
        if profile.shape == "p2xp":
            rows[0][1] = p * rng.randrange(p)
        yield mat(rows, profile)


CATALOG_TAUS = {f"{name}-p{p}": tau for p in (3, 5, 7, 11, 13)
                for name, tau in tau_catalog(ClassifyConfig.for_prime(p))}


class TestFixedPointsDefinition:
    """fixed_points against its definition, one mat_apply per element."""

    @staticmethod
    def reference(m):
        return KernelSubgroup.of(m.profile, {v.rank() for v in m.profile.elements()
                                             if mat_apply(m, v) == v})

    @pytest.mark.parametrize("tau", CATALOG_TAUS.values(), ids=CATALOG_TAUS.keys())
    def test_catalog(self, tau):
        assert fixed_points(tau) == self.reference(tau)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_maps(self, seed):
        for m in random_maps(seed, 40):
            assert fixed_points(m) == self.reference(m), m

    def test_does_not_enumerate_the_kernel(self, monkeypatch):
        def refuse(profile):
            raise AssertionError("fixed_points enumerated the kernel")

        monkeypatch.setattr(ModulusProfile, "elements", refuse)
        for tau in CATALOG_TAUS.values():
            assert fixed_points(tau).order in (tau.profile.p ** 2, tau.profile.p)


class TestNormMatrix:
    def test_shear_norm(self):
        prof = mixed(3)
        assert norm_matrix(mat([[1, 3], [0, 1]], prof), 3).entries == ((3, 0), (0, 0))

    def test_full_jordan_p3_has_corner_entry(self):
        prof = elem3(3)
        nm = norm_matrix(mat(FULL_JORDAN, prof), 3)
        assert nm.entries == ((0, 0, 1), (0, 0, 0), (0, 0, 0))

    def test_full_jordan_p5_is_zero(self):
        prof = elem3(5)
        nm = norm_matrix(mat(FULL_JORDAN, prof), 5)
        assert nm == MixedModulusMatrix.zero(prof)

    def test_image_in_fixed_points_for_catalog_order_p(self):
        for p in (3, 5):
            prof = mixed(p)
            taus = [
                mat([[1, p], [0, 1]], prof),
                mat([[1 + p, 0], [0, 1]], prof),
                mat([[1, 0], [1, 1]], prof),
                mat([[1, p], [1, 1]], prof),
                mat([[1, 2 * p], [1, 1]], prof),
            ]
            for tau in taus:
                fixed = set(fixed_points(tau).elements)
                for x in image_subgroup(norm_matrix(tau, p)).elements:
                    assert x in fixed


class TestImageSubgroup:
    def test_scaled_axis(self):
        prof = mixed(3)
        sub = image_subgroup(mat([[3, 0], [0, 0]], prof))
        assert [prof.coords_of(g) for g in sub.generators] == [(3, 0)]
        assert sub.order == 3

    def test_zero_map(self):
        prof = mixed(3)
        sub = image_subgroup(MixedModulusMatrix.zero(prof))
        assert sub.order == 1
        assert sub.generators == ()

    def test_corner_map(self):
        prof = elem3(3)
        m = mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]], prof)
        sub = image_subgroup(m)
        assert [prof.coords_of(g) for g in sub.generators] == [(1, 0, 0)]


def table_reference(profile, ranks):
    """Elements, generators (by descending rank) and invariant factors of the
    subgroup on the given ranks, read from the kernel's Cayley table."""
    kernel = abelian_group(profile.moduli)
    elements = tuple(sorted(set(ranks)))
    gens = _small_generating_subset(kernel.element_orders, elements, kernel.closure)
    sub = Subgroup(kernel, elements, tuple(sorted(gens, reverse=True)))  # elements = closure
    return sub.elements, sub.generators, abelian_invariants(sub)


def reference_maps():
    """Every catalog tau and its norm at p = 3, 5 and 7, and the matrices
    of the tests above."""
    for p in (3, 5, 7):
        for name, tau in tau_catalog(ClassifyConfig.for_prime(p)):
            yield f"{name}-p{p}", tau
            yield f"{name}-p{p}-norm", norm_matrix(tau, p)
    yield "shear", mat([[1, 3], [0, 1]], mixed(3))
    yield "scaling", mat([[4, 0], [0, 1]], mixed(3))
    yield "scaled-axis", mat([[3, 0], [0, 0]], mixed(3))
    yield "twist-p5", mat([[1, 5], [1, 1]], mixed(5))
    yield "corner", mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]], elem3(3))
    yield "zero", MixedModulusMatrix.zero(mixed(3))
    yield "identity", MixedModulusMatrix.identity(elem3(3))


MAPS = dict(reference_maps())


class TestKernelSubgroupsMatchTables:
    """The coordinate subgroups against the kernel's Cayley table."""

    @pytest.mark.parametrize("m", MAPS.values(), ids=MAPS.keys())
    def test_fixed_points(self, m):
        sub = fixed_points(m)
        fixed = [v.rank() for v in m.profile.elements() if mat_apply(m, v) == v]
        assert (sub.elements, sub.generators, sub.invariant_factors()) == table_reference(
            m.profile, fixed)

    @pytest.mark.parametrize("m", MAPS.values(), ids=MAPS.keys())
    def test_image(self, m):
        sub = image_subgroup(m)
        image = [mat_apply(m, v).rank() for v in m.profile.elements()]
        assert (sub.elements, sub.generators, sub.invariant_factors()) == table_reference(
            m.profile, image)

    def test_element_orders_match_the_table(self):
        for prof in (mixed(5), elem3(3)):
            orders = abelian_group(prof.moduli).element_orders
            assert [v.order() for v in prof.elements()] == orders


class TestInvariantFactors:
    def test_kernel_carrier(self):
        prof = mixed(3)
        orders = abelian_group(prof.moduli).element_orders
        assert invariant_factors_from_orders(orders) == (3, 9)

    def test_trivial(self):
        assert invariant_factors_from_orders([1]) == ()

    def test_subgroup_invariants(self):
        prof = mixed(3)
        sub = fixed_points(mat([[4, 0], [0, 1]], prof))
        assert sub.invariant_factors() == (3, 3)

    def test_kernel_generating_sequence_is_minimal(self):
        prof = mixed(3)
        assert len(abelian_group(prof.moduli).generating_sequence) == 2
