"""Extension types: validity by construction, the pair multiplication law,
construction, norms, and the equivalence-preserving transformations."""

from dataclasses import replace
from itertools import product

import pytest

from p4groups.extension import (
    ExtElement,
    ExtensionType,
    _relations_problem,
    _words,
    build_group,
    conjugate_type,
    multiply,
    norm_apply,
    power_substitute,
    shift_generator,
)
from p4groups.classify import ClassifyConfig, candidate_types, tau_catalog
from p4groups.groups import abelian_group, abelian_invariants, isomorphic, subgroup_generated
from p4groups.residues import MixedModulusMatrix, ModulusProfile, _linear_ranks, mat_apply, mat_pow
from p4groups.verification import _kernel_automorphisms, _transform_trials


P3_CANDIDATES = candidate_types(ClassifyConfig.for_prime(3))


def numbered_elements(t):
    """The elements of build_group(t) in index order: (x, a^i) has index
    i*|N| + rank(x), with rank(x) mixed-radix in x's coordinates, the last
    coordinate fastest."""
    kernel = [t.profile.element(c) for c in product(*(range(m) for m in t.profile.moduli))]
    return [ExtElement(x, i) for i in range(t.n) for x in kernel]


def make_type(p, shape, rows, v, n=None):
    prof = ModulusProfile(p, shape)
    return ExtensionType(prof, n or p, MixedModulusMatrix(rows, prof), prof.element(v))


class TestValidateType:
    """The constructor is the one validity check: a type that breaks a
    condition cannot be made, by any route."""

    def test_catalog_row_is_valid(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        assert (t.n, t.v.coords) == (3, (0, 0))

    def test_unfixed_v(self):
        with pytest.raises(ValueError, match="^invalid extension type: v-not-fixed$"):
            make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 1))

    def test_tau_power_mismatch(self):
        with pytest.raises(ValueError, match="^invalid extension type: tau-power-not-identity$"):
            make_type(3, "p2xp", ((4, 0), (0, 1)), (0, 0), n=2)

    def test_non_automorphism(self):
        with pytest.raises(ValueError, match="^invalid extension type: not-an-automorphism$"):
            make_type(3, "p2xp", ((3, 0), (0, 1)), (0, 0))

    def test_from_json_dict_rejects_unfixed_v(self):
        data = {"p": 3, "shape": "p2xp", "n": 3, "tau": [[1, 3], [0, 1]], "v": [0, 1]}
        with pytest.raises(ValueError, match="v-not-fixed"):
            ExtensionType.from_json_dict(data)

    def test_replace_rejects_unfixed_v(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        with pytest.raises(ValueError, match="v-not-fixed"):
            replace(t, v=t.profile.element((0, 1)))

    def test_json_roundtrip(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        data = t.to_json_dict()
        assert data == {"p": 3, "shape": "p2xp", "n": 3, "tau": [[1, 3], [0, 1]], "v": [0, 0]}
        assert ExtensionType.from_json_dict(data) == t

    def test_general_n_accepted(self):
        # n need not equal p as long as tau^n = id and tau fixes v.
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0), n=9)
        assert build_group(t).size == 27 * 9


class TestMultiply:
    def test_identity_element(self):
        t = make_type(3, "p2xp", ((1, 0), (1, 1)), (0, 1))
        e = ExtElement(t.profile.zero(), 0)
        for x in t.profile.elements():
            for i in range(3):
                g = ExtElement(x, i)
                assert multiply(t, e, g) == g
                assert multiply(t, g, e) == g

    def test_wraparound_picks_up_v(self):
        t = make_type(3, "p2xp", ((1, 0), (1, 1)), (0, 1))
        g = ExtElement(t.profile.element((1, 0)), 2)
        h = ExtElement(t.profile.zero(), 1)
        assert multiply(t, g, h) == ExtElement(t.profile.element((1, 1)), 0)

    def test_first_row_product(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        g = ExtElement(t.profile.element((1, 0)), 1)
        h = ExtElement(t.profile.element((0, 1)), 1)
        assert multiply(t, g, h) == ExtElement(t.profile.element((4, 1)), 2)

    def test_two_case_form_agrees_with_floor_form(self):
        t = make_type(3, "p2xp", ((1, 3), (1, 1)), (0, 0))
        tau_pows = [mat_pow(t.tau, i) for i in range(3)]
        from p4groups.residues import mat_apply

        for x, y in product(t.profile.elements(), repeat=2):
            for i, j in product(range(3), repeat=2):
                g, h = ExtElement(x, i), ExtElement(y, j)
                if i + j < 3:
                    expected = ExtElement(x + mat_apply(tau_pows[i], y), i + j)
                else:
                    expected = ExtElement(x + mat_apply(tau_pows[i], y) + t.v, i + j - 3)
                assert multiply(t, g, h) == expected

    def test_associative_exhaustively_for_one_type(self):
        t = make_type(3, "p2xp", ((1, 0), (1, 1)), (0, 1))
        els = [ExtElement(x, i) for i in range(3) for x in t.profile.elements()]
        for g in els[:20]:
            for h in els:
                gh = multiply(t, g, h)
                for k in els[::7]:
                    assert multiply(t, gh, k) == multiply(t, g, multiply(t, h, k))


class TestBuildGroup:
    def test_invalid_type_rejected_with_diagnostic(self):
        with pytest.raises(ValueError, match="v-not-fixed"):
            build_group(make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 1)))

    def test_elementary_direct_product(self):
        t = make_type(3, "pxpxp", ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
        g = build_group(t)
        assert abelian_invariants(g) == (3, 3, 3, 3)

    def test_identity_tau_with_v_gives_big_cyclic_factor(self):
        t = make_type(3, "p2xp", ((1, 0), (0, 1)), (1, 0))
        g = build_group(t)
        assert abelian_invariants(g) == (3, 27)

    def test_kernel_is_embedded_subgroup(self):
        t = make_type(3, "p2xp", ((1, 3), (1, 1)), (0, 0))
        g = build_group(t)
        kernel = subgroup_generated(g, range(27))
        assert kernel.order == 27
        assert abelian_invariants(kernel) == (3, 9)

    def test_table_matches_multiply(self):
        t = make_type(3, "p2xp", ((1, 6), (1, 1)), (0, 0))
        g = build_group(t)
        els = numbered_elements(t)
        for i in range(0, g.size, 5):
            for j in range(0, g.size, 7):
                assert els[g.mul(i, j)] == multiply(t, els[i], els[j])

    @pytest.mark.parametrize(
        "cand", [c for c in P3_CANDIDATES if not c.ext.v.is_zero()], ids=lambda c: c.label
    )
    def test_every_product_matches_multiply_with_wrap(self, cand):
        t = cand.ext
        g = build_group(t)
        els = numbered_elements(t)
        for i in range(g.size):
            for j in range(g.size):
                assert els[g.mul(i, j)] == multiply(t, els[i], els[j]), (i, j)

    @pytest.mark.parametrize("moduli", [[9, 3], [2, 6], [81], [3, 3, 3, 3]])
    def test_abelian_group_adds_coordinatewise(self, moduli):
        g = abelian_group(moduli)
        coords = list(product(*(range(m) for m in moduli)))  # index order
        for i, a in enumerate(coords):
            for j, b in enumerate(coords):
                want = tuple((x + y) % m for x, y, m in zip(a, b, moduli))
                assert coords[g.mul(i, j)] == want


class TestNormApply:
    def test_identity_element(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        assert norm_apply(t, t.profile.zero()) == t.profile.zero()

    def test_shear_norm_value(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        assert norm_apply(t, t.profile.element((1, 0))).coords == (3, 0)

    def test_full_jordan_p5_norm_vanishes(self):
        t = make_type(5, "pxpxp", ((1, 1, 0), (0, 1, 1), (0, 0, 1)), (0, 0, 0))
        for x in list(t.profile.elements())[::7]:
            assert norm_apply(t, x).is_zero()

    def test_power_norm_law_exhaustive(self):
        # (x, a)^3 = (norm(x) + v, a^0), read from the table: (x, a) has
        # index 27 + rank(x).
        t = make_type(3, "p2xp", ((1, 0), (1, 1)), (0, 1))
        g = build_group(t)
        for x in t.profile.elements():
            assert g.power(27 + x.rank(), 3) == (norm_apply(t, x) + t.v).rank()


class TestTransformations:
    def test_shift_generator_zero_is_noop(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        assert shift_generator(t, t.profile.zero()) == t

    def test_shift_generator_adds_norm(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        shifted = shift_generator(t, t.profile.element((1, 0)))
        assert shifted.v.coords == (3, 0)

    def test_shift_generator_preserves_class(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        shifted = shift_generator(t, t.profile.element((1, 0)))
        ok, _ = isomorphic(build_group(t), build_group(shifted))
        assert ok

    def test_power_substitute_identity(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (1, 0))
        assert power_substitute(t, 1) == t

    def test_power_substitute_squares(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (1, 0))
        t2 = power_substitute(t, 2)
        assert t2.tau.entries == ((1, 6), (0, 1))
        assert t2.v.coords == (2, 0)

    def test_power_substitute_gcd_violation(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        with pytest.raises(ValueError):
            power_substitute(t, 3)

    def test_power_substitute_preserves_class(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (1, 0))
        for i in (1, 2, 4, 5, 7):
            ok, _ = isomorphic(build_group(t), build_group(power_substitute(t, i)))
            assert ok, i

    def test_scalar_conjugation_scales_v(self):
        # i*I commutes with tau, so only v moves: (tau, v) -> (tau, i*v).
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (1, 0))
        scaled = conjugate_type(t, MixedModulusMatrix.scalar(t.profile, 2))
        assert (scaled.tau, scaled.v.coords) == (t.tau, (2, 0))
        assert conjugate_type(t, MixedModulusMatrix.scalar(t.profile, 1)) == t

    def test_scalar_conjugation_rejects_a_multiple_of_p(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (1, 0))
        with pytest.raises(ValueError, match="not an automorphism"):
            conjugate_type(t, MixedModulusMatrix.scalar(t.profile, 6))

    def test_scalar_conjugation_preserves_class(self):
        t = make_type(3, "p2xp", ((4, 0), (0, 1)), (0, 1))
        for i in (2, 4, 5):
            scaled = conjugate_type(t, MixedModulusMatrix.scalar(t.profile, i))
            ok, _ = isomorphic(build_group(t), build_group(scaled))
            assert ok, i

    def test_conjugate_by_identity(self):
        t = make_type(3, "p2xp", ((1, 3), (1, 1)), (0, 0))
        ident = MixedModulusMatrix.identity(t.profile)
        assert conjugate_type(t, ident) == t

    def test_conjugate_upper_type(self):
        t = make_type(3, "p2xp", ((4, 3), (0, 1)), (0, 0))
        phi = MixedModulusMatrix(((1, 0), (1, 1)), t.profile)
        conj = conjugate_type(t, phi)
        assert conj.tau.entries == ((1, 3), (0, 1))  # alpha - beta = 4 - 3

    def test_conjugate_lower_type(self):
        t = make_type(5, "p2xp", ((6, 5), (1, 1)), (0, 0))
        phi = MixedModulusMatrix(((1, -5), (0, 1)), t.profile)
        conj = conjugate_type(t, phi)
        assert conj.tau.entries == ((1, 5), (1, 1))  # alpha - p = 6 - 5

    def test_conjugate_requires_automorphism(self):
        t = make_type(3, "p2xp", ((1, 3), (0, 1)), (0, 0))
        with pytest.raises(ValueError):
            conjugate_type(t, MixedModulusMatrix(((3, 0), (0, 1)), t.profile))

    def test_conjugate_preserves_class(self):
        t = make_type(3, "p2xp", ((1, 0), (1, 1)), (0, 1))
        phi = MixedModulusMatrix(((2, 3), (1, 1)), t.profile)
        conj = conjugate_type(t, phi)
        ok, _ = isomorphic(build_group(t), build_group(conj))
        assert ok


class TestLinearRanks:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_mat_apply_on_catalog_and_pool(self, p):
        matrices = [tau for _, tau in tau_catalog(ClassifyConfig.for_prime(p))]
        for shape in ("p2xp", "pxpxp"):
            matrices += _kernel_automorphisms(ModulusProfile(p, shape))
        for m in matrices:
            expected = tuple(mat_apply(m, e).rank() for e in m.profile.elements())
            assert _linear_ranks(m) == expected, m.entries

    def test_non_automorphism(self):
        m = MixedModulusMatrix(((3, 0), (0, 1)), ModulusProfile(3, "p2xp"))
        assert _linear_ranks(m) == tuple(mat_apply(m, e).rank() for e in m.profile.elements())


P5_FIRST_CANDIDATES = candidate_types(ClassifyConfig.for_prime(5))[:3]


def standard_images(t):
    """rank(e_1), ..., rank(e_k), |N|: the generators of ``build_group(t)``."""
    profile = t.profile
    return [profile.rank_of([int(j == k) for j in range(profile.rank)])
            for k in range(profile.rank)] + [profile.order]


def word_map(t, images, g):
    """The index map (y, c^j) -> word(y) * img(c)^j from the group of t onto
    g, with word(y) the product of the kernel images to the powers y_k."""
    *kernel, c = images
    img = []
    for j in range(t.n):
        cj = g.power(c, j)
        for y in t.profile.elements():
            w = g.identity_index
            for b, k in zip(kernel, y.coords):
                w = g.mul(w, g.power(b, k))
            img.append(g.mul(w, cj))
    return img


class TestTransformTrialMaps:
    """Each trial of verify's transform-equivalence check carries the images
    of the transformed type's generators; here the map they define is checked
    on every product, not only on the defining relations."""

    @pytest.mark.parametrize("cand, count", [
        pytest.param(c, k, id=f"p{c.ext.profile.p}-{c.label}")
        for cands, k in ((P3_CANDIDATES, 5), (P5_FIRST_CANDIDATES, 1)) for c in cands
    ])
    def test_map_is_an_isomorphism_on_every_product(self, cand, count):
        base = build_group(cand.ext)
        size = base.size
        for op_name, op, images in _transform_trials(cand.ext, base, count):
            t = op()
            new = build_group(t)
            img = word_map(t, images, base)
            assert sorted(img) == list(range(size)), op_name
            for x in range(size):
                ix = img[x]
                assert [img[new.mul(x, y)] for y in range(size)] == [
                    base.mul(ix, img[y]) for y in range(size)], (op_name, x)

    @pytest.mark.parametrize("cand", P3_CANDIDATES, ids=lambda c: c.label)
    def test_words_are_the_closure_of_the_images(self, cand):
        # The generation check's words, gathered column by column, are the
        # words of word_map and span the images' closure.
        g = cand.build()
        for op_name, op, images in _transform_trials(cand.ext, g, 5):
            t = op()
            words = _words(t, images, g)
            assert sorted(words) == sorted(word_map(t, images, g)), op_name
            assert set(words) == set(g.closure(images)), op_name

    @pytest.mark.parametrize("p", [5, 7])
    def test_no_trial_is_the_identity_above_p3(self, p):
        # Each of the first three candidates gets one parameter of each kind.
        for cand in candidate_types(ClassifyConfig.for_prime(p))[:3]:
            trials = _transform_trials(cand.ext, cand.build(), 1)
            assert [name for name, _, _ in trials] == [
                "shift_generator", "power_substitute", "conjugate_type", "conjugate_type"]
            standard = standard_images(cand.ext)
            assert all(images != standard for _, _, images in trials), cand.label

    def test_trial_counts_at_p3(self):
        # Mixed kernel: five shifts, exponents and scalars, four pool matrices.
        # Elementary kernel: 2I is its one scalar other than I.
        counts = {c.ext.profile.shape: len(_transform_trials(c.ext, c.build(), 5))
                  for c in P3_CANDIDATES}
        assert counts == {"p2xp": 19, "pxpxp": 15}
        for shape in ("p2xp", "pxpxp"):
            profile = ModulusProfile(3, shape)
            assert MixedModulusMatrix.identity(profile) not in _kernel_automorphisms(profile)


P3_BY_LABEL = {c.label: c for c in P3_CANDIDATES}


class TestRelationsProblem:
    """``_relations_problem`` names the first defining relation that the
    images fail, on the mixed kernel C9 x C3 and the elementary C3^3."""

    @pytest.mark.parametrize("label", ["2x2-r1-v-e1", "3x3-J2-v-e3"])
    def test_standard_images_pass(self, label):
        c = P3_BY_LABEL[label]
        g = c.build()
        assert _relations_problem(c.ext, standard_images(c.ext), g) == ""

    @pytest.mark.parametrize("label", ["2x2-r1-v-e1", "3x3-J2-v-e3"])
    def test_kernel_image_of_wrong_order(self, label):
        # e_1 goes to a, whose m_1-th power is not e: a^3 = v = e_1 has
        # order 9 on C9 x C3, and a^3 = v = e_3 != e on C3^3.
        c = P3_BY_LABEL[label]
        g = c.build()
        images = standard_images(c.ext)
        m = c.ext.profile.moduli[0]
        images[0] = images[-1]
        assert g.power(images[-1], m) != g.identity_index
        assert _relations_problem(c.ext, images, g) == f"e1^{m} != e"

    @pytest.mark.parametrize("label, slot", [("2x2-r3-v0", 1), ("3x3-J2-v0", 0)])
    def test_kernel_images_that_do_not_commute(self, label, slot):
        # a has order 3 when v = 0, and tau moves the other basis vector
        # (e_1 on the mixed kernel, e_2 on the elementary one), so a does not
        # commute with its image.
        c = P3_BY_LABEL[label]
        g = c.build()
        images = standard_images(c.ext)
        images[slot] = images[-1]
        assert _relations_problem(c.ext, images, g) == "e1 e2 != e2 e1"

    @pytest.mark.parametrize("label", ["2x2-r1-v-e1", "3x3-J2-v-e3"])
    def test_wrong_conjugation(self, label):
        # a^2 acts by tau^2, which differs from tau on e_2, the first basis
        # vector that tau moves.
        c = P3_BY_LABEL[label]
        g = c.build()
        images = standard_images(c.ext)
        images[-1] = g.power(images[-1], 2)
        assert _relations_problem(c.ext, images, g) == "a e2 a^-1 != tau(e2)"

    @pytest.mark.parametrize("label", ["2x2-r1-v-e1", "3x3-J2-v-e3"])
    def test_wrong_power_of_a(self, label):
        # 2v is fixed by tau, so the type is valid, but a^3 = v in the table.
        c = P3_BY_LABEL[label]
        g = c.build()
        t = replace(c.ext, v=c.ext.v.scale(2))
        assert _relations_problem(t, standard_images(t), g) == "a^3 != v"

    @pytest.mark.parametrize("label", ["2x2-r1-v-e1", "3x3-J2-v-e3"])
    def test_kernel_only_images_do_not_generate(self, label):
        # With tau = I and v = 0 the kernel and a -> e satisfy every relation.
        c = P3_BY_LABEL[label]
        g = c.build()
        profile = c.ext.profile
        t = ExtensionType(profile, 3, MixedModulusMatrix.identity(profile), profile.zero())
        images = standard_images(t)[:-1] + [g.identity_index]
        assert _relations_problem(t, images, g) == "the images do not generate the group"

    def test_group_order_mismatch(self):
        # n = 9 keeps every relation of a v = 0 type on its order-81 table.
        c = P3_BY_LABEL["2x2-r3-v0"]
        g = c.build()
        t = replace(c.ext, n=9)
        assert _relations_problem(t, standard_images(t), g) == "order 243 != 81"
