"""Classification pipeline: catalog, v candidates, censuses, tables, and the
full run at p = 3."""

import gc
import tracemalloc
import weakref

import pytest

from p4groups.classify import (
    ClassificationError,
    ClassifyConfig,
    abelian_catalog,
    abelian_fingerprint,
    candidate_types,
    census_closed_form,
    classify_p4,
    emit_table1,
    emit_table2,
    least_nonresidue,
    render_table1,
    render_table2,
    tau_catalog,
    v_candidates,
    v_label,
    verify_prop_abelian_subgroup,
    verify_prop_no_cyclic,
)
from p4groups import classify, cli, extension, groups, residues
from p4groups.extension import ExtElement, ExtensionType, _relations_problem, build_group, multiply
from p4groups.groups import abelian_group, fingerprint, isomorphic, order_census
from p4groups.verification import run_verification_suite
from p4groups.residues import (
    MAX_PRIME,
    AbelianElement,
    MixedModulusMatrix,
    ModulusProfile,
    SHAPES,
    is_prime,
    mat_apply,
    mat_pow,
    norm_matrix,
)
from test_acceptance import (
    EXPECTED_TABLE1_P3,
    EXPECTED_TABLE1_P5,
    EXPECTED_TABLE2_P3,
    EXPECTED_TABLE2_P5,
)


@pytest.fixture(scope="module")
def cfg3():
    return ClassifyConfig.for_prime(3)


@pytest.fixture(scope="module")
def cfg5():
    return ClassifyConfig.for_prime(5)


@pytest.fixture(scope="module")
def cands3(cfg3):
    return candidate_types(cfg3)


@pytest.fixture(scope="module")
def result3(cfg3, cands3):
    return classify_p4(cfg3, cands3)


class TestConfig:
    def test_least_nonresidue(self):
        assert least_nonresidue(3) == 2
        assert least_nonresidue(5) == 2
        assert least_nonresidue(7) == 3
        assert least_nonresidue(11) == 2

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            ClassifyConfig.for_prime(2)
        with pytest.raises(ValueError):
            ClassifyConfig.for_prime(9)

    def test_large_prime_uses_no_residue_table(self):
        # Euler's criterion: no O(p) set of squares for p = 2^31 - 1.
        assert least_nonresidue(2147483647) == 3

    def test_rejects_prime_above_bound(self):
        with pytest.raises(ValueError, match="<= 97"):
            ClassifyConfig.for_prime(101)
        with pytest.raises(ValueError, match="<= 97"):
            ClassifyConfig(101)


def catalog_entries(cfg, profile):
    return [m.entries for _, m in tau_catalog(cfg) if m.profile == profile]


class TestTauCatalog:
    def test_mixed_matrices_p3(self, cfg3):
        got = catalog_entries(cfg3, cfg3.mixed_profile)
        assert got == [
            ((1, 3), (0, 1)),
            ((4, 0), (0, 1)),
            ((1, 0), (1, 1)),
            ((1, 3), (1, 1)),
            ((1, 6), (1, 1)),
        ]

    def test_mixed_matrices_p5(self, cfg5):
        got = catalog_entries(cfg5, cfg5.mixed_profile)
        assert got[4] == ((1, 10), (1, 1))

    def test_elementary_matrices(self, cfg3):
        got = catalog_entries(cfg3, cfg3.elementary_profile)
        assert got == [
            ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
        ]

    @pytest.mark.parametrize("p", [3, 5])
    def test_catalog_orders(self, p):
        cfg = ClassifyConfig.for_prime(p)
        # p is prime, so tau^p = I != tau means tau has order p.
        for _, tau in tau_catalog(cfg):
            identity = MixedModulusMatrix.identity(tau.profile)
            assert mat_pow(tau, p) == identity != tau


class TestVCandidates:
    def coords(self, cfg, tau_rows, shape="p2xp"):
        profile = ModulusProfile(cfg.p, shape)
        tau = MixedModulusMatrix(tau_rows, profile)
        return [v.coords for v in v_candidates(tau)]

    def test_shear(self, cfg3):
        assert self.coords(cfg3, ((1, 3), (0, 1))) == [(0, 0), (1, 0)]

    def test_scaling(self, cfg3):
        assert self.coords(cfg3, ((4, 0), (0, 1))) == [(0, 0), (0, 1)]

    def test_twist_has_only_zero(self, cfg3):
        assert self.coords(cfg3, ((1, 3), (1, 1))) == [(0, 0)]

    def test_epsilon_twist_split(self, cfg3, cfg5):
        assert self.coords(cfg3, ((1, 6), (1, 1))) == [(0, 0), (3, 0)]
        assert self.coords(cfg5, ((1, 10), (1, 1))) == [(0, 0)]

    def test_full_jordan_split(self, cfg3, cfg5):
        rows = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
        assert self.coords(cfg3, rows, "pxpxp") == [(0, 0, 0)]
        assert self.coords(cfg5, rows, "pxpxp") == [(0, 0, 0), (1, 0, 0)]

    def test_single_block_raw_candidates(self, cfg3):
        rows = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        assert self.coords(cfg3, rows, "pxpxp") == [
            (0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (1, 0, 2),
        ]

    def test_labels(self, cfg3):
        prof = cfg3.mixed_profile
        assert v_label(prof.zero()) == "v0"
        assert v_label(prof.element((1, 0))) == "v-e1"
        assert v_label(prof.element((3, 0))) == "v-pe1"
        assert v_label(prof.element((0, 1))) == "v-e2"

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_the_orbit_definition(self, p):
        # The orbits of Fix(tau)/Im(N) under scaling by the units, each
        # represented by its least-rank member, in rank order.
        taus = [tau for _, tau in tau_catalog(ClassifyConfig.for_prime(p))]
        taus += [MixedModulusMatrix.identity(ModulusProfile(p, shape)) for shape in SHAPES]
        units = [u for u in range(1, p * p) if u % p]
        for tau in taus:
            elements = list(tau.profile.elements())
            fixed = {v for v in elements if mat_apply(tau, v) == v}
            image = {mat_apply(norm_matrix(tau, p), v) for v in elements}
            orbits = {frozenset(x.scale(u) + h for u in units for h in image) for x in fixed}
            assert set().union(*orbits) == fixed
            reps = sorted((min(o, key=AbelianElement.rank) for o in orbits), key=AbelianElement.rank)
            assert v_candidates(tau) == reps

    def test_unfixed_candidate_names_its_tau(self, cfg3, monkeypatch):
        # (0, ..., 0, 1) is not fixed by the first catalog tau, 2x2-r1.
        monkeypatch.setattr("p4groups.classify.v_candidates", lambda tau: [
            tau.profile.element((0,) * (tau.profile.rank - 1) + (1,))])
        with pytest.raises(ClassificationError,
                           match="^catalog candidate 2x2-r1 invalid extension type: v-not-fixed$"):
            candidate_types(cfg3)


class TestCensusClosedForm:
    def make(self, cfg, rows, v, shape="p2xp"):
        profile = ModulusProfile(cfg.p, shape)
        return ExtensionType(profile, cfg.p, MixedModulusMatrix(rows, profile),
                             profile.element(v))

    def test_epsilon_twist_zero_v(self, cfg3):
        assert census_closed_form(self.make(cfg3, ((1, 6), (1, 1)), (0, 0))) == 63

    def test_full_jordan_zero_v(self, cfg3):
        rows = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
        assert census_closed_form(self.make(cfg3, rows, (0, 0, 0), "pxpxp")) == 45

    def test_single_block_is_full(self, cfg3, cfg5):
        rows = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        assert census_closed_form(self.make(cfg3, rows, (0, 0, 0), "pxpxp")) == 81
        assert census_closed_form(self.make(cfg5, rows, (0, 0, 0), "pxpxp")) == 625

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_brute_force_for_all_candidates(self, p):
        cfg = ClassifyConfig.for_prime(p)
        for cand in candidate_types(cfg):
            group = build_group(cand.ext)
            e = group.identity_index
            brute = sum(1 for i in range(group.size) if group.power(i, p) == e)
            assert census_closed_form(cand.ext) == brute, cand.label


class TestAbelianCatalog:
    def test_invariant_chains(self, cfg3):
        chains = [chain for _, chain in abelian_catalog(cfg3)]
        assert chains == [(81,), (3, 27), (9, 9), (3, 3, 9), (3, 3, 3, 3)]

    def test_cyclic_census(self, cfg3):
        group = abelian_group(abelian_catalog(cfg3)[0][1])
        assert order_census(group)[81] == 54  # primitive elements of C_81

    def test_pairwise_non_isomorphic(self, cfg3):
        tables = [abelian_group(chain) for _, chain in abelian_catalog(cfg3)]
        for i in range(len(tables)):
            for j in range(i + 1, len(tables)):
                ok, _ = isomorphic(tables[i], tables[j])
                assert not ok

    @pytest.mark.parametrize("p", [3, 5, pytest.param(7, marks=pytest.mark.slow)])
    def test_closed_form_fingerprints_match_the_tables(self, p):
        for label, chain in abelian_catalog(ClassifyConfig.for_prime(p)):
            assert abelian_fingerprint(chain) == fingerprint(abelian_group(chain)), label

    def test_abelian_class_builds_its_table_when_read(self, cfg3, cands3):
        for cls in classify_p4(cfg3, cands3).classes[10:]:
            assert cls.kind == "abelian"
            assert "group" not in vars(cls)
            assert fingerprint(cls.group) == cls.fingerprint


class TestClassify:
    def test_counts(self, result3):
        assert result3.abelian_count == 5
        assert result3.nonabelian_count == 10
        assert result3.total == 15

    def test_representatives(self, result3):
        labels = [c.label for c in result3.nonabelian_classes]
        assert labels == [
            "2x2-r1-v0", "2x2-r1-v-e1",
            "2x2-r2-v0", "2x2-r2-v-e2",
            "2x2-r3-v0",
            "2x2-r4-v0",
            "2x2-r5-v0", "2x2-r5-v-pe1",
            "3x3-J2-v0",
            "3x3-J3-v0",
        ]

    def test_expected_merges(self, result3):
        merged = {c.label: set(c.merged_labels) for c in result3.classes}
        assert "2x2-r3-v-e2" in merged["2x2-r2-v-e2"]
        assert "3x3-J2-v-e1" in merged["2x2-r2-v0"]
        assert merged["2x2-r3-v0"] == {"3x3-J2-v-e3", "3x3-J2-v1_0_1", "3x3-J2-v1_0_2"}

    def test_deterministic(self, cfg3, result3):
        again = classify_p4(cfg3, candidate_types(cfg3))
        assert again.to_json_dict() == result3.to_json_dict()

    def test_class_group_is_built_from_its_representative(self, cfg3, cands3):
        # A class keeps values, not a table: its group is its
        # representative's table, built when first read.
        for cls in classify_p4(cfg3, cands3).nonabelian_classes:
            assert "group" not in vars(cls)
            assert cls.source in cands3 and cls.source.label == cls.label
            assert cls.group._table == build_group(cls.source.ext)._table
            assert fingerprint(cls.group) == cls.fingerprint
            assert cls.group.twist_count == cls.twist_count

    @pytest.mark.parametrize("p", [3, 5])
    def test_one_table_per_candidate_and_no_other(self, p, monkeypatch):
        cfg = ClassifyConfig.for_prime(p)
        cands = candidate_types(cfg)
        calls = {"FiniteGroup": 0, "build_group": 0, "abelian_group": 0, "quotient": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(classify, "build_group")
        counting(classify, "abelian_group")
        counting(groups, "abelian_group")
        counting(groups, "quotient")
        real_init = groups.FiniteGroup.__init__

        def init(self, table, size):
            calls["FiniteGroup"] += 1
            real_init(self, table, size)
        monkeypatch.setattr(groups.FiniteGroup, "__init__", init)
        # The table producer makes its groups without the constructor.
        real_producer = groups._table_of_translates

        def producer(*args):
            calls["FiniteGroup"] += 1
            return real_producer(*args)
        monkeypatch.setattr(groups, "_table_of_translates", producer)
        monkeypatch.setattr(extension, "_table_of_translates", producer)
        classify_p4(cfg, cands)
        # One table per class representative: the p + 2 candidates that
        # ``_merge_maps`` covers are certified on their target's table.
        n = len(cands) - (p + 2)
        assert n == 10
        assert calls == {"FiniteGroup": n, "build_group": n, "abelian_group": 0, "quotient": 0}

    def test_row8_absent_only_above_p3(self, result3):
        assert "2x2-r5-v-pe1" in [c.label for c in result3.classes]
        assert "3x3-J3-v-e1" not in [c.label for c in result3.classes]

    def test_oracle_reflexive_and_symmetric_on_catalog(self, result3):
        groups = [c.group for c in result3.classes]
        for g in groups:
            ok, witness = isomorphic(g, g)
            assert ok and witness == list(range(g.size))
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                ok_ij, _ = isomorphic(groups[i], groups[j])
                ok_ji, _ = isomorphic(groups[j], groups[i])
                assert not ok_ij and not ok_ji


def map_images(p, images):
    """Table indices of floor-form images (x1, x2, i) on the mixed kernel."""
    return [i * p ** 3 + x1 * p + x2 for x1, x2, i in images]


def mapped_pairs(cands):
    """(candidate, target candidate, images) for every map of ``_merge_maps``
    whose source and target are both among the candidates."""
    p = cands[0].ext.profile.p
    names = [name for name, _ in tau_catalog(ClassifyConfig.for_prime(p))]
    by_type = {(names[c.catalog_pos[0]], c.ext.v.coords): c for c in cands}
    return [(by_type[key], by_type[target], images)
            for key, (target, images) in classify._merge_maps(p).items()]


def floor_power(t, g, k):
    """g^k in the floor form of t, by repeated squaring."""
    out = ExtElement(t.profile.zero(), 0)
    while k:
        if k & 1:
            out = multiply(t, out, g)
        g, k = multiply(t, g, g), k >> 1
    return out


def floor_relations_problem(src, images, t):
    """``_relations_problem`` read in the floor form of t with ``multiply``:
    the first defining relation of src that the images (ExtElements of t)
    fail, else "".  Generation is shown without a closure: t's group is
    generated by its e_1, e_2 and a, so it suffices that each is an image,
    the inverse of one, a^p or a e_1 a^-1 e_1^-1.  Both inverses taken are
    read off the floor form: (x, a^0)^-1 = (-x, a^0) and (0, a)^-1 =
    (-v, a^(p-1))."""
    p = t.profile.p
    one = ExtElement(t.profile.zero(), 0)
    *kernel, a = images
    names = [f"e{k + 1}" for k in range(src.profile.rank)]
    basis = [AbelianElement(tuple(int(j == k) for j in range(src.profile.rank)), src.profile)
             for k in range(src.profile.rank)]

    def word(y):
        w = one
        for b, c in zip(kernel, y.coords):
            w = multiply(t, w, floor_power(t, b, c))
        return w

    for name, b, m in zip(names, kernel, src.profile.moduli):
        if floor_power(t, b, m) != one:
            return f"{name}^{m} != e"
    for j in range(len(kernel)):
        for k in range(j + 1, len(kernel)):
            if multiply(t, kernel[j], kernel[k]) != multiply(t, kernel[k], kernel[j]):
                return f"{names[j]} {names[k]} != {names[k]} {names[j]}"
    for name, b, x in zip(names, kernel, basis):
        if multiply(t, a, b) != multiply(t, word(mat_apply(src.tau, x)), a):
            return f"a {name} a^-1 != tau({name})"
    if floor_power(t, a, src.n) != word(src.v):
        return f"a^{src.n} != v"
    if src.group_order != t.group_order:
        return f"order {src.group_order} != {t.group_order}"
    t_e1, t_e2 = (ExtElement(AbelianElement(x, t.profile), 0) for x in ((1, 0), (0, 1)))
    t_a, t_a_inv = ExtElement(t.profile.zero(), 1), ExtElement(-t.v, p - 1)
    reached = set(images) | {t_a for g in images if multiply(t, g, t_a) == one}
    if {t_e1, t_a} <= reached:
        reached.add(floor_power(t, t_a, p))
        reached.add(multiply(t, multiply(t, t_a, t_e1),
                             multiply(t, t_a_inv, ExtElement(-t_e1.x, 0))))
    if not {t_e1, t_e2, t_a} <= reached:
        return "the images do not generate the group"
    return ""


def floor_maps(p, edit=lambda p, images: images):
    """(source type, target type, images as ExtElements of the target) for
    every map of ``_merge_maps(p)``, its images passed through edit, with
    the types built from the catalog."""
    cfg = ClassifyConfig.for_prime(p)
    catalog = dict(tau_catalog(cfg))

    def ext(key):
        tau = catalog[key[0]]
        return ExtensionType(tau.profile, p, tau, AbelianElement(key[1], tau.profile))

    out = []
    for key, (target, images) in classify._merge_maps(p).items():
        t = ext(target)
        out.append((ext(key), t, [ExtElement(AbelianElement((x1, x2), t.profile), i)
                                  for x1, x2, i in edit(p, images)]))
    return out


def mutate(p, images):
    """The map with one exponent changed: that of a in the image of e_1."""
    (x1, x2, i), *rest = images
    return [(x1, x2, (i + 1) % p), *rest]


class TestMergeMaps:
    """The expected merges are certified by explicit maps, with no table of
    the merged candidate and no search."""

    @pytest.mark.parametrize("p", [3, 5, pytest.param(7, marks=pytest.mark.slow)])
    def test_maps_cover_exactly_the_expected_merges(self, p):
        cands = candidate_types(ClassifyConfig.for_prime(p))
        sources = {c.label for c, _, _ in mapped_pairs(cands)}
        assert len(sources) == p + 2
        assert sources == {c.label for c in cands
                           if c.label.startswith("3x3-J2-v") and c.label != "3x3-J2-v0"
                           } | {"2x2-r3-v-e2"}

    @pytest.mark.parametrize("p", [3, 5, pytest.param(7, marks=pytest.mark.slow)])
    def test_every_map_passes_on_the_representatives_table(self, p):
        for c, target, images in mapped_pairs(candidate_types(ClassifyConfig.for_prime(p))):
            assert _relations_problem(c.ext, map_images(p, images), target.build()) == "", c.label

    def test_every_formula_holds_in_the_floor_form_at_every_prime(self):
        primes = [p for p in range(3, MAX_PRIME + 1) if is_prime(p)]
        checked = 0
        for p in primes:
            for src, t, images in floor_maps(p):
                assert floor_relations_problem(src, images, t) == "", (p, src.v.coords)
                checked += 1
        assert checked == sum(p + 2 for p in primes) == 1106

    @pytest.mark.parametrize("p", [3, 5, 97])
    def test_floor_form_check_rejects_a_changed_exponent(self, p):
        for src, t, images in floor_maps(p, mutate):
            assert floor_relations_problem(src, images, t) == "a e1 a^-1 != tau(e1)"

    @pytest.mark.parametrize("p", [3, 97])
    def test_floor_form_check_rejects_images_that_do_not_generate(self, p):
        # e3 -> e passes every relation of 3x3-J2-v-e1, but the images then
        # lie in the subgroup of x2 = 0.
        src, t, images = floor_maps(p)[0]
        assert src.v.coords == (1, 0, 0)
        images[2] = ExtElement(t.profile.zero(), 0)
        assert floor_relations_problem(src, images, t) == "the images do not generate the group"

    @pytest.mark.parametrize("p", [3, 5])
    def test_words_are_the_closure_of_the_images(self, p):
        for c, target, images in mapped_pairs(candidate_types(ClassifyConfig.for_prime(p))):
            g, images = target.build(), map_images(p, images)
            assert set(extension._words(c.ext, images, g)) == set(g.closure(images)), c.label

    @pytest.mark.parametrize("p", [3, 5])
    def test_table_check_rejects_images_that_do_not_generate(self, p):
        # As in the floor form: e3 -> e passes every relation of
        # 3x3-J2-v-e1, and the images span only the subgroup of x2 = 0.
        c, target, images = mapped_pairs(candidate_types(ClassifyConfig.for_prime(p)))[0]
        assert c.ext.v.coords == (1, 0, 0)
        g, images = target.build(), map_images(p, images)
        images[2] = g.identity_index
        words = set(extension._words(c.ext, images, g))
        assert words == set(g.closure(images)) and len(words) == p ** 3
        assert _relations_problem(c.ext, images, g) == "the images do not generate the group"

    def test_a_changed_exponent_names_the_pair_and_the_relation(self, cfg3, monkeypatch):
        real = classify._merge_maps

        def changed(p):
            maps = real(p)
            target, images = maps["3x3-J2", (1, 0, 0)]
            maps["3x3-J2", (1, 0, 0)] = target, mutate(p, images)
            return maps
        monkeypatch.setattr(classify, "_merge_maps", changed)
        with pytest.raises(ClassificationError) as info:
            classify_p4(cfg3, candidate_types(cfg3))
        assert str(info.value) == "3x3-J2-v-e1 -> 2x2-r2-v0: a e1 a^-1 != tau(e1)"

    @pytest.mark.parametrize("p", [3, 5, pytest.param(7, marks=pytest.mark.slow)])
    def test_mapped_candidates_get_no_table_and_no_search(self, p, monkeypatch):
        searches = []
        real = groups._search_isomorphism

        def counting(g1, g2):
            searches.append(None)
            return real(g1, g2)
        monkeypatch.setattr(groups, "_search_isomorphism", counting)
        built = []
        monkeypatch.setattr(classify, "build_group", lambda t: built.append(t) or build_group(t))
        cands = candidate_types(ClassifyConfig.for_prime(p))
        result = classify_p4(ClassifyConfig.for_prime(p), cands)
        pairs = mapped_pairs(cands)
        assert len(pairs) == p + 2
        for c, _, _ in pairs:
            assert c.ext not in built, c.label
        assert searches == []
        assert result.nonabelian_count == 10

    def test_a_missing_target_names_the_mapped_candidate(self, cfg3):
        cands = [c for c in candidate_types(cfg3) if c.label != "2x2-r3-v0"]
        with pytest.raises(ClassificationError) as info:
            classify_p4(cfg3, cands)
        assert str(info.value) == (
            "3x3-J2-v-e3: merge target 2x2-r3 v=(0, 0) is not a candidate")

    def test_a_tie_in_fingerprint_and_twist_count_is_an_error(self, cfg3, cands3, result3,
                                                              monkeypatch):
        # With one fingerprint for every nonabelian group, only the twist
        # count separates classes: the first pair in class order that it
        # does not separate must be reported, not searched.
        same = fingerprint(cands3[0].build())
        monkeypatch.setattr(classify, "fingerprint", lambda g: same)
        reps = result3.nonabelian_classes
        a, b = next((a, b) for i, a in enumerate(reps) for b in reps[i + 1:]
                    if a.twist_count == b.twist_count)
        with pytest.raises(ClassificationError) as info:
            classify_p4(cfg3, cands3)
        assert str(info.value) == (
            f"classes {a.label} and {b.label} are told apart by neither "
            "fingerprint nor twist count")


def builds_and_most_alive(monkeypatch, run):
    """Run run() with every candidate table it builds tracked by a
    finalizer; returns (the types built, in order, the most tables alive at
    once).  The collector is off during the run, so a table that only a
    reference cycle keeps counts as alive, and every table must be gone
    when the run returns."""
    built, alive, most = [], set(), [0]

    def tracking(t):
        g = build_group(t)
        built.append(t)
        alive.add(len(built))
        weakref.finalize(g, alive.discard, len(built))
        most[0] = max(most[0], len(alive))
        return g
    monkeypatch.setattr(classify, "build_group", tracking)
    gc.collect()
    gc.disable()
    try:
        run()
    finally:
        gc.enable()
    assert alive == set()
    return built, most[0]


@pytest.mark.parametrize("p", [3, 5])
class TestOneLiveTable:
    """classify and the tables build each representative's table once and
    hold one at a time; verify builds each candidate's once and holds a
    representative's and one mapped candidate's at most."""

    def test_classify(self, p, monkeypatch):
        cfg = ClassifyConfig.for_prime(p)
        cands = candidate_types(cfg)
        built, most = builds_and_most_alive(monkeypatch, lambda: classify_p4(cfg, cands))
        assert most == 1
        assert len(built) == 10
        assert sorted(built, key=repr) == sorted(
            (cls.source.ext for cls in classify_p4(cfg, cands).nonabelian_classes), key=repr)

    def test_tables(self, p, monkeypatch):
        built, most = builds_and_most_alive(
            monkeypatch, lambda: emit_table2(ClassifyConfig.for_prime(p)))
        assert (len(built), most) == (10, 1)

    def test_verify(self, p, monkeypatch):
        cfg = ClassifyConfig.for_prime(p)
        results = []
        built, most = builds_and_most_alive(
            monkeypatch, lambda: results.extend(run_verification_suite(cfg)))
        assert [r for r in results if not r.ok] == []
        assert most == 2
        assert sorted(built, key=repr) == sorted((c.ext for c in candidate_types(cfg)), key=repr)


class TestStructuralProperties:
    def test_abelian_group_has_itself(self, cfg3):
        assert verify_prop_abelian_subgroup(abelian_group([81]))

    def test_all_nonabelian_classes_p3(self, result3):
        for cls in result3.nonabelian_classes:
            assert verify_prop_abelian_subgroup(cls.group), cls.label
            assert verify_prop_no_cyclic(cls.group), cls.label

    def test_no_cyclic_rejects_abelian(self, cfg3):
        with pytest.raises(ValueError):
            verify_prop_no_cyclic(abelian_group([81]))

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            verify_prop_abelian_subgroup(abelian_group([9]))


class TestKernelWithoutTables:
    """Fixed points, norm images and v candidates are worked out in the
    kernel's coordinates, with no Cayley table of the kernel."""

    def test_no_path_builds_a_kernel_table(self, monkeypatch, capsys):
        # ``abelian_group`` makes its tables by ``_table_of_translates``.
        real = groups._table_of_translates

        def refuse_kernel(size, *args):
            assert size != 27, "a kernel table was built"
            return real(size, *args)
        monkeypatch.setattr(groups, "_table_of_translates", refuse_kernel)
        classify._tau_kernel.cache_clear()
        cfg = ClassifyConfig.for_prime(3)
        emit_table1(cfg)
        assert [census_closed_form(c.ext) for c in candidate_types(cfg)]
        for argv in (["classify", "--p", "3", "--format", "json"], ["tables", "--p", "3"],
                     ["verify", "--p", "3"]):
            classify._tau_kernel.cache_clear()
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert not hasattr(residues, "abelian_group") and not hasattr(residues, "Subgroup")

    def test_p13_stays_under_5_mb(self):
        cfg = ClassifyConfig.for_prime(13)
        classify._tau_kernel.cache_clear()
        tracemalloc.start()
        try:
            emit_table1(cfg)
            for c in candidate_types(cfg):
                census_closed_form(c.ext)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    @pytest.mark.parametrize("p", [41, 97])
    def test_large_p_finishes(self, p):
        # A kernel table at p = 41 would have 41^3 = 68921 elements, past
        # the 2^16 limit of a table; Fix(tau) comes from the rank map.
        cfg = ClassifyConfig.for_prime(p)
        assert len(emit_table1(cfg)) == 7
        cands = candidate_types(cfg)
        assert len(cands) == p + 12
        assert all(census_closed_form(c.ext) >= p**2 for c in cands)


class TestTable1:
    @pytest.mark.parametrize("p,expected", [(3, EXPECTED_TABLE1_P3), (5, EXPECTED_TABLE1_P5)])
    def test_rows(self, p, expected):
        cfg = ClassifyConfig.for_prime(p)
        rows = emit_table1(cfg)
        assert len(rows) == len(expected)
        for row, (label, tau, fixed_gens, norm, image_gens, v_choices) in zip(rows, expected):
            assert row.tau_label == label
            assert row.tau.entries == tau
            coords_of = row.tau.profile.coords_of
            assert [coords_of(g) for g in row.fixed_subgroup.generators] == fixed_gens
            assert row.norm.entries == norm
            assert [coords_of(g) for g in row.image.generators] == image_gens
            assert [v.coords for v in row.v_choices] == v_choices

    def test_render_contains_epsilon_row(self, cfg3):
        text = render_table1(cfg3)
        assert "[[1,6],[1,1]]" in text
        assert "{(0,0), (3,0)}" in text


class TestTable2:
    @pytest.mark.parametrize("p,expected", [(3, EXPECTED_TABLE2_P3), (5, EXPECTED_TABLE2_P5)])
    def test_rows(self, p, expected):
        cfg = ClassifyConfig.for_prime(p)
        rows = emit_table2(cfg)
        got = [(r.tau_label, r.v.coords, r.center_invariants, r.census_le_p) for r in rows]
        assert got == expected

    def test_render(self, cfg3):
        text = render_table2(cfg3)
        assert "63" in text and "45" in text
