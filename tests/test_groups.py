"""Finite-group machinery: axiom verification, invariants, quotients, and the
isomorphism oracle."""

from array import array

import pytest

from p4groups import extension, groups
from p4groups.extension import ExtensionType, build_group
from p4groups.groups import (
    MAX_TABLE_ORDER,
    FiniteGroup,
    _table_of_translates,
    abelian_group,
    abelian_invariants,
    center,
    derived_subgroup,
    element_order,
    fingerprint,
    isomorphic,
    order_census,
    quotient,
    subgroup_generated,
    verify_group_axioms,
)
from p4groups.residues import MixedModulusMatrix, ModulusProfile


def mixed_type(p, rows, v):
    prof = ModulusProfile(p, "p2xp")
    return ExtensionType(prof, p, MixedModulusMatrix(rows, prof), prof.element(v))


def elem_type(p, rows, v):
    prof = ModulusProfile(p, "pxpxp")
    return ExtensionType(prof, p, MixedModulusMatrix(rows, prof), prof.element(v))


def ext_index(profile, coords, i):
    """Index of (x, a^i) in a group from build_group: i*|N| + rank(x)."""
    return i * profile.order + profile.element(coords).rank()


P3_MIXED = ModulusProfile(3, "p2xp")
A3 = ext_index(P3_MIXED, (0, 0), 1)  # the coset generator (0, a) at p = 3

FULL_JORDAN = ((1, 1, 0), (0, 1, 1), (0, 0, 1))


@pytest.fixture(scope="module")
def groups3():
    """The nonabelian catalog groups used repeatedly below, built once."""
    return {
        "r1-v0": build_group(mixed_type(3, ((1, 3), (0, 1)), (0, 0))),
        "r1-e1": build_group(mixed_type(3, ((1, 3), (0, 1)), (1, 0))),
        "r2-v0": build_group(mixed_type(3, ((4, 0), (0, 1)), (0, 0))),
        "r2-e2": build_group(mixed_type(3, ((4, 0), (0, 1)), (0, 1))),
        "r3-v0": build_group(mixed_type(3, ((1, 0), (1, 1)), (0, 0))),
        "r3-e2": build_group(mixed_type(3, ((1, 0), (1, 1)), (0, 1))),
        "r4-v0": build_group(mixed_type(3, ((1, 3), (1, 1)), (0, 0))),
        "r5-v0": build_group(mixed_type(3, ((1, 6), (1, 1)), (0, 0))),
    }


def _raising(exc):
    def fail(*args):
        raise exc
    return fail


def as_array(table):
    """The table as an "i" array, or as a "q" array when an entry does not
    fit in 32 bits."""
    try:
        return array("i", table)
    except OverflowError:
        return array("q", table)


class TestTableValidation:
    @pytest.mark.parametrize("bad", [-1, 3, -2**31, 2**31, -2**31 - 1])
    @pytest.mark.parametrize("container", [list, as_array], ids=["list", "array"])
    def test_out_of_range_entry_rejected(self, bad, container):
        table = list(abelian_group([3])._table)
        table[4] = bad
        with pytest.raises(ValueError, match="element indices in range"):
            FiniteGroup(container(table), 3)

    def test_unsigned_entry_beyond_signed_32_bits_rejected(self):
        with pytest.raises(ValueError, match="element indices in range"):
            FiniteGroup(array("I", [2**32 - 1]), 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="must have 4 entries"):
            FiniteGroup([0, 1, 1], 2)

    # A p = 5 table holds the entries 0..624; 625 is the least entry out of
    # range and 65535 the largest that an "H" entry can hold.
    @pytest.mark.parametrize("bad", [625, 65535])
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("container", [list, lambda t: t], ids=["list", "array"])
    def test_p5_entry_of_size_or_65535_rejected(self, bad, at, container):
        table = array("H", abelian_group([25, 5, 5])._table)
        table[at] = bad
        with pytest.raises(ValueError, match="element indices in range"):
            FiniteGroup(container(table), 625)

    @pytest.mark.parametrize("bad", [625, 65535])
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_p5_head_entry_of_size_or_65535_rejected(self, bad, at):
        head = array("H", range(625))
        head[at] = bad
        with pytest.raises(ValueError, match="element indices in range"):
            _table_of_translates(625, (25, 5, 5), [(head, range(625))])

    def test_size_above_the_table_limit_rejected(self, monkeypatch):
        # Refused before any array is made: a table past the limit would take
        # at least 8 GB, so making one fails the test instead.
        for module in (groups, extension):
            monkeypatch.setattr(module, "array", _raising(AssertionError("array made")))
        assert MAX_TABLE_ORDER == 2**16
        message = rf"^group size must lie in 1\.\.65536, got {2**16 + 1}$"
        with pytest.raises(ValueError, match=message):
            FiniteGroup([], 2**16 + 1)
        with pytest.raises(ValueError, match=message):
            _table_of_translates(2**16 + 1, (2**16 + 1,), [])
        with pytest.raises(ValueError, match=message):
            abelian_group([2**16 + 1])
        with pytest.raises(ValueError, match=r"^group size must lie in 1\.\.65536, got 83521$"):
            build_group(ExtensionType.from_json_dict(
                {"p": 17, "shape": "p2xp", "n": 17, "tau": [[1, 0], [0, 1]], "v": [0, 0]}))


@pytest.mark.parametrize("moduli, named", [([-2, -2], -2), ([0], 0), ([3, 0], 0), ([1, -1, -1], -1)])
def test_abelian_group_rejects_orders_below_one(moduli, named):
    with pytest.raises(ValueError, match=rf"^cyclic factor orders must be at least 1, got {named}$"):
        abelian_group(moduli)


class TestVerifyGroupAxioms:
    def test_cyclic_table(self):
        assert verify_group_axioms(abelian_group([3])).ok

    def test_corrupted_entry_reports_triple(self):
        g = abelian_group([3])
        table = list(g._table)
        table[1 * 3 + 1] = 1  # break 1+1=2
        broken = FiniteGroup(table, 3)
        report = verify_group_axioms(broken)
        assert not report.ok
        kind, datum = report.failure
        assert kind == "associativity" and len(datum) == 3

    def test_broken_identity_reported(self):
        broken = FiniteGroup([1, 0, 0, 1], 2)  # claims identity 0, but 0*0 = 1
        report = verify_group_axioms(broken)
        assert not report.ok
        assert report.failure[0] == "identity"

    def test_missing_inverse_reported(self):
        # x*y = max(x,y) on {0,1}: identity 0 works, 1 has no inverse.
        broken = FiniteGroup([0, 1, 1, 1], 2)
        report = verify_group_axioms(broken)
        assert not report.ok
        assert report.failure == ("inverse", 1)

    def test_every_catalog_group_at_p3(self, groups3):
        for name, g in groups3.items():
            assert verify_group_axioms(g).ok, name


class TestElementOrder:
    def test_identity(self):
        g = abelian_group([6])
        assert element_order(g, 0) == 1

    def test_coset_generator_with_nontrivial_v(self):
        g = build_group(mixed_type(3, ((4, 0), (0, 1)), (0, 1)))
        assert element_order(g, A3) == 9

    def test_kernel_generator_order(self):
        t = mixed_type(5, ((1, 5), (0, 1)), (0, 0))
        g = build_group(t)
        assert element_order(g, ext_index(t.profile, (1, 0), 0)) == 25


class TestOrderCensus:
    def test_counts_partition_group(self, groups3):
        for g in groups3.values():
            census = order_census(g)
            assert sum(census.values()) == g.size
            assert all(g.size % o == 0 for o in census)

    def test_catalog_censuses(self, groups3):
        def le3(g):
            return sum(c for o, c in order_census(g).items() if o <= 3)

        assert le3(groups3["r1-v0"]) == 27
        assert le3(groups3["r1-e1"]) == 9
        assert le3(groups3["r5-v0"]) == 63


class TestCenter:
    def test_shear_center_is_cyclic(self, groups3):
        assert abelian_invariants(center(groups3["r1-v0"])) == (9,)

    def test_lower_shear_center_is_elementary(self, groups3):
        assert abelian_invariants(center(groups3["r3-v0"])) == (3, 3)

    def test_abelian_center_is_whole_group(self):
        g = abelian_group([9, 3])
        assert center(g).order == 27

    def test_center_is_normal(self, groups3):
        g = groups3["r4-v0"]
        z = center(g).element_set
        for c in range(g.size):
            ci = g.inv(c)
            for h in z:
                assert g.mul(g.mul(c, h), ci) in z


class TestDerivedSubgroup:
    def test_abelian_derived_trivial(self):
        assert derived_subgroup(abelian_group([9, 3])).order == 1

    def test_twist_derived_order_nine(self, groups3):
        d = derived_subgroup(groups3["r4-v0"])
        assert d.order == 9
        want = {(3 * a % 9, b % 3) for a in range(3) for b in range(3)}
        assert set(d.elements) == {ext_index(P3_MIXED, x, 0) for x in want}

    def test_shear_derived_order_three(self, groups3):
        g = groups3["r1-v0"]
        d = derived_subgroup(g)
        assert d.order == 3
        # cross-check by exhaustive commutator enumeration
        comms = {
            g.mul(g.mul(g.mul(a, b), g.inv(a)), g.inv(b))
            for a in range(g.size)
            for b in range(g.size)
        }
        assert comms <= d.element_set

    def test_derived_is_normal(self, groups3):
        g = groups3["r5-v0"]
        d = derived_subgroup(g).element_set
        for c in range(g.size):
            ci = g.inv(c)
            for h in d:
                assert g.mul(g.mul(c, h), ci) in d

    def test_quotient_by_derived_is_abelian(self, groups3):
        for g in groups3.values():
            assert quotient(g, derived_subgroup(g)).is_abelian


class TestSubgroupGenerated:
    def test_empty_seeds(self, groups3):
        sub = subgroup_generated(groups3["r1-v0"], [])
        assert sub.elements == (0,)

    def test_coset_generator_with_trivial_v(self, groups3):
        g = groups3["r1-v0"]
        assert subgroup_generated(g, [A3]).order == 3

    def test_kernel_embeds(self, groups3):
        g = groups3["r1-v0"]
        sub = subgroup_generated(g, range(P3_MIXED.order))
        assert sub.order == 27
        assert abelian_invariants(sub) == (3, 9)


class TestAbelianInvariants:
    def test_direct_product(self):
        assert abelian_invariants(abelian_group([9, 3])) == (3, 9)

    def test_trivial_group(self):
        assert abelian_invariants(abelian_group([1])) == ()

    def test_epsilon_twist_center(self, groups3):
        assert abelian_invariants(center(groups3["r5-v0"])) == (3,)

    def test_nonabelian_rejected(self, groups3):
        with pytest.raises(ValueError):
            abelian_invariants(groups3["r4-v0"])

    def test_non_p_group(self):
        assert abelian_invariants(abelian_group([12])) == (12,)
        assert abelian_invariants(abelian_group([2, 6])) == (2, 6)


class TestQuotient:
    def test_by_trivial_subgroup(self, groups3):
        g = groups3["r2-v0"]
        q = quotient(g, subgroup_generated(g, []))
        assert q is g

    def test_scaling_power_quotient_abelian(self, groups3):
        g = groups3["r2-v0"]
        powers = sorted({g.power(i, 3) for i in range(g.size)})
        q = quotient(g, subgroup_generated(g, powers))
        assert q.is_abelian

    def test_shear_power_quotient_nonabelian(self, groups3):
        g = groups3["r3-v0"]
        powers = sorted({g.power(i, 3) for i in range(g.size)})
        q = quotient(g, subgroup_generated(g, powers))
        assert not q.is_abelian

    def test_non_normal_rejected(self, groups3):
        g = groups3["r3-v0"]
        sub = subgroup_generated(g, [A3])
        with pytest.raises(ValueError):
            quotient(g, sub)


class TestIsomorphic:
    def test_self_is_identity_witness(self, groups3):
        g = groups3["r1-v0"]
        ok, witness = isomorphic(g, g)
        assert ok and witness == list(range(g.size))

    def test_size_mismatch(self):
        ok, witness = isomorphic(abelian_group([4]), abelian_group([8]))
        assert not ok and witness is None

    def test_c4_vs_klein(self):
        ok, _ = isomorphic(abelian_group([4]), abelian_group([2, 2]))
        assert not ok

    def test_known_isomorphic_pair(self, groups3):
        ok, witness = isomorphic(groups3["r2-e2"], groups3["r3-e2"])
        assert ok
        _check_witness(groups3["r2-e2"], groups3["r3-e2"], witness)

    def test_known_nonisomorphic_pair(self, groups3):
        ok, witness = isomorphic(groups3["r2-v0"], groups3["r3-v0"])
        assert not ok and witness is None

    def test_symmetry(self, groups3):
        ok_ab, _ = isomorphic(groups3["r2-e2"], groups3["r3-e2"])
        ok_ba, _ = isomorphic(groups3["r3-e2"], groups3["r2-e2"])
        assert ok_ab == ok_ba

    def test_isomorphic_pairs_share_fingerprint(self, groups3):
        assert fingerprint(groups3["r2-e2"]) == fingerprint(groups3["r3-e2"])

    def test_abelian_relabelled(self):
        ok, witness = isomorphic(abelian_group([3, 9]), abelian_group([9, 3]))
        assert ok
        _check_witness(abelian_group([3, 9]), abelian_group([9, 3]), witness)


def _check_witness(g1, g2, witness):
    assert sorted(witness) == list(range(g1.size))
    for i in range(g1.size):
        for j in range(g1.size):
            assert witness[g1.mul(i, j)] == g2.mul(witness[i], witness[j])


class TestFingerprint:
    def test_cyclic_p4(self):
        fp = fingerprint(abelian_group([81]))
        assert fp.abelianization_invariants == (81,)
        assert fp.derived_order == 1
        assert fp.exponent == 81

    def test_twist_p5(self):
        g = build_group(mixed_type(5, ((1, 5), (1, 1)), (0, 0)))
        fp = fingerprint(g)
        assert fp.center_invariants == (5,)
        assert fp.census_le_p == 125
        assert not fp.low_order_commute

    def test_full_jordan_nonzero_v_p5(self):
        g = build_group(elem_type(5, FULL_JORDAN, (1, 0, 0)))
        fp = fingerprint(g)
        assert fp.census_le_p == 125
        assert fp.low_order_commute

    def test_power_quotient_flag_splits_v0_pair(self, groups3):
        assert fingerprint(groups3["r2-v0"]).power_quotient_abelian
        assert not fingerprint(groups3["r3-v0"]).power_quotient_abelian
