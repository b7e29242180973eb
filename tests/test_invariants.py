"""The fast invariants against brute-force definitions written out here.

Inverses, conjugacy classes, commutativity of subgroups, the derived
subgroup, normality, the low-order commuting flag and the p-power quotient
flag are computed in the library from row searches and from generators.
Each is compared, on every p = 3 candidate group and the five abelian groups
of order 81, with the definition evaluated over all elements or all pairs.
A property test renumbers the candidates and checks that the invariants and
the oracle do not depend on the numbering.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p4groups.classify import ClassifyConfig, abelian_catalog, candidate_types
from p4groups.extension import build_group
from p4groups.groups import (
    FiniteGroup,
    Subgroup,
    center,
    cyclic_group,
    derived_subgroup,
    fingerprint,
    isomorphic,
    quotient,
    subgroup_generated,
    verify_group_axioms,
)
from test_groups import _check_witness

CFG3 = ClassifyConfig.for_prime(3)
CANDIDATES3 = [(c.label, build_group(c.ext)) for c in candidate_types(CFG3)]
GROUPS3 = CANDIDATES3 + [(label, g) for label, _, g in abelian_catalog(CFG3)]


@pytest.fixture(params=GROUPS3, ids=[label for label, _ in GROUPS3])
def group(request):
    return request.param[1]


def brute_inverses(g):
    e = g.identity_index
    out = []
    for i in range(g.size):
        js = [j for j in range(g.size) if g.mul(i, j) == e and g.mul(j, i) == e]
        out.append(js[0] if js else None)
    return out


def brute_conjugacy(g):
    inv = brute_inverses(g)
    class_id = [-1] * g.size
    sizes = [0] * g.size
    reps = []
    for i in range(g.size):
        if class_id[i] >= 0:
            continue
        cls = {g.mul(g.mul(c, i), inv[c]) for c in range(g.size)}
        for x in cls:
            class_id[x] = len(reps)
            sizes[x] = len(cls)
        reps.append(min(cls))
    return class_id, sizes, reps


def brute_commute(g, elements):
    return all(g.mul(a, b) == g.mul(b, a) for a in elements for b in elements)


def brute_is_normal(g, elements):
    inv = brute_inverses(g)
    return all(g.mul(g.mul(c, h), inv[c]) in elements for c in range(g.size) for h in elements)


def test_inverses(group):
    assert group.inverses == brute_inverses(group)


def test_conjugacy(group):
    assert group.conjugacy == brute_conjugacy(group)


def test_subgroup_is_abelian(group):
    for sub in (center(group), derived_subgroup(group)):
        assert sub.is_abelian() == brute_commute(group, sub.elements)


def test_derived_subgroup(group):
    inv = brute_inverses(group)
    comms = {
        group.mul(group.mul(a, b), group.mul(inv[a], inv[b]))
        for a in range(group.size)
        for b in range(group.size)
    }
    assert derived_subgroup(group).elements == tuple(group.closure(comms))


def test_low_order_commute(group):
    small = [x for x in range(group.size) if group.power(x, 3) == group.identity_index]
    assert fingerprint(group).low_order_commute == brute_commute(group, small)


def test_power_quotient_abelian(group):
    power_sub = subgroup_generated(group, {group.power(x, 3) for x in range(group.size)})
    q = quotient(group, power_sub)
    assert fingerprint(group).power_quotient_abelian == brute_commute(q, range(q.size))


def test_quotient_accepts_exactly_the_normal_cyclic_subgroups(group):
    for x in range(0, group.size, 4):
        sub = subgroup_generated(group, [x])
        if brute_is_normal(group, sub.element_set):
            assert quotient(group, sub).size == group.size // sub.order
        else:
            with pytest.raises(ValueError, match="not normal"):
                quotient(group, sub)


def test_inverse_skips_one_sided_identity():
    # Row 1 holds the identity at column 2 first, but 2*1 = 1; the least
    # two-sided inverse of 1 is 3.
    rows = [[0, 1, 2, 3], [1, 3, 0, 0], [2, 1, 0, 1], [3, 0, 1, 0]]
    g = FiniteGroup([x for row in rows for x in row], 4)
    assert g.inverses == brute_inverses(g) == [0, 3, 2, 1]


def test_magma_without_inverse_raises():
    g = FiniteGroup([0, 1, 1, 1], 2)  # x*y = max(x, y): 1 has no inverse
    with pytest.raises(ValueError, match="element 1 has no two-sided inverse"):
        g.inverses


def broken_c5():
    table = list(cyclic_group(5)._table)
    table[1 * 5 + 1] = 3  # break 1+1=2, keep every inverse
    return FiniteGroup(table, 5)


def test_associativity_failure_is_the_first_triple():
    g = broken_c5()
    first = next(
        (i, j, k)
        for i in range(5)
        for j in range(5)
        for k in range(5)
        if g.mul(g.mul(i, j), k) != g.mul(i, g.mul(j, k))
    )
    assert verify_group_axioms(g).failure == ("associativity", first)


def test_sampled_associativity_reports_a_failing_triple():
    g = broken_c5()
    kind, (i, j, k) = verify_group_axioms(g, associativity_samples=1000, seed=3).failure
    assert kind == "associativity"
    assert g.mul(g.mul(i, j), k) != g.mul(i, g.mul(j, k))


def test_subgroup_generators_must_generate_its_elements():
    g = cyclic_group(9)
    with pytest.raises(ValueError, match="closure of its generators"):
        Subgroup(g, (0, 3, 6), ())


def relabel(g, perm):
    """The copy of g in which element i is called perm[i]."""
    table = [0] * (g.size * g.size)
    for i in range(g.size):
        for j in range(g.size):
            table[perm[i] * g.size + perm[j]] = perm[g.mul(i, j)]
    return FiniteGroup(table, g.size)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    candidate=st.sampled_from(CANDIDATES3),
    moved=st.permutations(range(1, 81)),
)
def test_relabelled_candidate_is_isomorphic(candidate, moved):
    # The generating sequence, center and derived subgroup are recomputed
    # under the new numbering; the identity keeps index 0.
    _, g = candidate
    h = relabel(g, [0, *moved])
    assert fingerprint(h) == fingerprint(g)
    ok, witness = isomorphic(g, h)
    assert ok
    _check_witness(g, h, witness)
