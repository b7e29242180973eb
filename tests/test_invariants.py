"""The fast invariants against brute-force definitions written out here.

Inverses, conjugacy classes, commutativity of subgroups, the derived
subgroup, the per-element search keys, normality, the low-order commuting
flag and the p-power quotient flag are computed in the library from row
searches and from generators.  Each is compared, on every p = 3 candidate
group and the five abelian groups of order 81, with the definition evaluated
over all elements or all pairs.  So is the twist count, also on the
residue-twist pair at p = 5, the one pair that no fingerprint field
separates; on that pair the exhaustive search also runs to its negative end.
A property test renumbers the candidates and checks that the invariants, the
keys and the oracle do not depend on the numbering.
"""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p4groups.classify import ClassifyConfig, abelian_catalog, candidate_types, classify_p4
from p4groups import classify as classify_module
from p4groups import groups as groups_module
from p4groups.extension import build_group
from p4groups.groups import (
    AxiomReport,
    FiniteGroup,
    Subgroup,
    _associates_through,
    _generator_commutators,
    _respects_generators,
    _twist_count,
    abelian_group,
    abelian_invariants,
    center,
    derived_subgroup,
    fingerprint,
    isomorphic,
    least_prime_factor,
    quotient,
    subgroup_generated,
    verify_group_axioms,
)
from test_groups import _check_witness

CFG3 = ClassifyConfig.for_prime(3)
CANDIDATES3 = [(c.label, build_group(c.ext)) for c in candidate_types(CFG3)]
GROUPS3 = CANDIDATES3 + [
    (label, groups_module.abelian_group(chain)) for label, chain in abelian_catalog(CFG3)
]


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


def brute_derived(g):
    """G' as the subgroup generated by every commutator of G x G."""
    inv = brute_inverses(g)
    return set(g.closure(
        g.mul(g.mul(a, b), g.mul(inv[a], inv[b])) for a in range(g.size) for b in range(g.size)
    ))


def brute_twist_count(g):
    """T(G) by its definition, over every pair of G x G."""
    p = least_prime_factor(g.size)
    e = g.identity_index
    inv = g.inverses
    squares = {k * k % p for k in range(1, p)}

    def comm(a, b):
        return g.mul(g.mul(a, b), g.mul(inv[a], inv[b]))

    count = 0
    for x in range(g.size):
        xp = g.power(x, p)
        targets = {g.power(xp, k) for k in squares}
        for y in range(g.size):
            c = comm(comm(x, y), y)
            count += c != e and c in targets
    return count


def twist_pair(p):
    """The two maximal-class groups whose relations differ by the nonresidue."""
    labels = ("2x2-r4-v0", "2x2-r5-v0")
    cands = {c.label: c for c in candidate_types(ClassifyConfig.for_prime(p))}
    return tuple(build_group(cands[label].ext) for label in labels)


@pytest.fixture(scope="module")
def twist_pair5():
    return twist_pair(5)


def test_inverses(group):
    assert group.inverses == brute_inverses(group)


def test_inverses_at_p5(twist_pair5):
    g = twist_pair5[0]
    assert g.inverses == brute_inverses(g)


def test_pth_powers(group):
    assert group.pth_powers == [group.power(x, 3) for x in range(group.size)]


def test_pth_powers_at_p5(twist_pair5):
    g = twist_pair5[0]
    assert g.pth_powers == [g.power(x, 5) for x in range(g.size)]


def test_witness_is_checked_on_the_generators():
    cands = dict(CANDIDATES3)
    g1, g2 = cands["2x2-r2-v-e2"], cands["2x2-r3-v-e2"]
    ok, witness = isomorphic(g1, g2)
    assert ok
    gens = g1.generating_sequence
    assert _respects_generators(g1, g2, witness, gens)
    # Swapping two images composes the witness with a transposition of g1,
    # which is no automorphism: its fixed points would be a subgroup holding
    # all but two of the 81 elements.
    swapped = list(witness)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert not _respects_generators(g1, g2, swapped, gens)
    # Moving the images one step along a coset y<s> keeps every product with
    # s, so only the other generator can catch it.
    s = gens[0]
    y = next(x for x in range(g1.size) if x not in g1.closure([s]))
    coset = [y]
    while (nxt := g1.mul(coset[-1], s)) != y:
        coset.append(nxt)
    rotated = list(witness)
    for x, x_next in zip(coset, coset[1:] + coset[:1]):
        rotated[x] = witness[x_next]
    assert _respects_generators(g1, g2, rotated, [s])
    assert not _respects_generators(g1, g2, rotated, gens)


def test_conjugacy(group):
    assert group.conjugacy == brute_conjugacy(group)


def test_subgroup_is_abelian(group):
    for sub in (center(group), derived_subgroup(group)):
        assert sub.is_abelian() == brute_commute(group, sub.elements)


def test_derived_subgroup(group):
    assert group.derived_elements == brute_derived(group)
    assert derived_subgroup(group).elements == tuple(sorted(brute_derived(group)))


def test_element_keys(group):
    _, sizes, _ = brute_conjugacy(group)
    derived = brute_derived(group)
    want = []
    for x in range(group.size):
        xp = group.power(x, 3)
        orders = [next(k for k in range(1, 82) if group.power(y, k) == 0) for y in (x, xp)]
        want.append((orders[0], sizes[x], orders[1], xp in derived))
    assert group.element_keys == want


def test_low_order_commute(group):
    small = [x for x in range(group.size) if group.power(x, 3) == group.identity_index]
    assert fingerprint(group).low_order_commute == brute_commute(group, small)


def test_power_quotient_abelian(group):
    power_sub = subgroup_generated(group, {group.power(x, 3) for x in range(group.size)})
    q = quotient(group, power_sub)
    assert fingerprint(group).power_quotient_abelian == brute_commute(q, range(q.size))


def test_twist_count(group):
    assert _twist_count(group) == brute_twist_count(group)


def times_cyclic(g, m):
    """G x C_m, with (a, b) at index m*a + b."""
    pairs = list(product(range(g.size), range(m)))
    return FiniteGroup([g.mul(a, c) * m + (b + d) % m for a, b in pairs for c, d in pairs], m * g.size)


def test_twist_count_weights_orbits_of_classes_under_the_center():
    # H = G x C3 for G = 2x2-r4-v0: (e, 1) is central and moves the class of
    # (y, c) to that of (y, c + 1), so every noncentral class lies in an
    # orbit of at least three, and [[x, y], y] and (x^3)^k ignore the C3
    # coordinates: T(H) = 9 T(G), counted from one class per orbit.
    h = times_cyclic(dict(CANDIDATES3)["2x2-r4-v0"], 3)
    assert _twist_count(h) == brute_twist_count(h) == 9 * 1620


def test_twist_count_weights_only_central_elements_of_order_p():
    # H = G x C9: (x, c)^3 = (x^3, 3c) meets a target only when 3c = 0 mod 9,
    # so 3 of the 9 values of c count, and every d of y = (y, d) counts:
    # T(H) = 27 T(G).  Omega = {z in Z(H) : z^3 = e} holds (e, 3) but not
    # (e, 1), whose weight would make it 81 T(G).
    h = times_cyclic(dict(CANDIDATES3)["2x2-r4-v0"], 9)
    assert _twist_count(h) == 27 * 1620


def test_twist_count_rejects_a_commutator_outside_the_derived_subgroup():
    cands = {c.label: c for c in candidate_types(CFG3)}
    g = build_group(cands["2x2-r4-v0"].ext)  # class 3, so the count runs
    g.derived_elements = frozenset({g.identity_index})  # a trivial "G'"
    with pytest.raises(ValueError, match="lies outside the derived subgroup"):
        _twist_count(g)


# The nonzero twist counts of the catalog candidates; every other candidate
# has T = 0.  The slow tier pins the p = 7 pair (test_residue_twist_pair_at_p7).
TWIST_COUNTS = {
    3: {"2x2-r4-v0": 1620, "2x2-r5-v-pe1": 972, "3x3-J3-v0": 648},
    5: {"2x2-r4-v0": 130000, "2x2-r5-v0": 80000, "3x3-J3-v-e1": 100000},
}


@pytest.mark.parametrize("p", sorted(TWIST_COUNTS))
def test_twist_counts_by_label(p):
    counts = {c.label: c.build().twist_count for c in candidate_types(ClassifyConfig.for_prime(p))}
    assert {label: t for label, t in counts.items() if t} == TWIST_COUNTS[p]


@pytest.mark.parametrize("p", sorted(TWIST_COUNTS))
def test_zero_twist_counts_form_no_conjugacy_classes(p, monkeypatch):
    # Class <= 2 is read off the generators, and 3x3-J3-v0 at p = 5 has
    # exponent 5: no x has x^p != e.  A candidate of class 3 with an x of
    # order p^2 reaches the classes, which the patch refuses.
    def refuse(g):
        raise AssertionError("conjugacy classes formed")

    tables = {c.label: build_group(c.ext) for c in candidate_types(ClassifyConfig.for_prime(p))}
    zero = {label for label, g in tables.items()
            if g.derived_elements <= center(g).element_set}
    if p == 5:
        zero.add("3x3-J3-v0")
    assert set(TWIST_COUNTS[p]) <= set(tables) - zero
    monkeypatch.setattr(FiniteGroup, "conjugacy", property(refuse))
    for label, g in tables.items():
        if label in zero:
            assert _twist_count(g) == 0, label
        else:
            with pytest.raises(AssertionError, match="conjugacy classes formed"):
                _twist_count(g)


@pytest.mark.parametrize("p", [3, 5])
def test_counted_abelianization_matches_the_quotient(p):
    cfg = ClassifyConfig.for_prime(p)
    tables = [c.build() for c in candidate_types(cfg)]
    tables += [groups_module.abelian_group(chain) for _, chain in abelian_catalog(cfg)]
    for g in tables:
        want = abelian_invariants(quotient(g, derived_subgroup(g)))
        assert fingerprint(g).abelianization_invariants == want


def test_abelianization_needs_every_generator_commutator_in_the_derived_subgroup():
    g = build_group(candidate_types(CFG3)[0].ext)
    g.derived_elements = frozenset({g.identity_index})  # a trivial "G'"
    with pytest.raises(ValueError, match="commutator of the generators lies outside"):
        fingerprint(g)


def test_abelianization_needs_a_normal_derived_subgroup():
    # In a group of class 3 the generator commutators generate a proper
    # subgroup of G', which is not normal: G' is their normal closure.
    cands = {c.label: c for c in candidate_types(CFG3)}
    g = build_group(cands["2x2-r4-v0"].ext)
    commutators = frozenset(g.closure(_generator_commutators(g)))
    assert len(commutators) < len(g.derived_elements)
    g.derived_elements = commutators
    with pytest.raises(ValueError, match="not normal"):
        fingerprint(g)


def test_twist_count_separates_the_residue_twist_pair_at_p5(twist_pair5):
    r4, r5 = twist_pair5
    assert fingerprint(r4) == fingerprint(r5)
    assert [_twist_count(g) for g in twist_pair5] == [130000, 80000]
    assert [brute_twist_count(g) for g in twist_pair5] == [130000, 80000]


def test_residue_twist_pair_is_rejected_without_a_search(twist_pair5, monkeypatch):
    def no_search(g1, g2):
        raise AssertionError("the twist count should have decided this pair")

    monkeypatch.setattr(groups_module, "_search_isomorphism", no_search)
    assert isomorphic(*twist_pair5) == (False, None)


def test_exhaustive_search_finds_no_isomorphism(twist_pair5):
    # isomorphic() certifies this pair by the twist count, so the search's
    # negative branch, which undoes every rejected candidate, is run here.
    r4, r5 = twist_pair5
    assert groups_module._search_isomorphism(r4, r5) is None


def test_search_maps_a_group_onto_its_relabelled_copy(twist_pair5):
    g = twist_pair5[0]
    moved = list(range(1, g.size))
    random.Random(5).shuffle(moved)
    h = relabel(g, [0, *moved])
    witness = groups_module._search_isomorphism(g, h)
    assert witness is not None
    _check_witness(g, h, witness)


@pytest.mark.slow
def test_residue_twist_pair_at_p7():
    r4, r5 = twist_pair(7)
    assert (r4.twist_count, r5.twist_count) == (2160900, 1555848)
    assert isomorphic(r4, r5) == (False, None)


def test_quotient_accepts_exactly_the_normal_cyclic_subgroups(group):
    for x in range(0, group.size, 4):
        sub = subgroup_generated(group, [x])
        if brute_is_normal(group, sub.element_set):
            assert quotient(group, sub).size == group.size // sub.order
        else:
            with pytest.raises(ValueError, match="not normal"):
                quotient(group, sub)


def test_group_inverses_take_no_byte_search(monkeypatch):
    # In a group, x^(n-1) passes the two-sided check; the per-element scan
    # ``_inverse_of`` is only the fallback for tables that are not groups.
    monkeypatch.setattr(groups_module, "_inverse_of", None)
    for g in (build_group(candidate_types(CFG3)[0].ext), groups_module.abelian_group([2, 3, 4])):
        assert g.inverses == brute_inverses(g)


def one_sided_magma():
    rows = [[0, 1, 2, 3], [1, 3, 0, 0], [2, 1, 0, 1], [3, 0, 1, 0]]
    return FiniteGroup([x for row in rows for x in row], 4)


def test_inverse_skips_one_sided_identity():
    # Row 1 holds the identity at column 2 first, but 2*1 = 1; the least
    # two-sided inverse of 1 is 3.  Here 1^3 = (1*1)*1 = 0 is no inverse of
    # 1, so the gathered powers fail the check and the scan runs.
    g = one_sided_magma()
    assert g.inverses == brute_inverses(g) == [0, 3, 2, 1]


@pytest.mark.parametrize(
    "make",
    [lambda c=c: build_group(c.ext) for c in candidate_types(CFG3)] + [one_sided_magma],
    ids=[c.label for c in candidate_types(CFG3)] + ["one-sided-magma"],
)
def test_inv_is_the_least_two_sided_inverse_before_and_after_caching(make):
    # In the magma 3*3 = 0 as well, but the least two-sided inverse of 3 is 1.
    g = make()
    want = brute_inverses(g)
    assert [g.inv(i) for i in range(g.size)] == want
    assert "inverses" not in g.__dict__
    g.inverses
    assert [g.inv(i) for i in range(g.size)] == want


def test_iso_and_classify_build_no_whole_inverse_map(monkeypatch):
    # Only verify_group_axioms reads every inverse; the rest read a few.
    r4, r5 = twist_pair(5)
    assert isomorphic(r4, r5) == (False, None)
    groups = [r4, r5]

    def keeping(t):
        groups.append(build_group(t))
        return groups[-1]
    monkeypatch.setattr(classify_module, "build_group", keeping)
    for p in (3, 5):
        cfg = ClassifyConfig.for_prime(p)
        classify_p4(cfg, candidate_types(cfg))
    assert len(groups) == 2 + 2 * 10
    assert not [g for g in groups if "inverses" in g.__dict__]


def test_magma_without_inverse_raises():
    g = FiniteGroup([0, 1, 1, 1], 2)  # x*y = max(x, y): 1 has no inverse
    with pytest.raises(ValueError, match="element 1 has no two-sided inverse"):
        g.inv(1)
    with pytest.raises(ValueError, match="element 1 has no two-sided inverse"):
        g.inverses


def broken_c5():
    table = list(abelian_group([5])._table)
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


def brute_axiom_report(g):
    """The report by the definitions: the first element without a two-sided
    identity, then the first without a two-sided inverse, then the
    lexicographically first triple with (i*j)*k != i*(j*k)."""
    n, e = g.size, g.identity_index
    for i in range(n):
        if g.mul(e, i) != i or g.mul(i, e) != i:
            return AxiomReport(False, ("identity", i))
    for i, inverse in enumerate(brute_inverses(g)):
        if inverse is None:
            return AxiomReport(False, ("inverse", i))
    for i, j, k in product(range(n), repeat=3):
        if g.mul(g.mul(i, j), k) != g.mul(i, g.mul(j, k)):
            return AxiomReport(False, ("associativity", (i, j, k)))
    return AxiomReport(True, None)


def symmetric_group_3():
    """S3 on the permutations of (0, 1, 2) in lexicographic order, so the
    identity is element 0; the product is composition, a after b."""
    perms = list(permutations(range(3)))
    return FiniteGroup([perms.index(tuple(a[x] for x in b)) for a in perms for b in perms], 6)


@pytest.mark.parametrize(
    "make", [lambda: groups_module.abelian_group([3, 3]), symmetric_group_3], ids=["C3xC3", "S3"]
)
def test_every_single_entry_corruption_matches_the_definitions(make):
    g = make()
    n = g.size
    assert verify_group_axioms(g) == brute_axiom_report(g) == AxiomReport(True, None)
    table = list(g._table)
    for pos, right in enumerate(table):
        for wrong in range(n):
            if wrong != right:
                broken = FiniteGroup(table[:pos] + [wrong] + table[pos + 1 :], n)
                assert verify_group_axioms(broken) == brute_axiom_report(broken), (pos, wrong)


def test_failure_with_a_middle_factor_outside_the_generators():
    # 1*1 = 0 in C5: the first failing triple is (1, 1, 2), and 1 is not
    # the generator that Light's test checks.
    table = list(abelian_group([5])._table)
    table[1 * 5 + 1] = 0
    g = FiniteGroup(table, 5)
    assert g.generating_sequence == (2,)
    assert not _associates_through(g._table, 5, 2)
    assert verify_group_axioms(g) == AxiomReport(False, ("associativity", (1, 1, 2)))
    assert verify_group_axioms(g) == brute_axiom_report(g)


def associates_through_by_triples(t, n, a):
    """(x*a)*y == x*(a*y) for every x and y, one triple at a time."""
    return all(t[t[x * n + a] * n + y] == t[x * n + t[a * n + y]]
               for x in range(n) for y in range(n))


@pytest.mark.parametrize(
    "make", [lambda: groups_module.abelian_group([3, 3]), symmetric_group_3], ids=["C3xC3", "S3"]
)
def test_light_check_matches_the_triples_on_every_single_entry_corruption(make):
    g = make()
    n = g.size
    table = list(g._table)
    for pos, right in enumerate(table):
        for wrong in range(n):
            if wrong != right:
                t = FiniteGroup(table[:pos] + [wrong] + table[pos + 1 :], n)._table
                for a in range(n):
                    assert _associates_through(t, n, a) == associates_through_by_triples(t, n, a), (
                        pos, wrong, a)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    candidate=st.sampled_from(CANDIDATES3),
    edits=st.lists(st.tuples(st.integers(0, 81 * 81 - 1), st.integers(0, 80)), max_size=4),
    extra=st.integers(0, 80),
)
def test_light_check_matches_the_triples_on_corrupted_candidates(candidate, edits, extra):
    # The middles are the candidate's generators, which Light's test reads,
    # and one more element, the identity among them at times.
    _, g = candidate
    table = list(g._table)
    for pos, value in edits:
        table[pos] = value
    t = FiniteGroup(table, 81)._table
    gens = (*g.generating_sequence, extra)
    assert (all(_associates_through(t, 81, a) for a in gens)
            == all(associates_through_by_triples(t, 81, a) for a in gens))


@pytest.mark.slow
@pytest.mark.parametrize("x, block", [(53, 0), (61, 1), (2400, 44)],
                         ids=["first-block", "interior-boundary", "last-partial-block"])
def test_light_check_reads_every_block_at_p7(x, block):
    # At n = 2401 the rows fall into blocks of 54, the last of 25.  Entry
    # (x, e) moved breaks (x*a)*y = x*(a*y) in row x and in the row r with
    # r*a = x, and nowhere else; for a = 7 both lie in the given block: rows
    # 46 and 53 end the first block, rows 54 and 61 open the second.
    g = next(c for c in candidate_types(ClassifyConfig.for_prime(7)) if c.label == "2x2-r1-v0").build()
    n, a = g.size, 7
    step = groups_module._LIGHT_BLOCK // n
    assert (step, n % step) == (54, 25) and a in g.generating_sequence
    t = g._table
    assert _associates_through(t, n, a)
    rows = [x, *(r for r in range(n) if t[r * n + a] == x)]
    assert len(rows) == 2 and {r // step for r in rows} == {block}
    t = t[:]
    t[x * n] = (x + 1) % n
    assert not _associates_through(t, n, a)


def test_magma_whose_element_orders_raise_gets_a_report():
    # 1*1 = 1 in C5: the powers of 1 never reach 0, so element_orders (and
    # with it generating_sequence) raises, yet 1*4 = 4*1 = 0 is an inverse.
    table = list(abelian_group([5])._table)
    table[1 * 5 + 1] = 1
    g = FiniteGroup(table, 5)
    with pytest.raises(ValueError, match="generates no cyclic subgroup"):
        g.element_orders
    assert verify_group_axioms(g) == brute_axiom_report(g)
    assert verify_group_axioms(g).failure == ("associativity", (1, 1, 2))


def test_subgroup_generators_must_generate_its_elements():
    g = abelian_group([9])
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
    perm = [0, *moved]
    h = relabel(g, perm)
    assert fingerprint(h) == fingerprint(g)
    assert h.twist_count == g.twist_count
    assert all(h.element_keys[perm[x]] == g.element_keys[x] for x in range(g.size))
    ok, witness = isomorphic(g, h)
    assert ok
    _check_witness(g, h, witness)
