"""Cayley tables byte for byte, and the helpers that build them.

The sha256 of every built table is compared with hashes saved from an
earlier commit (``golden/table-sha256.json``), so a change to how tables are
built cannot change a single entry.  The entries are hashed as 32-bit words,
the width of the earliest tables, and a separate test pins that every table
producer stores two-byte ("H") entries.  The p = 7 hashes are
checked in the slow tier (``-m slow``).  The table producer, the direct-sum
table and the element orders are checked against direct definitions.
"""

import hashlib
import json
import math
import random
import sys
from array import array
from itertools import product
from pathlib import Path

import pytest

from p4groups.classify import ClassifyConfig, abelian_catalog, candidate_types
from p4groups.extension import ExtensionType, build_group
from p4groups.groups import (
    FiniteGroup,
    _table_of_translates,
    abelian_group,
    center,
    quotient,
)
from p4groups.residues import MixedModulusMatrix, ModulusProfile

GOLDEN = Path(__file__).parent / "golden" / "table-sha256.json"

# Types outside the p^4 catalog: quotient orders other than p, tau = -I, p = 2.
# (label, p, shape, n, tau rows, v)
OTHER_TYPES = [
    ("p3-p2xp-n1", 3, "p2xp", 1, ((1, 0), (0, 1)), (1, 2)),
    ("p3-p2xp-n2-minus", 3, "p2xp", 2, ((8, 0), (0, 2)), (0, 0)),
    ("p3-pxpxp-n2-minus", 3, "pxpxp", 2, ((2, 0, 0), (0, 2, 0), (0, 0, 2)), (0, 0, 0)),
    ("p3-p2xp-n6", 3, "p2xp", 6, ((1, 3), (0, 1)), (3, 0)),
    ("p3-p2xp-n6-minus", 3, "p2xp", 6, ((8, 6), (0, 2)), (0, 0)),
    ("p3-p2xp-n9", 3, "p2xp", 9, ((1, 3), (0, 1)), (3, 0)),
    ("p3-pxpxp-n9", 3, "pxpxp", 9, ((1, 1, 0), (0, 1, 0), (0, 0, 1)), (1, 0, 2)),
    ("p2-p2xp-n2", 2, "p2xp", 2, ((1, 2), (0, 1)), (1, 0)),
    ("p2-pxpxp-n2", 2, "pxpxp", 2, ((1, 1, 0), (0, 1, 0), (0, 0, 1)), (1, 0, 1)),
    ("p5-p2xp-n4", 5, "p2xp", 4, ((7, 0), (0, 2)), (0, 0)),
    ("p5-pxpxp-n4", 5, "pxpxp", 4, ((2, 0, 0), (0, 2, 0), (0, 0, 2)), (0, 0, 0)),
]

# Abelian groups beyond the p = 3 and p = 5 catalogs: trivial, not p-groups,
# and chains listed largest first.
OTHER_MODULI = [(1,), (2, 3, 4), (6, 10), (81,), (9, 9), (3, 3, 3, 3), (625,), (25, 5, 5)]


def table_sha256(g) -> str:
    """sha256 of the table's entries as little-endian 32-bit words."""
    t = array("i", g._table)
    if sys.byteorder == "big":
        t.byteswap()
    return hashlib.sha256(t.tobytes()).hexdigest()


def other_type(p, shape, n, rows, v) -> ExtensionType:
    prof = ModulusProfile(p, shape)
    return ExtensionType(prof, n, MixedModulusMatrix(rows, prof), prof.element(v))


def catalog_hashes(p: int) -> dict[str, str]:
    """Hashes of the candidate tables and the abelian catalog at p."""
    out = {c.label: table_sha256(build_group(c.ext))
           for c in candidate_types(ClassifyConfig.for_prime(p))}
    for label, chain in abelian_catalog(ClassifyConfig.for_prime(p)):
        out[label] = table_sha256(abelian_group(chain))
    return out


def other_hashes() -> dict[str, str]:
    out = {label: table_sha256(build_group(other_type(*spec)))
           for label, *spec in OTHER_TYPES}
    for moduli in OTHER_MODULI:
        out["abelian-" + "x".join(map(str, moduli))] = table_sha256(abelian_group(moduli))
    return out


def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_other_types_are_valid():
    # The constructor rejects an invalid type.
    for label, *spec in OTHER_TYPES:
        other_type(*spec)


@pytest.mark.parametrize("p", [3, 5])
def test_catalog_tables_match_golden(p):
    assert catalog_hashes(p) == golden()[f"p{p}"]


def test_other_tables_match_golden():
    assert other_hashes() == golden()["other"]


@pytest.mark.slow
def test_catalog_tables_match_golden_p7():
    want = golden()["p7"]
    assert len(want) == 19 + 5
    assert catalog_hashes(7) == want


def coordinate_sums(moduli):
    """plus[x][y] = rank of x + y in C_m1 x ... x C_mk, for ranks x and y."""
    elements = list(product(*(range(m) for m in moduli)))
    rank = {c: r for r, c in enumerate(elements)}
    return [[rank[tuple((a + b) % m for a, b, m in zip(cx, cy, moduli))] for cy in elements]
            for cx in elements]


@pytest.mark.parametrize("moduli", [(1,), (7,), (2, 3, 4), (9, 3), (3, 3, 3), (5, 5, 5)])
@pytest.mark.parametrize("blocks", [1, 3])
def test_translates_match_coordinate_addition(moduli, blocks):
    kernel = math.prod(moduli)
    size = blocks * kernel
    plus = coordinate_sums(moduli)
    # Distinct entries in every head, so that a misplaced column cannot go
    # unseen, and one coset per block, placed in reverse rank order.
    rng = random.Random(size)
    heads = [array("H", rng.sample(range(size), size)) for _ in range(blocks)]
    places = [[c * kernel + kernel - 1 - x for x in range(kernel)] for c in range(blocks)]
    t = _table_of_translates(size, moduli, list(zip(heads, places)))._table
    for head, rows in zip(heads, places):
        for x, row in enumerate(rows):
            want = [head[b * kernel + plus[y][x]] for b in range(blocks) for y in range(kernel)]
            assert list(t[row * size : (row + 1) * size]) == want


@pytest.mark.parametrize("moduli", [(), (1,), (81,), (2, 3, 4), (9, 9), (3, 3, 3, 3)])
def test_direct_sum_table_matches_coordinate_addition(moduli):
    size = math.prod(moduli)
    want = [s for row in coordinate_sums(moduli) for s in row]
    head = array("H", range(size))
    assert list(_table_of_translates(size, moduli, [(head, range(size))])._table) == want
    assert list(abelian_group(moduli)._table) == want


def test_producer_checks_its_head_rows():
    head = array("H", [0, 1, 2, 3, 4, 5])
    assert list(_table_of_translates(6, (3,), [(head, [0, 1, 2])])._table[:6]) == list(head)
    head[4] = 6
    with pytest.raises(ValueError, match="^table entries must be element indices in range$"):
        _table_of_translates(6, (3,), [(array("H", range(6)), [3, 4, 5]), (head, [0, 1, 2])])


@pytest.mark.parametrize("p", [3, 5])
def test_producer_tables_are_in_range_everywhere(p):
    # The producer checks only its head rows; the whole table must pass too.
    cfg = ClassifyConfig.for_prime(p)
    for c in candidate_types(cfg):
        g = build_group(c.ext)
        assert max(g._table) < g.size, c.label
    for label, chain in abelian_catalog(cfg):
        g = abelian_group(chain)
        assert max(g._table) < g.size, label


def brute_force_orders(g):
    return [next(k for k in range(1, g.size + 1) if g.power(x, k) == 0) for x in range(g.size)]


P3 = ClassifyConfig.for_prime(3)
P5 = ClassifyConfig.for_prime(5)
ORDER_GROUPS = (
    [pytest.param(c.ext, id=c.label) for c in candidate_types(P3)]
    + [pytest.param(chain, id=label) for label, chain in abelian_catalog(P3)]
    + [pytest.param(candidate_types(P5)[-1].ext, id="p5-" + candidate_types(P5)[-1].label)]
)


@pytest.mark.parametrize("spec", ORDER_GROUPS)
def test_element_orders_match_power_loop(spec):
    g = build_group(spec) if isinstance(spec, ExtensionType) else abelian_group(spec)
    assert g.element_orders == brute_force_orders(g)


def test_element_orders_fall_back_to_the_walk():
    g = FiniteGroup([0, 1, 1, 1], 2)  # x*y = max(x, y): the powers of 1 never reach 0
    with pytest.raises(ValueError, match="element 1 generates no cyclic subgroup"):
        g.element_orders


@pytest.mark.parametrize("p", [3, 5])
def test_every_producer_makes_the_rule_typecode(p, monkeypatch):
    # The constructor converts a table of any other typecode, so record what
    # each producer hands it: a table of the wrong width would be copied.
    # ``_table_of_translates`` makes its groups without the constructor, so
    # record the typecode of the tables it makes.
    handed = []
    real = FiniteGroup.__init__

    def recording(self, table, size):
        handed.append(table.typecode)
        real(self, table, size)
    monkeypatch.setattr(FiniteGroup, "__init__", recording)
    g = build_group(candidate_types(ClassifyConfig.for_prime(p))[0].ext)
    for made in (g, abelian_group([p**2, p, p])):
        handed.append(made._table.typecode)
    quotient(g, center(g))
    assert handed == ["H"] * 3
    monkeypatch.undo()
    for table in (list(g._table), array("i", g._table)):
        assert FiniteGroup(table, g.size)._table.typecode == "H"
    assert FiniteGroup(g._table, g.size)._table is g._table
