"""Cayley tables byte for byte, and the helpers that build them.

The sha256 of every built table is compared with hashes saved from an
earlier commit (``golden/table-sha256.json``), so a change to how tables are
built cannot change a single entry.  The p = 7 hashes are checked in the slow
tier (``-m slow``).  The translation helper, the direct-sum table and the
element orders are checked against direct definitions.
"""

import hashlib
import json
import math
import sys
from array import array
from itertools import product
from pathlib import Path

import pytest

from p4groups.classify import ClassifyConfig, abelian_catalog, candidate_types
from p4groups.extension import ExtensionType, build_group
from p4groups.groups import FiniteGroup, _direct_sum_table, _translates, abelian_group
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
    t = g._table
    if sys.byteorder == "big":
        t = t[:]
        t.byteswap()
    return hashlib.sha256(t.tobytes()).hexdigest()


def other_type(p, shape, n, rows, v) -> ExtensionType:
    prof = ModulusProfile(p, shape)
    return ExtensionType(prof, n, MixedModulusMatrix(rows, prof), prof.element(v))


def catalog_hashes(p: int) -> dict[str, str]:
    """Hashes of the candidate tables and the abelian catalog at p."""
    out = {c.label: table_sha256(build_group(c.ext))
           for c in candidate_types(ClassifyConfig.for_prime(p))}
    for label, _, g in abelian_catalog(ClassifyConfig.for_prime(p)):
        out[label] = table_sha256(g)
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


def sum_by_coordinates(moduli, x, y):
    """Rank of x + y in C_m1 x ... x C_mk, for ranks x and y."""
    elements = list(product(*(range(m) for m in moduli)))
    s = tuple((a + b) % m for a, b, m in zip(elements[x], elements[y], moduli))
    return elements.index(s)


@pytest.mark.parametrize("moduli", [(1,), (7,), (2, 3, 4), (9, 3), (3, 3, 3), (5, 5, 5)])
@pytest.mark.parametrize("blocks", [1, 3])
def test_translates_match_coordinate_addition(moduli, blocks):
    size = math.prod(moduli)
    # Distinct entries, so that a misplaced column cannot go unseen.
    row = array("i", [1000 * b + 7 * y + 1 for b in range(blocks) for y in range(size)])
    translates = list(_translates(row, moduli))
    assert len(translates) == size
    for x, got in enumerate(translates):
        want = [row[b * size + sum_by_coordinates(moduli, y, x)]
                for b in range(blocks) for y in range(size)]
        assert list(got) == want


@pytest.mark.parametrize("moduli", [(), (1,), (81,), (2, 3, 4), (9, 9), (3, 3, 3, 3)])
def test_direct_sum_table_matches_coordinate_addition(moduli):
    size = math.prod(moduli)
    elements = list(product(*(range(m) for m in moduli)))
    rank = {c: r for r, c in enumerate(elements)}
    want = [rank[tuple((a + b) % m for a, b, m in zip(cx, cy, moduli))]
            for cx in elements for cy in elements]
    assert list(_direct_sum_table(moduli)) == want


def brute_force_orders(g):
    return [next(k for k in range(1, g.size + 1) if g.power(x, k) == 0) for x in range(g.size)]


P3 = ClassifyConfig.for_prime(3)
P5 = ClassifyConfig.for_prime(5)
ORDER_GROUPS = (
    [pytest.param(c.ext, id=c.label) for c in candidate_types(P3)]
    + [pytest.param(chain, id=label) for label, chain, _ in abelian_catalog(P3)]
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
