"""Finite groups as explicit multiplication tables.

Groups small enough for this project (order <= 7^4) are stored as full Cayley
tables over element indices 0..size-1, so every invariant is a brute-force
scan.  Values are immutable after construction and all queries are pure, so
they are safe to share across threads.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .residues import _greedy_generating_set, invariant_factors_from_orders, prime_factors


def least_prime_factor(n: int) -> int:
    for q in prime_factors(n):
        return q
    raise ValueError("no prime factor of 1")


class FiniteGroup:
    """A finite magma given by a total multiplication table; the group axioms
    are a property to be verified, not a constructor guarantee."""

    def __init__(
        self,
        table: Union[Sequence[int], array],
        size: int,
        identity_index: int = 0,
        labels: Optional[Sequence[str]] = None,
        payloads: Optional[Sequence[object]] = None,
        name: str = "G",
    ):
        if size < 1:
            raise ValueError("group size must be positive")
        flat = table if isinstance(table, array) else array("i", table)
        if len(flat) != size * size:
            raise ValueError(f"table must have {size * size} entries, got {len(flat)}")
        if min(flat) < 0 or max(flat) >= size:
            raise ValueError("table entries must be element indices in range")
        if not 0 <= identity_index < size:
            raise ValueError("identity index out of range")
        self.size = size
        self._table = flat
        self.identity_index = identity_index
        self.labels = list(labels) if labels is not None else None
        self.payloads = list(payloads) if payloads is not None else None
        self.name = name

    def __repr__(self) -> str:
        return f"FiniteGroup(name={self.name!r}, size={self.size})"

    def mul(self, i: int, j: int) -> int:
        return self._table[i * self.size + j]

    @cached_property
    def inverses(self) -> list[int]:
        e = self.identity_index
        n = self.size
        t = self._table
        out = [-1] * n
        for i in range(n):
            for j in range(n):
                if t[i * n + j] == e and t[j * n + i] == e:
                    out[i] = j
                    break
            else:
                raise ValueError(f"element {i} has no two-sided inverse")
        return out

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def power(self, i: int, k: int) -> int:
        if k < 0:
            i, k = self.inv(i), -k
        result = self.identity_index
        base = i
        while k:
            if k & 1:
                result = self.mul(result, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return result

    @cached_property
    def element_orders(self) -> list[int]:
        e = self.identity_index
        n = self.size
        t = self._table
        out = [0] * n
        for i in range(n):
            k = 1
            x = i
            while x != e:
                x = t[x * n + i]
                k += 1
                if k > n:
                    raise ValueError(f"element {i} generates no cyclic subgroup")
            out[i] = k
        return out

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.element_orders)

    def closure(self, seeds: Iterable[int]) -> list[int]:
        """Sorted element list of the subgroup generated by the seeds."""
        n = self.size
        t = self._table
        seen = {self.identity_index}
        gens = sorted(set(seeds))
        queue = [self.identity_index]
        while queue:
            x = queue.pop()
            for s in gens:
                y = t[x * n + s]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return sorted(seen)

    @cached_property
    def generating_sequence(self) -> tuple[int, ...]:
        """Greedy generating sequence (highest order first), pruned so that no
        member is redundant; irredundant sets in p-groups have minimal size."""
        return _small_generating_subset(self, range(self.size))

    @cached_property
    def is_abelian(self) -> bool:
        gens = self.generating_sequence
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    @cached_property
    def conjugacy(self) -> tuple[list[int], list[int], list[int]]:
        """(class id per element, class size per element, least-index reps)."""
        n = self.size
        t = self._table
        inv = self.inverses
        class_id = [-1] * n
        sizes = [0] * n
        reps: list[int] = []
        for i in range(n):
            if class_id[i] >= 0:
                continue
            cid = len(reps)
            orbit = {t[t[c * n + i] * n + inv[c]] for c in range(n)}
            reps.append(min(orbit))
            for x in orbit:
                class_id[x] = cid
            for x in orbit:
                sizes[x] = len(orbit)
        return class_id, sizes, reps

    @cached_property
    def element_keys(self) -> list[tuple[int, int, int]]:
        """Cheap per-element isomorphism invariants used to pair up candidate
        generator images: (order, conjugacy class size, order of p-th power)."""
        p = least_prime_factor(self.size) if self.size > 1 else 1
        orders = self.element_orders
        _, sizes, _ = self.conjugacy
        return [(orders[i], sizes[i], orders[self.power(i, p)]) for i in range(self.size)]

    @cached_property
    def elements_by_key(self) -> dict[tuple[int, int, int], tuple[int, ...]]:
        out: dict[tuple[int, int, int], list[int]] = {}
        for i, key in enumerate(self.element_keys):
            out.setdefault(key, []).append(i)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def class_reps_by_key(self) -> dict[tuple[int, int, int], tuple[int, ...]]:
        _, _, reps = self.conjugacy
        out: dict[tuple[int, int, int], list[int]] = {}
        for r in sorted(reps):
            out.setdefault(self.element_keys[r], []).append(r)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def fingerprint_value(self) -> "Fingerprint":
        return _compute_fingerprint(self)

    def cayley_rows(self) -> Iterable[tuple[int, ...]]:
        n = self.size
        t = self._table
        for i in range(n):
            yield tuple(t[i * n : (i + 1) * n])

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "identity": self.identity_index,
            "table": [list(row) for row in self.cayley_rows()],
        }


def cyclic_group(n: int) -> FiniteGroup:
    table = [(i + j) % n for i in range(n) for j in range(n)]
    return FiniteGroup(table, n, labels=[str(i) for i in range(n)], name=f"C{n}")


def abelian_group(moduli: Sequence[int], name: str = "") -> FiniteGroup:
    """Direct product of cyclic groups of the given orders."""
    moduli = list(moduli)
    size = math.prod(moduli)
    coords = []
    for r in range(size):
        c = []
        for m in reversed(moduli):
            c.append(r % m)
            r //= m
        coords.append(tuple(reversed(c)))
    index = {c: i for i, c in enumerate(coords)}
    table = [
        index[tuple((a + b) % m for a, b, m in zip(ca, cb, moduli))]
        for ca in coords
        for cb in coords
    ]
    labels = ["(" + ",".join(map(str, c)) + ")" for c in coords]
    return FiniteGroup(table, size, labels=labels, payloads=coords,
                       name=name or "x".join(f"C{m}" for m in moduli))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a parent group: sorted element indices plus the seeds that
    generated it."""

    parent: FiniteGroup
    elements: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, i: int) -> bool:
        return i in self.element_set

    def is_abelian(self) -> bool:
        mul = self.parent.mul
        els = self.elements
        return all(mul(a, b) == mul(b, a) for a in els for b in els)

    def invariant_factors(self) -> tuple[int, ...]:
        return abelian_invariants(self)


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    failure: Optional[tuple] = None  # ("associativity", (i, j, k)) | ("identity", i) | ("inverse", i)


def verify_group_axioms(
    g: FiniteGroup,
    associativity_samples: Optional[int] = None,
    seed: int = 0,
) -> AxiomReport:
    """Check identity, inverses, and associativity; report the first failure.

    Associativity is exhaustive over all triples when ``associativity_samples``
    is None, otherwise that many seeded random triples are checked (identity
    and inverses are always checked in full).
    """
    n = g.size
    t = g._table
    e = g.identity_index
    for i in range(n):
        if t[e * n + i] != i or t[i * n + e] != i:
            return AxiomReport(False, ("identity", i))
    for i in range(n):
        if not any(t[i * n + j] == e and t[j * n + i] == e for j in range(n)):
            return AxiomReport(False, ("inverse", i))
    if associativity_samples is None:
        for i in range(n):
            row_i = i * n
            for j in range(n):
                ij = t[row_i + j] * n
                row_j = j * n
                for k in range(n):
                    if t[ij + k] != t[row_i + t[row_j + k]]:
                        return AxiomReport(False, ("associativity", (i, j, k)))
    else:
        rng = random.Random(seed)
        for _ in range(associativity_samples):
            i = rng.randrange(n)
            j = rng.randrange(n)
            k = rng.randrange(n)
            if t[t[i * n + j] * n + k] != t[i * n + t[j * n + k]]:
                return AxiomReport(False, ("associativity", (i, j, k)))
    return AxiomReport(True, None)


def element_order(g: FiniteGroup, i: int) -> int:
    if not 0 <= i < g.size:
        raise ValueError("element index out of range")
    return g.element_orders[i]


def order_census(g: FiniteGroup) -> dict[int, int]:
    census: dict[int, int] = {}
    for o in g.element_orders:
        census[o] = census.get(o, 0) + 1
    return dict(sorted(census.items()))


def subgroup_generated(g: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    seeds = tuple(sorted(set(seeds)))
    for s in seeds:
        if not 0 <= s < g.size:
            raise ValueError("seed index out of range")
    return Subgroup(g, tuple(g.closure(seeds)), seeds)


def center(g: FiniteGroup) -> Subgroup:
    gens = g.generating_sequence
    mul = g.mul
    central = tuple(
        z for z in range(g.size) if all(mul(z, s) == mul(s, z) for s in gens)
    )
    small = _small_generating_subset(g, central)
    return Subgroup(g, central, small)


def _small_generating_subset(g: FiniteGroup, elements: Sequence[int]) -> tuple[int, ...]:
    """Greedy+pruned generating subset of a known subgroup's element list."""
    orders = g.element_orders
    preference = sorted(elements, key=lambda i: (-orders[i], i))
    return tuple(
        _greedy_generating_set(preference, len(elements), lambda gens: set(g.closure(gens)))
    )


def derived_subgroup(g: FiniteGroup) -> Subgroup:
    """Commutator subgroup: close the generator-vs-everything commutators,
    then take the normal closure."""
    n = g.size
    t = g._table
    inv = g.inverses
    gens = g.generating_sequence
    comms = set()
    for s in gens:
        s_inv = inv[s]
        for h in range(n):
            comms.add(t[t[t[s * n + h] * n + inv[s]] * n + inv[h]])
            comms.add(t[t[t[h * n + s] * n + inv[h]] * n + s_inv])
    current = set(g.closure(comms))
    while True:
        extra = set()
        for c in range(n):
            ci = inv[c]
            for h in current:
                y = t[t[c * n + h] * n + ci]
                if y not in current:
                    extra.add(y)
        if not extra:
            break
        current = set(g.closure(current | extra))
    elements = tuple(sorted(current))
    return Subgroup(g, elements, _small_generating_subset(g, elements))


def abelian_invariants(s: Union[Subgroup, FiniteGroup]) -> tuple[int, ...]:
    """Invariant factor chain d1 | d2 | ... of an abelian (sub)group."""
    if isinstance(s, FiniteGroup):
        if not s.is_abelian:
            raise ValueError("group is not abelian")
        return invariant_factors_from_orders(s.element_orders)
    if not s.is_abelian():
        raise ValueError("subgroup is not abelian")
    orders = s.parent.element_orders
    return invariant_factors_from_orders([orders[i] for i in s.elements])


def quotient(g: FiniteGroup, n_sub: Subgroup) -> FiniteGroup:
    """Quotient by a normal subgroup; cosets are labelled by their least
    element and ordered by it."""
    if n_sub.parent is not g:
        raise ValueError("subgroup belongs to a different group")
    n = g.size
    t = g._table
    inv = g.inverses
    sub = n_sub.element_set
    if g.identity_index not in sub:
        raise ValueError("subgroup must contain the identity")
    for a in n_sub.elements:
        for b in n_sub.elements:
            if t[a * n + b] not in sub:
                raise ValueError("element set is not closed under multiplication")
    for c in range(n):
        ci = inv[c]
        for h in n_sub.elements:
            if t[t[c * n + h] * n + ci] not in sub:
                raise ValueError("subgroup is not normal in the group")
    coset_id = [-1] * n
    reps: list[int] = []
    for i in range(n):
        if coset_id[i] >= 0:
            continue
        cid = len(reps)
        reps.append(i)
        for h in n_sub.elements:
            coset_id[t[i * n + h]] = cid
    q = len(reps)
    table = [coset_id[t[reps[a] * n + reps[b]]] for a in range(q) for b in range(q)]
    labels = None
    if g.labels is not None:
        labels = [g.labels[r] + "*" for r in reps]
    return FiniteGroup(
        table,
        q,
        identity_index=coset_id[g.identity_index],
        labels=labels,
        name=f"{g.name}/H",
    )


@dataclass(frozen=True)
class Fingerprint:
    """Bundle of isomorphism invariants; equality is necessary (never claimed
    sufficient) for isomorphism, so it serves as a prefilter only."""

    group_order: int
    center_invariants: tuple[int, ...]
    census_le_p: int
    derived_order: int
    abelianization_invariants: tuple[int, ...]
    exponent: int
    power_quotient_abelian: bool
    low_order_commute: bool

    def to_json_dict(self) -> dict:
        return {
            "group_order": self.group_order,
            "center_invariants": list(self.center_invariants),
            "census_le_p": self.census_le_p,
            "derived_order": self.derived_order,
            "abelianization_invariants": list(self.abelianization_invariants),
            "exponent": self.exponent,
            "power_quotient_abelian": self.power_quotient_abelian,
            "low_order_commute": self.low_order_commute,
        }


def _compute_fingerprint(g: FiniteGroup) -> Fingerprint:
    n = g.size
    if n == 1:
        return Fingerprint(1, (), 1, 1, (), 1, True, True)
    p = least_prime_factor(n)
    e = g.identity_index
    small = [i for i in range(n) if g.power(i, p) == e]
    census_le_p = len(small)

    mul = g.mul
    low_order_commute = all(
        mul(a, b) == mul(b, a) for idx, a in enumerate(small) for b in small[idx + 1 :]
    )

    derived = derived_subgroup(g)
    abelianization = abelian_invariants(quotient(g, derived))

    powers = sorted({g.power(i, p) for i in range(n)})
    power_sub = subgroup_generated(g, powers)
    power_quotient_abelian = quotient(g, power_sub).is_abelian

    return Fingerprint(
        group_order=n,
        center_invariants=abelian_invariants(center(g)),
        census_le_p=census_le_p,
        derived_order=derived.order,
        abelianization_invariants=abelianization,
        exponent=g.exponent,
        power_quotient_abelian=power_quotient_abelian,
        low_order_commute=low_order_commute,
    )


def fingerprint(g: FiniteGroup) -> Fingerprint:
    return g.fingerprint_value


def isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> tuple[bool, Optional[list[int]]]:
    """Decide isomorphism; on success also return a witness mapping.

    The search picks a pruned greedy generating sequence of g1 and backtracks
    over image tuples in g2.  Candidate images must match cheap per-element
    invariants and the commuting pattern with earlier generators; the partial
    map is closed incrementally with consistency checks on every product, so
    contradictions abort a branch early.  A fingerprint mismatch certifies
    non-isomorphism without searching.  The witness, when returned, has been
    re-verified as a bijective homomorphism.  Practical for orders <= 5^4.
    """
    if g1.size != g2.size:
        return False, None
    n = g1.size
    if g1 is g2:
        return True, list(range(n))
    if n == 1:
        return True, [g2.identity_index]
    if g1.fingerprint_value != g2.fingerprint_value:
        return False, None

    gens = list(g1.generating_sequence)
    k = len(gens)
    t1 = list(g1._table)
    t2 = list(g2._table)
    key1 = g1.element_keys
    buckets = g2.elements_by_key
    reps_by_key = g2.class_reps_by_key

    # Commuting pattern of each generator with its predecessors.
    patterns = [
        [t1[gens[d] * n + gens[j]] == t1[gens[j] * n + gens[d]] for j in range(d)]
        for d in range(k)
    ]

    def close(img: list[int], used: bytearray, known: list[int],
              assigned: list[int], start: int) -> bool:
        # New generator sits at known[start]; check its edges against the old
        # elements, then propagate products of every new element with every
        # assigned generator.
        s = known[start]
        for idx in range(start):
            x = known[idx]
            y = t1[x * n + s]
            w = t2[img[x] * n + img[s]]
            cur = img[y]
            if cur < 0:
                if used[w]:
                    return False
                img[y] = w
                used[w] = 1
                known.append(y)
            elif cur != w:
                return False
        ptr = start
        while ptr < len(known):
            y = known[ptr]
            ptr += 1
            iy = img[y]
            for sj in assigned:
                z = t1[y * n + sj]
                w = t2[iy * n + img[sj]]
                cur = img[z]
                if cur < 0:
                    if used[w]:
                        return False
                    img[z] = w
                    used[w] = 1
                    known.append(z)
                elif cur != w:
                    return False
        return True

    def search(depth: int, img: list[int], used: bytearray,
               known: list[int], images: list[int]) -> Optional[list[int]]:
        if depth == k:
            if len(known) != n:
                raise AssertionError("generating sequence failed to generate")
            for i in range(n):
                ii = img[i] * n
                for j in range(n):
                    if img[t1[i * n + j]] != t2[ii + img[j]]:
                        raise AssertionError("witness failed full homomorphism check")
            return img
        s = gens[depth]
        pool = reps_by_key if depth == 0 else buckets
        pattern = patterns[depth]
        for cand in pool.get(key1[s], ()):
            if used[cand]:
                continue
            ok = True
            for j, want in enumerate(pattern):
                tj = images[j]
                if (t2[cand * n + tj] == t2[tj * n + cand]) != want:
                    ok = False
                    break
            if not ok:
                continue
            img2 = img.copy()
            used2 = bytearray(used)
            known2 = known.copy()
            start = len(known2)
            img2[s] = cand
            used2[cand] = 1
            known2.append(s)
            if close(img2, used2, known2, gens[: depth + 1], start):
                result = search(depth + 1, img2, used2, known2, images + [cand])
                if result is not None:
                    return result
        return None

    img0 = [-1] * n
    used0 = bytearray(n)
    known0 = [g1.identity_index]
    img0[g1.identity_index] = g2.identity_index
    used0[g2.identity_index] = 1
    witness = search(0, img0, used0, known0, [])
    if witness is None:
        return False, None
    return True, witness
