"""Finite groups as explicit multiplication tables.

Groups small enough for this project (order <= 7^4) are stored as full Cayley
tables over element indices 0..size-1.  Tables are built by index arithmetic
and row gathers, not one Python step per entry, and the invariants that can
be read off generators are: commutativity, conjugacy classes (orbits under
conjugation by the generators), normality and the derived subgroup.  Values
are immutable after construction and all queries are pure, so they are safe
to share across threads.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import add, contains, itemgetter
from typing import Iterable, Optional, Sequence, Union


def _gather(seq: Sequence[int], idx: Sequence[int]) -> tuple[int, ...]:
    """``tuple(seq[i] for i in idx)``, gathered in one C-level call."""
    if len(idx) < 2:
        return tuple(seq[i] for i in idx)
    return itemgetter(*idx)(seq)


def _inverse_of(t: array, n: int, e: int, i: int) -> int:
    """Least j with i*j = j*i = e in the flat table t, or -1 if there is none."""
    start = row = i * n
    while True:
        try:
            start = t.index(e, start, row + n)
        except ValueError:
            return -1
        j = start - row
        if t[j * n + i] == e:
            return j
        start += 1


def _pairwise_commute(g: "FiniteGroup", elements: Sequence[int]) -> bool:
    mul = g.mul
    return all(mul(a, b) == mul(b, a) for a in elements for b in elements)


def prime_factors(n: int) -> dict[int, int]:
    """Factor n > 0 by trial division; returns {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def least_prime_factor(n: int) -> int:
    for q in prime_factors(n):
        return q
    raise ValueError("no prime factor of 1")


class FiniteGroup:
    """A finite magma given by a total multiplication table; the group axioms
    are a property to be verified, not a constructor guarantee.  Element 0 is
    the identity."""

    identity_index = 0

    def __init__(self, table: Union[Sequence[int], array], size: int):
        if size < 1:
            raise ValueError("group size must be positive")
        flat = table if isinstance(table, array) else array("i", table)
        if len(flat) != size * size:
            raise ValueError(f"table must have {size * size} entries, got {len(flat)}")
        if min(flat) < 0 or max(flat) >= size:
            raise ValueError("table entries must be element indices in range")
        self.size = size
        self._table = flat

    def __repr__(self) -> str:
        return f"FiniteGroup(size={self.size})"

    def mul(self, i: int, j: int) -> int:
        return self._table[i * self.size + j]

    @cached_property
    def inverses(self) -> list[int]:
        e = self.identity_index
        n = self.size
        t = self._table
        out = [_inverse_of(t, n, e, i) for i in range(n)]
        if -1 in out:
            raise ValueError(f"element {out.index(-1)} has no two-sided inverse")
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
        return _pairwise_commute(self, self.generating_sequence)

    @cached_property
    def conjugacy(self) -> tuple[list[int], list[int], list[int]]:
        """(class id per element, class size per element, least-index reps).

        Classes are the orbits under conjugation by the generators, which
        generate the whole group of inner automorphisms."""
        n = self.size
        t = self._table
        inv = self.inverses
        # conj[s][x] = s x s^-1: left multiplication by s (row s), then right
        # multiplication by s^-1 (column inv[s]).
        conj = [_gather(t[inv[s]::n], t[s * n : (s + 1) * n]) for s in self.generating_sequence]
        class_id = [-1] * n
        sizes = [0] * n
        reps: list[int] = []
        for i in range(n):
            if class_id[i] >= 0:
                continue
            cid = len(reps)
            class_id[i] = cid
            orbit = [i]
            for x in orbit:
                for perm in conj:
                    y = perm[x]
                    if class_id[y] < 0:
                        class_id[y] = cid
                        orbit.append(y)
            reps.append(min(orbit))
            for x in orbit:
                sizes[x] = len(orbit)
        return class_id, sizes, reps

    @cached_property
    def element_keys(self) -> list[tuple[int, int, int]]:
        """Cheap per-element isomorphism invariants used to pair up candidate
        generator images: (order, conjugacy class size, order of p-th power)."""
        p = least_prime_factor(self.size) if self.size > 1 else 1
        _, sizes, _ = self.conjugacy
        # x^p has order o / gcd(o, p) when x has order o.
        return [(o, s, o // math.gcd(o, p)) for o, s in zip(self.element_orders, sizes)]

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

    @cached_property
    def twist_count(self) -> int:
        """The word-count invariant T(G) of ``_twist_count``."""
        return _twist_count(self)

    def cayley_rows(self) -> Iterable[tuple[int, ...]]:
        n = self.size
        t = self._table
        for i in range(n):
            yield tuple(t[i * n : (i + 1) * n])


def _direct_sum_table(moduli: Sequence[int]) -> array:
    """Flat Cayley table of C_m1 x ... x C_mk on mixed-radix indices (the
    last coordinate fastest), built one cyclic factor at a time.

    In C_m x H with h = |H|, element (a, x) has index a*h + x.  The row of
    (0, x) is the H row of x repeated m times, block c shifted by c*h; the
    row of (a, x) is that row rotated left by a blocks.
    """
    table = array("i", [0])
    h = 1
    for m in reversed(moduli):
        size = m * h
        out = array("i", bytes(4 * size * size))
        for x in range(h):
            hrow = table[x * h : (x + 1) * h]
            row0 = array("i", [c + y for c in range(0, size, h) for y in hrow])
            row0 += row0
            for a in range(m):
                r = (a * h + x) * size
                out[r : r + size] = row0[a * h : a * h + size]
        table, h = out, size
    return table


def cyclic_group(n: int) -> FiniteGroup:
    return abelian_group([n])


def abelian_group(moduli: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders.

    Element (c1, ..., ck) has the mixed-radix index of its coordinates, the
    last coordinate fastest (``itertools.product`` order)."""
    return FiniteGroup(_direct_sum_table(moduli), math.prod(moduli))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a parent group: sorted element indices plus the seeds that
    generated it.  The constructor checks that the elements are exactly the
    closure of the generators, so invariants may be read off the generators."""

    parent: FiniteGroup
    elements: tuple[int, ...]
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(self.parent.closure(self.generators)) != self.elements:
            raise ValueError("subgroup elements must be the closure of its generators")

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, i: int) -> bool:
        return i in self.element_set

    def is_abelian(self) -> bool:
        return _pairwise_commute(self.parent, self.generators)

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
        if _inverse_of(t, n, e, i) < 0:
            return AxiomReport(False, ("inverse", i))
    if associativity_samples is None:
        # (i*j)*k = i*(j*k) for all k: the row of i*j equals row i composed
        # with row j.
        for i in range(n):
            row_i = t[i * n : (i + 1) * n]
            for j in range(n):
                ij = row_i[j] * n
                lhs = tuple(t[ij : ij + n])
                rhs = _gather(row_i, t[j * n : (j + 1) * n])
                if lhs != rhs:
                    k = next(k for k in range(n) if lhs[k] != rhs[k])
                    return AxiomReport(False, ("associativity", (i, j, k)))
    else:
        rng = random.Random(seed)
        triples = n ** 3
        for _ in range(associativity_samples):
            # One draw, uniform over all n^3 triples.
            ij, k = divmod(rng.randrange(triples), n)
            i, j = divmod(ij, n)
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
    """Greedy generating subset of a known subgroup's element list, pruned so
    that no member is redundant.

    Each step adds the highest-order element (least index among equals) not
    yet in the closure.  Dropping a member never makes an earlier one
    redundant, so one pass of pruning suffices.  Irredundant generating sets
    of a finite p-group all have the minimal size.
    """
    target = len(elements)
    if target <= 1:
        return ()
    orders = g.element_orders
    preference = sorted(elements, key=lambda i: (-orders[i], i))
    gens: list[int] = []
    span = {g.identity_index}
    while len(span) < target:
        gens.append(next(x for x in preference if x not in span))
        span = set(g.closure(gens))
    i = 0
    while i < len(gens):
        rest = gens[:i] + gens[i + 1 :]
        if len(g.closure(rest)) == target:
            gens = rest
        else:
            i += 1
    return tuple(gens)


def _conjugates(g: FiniteGroup, xs: Iterable[int]) -> set[int]:
    """s x s^-1 for every generator s of g and every x in xs."""
    n = g.size
    t = g._table
    inv = g.inverses
    return {t[t[s * n + x] * n + inv[s]] for s in g.generating_sequence for x in xs}


def derived_subgroup(g: FiniteGroup) -> Subgroup:
    """Commutator subgroup: the normal closure of the commutators of the
    generators, taken by adding generator conjugates until none is new."""
    mul = g.mul
    inv = g.inverses
    gens = g.generating_sequence
    seeds = {mul(mul(a, b), mul(inv[a], inv[b])) for a in gens for b in gens}
    current = set(g.closure(seeds))
    while True:
        extra = _conjugates(g, seeds) - current
        if not extra:
            break
        seeds |= extra
        current = set(g.closure(seeds))
    elements = tuple(sorted(current))
    return Subgroup(g, elements, _small_generating_subset(g, elements))


def invariant_factors_from_orders(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from its element orders.

    The count of elements of order dividing q^m determines, prime by prime,
    the partition of exponents; the divisor chain is read off from there.
    """
    n = len(orders)
    if n == 0:
        raise ValueError("empty order multiset")
    if n == 1:
        return ()
    parts_by_prime: dict[int, list[int]] = {}
    for q in prime_factors(n):
        counts = [1]
        while True:
            qm = q ** len(counts)
            cnt = sum(1 for o in orders if qm % o == 0)
            if cnt == counts[-1]:
                break
            counts.append(cnt)
        exps = []
        for c in counts:
            e, x = 0, 1
            while x < c:
                x *= q
                e += 1
            if x != c:
                raise ValueError("order census is not consistent with an abelian group")
            exps.append(e)
        conj = [exps[i] - exps[i - 1] for i in range(1, len(exps))]
        width = conj[0] if conj else 0
        parts = [sum(1 for c in conj if c >= i) for i in range(1, width + 1)]
        if parts:
            parts_by_prime[q] = parts
    length = max((len(parts) for parts in parts_by_prime.values()), default=0)
    chain = []
    for j in range(length):
        d = 1
        for q, parts in parts_by_prime.items():
            if j < len(parts):
                d *= q ** parts[j]
        chain.append(d)
    return tuple(reversed(chain))


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
    """Quotient by a normal subgroup; cosets are numbered in the order of
    their least elements, so the identity coset is 0.  The quotient by the
    trivial subgroup is g itself."""
    if n_sub.parent is not g:
        raise ValueError("subgroup belongs to a different group")
    if n_sub.order == 1:
        return g
    # The subgroup is the closure of its generators (checked when it was
    # made), so it is normal iff the generators of g conjugate its
    # generators into it.
    if not _conjugates(g, n_sub.generators) <= n_sub.element_set:
        raise ValueError("subgroup is not normal in the group")
    n = g.size
    t = g._table
    coset_id = [-1] * n
    reps: list[int] = []
    for i in range(n):
        if coset_id[i] >= 0:
            continue
        cid = len(reps)
        reps.append(i)
        for x in _gather(t[i * n : (i + 1) * n], n_sub.elements):
            coset_id[x] = cid
    table = array("i")
    for r in reps:
        table.extend(_gather(coset_id, _gather(t[r * n : (r + 1) * n], reps)))
    return FiniteGroup(table, len(reps))


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
    orders = g.element_orders
    small = [i for i in range(n) if orders[i] in (1, p)]  # x^p = e
    census_le_p = len(small)

    # The elements of order <= p commute pairwise iff the subgroup they
    # generate is abelian, iff a generating set of it drawn from them
    # commutes pairwise.
    small_gens: list[int] = []
    span = {g.identity_index}
    for x in small:
        if x not in span:
            small_gens.append(x)
            span = set(g.closure(small_gens))
    low_order_commute = _pairwise_commute(g, small_gens)

    derived = derived_subgroup(g)
    abelianization = abelian_invariants(quotient(g, derived))

    # G/N is abelian iff N contains the derived subgroup.
    power_sub = subgroup_generated(g, {g.power(i, p) for i in range(n)})
    power_quotient_abelian = derived.element_set <= power_sub.element_set

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


def _twist_count(g: FiniteGroup) -> int:
    """T(G): the number of pairs (x, y) with c = [[x, y], y] != e and
    c = (x^p)^k for some k in 1..p-1 that is a square mod p, where p is the
    least prime factor of |G| and [a, b] = a b a^-1 b^-1.

    T counts the solutions of a fixed word equation, so it is an isomorphism
    invariant of every finite group: an isomorphism maps the solutions in one
    group one-to-one onto the solutions in the other.  It separates the two
    maximal-class groups of order p^4 whose relations differ only by a
    quadratic nonresidue, which no fingerprint field does for p >= 5.

    Three shortcuts skip only terms that are zero, so the count is exact:
    - class <= 2 (G' <= Z(G)): [[x, y], y] = e for every pair, so T = 0;
    - x with x^p = e: the only target is e, which c != e rules out;
    - y runs over the noncentral conjugacy-class representatives, each
      weighted by its class size: conjugating x and y together preserves the
      relation, and a central y gives c = e.
    """
    n = g.size
    if n == 1:
        return 0
    t = g._table
    e = g.identity_index
    mul = g.mul
    inv = g.inverses
    gens = g.generating_sequence
    # G' is the normal closure of the generator commutators; when these are
    # central it is the subgroup they generate, so G' <= Z(G).
    comms = {mul(mul(a, b), mul(inv[a], inv[b])) for a in gens for b in gens}
    if all(mul(c, s) == mul(s, c) for c in comms for s in gens):
        return 0
    p = least_prime_factor(n)
    squares = {k * k % p for k in range(1, p)}
    xs: list[int] = []
    targets: list[frozenset[int]] = []
    for x in range(n):
        xp = g.power(x, p)
        if xp != e:
            # No prime below p divides the order of x^p, so (x^p)^k != e for
            # 0 < k < p: e is never a target.
            xs.append(x)
            targets.append(frozenset(g.power(xp, k) for k in squares))
    _, sizes, reps = g.conjugacy
    row_starts = range(0, n * n, n)
    total = 0
    for y in reps:
        if sizes[y] == 1:
            continue
        # conj[z] = y z y^-1, so comm[z] = z conj[z^-1] = [z, y].
        conj = _gather(t[inv[y]::n], t[y * n : (y + 1) * n])
        comm = _gather(t, list(map(add, row_starts, _gather(conj, inv))))
        cs = _gather(comm, _gather(comm, xs))
        total += sizes[y] * sum(map(contains, targets, cs))
    return total


def isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> tuple[bool, Optional[list[int]]]:
    """Decide isomorphism; on success also return a witness mapping.

    A negative verdict has one of three certificates, tried in this order: a
    fingerprint field that differs, a twist count (``FiniteGroup.twist_count``)
    that differs, or an exhaustive search (``_search_isomorphism``) that finds
    no isomorphism.  The witness, when returned, has been re-verified as a
    bijective homomorphism.  Practical for orders <= 7^4.
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
    if g1.twist_count != g2.twist_count:
        return False, None
    witness = _search_isomorphism(g1, g2)
    return witness is not None, witness


def _search_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> Optional[list[int]]:
    """An isomorphism g1 -> g2 as an index map, or None when there is none.

    The search picks a pruned greedy generating sequence of g1 and backtracks
    over image tuples in g2.  Candidate images must match cheap per-element
    invariants and the commuting pattern with earlier generators; the partial
    map is closed incrementally with consistency checks on every product, so
    contradictions abort a branch early.  The found map is re-verified as a
    homomorphism before it is returned.  The tables are read in place, not
    copied.
    """
    n = g1.size
    gens = list(g1.generating_sequence)
    k = len(gens)
    t1 = g1._table
    t2 = g2._table
    key1 = g1.element_keys
    buckets = g2.elements_by_key
    reps_by_key = g2.class_reps_by_key

    # Commuting pattern of each generator with its predecessors.
    patterns = [
        [t1[gens[d] * n + gens[j]] == t1[gens[j] * n + gens[d]] for j in range(d)]
        for d in range(k)
    ]

    # Right multiplication by each generator of g1: column s of the table.
    right1 = [t1[s::n] for s in gens]

    def close(img: list[int], used: bytearray, known: list[int],
              right: list[tuple[array, array]], start: int) -> bool:
        # New generator sits at known[start]; right holds, per assigned
        # generator s, right multiplication by s in g1 and by img[s] in g2,
        # the new one last.  Check the new generator's edges against the old
        # elements, then propagate products of every new element with every
        # assigned generator.
        r1, r2 = right[-1]
        for idx in range(start):
            x = known[idx]
            y = r1[x]
            w = r2[img[x]]
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
            for r1, r2 in right:
                z = r1[y]
                w = r2[iy]
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

    def search(depth: int, img: list[int], used: bytearray, known: list[int],
               images: list[int], right: list[tuple[array, array]]) -> Optional[list[int]]:
        if depth == k:
            if len(known) != n:
                raise AssertionError("generating sequence failed to generate")
            # img(i*j) = img(i)*img(j) for every pair, one row i at a time.
            for i in range(n):
                ii = img[i] * n
                if _gather(img, t1[i * n : (i + 1) * n]) != _gather(t2[ii : ii + n], img):
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
            right2 = right + [(right1[depth], t2[cand::n])]
            if close(img2, used2, known2, right2, start):
                result = search(depth + 1, img2, used2, known2, images + [cand], right2)
                if result is not None:
                    return result
        return None

    img0 = [-1] * n
    used0 = bytearray(n)
    known0 = [g1.identity_index]
    img0[g1.identity_index] = g2.identity_index
    used0[g2.identity_index] = 1
    return search(0, img0, used0, known0, [], [])
