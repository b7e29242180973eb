"""Finite groups as explicit multiplication tables.

Groups small enough for this project (order <= 7^4) are stored as full Cayley
tables over element indices 0..size-1, in an ``array`` of two bytes per entry
(typecode "H") when the order is at most 2^15, which covers every p <= 13, and
of four bytes ("i") above that; ``_table_typecode`` is the one rule that every
table producer follows.  A row of a direct sum of cyclic groups, and a row of
a cyclic extension (see ``extension.build_group``), is a translate of one head
row inside each block of columns: ``_table_of_translates`` writes every
translate into the table by slice copies and range-checks only the heads.
The invariants that can be read off generators are: commutativity, conjugacy
classes (orbits under conjugation by the generators), normality and the
derived subgroup.  Values are immutable after construction and all queries
are pure, so they are safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product
from operator import add, eq, itemgetter, lt
from typing import Iterable, Optional, Sequence, Union


def _gather(seq: Sequence[int], idx: Sequence[int]) -> tuple[int, ...]:
    """``tuple(seq[i] for i in idx)``, gathered in one C-level call."""
    if len(idx) < 2:
        return tuple(seq[i] for i in idx)
    return itemgetter(*idx)(seq)


# The range check reads a table this many entries at a time, so it never
# holds more than a few chunk-sized integers: 2^16 measured about 2 MB more
# peak RSS on a p = 5 classify than 2^14, and no faster.
_RANGE_CHUNK = 1 << 14

_OUT_OF_RANGE = "table entries must be element indices in range"


def _table_typecode(size: int) -> str:
    """The array typecode of a table on size elements: "H" (two bytes) up to
    2^15 elements, the widest that ``_entries_below`` checks in 16-bit
    lanes, and "i" (four bytes) above."""
    return "H" if size <= 1 << 15 else "i"


def _repeat_word(word: int, width: int, count: int) -> int:
    """The integer whose native-order bytes are count copies of the word of
    width bytes."""
    return int.from_bytes(word.to_bytes(width, sys.byteorder) * count, sys.byteorder)


def _entries_below(flat: array, bound: int) -> bool:
    """Whether every entry of the array flat, read as an unsigned word of
    L = 8 * flat.itemsize bits, is below bound (1 <= bound <= 2^(L-1)).

    The bytes of each chunk, read as one integer in native byte order, hold
    the entries as L-bit lanes, so each test is a few big-integer
    operations in C.  Let top = bound - 1 and w = top.bit_length().  An
    entry with a bit at or above w set is out of range.  Any other entry is
    below 2^w, and it exceeds top exactly when adding 2^w - 1 - top to it
    sets bit w; that sum stays below 2^(w+1), and bound <= 2^(L-1) makes
    w <= L - 1, so no lane carries into the next.  That is the lane-width
    rule: "i" arrays take bounds up to 2^31, "H" arrays up to 2^15 (with
    16-bit lanes and bound 40000, an entry above 39999 plus its lift would
    carry into the next lane).
    """
    itemsize = flat.itemsize
    lane = 8 * itemsize
    if not 1 <= bound <= 1 << (lane - 1):
        raise ValueError(f"bound must lie in 1..2^{lane - 1}")
    top = bound - 1
    width = top.bit_length()
    lift = (1 << width) - 1 - top
    masks: dict[int, tuple[int, int, int]] = {}
    with memoryview(flat) as view:
        for lo in range(0, len(flat), _RANGE_CHUNK):
            chunk = view[lo : lo + _RANGE_CHUNK].tobytes()
            count = len(chunk) // itemsize
            if count not in masks:
                masks[count] = (
                    _repeat_word(((1 << lane) - 1) ^ ((1 << width) - 1), itemsize, count),
                    _repeat_word(lift, itemsize, count),
                    _repeat_word(1 << width, itemsize, count),
                )
            high, lifts, carries = masks[count]
            x = int.from_bytes(chunk, sys.byteorder)
            if x & high or lift and (x + lifts) & carries:
                return False
    return True


def _inverse_of(t: array, n: int, e: int, i: int) -> int:
    """Least j with i*j = j*i = e in the flat table t, or -1 if there is none.

    Row i is searched as bytes for e's bytes; only a hit that starts an entry
    is a column, so the search resumes at the start of the next entry."""
    row = t[i * n : (i + 1) * n].tobytes()
    needle = array(t.typecode, [e]).tobytes()
    pos = row.find(needle)
    while pos >= 0:
        j, offset = divmod(pos, t.itemsize)
        if not offset and t[j * n + i] == e:
            return j
        pos = row.find(needle, (j + 1) * t.itemsize)
    return -1


def _inverses_of(g: "FiniteGroup", xs: Iterable[int]) -> list[int]:
    """A two-sided inverse of each x in xs: x^(n-1) in a group of order n,
    made for every x at once by left-to-right square-and-multiply, one
    gather of the table at computed indices per step, and checked exactly
    by two more gathers, x*y = y*x = e.  A table that fails the check is
    not a group; every x then takes ``FiniteGroup.inv``, the least two-sided
    inverse, which names the first x without one."""
    e = g.identity_index
    n = g.size
    t = g._table
    xs = list(xs)
    y = xs  # x^1; x^0 = e = x when n = 1
    for bit in bin(n - 1)[3:]:
        y = _gather(t, list(map((n + 1).__mul__, y)))  # y*y
        if bit == "1":
            y = _gather(t, list(map(add, map(n.__mul__, y), xs)))  # y*x
    if (
        _gather(t, list(map(add, map(n.__mul__, xs), y))).count(e) == len(xs)
        and _gather(t, list(map(add, map(n.__mul__, y), xs))).count(e) == len(xs)
    ):
        return list(y)
    return list(map(g.inv, xs))


def _pairwise_commute(g: "FiniteGroup", elements: Sequence[int]) -> bool:
    mul = g.mul
    return all(mul(a, b) == mul(b, a) for a in elements for b in elements)


def _generator_commutators(g: "FiniteGroup") -> set[int]:
    """[a, b] = a b a^-1 b^-1 for every pair of generators a, b of g."""
    mul = g.mul
    gens = g.generating_sequence
    inv = dict(zip(gens, _inverses_of(g, gens)))
    return {mul(mul(a, b), mul(inv[a], inv[b])) for a in gens for b in gens}


def _coset_orders(g: "FiniteGroup", members: Iterable[int]) -> list[int]:
    """For every x of g, the least k >= 1 with x^k in N, the set of the
    given members: the order of x when N = {e}, and the order of the coset
    xN in G/N when N is a normal subgroup.

    When |G| = p^m and N is a subgroup, that k is p^j for the least j with
    x^(p^j) in N, and x^(p^(j+1)) = (x^(p^j))^p stays in N: one gather of
    ``pth_powers`` through the membership mask per j, at most m + 1, until
    every power is in N.  That step assumes power-associativity, which every
    table of ``build_group`` and ``abelian_group`` has.  Other orders, and
    any table in which some x^(p^m) is not in N, take the walk x, x^2, ...
    of one product per step, which raises ValueError for an element whose
    powers never enter N.
    """
    n = g.size
    outside = bytearray(b"\x01") * n
    for y in members:
        outside[y] = 0
    factors = prime_factors(n)
    if len(factors) == 1:
        ((p, m),) = factors.items()
        pth = g.pth_powers
        powers = range(n)  # x^(p^j)
        depth = [0] * n  # number of j so far with x^(p^j) outside N
        for _ in range(m + 1):
            flags = _gather(outside, powers)
            if not any(flags):
                return list(_gather([p**j for j in range(m + 1)], depth))
            depth = list(map(add, depth, flags))
            powers = _gather(pth, powers)
    t = g._table
    out = [0] * n
    for i in range(n):
        k = 1
        x = i
        while outside[x]:
            x = t[x * n + i]
            k += 1
            if k > n:
                raise ValueError(f"element {i} generates no cyclic subgroup")
        out[i] = k
    return out


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
        # The table is stored with the typecode of _table_typecode: two bytes
        # per entry up to 2^15 elements, four above.  A table of another
        # typecode is converted; an entry that does not fit the typecode
        # (a negative one in "H") raises OverflowError there.
        code = _table_typecode(size)
        try:
            flat = table if isinstance(table, array) and table.typecode == code else array(code, table)
        except OverflowError:
            raise ValueError(_OUT_OF_RANGE) from None
        if len(flat) != size * size:
            raise ValueError(f"table must have {size * size} entries, got {len(flat)}")
        # The entries are read as unsigned, so a negative "i" entry reads as
        # at least 2^31 and fails the same bound as an entry >= size.  The
        # check compares the 16- or 32-bit lanes of one big integer per chunk
        # of 2^14 entries against size - 1 (see _entries_below), in C.  Only
        # _table_of_translates skips it: it checks its head rows instead.
        if not _entries_below(flat, size):
            raise ValueError(_OUT_OF_RANGE)
        self.size = size
        self._table = flat

    def __repr__(self) -> str:
        return f"FiniteGroup(size={self.size})"

    def mul(self, i: int, j: int) -> int:
        return self._table[i * self.size + j]

    @cached_property
    def inverses(self) -> list[int]:
        """``_inverses_of`` every element, for ``verify_group_axioms``; other
        callers ask ``_inverses_of`` for the few inverses they read."""
        return _inverses_of(self, range(self.size))

    def inv(self, i: int) -> int:
        """The least two-sided inverse of i, the only one in a group, by the
        byte search ``_inverse_of``; ValueError when i has none."""
        if (j := _inverse_of(self._table, self.size, self.identity_index, i)) < 0:
            raise ValueError(f"element {i} has no two-sided inverse")
        return j

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
    def pth_powers(self) -> list[int]:
        """x^p for every element x, p the least prime factor of the order:
        p - 1 gathers of x * x^k from row x."""
        n = self.size
        t = self._table
        row_starts = range(0, n * n, n)
        out = list(range(n))
        for _ in range(least_prime_factor(n) - 1 if n > 1 else 0):
            out = list(_gather(t, list(map(add, row_starts, out))))
        return out

    @cached_property
    def element_orders(self) -> list[int]:
        """The order of every element: ``_coset_orders`` modulo {e}."""
        return _coset_orders(self, (self.identity_index,))

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
        gens = self.generating_sequence
        conj = [_gather(t[si::n], t[s * n : (s + 1) * n])  # x -> s x s^-1: row s, column s^-1
                for s, si in zip(gens, _inverses_of(self, gens))]
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
    def derived_elements(self) -> frozenset[int]:
        """The commutator subgroup G', computed once for ``derived_subgroup``
        and the element keys: the normal closure of the commutators of the
        generators, taken by adding generator conjugates until none is new."""
        seeds = _generator_commutators(self)
        current = set(self.closure(seeds))
        while extra := _conjugates(self, seeds) - current:
            seeds |= extra
            current = set(self.closure(seeds))
        return frozenset(current)

    @cached_property
    def element_keys(self) -> list[tuple[int, int, int, bool]]:
        """Cheap per-element isomorphism invariants used to pair up candidate
        generator images: (order, conjugacy class size, order of x^p, whether
        x^p lies in G'), p the least prime factor of |G|.

        An isomorphism f preserves orders and class sizes, maps x^p to f(x)^p,
        and maps G' onto G' (G' is characteristic), so every field of x equals
        the same field of f(x)."""
        p = least_prime_factor(self.size) if self.size > 1 else 1
        _, sizes, _ = self.conjugacy
        derived = self.derived_elements
        # x^p has order o / gcd(o, p) when x has order o.
        return [
            (o, s, o // math.gcd(o, p), xp in derived)
            for o, s, xp in zip(self.element_orders, sizes, self.pth_powers)
        ]

    @cached_property
    def elements_by_key(self) -> dict[tuple[int, int, int, bool], tuple[int, ...]]:
        out: dict[tuple[int, int, int, bool], list[int]] = {}
        for i, key in enumerate(self.element_keys):
            out.setdefault(key, []).append(i)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def class_reps_by_key(self) -> dict[tuple[int, int, int, bool], tuple[int, ...]]:
        _, _, reps = self.conjugacy
        out: dict[tuple[int, int, int, bool], list[int]] = {}
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


def _table_of_translates(size: int, moduli: Sequence[int], cosets: Iterable) -> FiniteGroup:
    """The group on size elements whose rows are translates of head rows.

    For each (head array, row places) of cosets and every x of C_m1 x ... x
    C_mk in rank order, the next row place gets head read through y -> y + x
    in every block of K = m1*...*mk entries.  The later coordinates, widest
    chunks first, are translated by ``_rotated`` on a copy of head with each
    block doubled; a shift by t*s in the first coordinate, of stride s, is
    then the slice [t*s, t*s + K) of every doubled block, copied straight
    into the table.  Every entry written is a head entry and the rest stay
    0, so checking the heads against size checks the whole table exactly.
    """
    code = _table_typecode(size)
    table = array(code, [0]) * (size * size)
    first, *rest = moduli or (1,)
    kernel = math.prod(moduli)
    with memoryview(table) as out:
        for head, places in cosets:
            if not _entries_below(head, size):
                raise ValueError(_OUT_OF_RANGE)
            rows = [array(code)]
            for lo in range(0, size, kernel):
                rows[0] += head[lo : lo + kernel] * 2
            stride = kernel // first
            for m in rest:
                stride //= m
                rows = [_rotated(r, t * stride, m * stride) for r in rows for t in range(m)]
            shifts = range(0, kernel, kernel // first)
            for place, (shift, src) in zip(places, product(shifts, map(memoryview, rows))):
                for lo in range(0, size, kernel):
                    at = place * size + lo
                    out[at : at + kernel] = src[2 * lo + shift : 2 * lo + shift + kernel]
    g = FiniteGroup.__new__(FiniteGroup)
    g.size, g._table = size, table
    return g


def _rotated(row: array, shift: int, width: int) -> array:
    """row with every chunk of width entries rotated left by shift: by width
    strided copies, or by two slice copies per chunk if those are fewer."""
    if not shift:
        return row
    out = row[:]
    if width * width < 2 * len(row):
        for k in range(width):
            out[k::width] = row[(k + shift) % width :: width]
    else:
        for lo in range(0, len(row), width):
            out[lo : lo + width - shift] = row[lo + shift : lo + width]
            out[lo + width - shift : lo + width] = row[lo : lo + shift]
    return out


def cyclic_group(n: int) -> FiniteGroup:
    return abelian_group([n])


def abelian_group(moduli: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders.

    Element (c1, ..., ck) has the mixed-radix index of its coordinates, the
    last coordinate fastest (``itertools.product`` order)."""
    size = math.prod(moduli)
    return _table_of_translates(size, moduli, [(array(_table_typecode(size), range(size)), range(size))])


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


def verify_group_axioms(g: FiniteGroup) -> AxiomReport:
    """Check identity, inverses, and associativity; report the first failure.

    Associativity is exact, by Light's test (F. W. Light, 1949; Clifford and
    Preston, *The Algebraic Theory of Semigroups* I, section 1.2).  The set S
    of a with (x*a)*y = x*(a*y) for all x and y contains e and is closed
    under the product.  So when every member of ``generating_sequence`` is
    in S, and their right closure from e (``FiniteGroup.closure``, which
    needs no associativity) is the whole table, S is everything.  That costs
    about n^2 per generator.  Only when it fails are all n middle factors
    scanned, so that the report names the lexicographically first failing
    triple.  ``element_orders``, which orders the generators, raises
    ValueError only on a table that is not a group; that also goes to the
    full scan.  Identity and inverses take one step each (row and column e
    against 0..n-1, and ``inverses``); a failure is then named by a scan.
    """
    n = g.size
    t = g._table
    e = g.identity_index
    cols = array(t.typecode, range(n))
    if t[e * n : (e + 1) * n] != cols or t[e::n] != cols:
        i = next(i for i in range(n) if t[e * n + i] != i or t[i * n + e] != i)
        return AxiomReport(False, ("identity", i))
    try:
        g.inverses
    except ValueError:
        i = next(i for i in range(n) if _inverse_of(t, n, e, i) < 0)
        return AxiomReport(False, ("inverse", i))
    try:
        gens = g.generating_sequence
    except ValueError:
        gens = None
    if gens is None or _first_nonassociative(t, n, gens):
        return AxiomReport(False, ("associativity", _first_nonassociative(t, n, range(n))))
    return AxiomReport(True, None)


def _first_nonassociative(
    t: array, n: int, middles: Iterable[int]
) -> Optional[tuple[int, int, int]]:
    """The first (x, a, y) with (x*a)*y != x*(a*y) in the flat table t, x
    outermost, a taken from middles in their order, then y; None if none.

    For every x and a, the row of x*a must equal row x gathered through
    row a.  Row x is boxed once, as a list, for all the middle factors.  A
    nonempty middles needs n >= 2, where ``itemgetter`` returns a tuple.
    """
    getters = [(a, itemgetter(*t[a * n : (a + 1) * n])) for a in middles]
    for x in range(n):
        row_x = t[x * n : (x + 1) * n].tolist()
        for a, through_a in getters:
            xa = row_x[a] * n
            lhs = t[xa : xa + n]
            rhs = array(t.typecode, through_a(row_x))
            if lhs != rhs:
                y = next(y for y in range(n) if lhs[y] != rhs[y])
                return x, a, y
    return None


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
    """Z(G): the z whose entry in row s, s*z, equals its entry in column s,
    z*s, for every generator s; each generator compares the survivors by
    one gather of its row and one of its column.  The gathers read views of
    the table: copying the row and column measured about 0.5 MB more peak
    RSS on a p = 7 iso run."""
    n = g.size
    central: Sequence[int] = range(n)
    with memoryview(g._table) as t:
        for s in g.generating_sequence:
            row, col = _gather(t[s * n : (s + 1) * n], central), _gather(t[s::n], central)
            central = list(compress(central, map(eq, row, col)))
    central = tuple(central)
    return Subgroup(g, central, _small_generating_subset(g, central))


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
    gens = g.generating_sequence
    return {t[t[s * n + x] * n + si] for s, si in zip(gens, _inverses_of(g, gens)) for x in xs}


def derived_subgroup(g: FiniteGroup) -> Subgroup:
    """Commutator subgroup, on the elements ``FiniteGroup.derived_elements``."""
    elements = tuple(sorted(g.derived_elements))
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
    table = array(_table_typecode(len(reps)))
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
    """Every field of the fingerprint, read off g's own table; no quotient
    table is built (see ``_abelianization_invariants``)."""
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

    # G/N is abelian iff N contains the derived subgroup.
    power_sub = subgroup_generated(g, g.pth_powers)
    power_quotient_abelian = derived.element_set <= power_sub.element_set

    return Fingerprint(
        group_order=n,
        center_invariants=abelian_invariants(center(g)),
        census_le_p=census_le_p,
        derived_order=derived.order,
        abelianization_invariants=_abelianization_invariants(g, derived),
        exponent=g.exponent,
        power_quotient_abelian=power_quotient_abelian,
        low_order_commute=low_order_commute,
    )


def _abelianization_invariants(g: FiniteGroup, derived: Subgroup) -> tuple[int, ...]:
    """The invariant factors of G/G', counted on G's own table.

    G/G' is an abelian group when G' is normal (the generators conjugate its
    generators into it) and holds every commutator of the generators; both
    are checked.  The order of xG' is ``_coset_orders`` at x, shared by the
    |G'| members of the coset, so every |G'|-th of the sorted orders lists
    the elements of G/G' once, and ``invariant_factors_from_orders`` checks
    that their counts fit an abelian group.
    """
    members = derived.element_set
    if not _conjugates(g, derived.generators) <= members:
        raise ValueError("derived subgroup is not normal in the group")
    if not _generator_commutators(g) <= members:
        raise ValueError("a commutator of the generators lies outside the derived subgroup")
    return invariant_factors_from_orders(sorted(_coset_orders(g, members))[:: derived.order])


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

    Five shortcuts skip only terms that are zero or equal, so the count is
    exact:
    - class <= 2 (G' <= Z(G)): [[x, y], y] = e for every pair, so T = 0;
    - x with x^p = e: the only target is e, which c != e rules out;
    - y runs over the noncentral conjugacy-class representatives, each
      weighted by its class size: conjugating x and y together preserves the
      relation, and a central y gives c = e;
    - for central z, [x, yz] = [x, y], so yz counts what y counts, and the
      class of yz is the class of y times z, of the same size: one count per
      orbit of classes under multiplication by Z(G), weighted by the size of
      the class times the number of classes in the orbit;
    - for z in Omega = {z in Z(G) : z^p = e}, [xz, y] = [x, y] and
      (xz)^p = x^p z^p = x^p, so x runs over the least member of each
      Omega-coset, weighted by |Omega|.
    Since x^p != e has order a power of p, the targets (x^p)^k for distinct
    k in 1..p-1 are distinct, so c matches at most one of them and the
    matches over all k count each x once.  [x, y] lies in G', so [[x, y], y]
    is read from the |G'| values [d, y], d in G'.
    """
    n = g.size
    t = g._table
    e = g.identity_index
    class_id, sizes, reps = g.conjugacy
    # G' is the normal closure of the generator commutators; when these are
    # central it is the subgroup they generate, so G' <= Z(G).
    if all(sizes[c] == 1 for c in _generator_commutators(g)):
        return 0
    p = least_prime_factor(n)
    pth = g.pth_powers
    central = [z for z in range(n) if sizes[z] == 1]
    omega = [z for z in central if pth[z] == e]
    # No prime below p divides the order of x^p != e, so (x^p)^k != e for
    # 0 < k < p: e is never a target.  Keep x when x < x*w for every w in
    # omega[1:], the w != e (central is sorted, so omega[0] = e = 0).
    xs = [x for x, xp in enumerate(pth) if xp != e]
    for w in omega[1:]:
        xs = list(compress(xs, map(lt, xs, _gather(t, list(map(w.__add__, map(n.__mul__, xs)))))))
    # targets holds, for each square k, (x^p)^k for every x in xs:
    # (x^p)^(k+1) = (x^p)^k x^p is one gather of the table per k.
    xps = _gather(pth, xs)
    power, targets = xps, []
    for k in range(1, p):
        if pow(k, (p - 1) // 2, p) == 1:  # k is a square mod p
            targets.append(power)
        power = _gather(t, list(map(add, map(n.__mul__, power), xps)))
    # [a, y] = (a y)(a^-1 y^-1) for a in G' and then in xs is three gathers
    # at the row starts of a and of a^-1.
    derived = sorted(g.derived_elements)
    rows = list(map(n.__mul__, derived + xs))
    inverse_rows = list(map(n.__mul__, _inverses_of(g, derived + xs)))
    counted: set[int] = set()
    total = 0
    for y, yi in zip(reps, _inverses_of(g, reps)):
        if sizes[y] == 1 or class_id[y] in counted:
            continue
        orbit = set(_gather(class_id, _gather(t, list(map((y * n).__add__, central)))))
        counted |= orbit
        ay = _gather(t, list(map(y.__add__, rows)))
        ai_yi = _gather(t, list(map(yi.__add__, inverse_rows)))
        comm = _gather(t, list(map(add, map(n.__mul__, ay), ai_yi)))
        try:  # [[x, y], y] from [d, y] -> [[d, y], y]
            cs = _gather(dict(zip(derived, comm)), comm[len(derived) :])
        except KeyError:
            raise ValueError(f"a commutator [x, {y}] lies outside the derived subgroup") from None
        total += sizes[y] * len(orbit) * sum(sum(map(eq, cs, target)) for target in targets)
    return total * len(omega)


def isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> tuple[bool, Optional[list[int]]]:
    """Decide isomorphism; on success also return a witness mapping.

    A negative verdict has one of three certificates, tried in this order: a
    fingerprint field that differs, a twist count (``FiniteGroup.twist_count``)
    that differs, or an exhaustive search (``_search_isomorphism``) that finds
    no isomorphism.  The witness, when returned, has been re-verified as a
    bijection with img(x*s) = img(x)*img(s) for every x and every generator s
    of g1 (``_respects_generators``).  Both tables must be groups, associative
    in particular; then that check makes the witness an isomorphism.  Every
    ``build_group`` and ``abelian_group`` table is one, and ``verify``'s
    group-axioms check proves it for every candidate, exactly at every p.
    Practical for orders <= 7^4.
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


def _respects_generators(
    g1: FiniteGroup, g2: FiniteGroup, img: Sequence[int], gens: Iterable[int]
) -> bool:
    """Whether img(x*s) = img(x)*img(s) for every x in g1 and every s in gens:
    one gather per generator, column s of g1 through img against column
    img(s) of g2 gathered at img.

    When img is a bijection, gens generate g1 and both tables are groups
    (associative), this makes img an isomorphism: s = e*s gives img(e) = e,
    and by induction over words, img(x*w) = img(x)*img(w) for every word w
    in the generators, which is every element of a finite group.
    """
    n = g1.size
    t1 = g1._table
    t2 = g2._table
    return all(_gather(img, t1[s::n]) == _gather(t2[img[s]::n], img) for s in gens)


def _search_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> Optional[list[int]]:
    """An isomorphism g1 -> g2 as an index map, or None when there is none.

    The search picks a pruned greedy generating sequence of g1 and backtracks
    over image tuples in g2.  Candidate images must match the per-element
    invariants of ``FiniteGroup.element_keys`` and the commuting pattern with
    earlier generators.  One partial map is extended in place: each candidate
    closes it over the products with the assigned generators, checking every
    product, so a contradiction aborts the branch early; on backtrack the
    elements the candidate added are unassigned again.  The tables are read
    in place, not copied.

    The found map is a bijection (``used`` admits each image once and the
    map covers all n elements) and is re-verified on the generators by
    ``_respects_generators``.  Both tables must be associative: for groups,
    a bijection that respects products with a generating set is an
    isomorphism.
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

    # The partial map: img[x] is the image of x or -1, used[y] marks the
    # assigned images, and known lists the assigned elements in the order they
    # were assigned.  images[d] is the image of gens[d].
    img = [-1] * n
    used = bytearray(n)
    known = [g1.identity_index]
    img[g1.identity_index] = g2.identity_index
    used[g2.identity_index] = 1
    images: list[int] = []

    def close(depth: int, start: int) -> bool:
        # The new generator sits at known[start].  Multiply each element
        # assigned before it by the new generator only, and each element from
        # known[start] on by every assigned generator; x*s must map to
        # img[x]*img[s].
        new = [(right1[depth], images[depth])]
        right = list(zip(right1, images))
        for ptr, y in enumerate(known):
            iy = img[y] * n
            for r1, c in new if ptr < start else right:
                z = r1[y]
                w = t2[iy + c]
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

    def search(depth: int) -> bool:
        if depth == k:
            if len(known) != n:
                raise AssertionError("generating sequence failed to generate")
            if not _respects_generators(g1, g2, img, gens):
                raise AssertionError("witness failed the homomorphism check on the generators")
            return True
        s = gens[depth]
        pool = reps_by_key if depth == 0 else buckets
        pattern = patterns[depth]
        start = len(known)
        for cand in pool.get(key1[s], ()):
            if used[cand] or any((t2[cand * n + c] == t2[c * n + cand]) != want
                                 for c, want in zip(images, pattern)):
                continue
            images.append(cand)
            img[s] = cand
            used[cand] = 1
            known.append(s)
            if close(depth, start) and search(depth + 1):
                return True
            for x in known[start:]:
                used[img[x]] = 0
                img[x] = -1
            del known[start:]
            images.pop()
        return False

    return img if search(0) else None
