"""Exact linear algebra for automorphisms of the rank-2 and rank-3 abelian
p-groups used as extension kernels.

Automorphisms are integer matrices acting on column vectors, with each row
reduced by its own modulus: row i lives modulo ``moduli[i]``.  The two
supported coordinate profiles are (p^2, p) and (p, p, p).  Everything here is
exact integer arithmetic; no floating point, no external linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, Sequence

MAX_PRIME = 97

SHAPE_MIXED = "p2xp"
SHAPE_ELEMENTARY = "pxpxp"
SHAPES = (SHAPE_MIXED, SHAPE_ELEMENTARY)


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


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == {n: 1}


@dataclass(frozen=True)
class ModulusProfile:
    """Coordinate moduli of the kernel group: (p^2, p) or (p, p, p)."""

    p: int
    shape: str

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"unknown profile shape {self.shape!r}; expected one of {SHAPES}")
        # The bound comes first: trial division of a huge p would not finish.
        if self.p > MAX_PRIME:
            raise ValueError(f"profile prime must be <= {MAX_PRIME}, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"profile prime must be prime, got {self.p}")

    @property
    def moduli(self) -> tuple[int, ...]:
        if self.shape == SHAPE_MIXED:
            return (self.p * self.p, self.p)
        return (self.p, self.p, self.p)

    @property
    def rank(self) -> int:
        return 2 if self.shape == SHAPE_MIXED else 3

    @property
    def order(self) -> int:
        return self.p ** 3

    def zero(self) -> "AbelianElement":
        return AbelianElement((0,) * self.rank, self)

    def element(self, coords: Sequence[int]) -> "AbelianElement":
        return AbelianElement(tuple(coords), self)

    def elements(self) -> Iterator["AbelianElement"]:
        """All elements in lexicographic coordinate order."""
        for coords in product(*(range(m) for m in self.moduli)):
            yield AbelianElement(coords, self)

    def rank_of(self, coords: Sequence[int]) -> int:
        """Lexicographic index of a coordinate tuple (later coordinates fastest)."""
        r = 0
        for c, m in zip(coords, self.moduli):
            r = r * m + (c % m)
        return r

    def coords_of(self, rank: int) -> tuple[int, ...]:
        out = []
        for m in reversed(self.moduli):
            out.append(rank % m)
            rank //= m
        return tuple(reversed(out))


@dataclass(frozen=True)
class AbelianElement:
    """Tuple of residues with per-coordinate moduli; always stored reduced."""

    coords: tuple[int, ...]
    profile: ModulusProfile

    def __post_init__(self) -> None:
        moduli = self.profile.moduli
        if len(self.coords) != len(moduli):
            raise ValueError(f"expected {len(moduli)} coordinates, got {len(self.coords)}")
        reduced = tuple(c % m for c, m in zip(self.coords, moduli))
        if reduced != self.coords:
            object.__setattr__(self, "coords", reduced)

    def _check(self, other: "AbelianElement") -> None:
        if other.profile != self.profile:
            raise ValueError("profile mismatch")

    def __add__(self, other: "AbelianElement") -> "AbelianElement":
        self._check(other)
        return AbelianElement(tuple(a + b for a, b in zip(self.coords, other.coords)), self.profile)

    def __neg__(self) -> "AbelianElement":
        return AbelianElement(tuple(-c for c in self.coords), self.profile)

    def __sub__(self, other: "AbelianElement") -> "AbelianElement":
        return self + (-other)

    def scale(self, k: int) -> "AbelianElement":
        return AbelianElement(tuple(k * c for c in self.coords), self.profile)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        """Additive order: least k >= 1 with k*self = 0."""
        o = 1
        for c, m in zip(self.coords, self.profile.moduli):
            o = math.lcm(o, m // math.gcd(c, m))
        return o

    def rank(self) -> int:
        return self.profile.rank_of(self.coords)

    def to_json_list(self) -> list[int]:
        return list(self.coords)


@dataclass(frozen=True)
class MixedModulusMatrix:
    """Square integer matrix with row i reduced modulo ``profile.moduli[i]``.

    Columns are the images of the coordinate generators, so the matrix acts on
    column vectors.  For the (p^2, p) profile the top-right entry must be a
    multiple of p: the image of the order-p generator has to have order
    dividing p, otherwise the matrix does not describe a homomorphism.
    """

    entries: tuple[tuple[int, ...], ...]
    profile: ModulusProfile

    def __post_init__(self) -> None:
        moduli = self.profile.moduli
        m = len(moduli)
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        if len(rows) != m or any(len(row) != m for row in rows):
            raise ValueError(f"expected a {m}x{m} matrix")
        reduced = tuple(tuple(x % moduli[i] for x in row) for i, row in enumerate(rows))
        if reduced != self.entries:
            object.__setattr__(self, "entries", reduced)
        if self.profile.shape == SHAPE_MIXED and reduced[0][1] % self.profile.p != 0:
            raise ValueError("top-right entry must be divisible by p for the (p^2, p) profile")

    @classmethod
    def identity(cls, profile: ModulusProfile) -> "MixedModulusMatrix":
        m = profile.rank
        return cls(tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m)), profile)

    @classmethod
    def zero(cls, profile: ModulusProfile) -> "MixedModulusMatrix":
        m = profile.rank
        return cls(((0,) * m,) * m, profile)

    @property
    def is_identity(self) -> bool:
        return self == MixedModulusMatrix.identity(self.profile)

    @property
    def is_automorphism(self) -> bool:
        """True iff the reduction mod p is invertible over F_p."""
        a = self.entries
        if len(a) == 2:
            det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        else:
            det = (
                a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
            )
        return det % self.profile.p != 0

    def to_json_list(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def mat_apply(m: MixedModulusMatrix, v: AbelianElement) -> AbelianElement:
    """Image of v under the matrix, each coordinate reduced by its modulus."""
    if m.profile != v.profile:
        raise ValueError("profile mismatch")
    coords = tuple(sum(a * c for a, c in zip(row, v.coords)) for row in m.entries)
    return AbelianElement(coords, m.profile)


def mat_mul(a: MixedModulusMatrix, b: MixedModulusMatrix) -> MixedModulusMatrix:
    """Matrix product; composition of the corresponding maps (a after b)."""
    if a.profile != b.profile:
        raise ValueError("profile mismatch")
    n = a.profile.rank
    rows = tuple(
        tuple(sum(a.entries[i][k] * b.entries[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    return MixedModulusMatrix(rows, a.profile)


def mat_pow(m: MixedModulusMatrix, k: int) -> MixedModulusMatrix:
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    result = MixedModulusMatrix.identity(m.profile)
    base = m
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def _automorphism_group_order(profile: ModulusProfile) -> tuple[int, list[int]]:
    """Order of the full automorphism group and the primes dividing it."""
    p = profile.p
    if profile.shape == SHAPE_MIXED:
        pieces = [p, p, p, p - 1, p - 1]
    else:
        q = p ** 3
        pieces = [q - 1, q - p, q - p * p]
    total = 1
    primes: set[int] = set()
    for piece in pieces:
        total *= piece
        primes.update(prime_factors(piece))
    return total, sorted(primes)


def mat_order(m: MixedModulusMatrix) -> int:
    """Least k >= 1 with m^k = identity; requires an automorphism."""
    if not m.is_automorphism:
        raise ValueError("matrix is not an automorphism")
    order, primes = _automorphism_group_order(m.profile)
    identity = MixedModulusMatrix.identity(m.profile)
    for q in primes:
        while order % q == 0 and mat_pow(m, order // q) == identity:
            order //= q
    return order


def mat_inverse(m: MixedModulusMatrix) -> MixedModulusMatrix:
    """Inverse of an automorphism: m^(|Aut N| - 1), since m^|Aut N| = I."""
    if not m.is_automorphism:
        raise ValueError("matrix is not an automorphism")
    order, _ = _automorphism_group_order(m.profile)
    return mat_pow(m, order - 1)


def norm_matrix(m: MixedModulusMatrix, n: int) -> MixedModulusMatrix:
    """Entry-wise sum of m^0 + m^1 + ... + m^(n-1), rows reduced by profile."""
    if n < 1:
        raise ValueError("n must be positive")
    rank = m.profile.rank
    acc = [[0] * rank for _ in range(rank)]
    power = MixedModulusMatrix.identity(m.profile)
    for _ in range(n):
        for i in range(rank):
            for j in range(rank):
                acc[i][j] += power.entries[i][j]
        power = mat_mul(power, m)
    return MixedModulusMatrix(tuple(tuple(row) for row in acc), m.profile)


@dataclass(frozen=True)
class AbelianSubgroup:
    """Subgroup of a profile group as an explicit sorted element list plus a
    minimal generating set (largest coordinates first, matching the usual
    presentation order)."""

    profile: ModulusProfile
    elements: tuple[AbelianElement, ...]
    generators: tuple[AbelianElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_set(self) -> frozenset[AbelianElement]:
        return frozenset(self.elements)

    def __contains__(self, x: AbelianElement) -> bool:
        return x in self.element_set

    def invariant_factors(self) -> tuple[int, ...]:
        """Divisor chain d1 | d2 | ... describing the subgroup."""
        return invariant_factors_from_orders([x.order() for x in self.elements])


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


def _greedy_generating_set(preference: Sequence, target: int, span) -> list:
    """Greedy generating set of a (sub)group of order ``target``, pruned so
    that no member is redundant.

    Each step adds the first element of ``preference`` not yet in
    ``span(gens)``.  Dropping a member never makes an earlier one redundant,
    so one pass of pruning suffices.  Irredundant generating sets of a finite
    p-group all have the minimal size.
    """
    if target <= 1:
        return []
    gens: list = []
    closure = span(gens)
    while len(closure) < target:
        gens.append(next(x for x in preference if x not in closure))
        closure = span(gens)
    i = 0
    while i < len(gens):
        rest = gens[:i] + gens[i + 1 :]
        if len(span(rest)) == target:
            gens = rest
        else:
            i += 1
    return gens


def minimal_generating_set(
    elements: Sequence[AbelianElement], profile: ModulusProfile
) -> tuple[AbelianElement, ...]:
    """Minimal generating set (highest order first, then pruned), listed with
    the largest coordinates first."""

    def span(generators: Sequence[AbelianElement]) -> set[AbelianElement]:
        zero = profile.zero()
        seen = {zero}
        queue = [zero]
        while queue:
            x = queue.pop()
            for g in generators:
                y = x + g
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    by_preference = sorted(elements, key=lambda e: (-e.order(), e.coords))
    gens = _greedy_generating_set(by_preference, len(elements), span)
    return tuple(sorted(gens, key=lambda e: e.coords, reverse=True))


def _subgroup_from_elements(
    elements: set[AbelianElement], profile: ModulusProfile
) -> AbelianSubgroup:
    ordered = tuple(sorted(elements, key=lambda e: e.coords))
    return AbelianSubgroup(profile, ordered, minimal_generating_set(ordered, profile))


def fixed_points(m: MixedModulusMatrix) -> AbelianSubgroup:
    """All v with m(v) = v; a subgroup since the map is linear."""
    fixed = {v for v in m.profile.elements() if mat_apply(m, v) == v}
    return _subgroup_from_elements(fixed, m.profile)


def image_subgroup(m: MixedModulusMatrix) -> AbelianSubgroup:
    """The image {m(v) : v in N} of a (not necessarily invertible) map."""
    image = {mat_apply(m, v) for v in m.profile.elements()}
    return _subgroup_from_elements(image, m.profile)


# ---------------------------------------------------------------------------
# The Jordan form of order-p automorphisms of the elementary kernel.

_JORDAN_BLOCK_2 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
_JORDAN_BLOCK_3 = ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def jordan_reduce(tau: MixedModulusMatrix) -> tuple[MixedModulusMatrix, MixedModulusMatrix]:
    """Jordan form of an automorphism tau of (p, p, p) with tau^p = I.

    Returns (canonical, g), both on tau's profile, with g tau g^-1 =
    canonical.  canonical is the identity, one 2-block (tau - I of rank 1,
    which holds exactly when (tau - I)^2 = 0) or one 3-block.  Raises
    ValueError for the (p^2, p) profile or when tau^p is not the identity.
    """
    profile = tau.profile
    if profile.shape != SHAPE_ELEMENTARY:
        raise ValueError("Jordan reduction needs the (p, p, p) profile")
    identity = MixedModulusMatrix.identity(profile)
    if mat_pow(tau, profile.p) != identity:
        raise ValueError("matrix order does not divide p")
    if tau == identity:
        return identity, identity
    nil = MixedModulusMatrix(
        tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(tau.entries)),
        profile,
    )
    nil2 = mat_mul(nil, nil)
    if nil2 == MixedModulusMatrix.zero(profile):
        v = next(x for x in profile.elements() if not mat_apply(nil, x).is_zero())
        u = mat_apply(nil, v)
        line = {u.scale(k) for k in range(profile.p)}
        # ker(tau - I) is a plane containing u; any w in it off the line <u>
        # completes the basis.
        w = next(x for x in profile.elements() if mat_apply(nil, x).is_zero() and x not in line)
        chain, canonical = (u, v, w), _JORDAN_BLOCK_2
    else:
        v = next(x for x in profile.elements() if not mat_apply(nil2, x).is_zero())
        chain, canonical = (mat_apply(nil2, v), mat_apply(nil, v), v), _JORDAN_BLOCK_3
    basis = MixedModulusMatrix(tuple(zip(*(x.coords for x in chain))), profile)
    return MixedModulusMatrix(canonical, profile), mat_inverse(basis)
