"""Exact linear algebra for automorphisms of the rank-2 and rank-3 abelian
p-groups used as extension kernels.

Automorphisms are integer matrices acting on column vectors, with each row
reduced by its own modulus: row i lives modulo ``moduli[i]``.  The two
supported coordinate profiles are (p^2, p) and (p, p, p).  Everything here is
exact integer arithmetic; no floating point, no external linear algebra.
Fixed points and norm images are ``KernelSubgroup``s: element ranks and
generators worked out in coordinates, with no Cayley table of the kernel.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .groups import _gather, _rotated, _small_generating_subset
from .groups import invariant_factors_from_orders, prime_factors

MAX_PRIME = 97

SHAPE_MIXED = "p2xp"
SHAPE_ELEMENTARY = "pxpxp"
SHAPES = (SHAPE_MIXED, SHAPE_ELEMENTARY)


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

    def element_of(self, rank: int) -> "AbelianElement":
        return AbelianElement(self.coords_of(rank), self)

    def span(self, ranks: Iterable[int]) -> set[int]:
        """Ranks of the subgroup that the elements of the given ranks generate."""
        span = {self.zero()}
        for x in map(self.element_of, ranks):
            span = {s + x.scale(k) for s in span for k in range(x.order())}
        return {v.rank() for v in span}


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

    def order(self) -> int:
        """The lcm of m_i / gcd(c_i, m_i) over the coordinates."""
        return math.lcm(*(m // math.gcd(c, m) for c, m in zip(self.coords, self.profile.moduli)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def rank(self) -> int:
        return self.profile.rank_of(self.coords)

    def to_json_list(self) -> list[int]:
        return list(self.coords)


@dataclass(frozen=True)
class KernelSubgroup:
    """A kernel subgroup in coordinates: its sorted element ranks (``v.rank()``;
    ``profile.coords_of`` inverts it) and its generators by descending rank."""

    profile: ModulusProfile
    elements: tuple[int, ...]
    generators: tuple[int, ...]

    @classmethod
    def of(cls, profile: ModulusProfile, ranks: Iterable[int]) -> "KernelSubgroup":
        """The subgroup on the given ranks, generated as a table group's is."""
        elements = tuple(sorted(ranks))
        orders = {r: profile.element_of(r).order() for r in elements}
        generators = _small_generating_subset(orders, elements, profile.span)
        return cls(profile, elements, tuple(sorted(generators, reverse=True)))

    @property
    def order(self) -> int:
        return len(self.elements)

    def invariant_factors(self) -> tuple[int, ...]:
        orders = [self.profile.element_of(r).order() for r in self.elements]
        return invariant_factors_from_orders(orders)


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
    def scalar(cls, profile: ModulusProfile, k: int) -> "MixedModulusMatrix":
        """The map x -> k*x: k on the diagonal, 0 elsewhere."""
        m = profile.rank
        return cls(tuple(tuple(k if i == j else 0 for j in range(m)) for i in range(m)), profile)

    @classmethod
    def identity(cls, profile: ModulusProfile) -> "MixedModulusMatrix":
        return cls.scalar(profile, 1)

    @classmethod
    def zero(cls, profile: ModulusProfile) -> "MixedModulusMatrix":
        return cls.scalar(profile, 0)

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


def _automorphism_group_order(profile: ModulusProfile) -> int:
    """Order of the full automorphism group of the kernel."""
    p = profile.p
    if profile.shape == SHAPE_MIXED:
        return p**3 * (p - 1) ** 2
    q = p**3
    return (q - 1) * (q - p) * (q - p * p)


def mat_inverse(m: MixedModulusMatrix) -> MixedModulusMatrix:
    """Inverse of an automorphism: m^(|Aut N| - 1), since m^|Aut N| = I."""
    if not m.is_automorphism:
        raise ValueError("matrix is not an automorphism")
    return mat_pow(m, _automorphism_group_order(m.profile) - 1)


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


def _plus_ranks(profile: ModulusProfile, x: tuple[int, ...]) -> array:
    """rank(y + x) by rank y, for reduced coordinates x: the identity row
    rotated once per coordinate of x."""
    row = array("i", range(profile.order))
    stride = profile.order
    for c, m in zip(x, profile.moduli):
        stride //= m
        row = _rotated(row, c * stride, m * stride)
    return row


def _linear_ranks(m: MixedModulusMatrix) -> tuple[int, ...]:
    """rank(m·y) by rank y, from the columns of m.

    The coordinates are taken last first.  With ranks the list of rank(m·z)
    over the values z of the later coordinates, the values of coordinate k
    prepend to it: the block for y_k = t is the block for t - 1 gathered
    through rank(. + col_k), so each layer is gathers of one rotated row.
    """
    profile = m.profile
    ranks: tuple[int, ...] = (0,)
    for k in reversed(range(profile.rank)):
        plus_col = _plus_ranks(profile, tuple(row[k] for row in m.entries))
        layer = ranks
        out: list[int] = []
        for _ in range(profile.moduli[k]):
            out += layer
            layer = _gather(plus_col, layer)
        ranks = tuple(out)
    return ranks


def fixed_points(m: MixedModulusMatrix) -> KernelSubgroup:
    """All v with m(v) = v, a subgroup as the map is linear: the ranks that
    ``_linear_ranks`` keeps.  ``build_group`` reads tau through that map, so
    verify's table2-reverification (a table's center against Fix(tau))
    shares its code; the tests check it against ``mat_apply``."""
    return KernelSubgroup.of(m.profile, [y for y, z in enumerate(_linear_ranks(m)) if y == z])


def image_subgroup(m: MixedModulusMatrix) -> KernelSubgroup:
    """The image {m(v) : v in N} of a (not necessarily invertible) map: the
    span of its columns, the images of the coordinate generators."""
    return KernelSubgroup.of(m.profile, m.profile.span(map(m.profile.rank_of, zip(*m.entries))))
