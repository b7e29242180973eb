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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
        p = self.profile.p
        a = [[x % p for x in row] for row in self.entries]
        return _fp_det(a, p) != 0

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
    return mat_pow(m, mat_order(m) - 1)


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
# Plain matrices over F_p and the Jordan form of order-p elements.

Matrix = tuple[tuple[int, ...], ...]


def _fp_reduce(a: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    return [[x % p for x in row] for row in a]


def _fp_identity(m: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def _fp_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    m = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) % p for j in range(m)]
        for i in range(m)
    ]


def _fp_det(a: Sequence[Sequence[int]], p: int) -> int:
    m = len(a)
    if m == 2:
        return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % p
    if m == 3:
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        ) % p
    raise ValueError("only 2x2 and 3x3 determinants are supported")


def _fp_rank(a: Sequence[Sequence[int]], p: int) -> int:
    mat = _fp_reduce(a, p)
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if mat[r][c] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _fp_inverse(a: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    m = len(a)
    mat = [list(row) + ident for row, ident in zip(_fp_reduce(a, p), _fp_identity(m))]
    for c in range(m):
        pivot = next((r for r in range(c, m) if mat[r][c] % p), None)
        if pivot is None:
            raise ValueError("matrix is singular over F_p")
        mat[c], mat[pivot] = mat[pivot], mat[c]
        inv = pow(mat[c][c], -1, p)
        mat[c] = [(x * inv) % p for x in mat[c]]
        for r in range(m):
            if r != c and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[c])]
    return [row[m:] for row in mat]


def _fp_apply(a: Sequence[Sequence[int]], v: Sequence[int], p: int) -> tuple[int, ...]:
    return tuple(sum(x * c for x, c in zip(row, v)) % p for row in a)


def jordan_reduce(a: Sequence[Sequence[int]], p: int) -> tuple[Matrix, Matrix]:
    """Jordan form of an order-p element of GL_m(F_p), m in {2, 3}.

    Returns (canonical, g) with g a g^-1 = canonical over F_p.  The canonical
    form is upper triangular with ones on the diagonal; its block structure is
    the partition of m determined by rank(a - I).
    """
    m = len(a)
    if m not in (2, 3):
        raise ValueError("only 2x2 and 3x3 matrices are supported")
    mat = _fp_reduce(a, p)
    if _fp_det(mat, p) == 0:
        raise ValueError("matrix is not invertible over F_p")
    power = _fp_identity(m)
    for _ in range(p):
        power = _fp_mul(power, mat, p)
    if power != _fp_identity(m):
        raise ValueError("matrix order does not divide p")

    nil = [[(x - (1 if i == j else 0)) % p for j, x in enumerate(row)] for i, row in enumerate(mat)]
    r = _fp_rank(nil, p)
    basis_vectors = [tuple(1 if i == j else 0 for i in range(m)) for j in range(m)]

    if r == 0:
        ident = tuple(tuple(row) for row in _fp_identity(m))
        return ident, ident

    def columns_to_matrix(cols: list[tuple[int, ...]]) -> list[list[int]]:
        return [[col[i] for col in cols] for i in range(m)]

    if r == 1:
        v = next(b for b in basis_vectors if any(_fp_apply(nil, b, p)))
        nv = _fp_apply(nil, v, p)
        chain = [nv, v]
        if m == 3:
            w = next(
                b
                for b in basis_vectors
                if not any(_fp_apply(nil, b, p))
                and _fp_rank(columns_to_matrix([nv, b]), p) == 2
            )
            chain.append(w)
        canonical = [[1, 1], [0, 1]] if m == 2 else [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    else:
        nil2 = _fp_mul(nil, nil, p)
        v = next(b for b in basis_vectors if any(_fp_apply(nil2, b, p)))
        chain = [_fp_apply(nil2, v, p), _fp_apply(nil, v, p), v]
        canonical = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]

    basis = columns_to_matrix(chain)
    g = _fp_inverse(basis, p)
    check = _fp_mul(_fp_mul(g, mat, p), _fp_inverse(g, p), p)
    if check != canonical:
        raise AssertionError("jordan reduction produced an inconsistent conjugator")
    return tuple(tuple(row) for row in canonical), tuple(tuple(row) for row in g)
