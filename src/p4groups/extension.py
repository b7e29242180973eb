"""Cyclic extensions of the abelian kernels.

An extension type is a quadruple: kernel profile, cyclic quotient order n, an
automorphism tau of the kernel with tau^n = identity, and an element v of the
kernel fixed by tau.  Such a type determines a group on pairs (x, a^i) with

    (x, a^i) * (y, a^j) = (x + tau^i(y) + floor((i+j)/n) * v, a^((i+j) mod n))

written additively in the kernel.  This floor form of the product is the
single source of truth here; the build routine materializes the full Cayley
table from it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .groups import FiniteGroup, _check_order, _gather, _table_of_translates
from .residues import (
    AbelianElement,
    MixedModulusMatrix,
    ModulusProfile,
    _linear_ranks,
    _plus_ranks,
    mat_apply,
    mat_inverse,
    mat_mul,
    mat_pow,
    norm_matrix,
)

DIAG_NOT_AUTOMORPHISM = "not-an-automorphism"
DIAG_TAU_POWER = "tau-power-not-identity"
DIAG_V_NOT_FIXED = "v-not-fixed"


@dataclass(frozen=True)
class ExtensionType:
    """Kernel profile, quotient order n, automorphism tau, and fixed element v.

    Every instance is valid: tau is an automorphism of the kernel, tau^n is
    the identity and tau fixes v.  The constructor (and with it
    ``from_json_dict`` and ``dataclasses.replace``) raises ValueError naming
    the first condition that fails, so code that takes a type need not
    check it again.
    """

    profile: ModulusProfile
    n: int
    tau: MixedModulusMatrix
    v: AbelianElement

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("quotient order n must be positive")
        if self.tau.profile != self.profile or self.v.profile != self.profile:
            raise ValueError("profile mismatch between tau, v, and the type")
        if not self.tau.is_automorphism:
            raise ValueError(f"invalid extension type: {DIAG_NOT_AUTOMORPHISM}")
        if _tau_power(self.tau, self.n) != MixedModulusMatrix.identity(self.profile):
            raise ValueError(f"invalid extension type: {DIAG_TAU_POWER}")
        if mat_apply(self.tau, self.v) != self.v:
            raise ValueError(f"invalid extension type: {DIAG_V_NOT_FIXED}")

    @property
    def group_order(self) -> int:
        return self.profile.order * self.n

    def to_json_dict(self) -> dict:
        return {
            "p": self.profile.p,
            "shape": self.profile.shape,
            "n": self.n,
            "tau": self.tau.to_json_list(),
            "v": self.v.to_json_list(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExtensionType":
        """Parse a type record; p, n and every tau and v entry must be JSON
        integers (not floats or booleans), and tau, each tau row and v JSON
        arrays, else ValueError naming the field."""
        if not isinstance(data, dict):
            raise ValueError("extension type record must be a JSON object")
        try:
            profile = ModulusProfile(_json_int(data["p"], "p"), data["shape"])
            n = _json_int(data["n"], "n")
            tau = tuple(tuple(_json_int(x, "tau entry") for x in _json_list(row, "tau row"))
                        for row in _json_list(data["tau"], "tau"))
            v = tuple(_json_int(x, "v entry") for x in _json_list(data["v"], "v"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed extension type record: {exc}") from exc
        return cls(profile, n, MixedModulusMatrix(tau, profile), AbelianElement(v, profile))


def _json_int(value: object, what: str) -> int:
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_list(value: object, what: str) -> list:
    """value if it is a JSON array; a string or an object would iterate."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value


@dataclass(frozen=True)
class ExtElement:
    """Pair (x, a^i) with x in the kernel and 0 <= i < n."""

    x: AbelianElement
    i: int


@lru_cache(maxsize=8192)
def _tau_power(tau: MixedModulusMatrix, i: int) -> MixedModulusMatrix:
    return mat_pow(tau, i)


@lru_cache(maxsize=1024)
def _inverse(phi: MixedModulusMatrix) -> MixedModulusMatrix:
    return mat_inverse(phi)


@lru_cache(maxsize=1024)
def _norm_matrix(tau: MixedModulusMatrix, n: int) -> MixedModulusMatrix:
    return norm_matrix(tau, n)


def multiply(t: ExtensionType, g: ExtElement, h: ExtElement) -> ExtElement:
    if g.x.profile != t.profile or h.x.profile != t.profile:
        raise ValueError("profile mismatch")
    if not (0 <= g.i < t.n and 0 <= h.i < t.n):
        raise ValueError("coset exponent out of range")
    wraps = (g.i + h.i) // t.n
    x = g.x + mat_apply(_tau_power(t.tau, g.i), h.x)
    if wraps:
        x = x + t.v.scale(wraps)
    return ExtElement(x, (g.i + h.i) % t.n)


def norm_apply(t: ExtensionType, x: AbelianElement) -> AbelianElement:
    """x + tau(x) + ... + tau^(n-1)(x); inside the built group,
    (x, a)^n = (norm(x) + v, a^0)."""
    return mat_apply(_norm_matrix(t.tau, t.n), x)


def build_group(t: ExtensionType) -> FiniteGroup:
    """Materialize the group of order |kernel| * n on pairs (x, a^i).

    Element indices are ordered lexicographically by (i, coordinates of x),
    so (x, a^i) has index i*|kernel| + rank(x).  Every row of coset a^i is a
    translate of the coset's head row, the row of (0, a^i), since

        (x, a^i) * (y, a^j) = (0, a^i) * (tau^-i(x) + y, a^j).

    So the head row is built from the floor form, one list of |kernel|
    entries per coset a^j, and row (x, a^i) is the head row read through
    y -> y + tau^-i(x) inside each block of |kernel| columns: translate
    x'' of ``_table_of_translates`` goes to row tau^i(x''), and only the
    head rows are range-checked.  No entry is computed on its own outside
    the head rows.
    """
    profile = t.profile
    n = t.n
    nsize = profile.order
    size = nsize * n
    _check_order(size)  # before any row is built
    tau = _linear_ranks(t.tau)
    tau_i = tuple(range(nsize))  # tau^i by rank
    plus_v = _plus_ranks(profile, t.v.coords)

    cosets = []
    for i in range(n):
        # Row (0, a^i), column (y, a^j): (tau^i(y) + floor((i+j)/n)*v, a^((i+j) mod n)).
        tau_v = _gather(plus_v, tau_i)
        head = array("H")
        for j in range(n):
            base = (i + j) % n * nsize
            head.extend([base + y for y in (tau_i if i + j < n else tau_v)])
        cosets.append((head, [i * nsize + x for x in tau_i]))
        tau_i = _gather(tau, tau_i)
    return _table_of_translates(size, profile.moduli, cosets)


def _relations_problem(t, images, g) -> str:
    """The first defining relation of type t that the images fail, else "".

    images are indices in g: those of the kernel basis e_1, ..., e_k of t,
    then that of t's coset generator a.  With b_k the image of e_k and
    word(y) = b_1^y_1 * ... * b_k^y_k, the relations are b_k^m_k = e,
    b_j b_k = b_k b_j, a b_k = word(tau(e_k)) a and a^n = word(v); then |g|
    must be t's order and the images must generate g.

    The relations present t's group: its floor form satisfies them, and they
    reduce every word to word(x) a^i, so what they present has order |N|*n.
    By von Dyck's theorem images that pass define a homomorphism onto g,
    one-to-one as the orders match, given that g is a group (verify's
    group-axioms check).  Only g's products are read, never the rank helpers
    that build tables.

    Generation is checked last, on the words word(y) a^i (``_words``): once
    the relations hold in a group, they are the subgroup the images
    generate, so they must cover g.  On any table each word lies in the
    right closure of the images from e, so a table they cover is generated.
    """
    profile = t.profile
    *kernel, a = images
    e = g.identity_index
    names = [f"e{k + 1}" for k in range(profile.rank)]

    def word(y):
        w = e
        for b, c in zip(kernel, y.coords):
            w = g.mul(w, g.power(b, c))
        return w

    for name, b, m in zip(names, kernel, profile.moduli):
        if g.power(b, m) != e:
            return f"{name}^{m} != e"
    for j, k in combinations(range(len(kernel)), 2):
        if g.mul(kernel[j], kernel[k]) != g.mul(kernel[k], kernel[j]):
            return f"{names[j]} {names[k]} != {names[k]} {names[j]}"
    for name, b, x in zip(names, kernel, _basis(profile)):
        if g.mul(a, b) != g.mul(word(mat_apply(t.tau, x)), a):
            return f"a {name} a^-1 != tau({name})"
    if g.power(a, t.n) != word(t.v):
        return f"a^{t.n} != v"
    if t.group_order != g.size:
        return f"order {t.group_order} != {g.size}"
    if len(set(_words(t, images, g))) != g.size:
        return "the images do not generate the group"
    return ""


def _words(t, images, g) -> list[int]:
    """word(y) a^i in g for every y in t's kernel and 0 <= i < t.n, images
    as in ``_relations_problem``: from [e], each image b of order m (m_k for
    e_k, n for a) appends m - 1 right multiples of what is there, each one
    gather of b's column of the table."""
    words = [g.identity_index]
    for b, m in zip(images, (*t.profile.moduli, t.n)):
        column = g._table[b :: g.size]
        layer = words
        for _ in range(m - 1):
            layer = _gather(column, layer)
            words += layer
    return words


def _basis(profile):
    """The kernel's basis e_1, ..., e_k, the unit coordinate vectors."""
    return [profile.element([int(j == k) for j in range(profile.rank)])
            for k in range(profile.rank)]


def _standard_images(profile):
    """Indices of e_1, ..., e_k and a in ``build_group``'s tables: rank(e_k), |N|."""
    return [x.rank() for x in _basis(profile)] + [profile.order]


# ---------------------------------------------------------------------------
# Transformations that preserve the isomorphism class of the built group.


def shift_generator(t: ExtensionType, x: AbelianElement) -> ExtensionType:
    """Replace the coset representative a by x*a: v becomes norm(x) + v."""
    if x.profile != t.profile:
        raise ValueError("profile mismatch")
    return ExtensionType(t.profile, t.n, t.tau, norm_apply(t, x) + t.v)


def power_substitute(t: ExtensionType, i: int) -> ExtensionType:
    """Replace a by a^i for i prime to n: (tau, v) becomes (tau^i, i*v)."""
    if math.gcd(i, t.n) != 1:
        raise ValueError(f"exponent {i} is not prime to n={t.n}")
    # Every type has tau^n = id, so tau^i = tau^(i mod n).
    return ExtensionType(t.profile, t.n, mat_pow(t.tau, i % t.n), t.v.scale(i))


def conjugate_type(t: ExtensionType, phi: MixedModulusMatrix) -> ExtensionType:
    """Transport the type along an automorphism phi: (phi tau phi^-1, phi(v))."""
    if phi.profile != t.profile:
        raise ValueError("profile mismatch")
    if not phi.is_automorphism:
        raise ValueError("phi is not an automorphism")
    new_tau = mat_mul(mat_mul(phi, t.tau), _inverse(phi))
    return ExtensionType(t.profile, t.n, new_tau, mat_apply(phi, t.v))
