"""Exact arithmetic in finite fields of characteristic at least 5.

A field F_{p^m} is described by a :class:`FieldSpec` (characteristic,
degree, monic irreducible modulus) and elements are immutable coefficient
vectors, constant term first, reduced mod p.  Everything is exact integer
arithmetic; there is no floating point anywhere.

Canonical conventions used by the rest of the package:

* elements are ordered lexicographically by coefficient vector,
* square roots return the lexicographically smaller of the two roots,
* the quadratic extension of a prime field F_q defaults to the modulus
  x^2 - n with n the smallest non-square >= 2, and extensions of
  non-prime base fields are built as a single flat extension of F_p with
  an explicitly recorded embedding of the base field.

FieldElement holds single elements; their one product mul_coeffs, on
coefficient tuples, is a residue product over F_p, one closed form over
F_{p^2} and a fixed-length schoolbook product reduced by the modulus
(_mulmod) above.  Powers are one square-and-multiply loop (linalg.power)
and inverses are a^(q-2).  A modulus is certified irreducible by
Berlekamp's test, a rank over F_p from linalg.reduce_mod_p, the one
elimination routine.

Work over a whole field runs on linalg's coefficient arrays, whose
product linalg.field_mul is the array twin of _mulmod.  So the
embedding of F_q = F_{p^t} into F_{q^2} takes the smallest root of its
modulus among all of F_q at once, F_q being the kernel of Frob^t - 1 on
F_{q^2}.

The default modulus of a degree depends on (p, degree) alone, so the
process keeps those of the last 8 pairs searched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as _cartesian
from operator import mul as _mul
from typing import Iterator, Sequence

import numpy as np

from .linalg import (
    element_index,
    field_elements,
    field_mul,
    kernel_mod_p,
    matvec_mod_p,
    power,
    reduce_mod_p,
    residue_dtype,
)
from .numtheory import is_prime, prime_power_radical

# ----------------------------------------------------------------------
# Arithmetic modulo a monic polynomial over F_p, on coefficient tuples of
# fixed length m = deg modulus, constant term first.


def _mulmod(
    a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int
) -> tuple[int, ...]:
    """a * b modulo the monic modulus over F_p: the schoolbook product of
    length 2m - 1, reduced from the top down by x^m = -(c_0 + ... +
    c_{m-1} x^{m-1}).  Exact Python ints, reduced mod p once at the end."""
    m = len(modulus) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    low = modulus[:-1]
    while len(prod) > m:
        lead = prod.pop() % p
        if lead:
            for i, c in enumerate(low, len(prod) - m):
                prod[i] -= lead * c
    return tuple([c % p for c in prod])


def mul_coeffs(a: Sequence[int], b: Sequence[int], spec: FieldSpec) -> tuple[int, ...]:
    """a * b over spec on coefficient sequences, reduced or not; the
    result is reduced."""
    p = spec.p
    if spec.degree == 1:
        return (a[0] * b[0] % p,)
    if spec.degree == 2:
        # x^2 = -(c0 + c1 x) with modulus (c0, c1, 1)
        c0, c1, _ = spec.modulus
        hi = a[1] * b[1]
        return ((a[0] * b[0] - hi * c0) % p, (a[0] * b[1] + a[1] * b[0] - hi * c1) % p)
    return _mulmod(a, b, spec.modulus, p)


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Berlekamp's criterion for the monic f = mod of degree m over F_p.

    Row j of the Frobenius matrix Q holds x^(pj) mod f, so v @ Q is the
    p-th power of the polynomial v.  x^(p^m) = x makes f squarefree (f
    divides x^(p^m) - x), and a squarefree f has dim ker(Q - I)
    irreducible factors, so f is irreducible when Q - I also has rank
    m - 1 (linalg.reduce_mod_p)."""
    m = len(mod) - 1
    if m < 2:
        return m == 1
    one, x = (1,) + (0,) * (m - 1), (0, 1) + (0,) * (m - 2)
    x_p = power(x, p, lambda a, b: _mulmod(a, b, mod, p), one)
    rows = [one]
    for _ in range(1, m):
        rows.append(_mulmod(rows[-1], x_p, mod, p))
    frob = np.array(rows, dtype=residue_dtype(p))
    v = np.array(x, dtype=frob.dtype)
    for _ in range(m):
        v = matvec_mod_p(v, frob, p)
    if tuple(v.tolist()) != x:
        return False
    return len(reduce_mod_p(frob - np.eye(m, dtype=int), p)[1]) == m - 1


@dataclass(frozen=True)
class FieldSpec:
    """A finite field F_{p^degree} with a fixed monic irreducible modulus.

    The modulus is stored constant term first and has length degree + 1.
    For prime fields the modulus defaults to x and is never used in
    arithmetic.  Specs compare and hash structurally, so two specs built
    with the same parameters are interchangeable.
    """

    p: int
    degree: int = 1
    modulus: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not is_prime(self.p) or self.p < 5:
            raise ValueError(f"characteristic must be a prime >= 5, got {self.p}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.modulus == ():  # _lex_min_irreducible certifies its modulus
            mod = (0, 1) if self.degree == 1 else _lex_min_irreducible(self.p, self.degree)
        else:
            mod = tuple(int(c) % self.p for c in self.modulus)
            if len(mod) != self.degree + 1 or mod[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {self.degree}, got {self.modulus}"
                )
            if not _is_irreducible(mod, self.p):
                raise ValueError(f"modulus {mod} is reducible over F_{self.p}")
        object.__setattr__(self, "modulus", mod)

    # -- basic data ----------------------------------------------------

    @property
    def order(self) -> int:
        return self.p**self.degree

    def __repr__(self) -> str:
        if self.degree == 1:
            return f"FieldSpec(p={self.p})"
        return f"FieldSpec(p={self.p}, degree={self.degree}, modulus={self.modulus})"

    def encode(self) -> str:
        """Field tag used in serialized curves, e.g. '7^2'."""
        return f"{self.p}^{self.degree}"

    # -- element construction -------------------------------------------

    def __call__(self, value: int | Sequence[int] | "FieldElement") -> "FieldElement":
        """Coerce an integer (constant) or coefficient sequence to an element."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.degree - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.degree:
            raise ValueError(
                f"expected {self.degree} coefficients, got {len(coeffs)}"
            )
        return FieldElement(self, coeffs)

    def zero(self) -> "FieldElement":
        return self(0)

    def one(self) -> "FieldElement":
        return self(1)

    def gen(self) -> "FieldElement":
        """The class of x, i.e. a root of the modulus (degree >= 2)."""
        if self.degree < 2:
            raise ValueError("prime fields have no extension generator")
        return self((0, 1) + (0,) * (self.degree - 2))

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements in canonical (lexicographic) order."""
        for rev in _cartesian(range(self.p), repeat=self.degree):
            yield FieldElement(self, rev)


@dataclass(frozen=True)
class FieldElement:
    """An element of a fixed FieldSpec.  Immutable and hashable."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    # -- helpers ---------------------------------------------------------

    def _same(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or (
            other.spec is not self.spec and other.spec != self.spec
        ):
            raise ValueError("operands must share the same FieldSpec")

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def encode(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"<{self.encode()} in F_{self.spec.p}^{self.spec.degree}>"

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "FieldElement":
        p = self.spec.p
        return FieldElement(self.spec, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(self.spec, mul_coeffs(self.coeffs, other.coeffs, self.spec))

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("zero has no inverse")
        return self ** (self.spec.order - 2)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        spec = self.spec
        if spec.degree == 1:
            return FieldElement(spec, (pow(self.coeffs[0], e, spec.p),))
        base = self if e >= 0 else self.inverse()
        return power(base, abs(e), _mul, spec.one())


# ----------------------------------------------------------------------
# Squares and square roots.


def is_square(a: FieldElement) -> bool:
    """Whether a is a square in its field (zero counts as a square)."""
    if not a:
        return True
    q = a.spec.order
    return a ** ((q - 1) // 2) == a.spec.one()


def smallest_nonsquare(spec: FieldSpec) -> FieldElement:
    """First non-square in canonical element order.

    Nonzero elements come in canonical order as (0, ..., 0, c, rest):
    more leading zeros first, then c ascending, then rest.  In even
    degree every element of F_p is a square, so c * a has the quadratic
    character of a for c in F_p^*, and dividing a non-square by its
    leading c gives one no later in that order: only c = 1 is tested.
    """
    m = spec.degree
    leads = range(1, spec.p) if m % 2 else (1,)
    nonzero = (
        (0,) * j + (c,) + rest
        for j in reversed(range(m))
        for c in leads
        for rest in _cartesian(range(spec.p), repeat=m - 1 - j)
    )
    for coeffs in nonzero:
        a = FieldElement(spec, coeffs)
        if not is_square(a):
            return a
    raise ValueError(f"no non-square found in {spec!r}")  # unreachable for q odd


def sqrt(a: FieldElement) -> FieldElement:
    """Deterministic square root by Tonelli-Shanks, for every odd q: the
    root with lexicographically smaller coefficient vector, so the root
    does not depend on the method.  Raises ValueError on non-squares."""
    if not a:
        return a
    if not is_square(a):
        raise ValueError(f"{a!r} is not a square")
    r = _tonelli_shanks(a)
    return min(r, -r, key=lambda e: e.coeffs)


def _tonelli_shanks(a: FieldElement) -> FieldElement:
    spec = a.spec
    q = spec.order
    t = q - 1
    s = 0
    while t % 2 == 0:
        t //= 2
        s += 1
    z = smallest_nonsquare(spec)
    m = s
    c = z**t
    u = a**t
    r = a ** ((t + 1) // 2)
    one = spec.one()
    while u != one:
        i = 0
        probe = u
        while probe != one:
            probe = probe * probe
            i += 1
            if i == m:
                raise ValueError(f"{a!r} is not a square")
        b = c ** (1 << (m - i - 1))
        m = i
        c = b * b
        u = u * c
        r = r * b
    return r


def frobenius(a: FieldElement, q: int) -> FieldElement:
    """The q-power Frobenius a -> a**q; q must be a power of the characteristic."""
    if prime_power_radical(q) != a.spec.p:
        raise ValueError(f"{q} is not a positive power of the characteristic {a.spec.p}")
    return a**q


# ----------------------------------------------------------------------
# Embeddings and quadratic extensions.


@lru_cache(maxsize=8)
def _lex_min_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree >= 2 over F_p.

    The tail c_0, ..., c_{degree-1} is read off a base-p counter, c_0 the
    leading digit, which starts at c_0 = 1 because x divides every tail
    with c_0 = 0.  The moduli of the last 8 pairs (p, degree) are kept
    for the process."""
    for counter in range(p ** (degree - 1), p**degree):
        mod = tuple(counter // p**j % p for j in reversed(range(degree))) + (1,)
        if _is_irreducible(mod, p):
            return mod
    raise ValueError(f"no irreducible of degree {degree} over F_{p}")  # unreachable


def _subfield_roots(base: FieldSpec, ext: FieldSpec) -> np.ndarray:
    """The roots in ext of base's modulus, as coefficient rows of ext in
    canonical order.  With q = p^t they all lie in the subfield F_q, the
    F_p kernel of Frob^t - 1 on ext (Frob^t maps x^j to (x^q)^j), so the
    modulus is evaluated by Horner on its q elements at once."""
    p, m = base.p, ext.degree
    frob = ext.gen() ** base.order
    images = np.array([(frob**j).coeffs for j in range(m)], dtype=residue_dtype(p))
    basis = kernel_mod_p((images.T - np.eye(m, dtype=int)) % p, p)
    # the q combinations of the t basis vectors; q rows keep the sums far below 2^63
    sub = field_elements(base) @ basis % p
    value = np.zeros_like(sub)
    for c in reversed(base.modulus):
        value = field_mul(value, sub, ext)
        value[:, 0] = (value[:, 0] + c) % p
    roots = sub[~value.any(axis=1)]
    return roots[np.argsort(element_index(roots, ext))]


@dataclass(frozen=True)
class QuadraticExtension:
    """F_{q^2} = ext over F_q = base, with the recorded embedding of base.

    gen_powers holds the images in ext of 1, g, g^2, ... for the
    generator g of base, so embedding an element is one linear
    combination of them."""

    base: FieldSpec
    ext: FieldSpec
    gen_powers: tuple[FieldElement, ...]

    def embed(self, a: FieldElement) -> FieldElement:
        if a.spec != self.base:
            raise ValueError("element does not belong to the embedding's source field")
        acc = self.ext.zero()
        for c, img in zip(a.coeffs, self.gen_powers):
            if c:
                acc = acc + self.ext(c) * img
        return acc


def quadratic_extension(
    base: FieldSpec, modulus: tuple[int, ...] | None = None
) -> QuadraticExtension:
    """Build F_{q^2} over F_q = base and record the embedding.

    Prime base: modulus defaults to x^2 - n, n the smallest non-square
    >= 2, and the embedding is the constant one.  Non-prime base: the
    extension is a flat degree-2t extension of F_p (lexicographically
    smallest modulus unless one is supplied) and the base generator maps
    to the lexicographically smallest root of the base modulus.
    """
    p = base.p
    if base.degree == 1 and modulus is None:
        modulus = (-smallest_nonsquare(base).coeffs[0] % p, 0, 1)
    ext = FieldSpec(p, 2 * base.degree, tuple(modulus or ()))
    g = ext.one() if base.degree == 1 else ext(_subfield_roots(base, ext)[0].tolist())
    powers = tuple(g**j for j in range(base.degree))
    return QuadraticExtension(base, ext, powers)
