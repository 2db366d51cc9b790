"""Short Weierstrass curves y^2 = x^3 + a4 x + b over exact finite fields.

Characteristic at least 5 throughout, so the short form is fully
general.  Points are affine coordinate pairs or the point at infinity;
the group law is the usual chord-and-tangent construction.

Points are listed from the field's root table (linalg.root_table), one
smaller square root per square: the right-hand sides of all x are one
q x m coefficient array (m = 1 over a prime field), and their canonical
indices look up the roots.  find_trace_zero_point reads the same table.
E(F_q) is Z_n1 + Z_n2 with n1 | n2, and one object certifies it: the
discrete-log table [a]g1 + [b]g2 of point_group_isomorphism, which lists
every point exactly once (the groups handled here are small enough to
tabulate).  One certificate routine runs over either point law on ints:
(x, y) residues with pow(d, -1, q) over prime fields, (log x, log y) on
Zech logarithms (linalg.log_table) over extension fields; no Curve._add
runs in it.  FieldElement points are made only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Hashable, Sequence

import numpy as np

from . import budget as _budget
from .errors import BudgetError, CertificationError, HypothesisError
from .finite_field import (
    FieldElement,
    FieldSpec,
    QuadraticExtension,
    frobenius as _ff_frobenius,
    sqrt,
)
from .linalg import element_index, field_elements, field_mul, log_table, root_table
from .numtheory import divisors
from .subset_designs import AbelianGroup, GroupElement


@dataclass(frozen=True)
class Point:
    """A curve point: affine (x, y) or infinity (both None)."""

    x: FieldElement | None
    y: FieldElement | None

    def __post_init__(self) -> None:
        if (self.x is None) != (self.y is None):
            raise ValueError("affine points need both coordinates")

    @classmethod
    def infinity(cls) -> "Point":
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> str:
        if self.is_infinity:
            return "inf"
        return f"({self.x.encode()};{self.y.encode()})"

    def __repr__(self) -> str:
        return self.encode()


@dataclass(frozen=True)
class GroupStructure:
    """Invariant factors of E(F_q): Z_n1 + Z_n2 with n1 | n2 (n1 = 1 for cyclic)."""

    n1: int
    n2: int

    @property
    def order(self) -> int:
        return self.n1 * self.n2

    def encode(self) -> str:
        return f"{self.n1}x{self.n2}" if self.n1 > 1 else str(self.n2)

    @property
    def group(self) -> AbelianGroup:
        return AbelianGroup(tuple(n for n in (self.n1, self.n2) if n > 1))


@dataclass(frozen=True)
class Curve:
    field: FieldSpec
    a4: FieldElement
    b: FieldElement

    def __post_init__(self) -> None:
        a4, b = self.field(self.a4), self.field(self.b)
        object.__setattr__(self, "a4", a4)
        object.__setattr__(self, "b", b)
        f = self.field
        disc = f(4) * a4 * a4 * a4 + f(27) * b * b
        if not disc:
            raise HypothesisError(f"singular curve: 4*a4^3 + 27*b^2 = 0 over {f!r}")

    @classmethod
    def from_coefficients(
        cls, field: FieldSpec, a4: int | FieldElement, b: int | FieldElement
    ) -> "Curve":
        return cls(field, field(a4), field(b))

    def encode(self) -> str:
        return f"q={self.field.encode()};a4={self.a4.encode()};b={self.b.encode()}"

    def rhs(self, x: FieldElement) -> FieldElement:
        return x * x * x + self.a4 * x + self.b

    def _rhs_roots(self, x: np.ndarray) -> np.ndarray:
        """Root-table entry of x^3 + a4 x + b for each row of the
        coefficient array x: the index of its smaller root, -1 if it is
        not a square."""
        spec = self.field
        a4, b = (np.array(c.coeffs, dtype=x.dtype) for c in (self.a4, self.b))
        rhs = field_mul((field_mul(x, x, spec) + a4) % spec.p, x, spec) + b
        return root_table(spec)[element_index(rhs % spec.p, spec)]

    def contains(self, pt: Point) -> bool:
        if pt.is_infinity:
            return True
        if pt.x.spec != self.field:
            return False
        return pt.y * pt.y == self.rhs(pt.x)

    def _require(self, pt: Point) -> None:
        if not self.contains(pt):
            raise self._off_curve(pt)

    def _off_curve(self, pt: Point) -> HypothesisError:
        return HypothesisError(f"point {pt.encode()} is not on {self.encode()}")

    # -- group law -------------------------------------------------------

    def negate(self, pt: Point) -> Point:
        if pt.is_infinity:
            return pt
        return Point(pt.x, -pt.y)

    def add(self, p1: Point, p2: Point) -> Point:
        """p1 + p2; both points are checked for membership at entry
        (HypothesisError off the curve)."""
        self._require(p1)
        self._require(p2)
        return self._add(p1, p2)

    def _add(self, p1: Point, p2: Point) -> Point:
        """Chord-and-tangent sum of two points known to be on the curve."""
        if p1.is_infinity:
            return p2
        if p2.is_infinity:
            return p1
        if p1.x == p2.x:
            if p1.y != p2.y or not p1.y:
                return Point.infinity()
            # tangent line
            f = self.field
            slope = (f(3) * p1.x * p1.x + self.a4) / (f(2) * p1.y)
        else:
            slope = (p2.y - p1.y) / (p2.x - p1.x)
        x3 = slope * slope - p1.x - p2.x
        y3 = slope * (p1.x - x3) - p1.y
        return Point(x3, y3)

    # -- point enumeration and structure ----------------------------------

    def points(self, budget: int | None = None) -> list[Point]:
        """All rational points: infinity first, then affine points in
        lexicographic order of (x, y) coefficient vectors.

        x runs over the field in canonical order as one coefficient
        array, and each right-hand side is looked up in the root table,
        which holds the index of the smaller root r; a square gives
        (x, r) then (x, -r), zero gives (x, 0).  One FieldElement is
        made per field element."""
        limit = _budget.enumeration_budget(budget, _budget.POINT_CANDIDATES)
        if self.field.order > limit:
            raise BudgetError(
                f"field order {self.field.order} exceeds point budget {limit}"
            )
        spec = self.field
        x = field_elements(spec)
        r = self._rhs_roots(x)
        # row i: (i, r) when rhs is a square, then (i, -r) when it is nonzero
        take = np.stack((r >= 0, r > 0), axis=1)
        i = np.arange(spec.order)
        xs = np.stack((i, i), axis=1)[take]
        ys = np.stack((r, element_index(-x[r] % spec.p, spec)), axis=1)[take]
        element = [FieldElement(spec, tuple(c)) for c in x.tolist()]
        return [Point.infinity()] + [
            Point(element[a], element[b]) for a, b in zip(xs.tolist(), ys.tolist())
        ]

    def group_structure(self, points: Sequence[Point]) -> GroupStructure:
        """Invariant factors of all the points, read from their certificate."""
        return point_group_isomorphism(self, points).structure

    def frobenius_map(self, pt: Point, q: int) -> Point:
        """Coordinatewise q-power Frobenius."""
        self._require(pt)
        if pt.is_infinity:
            return pt
        return Point(_ff_frobenius(pt.x, q), _ff_frobenius(pt.y, q))

    def change_field(self, ext: QuadraticExtension) -> "Curve":
        """The same curve with coefficients embedded into ext."""
        if ext.base != self.field:
            raise ValueError("extension does not extend this curve's field")
        return Curve(ext.ext, ext.embed(self.a4), ext.embed(self.b))


@dataclass(frozen=True)
class PointGroupMap:
    """An explicit isomorphism E(F_q) -> Z_n1 + Z_n2, total on the
    rational points; the generators realize (1,0) and (0,1), or (1)
    alone when the group is cyclic."""

    curve: Curve
    structure: GroupStructure
    group: AbelianGroup
    generators: tuple[Point, ...]
    to_element: dict[Point, GroupElement]

    def __call__(self, pt: Point) -> GroupElement:
        return self.to_element[pt]


class _ResidueLaw:
    """The group law the certificate runs on, over a prime field F_q on
    (x, y) residue pairs, None at infinity: key(pt) checks a given point
    for membership (HypothesisError off the curve or in another field)
    and returns its form under the law, add is chord-and-tangent on
    those forms, inverting by pow(d, -1, q)."""

    zero: Hashable = None

    def __init__(self, curve: Curve) -> None:
        self.curve = curve
        self.q, self.a4, self.b = curve.field.p, curve.a4.coeffs[0], curve.b.coeffs[0]

    def _coord(self, e: FieldElement) -> int:
        return e.coeffs[0]

    def _on_curve(self, x: int, y: int) -> bool:
        return not (y * y - (x * x + self.a4) * x - self.b) % self.q

    def key(self, pt: Point) -> tuple[int, int] | None:
        if pt.is_infinity:
            return None
        field = self.curve.field
        if pt.x.spec != field or pt.y.spec != field:
            raise self.curve._off_curve(pt)
        xy = self._coord(pt.x), self._coord(pt.y)
        if not self._on_curve(*xy):
            raise self.curve._off_curve(pt)
        return xy

    def add(self, p1: Hashable, p2: Hashable) -> Hashable:
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        q = self.q
        (x1, y1), (x2, y2) = p1, p2
        if x1 == x2:
            if y1 != y2 or not y1:
                return None
            slope = (3 * x1 * x1 + self.a4) * pow(2 * y1, -1, q) % q
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, q) % q
        x3 = (slope * slope - x1 - x2) % q
        return x3, (slope * (x1 - x3) - y1) % q

    def multiples(self, pt: Hashable, n: int) -> list[Hashable] | None:
        """[0]pt, ..., [n-1]pt if the walk of n additions of pt returns to
        infinity with no repeat (pt has order n), else None."""
        zero = self.zero
        walk = [zero]
        acc = pt
        while acc != zero and len(walk) < n:
            walk.append(acc)
            acc = self.add(acc, pt)
        return walk if acc == zero and len(walk) == n else None


class _LogLaw(_ResidueLaw):
    """The law over F_{p^m}, m > 1, on (log x, log y) pairs to the base g
    of linalg.log_table, -1 for a zero coordinate: a product is a sum of
    logs mod q - 1, g^u + g^v = g^(u + zech[v - u]) and -1 = g^((q-1)/2)."""

    def __init__(self, curve: Curve) -> None:
        spec = curve.field
        self.curve, self.p, self.n = curve, spec.p, spec.order - 1
        self.log, self.zech = (t.tolist() for t in log_table(spec)[1:])
        self.a4, self.b, self.two, self.three, self.minus = map(
            self._coord, (curve.a4, curve.b, spec(2), spec(3), spec(-1))
        )

    def _coord(self, e: FieldElement) -> int:
        return self.log[sum(c * self.p**j for j, c in enumerate(reversed(e.coeffs)))]

    def _on_curve(self, x: int, y: int) -> bool:
        mul, add = self._mul, self._sum
        return mul(y, y) == add(add(mul(x, x, x), mul(self.a4, x)), self.b)

    def _mul(self, *logs: int) -> int:
        return -1 if min(logs) < 0 else sum(logs) % self.n

    def _sum(self, u: int, v: int) -> int:
        if u < 0 or v < 0:
            return max(u, v)
        z = self.zech[(v - u) % self.n]
        return -1 if z < 0 else (u + z) % self.n

    def add(self, p1: Hashable, p2: Hashable) -> Hashable:
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        mul, add, minus = self._mul, self._sum, self.minus
        (x1, y1), (x2, y2) = p1, p2
        if x1 == x2:
            if y1 != y2 or y1 < 0:
                return None
            num, den = add(mul(self.three, x1, x1), self.a4), mul(self.two, y1)
        else:
            num, den = add(y2, mul(minus, y1)), add(x2, mul(minus, x1))
        slope = mul(num, -den % self.n)
        x3 = add(mul(slope, slope), mul(minus, add(x1, x2)))
        return x3, add(mul(slope, add(x1, mul(minus, x3))), mul(minus, y1))


def point_group_isomorphism(curve: Curve, points: Sequence[Point]) -> PointGroupMap:
    """The structure Z_n1 + Z_n2 of E(F_q), certified by its discrete-log table.

    points must be all rational points of curve: each is checked at
    entry (HypothesisError off the curve), and their count against the
    Hasse bound.  Candidates n1 (n1 | gcd(N, q - 1), n1^2 | N) are tried
    from largest down, n2 = N / n1: g2 is the first point of order n2,
    and g1 the first with [n1]g1 = infinity whose multiples [a]g1,
    0 < a < n1, avoid <g2>.  The two returns to infinity make
    (a, b) -> [a]g1 + [b]g2 well defined on Z_n1 + Z_n2 (without [n1]g1
    = infinity a Z_9 would pass as 3x3), and the table, which must list
    the N points each once, makes it bijective.  So the first n1 that
    passes is the structure, and the cyclic case is n1 = 1, g1 = infinity.
    The walks and the table run on residue pairs over prime fields and
    on log pairs over extension fields; either way the map is keyed by the
    given Points and its generators are among them.
    """
    law = _ResidueLaw(curve) if curve.field.degree == 1 else _LogLaw(curve)
    keys = [law.key(pt) for pt in points]
    n = len(points)
    q = curve.field.order
    if (n - q - 1) ** 2 > 4 * q:
        raise CertificationError(f"point count {n} violates the Hasse bound for q={q}")
    candidates = [d for d in divisors(gcd(n, q - 1)) if n % (d * d) == 0]
    for n1 in sorted(candidates, reverse=True):
        n2 = n // n1
        for i2, g2 in enumerate(keys):
            cyclic = law.multiples(g2, n2)
            if cyclic is not None:
                break
        else:
            continue
        span = set(cyclic)
        for i1, g1 in enumerate(keys):
            row_starts = law.multiples(g1, n1)
            if row_starts is not None and span.isdisjoint(row_starts[1:]):
                break
        else:
            continue
        structure = GroupStructure(n1, n2)
        group = structure.group
        rank = len(group.factors)
        table: dict[Hashable, GroupElement] = {}
        for a, acc in enumerate(row_starts):
            for b in range(n2):
                table[acc] = group.element((a, b)[2 - rank :])
                acc = law.add(acc, g2)
        to_element = {pt: table[k] for pt, k in zip(points, keys) if k in table}
        if len(to_element) != n:
            raise CertificationError(
                f"discrete-log table of {curve.encode()} does not list its {n} points"
            )
        generators = (points[i1], points[i2])[2 - rank :]
        return PointGroupMap(curve, structure, group, generators, to_element)
    raise CertificationError(f"no invariant-factor split of {curve.encode()} found")


def find_trace_zero_point(
    curve: Curve, ext: QuadraticExtension
) -> tuple[Point, Curve, FieldElement]:
    """First point Q over F_{q^2} with x(Q) in F_q and Q + frob(Q) = infinity.

    The first x in canonical order whose right-hand side is a non-square
    (-1 in the root table) is taken; the square root drawn in the
    extension then gives Q = (x, y) with y^q = -y, so Q and its Frobenius
    conjugate sum to infinity.  Returns (Q, curve over the extension, the
    base-field x).
    """
    if ext.base != curve.field:
        raise ValueError("extension does not extend the curve's field")
    lifted = curve.change_field(ext)
    q = curve.field.order
    elements = field_elements(curve.field)
    nonsquares = np.flatnonzero(curve._rhs_roots(elements) < 0)
    if not nonsquares.size:
        raise CertificationError(
            f"every x in F_{q} gives a square right-hand side; no trace-zero point"
        )
    x = curve.field(elements[nonsquares[0]].tolist())
    pt = Point(ext.embed(x), sqrt(ext.embed(curve.rhs(x))))
    if not lifted.contains(pt):
        raise CertificationError("lifted point fails the curve equation")
    conj = lifted.frobenius_map(pt, q)
    if not lifted.add(pt, conj).is_infinity:
        raise CertificationError(
            "trace-zero construction failed: Q + frob(Q) != infinity"
        )
    return pt, lifted, x
