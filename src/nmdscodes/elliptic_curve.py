"""Short Weierstrass curves y^2 = x^3 + a4 x + b over exact finite fields.

Characteristic at least 5 throughout, so the short form is fully
general.  Points are affine coordinate pairs or the point at infinity;
the group law is the usual chord-and-tangent construction.

Curve.points lists the points as one PointSet, two arrays of canonical
field-element indices, read from the field's root table
(linalg.root_table), one smaller square root per square: the right-hand
sides of all x are one q x m coefficient array (m = 1 over a prime
field), and their indices look up the roots.  A PointSet is the only
form in which points enter point_group_isomorphism and build_code, and
its constructor checks its arrays.  A Point is built only when one is
read.  find_trace_zero_point reads the same table.  E(F_q) is
Z_n1 + Z_n2 with n1 | n2, and one object certifies it: the discrete-log
table [a]g1 + [b]g2 of point_group_isomorphism, which lists every point
exactly once (the groups handled here are small enough to tabulate).
One path serves every field.  The one chord-and-tangent law runs on
coefficient tuples and is given its inverse: a^(q-2) in Curve._add, and
a row of linalg.inverse_table in the generator walks.  The rest of the
table is one chord addition on coefficient arrays, with inverses from
the same rows.  Each point's label is its residues in Z_n1 + Z_n2, one
row of one array, read off its position in the table by one divmod.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial, reduce
from math import gcd

import numpy as np

from . import budget as _budget
from .errors import CertificationError, HypothesisError
from .finite_field import (
    FieldElement,
    FieldSpec,
    QuadraticExtension,
    frobenius as _ff_frobenius,
    mul_coeffs,
    sqrt,
)
from .linalg import (
    element_index, field_elements, field_mul, inverse_table, root_table,
)
from .numtheory import divisors
from .subset_designs import AbelianGroup


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


class PointSet(Sequence):
    """Points over one field as two integer arrays: x[i] and y[i] are the
    canonical indices (linalg.element_index) of the coordinates of point
    i, both -1 at infinity.  The one form in which points enter the curve
    and code layers: any 1-D integer index arrays of equal length build
    one, and the constructor checks them (HypothesisError): unless empty
    they have an integer dtype, every index lies in -1..q-1, and x is -1
    exactly where y is.  A Sequence[Point] that builds Points only when
    read, one FieldElement per distinct coordinate; a slice is a list.
    The arrays are read-only, and two sets are equal when their fields
    and arrays are."""

    def __init__(self, field: FieldSpec, x: np.ndarray, y: np.ndarray) -> None:
        self.field = field
        x, y = np.asarray(x), np.asarray(y)
        if x.ndim != 1 or x.shape != y.shape:
            raise HypothesisError("a PointSet needs two 1-D index arrays of equal length")
        for a in (x, y) if x.size else ():  # before the cast, which truncates floats and wraps
            if a.dtype.kind not in "iu":
                raise HypothesisError(f"a PointSet needs integer index arrays, got dtype {a.dtype}")
            if not -1 <= a.min() <= a.max() < field.order:
                raise HypothesisError(f"a PointSet over {field!r} needs indices in -1..{field.order - 1}")
        self.x, self.y = x.astype(np.intp), y.astype(np.intp)
        self.x.flags.writeable = self.y.flags.writeable = False
        if not np.array_equal(self.x < 0, self.y < 0):
            raise HypothesisError("a PointSet needs x = -1 exactly where y = -1 (infinity)")

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._points(self.x[i], self.y[i])
        return self._points(self.x[[i]], self.y[[i]])[0]

    def __iter__(self) -> Iterator[Point]:
        return iter(self[:])

    def _points(self, x: np.ndarray, y: np.ndarray) -> list[Point]:
        xs, ys = x.tolist(), y.tolist()
        used = list(set(xs + ys) - {-1})
        rows = field_elements(self.field)[used].tolist()
        elements = {c: FieldElement(self.field, tuple(row)) for c, row in zip(used, rows)}
        elements[-1] = None  # both coordinates of the point at infinity
        return [Point(elements[a], elements[b]) for a, b in zip(xs, ys)]

    def _key(self) -> tuple:
        return self.field, self.x.tobytes(), self.y.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointSet) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(affine, xs, ys): the positions of the affine points and the
        coefficient arrays of their coordinates."""
        affine = np.flatnonzero(self.x >= 0)
        elements = field_elements(self.field)
        return affine, elements[self.x[affine]], elements[self.y[affine]]


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a4 x + b over field, refused when singular
    (HypothesisError).  a4 and b may be ints or elements of field: the
    constructor coerces them, so Curve(FieldSpec(7), 0, 2) is y^2 = x^3 + 2."""

    field: FieldSpec
    a4: int | FieldElement
    b: int | FieldElement

    def __post_init__(self) -> None:
        a4, b = self.field(self.a4), self.field(self.b)
        object.__setattr__(self, "a4", a4)
        object.__setattr__(self, "b", b)
        f = self.field
        disc = f(4) * a4 * a4 * a4 + f(27) * b * b
        if not disc:
            raise HypothesisError(f"singular curve: 4*a4^3 + 27*b^2 = 0 over {f!r}")

    def encode(self) -> str:
        return f"q={self.field.encode()};a4={self.a4.encode()};b={self.b.encode()}"

    def rhs(self, x: FieldElement) -> FieldElement:
        return x * x * x + self.a4 * x + self.b

    def _rhs(self, x: np.ndarray) -> np.ndarray:
        """x^3 + a4 x + b for each row of the coefficient array x."""
        spec = self.field
        a4, b = (np.array(c.coeffs, dtype=x.dtype) for c in (self.a4, self.b))
        return (field_mul((field_mul(x, x, spec) + a4) % spec.p, x, spec) + b) % spec.p

    def _rhs_roots(self, x: np.ndarray) -> np.ndarray:
        """Root-table entry of x^3 + a4 x + b for each row of the
        coefficient array x: the index of its smaller root, -1 if it is
        not a square."""
        return root_table(self.field)[element_index(self._rhs(x), self.field)]

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

    def _require_points(self, points: PointSet) -> None:
        """The one gate of the curve and code layers: points must be a
        PointSet over this curve's field (HypothesisError)."""
        if not (isinstance(points, PointSet) and points.field == self.field):
            raise HypothesisError(f"points must be a PointSet over {self.field!r}")

    # -- group law -------------------------------------------------------

    def add(self, p1: Point, p2: Point) -> Point:
        """p1 + p2; both points are checked for membership at entry
        (HypothesisError off the curve)."""
        self._require(p1)
        self._require(p2)
        return self._add(p1, p2)

    def _add(self, p1: Point, p2: Point) -> Point:
        """Chord-and-tangent sum of two points known to be on the curve,
        dividing by a^(q-2) (FieldElement.inverse)."""
        spec = self.field
        pair = self._chord_tangent(
            *(None if pt.is_infinity else (pt.x.coeffs, pt.y.coeffs) for pt in (p1, p2)),
            lambda d: FieldElement(spec, d).inverse().coeffs)
        return Point.infinity() if pair is None else Point(*(FieldElement(spec, c) for c in pair))

    def _chord_tangent(self, p1: tuple | None, p2: tuple | None, inverse: Callable) -> tuple | None:
        """p1 + p2 for points on the curve, each an (x, y) pair of
        coefficient tuples or None at infinity: the one chord-and-tangent
        law.  inverse(d) is 1/d for a reduced nonzero tuple d."""
        if p1 is None or p2 is None:
            return p1 if p2 is None else p2
        (x1, y1), (x2, y2), spec = p1, p2, self.field
        p = spec.p
        if x1 == x2:
            if y1 != y2 or not any(y1):
                return None
            # tangent line; mul_coeffs reduces, so num is reduced only where read
            num = [3 * c + a for c, a in zip(mul_coeffs(x1, x1, spec), self.a4.coeffs)]
            den = [2 * c for c in y1]
        else:
            num, den = [a - b for a, b in zip(y2, y1)], [a - b for a, b in zip(x2, x1)]
        slope = mul_coeffs(num, inverse(tuple(c % p for c in den)), spec)
        x3 = tuple((s - a - b) % p for s, a, b in zip(mul_coeffs(slope, slope, spec), x1, x2))
        y3 = mul_coeffs(slope, [a - b for a, b in zip(x1, x3)], spec)
        return x3, tuple((s - c) % p for s, c in zip(y3, y1))

    # -- point enumeration and structure ----------------------------------

    def points(self, budget: int | None = None) -> PointSet:
        """All rational points: infinity first, then affine points in
        lexicographic order of (x, y) coefficient vectors.

        x runs over the field in canonical order as one coefficient
        array, and each right-hand side is looked up in the root table,
        which holds the index of the smaller root r; a square gives
        (x, r) then (x, -r), zero gives (x, 0).  No Point is made."""
        spec = self.field
        what = f"field order {spec.order} exceeds point budget"
        _budget.charge(spec.order, budget, _budget.POINT_CANDIDATES, what)
        x = field_elements(spec)
        r = self._rhs_roots(x)
        # row i: (i, r) when rhs is a square, then (i, -r) when it is nonzero
        take = np.stack((r >= 0, r > 0), axis=1)
        i = np.arange(spec.order)
        xs = np.stack((i, i), axis=1)[take]
        ys = np.stack((r, element_index(-x[r] % spec.p, spec)), axis=1)[take]
        return PointSet(spec, np.concatenate(([-1], xs)), np.concatenate(([-1], ys)))

    def group_structure(self, points: PointSet) -> AbelianGroup:
        """The group of all the points, a PointSet over this curve's field,
        read from their certificate."""
        return point_group_isomorphism(self, points).group

    def change_field(self, ext: QuadraticExtension) -> "Curve":
        """The same curve with coefficients embedded into ext."""
        if ext.base != self.field:
            raise ValueError("extension does not extend this curve's field")
        return Curve(ext.ext, ext.embed(self.a4), ext.embed(self.b))


@dataclass(frozen=True)
class PointGroupMap:
    """The certificate of E(F_q) = group, Z_n1 + Z_n2 or Z_n2 alone when
    it is cyclic: an explicit isomorphism, total on the rational points,
    whose generators realize (1,0) and (0,1), or (1).  residues[i] is the
    label of points[i] = [a]g1 + [b]g2 in group, (a, b), or (b) when the
    group is cyclic: a read-only (N, rank) array, which the curve,
    generators and points determine."""

    curve: Curve
    group: AbelianGroup
    generators: tuple[Point, ...]
    points: PointSet = field(repr=False)
    residues: np.ndarray = field(repr=False, compare=False)


def _multiples(add: Callable, pt: tuple | None, n: int) -> list | None:
    """[0]pt, ..., [n-1]pt if the walk of n additions of pt returns to
    infinity with no repeat (pt has order n), else None."""
    walk = [None]
    acc = pt
    while acc is not None and len(walk) < n:
        walk.append(acc)
        acc = add(acc, pt)
    return walk if acc is None and len(walk) == n else None


def point_group_isomorphism(curve: Curve, points: PointSet) -> PointGroupMap:
    """The structure Z_n1 + Z_n2 of E(F_q), certified by its discrete-log table.

    points must be all rational points of curve, as a PointSet over its
    field (HypothesisError otherwise): each is checked at entry
    (HypothesisError off the curve), and their count against the Hasse
    bound.  Candidates n1 (n1 | gcd(N, q - 1), n1^2 | N) are tried
    from largest down, n2 = N / n1: g2 is the first point of order n2,
    and g1 the first with [n1]g1 = infinity whose multiples [a]g1,
    0 < a < n1, avoid <g2>.  The two returns to infinity make
    (a, b) -> [a]g1 + [b]g2 well defined on Z_n1 + Z_n2 (without [n1]g1
    = infinity a Z_9 would pass as 3x3), and the table, which must list
    the N points each once, makes it bijective.  So the first n1 that
    passes is the structure, and the cyclic case is n1 = 1, g1 = infinity.
    The walks add coefficient tuples by Curve._chord_tangent, inverting
    by linalg.inverse_table, whose q rows the Hasse bound ties to N; the
    entries with a, b > 0 are one chord addition on coefficient arrays,
    since [a]g1 = -[b]g2 would put [a]g1 in <g2>.  Table and points are
    matched on the integer keys index(x) q + index(y), sorted, and the
    table position a n2 + b of each point gives its residues (a, b) by
    one divmod.
    """
    curve._require_points(points)
    spec, n = curve.field, len(points)
    affine, xs, ys = points.coordinates()
    off = affine[((field_mul(ys, ys, spec) - curve._rhs(xs)) % spec.p).any(axis=1)]
    if off.size:
        raise curve._off_curve(points[off[0]])
    q = spec.order
    if (n - q - 1) ** 2 > 4 * q:
        raise CertificationError(f"point count {n} violates the Hasse bound for q={q}")
    elements, inv = field_elements(spec), inverse_table(spec)
    add = partial(curve._chord_tangent,
                  inverse=lambda d: tuple(inv[reduce(lambda i, c: i * spec.p + c, d)].tolist()))

    def pair(i: int) -> tuple | None:
        xy = points.x[i], points.y[i]
        return None if xy[0] < 0 else tuple(tuple(elements[c].tolist()) for c in xy)

    def affine(walk: list) -> np.ndarray:
        return np.array(walk[1:], dtype=elements.dtype).reshape(-1, 2, spec.degree)

    candidates = [d for d in divisors(gcd(n, q - 1)) if n % (d * d) == 0]
    for n1 in sorted(candidates, reverse=True):
        n2 = n // n1
        for i2 in range(n):
            cyclic = _multiples(add, pair(i2), n2)
            if cyclic is not None:
                break
        else:
            continue
        span = set(cyclic[1:])
        for i1 in range(n):
            g1 = pair(i1)
            if g1 in span:
                continue
            row_starts = _multiples(add, g1, n1)
            if row_starts is not None and span.isdisjoint(row_starts[1:]):
                break
        else:
            continue
        group = AbelianGroup(tuple(f for f in (n1, n2) if f > 1))
        rank = len(group.factors)
        table = _table_keys(curve, affine(row_starts), affine(cyclic)).ravel()
        given = np.where(points.x >= 0, points.x * q + points.y, -1)
        by_table, by_given = np.argsort(table), np.argsort(given)
        keys = table[by_table]
        if not (np.array_equal(keys, given[by_given]) and (keys[1:] > keys[:-1]).all()):
            raise CertificationError(
                f"discrete-log table of {curve.encode()} does not list its {n} points"
            )
        position = np.empty(n, dtype=np.int64)
        position[by_given] = by_table
        residues = np.stack(divmod(position, n2), axis=1)[:, 2 - rank :]
        residues.flags.writeable = False
        generators = (points[i1], points[i2])[2 - rank :]
        return PointGroupMap(curve, group, generators, points, residues)
    raise CertificationError(f"no invariant-factor split of {curve.encode()} found")


def _keys(xs: np.ndarray, ys: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """index(x) q + index(y) for each row of the coefficient arrays."""
    return element_index(xs, spec) * spec.order + element_index(ys, spec)


def _table_keys(curve: Curve, row_starts: np.ndarray, cyclic: np.ndarray) -> np.ndarray:
    """The n1 x n2 keys of [a]g1 + [b]g2 (-1 at infinity), from the walks'
    (x, y) coefficient arrays, (n1 - 1, 2, m) of [a]g1 and (n2 - 1, 2, m)
    of [b]g2 for a, b > 0, and their chord sums."""
    spec = curve.field
    (hx, hy), (gx, gy) = row_starts.transpose(1, 0, 2), cyclic.transpose(1, 0, 2)
    n1, n2 = len(row_starts) + 1, len(cyclic) + 1
    x1, y1 = (np.repeat(c, n2 - 1, axis=0) for c in (hx, hy))
    x2, y2 = (np.tile(c, (n1 - 1, 1)) for c in (gx, gy))
    if not (x1 != x2).any(axis=1).all():
        raise CertificationError(f"a discrete-log table entry of {curve.encode()} is a doubling")
    table = np.empty((n1, n2), dtype=np.int64)
    table[0] = np.concatenate(([-1], _keys(gx, gy, spec)))
    table[1:, 0] = _keys(hx, hy, spec)
    table[1:, 1:] = _keys(*_chord_sums(x1, y1, x2, y2, spec), spec).reshape(n1 - 1, n2 - 1)
    return table


def _chord_sums(
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray, spec: FieldSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays of P1 + P2 for the rows of affine points with
    x1 != x2: every x difference is inverted by one gather from the
    field's inverse table (linalg.inverse_table)."""
    p = spec.p
    inv = inverse_table(spec)[element_index((x2 - x1) % p, spec)]
    slope = field_mul(inv, (y2 - y1) % p, spec)
    x3 = (field_mul(slope, slope, spec) - x1 - x2) % p
    return x3, (field_mul(slope, (x1 - x3) % p, spec) - y1) % p


def find_trace_zero_point(curve: Curve, ext: QuadraticExtension) -> tuple[Point, FieldElement]:
    """First point Q over F_{q^2} with x(Q) in F_q and Q + phi(Q) = infinity.

    The first x in canonical order whose right-hand side is a non-square
    (-1 in the root table) is taken, with y its square root drawn in the
    extension.  Q is certified once: it lies on y^2 = x^3 + a4 x + b over
    F_{q^2}, and phi(Q) = (x^q, y^q) is (x, -y), which on the curve is
    exactly Q + phi(Q) = infinity.  Returns (Q, the base-field x).
    """
    if ext.base != curve.field:
        raise ValueError("extension does not extend the curve's field")
    q = curve.field.order
    elements = field_elements(curve.field)
    nonsquares = np.flatnonzero(curve._rhs_roots(elements) < 0)
    if not nonsquares.size:
        raise CertificationError(
            f"every x in F_{q} gives a square right-hand side; no trace-zero point"
        )
    x = curve.field(elements[nonsquares[0]].tolist())
    pt = Point(ext.embed(x), sqrt(ext.embed(curve.rhs(x))))
    if not curve.change_field(ext).contains(pt):
        raise CertificationError("lifted point fails the curve equation")
    if _ff_frobenius(pt.x, q) != pt.x or _ff_frobenius(pt.y, q) != -pt.y:
        raise CertificationError("trace-zero construction failed: Q + frob(Q) != infinity")
    return pt, x
