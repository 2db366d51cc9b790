"""Slow references that the package's array paths are tested against.

The oracles of linalg and code_builder: Gauss-Jordan elimination,
kernels and codeword mat-vecs one FieldElement at a time, with no numpy,
and the plane-by-plane block loop that linalg.fill_regular replaced.  The
evaluation basis one function at one point (the oracle of build_code),
scalar multiplication by double and add, and the FieldElement group
law.  And the curve-layer paths that the field's root table replaced:
the two curve scans, the two point enumerations and the FieldElement
polynomial root finder.  And the
int-mask subset-sum engine and coverage count that the block-word
engine replaced, with the full non-square scan.  And index_pair, the
entries of one Point in a PointSet's arrays, for tests that edit them.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from nmdscodes.elliptic_curve import Curve, Point
from nmdscodes.errors import BudgetError, HypothesisError
from nmdscodes.finite_field import FieldSpec, is_square
from nmdscodes.linalg import element_index, regular_matrix, residue_dtype
from nmdscodes.param_search import _field_for
from nmdscodes.subset_designs import GroupElement, _check_subset_budget


def eliminate(work, spec):
    """FieldElement Gauss-Jordan, in place, to reduced row echelon form;
    returns the matrix and its pivot columns."""
    nrows = len(work)
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c].inverse()
        work[r] = [v * inv for v in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def reference_kernel(rows, spec):
    """Kernel basis read off the free columns of eliminate."""
    ncols = len(rows[0])
    work, pivots = eliminate([list(r) for r in rows], spec)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [spec.zero()] * ncols
        v[f] = spec.one()
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][f]
        basis.append(v)
    return basis


def coefficients(rows):
    """FieldElement rows as a rows x cols x m coefficient list."""
    return [[list(v.coeffs) for v in row] for row in rows]


def flat_coefficients(vectors):
    """FieldElement vectors as rows of their entries' coefficients in turn."""
    return [[c for v in vec for c in v.coeffs] for vec in vectors]


def regular_matrix_by_planes(coeffs, spec):
    """The regular matrix of a rows x cols x m coefficient array by the
    block loop that linalg.fill_regular replaced: the m coefficient planes
    of a x^t, copied into block column t, step to a x^(t+1) by
    x^m = -(c_0 + ... + c_{m-1} x^{m-1}) with fresh planes each step."""
    p, m = spec.p, spec.degree
    a = np.asarray(coeffs, dtype=residue_dtype(p))
    nrows, ncols = a.shape[:2]
    planes = list(np.moveaxis(a.reshape(nrows, ncols, m), -1, 0))
    blocks = np.empty((nrows, m, ncols, m), dtype=a.dtype)
    for t in range(m):
        for s, plane in enumerate(planes):
            blocks[:, s, :, t] = plane
        if t + 1 < m:
            top = planes[-1]
            planes = [(low - c * top) % p for low, c in zip([0] + planes[:-1], spec.modulus[:-1])]
    return blocks.reshape(nrows * m, ncols * m)


def matrix_of(rows, spec):
    """The regular matrix of FieldElement rows."""
    return regular_matrix(coefficients(rows), spec)


def elements(code):
    """The generator matrix of a LinearCode as FieldElement rows."""
    return [[code.field(c) for c in row] for row in code.coefficients().tolist()]


def vanishing_word(code, positions):
    """The codeword of code_builder.codeword_vanishing_on in FieldElement
    arithmetic: the kernel vector of the transposed columns, times G."""
    gen = elements(code)
    (msg,) = reference_kernel([[row[c] for row in gen] for c in positions], code.field)
    zero = code.field.zero()
    return [sum((m * g for m, g in zip(msg, col) if m), zero) for col in zip(*gen)]


# -- the evaluation basis, one function at one point --------------------


@dataclass(frozen=True)
class RRFunction:
    """One basis function: the constant 1, 1/(x-x_pole)^power, or
    y/(x-x_pole)^power.  x_pole fixes the base field for all kinds."""

    kind: str  # "one" | "inv_pow" | "y_inv_pow"
    power: int
    x_pole: object

    def __post_init__(self):
        if self.kind not in ("one", "inv_pow", "y_inv_pow"):
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.kind == "inv_pow" and self.power < 1:
            raise ValueError("inv_pow needs power >= 1")
        if self.kind == "y_inv_pow" and self.power < 2:
            raise ValueError("y_inv_pow needs power >= 2 to stay pole-free at infinity")


def rr_basis(divisor):
    """The 2k basis functions for D = k(Q + phi(Q))."""
    k = divisor.k
    xp = divisor.x_base
    basis = [RRFunction("one", 0, xp)]
    basis += [RRFunction("inv_pow", i, xp) for i in range(1, k + 1)]
    basis += [RRFunction("y_inv_pow", j, xp) for j in range(2, k + 1)]
    return basis


def evaluate_rr(f, pt):
    """A basis function at a rational point; at infinity the constant is
    1 and every other basis function vanishes."""
    spec = f.x_pole.spec
    if pt.is_infinity:
        return spec.one() if f.kind == "one" else spec.zero()
    if f.kind == "one":
        return spec.one()
    diff = pt.x - f.x_pole
    if not diff:
        raise HypothesisError(f"point {pt.encode()} hits the pole x = {f.x_pole.encode()}")
    inv = diff.inverse() ** f.power
    if f.kind == "inv_pow":
        return inv
    return pt.y * inv


def index_pair(pt):
    """(index(x), index(y)) of a Point, (-1, -1) at infinity: its entries
    in the arrays of a PointSet (linalg.element_index)."""
    if pt.is_infinity:
        return -1, -1
    return tuple(int(element_index(np.array(c.coeffs), c.spec)) for c in (pt.x, pt.y))


def negate(pt):
    """-pt: the reflection (x, -y), infinity fixed."""
    return pt if pt.is_infinity else Point(pt.x, -pt.y)


def add_points(curve, p1, p2):
    """p1 + p2 by chord and tangent in FieldElement arithmetic, each slope
    a FieldElement quotient: the law that Curve._add ran before the
    coefficient-tuple law shared with the certificate's walks."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    if p1.x == p2.x:
        if p1.y != p2.y or not p1.y:
            return Point.infinity()
        f = curve.field
        slope = (f(3) * p1.x * p1.x + curve.a4) / (f(2) * p1.y)
    else:
        slope = (p2.y - p1.y) / (p2.x - p1.x)
    x3 = slope * slope - p1.x - p2.x
    return Point(x3, slope * (p1.x - x3) - p1.y)


def multiply(curve, n, pt):
    """[n]pt by double and add; pt is checked for membership at entry."""
    curve._require(pt)
    if n < 0:
        n, pt = -n, negate(pt)
    acc = Point.infinity()
    base = pt
    while n > 0:
        if n & 1:
            acc = curve._add(acc, base)
        base = curve._add(base, base)
        n >>= 1
    return acc


# -- the curve scans ------------------------------------------------------


def scan_prime_field(q, p, limit):
    """First y^2 = x^3 + b (then x^3 + a x + b) over prime F_q with p^2 points."""
    target = p * p
    spec = FieldSpec(q)
    x = np.arange(q, dtype=np.int64)
    chi = np.full(q, -1, dtype=np.int64)
    chi[(x * x) % q] = 1
    chi[0] = 0
    cubes = (x * x % q) * x % q
    spent = 0
    for a4 in range(q):
        shifted = (cubes + a4 * x) % q
        for b in range(q):
            if a4 == 0 and b == 0:
                continue
            spent += q
            if spent > limit:
                raise BudgetError(f"curve scan for q={q} exceeded budget {limit}")
            if (4 * a4**3 + 27 * b * b) % q == 0:
                continue
            if q + 1 + int(chi[(shifted + b) % q].sum()) == target:
                return Curve(spec, a4, b)
    return None


def scan_extension_field(q, p, limit):
    """The same scan in FieldElement arithmetic, via a set of squares."""
    spec = _field_for(q)
    elems = list(spec.elements())
    squares = {(el * el).coeffs for el in elems}
    cubes = [el * el * el for el in elems]
    target = p * p
    spent = 0
    zero = spec.zero()
    for b in elems:
        if not b:
            continue
        spent += q
        if spent > limit:
            raise BudgetError(f"curve scan for q={q} exceeded budget {limit}")
        count = 1
        for c in cubes:
            rhs = c + b
            if rhs == zero:
                count += 1
            elif rhs.coeffs in squares:
                count += 2
        if count == target:
            return Curve(spec, 0, b)
    for a4 in elems:
        if not a4:
            continue
        for b in elems:
            spent += q
            if spent > limit:
                raise BudgetError(f"curve scan for q={q} exceeded budget {limit}")
            four_a3 = spec(4) * a4 * a4 * a4
            if four_a3 + spec(27) * b * b == zero:
                continue
            count = 1
            for el, c in zip(elems, cubes):
                rhs = c + a4 * el + b
                if rhs == zero:
                    count += 1
                elif rhs.coeffs in squares:
                    count += 2
            if count == target:
                return Curve(spec, a4, b)
    return None


# -- the point enumerations -----------------------------------------------


def points_on_residues(curve):
    """Curve.points over a prime field on a residue root table."""
    spec = curve.field
    q = spec.p
    x = np.arange(q, dtype=residue_dtype(q))
    rhs = ((x * x % q + curve.a4.coeffs[0]) % q * x % q + curve.b.coeffs[0]) % q
    half = x[: (q + 1) // 2]  # the smaller root of each square
    root = np.full(q, -1, dtype=x.dtype)  # -1 marks a non-square
    root[(half * half % q).astype(np.intp)] = half
    r = root[rhs.astype(np.intp)]
    take = np.stack((r >= 0, r > 0), axis=1)
    xs = np.stack((x, x), axis=1)[take].tolist()
    ys = np.stack((r, (q - r) % q), axis=1)[take].tolist()
    element = {v: spec(v) for v in set(xs).union(ys)}
    return [Point.infinity()] + [Point(element[a], element[b]) for a, b in zip(xs, ys)]


def points_by_root_dict(curve):
    """Curve.points in FieldElement arithmetic: a dict maps each square
    to its smaller root."""
    elements = list(curve.field.elements())
    root = {}
    for y in elements:  # the smaller of y, -y comes first
        root.setdefault((y * y).coeffs, y)
    pts = [Point.infinity()]
    for x in elements:
        v = curve.rhs(x)
        if not v:
            pts.append(Point(x, v))
        elif v.coeffs in root:
            y = root[v.coeffs]
            pts.append(Point(x, y))
            pts.append(Point(x, -y))
    return pts


# -- polynomial root finding with FieldElement coefficients ---------------


def _fp_trim(a):
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def _fp_mulmod(a, b, mod):
    spec = mod[0].spec
    out = [spec.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    dm = len(mod) - 1
    minv = mod[-1].inverse()
    _fp_trim(out)
    while len(out) - 1 >= dm:
        lead = out[-1] * minv
        if lead:
            shift = len(out) - 1 - dm
            for i in range(dm):
                out[shift + i] = out[shift + i] - lead * mod[i]
        out.pop()
        _fp_trim(out)
    return out


def _fp_powmod(base, e, mod):
    result = [mod[0].spec.one()]
    base = list(base)
    while e > 0:
        if e & 1:
            result = _fp_mulmod(result, base, mod)
        base = _fp_mulmod(base, base, mod)
        e >>= 1
    return result


def _fp_divmod(a, b):
    """Quotient and remainder of FieldElement polynomials."""
    spec = a[0].spec
    r = list(a)
    q = [spec.zero()] * max(len(a) - len(b) + 1, 1)
    db = len(b) - 1
    binv = b[-1].inverse()
    while len(r) - 1 >= db and any(r):
        lead = r[-1] * binv
        shift = len(r) - 1 - db
        q[shift] = lead
        for i in range(db + 1):
            r[shift + i] = r[shift + i] - lead * b[i]
        r.pop()
        if not r:
            r = [spec.zero()]
        _fp_trim(r)
    return _fp_trim(q), r


def _fp_gcd(a, b):
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while any(b):
        a, b = b, _fp_divmod(a, b)[1]
    inv = a[-1].inverse()
    return [c * inv for c in a]


def roots_in_field(poly_mod_p, ext):
    """All roots in ext of a squarefree polynomial with F_p coefficients
    that splits in ext, sorted: gcds with (x + c)^((Q-1)/2) - 1 for c in
    canonical order split it."""
    roots = []
    stack = [_fp_trim([ext(int(c)) for c in poly_mod_p])]
    half = (ext.order - 1) // 2
    while stack:
        g = stack.pop()
        if len(g) == 2:
            roots.append(-(g[0] / g[1]))
            continue
        for shift in ext.elements():
            probe = _fp_powmod([shift, ext.one()], half, g)
            probe = _fp_trim([probe[0] - ext.one()] + probe[1:])
            h = _fp_gcd(probe, g)
            if 1 < len(h) < len(g):
                stack += [h, _fp_divmod(g, h)[0]]
                break
        else:
            raise ValueError("polynomial did not split")
    return sorted(roots, key=lambda r: r.coeffs)


def smallest_nonsquare_scan(spec):
    """First non-square in canonical element order, by testing every
    element in turn."""
    for a in spec.elements():
        if a and not is_square(a):
            return a
    raise ValueError(f"no non-square found in {spec!r}")


# -- the int-mask subset-sum engine and coverage count ------------------


def _add(a, b, factors):
    return tuple((u + v) % n for u, v, n in zip(a, b, factors))


def _sub(a, b, factors):
    return tuple((u - v) % n for u, v, n in zip(a, b, factors))


def int_half_tables(group, values, k, budget):
    """Check k, charge C(n, k) to the budget, and bucket the subsets of
    each half that can take part in a k-subset, as int bitmasks over all
    positions, by (size, sum)."""
    n = len(values)
    if not 0 <= k <= n:
        raise HypothesisError(f"k must be in 0..{n}, got {k}")
    _check_subset_budget(n, k, budget)
    factors, cap = group.factors, min(k, n - k)
    tables = []
    for lo, hi in ((0, n // 2), (n // 2, n)):
        subsets = [(0, 0, (0,) * len(factors))]
        for i in range(lo, hi):
            subsets += [
                (m | 1 << i, s + 1, _add(t, values[i].residues, factors))
                for m, s, t in subsets if s < cap
            ]
        if cap < k:
            whole, total = (1 << hi) - (1 << lo), (0,) * len(factors)
            for v in values[lo:hi]:
                total = _add(total, v.residues, factors)
            subsets = [(whole ^ m, hi - lo - s, _sub(total, t, factors)) for m, s, t in subsets]
        buckets = {}
        for m, s, t in subsets:
            buckets.setdefault((s, t), []).append(m)
        tables.append(buckets)
    return tables


def int_brute_force_count_table(group, k, exclude_zero=False, budget=None):
    """{x: #k-subsets summing to x} from products of half-bucket sizes."""
    values = [g for g in group.elements() if not (exclude_zero and not g)]
    left, right = int_half_tables(group, values, k, budget)
    by_size = {}
    for (s, b), rm in right.items():
        by_size.setdefault(s, []).append((b, len(rm)))
    table = {}
    for (s, a), lm in left.items():
        for b, c in by_size.get(k - s, ()):
            t = _add(a, b, group.factors)
            table[t] = table.get(t, 0) + len(lm) * c
    return {GroupElement(group, t): c for t, c in table.items()}


def int_subset_sum_masks(values, k, target, budget=None):
    """Int bitmasks of the k-subsets summing to target, ascending."""
    factors = target.group.factors
    left, right = int_half_tables(target.group, values, k, budget)
    out = []
    for (s, a), lm in left.items():
        rm = right.get((k - s, _sub(target.residues, a, factors)))
        if rm:
            out += [u | v for v in rm for u in lm]
    out.sort()
    return out


def int_coverage(v, masks, t):
    """(coverage of {0..t-1}, first t-subset covered differently or None)
    of int bitmask blocks, by popcounts over column bitsets built from
    each mask's bytes."""
    width, pad = (v + 7) // 8, -len(masks) % 64
    raw = b"".join(m.to_bytes(width, "little") for m in masks) + bytes(width * pad)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
    bits = np.unpackbits(rows, axis=1, count=v, bitorder="little")
    cols = np.ascontiguousarray(np.packbits(bits, axis=0).T).view(np.uint64)
    lam = int(np.bitwise_count(np.bitwise_and.reduce(cols[:t], axis=0)).sum())
    for prefix in combinations(range(v - 1), t - 1):
        start = prefix[-1] + 1 if prefix else 0
        acc = np.bitwise_and.reduce(cols[list(prefix)], axis=0, initial=~np.uint64(0))
        bad = np.flatnonzero(np.bitwise_count(acc & cols[start:]).sum(axis=1) != lam)
        if bad.size:
            return lam, prefix + (start + int(bad[0]),)
    return lam, None


def int_verify_design(v, k, masks, t):
    """(lam, witness, simple, b) of verify_design on int bitmask blocks;
    lam is None for an empty block list."""
    b = len(masks)
    if b == 0:
        return None, None, True, 0
    lam, witness = int_coverage(v, masks, t)
    if witness is None:
        assert comb(v, t) * lam == comb(k, t) * b
    return lam, witness, len(set(masks)) == b, b


def mask_ints(words):
    """The int bitmask of each block row."""
    return [int.from_bytes(row.tobytes(), "little") for row in words]
