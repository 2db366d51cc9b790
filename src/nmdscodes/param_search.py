"""Parameter search and catalog assembly for length-p^2 elliptic codes.

A triple (q, p, t) with t = p^2 - q - 1 admits the construction when q
is a prime power >= 7, p an odd prime dividing q - 1, gcd(t, q) = 1 and
t^2 <= 4q.  The search exploits that p | q - 1 forces t = -2 (mod p), so
per prime p only five candidate traces exist inside the Hasse window.

One curve scan serves every q = r^m, on F_q as a q x m coefficient
array with the character read off the field's root table.  From there
the construction runs on integers: the points are one PointSet of field
indices, the point group map, which is the curve's certificate, labels
each point with its residues in Z_p + Z_p, and the code, the witness and
the designs read those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt

import numpy as np

from . import budget as _budget
from .code_analysis import (
    certify_two_design,
    pin_min_distance,
    zero_sum_witness_positions,
)
from .code_builder import (
    DivisorSpec,
    LinearCode,
    build_code,
    classify_mds_nmds,
    make_divisor,
)
from .elliptic_curve import Curve, PointGroupMap, point_group_isomorphism
from .errors import BudgetError, CertificationError, HypothesisError
from .finite_field import FieldSpec, QuadraticExtension, quadratic_extension
from .linalg import element_index, field_elements, field_mul, root_table
from .numtheory import is_prime, padic_valuation, prime_power_radical


@dataclass(frozen=True)
class ParameterTriple:
    """Admissible (q, p, t) with t = p^2 - q - 1."""

    q: int
    p: int
    t: int

    @property
    def n(self) -> int:
        return self.p * self.p

    def code_parameters(self) -> str:
        n = self.n
        return f"[{n},2k,{n}-2k]"

    def to_json(self) -> dict:
        return {"q": self.q, "p": self.p, "t": self.t, "code": self.code_parameters()}


def triple_conditions(q: int, p: int) -> int:
    """Validate the construction hypotheses for (q, p) and return t.

    Each condition raises HypothesisError with its own message so CLI
    diagnostics can name the violated hypothesis.
    """
    r = prime_power_radical(q)
    if r is None or q < 7:
        raise HypothesisError(f"q = {q} is not a prime power >= 7")
    if p < 3 or not is_prime(p):
        raise HypothesisError(f"p = {p} is not an odd prime")
    if (q - 1) % p:
        raise HypothesisError(f"p = {p} does not divide q - 1 = {q - 1}")
    t = p * p - q - 1
    if t % r == 0:
        raise HypothesisError(f"gcd(t, q) > 1 for t = {t}, q = {q} (char {r})")
    if t * t > 4 * q:
        raise HypothesisError(f"t = {t} violates the Hasse window t^2 <= 4q = {4 * q}")
    return t


def _odd_primes_upto(p_max: int) -> list[int]:
    if p_max < 3:
        return []
    sieve = np.ones(p_max + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, isqrt(p_max) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return [int(v) for v in np.nonzero(sieve)[0] if v % 2]


def search_parameters(
    p_max: int, require_positive_t: bool = True, budget: int | None = None
) -> list[ParameterTriple]:
    """All admissible triples with p <= p_max, sorted by q.

    p | q - 1 forces t = -2 (mod p), and t^2 <= 4q = 4(p^2 - 1 - t) is
    exactly (t + 2)^2 <= 4p^2, so the candidate traces per p are
    {-2p-2, -p-2, -2, p-2, 2p-2}; each surviving candidate is
    re-verified from scratch by triple_conditions.  p_max, the length of
    the sieve, is charged against the budget before the sieve exists.
    """
    _budget.charge(p_max, budget, _budget.PRIME_BOUND, f"prime bound {p_max} exceeds budget")
    if p_max < 3:
        return []
    found = []
    for p in _odd_primes_upto(p_max):
        for t in (-2 * p - 2, -p - 2, -2, p - 2, 2 * p - 2):
            if require_positive_t and t < 1:
                continue
            q = p * p - 1 - t
            if q < 7:
                continue
            try:
                checked = triple_conditions(q, p)
            except HypothesisError:
                continue
            if checked != t:
                raise CertificationError(f"trace mismatch at (q={q}, p={p})")
            found.append(ParameterTriple(q=q, p=p, t=t))
    found.sort(key=lambda trip: (trip.q, trip.p))
    return found


def _field_for(q: int) -> FieldSpec:
    """Canonical field of order q (default modulus for prime powers)."""
    r = prime_power_radical(q)
    if r is None:
        raise HypothesisError(f"q = {q} is not a prime power")
    return FieldSpec(r, padic_valuation(q, r))


def _scan(q: int, p: int, budget: int | None) -> Curve | None:
    """First y^2 = x^3 + b, then x^3 + a4 x + b, over F_q with p^2 points.

    (a4, b) runs in canonical order from (0, 1), and every candidate is
    charged q against the budget, singular ones too (4 a4^3 + 27 b^2 = 0,
    skipped); the first candidate's charge is made before any table of
    length q exists.  A candidate has q + 1 + sum_x chi(x^3 + a4 x + b)
    points, the character chi read off the field's root table."""
    what = f"curve scan for q={q} exceeded budget"
    _budget.charge(q, budget, _budget.POINT_CANDIDATES, what)
    spec = _field_for(q)
    r = spec.p
    x = field_elements(spec)
    chi = np.sign(root_table(spec))  # 0 at zero, 1 on squares, -1 elsewhere
    squares = field_mul(x, x, spec)
    cubes = field_mul(squares, x, spec)
    square27 = element_index(27 * squares % r, spec)
    target = p * p
    spent = 0
    for a4 in range(q):
        shifted = (cubes + field_mul(x[a4], x, spec)) % r
        singular = element_index(-4 * cubes[a4 : a4 + 1] % r, spec)[0]
        for b in range(q):
            if a4 == 0 and b == 0:
                continue
            spent += q
            _budget.charge(spent, budget, _budget.POINT_CANDIDATES, what)
            if square27[b] == singular:
                continue
            if q + 1 + int(chi[element_index((shifted + x[b]) % r, spec)].sum()) == target:
                return Curve(spec, spec(x[a4].tolist()), spec(x[b].tolist()))
    return None


def verify_curve(curve: Curve, p: int, budget: int | None = None) -> PointGroupMap:
    """Certify E(F_q) = Z_p + Z_p the slow way: materialize all points,
    check the count, and build the point group map, whose table proves
    the structure; the n1 = p split holds exactly when every point is
    p-torsion (the Hasse bound is asserted on the way).  The map is the
    curve's certificate.  budget caps the point enumeration.  Raises
    HypothesisError when the curve fails."""
    points = curve.points(budget)
    if len(points) != p * p:
        raise HypothesisError(
            f"curve {curve.encode()} has {len(points)} points, needed {p * p}"
        )
    iso = point_group_isomorphism(curve, points)
    if iso.group.factors != (p, p):
        raise HypothesisError(
            f"group structure {iso.group.encode()} of {curve.encode()} is not {p}x{p}:"
            f" not every point is {p}-torsion"
        )
    return iso


def find_curve(q: int, p: int, budget: int | None = None) -> PointGroupMap:
    """First curve in the canonical scan with E(F_q) = Z_p + Z_p, verified:
    its point group map.

    The scan counts points by character sums; the winner is re-verified
    by verify_curve, and a failure there is an internal contradiction,
    not a hypothesis problem.
    """
    triple_conditions(q, p)
    return _scan_and_verify(q, p, budget)


def _scan_and_verify(q: int, p: int, budget: int | None) -> PointGroupMap:
    """find_curve after (q, p) has passed triple_conditions."""
    curve = _scan(q, p, budget)
    if curve is None:
        raise BudgetError(
            f"no curve with {p * p} points found over F_{q} within the scanned families"
        )
    try:
        return verify_curve(curve, p, budget=budget)
    except HypothesisError as exc:
        raise CertificationError(f"scan winner failed verification: {exc}") from exc


def check_code_parameters(q: int, p: int, k: int) -> int:
    """Validate (q, p) with triple_conditions and k against p | k,
    0 < 2k < p^2; return the trace t."""
    t = triple_conditions(q, p)
    if k % p or not 0 < 2 * k < p * p:
        raise HypothesisError(f"k = {k} must be a multiple of p with 0 < k < {p * p}/2")
    return t


@dataclass(frozen=True)
class Construction:
    """One [p^2, 2k, p^2 - 2k] code with everything it was built from.

    Built once by construct from the point group map iso, the curve's
    certificate, which holds the curve, its points and their group
    labels; every later stage (classification, witness, supports,
    designs) reads them from here.  iso.residues[i] holds the residues of
    the group element of the point at code coordinate i; the code's rank
    is certified on a zero-sum 2k-set, whose codeword pins dmin when read.
    """

    t: int
    iso: PointGroupMap
    ext: QuadraticExtension
    divisor: DivisorSpec
    code: LinearCode = field(repr=False)

    @property
    def curve(self) -> Curve:
        return self.iso.curve

    @cached_property
    def dmin(self) -> int:
        """The exact minimum distance, pinned by the codeword that
        vanishes on one zero-sum 2k-set of points."""
        return pin_min_distance(self.code, *self.code.certificate)


def construct(
    q: int,
    p: int,
    k: int,
    b: int | None = None,
    modulus: tuple[int, ...] | None = None,
    budget: int | None = None,
) -> Construction:
    """Validate (q, p, k), find the curve (or verify y^2 = x^3 + b), and
    build the extension, divisor k(Q + phi(Q)), point group map and code.

    modulus pins the quadratic extension (constant coefficient first);
    a reducible or malformed one is a HypothesisError.
    """
    t = check_code_parameters(q, p, k)
    if b is None:
        iso = _scan_and_verify(q, p, budget)
    else:
        iso = verify_curve(
            Curve.from_coefficients(_field_for(q), 0, b), p, budget=budget
        )
    try:
        ext = quadratic_extension(iso.curve.field, modulus)
    except ValueError as exc:
        raise HypothesisError(f"bad extension modulus: {exc}") from None
    divisor = make_divisor(iso.curve, ext, k)
    witness = zero_sum_witness_positions(iso.group, iso.residues, k)
    code = build_code(iso.curve, divisor, iso.points, columns=witness)
    return Construction(t=t, iso=iso, ext=ext, divisor=divisor, code=code)


def build_table_row(
    q: int,
    p: int,
    k: int | None = None,
    budget: int | None = None,
    b: int | None = None,
) -> dict:
    """One catalog record: curve, divisor data, code, and design facts.

    Builds the construction once and cross-checks the exact minimum
    distance with a vanishing-codeword witness.  The design block is
    measured when the support family fits the enumeration budget and
    theory-implied otherwise.
    """
    if k is None:
        k = p
    c = construct(q, p, k, b=b, budget=budget)
    verdict = classify_mds_nmds(c.iso.group, k)
    if verdict != "NMDS":
        raise CertificationError(f"expected NMDS, classification says {verdict}")
    dmin = c.dmin
    design = certify_two_design(c.iso.group, c.iso.residues, k, budget=budget)
    return {
        "q": q,
        "p": p,
        "t": c.t,
        "curve": c.curve.encode(),
        "group": c.iso.group.encode(),
        "ext_modulus": ",".join(str(v) for v in c.ext.ext.modulus),
        "xQ": c.divisor.x_base.encode(),
        "k": k,
        "n": c.code.n,
        "dim": c.code.k_dim,
        "dmin": dmin,
        "nmds": True,
        "design": {
            "t": 2,
            "lambda": design.lambda_primal,
            "lambda_dual": design.lambda_dual,
            "b": design.block_count,
            "mode": design.mode,
        },
    }
