"""Evaluation codes from elliptic-curve function spaces.

The divisor is D = k(Q + phi(Q)) for a trace-zero point Q over F_{q^2}
whose x-coordinate x_Q lies in F_q.  A basis of the associated function
space is

    1,  1/(x - x_Q)^i (1 <= i <= k),  y/(x - x_Q)^j (2 <= j <= k),

2k functions in total, all defined over F_q and finite at every rational
point (no rational point has x = x_Q because x^3 + a4 x + b is a
non-square there).  Evaluating them at all of E(F_q) gives a 2k x n
generator matrix; by construction the code is [n, 2k, >= n - 2k], and it
is near-MDS exactly when some 2k rational points sum to infinity.

The matrix takes one inverse of x - x_Q per point, then successive
powers: on int64 residues over prime fields (linalg.on_residues), in
FieldElement products over extension fields and wider primes.
evaluate_rr, one function at one point, is the reference for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from . import budget as _budget
from .elliptic_curve import Curve, Point
from .errors import BudgetError, CertificationError, HypothesisError
from .finite_field import FieldElement, FieldSpec, QuadraticExtension
from .linalg import (
    kernel_basis,
    kernel_mod_p,
    matvec_mod_p,
    on_residues,
    rank,
    reduce_mod_p,
    regular_matrix,
    residue_dtype,
)
from .subset_designs import AbelianGroup, count_subsets

__all__ = [
    "RRFunction",
    "DivisorSpec",
    "LinearCode",
    "make_divisor",
    "rr_basis",
    "evaluate_rr",
    "build_code",
    "dual_code",
    "classify_mds_nmds",
    "nmds_structural_check",
    "codeword_vanishing_on",
]


@dataclass(frozen=True)
class RRFunction:
    """One basis function: the constant 1, 1/(x-x_pole)^power, or
    y/(x-x_pole)^power.  x_pole fixes the base field for all kinds."""

    kind: str  # "one" | "inv_pow" | "y_inv_pow"
    power: int
    x_pole: FieldElement

    def __post_init__(self) -> None:
        if self.kind not in ("one", "inv_pow", "y_inv_pow"):
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.kind == "inv_pow" and self.power < 1:
            raise ValueError("inv_pow needs power >= 1")
        if self.kind == "y_inv_pow" and self.power < 2:
            raise ValueError("y_inv_pow needs power >= 2 to stay pole-free at infinity")


@dataclass(frozen=True)
class DivisorSpec:
    """D = k(Q + phi(Q)) with Q trace-zero over the quadratic extension."""

    k: int
    q_point: Point
    phi_q: Point
    x_base: FieldElement  # x(Q) as a base-field element

    def __post_init__(self) -> None:
        if self.k < 1:
            raise HypothesisError(f"k must be >= 1, got {self.k}")


def make_divisor(curve: Curve, ext: QuadraticExtension, k: int) -> DivisorSpec:
    """Construct D = k(Q + phi(Q)) from the first trace-zero point."""
    from .elliptic_curve import find_trace_zero_point

    q_point, lifted, x_base = find_trace_zero_point(curve, ext)
    phi_q = lifted.frobenius_map(q_point, curve.field.order)
    return DivisorSpec(k=k, q_point=q_point, phi_q=phi_q, x_base=x_base)


def rr_basis(divisor: DivisorSpec) -> list[RRFunction]:
    """The 2k basis functions for D = k(Q + phi(Q))."""
    k = divisor.k
    xp = divisor.x_base
    basis = [RRFunction("one", 0, xp)]
    basis += [RRFunction("inv_pow", i, xp) for i in range(1, k + 1)]
    basis += [RRFunction("y_inv_pow", j, xp) for j in range(2, k + 1)]
    return basis


def evaluate_rr(f: RRFunction, pt: Point) -> FieldElement:
    """Evaluate a basis function at a rational point.

    At infinity the constant evaluates to 1 and every other basis
    function vanishes (all have strictly positive valuation there), so
    the column at infinity is (1, 0, ..., 0).
    """
    spec = f.x_pole.spec
    if pt.is_infinity:
        return spec.one() if f.kind == "one" else spec.zero()
    if f.kind == "one":
        return spec.one()
    diff = pt.x - f.x_pole
    if not diff:
        raise HypothesisError(
            f"point {pt.encode()} hits the pole x = {f.x_pole.encode()}"
        )
    inv = diff.inverse() ** f.power
    if f.kind == "inv_pow":
        return inv
    return pt.y * inv


@dataclass(frozen=True)
class LinearCode:
    """An [n, k_dim] code over field, given by a full-rank generator matrix.

    eval_points records the coordinate labels (curve points) when the
    code came from an evaluation construction; dual codes inherit them.
    _residues is the generator matrix as residues when the builder
    already had it (build_code does); read it through residues().
    """

    field: FieldSpec
    n: int
    k_dim: int
    gen: tuple[tuple[FieldElement, ...], ...]
    eval_points: tuple[Point, ...] | None = None
    _residues: np.ndarray | None = dataclass_field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.gen) != self.k_dim or any(len(r) != self.n for r in self.gen):
            raise ValueError("generator matrix shape disagrees with (n, k_dim)")
        if self._residues is not None and self._residues.shape != (self.k_dim, self.n):
            raise ValueError("residue matrix shape disagrees with (n, k_dim)")

    def residues(self) -> np.ndarray:
        """The generator matrix over a prime field as a read-only residue
        array (int64 when on_residues, Python ints beyond), read from gen
        by regular_matrix on first use unless the builder supplied it."""
        if self.field.degree != 1:
            raise ValueError("integer rows only make sense over prime fields")
        if self._residues is None:
            if self.gen:
                mat = regular_matrix(self.gen, self.field)
            else:
                mat = np.zeros((0, self.n), dtype=residue_dtype(self.field.p))
            mat.flags.writeable = False
            object.__setattr__(self, "_residues", mat)
        return self._residues

    def gen_rows_int(self) -> list[list[int]]:
        """Residue rows; prime fields only."""
        return self.residues().tolist()

    def gen_rows_json(self) -> list[list[int]] | list[list[str]]:
        """Generator rows for JSON output: residues over prime fields,
        encoded elements (as in to_json) over extension fields."""
        if self.field.degree == 1:
            return self.gen_rows_int()
        return self.to_json()["gen"]

    def to_json(self) -> dict:
        return {
            "field": self.field.encode(),
            "n": self.n,
            "k": self.k_dim,
            "gen": [[v.encode() for v in row] for row in self.gen],
        }

    def text_grid(self) -> str:
        """Plain text matrix, rows of space-separated entries."""
        return "\n".join(" ".join(v.encode() for v in row) for row in self.gen)


def build_code(curve: Curve, divisor: DivisorSpec, points: Sequence[Point]) -> LinearCode:
    """Evaluate the basis at the rational points (all of them, in
    Curve.points order); [n, 2k] generator matrix.

    Requires 0 < 2k < n.  Full rank 2k is asserted exactly; a deficiency
    would contradict the construction and raises CertificationError.
    Over on_residues fields the code keeps the residue matrix it was
    evaluated on, for LinearCode.residues.
    """
    n = len(points)
    k = divisor.k
    if not 0 < 2 * k < n:
        raise HypothesisError(f"need 0 < 2k < n, got k={k}, n={n}")
    spec = curve.field
    if on_residues(spec):
        mat = _residue_matrix(divisor, points, spec.p)
        mat.flags.writeable = False
        full_rank = len(reduce_mod_p(mat, spec.p)[1]) == 2 * k
        rows = mat.tolist()
        table = {v: spec(v) for v in set().union(*rows)}  # one element per value
        gen = tuple(tuple(map(table.__getitem__, row)) for row in rows)
    else:
        mat = None
        gen = tuple(map(tuple, _element_rows(divisor, points)))
        full_rank = rank(gen, spec) == 2 * k
    if not full_rank:
        raise CertificationError("generator matrix is rank deficient")
    return LinearCode(
        field=spec, n=n, k_dim=2 * k, gen=gen, eval_points=tuple(points), _residues=mat
    )


def _pole_error(pt: Point, divisor: DivisorSpec) -> HypothesisError:
    return HypothesisError(f"point {pt.encode()} hits the pole x = {divisor.x_base.encode()}")


def _element_rows(divisor: DivisorSpec, points: Sequence[Point]) -> list[list[FieldElement]]:
    """The rows of _residue_matrix in FieldElement arithmetic."""
    k = divisor.k
    spec = divisor.x_base.spec
    rows = [[spec.one()] * len(points)] + [[spec.zero()] * len(points) for _ in range(2 * k - 1)]
    for c, pt in enumerate(points):
        if pt.is_infinity:
            continue
        diff = pt.x - divisor.x_base
        if not diff:
            raise _pole_error(pt, divisor)
        inv = power = rows[1][c] = diff.inverse()
        for i in range(2, k + 1):
            power = power * inv
            rows[i][c] = power
            rows[k + i - 1][c] = pt.y * power
    return rows


def _residue_matrix(divisor: DivisorSpec, points: Sequence[Point], p: int) -> np.ndarray:
    """The rr_basis evaluations as int64 residues over F_p, row by row
    as evaluate_rr gives them: ones, inv^i (1 <= i <= k) and y inv^j
    (2 <= j <= k) with inv = 1/(x - x_Q), and (1, 0, ..., 0) at infinity."""
    k = divisor.k
    affine = [i for i, pt in enumerate(points) if not pt.is_infinity]
    x_pole = divisor.x_base.coeffs[0]
    diff = [(points[i].x.coeffs[0] - x_pole) % p for i in affine]
    if 0 in diff:
        raise _pole_error(points[affine[diff.index(0)]], divisor)
    inv = np.array([pow(d, -1, p) for d in diff], dtype=np.int64)
    ys = np.array([points[i].y.coeffs[0] for i in affine], dtype=np.int64)
    mat = np.zeros((2 * k, len(points)), dtype=np.int64)
    mat[0] = 1
    power = np.ones_like(inv)
    for i in range(1, k + 1):
        power = power * inv % p
        mat[i, affine] = power
        if i >= 2:
            mat[k + i - 1, affine] = ys * power % p
    return mat


def dual_code(code: LinearCode) -> LinearCode:
    """The dual [n, n - k_dim] code via an exact null-space computation."""
    ker = kernel_basis([list(r) for r in code.gen], code.field)
    gen = tuple(tuple(row) for row in ker)
    return LinearCode(
        field=code.field,
        n=code.n,
        k_dim=code.n - code.k_dim,
        gen=gen,
        eval_points=code.eval_points,
    )


def classify_mds_nmds(group: AbelianGroup, k: int) -> str:
    """"NMDS" when some 2k rational points sum to infinity, else "MDS".

    group is the rational point group (PointGroupMap.group); the count
    of its zero-sum 2k-subsets is evaluated in closed form.
    """
    return "NMDS" if count_subsets(group, 2 * k, group.zero()) > 0 else "MDS"


def nmds_structural_check(code: LinearCode, budget: int | None = None) -> bool:
    """Decide near-MDS-ness directly from the generator matrix.

    Checks the three defining column conditions for an [n, k] code:
    every k-1 columns are independent, some k columns are dependent, and
    every k+1 columns have full rank k.  Column-subset enumeration is
    budgeted; over budget raises BudgetError.
    """
    n, k = code.n, code.k_dim
    if not 1 <= k <= n - 1:
        raise HypothesisError(f"need 1 <= k_dim <= n-1, got k={k}, n={n}")
    work = comb(n, k - 1) + comb(n, k) + comb(n, k + 1)
    limit = _budget.enumeration_budget(budget, _budget.COLUMN_SUBSETS)
    if work > limit:
        raise BudgetError(f"{work} column subsets exceed budget {limit}")

    def col_rank(idx: tuple[int, ...]) -> int:
        return rank([[row[c] for c in idx] for row in code.gen], code.field)

    if any(col_rank(idx) != k - 1 for idx in combinations(range(n), k - 1)):
        return False
    if not any(col_rank(idx) < k for idx in combinations(range(n), k)):
        return False
    if any(col_rank(idx) != k for idx in combinations(range(n), k + 1)):
        return False
    return True


def codeword_vanishing_on(code: LinearCode, positions: tuple[int, ...]) -> list[FieldElement]:
    """A nonzero codeword vanishing on the given positions.

    The column submatrix must have a one-dimensional kernel on message
    space; used to exhibit minimum-weight codewords from known supports.
    Over prime fields the kernel and the word m * G are computed on
    code.residues().
    """
    spec = code.field
    # message vectors m with m * G[:, positions] = 0: kernel of transpose
    if on_residues(spec):
        gen = code.residues()
        ker = kernel_mod_p(gen[:, list(positions)].T, spec.p)
    else:
        ker = kernel_basis([[row[c] for row in code.gen] for c in positions], spec)
    if len(ker) != 1:
        raise CertificationError(
            f"expected a unique codeword direction, kernel has dimension {len(ker)}"
        )
    if on_residues(spec):
        return list(map(spec, matvec_mod_p(ker[0], gen, spec.p).tolist()))
    zero = spec.zero()
    return [sum((m * g for m, g in zip(ker[0], col) if m), zero) for col in zip(*code.gen)]
