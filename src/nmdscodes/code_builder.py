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

A code is stored as one array, the F_p regular matrix of its
generator (linalg), for prime and extension fields alike; rank, dual,
vanishing codewords and output all read it.  build_code inverts x - x_Q
at every point in one power on residues, then forms successive powers
as elementwise products on coefficient arrays (linalg.field_mul).  One
elimination on 2k columns certifies the rank, and d on a zero-sum set.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from . import budget as _budget
from .elliptic_curve import Curve, Point
from .errors import CertificationError, HypothesisError
from .finite_field import FieldElement, FieldSpec, QuadraticExtension
from .linalg import (
    element_index,
    field_elements,
    field_mul,
    field_pow,
    kernel_basis,
    matvec_mod_p,
    rank,
    regular_matrix,
    residue_dtype,
)
from .subset_designs import AbelianGroup, count_subsets


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


@dataclass(frozen=True, eq=False)
class LinearCode:
    """An [n, k_dim] code over field, given by a full-rank generator matrix.

    matrix is the generator's F_p regular matrix (linalg.regular_matrix),
    (k_dim m) x (n m) for field F_{p^m}, and is the only form the code
    is stored in; for a prime field it is the residue matrix.  It is made
    read-only; certificate is build_code's (columns, codeword or None).
    """

    field: FieldSpec
    n: int
    k_dim: int
    matrix: np.ndarray = dataclass_field(repr=False)
    certificate: tuple | None = dataclass_field(default=None, repr=False)

    def __post_init__(self) -> None:
        m = self.field.degree
        if self.matrix.shape != (self.k_dim * m, self.n * m):
            raise ValueError("generator matrix shape disagrees with (n, k_dim)")
        self.matrix.flags.writeable = False

    def blocks(self) -> np.ndarray:
        """matrix as a k_dim x m x n x m array: [i, s, j, t] is coefficient
        s of g_ij x^t."""
        m = self.field.degree
        return self.matrix.reshape(self.k_dim, m, self.n, m)

    def coefficients(self) -> np.ndarray:
        """The generator matrix as a k_dim x n x m coefficient array (the
        first column of each block)."""
        return self.blocks()[..., 0].transpose(0, 2, 1)

    def gen_rows_int(self) -> list[list[int]]:
        """Residue rows; prime fields only."""
        if self.field.degree != 1:
            raise ValueError("integer rows only make sense over prime fields")
        return self.matrix.tolist()

    def gen_rows_json(self) -> list[list[int]] | list[list[str]]:
        """Generator rows for JSON output: residues over prime fields,
        encoded elements (as in to_json) over extension fields."""
        if self.field.degree == 1:
            return self.gen_rows_int()
        return self._encoded_rows()

    def _encoded_rows(self) -> list[list[str]]:
        """Entries as FieldElement.encode gives them, read from one name per
        field element unless the field outnumbers the entries."""
        coeffs = self.coefficients()
        if self.field.order > self.k_dim * self.n:
            return [[",".join(map(str, c)) for c in row] for row in coeffs.tolist()]
        names = [",".join(map(str, c)) for c in field_elements(self.field).tolist()]
        return [[names[i] for i in row] for row in element_index(coeffs, self.field).tolist()]

    def to_json(self) -> dict:
        return {
            "field": self.field.encode(),
            "n": self.n,
            "k": self.k_dim,
            "gen": self._encoded_rows(),
        }

    def text_grid(self) -> str:
        """Plain text matrix, rows of space-separated entries."""
        return "\n".join(" ".join(row) for row in self._encoded_rows())


def build_code(
    curve: Curve, divisor: DivisorSpec, points: Sequence[Point], columns: Sequence[int] | None = None
) -> LinearCode:
    """Evaluate the basis at the rational points (all of them, in
    Curve.points order); [n, 2k] generator matrix.  A PointSet is read
    as its arrays; a list of Points is checked and converted first.

    Requires 0 < 2k < n.  Full rank 2k is certified on 2k columns (the
    leading ones by default; _certify_rank), kept with their codeword as
    code.certificate; a deficiency raises CertificationError.
    The rows are the basis of the module docstring: ones, inv^i
    (1 <= i <= k) and y inv^j (2 <= j <= k) with inv = 1/(x - x_Q), and
    (1, 0, ..., 0) at infinity, where every basis function but 1
    vanishes.  inv is one power diff^(q-2) of every pole difference, and
    its powers are elementwise products on residues (linalg.field_mul).
    """
    n = len(points)
    k = divisor.k
    if not 0 < 2 * k < n:
        raise HypothesisError(f"need 0 < 2k < n, got k={k}, n={n}")
    spec = curve.field
    p, m = spec.p, spec.degree
    dtype = residue_dtype(p)
    pts, stop = curve._point_set(points)
    if stop < n:
        raise curve._off_curve(points[stop])
    affine, xs, ys = pts.coordinates()
    diff = (xs - np.array(divisor.x_base.coeffs, dtype=dtype)) % p
    on_pole = np.flatnonzero(~diff.any(axis=1))
    if on_pole.size:
        pt = points[affine[on_pole[0]]]
        raise HypothesisError(f"point {pt.encode()} hits the pole x = {divisor.x_base.encode()}")
    # rows 1..2k-1 at the affine points: inv^1..inv^k, then y inv^2..y inv^k
    rows = np.empty((2 * k - 1, len(affine), m), dtype=dtype)
    rows[0] = field_pow(diff, spec.order - 2, spec)
    for i in range(1, k):
        rows[i] = field_mul(rows[0], rows[i - 1], spec)
    rows[k:] = field_mul(ys, rows[1:k], spec)
    coeffs = np.zeros((2 * k, n, m), dtype=dtype)
    coeffs[0, :, 0] = 1
    coeffs[1:, affine] = rows
    del rows  # freed before the regular matrix is built
    # reduced already: over a prime field the residues are the regular matrix
    mat = coeffs.reshape(2 * k, n) if m == 1 else regular_matrix(coeffs, spec)
    columns = tuple(range(2 * k)) if columns is None else tuple(columns)
    certificate = (columns, _certify_rank(mat, spec, columns))
    return LinearCode(field=spec, n=n, k_dim=2 * k, matrix=mat, certificate=certificate)


def _certify_rank(mat: np.ndarray, spec: FieldSpec, columns: Sequence[int]) -> np.ndarray | None:
    """Prove the matrix G over spec whose regular matrix is mat of full
    row rank from K = {u : u G_S = 0}, S the columns: any u with u G = 0
    lies in K, so K = 0 or K = span(u0) with u0 G != 0 proves it; a larger
    K falls back to the rank of G.  Returns u0 G (n x m coefficients) when
    K = span(u0), else None; a deficient rank raises CertificationError."""
    m = spec.degree
    blocks = mat.reshape(len(mat) // m, m, -1, m)
    ker = kernel_basis(blocks[:, :, list(columns)].transpose(2, 1, 0, 3).reshape(-1, len(mat)), spec)
    if len(ker) == 1:  # u0 G by coefficient planes s, so that G is never copied whole
        by_s = blocks.transpose(1, 0, 3, 2)  # [s, i, t, j], a view
        word = np.stack([matvec_mod_p(ker[0], g.reshape(len(mat), -1), spec.p) for g in by_s], -1)
        if word.any():
            return word
    elif not len(ker) or rank(mat, spec) * m == len(mat):
        return None
    raise CertificationError("generator matrix is rank deficient")


def dual_code(code: LinearCode) -> LinearCode:
    """The dual [n, n - k_dim] code via an exact null-space computation."""
    ker = kernel_basis(code.matrix, code.field)
    return LinearCode(
        field=code.field,
        n=code.n,
        k_dim=code.n - code.k_dim,
        matrix=regular_matrix(ker.reshape(len(ker), code.n, code.field.degree), code.field),
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
    every k+1 columns have full rank k.  Each s-subset is charged the
    k m x s m cells (m the field degree) that its rank eliminates, all
    before the first; over budget raises BudgetError.
    """
    n, k, m = code.n, code.k_dim, code.field.degree
    if not 1 <= k <= n - 1:
        raise HypothesisError(f"need 1 <= k_dim <= n-1, got k={k}, n={n}")
    work = sum(comb(n, s) * k * s * m * m for s in (k - 1, k, k + 1))
    what = f"{work} submatrix cells of column subsets exceed budget"
    _budget.charge(work, budget, _budget.COLUMN_CELLS, what)

    blocks = code.blocks()

    def col_rank(idx: tuple[int, ...]) -> int:
        return rank(blocks[:, :, list(idx)].reshape(len(code.matrix), -1), code.field)

    if any(col_rank(idx) != k - 1 for idx in combinations(range(n), k - 1)):
        return False
    if not any(col_rank(idx) < k for idx in combinations(range(n), k)):
        return False
    if any(col_rank(idx) != k for idx in combinations(range(n), k + 1)):
        return False
    return True


def codeword_vanishing_on(code: LinearCode, positions: tuple[int, ...]) -> np.ndarray:
    """A nonzero codeword vanishing on the given positions, as an n x m
    coefficient array (row j holds the coefficients of entry j).

    The column submatrix must have a one-dimensional kernel on message
    space; used to exhibit minimum-weight codewords from known supports.
    """
    word = _certify_rank(code.matrix, code.field, positions)
    if word is None:
        raise CertificationError("expected a unique codeword direction")
    return word
