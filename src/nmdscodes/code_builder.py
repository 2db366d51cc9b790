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
vanishing codewords and output all read it.  build_code gathers
1/(x - x_Q) at every point from the field's inverse table and doubles
its powers, each product written in place into block column 0 of that
array (linalg.field_mul), then fills the other columns (fill_regular).
One elimination on 2k columns certifies the rank, and d on a zero-sum set.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

import numpy as np

from . import budget as _budget
from .elliptic_curve import Curve, Point, find_trace_zero_point
from .errors import CertificationError, HypothesisError
from .finite_field import FieldElement, FieldSpec, QuadraticExtension
from .linalg import (
    element_index,
    field_elements,
    field_mul,
    fill_regular,
    inverse_table,
    kernel_basis,
    matvec_mod_p,
    rank,
    regular_matrix,
    residue_dtype,
)
from .subset_designs import AbelianGroup, count_subsets


@dataclass(frozen=True)
class DivisorSpec:
    """D = k(Q + phi(Q)) with Q trace-zero over the quadratic extension.

    phi(Q) = -Q, so Q + phi(Q) is the zero divisor of x - x_Q, and k and
    x_Q = x_base, a base-field element, fix D."""

    k: int
    x_base: FieldElement

    def __post_init__(self) -> None:
        if self.k < 1:
            raise HypothesisError(f"k must be >= 1, got {self.k}")


def make_divisor(curve: Curve, ext: QuadraticExtension, k: int) -> DivisorSpec:
    """D = k(Q + phi(Q)) from the first trace-zero point Q, which
    find_trace_zero_point certifies; D keeps k and x(Q)."""
    return DivisorSpec(k=k, x_base=find_trace_zero_point(curve, ext)[1])


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

    def gen_rows_json(self) -> list[list[int]] | list[list[str]]:
        """Generator rows for JSON output: residues (ints) over prime
        fields, encoded elements (as in text_grid) over extension fields."""
        if self.field.degree == 1:
            return self.matrix.tolist()
        return list(self._encoded_rows())

    def _encoded_rows(self) -> Iterator[list[str]]:
        """Entries as FieldElement.encode gives them, row by row, read from
        one name per field element unless the field outnumbers the entries."""
        coeffs = self.coefficients()
        if self.field.order > self.k_dim * self.n:
            return ([",".join(map(str, c)) for c in row.tolist()] for row in coeffs)
        names = [",".join(map(str, c)) for c in field_elements(self.field).tolist()]
        return ([names[i] for i in element_index(row, self.field).tolist()] for row in coeffs)

    def text_grid(self) -> str:
        """Plain text matrix, rows of space-separated entries, encoded in turn."""
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
    vanishes.  inv is gathered from linalg.inverse_table (a placeholder
    at infinity); inv^(s+1..s+t) = inv^s inv^(1..t) doubles it, each row
    written in place into block column 0 of code.matrix (linalg.field_mul).
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
    elements, at_infinity = field_elements(spec), np.flatnonzero(pts.x < 0)
    diff = (elements[pts.x] - np.array(divisor.x_base.coeffs, dtype=dtype)) % p
    diff[at_infinity] = 1  # a placeholder: these columns are cleared below
    on_pole = np.flatnonzero(~diff.any(axis=1))
    if on_pole.size:
        pt = points[on_pole[0]]
        raise HypothesisError(f"point {pt.encode()} hits the pole x = {divisor.x_base.encode()}")
    blocks = np.empty((2 * k, m, n, m), dtype=dtype)
    rows = blocks[..., 0].transpose(0, 2, 1)  # block column 0, a 2k x n x m view
    rows[0] = np.eye(1, m, dtype=dtype)
    rows[1] = inverse_table(spec)[element_index(diff, spec)]
    s = 1
    while s < k:  # rows s+1..s+t from row s and rows 1..t, t <= s
        t = min(s, k - s)
        field_mul(rows[s], rows[1 : t + 1], spec, out=rows[s + 1 : s + t + 1])
        s += t
    field_mul(elements[pts.y], rows[2 : k + 1], spec, out=rows[k + 1 :])
    rows[1:, at_infinity] = 0
    mat = fill_regular(blocks, spec)
    columns = tuple(range(2 * k)) if columns is None else tuple(columns)
    certificate = (columns, _certify_rank(mat, spec, columns))
    return LinearCode(field=spec, n=n, k_dim=2 * k, matrix=mat, certificate=certificate)


def _certify_rank(mat: np.ndarray, spec: FieldSpec, columns: Sequence[int]) -> np.ndarray | None:
    """Prove the matrix G over spec whose regular matrix is mat of full
    row rank from K = {u : u G_S = 0}, S the columns: any u with u G = 0
    lies in K, so K = 0 or K = span(u0) with u0 G != 0 proves it; a larger
    K falls back to the rank of G.  Returns u0 G (n x m coefficients) when
    K = span(u0), else None; a deficient rank raises CertificationError."""
    p, m = spec.p, spec.degree
    blocks = mat.reshape(len(mat) // m, m, -1, m)
    ker = kernel_basis(blocks[:, :, list(columns)].transpose(2, 1, 0, 3).reshape(-1, len(mat)), spec)
    if len(ker) == 1:  # u0 G by block columns t, each a view: G is never copied
        u0 = ker[0].reshape(len(blocks), m)
        word = sum(matvec_mod_p(u0[:, t], blocks[..., t].reshape(len(u0), -1), p) for t in range(m))
        word = (word % p).reshape(m, -1).T
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
