"""Exact Gaussian elimination over finite fields.

Matrices are lists of rows of FieldElement.  Prime fields whose residue
products fit in int64 (on_residues) run on numpy int64 residue matrices
through one elimination, reduce_mod_p; every other field, wider primes
included, runs the FieldElement elimination.  Both routes are exact (no
floating point).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .finite_field import FieldElement, FieldSpec

Matrix = list[list[FieldElement]]

_INT64_LIMIT = 2**63


def on_residues(spec: FieldSpec) -> bool:
    """Whether spec runs on int64 residues: a prime field with
    (p - 1)^2 < 2^63, so that no product of two residues wraps."""
    return spec.degree == 1 and (spec.p - 1) ** 2 < _INT64_LIMIT


def rank(rows: Matrix, spec: FieldSpec) -> int:
    """Rank of the matrix over the field."""
    if not rows:
        return 0
    if on_residues(spec):
        return len(reduce_mod_p(to_int_matrix(rows), spec.p)[1])
    return len(_eliminate([list(r) for r in rows], spec)[1])


def _eliminate(work: Matrix, spec: FieldSpec) -> tuple[Matrix, list[int]]:
    """In-place reduction to reduced row echelon form; returns the
    matrix and its pivot columns."""
    nrows = len(work)
    ncols = len(work[0])
    pivots: list[int] = []
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


def kernel_basis(rows: Matrix, spec: FieldSpec) -> Matrix:
    """Basis of the right kernel {v : rows @ v = 0}, as row vectors."""
    if not rows:
        return []
    if on_residues(spec):
        ker = kernel_mod_p(to_int_matrix(rows), spec.p)
        return [[spec(x) for x in v] for v in ker.tolist()]
    ncols = len(rows[0])
    work, pivots = _eliminate([list(r) for r in rows], spec)
    basis = []
    zero, one = spec.zero(), spec.one()
    for f in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[f] = one
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][f]
        basis.append(v)
    return basis


def to_int_matrix(rows: Sequence[Sequence[FieldElement]]) -> np.ndarray:
    """Residue matrix for a prime-field FieldElement matrix."""
    return np.array([[v.coeffs[0] for v in row] for row in rows], dtype=np.int64)


def _room(p: int) -> int:
    """How many products of two residues can be added to a residue
    before the int64 sum could wrap (at least 1 when on_residues)."""
    return (_INT64_LIMIT - p) // (p - 1) ** 2


def reduce_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an int64 matrix over F_p and its pivot
    columns; the rank is the number of pivots.  Needs (p - 1)^2 < 2^63.

    Only the pivot column and the pivot row are reduced at each step.
    An update adds less than (p - 1)^2 to any entry, so the whole matrix
    is reduced once per _room(p) updates, before a sum could wrap.  Left
    of column c the pivot row is zero, so updates start at column c.
    """
    a = np.array(mat, dtype=np.int64) % p
    nrows, ncols = a.shape
    room = _room(p)
    unreduced = 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        col = a[:, c] % p
        a[:, c] = col
        rows_below = np.nonzero(col[r:])[0]
        if rows_below.size == 0:
            continue
        piv = r + rows_below[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            col[[r, piv]] = col[[piv, r]]
        row = a[r, c:] % p * pow(int(col[r]), -1, p) % p
        a[r, c:] = row
        col[r] = 0
        if unreduced == room:
            a %= p
            unreduced = 0
        a[:, c:] -= np.outer(col, row)
        unreduced += 1
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a % p, pivots


def kernel_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Right-kernel basis over F_p, rows are basis vectors, read off the
    free columns of reduce_mod_p."""
    a, pivots = reduce_mod_p(mat, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-a[: len(pivots), free].T) % p
    return basis


def matvec_mod_p(vec: np.ndarray, mat: np.ndarray, p: int) -> np.ndarray:
    """vec @ mat over F_p for residues of a prime with (p - 1)^2 < 2^63;
    rows are summed in runs short enough that no partial sum wraps."""
    step = _room(p)
    acc = np.zeros(mat.shape[1], dtype=np.int64)
    for s in range(0, len(vec), step):
        acc = (acc + vec[s : s + step] @ mat[s : s + step]) % p
    return acc
