"""Exact Gaussian elimination over finite fields.

Matrices are lists of rows of FieldElement.  Every field runs the one
elimination reduce_mod_p over F_p on its regular representation, where
an entry a of F_{p^m} becomes the m x m matrix of multiplication by a
(for m = 1, its residue).  The map is a ring embedding and reduced row
echelon forms are unique, so F_p pivots come in whole blocks and the
rank over F_{p^m} is their number divided by m.  Residues are numpy
int64 when (p - 1)^2 < 2^63 and Python ints (dtype=object) otherwise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .finite_field import FieldElement, FieldSpec

Matrix = list[list[FieldElement]]

_INT64_LIMIT = 2**63


def _fits_int64(p: int) -> bool:
    """Whether products of two residues mod p fit in int64."""
    return (p - 1) ** 2 < _INT64_LIMIT


def residue_dtype(p: int) -> type:
    """int64 when products of two residues mod p fit in it, else object
    (Python ints, which cannot wrap)."""
    return np.int64 if _fits_int64(p) else object


def on_residues(spec: FieldSpec) -> bool:
    """Whether spec runs on int64 residues: a prime field with
    (p - 1)^2 < 2^63, so that no product of two residues wraps."""
    return spec.degree == 1 and _fits_int64(spec.p)


def regular_matrix(rows: Sequence[Sequence[FieldElement]], spec: FieldSpec) -> np.ndarray:
    """The F_p matrix of the regular representation: entry a of rows
    becomes the m x m block whose column j holds the coefficients of
    a x^j.  For a prime field this is the residue matrix."""
    p, m = spec.p, spec.degree
    dtype = residue_dtype(p)
    a = np.array([[c for v in row for c in v.coeffs] for row in rows], dtype=dtype)
    a = a.reshape(len(rows), len(rows[0]), m)
    # x^m = -(c_0 + ... + c_{m-1} x^{m-1}) for the modulus (c_0, ..., c_{m-1}, 1)
    low = np.array(spec.modulus[:-1], dtype=dtype)
    blocks = np.empty(a.shape + (m,), dtype=dtype)
    for j in range(m):
        blocks[..., j] = a
        if j + 1 < m:
            top = a[..., -1:]
            a = (np.concatenate((np.zeros_like(top), a[..., :-1]), axis=-1) - top * low) % p
    return blocks.transpose(0, 2, 1, 3).reshape(len(rows) * m, -1)


def rank(rows: Matrix, spec: FieldSpec) -> int:
    """Rank of the matrix over the field."""
    if not rows:
        return 0
    return len(reduce_mod_p(regular_matrix(rows, spec), spec.p)[1]) // spec.degree


def kernel_basis(rows: Matrix, spec: FieldSpec) -> Matrix:
    """Basis of the right kernel {v : rows @ v = 0}, as row vectors: the
    F_p kernel vectors of the first column of each free block of the
    regular matrix, read as coefficient vectors."""
    if not rows:
        return []
    m = spec.degree
    ker = kernel_mod_p(regular_matrix(rows, spec), spec.p)[::m]
    return [[spec(c) for c in v] for v in ker.reshape(len(ker), len(rows[0]), m).tolist()]


def _room(p: int) -> int:
    """How many products of two residues can be added to a residue
    before the int64 sum could wrap (at least 1 when on_residues)."""
    return (_INT64_LIMIT - p) // (p - 1) ** 2


def reduce_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an integer matrix over F_p and its
    pivot columns; the rank is the number of pivots.

    Runs on int64 when (p - 1)^2 < 2^63 and on Python ints otherwise.
    Only the pivot column and the pivot row are reduced at each step.
    An update adds less than (p - 1)^2 to any entry, so on int64 the
    whole matrix is reduced once per _room(p) updates, before a sum could
    wrap; Python ints cannot wrap and are reduced once at the end.  Left
    of column c the pivot row is zero, so updates start at column c.
    """
    on_int64 = _fits_int64(p)
    a = np.array(mat, dtype=residue_dtype(p)) % p
    nrows, ncols = a.shape
    room = _room(p) if on_int64 else None
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
    basis = np.zeros((len(free), a.shape[1]), dtype=a.dtype)
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
