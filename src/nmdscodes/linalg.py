"""Exact linear algebra over finite fields, on residue arrays.

A matrix over F_{p^m} is held as its regular representation over F_p:
entry a becomes the m x m block of multiplication by a, whose column j
holds the coefficients of a x^j (for m = 1, the residue of a).  The map
is a ring embedding and reduced row echelon forms are unique, so the
one elimination reduce_mod_p serves every field: F_p pivots come in
whole blocks and the rank over F_{p^m} is their number divided by m.
Storage and arithmetic take separate dtypes.  A stored matrix holds
residues in storage_dtype(p), the narrowest signed int that holds p - 1
(int16 below 2^15, then int32, then int64).  Products and sums are
formed in a dtype that holds an update (a product of two residues plus
a residue) and reduced before a sum could wrap: residue_dtype(p), int64
when (p - 1)^2 < 2^63, for whole fields and vectors; the narrowest such
dtype (_elimination_dtype) for the elimination, and for products bound
for a stored matrix, a few of its rows or columns at a time.  All are
Python ints (dtype=object) once (p - 1)^2 >= 2^63.
fill_regular completes a regular matrix in place from its block column
0, where a caller can write its coefficients.

The same arrays hold whole fields (field_elements, element_index,
field_mul), from which root_table and inverse_table serve the curve
layer and the code for every field; field_pow takes one power of every
row, and a^(q-2) inverts them all.
Over F_{p^m} field_mul is the coefficient-plane twin of
finite_field._mulmod, summed in its out array or a scratch, so regular
matrices serve only the code's linear algebra.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:
    from .finite_field import FieldSpec

_INT64_LIMIT = 2**63
# cells of one widened scratch block (128 KiB in int64): smaller blocks
# cost Python steps, larger ones memory beside a stored matrix
_BLOCK_CELLS = 2**14
T = TypeVar("T")


def _fits_int64(p: int) -> bool:
    """Whether products of two residues mod p fit in int64."""
    return (p - 1) ** 2 < _INT64_LIMIT


def residue_dtype(p: int) -> type:
    """int64 when products of two residues mod p fit in it, else object
    (Python ints, which cannot wrap)."""
    return np.int64 if _fits_int64(p) else object


def storage_dtype(p: int) -> type:
    """The narrowest signed dtype that holds a residue mod p: int16 when
    p - 1 < 2^15, then int32, then int64; object where residue_dtype(p) is."""
    if not _fits_int64(p):
        return object
    return next(t for t in (np.int16, np.int32, np.int64) if p - 1 <= np.iinfo(t).max)


def rows_per_block(a: np.ndarray) -> int:
    """How many rows of a fill one widened scratch block (at least 1)."""
    return max(1, _BLOCK_CELLS * len(a) // max(a.size, 1))


def regular_matrix(coeffs: np.ndarray | Sequence, spec: FieldSpec) -> np.ndarray:
    """The F_p matrix of the regular representation of a matrix over
    spec, given as its rows x cols x m array of reduced coefficients
    (rows x cols for a prime field), in a new storage_dtype array
    (fill_regular)."""
    p, m = spec.p, spec.degree
    a = np.asarray(coeffs, dtype=storage_dtype(p))
    nrows, ncols = a.shape[:2]
    blocks = np.empty((nrows, m, ncols, m), dtype=a.dtype)
    blocks[..., 0] = a.reshape(nrows, ncols, m).transpose(0, 2, 1)
    return fill_regular(blocks, spec)


def fill_regular(blocks: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """Fill block columns 1..m-1 of a rows x m x cols x m array in place
    from column 0, whose [i, s, j, 0] is coefficient s of entry (i, j),
    reduced, and return the (rows m) x (cols m) regular matrix.  Column
    t + 1 is x times column t, with x^m = -(c_0 + ... + c_{m-1} x^{m-1})
    for the modulus (c_0, ..., c_{m-1}, 1): one multiply and add per plane,
    in place when blocks' dtype holds an update (_holds_update), else in
    an _elimination_dtype(p) copy of a few rows at a time."""
    p, m = spec.p, spec.degree
    neg = [-c % p for c in spec.modulus[:-1]]
    narrow = m > 1 and not _holds_update(p, blocks.dtype)
    step = rows_per_block(blocks) if narrow else max(len(blocks), 1)
    for r in range(0, len(blocks), step):
        part = blocks[r : r + step].astype(_elimination_dtype(p)) if narrow else blocks[r : r + step]
        for t in range(m - 1):
            col, nxt = part[..., t], part[..., t + 1]
            for s, c in enumerate(neg):
                np.multiply(col[:, -1], c, out=nxt[:, s])
                if s:
                    nxt[:, s] += col[:, s - 1]
            nxt %= p
        if narrow:
            blocks[r : r + step] = part
    return blocks.reshape(len(blocks) * m, blocks.shape[2] * m)


def rank(mat: np.ndarray, spec: FieldSpec) -> int:
    """Rank over spec of the matrix whose regular matrix is mat."""
    return len(reduce_mod_p(mat, spec.p)[1]) // spec.degree


def kernel_basis(mat: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """Basis of the right kernel {v : A v = 0} over spec of the matrix A
    whose regular matrix is mat, one row per basis vector, each the
    coefficients of v's entries in turn: the F_p kernel vectors of the
    first column of each free block of mat."""
    return kernel_mod_p(mat, spec.p)[:: spec.degree]


@lru_cache(maxsize=64)
def _room(p: int, dtype: type = np.int64) -> int:
    """How many products of two residues can be added to a residue before
    a sum in the signed dtype could wrap (0 when (p - 1)^2 + p does not fit)."""
    return (int(np.iinfo(dtype).max) + 1 - p) // (p - 1) ** 2


def _run(p: int, terms: int, dtype: type) -> int:
    """How many of terms products to add to a residue before reducing mod
    p: _room(p, dtype) on a fixed-width dtype, all of them on Python ints."""
    return max(terms, 1) if np.dtype(dtype) == object else _room(p, dtype)


def _holds_update(p: int, dtype: type) -> bool:
    """Whether dtype holds one update mod p, a product of two residues
    plus a residue: (p - 1)^2 + p fits, or dtype is object."""
    return np.dtype(dtype) == object or _room(p, dtype) >= 1


@lru_cache(maxsize=64)
def _elimination_dtype(p: int) -> type:
    """The narrowest signed dtype that holds one update mod p, else
    object: reduce_mod_p eliminates in it, and products bound for a
    narrower array are formed in it."""
    return next(t for t in (np.int16, np.int32, np.int64, object) if _holds_update(p, t))


def reduce_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an integer matrix over F_p and its
    pivot columns; the rank is the number of pivots.

    Eliminates in the narrowest signed dtype that holds (p - 1)^2 + p
    (int16 up to p = 181, int32 up to p = 46337, then int64) and on
    Python ints when (p - 1)^2 >= 2^63; the result is residue_dtype(p).
    Only the pivot column and the pivot row are reduced at each step.
    An update adds less than (p - 1)^2 to any entry, so on a fixed-width
    dtype the whole matrix is reduced once per _room(p, dtype) updates,
    before a sum could wrap; Python ints are reduced once at the end.
    Left of column c the pivot row is zero, so updates start at column c.
    """
    dtype, mat = _elimination_dtype(p), np.asarray(mat)
    a = np.empty(mat.shape, dtype)  # reduced into directly: every residue fits dtype
    np.remainder(mat, p, out=a, dtype=np.result_type(mat, a), casting="unsafe")
    nrows, ncols = a.shape
    room = None if dtype is object else _room(p, dtype)
    unreduced = 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        col = a[:, c] % p
        if not int(col[r]):  # the column is searched below a zero diagonal only
            rows_below = np.nonzero(col[r:])[0]
            if rows_below.size == 0:
                continue
            piv = r + int(rows_below[0])
            a[[r, piv]] = a[[piv, r]]
            col[[r, piv]] = col[[piv, r]]
        row = a[r, c:] % p * pow(int(col[r]), -1, p) % p  # reduced first: it may hold an update
        a[r, c:] = row
        col[r] = 0
        if unreduced == room:
            a %= p
            unreduced = 0
        a[:, c:] -= np.multiply.outer(col, row)
        unreduced += 1
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return np.remainder(a, p, out=a).astype(residue_dtype(p), copy=False), pivots


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
    """vec @ mat over F_p, in residue_dtype(p).  mat is read in blocks of
    columns, so a narrow mat is widened one block at a time, and rows are
    summed in runs short enough that no partial int64 sum wraps (all at
    once on Python ints)."""
    step = _run(p, len(vec), residue_dtype(p))
    width = rows_per_block(mat.T)  # columns per block
    acc = np.zeros(mat.shape[1], dtype=residue_dtype(p))
    for c in range(0, mat.shape[1], width):
        part = acc[c : c + width]
        for s in range(0, len(vec), step):
            part[...] = (part + vec[s : s + step] @ mat[s : s + step, c : c + width]) % p
    return acc


@lru_cache(maxsize=4)
def field_elements(spec: FieldSpec) -> np.ndarray:
    """All q elements of spec as a q x m coefficient array in canonical
    order, read-only: row i holds the base-p digits of i, most significant first."""
    p, m = spec.p, spec.degree
    i = np.arange(spec.order, dtype=residue_dtype(p))
    elements = np.stack([i // p ** (m - 1 - j) % p for j in range(m)], axis=-1)
    elements.flags.writeable = False
    return elements


def element_index(coeffs: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """Canonical index of each row of a ... x m coefficient array, formed
    in intp whatever the coefficients' dtype."""
    coeffs = coeffs.astype(np.intp, copy=False)
    idx = coeffs[..., 0]
    for j in range(1, spec.degree):
        idx = idx * spec.p + coeffs[..., j]
    return idx


def field_mul(a: np.ndarray, b: np.ndarray, spec: FieldSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise product of ... x m coefficient arrays over spec, a
    broadcast against b, into out if given (else into a new
    residue_dtype(p) array; a fresh one first when out may overlap a or
    b).  The products and their sums (_products) are formed in out itself
    when its dtype holds an update (_holds_update).  For a narrower
    storage_dtype out they are formed in an _elimination_dtype(p) scratch
    of a few of its rows at a time, each block reduced into out."""
    p = spec.p
    if out is not None and (np.may_share_memory(out, a) or np.may_share_memory(out, b)):
        out[...] = field_mul(a, b, spec)
        return out
    if out is None or _holds_update(p, out.dtype):
        res = _products(a, b, spec, out)
        return np.remainder(res, p, out=res)
    work, step = _elimination_dtype(p), rows_per_block(out) if out.ndim > 1 else len(out)
    if step >= len(out):  # one block
        return np.remainder(_products(a, b, spec, np.empty(out.shape, work)), p, out=out, casting="unsafe")
    a, b = np.broadcast_to(a, out.shape), np.broadcast_to(b, out.shape)
    scratch = np.empty((step,) + out.shape[1:], work)
    for r in range(0, len(out), step):
        res = _products(a[r : r + step], b[r : r + step], spec, scratch[: len(out) - r])
        np.remainder(res, p, out=out[r : r + step], casting="unsafe")
    return out


def _products(a: np.ndarray, b: np.ndarray, spec: FieldSpec, res: np.ndarray | None) -> np.ndarray:
    """field_mul before its last reduction, into res, an array whose
    dtype holds an update and which overlaps neither a nor b (a new
    residue_dtype(p) array if None): each entry of res is congruent to its
    coefficient of the product.  The array twin of finite_field._mulmod:
    the schoolbook product on coefficient planes, reduced from the top
    down by the monic modulus, with the m low planes summed in res beside
    m - 1 high planes and one scratch plane.  Each step adds at most one
    product to a plane, and on a fixed-width dtype the planes are reduced
    once per _room(p, dtype) steps, so no sum wraps."""
    p, m = spec.p, spec.degree
    dtype = residue_dtype(p) if res is None else res.dtype
    if m == 1:  # the 1 x 1 block of a is a itself
        return np.multiply(a, b, out=res, dtype=dtype)
    if res is None:
        res = np.empty(np.broadcast(a, b).shape, dtype)
    res[...] = 0
    a, b = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    scratch = np.empty(res.shape[:-1], res.dtype)
    planes = [res[..., i] for i in range(m)] + [np.zeros_like(scratch) for _ in range(m - 1)]
    room, unreduced = _run(p, 2 * m, res.dtype), 0
    # steps 0..m-1 add a_i b_j to plane i + j; steps top = 2m-2..m clear plane top
    for step in range(2 * m - 1):
        if unreduced == room:
            for plane in planes:
                plane %= p
            unreduced = 0
        if step < m:
            for j in range(m):
                planes[step + j] += np.multiply(a[step], b[j], out=scratch, dtype=res.dtype)
        else:
            top = 3 * m - 2 - step
            lead = np.remainder(planes[top], p, out=planes[top])
            for i, c in enumerate(spec.modulus[:-1], top - m):
                if c:
                    planes[i] -= np.multiply(lead, c, out=scratch)
        unreduced += 1
    return res


@lru_cache(maxsize=4)
def root_table(spec: FieldSpec) -> np.ndarray:
    """root[i] is the canonical index of the smaller square root of
    element i, or -1 when i is not a square.  The roots y and -y of y^2
    both write min(index y, index -y), so the table is deterministic.
    Built once per field and read-only."""
    y = field_elements(spec)
    smaller = np.minimum(np.arange(spec.order), element_index(-y % spec.p, spec))
    root = np.full(spec.order, -1, dtype=np.intp)
    root[element_index(field_mul(y, y, spec), spec)] = smaller
    root.flags.writeable = False
    return root


@lru_cache(maxsize=4)
def inverse_table(spec: FieldSpec) -> np.ndarray:
    """Row i holds the coefficients of 1/i (row 0 is zero): a^(q-2) of
    all q elements, built once per field and read-only."""
    inv = field_pow(field_elements(spec), spec.order - 2, spec)
    inv.flags.writeable = False
    return inv


def power(base: T, e: int, mul: Callable[[T, T], T], one: T) -> T:
    """base^e (e >= 0) by left-to-right square and multiply under mul: the
    one power loop, for single field elements and polynomials modulo f
    (finite_field) as for coefficient arrays (field_pow)."""
    result = one
    for bit in bin(e)[2:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def field_pow(a: np.ndarray, e: int, spec: FieldSpec) -> np.ndarray:
    """Elementwise a^e (e >= 0) of an N x m coefficient array over spec."""
    one = np.zeros_like(a)
    one[:, 0] = 1
    return power(a, e, lambda u, v: field_mul(u, v, spec), one)
