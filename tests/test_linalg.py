import itertools
import random
import sys

import numpy as np
import pytest

from field_reference import (
    coefficients,
    eliminate,
    flat_coefficients,
    matrix_of,
    reference_kernel,
    regular_matrix_by_planes,
)
from nmdscodes.finite_field import FieldSpec
from nmdscodes.linalg import (
    _elimination_dtype,
    _room,
    field_elements,
    field_mul,
    field_pow,
    fill_regular,
    inverse_table,
    kernel_basis,
    kernel_mod_p,
    matvec_mod_p,
    rank,
    reduce_mod_p,
    element_index,
    regular_matrix,
    residue_dtype,
    storage_dtype,
)


# a prime just above 2^32: residue products reach 2^64 and wrap in int64
WIDE = FieldSpec(4294967311)


def _wide_rank_one_rows():
    a, b = 3000000019, 4000000007
    return [[WIDE(1), WIDE(a)], [WIDE(b), WIDE(b * a)]]


def test_wide_prime_is_not_run_on_residues():
    # the wide prime runs on Python ints, every narrower field on int64
    assert residue_dtype(WIDE.p) is object
    assert matrix_of(_wide_rank_one_rows(), WIDE).dtype == object
    assert residue_dtype(3541) is np.int64
    assert storage_dtype(WIDE.p) is object
    assert regular_matrix([[[1, 2]]], FieldSpec(7, 2)).dtype == storage_dtype(7) == np.int16


def test_wide_prime_rank_is_exact():
    rows = _wide_rank_one_rows()
    work = [list(r) for r in rows]
    assert len(eliminate(work, WIDE)[1]) == 1
    assert rank(matrix_of(rows, WIDE), WIDE) == 1


def test_wide_prime_kernel_is_exact():
    rows = _wide_rank_one_rows()
    ker = kernel_basis(matrix_of(rows, WIDE), WIDE)
    assert len(ker) == 1
    zero = WIDE.zero()
    for row in rows:
        acc = zero
        for a, v in zip(row, ker[0]):
            acc = acc + a * WIDE(int(v))
        assert acc == zero


# the largest prime run on residues: (p - 1)^2 < 2^63 < 3 (p - 1)^2
WIDEST_RESIDUE_PRIME = 3037000493


# storage holds p - 1: 32749 and 2147483647 are the largest primes stored
# in int16 and int32, 32771 and 2147483659 the next; products of two
# residues still wrap in the storage dtype from p = 191 and 46349 on
@pytest.mark.parametrize(
    "p, dtype",
    [(2, np.int16), (3541, np.int16), (32749, np.int16), (32771, np.int32), (143263, np.int32),
     (2147483647, np.int32), (2147483659, np.int64), (WIDEST_RESIDUE_PRIME, np.int64),
     (WIDE.p, object)],
)
def test_storage_is_the_narrowest_dtype_that_holds_a_residue(p, dtype):
    assert storage_dtype(p) is dtype
    if dtype is not object:
        narrower = {np.int16: None, np.int32: np.int16, np.int64: np.int32}[dtype]
        assert np.iinfo(dtype).max >= p - 1
        assert narrower is None or np.iinfo(narrower).max < p - 1


# (storage, residue, elimination) dtypes, one ladder for all three: the
# primes of the room table below and of the catalog (q = 343 is over p = 7)
I16, I32, I64 = np.int16, np.int32, np.int64


@pytest.mark.parametrize(
    "p, dtypes",
    [(2, (I16, I64, I16)), (7, (I16, I64, I16)), (13, (I16, I64, I16)), (31, (I16, I64, I16)),
     (43, (I16, I64, I16)), (157, (I16, I64, I16)), (181, (I16, I64, I16)),
     (191, (I16, I64, I32)), (307, (I16, I64, I32)), (3541, (I16, I64, I32)),
     (4423, (I16, I64, I32)), (5113, (I16, I64, I32)), (46337, (I32, I64, I32)),
     (46349, (I32, I64, I64)), (WIDEST_RESIDUE_PRIME, (I64, I64, I64)),
     (WIDE.p, (object, object, object))],
)
def test_each_prime_takes_its_storage_residue_and_elimination_dtype(p, dtypes):
    assert (storage_dtype(p), residue_dtype(p), _elimination_dtype(p)) == dtypes


def _random_matrix(rng, spec, nrows, ncols, rank_at_most):
    """Product of random nrows x r and r x ncols matrices over spec, as
    FieldElement rows, so that its rank is at most r."""

    def draw():
        return spec([rng.randrange(spec.p) for _ in range(spec.degree)])

    left = [[draw() for _ in range(rank_at_most)] for _ in range(nrows)]
    right = [[draw() for _ in range(ncols)] for _ in range(rank_at_most)]
    zero = spec.zero()
    return [[sum((a * b for a, b in zip(row, col)), zero) for col in zip(*right)] for row in left]


SHAPES = ((4, 9, 2), (6, 6, 6), (9, 5, 3), (5, 12, 5), (3, 1, 1))


# the dtype edges of the elimination: 181 and 46337 are the largest primes
# run on int16 and int32, with room for one update; 191 and 46349 the next
@pytest.mark.parametrize("p", [7, 31, 181, 191, 3541, 46337, 46349, WIDEST_RESIDUE_PRIME, WIDE.p])
def test_reduction_matches_the_field_element_elimination(p):
    spec = FieldSpec(p)
    assert (residue_dtype(p) is object) == (p == WIDE.p)  # the wide prime runs on Python ints
    rng = random.Random(p)
    for nrows, ncols, r in SHAPES:
        work = _random_matrix(rng, spec, nrows, ncols, r)
        mat = np.array([[v.coeffs[0] for v in row] for row in work], dtype=np.int64)
        reduced, pivots = reduce_mod_p(mat, p)
        assert reduced.dtype == residue_dtype(p)
        slow, slow_pivots = eliminate([list(row) for row in work], spec)
        assert pivots == slow_pivots
        assert reduced.tolist() == [[v.coeffs[0] for v in row] for row in slow]
        ker = kernel_mod_p(mat, p)
        assert len(ker) == ncols - len(pivots)
        for v in ker.tolist():
            for row in mat.tolist():
                assert sum(a * b for a, b in zip(row, v)) % p == 0
        assert rank(matrix_of(work, spec), spec) == len(pivots)
        assert kernel_basis(matrix_of(work, spec), spec).tolist() == ker.tolist()


EXTENSIONS = [FieldSpec(p, m) for p, m in ((5, 2), (7, 2), (7, 3), (11, 2), (7, 6))]
# x^2 + 1 is irreducible since WIDE.p = 3 mod 4; its entries run on Python ints
EXTENSIONS.append(FieldSpec(WIDE.p, 2, (1, 0, 1)))


@pytest.mark.parametrize("spec", EXTENSIONS, ids=FieldSpec.encode)
def test_regular_representation_matches_the_field_element_elimination(spec):
    p, m = spec.p, spec.degree
    rng = random.Random(p * 10 + m)
    shapes = SHAPES + ((5, 8, 4), (7, 7, 3), (4, 4, 1))
    for case in range(2 if m == 6 else 6):
        for nrows, ncols, r in shapes:
            if case % 2:  # full random matrices, mostly of full rank
                work = _random_matrix(rng, spec, nrows, ncols, max(nrows, ncols))
            else:
                work = _random_matrix(rng, spec, nrows, ncols, r)
            mat = matrix_of(work, spec)
            reduced, pivots = reduce_mod_p(mat, p)
            slow, slow_pivots = eliminate([list(row) for row in work], spec)
            # the F_p form is the block image of the F_{p^m} form
            assert pivots == [c * m + t for c in slow_pivots for t in range(m)]
            assert reduced.tolist() == matrix_of(slow, spec).tolist()
            assert rank(mat, spec) == len(slow_pivots)
            assert kernel_basis(mat, spec).tolist() == flat_coefficients(
                reference_kernel(work, spec)
            )


def test_regular_matrix_blocks_multiply_coefficient_vectors():
    # column j of the block of a holds the coefficients of a x^j, so the
    # block times the coefficients of b is the coefficients of a b
    spec = FieldSpec(7, 3)
    rng = random.Random(1)
    for _ in range(20):
        a, b = (spec([rng.randrange(7) for _ in range(3)]) for _ in range(2))
        block = matrix_of([[a]], spec)
        assert (block @ np.array(b.coeffs) % 7).tolist() == list((a * b).coeffs)


def _block_loop(coeffs, spec):
    """The regular matrix by the general loop over the m columns of each
    block, for every degree m, the prime fields (m = 1) included."""
    p, m = spec.p, spec.degree
    dtype = residue_dtype(p)
    a = np.asarray(coeffs, dtype=dtype) % p
    nrows, ncols = a.shape[:2]
    a = a.reshape(nrows, ncols, m)
    low = np.array(spec.modulus[:-1], dtype=dtype)
    blocks = np.empty(a.shape + (m,), dtype=dtype)
    for j in range(m):
        blocks[..., j] = a
        if j + 1 < m:
            top = a[..., -1:]
            a = (np.concatenate((np.zeros_like(top), a[..., :-1]), axis=-1) - top * low) % p
    return blocks.transpose(0, 2, 1, 3).reshape(nrows * m, ncols * m)


def _random_coefficients(spec, shape, seed):
    """A reduced rows x cols x m coefficient array with the extremes 0 and
    p - 1 among its entries."""
    p = spec.p
    rng = random.Random(seed)
    draws = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(int(np.prod(shape)) * spec.degree)]
    return np.array(draws, dtype=residue_dtype(p)).reshape(shape + (spec.degree,))


# (p - 1)^2 + p does not fit the int16 and int32 that store 191 and 46349
NARROW_EXTENSIONS = [FieldSpec(191, 2), FieldSpec(46349, 2)]


@pytest.mark.parametrize("spec", EXTENSIONS + NARROW_EXTENSIONS, ids=FieldSpec.encode)
def test_fill_regular_matches_the_plane_by_plane_block_loop(spec, monkeypatch):
    # block column 0 written through the strided view that build_code uses,
    # in the residue and in the storage dtype; a scratch block of one cell
    # widens a storage dtype without room one row at a time
    from nmdscodes import linalg

    m = spec.degree
    for cells in (linalg._BLOCK_CELLS, 1):
        monkeypatch.setattr(linalg, "_BLOCK_CELLS", cells)
        for seed, shape in enumerate(((3, 5), (1, 1), (6, 2), (0, 3))):
            coeffs = _random_coefficients(spec, shape, seed)
            want = regular_matrix_by_planes(coeffs, spec)
            for dtype in (residue_dtype(spec.p), storage_dtype(spec.p)):
                blocks = np.empty((shape[0], m, shape[1], m), dtype=dtype)
                blocks[..., 0].transpose(0, 2, 1)[...] = coeffs
                mat = fill_regular(blocks, spec)
                assert (mat.dtype, mat.shape) == (np.dtype(dtype), want.shape)
                assert mat.tolist() == want.tolist()
                assert np.shares_memory(mat, blocks) or not mat.size
            mat = regular_matrix(coeffs, spec)
            assert (mat.dtype, mat.tolist()) == (storage_dtype(spec.p), want.tolist())


@pytest.mark.parametrize("p", [7, 31, 3541, WIDEST_RESIDUE_PRIME, WIDE.p])
def test_prime_field_regular_matrix_is_the_block_loop_in_a_new_array(p):
    # over a prime field the 1 x 1 block of a is a itself: the result is
    # the residue matrix, never a view of the caller's array.  The input
    # is reduced, as the callers pass it; the extremes 0 and p - 1 are in it
    spec = FieldSpec(p)
    rng = random.Random(p)
    for shape in ((3, 5), (4, 1), (2, 3, 1), (0, 4)):
        draws = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(int(np.prod(shape)))]
        values = np.array(draws, dtype=residue_dtype(p)).reshape(shape)
        # a list of no rows has no column count, so the empty shape goes as arrays only
        for coeffs in (values,) + ((values.tolist(),) if values.size else ()):
            before = np.array(coeffs, dtype=residue_dtype(p))
            mat = regular_matrix(coeffs, spec)
            want = _block_loop(coeffs, spec)
            assert (mat.dtype, mat.shape) == (storage_dtype(p), want.shape)
            assert mat.tolist() == want.tolist()
            if isinstance(coeffs, np.ndarray):
                assert not np.shares_memory(mat, coeffs)
            if mat.size:
                mat[...] = 1
            assert np.array_equal(np.array(coeffs, dtype=before.dtype), before)


@pytest.mark.parametrize(
    "p, dtype, room",
    [(2, np.int16, 32766), (181, np.int16, 1), (191, np.int32, 59487), (46337, np.int32, 1),
     (46349, np.int64, 4293660781), (WIDEST_RESIDUE_PRIME, np.int64, 1), (WIDE.p, object, None)],
)
def test_elimination_runs_in_the_narrowest_dtype_that_holds_an_update(p, dtype, room):
    # (p - 1)^2 + p fits the dtype, and one update more than room could wrap
    assert _elimination_dtype(p) is dtype
    if room is None:
        assert _room(p, dtype) == sys.maxsize  # Python ints cannot wrap
    else:
        assert _room(p, dtype) == room
        assert (room + 1) * (p - 1) ** 2 + p > np.iinfo(dtype).max + 1


def test_matvec_stays_exact_when_the_sum_would_wrap():
    # 3 * (p - 1)^2 > 2^63, so one int64 product sum would wrap
    p = WIDEST_RESIDUE_PRIME
    vec = np.full(3, p - 1, dtype=np.int64)
    mat = np.full((3, 2), p - 1, dtype=np.int64)
    assert matvec_mod_p(vec, mat, p).tolist() == [3 * (p - 1) ** 2 % p] * 2


def test_matvec_is_exact_on_python_ints_at_the_wide_prime():
    # (p - 1)^2 >= 2^63: the matrix holds Python ints and one sum takes every row
    p = WIDE.p
    rng = random.Random(5)
    rows = [[rng.randrange(p) for _ in range(4)] for _ in range(6)] + [[p - 1] * 4] * 3
    vec = [rng.randrange(p) for _ in range(6)] + [p - 1] * 3
    mat = regular_matrix(rows, WIDE)
    assert mat.dtype == object
    want = [sum(v * row[j] for v, row in zip(vec, rows)) % p for j in range(4)]
    assert matvec_mod_p(np.array(vec, dtype=object), mat, p).tolist() == want
    assert matvec_mod_p(np.array(vec, dtype=np.int64), mat, p).tolist() == want


@pytest.mark.parametrize("p", [3541, 46349])
def test_matvec_widens_a_storage_dtype_matrix_one_column_block_at_a_time(p):
    # u0 G in _certify_rank: vec @ mat on the whole int16 or int32 matrix
    # would widen a copy of it to int64, 4 or 2 times its bytes
    import tracemalloc

    rng = np.random.default_rng(p)
    mat = rng.integers(0, p, (120, 20000)).astype(storage_dtype(p))
    mat[:, :3] = p - 1
    vec = rng.integers(0, p, 120)
    vec[:60] = p - 1
    want = vec @ mat.astype(np.int64) % p
    tracemalloc.start()
    try:
        got = matvec_mod_p(vec, mat, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.dtype, got.tolist()) == (residue_dtype(p), want.tolist())
    assert peak < 2**20 < mat.nbytes


# F_{p^2} with 2 (p - 1)^2 > 2^63 > (p - 1)^2: one product of residues fits
# int64, the sum of two does not
TIGHT = FieldSpec(2147483659, 2, (1, 0, 1))
# the same prime in degree 3, with the modulus x^3 + 2x^2 + 1
TIGHT_CUBIC = FieldSpec(2147483659, 3)
PRODUCT_FIELDS = [
    TIGHT, TIGHT_CUBIC, FieldSpec(WIDE.p, 2, (1, 0, 1)), FieldSpec(7, 3), FieldSpec(7, 6)
]


def _operands(spec, count):
    """FieldElement operand pairs, the all-(p - 1) element first: it
    makes the largest sums."""
    p, m = spec.p, spec.degree
    rng = random.Random(p + m)
    top = spec([p - 1] * m)
    left = [top, top, spec.one()] + [spec([rng.randrange(p) for _ in range(m)]) for _ in range(count)]
    right = [top, spec.one(), top] + [spec([rng.randrange(p) for _ in range(m)]) for _ in range(count)]
    return left, right


@pytest.mark.parametrize("spec", PRODUCT_FIELDS, ids=FieldSpec.encode)
def test_field_mul_matches_field_element_products(spec):
    p = spec.p
    if p == TIGHT.p:
        assert residue_dtype(p) is np.int64 and _room(p) == 1
    left, right = _operands(spec, 40)
    a, b = (np.array(coefficients([side])[0], dtype=residue_dtype(p)) for side in (left, right))
    got = field_mul(a, b, spec)
    assert got.dtype == residue_dtype(p)
    assert got.tolist() == [list((x * y).coeffs) for x, y in zip(left, right)]
    # one row of a multiplies every row of b, as a (1, m) row or an (m,) vector
    want = [list((left[0] * y).coeffs) for y in right]
    assert field_mul(a[:1], b, spec).tolist() == want
    assert field_mul(a[0], b, spec).tolist() == want
    # a stacked (j, N, m) input multiplies plane by plane
    stacked = field_mul(np.stack([a, b, a]), np.stack([b, a, a]), spec)
    assert stacked.tolist() == [
        [list((x * y).coeffs) for x, y in zip(left, right)],
        [list((y * x).coeffs) for x, y in zip(left, right)],
        [list((x * x).coeffs) for x in left],
    ]


@pytest.mark.parametrize("spec", PRODUCT_FIELDS, ids=FieldSpec.encode)
def test_field_mul_writes_a_strided_out_in_place(spec):
    # the rows of a generator in block column 0 of its regular matrix:
    # out is a (rows, N, m) view with stride m between entries
    p, m = spec.p, spec.degree
    left, right = _operands(spec, 9)
    a, b = (np.array(coefficients([side])[0], dtype=residue_dtype(p)) for side in (left, right))
    blocks = np.full((3, m, len(left), m), -1, dtype=residue_dtype(p))
    rows = blocks[..., 0].transpose(0, 2, 1)
    rows[0] = a
    got = field_mul(a, np.stack([a, b]), spec, out=rows[1:])
    assert np.shares_memory(got, blocks)
    assert rows[1].tolist() == [list((x * x).coeffs) for x in left]
    assert rows[2].tolist() == [list((x * y).coeffs) for x, y in zip(left, right)]
    assert (blocks[..., 1:] == -1).all()  # the other block columns are untouched


@pytest.mark.parametrize("spec", PRODUCT_FIELDS, ids=FieldSpec.encode)
def test_field_mul_into_an_out_that_aliases_an_input(spec):
    p = spec.p
    left, right = _operands(spec, 9)
    want = [list((x * y).coeffs) for x, y in zip(left, right)]
    for target in ("a", "b", "shifted"):
        a, b = (np.array(coefficients([side])[0], dtype=residue_dtype(p)) for side in (left, right))
        if target == "shifted":  # out overlaps a one row along: a[1:] is read after out[0] is due
            buf = np.concatenate([a[:1], a])
            got = field_mul(buf[1:], b, spec, out=buf[:-1])
            assert got.tolist() == want and buf[:-1].tolist() == want
            continue
        out = a if target == "a" else b
        assert field_mul(a, b, spec, out=out) is out
        assert out.tolist() == want


# the storage dtype is narrower than one product at the first four
STORED_FIELDS = [FieldSpec(3541), FieldSpec(46349), FieldSpec(7, 3), FieldSpec(191, 2)]


@pytest.mark.parametrize("spec", STORED_FIELDS + PRODUCT_FIELDS[:3], ids=FieldSpec.encode)
def test_field_mul_into_a_storage_dtype_out_matches_the_wide_product(spec, monkeypatch):
    # build_code's rows: a strided (rows, N, m) view of a storage_dtype
    # array; a scratch block of one cell makes every row a block of its own
    from nmdscodes import linalg

    p, m = spec.p, spec.degree
    left, right = _operands(spec, 9)
    a, b = (np.array(coefficients([side])[0], dtype=storage_dtype(p)) for side in (left, right))
    want = [list((x * y).coeffs) for x, y in zip(left, right)]
    square = [list((x * x).coeffs) for x in left]
    got = field_mul(a, b, spec)
    assert (got.dtype, got.tolist()) == (residue_dtype(p), want)
    for cells in (linalg._BLOCK_CELLS, 1):
        monkeypatch.setattr(linalg, "_BLOCK_CELLS", cells)
        blocks = np.full((4, m, len(left), m), -1, dtype=storage_dtype(p))
        rows = blocks[..., 0].transpose(0, 2, 1)
        rows[0], rows[1] = a, b
        out = rows[2:]
        assert field_mul(rows[0], rows[1::-1], spec, out=out) is out
        assert out.tolist() == [want, square]
        assert (blocks[..., 1:] == -1).all()  # the other block columns are untouched
        one = np.empty(m, storage_dtype(p))
        assert field_mul(a[0], b[0], spec, out=one).tolist() == want[0]
        buf = np.concatenate([a[:1], a])  # out overlaps a one row along
        assert field_mul(buf[1:], b, spec, out=buf[:-1]).tolist() == want


@pytest.mark.parametrize("modulus", [TIGHT_CUBIC.modulus, (2, -1, -1, 1)], ids=str)
def test_field_mul_stays_exact_through_the_modulus_reduction(modulus):
    # x^3 - x^2 - x + 2 subtracts products near (p - 1)^2 in the reduction
    # steps; counted only in the product sums, 90 of these 729 products wrap
    spec = FieldSpec(TIGHT.p, 3, modulus)
    p = spec.p
    assert TIGHT_CUBIC.modulus == (1, 0, 2, 1)
    extremes = [spec(c) for c in itertools.product((0, 1, p - 1), repeat=3)]
    left, right = zip(*itertools.product(extremes, extremes))
    a, b = (np.array([x.coeffs for x in side], dtype=np.int64) for side in (left, right))
    assert field_mul(a, b, spec).tolist() == [list((x * y).coeffs) for x, y in zip(left, right)]


@pytest.mark.parametrize("spec", PRODUCT_FIELDS, ids=FieldSpec.encode)
def test_regular_matrix_blocks_hold_the_products_by_powers_of_x(spec):
    # block column t of entry a is the coefficient vector of a x^t
    p, m = spec.p, spec.degree
    left, right = _operands(spec, 9)
    rows = [left[:6], right[:6]]
    mat = regular_matrix(coefficients(rows), spec)
    assert (mat.dtype, mat.shape) == (storage_dtype(p), (2 * m, 6 * m))
    blocks = mat.reshape(2, m, 6, m)
    x_t = [spec.one()]
    for _ in range(m - 1):
        x_t.append(x_t[-1] * spec.gen())
    for r, row in enumerate(rows):
        for c, a in enumerate(row):
            for t, x in enumerate(x_t):
                assert blocks[r, :, c, t].tolist() == list((a * x).coeffs)


def test_element_index_of_narrow_coefficients_is_formed_in_intp():
    # order 39601 > 2^15: in int16, c0 * 199 + c1 wraps from c0 = 165 on
    spec = FieldSpec(199, 2)
    elements = field_elements(spec)
    want = element_index(elements, spec)
    assert want.tolist() == list(range(spec.order))
    got = element_index(elements.astype(np.int16), spec)
    assert (got.dtype, got.tolist()) == (np.intp, want.tolist())


INVERSE_FIELDS = [FieldSpec(7), FieldSpec(3541), FieldSpec(7, 3), WIDE]


@pytest.mark.parametrize("spec", INVERSE_FIELDS, ids=FieldSpec.encode)
def test_power_q_minus_2_inverts_like_field_element_inverse(spec):
    # inverse_table's one power against the per-element inverse
    p, m = spec.p, spec.degree
    rng = random.Random(p)
    rows = [spec.one(), spec([p - 1] * m)] + [
        spec([rng.randrange(p) for _ in range(m)]) for _ in range(60)
    ]
    rows = [a for a in rows if a]
    diff = np.array([a.coeffs for a in rows], dtype=residue_dtype(p))
    got = field_pow(diff, spec.order - 2, spec)
    assert got.dtype == residue_dtype(p)
    assert got.tolist() == [list(a.inverse().coeffs) for a in rows]


@pytest.mark.parametrize("spec", [FieldSpec(7), FieldSpec(7, 2), FieldSpec(7, 3)], ids=FieldSpec.encode)
def test_inverse_table_holds_every_field_element_inverse(spec):
    # the table has q rows, so it is built only over small fields here
    table = inverse_table(spec)
    assert (table.shape, table.dtype) == ((spec.order, spec.degree), residue_dtype(spec.p))
    assert not table[0].any()
    assert table[1:].tolist() == [list(a.inverse().coeffs) for a in list(spec.elements())[1:]]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[1, 0] = 0
    assert inverse_table(spec) is table


@pytest.mark.parametrize("spec", [FieldSpec(7), FieldSpec(7, 2), FieldSpec(7, 3)], ids=FieldSpec.encode)
def test_field_elements_is_one_read_only_array_per_field(spec):
    # every caller (the point list, the certificate, the curve scan) shares it
    elements = field_elements(spec)
    assert elements.tolist() == [list(a.coeffs) for a in spec.elements()]
    assert not elements.flags.writeable
    with pytest.raises(ValueError):
        elements[1, 0] = 0
    assert field_elements(spec) is elements
    assert field_elements(FieldSpec(spec.p, spec.degree)) is elements


def test_extension_field_kernels_build_no_regular_matrix(monkeypatch):
    # products, powers, the root table and the chord sums run on
    # coefficient planes; regular matrices serve only the code's linear algebra
    from nmdscodes import elliptic_curve, linalg

    def refuse(*args, **kwargs):
        raise AssertionError("regular_matrix called")

    monkeypatch.setattr(linalg, "regular_matrix", refuse)
    spec = FieldSpec(7, 3)
    x = field_elements(spec)
    assert field_mul(x, x, spec).shape == x.shape
    assert field_pow(x[1:], spec.order - 2, spec).shape == (spec.order - 1, 3)
    root = linalg.root_table.__wrapped__(spec)
    assert np.count_nonzero(root >= 0) == (spec.order + 1) // 2
    x1, x2 = x[1:50], x[50:99]
    x3, y3 = elliptic_curve._chord_sums(x1, x1, x2, x2, spec)
    assert x3.shape == y3.shape == x1.shape
