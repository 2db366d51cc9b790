import random

import numpy as np
import pytest

from nmdscodes.finite_field import FieldSpec
from nmdscodes.linalg import (
    kernel_basis,
    kernel_mod_p,
    matvec_mod_p,
    on_residues,
    rank,
    reduce_mod_p,
    regular_matrix,
)


def _eliminate(work, spec):
    """Reference: FieldElement Gauss-Jordan, in place, to reduced row
    echelon form; returns the matrix and its pivot columns."""
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


def _reference_kernel(rows, spec):
    """Kernel basis read off the free columns of _eliminate."""
    ncols = len(rows[0])
    work, pivots = _eliminate([list(r) for r in rows], spec)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [spec.zero()] * ncols
        v[f] = spec.one()
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][f]
        basis.append(v)
    return basis


# a prime just above 2^32: residue products reach 2^64 and wrap in int64
WIDE = FieldSpec(4294967311)


def _wide_rank_one_rows():
    a, b = 3000000019, 4000000007
    return [[WIDE(1), WIDE(a)], [WIDE(b), WIDE(b * a)]]


def test_wide_prime_is_not_run_on_residues():
    assert not on_residues(WIDE)
    assert on_residues(FieldSpec(3541))
    assert not on_residues(FieldSpec(7, 2))


def test_wide_prime_rank_is_exact():
    rows = _wide_rank_one_rows()
    work = [list(r) for r in rows]
    assert len(_eliminate(work, WIDE)[1]) == 1
    assert rank(rows, WIDE) == 1


def test_wide_prime_kernel_is_exact():
    rows = _wide_rank_one_rows()
    ker = kernel_basis(rows, WIDE)
    assert len(ker) == 1
    zero = WIDE.zero()
    for row in rows:
        acc = zero
        for a, v in zip(row, ker[0]):
            acc = acc + a * v
        assert acc == zero


# the largest prime run on residues: (p - 1)^2 < 2^63 < 3 (p - 1)^2
WIDEST_RESIDUE_PRIME = 3037000493


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


@pytest.mark.parametrize("p", [7, 31, 3541, WIDEST_RESIDUE_PRIME, WIDE.p])
def test_reduction_matches_the_field_element_elimination(p):
    spec = FieldSpec(p)
    assert on_residues(spec) == (p != WIDE.p)  # the wide prime runs on Python ints
    rng = random.Random(p)
    for nrows, ncols, r in SHAPES:
        work = _random_matrix(rng, spec, nrows, ncols, r)
        mat = np.array([[v.coeffs[0] for v in row] for row in work], dtype=np.int64)
        reduced, pivots = reduce_mod_p(mat, p)
        slow, slow_pivots = _eliminate([list(row) for row in work], spec)
        assert pivots == slow_pivots
        assert reduced.tolist() == [[v.coeffs[0] for v in row] for row in slow]
        ker = kernel_mod_p(mat, p)
        assert len(ker) == ncols - len(pivots)
        for v in ker.tolist():
            for row in mat.tolist():
                assert sum(a * b for a, b in zip(row, v)) % p == 0
        assert rank(work, spec) == len(pivots)
        assert [[x.coeffs[0] for x in v] for v in kernel_basis(work, spec)] == ker.tolist()


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
            reduced, pivots = reduce_mod_p(regular_matrix(work, spec), p)
            slow, slow_pivots = _eliminate([list(row) for row in work], spec)
            # the F_p form is the block image of the F_{p^m} form
            assert pivots == [c * m + t for c in slow_pivots for t in range(m)]
            assert reduced.tolist() == regular_matrix(slow, spec).tolist()
            assert rank(work, spec) == len(slow_pivots)
            assert kernel_basis(work, spec) == _reference_kernel(work, spec)


def test_regular_matrix_blocks_multiply_coefficient_vectors():
    # column j of the block of a holds the coefficients of a x^j, so the
    # block times the coefficients of b is the coefficients of a b
    spec = FieldSpec(7, 3)
    rng = random.Random(1)
    for _ in range(20):
        a, b = (spec([rng.randrange(7) for _ in range(3)]) for _ in range(2))
        block = regular_matrix([[a]], spec)
        assert (block @ np.array(b.coeffs) % 7).tolist() == list((a * b).coeffs)


def test_matvec_stays_exact_when_the_sum_would_wrap():
    # 3 * (p - 1)^2 > 2^63, so one int64 product sum would wrap
    p = WIDEST_RESIDUE_PRIME
    vec = np.full(3, p - 1, dtype=np.int64)
    mat = np.full((3, 2), p - 1, dtype=np.int64)
    assert matvec_mod_p(vec, mat, p).tolist() == [3 * (p - 1) ** 2 % p] * 2
