import random

import numpy as np
import pytest

from nmdscodes.finite_field import FieldSpec
from nmdscodes.linalg import (
    _eliminate,
    kernel_basis,
    kernel_mod_p,
    matvec_mod_p,
    on_residues,
    rank,
    reduce_mod_p,
)

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


def _random_matrix(rng, p, nrows, ncols, rank_at_most):
    """Residues of a product of random nrows x r and r x ncols matrices,
    multiplied in Python ints so that no int64 sum wraps."""
    left = [[rng.randrange(p) for _ in range(rank_at_most)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank_at_most)]
    return np.array(
        [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left],
        dtype=np.int64,
    )


@pytest.mark.parametrize("p", [7, 31, 3541, WIDEST_RESIDUE_PRIME])
def test_reduction_matches_the_field_element_elimination(p):
    spec = FieldSpec(p)
    assert on_residues(spec)
    rng = random.Random(p)
    for nrows, ncols, r in ((4, 9, 2), (6, 6, 6), (9, 5, 3), (5, 12, 5), (3, 1, 1)):
        mat = _random_matrix(rng, p, nrows, ncols, r)
        reduced, pivots = reduce_mod_p(mat, p)
        work = [[spec(int(v)) for v in row] for row in mat]
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


def test_matvec_stays_exact_when_the_sum_would_wrap():
    # 3 * (p - 1)^2 > 2^63, so one int64 product sum would wrap
    p = WIDEST_RESIDUE_PRIME
    vec = np.full(3, p - 1, dtype=np.int64)
    mat = np.full((3, 2), p - 1, dtype=np.int64)
    assert matvec_mod_p(vec, mat, p).tolist() == [3 * (p - 1) ** 2 % p] * 2
