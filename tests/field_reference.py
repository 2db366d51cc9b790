"""Slow FieldElement references for the residue-array linear algebra.

Gauss-Jordan elimination, kernels and codeword mat-vecs one FieldElement
at a time, with no numpy: the oracles that linalg and code_builder are
tested against.
"""

from nmdscodes.linalg import regular_matrix


def eliminate(work, spec):
    """FieldElement Gauss-Jordan, in place, to reduced row echelon form;
    returns the matrix and its pivot columns."""
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


def reference_kernel(rows, spec):
    """Kernel basis read off the free columns of eliminate."""
    ncols = len(rows[0])
    work, pivots = eliminate([list(r) for r in rows], spec)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [spec.zero()] * ncols
        v[f] = spec.one()
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][f]
        basis.append(v)
    return basis


def coefficients(rows):
    """FieldElement rows as a rows x cols x m coefficient list."""
    return [[list(v.coeffs) for v in row] for row in rows]


def flat_coefficients(vectors):
    """FieldElement vectors as rows of their entries' coefficients in turn."""
    return [[c for v in vec for c in v.coeffs] for vec in vectors]


def matrix_of(rows, spec):
    """The regular matrix of FieldElement rows."""
    return regular_matrix(coefficients(rows), spec)


def elements(code):
    """The generator matrix of a LinearCode as FieldElement rows."""
    return [[code.field(c) for c in row] for row in code.coefficients().tolist()]


def vanishing_word(code, positions):
    """The codeword of code_builder.codeword_vanishing_on in FieldElement
    arithmetic: the kernel vector of the transposed columns, times G."""
    gen = elements(code)
    (msg,) = reference_kernel([[row[c] for row in gen] for c in positions], code.field)
    zero = code.field.zero()
    return [sum((m * g for m, g in zip(msg, col) if m), zero) for col in zip(*gen)]
