"""Weight distributions, minimum-weight support designs, and the
assurance checks tying them together.

Near-MDS [n, k, n-k] codes have their whole weight distribution pinned
by n, k, q and the single count A_{n-k}; for the elliptic construction
of length p^2 that count is (q - 1) b, where b is the closed-form number
of minimum-weight supports, and both designs' coverage numbers follow
from b.  The minimum-weight supports are exactly the complements of
zero-sum 2k-subsets of the point group, which are the dual's supports;
min_weight_supports lists the one family, so the design structure is
decidable both by formula and by literal enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, isqrt
from typing import Iterator

import numpy as np

from . import budget as _budget
from .code_builder import LinearCode, codeword_vanishing_on
from .errors import BudgetError, CertificationError, HypothesisError
from .subset_designs import (
    WORD,
    AbelianGroup,
    DesignCheckReport,
    DesignInstance,
    block_words,
    count_subsets,
    mask_positions,
    sort_blocks,
    subset_sum_masks,
    verify_design,
)


@dataclass(frozen=True)
class WeightDistribution:
    """Exact codeword counts by Hamming weight, counts[w] = A_w."""

    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    def total(self) -> int:
        return sum(self.counts)

    def min_weight(self) -> int:
        for w in range(1, len(self.counts)):
            if self.counts[w]:
                return w
        raise ValueError("zero code has no minimum weight")

    def nonzero_weights(self) -> list[int]:
        return [w for w in range(1, len(self.counts)) if self.counts[w]]

    def enumerator(self) -> str:
        """Human-readable weight enumerator, e.g. '1 + 72z^3 + ...'."""
        terms = []
        for w, a in enumerate(self.counts):
            if not a:
                continue
            if w == 0:
                terms.append(str(a))
            else:
                terms.append(f"{a}z^{w}" if a != 1 else f"z^{w}")
        return " + ".join(terms) if terms else "0"


def _vanishing_counts(
    code: LinearCode, budget: int | None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Vanishing-coordinate counts of all q^k_dim codewords (prime fields),
    in chunks of about 2^18 codewords.

    The low (rows 0..k_dim//2 - 1) and high message digits are each
    spanned once mod q, and low + high vanishes at j exactly when
    low[j] == -high[j].  Yields (zeros, neg_high, low, mult): codeword
    low[l] - neg_high[h] vanishes on zeros[h, l] of its n coordinates and
    stands for mult codewords.  The first chunk is the low table itself
    (neg_high one zero row, mult 1).  Any other message is a nonzero
    multiple of one whose high half has top nonzero digit 1, so only
    those are swept, each for q - 1 codewords.  zeros is added up one
    column at a time in the smallest unsigned dtype holding n; no
    (codewords, n) array is built.  Refuses q^k_dim >= 2^62.
    """
    q = code.field.order
    if code.field.degree != 1:
        raise BudgetError("codeword sweeps are implemented for prime fields only")
    k, n = code.k_dim, code.n
    total = q**k
    if total >= 2**62:
        raise BudgetError(f"{q}^{k} messages reach 2^62, past the int64 sweep")
    _budget.charge(total, budget, _budget.SWEEP_MESSAGES, f"{total} messages exceed sweep budget")
    gen = np.asarray(code.matrix, dtype=np.int64)

    def span(rows: np.ndarray) -> np.ndarray:  # row i: digits of i (low first) @ rows
        table = np.zeros((1, n), dtype=np.int64)
        for row in rows:
            table = ((np.arange(q)[:, None, None] * row + table) % q).reshape(-1, n)
        return table

    h, dtype = k // 2, np.min_scalar_type(q - 1)
    low = span(gen[:h]).astype(dtype)
    low_cols = np.ascontiguousarray(low.T)
    reps = np.concatenate([np.arange(q**t, 2 * q**t) for t in range(k - h)])
    neg_high = (-span(gen[h:])[reps] % q).astype(dtype)
    per = max(1, (1 << 18) // len(low))
    chunks = [(np.zeros((1, n), dtype=dtype), 1)]
    chunks += [(neg_high[s : s + per], q - 1) for s in range(0, len(neg_high), per)]
    for chunk, mult in chunks:
        zeros = np.zeros((len(chunk), len(low)), dtype=np.min_scalar_type(n))
        for j in range(n):
            zeros += low_cols[j] == chunk[:, j, None]
        yield zeros, chunk, low, mult


def weight_distribution_bruteforce(
    code: LinearCode, budget: int | None = None
) -> WeightDistribution:
    """Exact weight counts of all q^k_dim codewords (prime fields): the
    vanishing counts of each sweep chunk, bincounted in slices of 2^15
    entries (bincount casts its input to intp) and read in reverse
    (weight = n - zeros)."""
    n = code.n
    counts = np.zeros(n + 1, dtype=np.int64)
    for zeros, _, _, mult in _vanishing_counts(code, budget):
        flat = zeros.ravel()
        for s in range(0, flat.size, 1 << 15):
            counts += mult * np.bincount(flat[s : s + (1 << 15)], minlength=n + 1)[::-1]
    return WeightDistribution(tuple(int(c) for c in counts))


def macwilliams_transform(dist: WeightDistribution, q: int, k_dim: int) -> WeightDistribution:
    """Dual weight distribution via the MacWilliams identity (exact)."""
    n = dist.n
    out = []
    for j in range(n + 1):
        acc = 0
        for i, a_i in enumerate(dist.counts):
            if not a_i:
                continue
            # Krawtchouk K_j(i) = sum_s (-1)^s C(i,s) C(n-i, j-s) (q-1)^(j-s)
            kj = 0
            for s in range(0, min(i, j) + 1):
                term = comb(i, s) * comb(n - i, j - s) * (q - 1) ** (j - s)
                kj += -term if s % 2 else term
            acc += a_i * kj
        if acc % q**k_dim:
            raise CertificationError("MacWilliams transform is not integral")
        out.append(acc // q**k_dim)
    return WeightDistribution(tuple(out))


def _block_count(p: int, k: int) -> int:
    """b = [C(p^2, 2k) + (p^2 - 1) * C(p, 2k/p)] / p^2, the number of
    zero-sum 2k-subsets of Z_p + Z_p and so of minimum-weight supports of
    the length-p^2 construction, requiring p | k; the division is asserted
    exact."""
    if k % p:
        raise HypothesisError(f"k must be divisible by p, got k={k}, p={p}")
    n = p * p
    b, rem = divmod(comb(n, 2 * k) + (n - 1) * comb(p, 2 * k // p), n)
    if rem:
        raise CertificationError("minimum-weight block count is not integral")
    return b


def min_weight_count_formula(p: int, q: int, k: int) -> int:
    """A_{n-k_dim} = A_{p^2-2k} = (q - 1) * b for the length-p^2
    construction, exact; b is the minimum-weight support count, which
    requires p | k."""
    return (q - 1) * _block_count(p, k)


def support_coverage(p: int, k: int, size: int, t: int) -> int:
    """The number of minimum-weight supports (size p^2 - 2k) or dual
    supports (size 2k) through any t <= 2 of the p^2 points, exact:
    b * C(size, t) / C(p^2, t), the integrality asserted.  Both families
    are 2-designs, so this is their lambda_t."""
    if size not in (p * p - 2 * k, 2 * k) or not 0 <= t <= 2:
        raise HypothesisError(f"need size p^2 - 2k or 2k and 0 <= t <= 2, got {size}, {t}")
    num = _block_count(p, k) * comb(size, t)
    if num % comb(p * p, t):
        raise CertificationError(f"closed-form lambda_{t} is not integral")
    return num // comb(p * p, t)


def nmds_weight_distribution(
    n: int, k_dim: int, q: int, a_min: int
) -> tuple[WeightDistribution, WeightDistribution]:
    """Full primal and dual distributions of an [n, k_dim, n - k_dim]
    near-MDS code from the single count a_min = A_{n-k_dim}.

    The layer of minimum distance m0 (n - k_dim, or k_dim for the dual)
    has A_{m0+s} = C(n, m0+s) sum_{j<s} (-1)^j C(m0+s, j) (q^(s-j) - 1)
    + (-1)^s C(n-m0, s) a_min.  Each must be nonnegative and sum to
    q^(n-m0); a violation signals an invalid a_min.
    """
    primal = _nmds_layer(n, n - k_dim, q, a_min, "primal")
    return primal, _nmds_layer(n, k_dim, q, a_min, "dual")


def _nmds_layer(n: int, m0: int, q: int, a_min: int, name: str) -> WeightDistribution:
    """One layer in one pass: the inner sum is T(m0+s, s) - (-1)^s
    C(m0+s, s) - (-1)^(s-1) C(m0+s-1, s-1), where T(m, t) = sum_{j<=t}
    (-1)^j C(m, j) q^(t-j) steps by T(m+1, t+1) = (q-1) T(m, t)
    + (-1)^(t+1) C(m, t+1), and each binomial by one multiply and one
    exact division."""
    counts = [0] * (n + 1)
    counts[0], counts[m0] = 1, a_min
    t_sum, binom, lead, tail = 1, 1, comb(n, m0), 1
    for s in range(1, n - m0 + 1):
        sign = -1 if s % 2 else 1
        t_sum = (q - 1) * t_sum + sign * (binom * m0 // s)  # T(m0+s, s)
        prev, binom = binom, binom * (m0 + s) // s  # C(m0+s-1, s-1), C(m0+s, s)
        lead = lead * (n - m0 - s + 1) // (m0 + s)  # C(n, m0+s)
        tail = tail * (n - m0 - s + 1) // s  # C(n-m0, s)
        val = lead * (t_sum - sign * binom + sign * prev) + sign * tail * a_min
        if val < 0:
            raise CertificationError(f"negative {name} count at weight {m0 + s}")
        counts[m0 + s] = val
    if sum(counts) != q ** (n - m0):
        raise CertificationError("distribution totals disagree with q^k / q^(n-k)")
    return WeightDistribution(tuple(counts))


# ----------------------------------------------------------------------
# Minimum-weight supports.


def min_weight_supports(
    group: AbelianGroup, residues: np.ndarray, k: int, budget: int | None = None
) -> DesignInstance:
    """Distinct supports of the weight-(n-2k) codewords as a block family
    with ascending rows; each support stands for the q - 1 nonzero
    scalings of one codeword.

    residues[i] holds the residues of the point group element of code
    coordinate i (PointGroupMap.residues).  The supports are the zero-sum
    (n-2k)-subsets of the point group: the total point sum is zero, so
    they are the complements of the zero-sum 2k-subsets, which are the
    dual's weight-2k supports (verify_design reads them with complement
    from these rows).  The family size is certified against the
    closed-form count.
    """
    n, w = len(residues), len(residues) - 2 * k
    if (np.sum(residues, axis=0) % np.array(group.factors, dtype=np.int64)).any():
        raise CertificationError("rational points do not sum to zero")
    masks = subset_sum_masks(group, residues, w, group.zero(), budget=budget)
    expected = count_subsets(group, 2 * k, group.zero())
    if len(masks) != expected:
        raise CertificationError(
            f"enumerated {len(masks)} zero-sum {w}-subsets, closed form says {expected}"
        )
    return DesignInstance(v=n, block_size=w, blocks=masks)


def zero_sum_witness_positions(
    group: AbelianGroup, residues: np.ndarray, k: int
) -> tuple[int, ...]:
    """Positions of one zero-sum 2k-subset of the points, deterministically.

    residues[i] holds the residues of the point group element of code
    coordinate i, each element once.  For E(F_q) = Z_p + Z_p each coset
    of the first-generator line sums to zero, so the points whose second
    residue is below 2k/p, a union of 2k/p cosets, work at any scale.
    Any other group lists every zero-sum 2k-subset with subset_sum_masks,
    under the listing's budget, and takes the first.
    """
    k2 = 2 * k
    if len(group.factors) == 2 and group.factors[0] == group.factors[1]:
        p = group.factors[0]
        if k2 % p == 0 and k2 // p <= p:
            return tuple(np.flatnonzero(np.asarray(residues)[:, 1] < k2 // p).tolist())
    masks = subset_sum_masks(group, residues, k2, group.zero())
    if not len(masks):
        raise CertificationError("no zero-sum subset exists; the code is MDS")
    return mask_positions(masks[0])


def pin_min_distance(
    code: LinearCode, vanish_at: tuple[int, ...], word: np.ndarray | None = None
) -> int:
    """Exact minimum distance of a near-MDS evaluation code.

    The construction guarantees d >= n - k_dim; exhibiting a codeword
    vanishing on a k_dim-subset (weight exactly n - k_dim) pins d.  The
    word is found by codeword_vanishing_on unless given (code.certificate).
    """
    if len(vanish_at) != code.k_dim:
        raise HypothesisError("witness must vanish on exactly k_dim positions")
    word = codeword_vanishing_on(code, vanish_at) if word is None else word
    weight = int(np.count_nonzero(word.any(axis=1)))
    if weight != code.n - code.k_dim:
        raise CertificationError(
            f"witness codeword has weight {weight}, expected {code.n - code.k_dim}"
        )
    return weight


# ----------------------------------------------------------------------
# Two-design certification.


def lambda_closed_form(p: int, k: int) -> int:
    """Pair coverage of the minimum-weight support design, exact.  The
    field size cancels out: it depends only on the block count b."""
    return support_coverage(p, k, p * p - 2 * k, 2)


def lambda_dual_closed_form(p: int, k: int) -> int:
    """Pair coverage of the complementary (dual minimum-weight) design."""
    return support_coverage(p, k, 2 * k, 2)


@dataclass(frozen=True)
class TwoDesignCertificate:
    """Outcome of certifying the minimum-weight supports as 2-designs.

    mode is "measured" when the block families were enumerated and
    verified coverage-by-coverage, "theory-implied" when only the closed
    forms were evaluated (enumeration over budget).
    """

    v: int
    lambda_primal: int
    lambda_dual: int
    block_count: int
    mode: str
    primal_report: DesignCheckReport | None = None
    dual_report: DesignCheckReport | None = None


def certify_two_design(
    group: AbelianGroup, residues: np.ndarray, k: int, budget: int | None = None
) -> TwoDesignCertificate:
    """Verify that minimum-weight supports of the code and its dual both
    form 2-designs with the closed-form coverage numbers.

    residues[i] holds the residues of the point group element of code
    coordinate i.  The block count and coverages depend on n = p^2 and k
    alone, not on the field size.  Measured mode lists the supports, runs
    verify_design on the family and, with complement, on its complements
    (the dual supports, read from complemented point columns of the same
    rows), and demands exact agreement with the closed forms; any
    mismatch is a CertificationError.  When the listing's own budget
    check refuses, the certificate falls back to theory-implied mode
    (closed forms and integrality only).
    """
    n = len(residues)
    p = isqrt(n)
    if p * p != n or k % p:
        raise HypothesisError("certification needs n = p^2 and p | k")
    lam = lambda_closed_form(p, k)
    lam_dual = lambda_dual_closed_form(p, k)
    block_count = _block_count(p, k)
    cert = TwoDesignCertificate(
        v=n,
        lambda_primal=lam,
        lambda_dual=lam_dual,
        block_count=block_count,
        mode="theory-implied",
    )
    try:
        primal = min_weight_supports(group, residues, k, budget=budget)
    except BudgetError:
        return cert
    if len(primal.blocks) != block_count:
        raise CertificationError(
            f"support family size {len(primal.blocks)} != A_min/(q-1) = {block_count}"
        )
    reports = []
    for name, complement, want in (("primal", False, lam), ("dual", True, lam_dual)):
        report = verify_design(primal, 2, budget=budget, complement=complement)
        if not report.is_design or report.lam != want:
            raise CertificationError(
                f"measured {name} design {report} disagrees with lambda = {want}"
            )
        reports.append(report)
    return replace(cert, mode="measured", primal_report=reports[0], dual_report=reports[1])


# ----------------------------------------------------------------------
# Assmus-Mattson style checks.


def disjoint_support_pairing(
    primal: DesignInstance, dual: DesignInstance
) -> list[tuple[int, int]]:
    """Match each primal minimum-weight support to a disjoint dual one.

    Near-MDS codes pair their minimum-weight codewords with dual
    minimum-weight codewords of disjoint support; returns (i, j) index
    pairs (first disjoint dual block per primal block, in block order)
    and raises CertificationError if any primal block has no partner.
    """
    if primal.v != dual.v:
        raise HypothesisError("support families live on different point sets")
    pairs = []
    for i, block in enumerate(primal.blocks):
        disjoint = np.flatnonzero(~(dual.blocks & block).any(axis=1))
        if not disjoint.size:
            raise CertificationError(
                f"primal support {mask_positions(block)} meets every dual"
                " minimum-weight support"
            )
        pairs.append((i, int(disjoint[0])))
    return pairs


def am_hypothesis_check(
    code: LinearCode,
    t: int = 2,
    dist: WeightDistribution | None = None,
    budget: int | None = None,
) -> str:
    """Which design-existence route applies to the code at strength t.

    "AM-satisfied": t < min(d, d_dual) and the codewords of C have at
    most d_dual - t nonzero weights in 1..n-t (the classical transform
    route, which then yields designs at every weight).
    "GAM-only": the classical count fails, but the code is near-MDS with
    min(k, n-k) >= 3 and its minimum-weight supports form a t-design,
    which still propagates designs to all weights.
    "neither": no route applies.

    dist is swept by brute force when not supplied, and the dual
    distribution is always its MacWilliams transform.  On the near-MDS
    branch the minimum-weight supports are listed by a codeword sweep
    and their design is verified (budget permitting).
    """
    if dist is None:
        dist = weight_distribution_bruteforce(code, budget=budget)
    dual_dist = macwilliams_transform(dist, code.field.order, code.k_dim)
    n = code.n
    d = dist.min_weight()
    d_dual = dual_dist.min_weight()
    if t < min(d, d_dual):
        nonzero = [w for w in dist.nonzero_weights() if w <= n - t]
        if len(nonzero) <= d_dual - t:
            return "AM-satisfied"
    is_nmds = d == n - code.k_dim and d_dual == code.k_dim
    if is_nmds and min(code.k_dim, n - code.k_dim) >= 3:
        if _min_weight_design_measured(code, d, t, budget):
            return "GAM-only"
    return "neither"


def supports_of_weight(
    code: LinearCode, w: int, budget: int | None = None
) -> DesignInstance:
    """Distinct supports of the weight-w codewords, by codeword sweep.

    Each support must be hit exactly q - 1 times (the scalar multiples
    of one codeword); anything else means repeated supports, which the
    near-MDS minimum-weight layers never have, so it is reported as a
    CertificationError.  A swept row adds the codewords it stands for.
    The sweep's vanishing counts pick the weight-w (high, low) pairs,
    and only those are compared again and packed into block words.
    """
    q, n = code.field.order, code.n
    rows, mults = [], []
    for zeros, neg_high, low, mult in _vanishing_counts(code, budget):
        hi, lo = np.nonzero(zeros == n - w)
        packed = np.packbits(low[lo] != neg_high[hi], axis=1, bitorder="little")
        raw = np.zeros((len(packed), 8 * block_words(n)), dtype=np.uint8)
        raw[:, : packed.shape[1]] = packed
        rows.append(raw.view(WORD))
        mults.append(np.full(len(packed), mult, dtype=np.int64))
    sups, which = np.unique(np.concatenate(rows), axis=0, return_inverse=True)
    hits = np.zeros(len(sups), dtype=np.int64)
    np.add.at(hits, which.ravel(), np.concatenate(mults))
    bad = np.flatnonzero(hits != q - 1)
    if bad.size:
        raise CertificationError(
            f"support {mask_positions(sups[bad[0]])} carries {hits[bad[0]]} codewords,"
            f" expected {q - 1}"
        )
    return DesignInstance(v=code.n, block_size=w, blocks=sort_blocks(sups))


def _min_weight_design_measured(
    code: LinearCode, d: int, t: int, budget: int | None
) -> bool:
    """Check the minimum-weight supports directly from a codeword sweep."""
    family = supports_of_weight(code, d, budget=budget)
    if not len(family.blocks) or t > d:
        return False
    return verify_design(family, t, budget=budget).is_design
