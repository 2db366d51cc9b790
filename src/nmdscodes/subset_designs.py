"""Subset sums in finite abelian groups and the block designs they form.

For a finite abelian group G and x in G, B_k^x denotes the family of
k-element subsets of G summing to x (and B_k^{x,*} the same over the
nonzero elements).  This module counts those families exactly, by a
closed form and by the subset-sum recurrence (a table of counts by size
and sum that never consults the closed form, so is its oracle); lists
them with one meet-in-the-middle engine, which reads the elements as one
(n, rank) array of residues and lists k > n/2 points as the complements
of n - k; and verifies t-designs on block lists, whose blocks are rows
of uint64 words (bit i set when point i is in it), or on their
complements, read from complemented point columns with no copy of the
rows.  subset_sum_masks keeps at most the last 8 listings for the
process, 32 MiB in all, keyed on the group, k, the target and the bytes
of the residues; a listing is read again only after its budget has been
charged.

Counts use the invariant-factor data of G: the exponent, the torsion
sizes #G[d], and for each x the largest divisor layer e(x) = max{d :
d | exp(G), x in dG}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb, gcd, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import budget as _budget
from .errors import BudgetError, CertificationError, HypothesisError
from .linalg import rows_per_block
from .numtheory import divisors, factorize, mobius, padic_valuation


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group in invariant-factor form Z_n1 + ... + Z_nm.

    The factors must form a divisibility chain n1 | n2 | ... | nm with
    every factor >= 2.  The trivial group is factors == ().
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(int(n) for n in self.factors))
        for n in self.factors:
            if n < 2:
                raise ValueError(f"invariant factors must be >= 2, got {n}")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(f"factors must form a divisibility chain: {self.factors}")

    @classmethod
    def parse(cls, text: str) -> "AbelianGroup":
        """Parse the canonical encoding, e.g. '3x3' or '2x4x8'."""
        parts = [s for s in text.strip().split("x") if s]
        return cls(tuple(int(s) for s in parts))

    def encode(self) -> str:
        return "x".join(str(n) for n in self.factors) if self.factors else "1"

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    def element(self, residues: Sequence[int]) -> "GroupElement":
        if len(residues) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} residues, got {len(residues)}"
            )
        return GroupElement(self, tuple(int(r) % n for r, n in zip(residues, self.factors)))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.factors))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements in canonical (lexicographic) order: element i has
        the mixed-radix digits of i, so no range is materialised."""
        strides = [prod(self.factors[j + 1 :]) for j in range(len(self.factors))]
        for i in range(self.order):
            yield GroupElement(self, tuple(i // s % n for n, s in zip(self.factors, strides)))

    def residues(self) -> np.ndarray:
        """The residues of all elements in canonical order, one row each:
        an (order, rank) int64 array."""
        rank = len(self.factors)
        return np.indices(self.factors, dtype=np.int64).reshape(rank, self.order).T

    def torsion_count(self, d: int) -> int:
        """#G[d]: number of elements killed by d."""
        n = 1
        for f in self.factors:
            n *= gcd(d, f)
        return n


@dataclass(frozen=True)
class GroupElement:
    group: AbelianGroup
    residues: tuple[int, ...]

    def _same(self, other: "GroupElement") -> None:
        if other.group != self.group:
            raise ValueError("elements belong to different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._same(other)
        return GroupElement(
            self.group,
            tuple(
                (a + b) % n
                for a, b, n in zip(self.residues, other.residues, self.group.factors)
            ),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.group,
            tuple(-a % n for a, n in zip(self.residues, self.group.factors)),
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __bool__(self) -> bool:
        return any(self.residues)

    def encode(self) -> str:
        return ",".join(str(r) for r in self.residues)


def group_invariants(
    group: AbelianGroup, x: GroupElement
) -> tuple[int, int, dict[int, int]]:
    """(exponent, e(x), {d: #G[d] for d | exponent}).

    e(x) is the largest divisor d of the exponent with x in dG, decided
    componentwise: x in dG iff gcd(d, n_i) divides x_i for every i.
    """
    exp = group.exponent
    torsion = {d: group.torsion_count(d) for d in divisors(exp)}
    e_x = 1
    for d in divisors(exp):
        if all(r % gcd(d, n) == 0 for r, n in zip(x.residues, group.factors)):
            e_x = d
    return exp, e_x, torsion


def _count_subsets(group: AbelianGroup, k: int, x: GroupElement, nonzero: bool) -> int:
    """Moebius closed form shared by count_subsets_full and
    count_subsets_nonzero; nonzero drops the zero element from the pool.

    The divisibility of the outer sum by |G| is asserted; a failure
    would mean the formula or its inputs are wrong.
    """
    n = group.order
    drop = 1 if nonzero else 0
    pool = n - drop
    if not 0 <= k <= pool:
        raise HypothesisError(f"k must be in 0..{pool}, got {k}")
    if k == 0:
        return 1 if not x else 0
    exp, e_x, torsion = group_invariants(group, x)
    total = 0
    for s in divisors(exp if nonzero else gcd(exp, k)):
        inner = 0
        for d in divisors(gcd(e_x, s)):
            inner += mobius(s // d) * torsion[d]
        sign = -1 if (k + k // s) % 2 else 1
        total += sign * comb(n // s - drop, k // s) * inner
    if total % n:
        raise CertificationError(
            f"subset count not divisible by group order: {total} / {n}"
        )
    return total // n


def count_subsets_full(group: AbelianGroup, k: int, x: GroupElement) -> int:
    """Number of k-element subsets of G with sum x (closed form).

    "Full" means subsets are drawn from the whole group, zero included,
    in contrast to count_subsets_nonzero.  Exact for every finite
    abelian group.
    """
    return _count_subsets(group, k, x, nonzero=False)


count_subsets = count_subsets_full


def count_subsets_nonzero(group: AbelianGroup, k: int, x: GroupElement) -> int:
    """Number of k-subsets of G \\ {0} with sum x (closed form)."""
    return _count_subsets(group, k, x, nonzero=True)


# ----------------------------------------------------------------------
# Block rows.  A block over points 0..v-1 is a row of block_words(v)
# little-endian uint64 words, bit i % 64 of word i // 64 set when point i
# is in it.  The byte order is fixed, so a row's bytes (and so every
# result read from them) are the same on every host.

WORD = np.dtype("<u8")


def block_words(v: int) -> int:
    """Words per block row over v points."""
    return (v + 63) // 64


def _steps(words: np.ndarray) -> np.ndarray:
    """int8 signs of each next row's integer minus the row's: one O(bW)
    pass, a block of rows (linalg.rows_per_block) at a time."""
    step = np.zeros(max(len(words) - 1, 0), dtype=np.int8)
    per = rows_per_block(words)
    for lo in range(0, len(step), per):
        part = step[lo : lo + per]
        for j in range(words.shape[1]):
            a, b = words[lo : lo + len(part), j], words[lo + 1 : lo + len(part) + 1, j]
            cmp = (a < b).view(np.int8) - (a > b).view(np.int8)
            np.copyto(part, cmp, where=cmp != 0)
    return step


def sort_blocks(words: np.ndarray) -> np.ndarray:
    """The rows in ascending order of the integers they encode, as a
    read-only array.  Rows that never descend (one _steps pass) are kept,
    rows that never ascend reversed, and others sorted word by word."""
    step = _steps(words)
    order, down = slice(None, None, -1), (step < 0).any()
    if down and (step > 0).any():
        order = np.arange(len(words))
        for j in range(words.shape[1]):
            order = order[np.argsort(words[order, j], kind="stable" if j else "quicksort")]
    if down or words.flags.writeable:
        words = (words[order] if down else words).copy()
    words = np.ascontiguousarray(words, dtype=WORD)
    words.flags.writeable = False
    return words


def complement_blocks(words: np.ndarray, v: int) -> np.ndarray:
    """The complements in 0..v-1 of the rows, as a read-only array.
    full ^ m = full - m, so ascending rows come out descending."""
    out = np.ascontiguousarray(words ^ _span_row(0, v, block_words(v)), dtype=WORD)
    out.flags.writeable = False
    return out


def mask_positions(row: np.ndarray) -> tuple[int, ...]:
    """The points of a block row, in increasing order."""
    bits = np.unpackbits(np.ascontiguousarray(row, dtype=WORD).view(np.uint8), bitorder="little")
    return tuple(np.flatnonzero(bits).tolist())


def _words_of_ints(masks: Iterable[int], v: int) -> np.ndarray:
    """Block rows of int bitmasks (bit i = point i), each checked to be a
    nonnegative int below 1 << v."""
    width, count, raw = block_words(v), 0, bytearray()
    for m in masks:
        if not isinstance(m, int) or m < 0 or m >> v:
            raise ValueError(f"block {m!r} is not a mask below 1 << {v}")
        raw += m.to_bytes(8 * width, "little")
        count += 1
    return np.frombuffer(bytes(raw), dtype=WORD).reshape(count, width)


def _span_row(lo: int, hi: int, width: int) -> np.ndarray:
    """The row of width words with the bits of points lo..hi-1 set."""
    return np.frombuffer(((1 << hi) - (1 << lo)).to_bytes(8 * width, "little"), dtype=WORD)


# ----------------------------------------------------------------------
# Counting by the subset-sum recurrence: T[m][x], the number of m-subsets
# of the pool summing to x (x by its index in canonical order), starts at
# T[0] = [1, 0, ..., 0], and each pool element g adds T[m - 1][x - g] to
# T[m][x] for all m >= 1 and x at once.  No subset is listed.


def _count_table(group: AbelianGroup, k: int, exclude_zero: bool, budget: int | None) -> np.ndarray:
    """T[m][x] for m <= k over the elements of group, zero dropped with
    exclude_zero, in int64 while the largest cell C(n, min(k, n // 2)) is
    below 2^63 and in Python ints past that.  k is checked and the
    n (k + 1) |G| cell updates charged before any element exists."""
    order, n = group.order, group.order - exclude_zero
    if not 0 <= k <= n:
        raise HypothesisError(f"k must be in 0..{n}, got {k}")
    updates = n * (k + 1) * order
    what = f"the subset-sum table needs n(k+1)|G| = {n}*{k + 1}*{order} = {updates} cell updates"
    _budget.charge(updates, budget, _budget.SUBSET_CANDIDATES, f"{what}, over the budget")
    table = np.zeros((k + 1, order), dtype=np.int64 if comb(n, min(k, n // 2)) < 2**63 else object)
    table[0, 0] = 1
    res = group.residues()
    for g in res[int(exclude_zero) :]:
        table[1:] += table[:-1][:, _index((res - g) % group.factors, group.factors)]
    return table


def brute_force_counts(
    group: AbelianGroup,
    k: int,
    x: GroupElement,
    exclude_zero: bool = False,
    budget: int | None = None,
) -> int:
    """Oracle: the number of k-subsets summing to x, read from row k of
    the subset-sum table, which never consults the closed form."""
    if x.group != group:
        raise HypothesisError("x must belong to the group")
    row = _count_table(group, k, exclude_zero, budget)[k]
    return int(row[_index(np.array([x.residues], dtype=np.int64), group.factors)[0]])


def brute_force_count_table(
    group: AbelianGroup, k: int, exclude_zero: bool = False, budget: int | None = None
) -> dict[GroupElement, int]:
    """{x: #k-subsets summing to x} over the sums that occur, in canonical
    order: the nonzero cells of row k of the subset-sum table."""
    row = _count_table(group, k, exclude_zero, budget)[k].tolist()
    return {GroupElement(group, tuple(r)): c for r, c in zip(group.residues().tolist(), row) if c}


# ----------------------------------------------------------------------
# Listing by meet in the middle (Horowitz & Sahni, JACM 21(2), 1974).
# Each half of the positions lists its subsets of at most k <= n/2
# elements as block rows with their sizes (in the smallest dtype holding
# k) and the residues of their sums (in the smallest holding twice the
# exponent, so a sum of two residues never wraps), keyed by size * |G| +
# the index of the sum in canonical order (in the smallest dtype holding
# (k + 1) |G|); each half drops its sizes and sums once its keys are
# formed.  The k-subsets with sum x join each right subset (s, a) to the
# run of left keys (k - s, x - a), found by one stable sort of the left
# keys and one searchsorted on the run heads, at most one per left row.
# The output is filled one block of rows at a time (linalg.rows_per_block):
# each row's sorted left row is gathered straight into the block, and its
# right row ORed in, so no index of all the output rows exists.  For k >
# n/2 the (n - k)-subsets summing to the total minus x are joined into
# the mirrored block in reverse, then complemented in place by one XOR: no
# half lists more than C(n, k) subsets, and no block array is copied.
# C(n, k), the pool of n rows and the half tables' words are charged before
# the group's pool or any row is listed.  Each half's rows ascend, each new
# one with a higher bit than all before, and the right half holds the high
# bits, so the unions ascend unsorted; for odd n it is the smaller half.


def _check_subset_budget(
    n_values: int, k: int, budget: int | None
) -> tuple[tuple[int, int, int], ...]:
    """Check 0 <= k <= n_values and charge C(n_values, k) candidate
    subsets, the pool of n_values elements and the half tables' words to
    the budget.  Returns (lo, hi, rows) for each half lo..hi-1 of the
    positions, rows its subsets of at most min(k, n_values - k) elements."""
    if not 0 <= k <= n_values:
        raise HypothesisError(f"k must be in 0..{n_values}, got {k}")
    flag, default = budget, _budget.SUBSET_CANDIDATES
    # C(n, j) grows for j <= n/2, so stepping it to C(n, k) stops at the
    # first one over the budget
    cap, candidates = min(k, n_values - k), 1
    for j in range(cap + 1):
        candidates = candidates * (n_values - j + 1) // j if j else 1
        what = f"C({n_values},{k}) {'=' if j == cap else '>='} {candidates} subsets"
        _budget.charge(candidates, flag, default, f"{what} exceeds the budget")
    _budget.charge(n_values, flag, default, f"a pool of {n_values} elements exceeds the budget")
    mid = n_values - n_values // 2
    halves = tuple((lo, hi, sum(comb(hi - lo, s) for s in range(min(cap, hi - lo) + 1)))
                   for lo, hi in ((0, mid), (mid, n_values)))
    words = (halves[0][2] + halves[1][2]) * block_words(n_values)
    _budget.charge(words, flag, default, f"half tables of {words} words exceed the budget")
    return halves


def _index(sums: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    """Index in canonical (mixed-radix) order of each row of residues."""
    idx = np.zeros(len(sums), dtype=np.int64)
    for j, f in enumerate(factors):
        idx = idx * f + sums[:, j]
    return idx


def _keys(
    size: np.ndarray, sums: np.ndarray, factors: tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """size * |G| + the index of each row of sums in canonical order, in
    dtype, which holds every key: Horner's rule on the mixed-radix digits."""
    key = size.astype(dtype)
    for j, f in enumerate(factors):
        key = (key * f + sums[:, j]).astype(dtype, copy=False)
    return key


def _half_table(
    res: np.ndarray, k: int, positions: tuple[int, int, int], factors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The subsets of at most k <= n/2 points of the positions (lo, hi, rows)
    of the n rows of residues, reduced mod factors in their dtype, as
    (rows, sizes, sums): block rows over all n positions in ascending
    order, and the residues of each sum.  Point i extends every subset
    while i - lo < k, as none can be full yet."""
    (lo, hi, total), n = positions, len(res)
    rows = np.zeros((total, block_words(n)), dtype=WORD)
    size = np.zeros(total, dtype=np.min_scalar_type(k))
    sums = np.zeros((total, len(factors)), dtype=res.dtype)
    filled = 1
    for i in range(lo, hi):
        grow = slice(filled) if i - lo < k else np.flatnonzero(size[:filled] < k)
        end = filled + len(size[grow])
        rows[filled:end] = rows[grow]
        rows[filled:end, i // 64] |= np.uint64(1 << i % 64)
        size[filled:end] = size[grow] + 1
        sums[filled:end] = (sums[grow] + res[i]) % factors
        filled = end
    return rows, size, sums


def subset_sum_masks(
    group: AbelianGroup,
    residues: np.ndarray,
    k: int,
    target: GroupElement,
    budget: int | None = None,
) -> np.ndarray:
    """Block rows (over the positions of residues) of the k-subsets
    summing to target, ascending and read-only.  residues[i] holds the
    residues of element i of group, an (n, rank) array.  For k > n/2
    they are listed as the complements of the (n - k)-subsets summing to
    the total of residues minus target."""
    halves = _check_subset_budget(len(residues), k, budget)
    res = np.ascontiguousarray(residues, dtype=np.int64).reshape(len(residues), len(group.factors))
    return _kept_listing(group, k, target, len(res), res.tobytes(), halves)


# (group, k, target, n, residue bytes) -> listing, least recently used
# first: at most _KEPT_LISTINGS listings of _KEPT_BYTES in all
_KEPT: dict[tuple, np.ndarray] = {}
_KEPT_LISTINGS, _KEPT_BYTES = 8, 32 << 20


def _kept_listing(
    group: AbelianGroup, k: int, target: GroupElement, n: int, residues: bytes, halves: tuple
) -> np.ndarray:
    """_subset_sum_masks on the n int64 residue rows whose bytes are
    residues, once subset_sum_masks has charged the listing (halves).  n
    is part of the key, as a trivial group's rows have no bytes.  A new
    listing is kept unless it alone passes _KEPT_BYTES, and the least
    recently used go until the kept ones are within both bounds."""
    key = (group, k, target, n, residues)
    if key in _KEPT:
        masks = _KEPT[key] = _KEPT.pop(key)
        return masks
    res = np.frombuffer(residues, dtype=np.int64).reshape(n, len(group.factors))
    masks = _subset_sum_masks(group, res, k, target, halves)
    if masks.nbytes <= _KEPT_BYTES:
        _KEPT[key] = masks
        kept = sum(m.nbytes for m in _KEPT.values())
        while len(_KEPT) > _KEPT_LISTINGS or kept > _KEPT_BYTES:
            kept -= _KEPT.pop(next(iter(_KEPT))).nbytes
    return masks


def _subset_sum_masks(
    group: AbelianGroup, res: np.ndarray, k: int, target: GroupElement, halves: tuple
) -> np.ndarray:
    """subset_sum_masks on an (n, rank) int64 array of residues once its
    listing is charged: halves is _check_subset_budget's result for n
    and k."""
    if target.group != group:
        raise HypothesisError("target must belong to the group")
    order, n = group.order, len(res)
    # keys stay below (n + 1) * |G|
    if (n + 1) * order >= 2**63:
        raise BudgetError(f"subset keys (n + 1) * |G| = {(n + 1) * order} reach 2^63")
    flip = 2 * k > n
    if flip:
        k, target = n - k, group.element(res.sum(axis=0)) - target
    narrow = np.min_scalar_type(2 * group.exponent)
    factors = np.array(group.factors, dtype=narrow)
    res = (res % np.array(group.factors, dtype=np.int64)).astype(narrow)
    key_type = np.min_scalar_type((k + 1) * order)
    lrows, size, sums = _half_table(res, k, halves[0], factors)
    lkey = _keys(size, sums, group.factors, key_type)
    del size, sums
    by_key = np.argsort(lkey, kind="stable")
    lkey, lrows = lkey[by_key], lrows[by_key]
    del by_key
    edge = np.flatnonzero(np.r_[True, lkey[1:] != lkey[:-1], True])  # run starts, then the end
    heads = lkey[edge[:-1]]
    del lkey
    rrows, size, sums = _half_table(res, k, halves[1], factors)
    want = (np.array(target.residues, dtype=narrow) + factors - sums) % factors
    partner = _keys(k - size, want, group.factors, key_type)
    del size, sums, want
    run = np.searchsorted(heads, partner).clip(max=len(heads) - 1)
    count = (edge[run + 1] - edge[run]) * (heads[run] == partner)
    total = int(count.sum())
    index = np.min_scalar_type(-max(total, len(lrows)))
    # right row i fills output rows bounds[i]..bounds[i + 1] - 1, output
    # row o from sorted left row o + shift[i]
    bounds = np.zeros(len(count) + 1, dtype=index)
    np.cumsum(count, dtype=index, out=bounds[1:])
    shift = (edge[run] - bounds[:-1]).astype(index)
    del partner, run, count
    masks = np.empty((total, block_words(n)), dtype=WORD)
    per = rows_per_block(masks)
    for lo in range(0, total, per):
        hi = min(lo + per, total)
        first = int(np.searchsorted(bounds, lo, side="right")) - 1
        last = int(np.searchsorted(bounds, hi))
        part = np.diff(np.clip(bounds[first : last + 1], lo, hi))
        left = np.repeat(shift[first:last], part)
        left += np.arange(lo, hi, dtype=index)
        right = np.repeat(rrows[first:last], part, axis=0)
        block = masks[total - hi : total - lo] if flip else masks[lo:hi]
        if flip:  # joined in reverse, as complements of descending rows ascend
            left, right = left[::-1], right[::-1]
        np.take(lrows, left, axis=0, out=block, mode="clip")
        block |= right
    if flip:
        masks ^= _span_row(0, n, block_words(n))
    masks.flags.writeable = False
    return masks


def subset_sum_blocks(
    group: AbelianGroup, k: int, x: GroupElement, budget: int | None = None
) -> "DesignInstance":
    """B_k^x as a block list of rows over the whole group: point i is the
    i-th group element in canonical order.  The listing is charged
    before the pool of element residues is built."""
    halves = _check_subset_budget(group.order, k, budget)
    masks = _subset_sum_masks(group, group.residues(), k, x, halves)
    return DesignInstance(group.order, k, masks)


# ----------------------------------------------------------------------
# Designs.


@dataclass(frozen=True, eq=False)
class DesignInstance:
    """A block list over points 0..v-1, all blocks the same size.

    blocks is a read-only (b, block_words(v)) array of WORD rows, row j
    the bits of block j.  A sequence of int bitmasks (bit i set when
    point i is in the block) is converted; explicit position lists enter
    through from_positions.  ValueError names the first row that does not
    hold block_size bits below v, read from popcounts and the last word.
    """

    v: int
    block_size: int
    blocks: np.ndarray

    def __post_init__(self) -> None:
        v, k, words = self.v, self.block_size, self.blocks
        if not isinstance(words, np.ndarray):
            words = _words_of_ints(words, v)
        if words.dtype != WORD or words.ndim != 2 or words.shape[1] != block_words(v):
            raise ValueError(f"blocks must be rows of {block_words(v)} {WORD.str} words")
        # popcounts summed a word column at a time, in a signed type for 64 W
        count = np.zeros(len(words), np.min_scalar_type(-64 * words.shape[1] - 1))
        for column in words.T:
            count += np.bitwise_count(column)
        bad = count != k
        if v % 64:  # a bit past v makes the last word at least 2^(v mod 64)
            bad |= words[:, -1] >= 1 << v % 64
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise ValueError(f"block {j} is not a {k}-point mask below 1 << {v}")
        if words.flags.writeable or not words.flags.c_contiguous:
            words = np.array(words)
            words.flags.writeable = False
        object.__setattr__(self, "blocks", words)

    @classmethod
    def from_positions(
        cls, v: int, k: int, blocks: Iterable[Sequence[int]]
    ) -> "DesignInstance":
        """The design whose blocks are strictly increasing k-point lists."""
        masks = []
        for b in blocks:
            b = tuple(int(i) for i in b)
            # -1 < b[0] < ... < b[-1] < v: in range and strictly increasing
            if len(b) != k or any(x >= y for x, y in zip((-1,) + b, b + (v,))):
                raise ValueError(f"block {b} is not {k} increasing points in 0..{v - 1}")
            masks.append(sum(1 << i for i in b))
        return cls(v=v, block_size=k, blocks=masks)


@dataclass(frozen=True)
class DesignCheckReport:
    """Outcome of verify_design, serializable for the CLI."""

    v: int
    block_size: int
    t: int
    is_design: bool
    lam: int | None
    block_count: int
    simple: bool
    witness: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "v": self.v,
            "k": self.block_size,
            "t": self.t,
            "lambda": self.lam,
            "b": self.block_count,
            "simple": self.simple,
            "is_design": self.is_design,
        }


def verify_design(
    design: DesignInstance, t: int, budget: int | None = None, *, complement: bool = False
) -> DesignCheckReport:
    """Check whether the block list is a t-design by exact coverage counting.

    Every one of the C(v,t) point t-subsets must be covered by the same
    number of blocks; each count is an exact popcount over the blocks.
    lam is the coverage of {0..t-1}, and the witness of a non-design the
    first t-subset in lexicographic order covered differently.  Refuses
    (BudgetError) rather than sampling when the coverage map would exceed
    the budget.  An empty block list is a vacuous non-design.  simple
    compares adjacent rows, sorted only if they both ascend and descend.
    With complement the family checked is the complements in 0..v-1 of
    the blocks, blocks of v - block_size points, read from complemented
    point columns (_columns) with no complemented copy of the rows: the
    dual supports of min_weight_supports.  Distinct rows have distinct
    complements, so simple is read from the rows as they are.
    """
    v = design.v
    k = v - design.block_size if complement else design.block_size
    if not 1 <= t <= k:
        raise HypothesisError(f"need 1 <= t <= block size {k}, got t={t}")
    cells = comb(v, t)
    what = f"coverage map C({v},{t}) = {cells} exceeds budget"
    _budget.charge(cells, budget, _budget.COVERAGE_CELLS, what)
    b = len(design.blocks)
    if b == 0:
        return DesignCheckReport(v, k, t, False, None, 0, True, None)

    lam, witness = _coverage(_columns(design, complement), t)
    step = _steps(design.blocks)
    if (step > 0).any() and (step < 0).any():
        step = _steps(sort_blocks(design.blocks))
    simple = bool(step.all())
    is_design = witness is None
    if is_design and comb(v, t) * lam != comb(k, t) * b:
        raise CertificationError(
            f"coverage identity violated: C({v},{t})*{lam} != C({k},{t})*{b}"
        )
    return DesignCheckReport(v, k, t, is_design, lam, b, simple, witness)


def _columns(design: DesignInstance, complement: bool = False) -> np.ndarray:
    """cols[i], the blocks holding point i (with complement, the blocks
    without it) as a bitset in uint64 words: bit i % 8 of byte column i // 8
    of the rows, copied once into a buffer padded to whole words, masked and
    packed (any nonzero byte to a 1) into a table.  With complement the
    table is XORed in place with its live bits: every byte whose blocks all
    exist, and the high b % 8 bits of the byte after them, as np.packbits
    fills a byte from its most significant bit.  The padding stays 0."""
    by_byte, b = design.blocks.view(np.uint8), len(design.blocks)
    buf = np.zeros(b + -b % 64, dtype=np.uint8)
    cols = np.empty((design.v, len(buf) >> 3), dtype=np.uint8)
    for i in range(design.v):
        if not i & 7:
            buf[:b] = by_byte[:, i >> 3]
        cols[i] = np.packbits(buf & (1 << (i & 7)))
    if complement:
        live = np.zeros(cols.shape[1], dtype=np.uint8)
        live[: b >> 3] = 0xFF
        if b & 7:
            live[b >> 3] = 0xFF00 >> (b & 7) & 0xFF
        cols ^= live
    return cols.view(np.uint64)


def _coverage(cols: np.ndarray, t: int) -> tuple[int, tuple[int, ...] | None]:
    """(coverage of {0..t-1}, first t-subset covered differently or None) of
    the family whose point columns (_columns) are cols: for each
    (t-1)-prefix in lexicographic order, the popcounts of the AND of its
    columns (a lone one as it is) with each larger point's, in order, a
    block of columns (linalg.rows_per_block) at a time, ANDed into one
    reused buffer and popcounted into another."""
    lam = int(np.bitwise_count(np.bitwise_and.reduce(cols[:t], axis=0)).sum())
    per = rows_per_block(cols)
    both = np.empty((min(per, len(cols)), cols.shape[1]), dtype=cols.dtype)
    counts = np.empty(both.shape, dtype=np.uint8)
    for prefix in combinations(range(len(cols) - 1), t - 1):
        start = prefix[-1] + 1 if prefix else 0
        row = reduce(np.bitwise_and, [cols[i] for i in prefix]) if prefix else None
        for lo in range(start, len(cols), per):
            rest = cols[lo : lo + per]
            if prefix:
                rest = np.bitwise_and(row, rest, out=both[: len(rest)])
            popcounts = np.bitwise_count(rest, out=counts[: len(rest)])
            bad = np.flatnonzero(popcounts.sum(axis=1, dtype=np.int64) != lam)
            if bad.size:
                return lam, prefix + (lo + int(bad[0]),)
    return lam, None


# ----------------------------------------------------------------------
# Closed-form design predicate for subset-sum families.


def _is_p_group(group: AbelianGroup) -> int | None:
    fac = factorize(group.order) if group.order > 1 else {}
    if len(fac) == 1:
        return next(iter(fac))
    return None


def _one_design_p_group(group: AbelianGroup, k: int, x: GroupElement, p: int) -> bool:
    """1-design criterion for (G, B_k^x), G an abelian p-group, p odd.

    Holds iff exp(G) | k, or v_p(k) >= 1 + min over components with
    x_i != 0 of v_p(x_i).  (Components with x_i = 0 contribute nothing;
    for x = 0 only the exponent condition remains.)
    """
    if k % group.exponent == 0:
        return True
    vk = padic_valuation(k, p)
    finite = [padic_valuation(r, p) for r in x.residues if r]
    return bool(finite) and vk >= 1 + min(finite)


def is_design_subset_sums(
    group: AbelianGroup,
    k: int,
    x: GroupElement,
    t: int,
    budget: int | None = None,
) -> bool:
    """Whether (G, B_k^x) is a t-design.

    Uses the closed-form criteria where they are established: for odd-p
    abelian p-groups, t = 1 in general and t = 2 when every invariant
    factor equals p (elementary), where B_k^x is a 2-design iff p | k
    and x = 0.  Everything else is decided by enumerating the blocks and
    verifying coverage, subject to the enumeration budget.
    """
    if x.group != group:
        raise HypothesisError("x must belong to the group")
    if not 1 <= k <= group.order:
        raise HypothesisError(f"k must be in 1..{group.order}, got {k}")
    if t < 1:
        raise HypothesisError(f"t must be >= 1, got {t}")

    p = _is_p_group(group)
    if p is not None and p % 2 == 1 and (t == 1 or (t == 2 and set(group.factors) == {p})):
        # an empty family (k = |G| with x != 0) counts as a non-design,
        # matching verify_design on the enumerated blocks
        if count_subsets(group, k, x) == 0:
            return False
        if t == 1:
            return _one_design_p_group(group, k, x, p)
        return k % p == 0 and not x
    design = subset_sum_blocks(group, k, x, budget=budget)
    if t > k:
        return False
    return verify_design(design, t, budget=budget).is_design
