"""Exact linear algebra over GF(2) on int-bitmask vectors and matrices.

Vectors are stored as Python ints with bit ``i`` holding coordinate ``i``
(coordinate 0 is the lowest bit).  All operations are pure and
deterministic; values are immutable after construction.

Elimination runs through one kernel, ``Echelon``, whose pivot is always
a row's lowest set bit.  The convention is load-bearing: it fixes the
free columns, hence the kernel vectors ``_kernel_vectors`` reads off the
stored rows by back-substitution, one per free column (the valid Gram
basis and magic offset come straight from them, and through those every
magic witness, synthesized assignment and maximizing sign pattern the CLI
prints; ``null_space_basis`` wraps the same read-off), and the coset
representatives of ``Echelon.reduce``, hence ``SyndromeTable``'s
syndromes.

Affine systems are solved in column form by one kernel,
``_row_combinations``, an echelon of the columns each tagged with its
index.  The solution and kernel ``_affine_solutions`` reads off it are
those a row-form elimination gives, whose pivot columns are the columns
independent of the columns before them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Default hard cap on the coset-enumeration dimension.
DEFAULT_COSET_CAP = 30

#: Up to this codimension coset weights and witnesses come from a SyndromeTable.
_TABLE_CODIM = 22


class CosetTooLargeError(Exception):
    """Raised when a coset search would enumerate more than 2**cap elements.

    Carries the best upper bound found before giving up, so callers can
    degrade to a flagged inexact result.
    """

    def __init__(self, dim: int, cap: int, best_weight: int, best_witness: "BitVector"):
        super().__init__(f"coset too large: dimension {dim} exceeds cap {cap}")
        self.dim = dim
        self.cap = cap
        self.best_weight = best_weight
        self.best_witness = best_witness


@dataclass(frozen=True)
class BitVector:
    """A vector over GF(2): explicit length plus an int bitmask."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside declared length")

    @classmethod
    def from_bits(cls, coords: Iterable[int]) -> "BitVector":
        bits = 0
        n = 0
        for c in coords:
            if c & 1:
                bits |= 1 << n
            n += 1
        return cls(n, bits)

    @classmethod
    def zero(cls, n: int) -> "BitVector":
        return cls(n, 0)

    def weight(self) -> int:
        return self.bits.bit_count()

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)

    def to_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.to_tuple())


@dataclass(frozen=True)
class BitMatrix:
    """A dense matrix over GF(2); each row is an int bitmask."""

    cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.cols < 0:
            raise ValueError("negative column count")
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise ValueError("row bits outside declared width")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "BitMatrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
            bits = 0
            for j, v in enumerate(row):
                if v & 1:
                    bits |= 1 << j
            packed.append(bits)
        return cls(cols, tuple(packed))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(ncols, (0,) * nrows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < len(self.rows) and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.rows[i] >> j) & 1

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.rows[i])

    def column(self, j: int) -> BitVector:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        bits = 0
        for i, r in enumerate(self.rows):
            if (r >> j) & 1:
                bits |= 1 << i
        return BitVector(len(self.rows), bits)

    def transpose(self) -> "BitMatrix":
        return BitMatrix(len(self.rows), tuple(self.column(j).bits for j in range(self.cols)))

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols or len(self.rows) != len(other.rows):
            raise ValueError("shape mismatch")
        return BitMatrix(self.cols, tuple(a ^ b for a, b in zip(self.rows, other.rows)))

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.rows]

    def mul_vector(self, v: BitVector) -> BitVector:
        """Matrix-vector product m @ v over GF(2)."""
        if v.length != self.cols:
            raise ValueError("length mismatch")
        bits = 0
        for i, r in enumerate(self.rows):
            if (r & v.bits).bit_count() & 1:
                bits |= 1 << i
        return BitVector(len(self.rows), bits)


class Echelon:
    """Echelon basis of a growing span over GF(2), one row per pivot.

    ``pivots`` maps each pivot column to a stored row whose lowest set bit
    is that column.  Stored rows are only semi-reduced (zero on the pivots
    that existed when they were inserted); ``rref`` finishes the reduction.
    """

    __slots__ = ("pivots", "_mask")

    def __init__(self, rows: Iterable[int] = ()):
        self.pivots: dict[int, int] = {}
        self._mask = 0  # one bit per pivot column
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: int) -> int:
        """The unique element of row + span that is zero on every pivot column."""
        pivots, mask = self.pivots, self._mask
        hit = row & mask
        while hit:
            # A pivot row touches no column below its pivot, so pivots clear upward.
            row ^= pivots[(hit & -hit).bit_length() - 1]
            hit = row & mask
        return row

    def insert(self, row: int) -> bool:
        """Add row to the span; True iff it is independent of the rows before."""
        row = self.reduce(row)
        if not row:
            return False
        low = row & -row
        self.pivots[low.bit_length() - 1] = row
        self._mask |= low
        return True

    def rref(self) -> list[tuple[int, int]]:
        """Reduced row echelon basis as (pivot, row) pairs by ascending pivot.

        Each row is zero on every other pivot column, which makes the basis
        unique for the span.
        """
        reduced: dict[int, int] = {}
        for p in sorted(self.pivots, reverse=True):
            row = self.pivots[p]
            # Pivot bits set in row lie above p, where rows are already reduced.
            hit = (row ^ (1 << p)) & self._mask
            while hit:
                low = hit & -hit
                row ^= reduced[low.bit_length() - 1]
                hit ^= low
            reduced[p] = row
        return sorted(reduced.items())


def _independent(rows: Iterable[int]) -> Iterator[bool]:
    """Per row, True iff it is independent of the rows before it: one
    ``Echelon`` fed lazily, so a caller may stop at any row."""
    ech = Echelon()
    for row in rows:
        yield ech.insert(row)


def rank(m: BitMatrix) -> int:
    """GF(2) rank, invariant under row/column permutations."""
    return Echelon(m.rows).rank


def null_space_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of {v : m @ v = 0}; its size is cols - rank(m)."""
    return [BitVector(m.cols, v) for v in _null_vectors(Echelon(m.rows), m.cols)]


def _null_vectors(ech: Echelon, cols: int) -> list[int]:
    """``null_space_basis`` of the rows ``ech`` spans, over ``cols`` columns."""
    return _kernel_vectors(ech, [f for f in range(cols) if f not in ech.pivots])


def _kernel_vectors(ech: Echelon, free: Iterable[int]) -> list[int]:
    """Per free column f of ``ech``, the kernel vector whose only free
    column is f, by back-substitution: x starts as bit f, and over the
    stored rows in descending pivot order, pivot p joins x when its row
    has an odd number of bits in x (a row has no bit below its pivot, and
    the bits of x above p are final by then)."""
    pivots = ech.pivots
    order = sorted(pivots, reverse=True)
    out = []
    for f in free:
        x = 1 << f
        for p in order:
            if (pivots[p] & x).bit_count() & 1:
                x |= 1 << p
        out.append(x)
    return out


def in_row_space(m: BitMatrix, v: BitVector) -> bool:
    """True iff v is a GF(2) combination of the rows of m."""
    if v.length != m.cols:
        raise ValueError(f"length mismatch: vector {v.length}, matrix cols {m.cols}")
    return Echelon(m.rows).reduce(v.bits) == 0


def row_combination(vectors: Sequence[int], target: int) -> int | None:
    """Coefficient mask c with XOR of {vectors[i] : bit i of c} == target.

    Returns None when target is outside the span.  Otherwise c is the
    unique such mask supported on the greedy independent prefix: the
    inputs that are independent of the inputs before them.
    """
    return _row_combinations(vectors, [target])[0]


def _row_combinations(vectors: Sequence[int], targets: Sequence[int]) -> list[int | None]:
    """``row_combination(vectors, t)`` for every target t, from one echelon."""
    # Bit i of the augmented columns above ``width`` records vectors[i].
    width = max([t.bit_length() for t in targets] + [v.bit_length() for v in vectors], default=0)
    value = (1 << width) - 1
    ech = Echelon()
    for i, v in enumerate(vectors):
        row = ech.reduce(v | (1 << (width + i)))
        if row & value:
            ech.insert(row)
    out = []
    for t in targets:
        row = ech.reduce(t)
        out.append(None if row & value else row >> width)
    return out


def _affine_solutions(cols: Sequence[int], target: int) -> tuple[int, list[int]] | None:
    """Solutions of XOR{cols[l] : bit l of x} == target, or None when there are none.

    Returns (x0, kernel): x0 is supported on the columns independent of
    the columns before them, and the kernel has one vector per other
    column f, in ascending order: bit f plus the combination of earlier
    columns that gives cols[f].
    """
    x0, *combos = _row_combinations(cols, [target, *cols])
    if x0 is None:
        return None
    return x0, [c ^ (1 << f) for f, c in enumerate(combos) if c != 1 << f]


def solve_affine(equations: Sequence[int], rhs: Sequence[int], num_vars: int) -> BitVector | None:
    """One solution x of the GF(2) system {eq_i . x = rhs_i}, or None.

    Each equation is an int bitmask over the ``num_vars`` variables.  The
    solution returned sets all free variables to zero; it is read off the
    system's columns by ``_row_combinations``.
    """
    if len(equations) != len(rhs):
        raise ValueError("ragged system")
    if any(eq >> num_vars for eq in equations):
        raise ValueError(f"an equation has bits outside its {num_vars} variables")
    cols = [sum(((eq >> l) & 1) << i for i, eq in enumerate(equations)) for l in range(num_vars)]
    x = _row_combinations(cols, [sum((b & 1) << i for i, b in enumerate(rhs))])[0]
    return None if x is None else BitVector(num_vars, x)


#: A scanned block holds at most 2^_BLOCK_MATRICES matrices and at most
#: 2^_BLOCK_WORDS uint64 words (8 MiB).
_BLOCK_MATRICES = 14
_BLOCK_WORDS = 20


def _block_low(words: int) -> int:
    """log2 of the matrices per scanned block, for matrices of ``words`` uint64 words."""
    return max(0, min(_BLOCK_MATRICES, _BLOCK_WORDS - (words - 1).bit_length()))


def _span_blocks(
    offset: Sequence[int], basis: Sequence[Sequence[int]], low: int
) -> Iterator[np.ndarray]:
    """All elements of offset + span(basis) as (2^low, width) uint64 blocks.

    Vectors are ``width = len(offset)`` words of at most 64 bits.  Element i
    of the concatenated blocks is offset ^ XOR{basis[l] : bit l of i}, so
    blocks come in binary order: XOR doubling over the first ``low`` basis
    vectors builds one block, which each element of the span of the
    remaining vectors shifts in turn.  Shifts are counted up in binary one
    at a time, so memory stays at two blocks whatever the span's size.
    """
    vecs = np.array(basis, dtype=np.uint64).reshape(len(basis), len(offset))
    block = np.array([offset], dtype=np.uint64)
    for b in vecs[:low]:
        block = np.concatenate([block, block ^ b])
    # flips[t] is the XOR of the first t + 1 remaining vectors: counting from
    # k - 1 to k flips the coefficients up to k's lowest set bit t.
    flips = np.bitwise_xor.accumulate(vecs[low:], axis=0)
    shift = np.zeros(len(offset), dtype=np.uint64)
    yield block
    for k in range(1, 1 << len(flips)):
        shift ^= flips[(k & -k).bit_length() - 1]
        yield block ^ shift


def _block_ranks(block: np.ndarray, bound: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """GF(2) ranks of a block of matrices, keeping those of rank <= bound.

    ``block`` is (count, rows, W) uint64: row bit c is bit c % 64 of word
    c // 64.  Columns are eliminated from the highest down, over the whole
    block at once.  Every column above the current one is already clear,
    so a row holds the current bit exactly when its current word is at
    least that bit, and the row with the largest word is a pivot whenever
    any row holds it.  The pivot row is XORed into every row holding the
    bit, itself included, so it drops out as zero and the column is clear
    afterwards.  A matrix whose rank so far exceeds ``bound`` (at least 0)
    is dropped at once.  Returns (ranks, indices into the block) of the
    survivors, in block order.
    """
    count, _, width = block.shape
    a = np.array(block.transpose(2, 1, 0), dtype=np.uint64, order="C")  # (W, rows, count)
    ranks = np.zeros(count, dtype=np.int64)
    index = np.arange(count)
    for w in reversed(range(width)):
        # XORs never set a bit that no row holds, so absent columns stay absent.
        present = int(np.bitwise_or.reduce(a[w], axis=None)) if a.size else 0
        while present:
            low = 1 << (present.bit_length() - 1)
            present ^= low
            low = np.uint64(low)
            word = a[w]
            # The pivot's word w is the column maximum.  Only its lower words
            # need the argmax row: that gather costs about ten times the
            # reduction, and taking every word by it cut catalog queries_per_s
            # from 15.4 to 12.8 (BENCH_7.json, "pivot_reduction").
            pivot = word.max(axis=0)[None, None, :]
            if w:
                below = np.take_along_axis(a[:w], word.argmax(axis=0)[None, None, :], axis=1)
                pivot = np.concatenate([below, pivot])
            head = a[: w + 1]  # words above w are zero everywhere
            np.bitwise_xor(head, pivot, out=head, where=word >= low)
            ranks += pivot[w, 0] >= low
            if bound is not None:
                keep = ranks <= bound
                if not keep.all():
                    a, ranks, index = a[:, :, keep], ranks[keep], index[keep]
    return ranks, index


def _ascending_span(offset: int, basis: Sequence[int]) -> Iterator[int]:
    """All elements of offset + span(basis), each once, in ascending order.

    The basis is brought to fully reduced form on highest set bits: each
    vector's highest bit is set in no other vector, and the offset is
    cleared on those bits, which makes it the least element.  With the
    vectors sorted by highest bit, the element of coefficient mask c is
    offset ^ XOR{vec[i] : bit i of c}, and two masks order their elements
    as they order themselves: at the highest differing coefficient i, both
    elements agree above vec[i]'s highest bit and differ on it, where only
    the one with c_i = 1 is set.  So counting c up in binary walks the
    space in ascending order; step c flips the coefficients below and at
    c's lowest set bit.
    """
    top: dict[int, int] = {}  # an echelon basis keyed by highest set bit
    for row in basis:
        while row and row.bit_length() - 1 in top:
            row ^= top[row.bit_length() - 1]
        if row:
            top[row.bit_length() - 1] = row
    tops = sorted(top)
    vecs: list[int] = []  # final vectors, by ascending top
    for hb in tops:
        row = top[hb]
        for low, vec in zip(tops, vecs):  # the lower tops; vec is zero on the others
            if (row >> low) & 1:
                row ^= vec
        vecs.append(row)
    for hb, vec in zip(tops, vecs):
        if (offset >> hb) & 1:
            offset ^= vec
    flips, acc = [], 0
    for vec in vecs:
        acc ^= vec
        flips.append(acc)
    yield offset
    for c in range(1, 1 << len(vecs)):
        offset ^= flips[(c & -c).bit_length() - 1]
        yield offset


def _min_weight_dfs(basis: list[tuple[int, int]], offset: int, length: int) -> tuple[int, int]:
    """Branch-and-bound over an echelon basis, pruning on fixed-prefix weight.

    ``basis`` is (pivot, row) pairs by ascending pivot, each row zero below
    its pivot.  After the first t basis choices, all coordinates below the
    (t+1)-th pivot are final, which bounds the completion weight from below.
    """
    pivots = [p for p, _ in basis]
    rows = [b for _, b in basis]
    r = len(rows)
    prefix_masks = [(1 << pivots[t]) - 1 for t in range(r)] + [(1 << length) - 1]

    best_w = offset.bit_count()
    best_v = offset
    stack = [(0, offset)]
    while stack:
        t, vec = stack.pop()
        if t == r:
            w, diff = vec.bit_count(), vec ^ best_v
            # Ties go to the lexicographically smaller (c0, c1, ...): the
            # lowest differing coordinate is 0 in it.
            if w < best_w or (w == best_w and best_v & diff & -diff):
                best_w, best_v = w, vec
            continue
        for nxt in (vec ^ rows[t], vec):  # LIFO: the unchanged branch explores first
            if (nxt & prefix_masks[t + 1]).bit_count() <= best_w:
                stack.append((t + 1, nxt))
    return best_w, best_v


def coset_min_weight(
    row_basis: Sequence[BitVector],
    offset: BitVector,
    cap: int = DEFAULT_COSET_CAP,
) -> tuple[int, BitVector]:
    """Minimum Hamming weight over the affine space offset + span(row_basis).

    Returns (weight, witness) where the witness is the lexicographically
    smallest coordinate vector among the minimum-weight elements.  When
    offset lies in the span the answer is an exact 0; when the codimension
    is at most ``_TABLE_CODIM`` the witness is a ``SyndromeTable`` leader,
    exact at any span dimension.  Past that a branch-and-bound search runs,
    and raises CosetTooLargeError when the span dimension exceeds ``cap``,
    attaching the best upper bound found.
    """
    for v in row_basis:
        if v.length != offset.length:
            raise ValueError("mixed vector lengths")
    return _coset_min_weight(Echelon(v.bits for v in row_basis), offset, cap)


def _coset_min_weight(
    ech: Echelon, offset: BitVector, cap: int = DEFAULT_COSET_CAP
) -> tuple[int, BitVector]:
    """``coset_min_weight`` over the span of ``ech``, for callers that
    search many cosets of one row space."""
    length = offset.length
    start = ech.reduce(offset.bits)
    if start == 0:
        return 0, BitVector(length, 0)
    if length - ech.rank <= _TABLE_CODIM:
        table = SyndromeTable(ech, length)
        v = table.leader(table.syndrome(start))
        return v.bit_count(), BitVector(length, v)
    dim = ech.rank
    if dim > cap:
        # Cheap upper bound: the reduced offset (often far below the raw one).
        w = min(offset.bits.bit_count(), start.bit_count())
        witness = start if start.bit_count() <= offset.bits.bit_count() else offset.bits
        raise CosetTooLargeError(dim, cap, w, BitVector(length, witness))
    w, v = _min_weight_dfs(sorted(ech.pivots.items()), start, length)
    return w, BitVector(length, v)


class SyndromeTable:
    """Coset leaders of a row space, indexed by syndrome (MacWilliams &
    Sloane, *The Theory of Error-Correcting Codes*, 1977).

    The syndrome of v is ``row_space.reduce(v)`` (zero on the pivots)
    compressed to bit i per free column ``free[i]``, an index in
    [0, 2^codim); ``units[j]`` is the syndrome of coordinate j.  A suffix
    dynamic program fills the table: T_i[s], the least weight of a vector
    on coordinates >= i with syndrome s, is min(T_{i+1}[s],
    1 + T_{i+1}[s ^ units[i]]), from T_length = 0 at s = 0, unreachable
    elsewhere; ``weights`` is T_0.  A "take" bit per coordinate and
    syndrome marks where the second term is strictly smaller, so
    ``leader`` sets a coordinate only where it must, which gives the
    lexicographically smallest minimum-weight vector.  It costs about
    length * 2^codim array steps and length * 2^codim / 8 bytes, so a
    codimension above ``_TABLE_CODIM`` raises ValueError.
    """

    __slots__ = ("free", "units", "weights", "_take", "_byte_syndromes")

    def __init__(self, row_space: Echelon, length: int):
        codim = length - row_space.rank
        if codim > _TABLE_CODIM:
            raise ValueError(
                f"syndrome table of codimension {codim} exceeds _TABLE_CODIM = {_TABLE_CODIM}"
            )
        self.free = [j for j in range(length) if j not in row_space.pivots]
        self.units = []
        for j in range(length):
            r = row_space.reduce(1 << j)
            self.units.append(sum(((r >> col) & 1) << i for i, col in enumerate(self.free)))
        # The syndrome is linear: per 8-bit slice of v, the XOR of its units.
        self._byte_syndromes = []
        for lo in range(0, length, 8):
            table = [0]
            for unit in self.units[lo : lo + 8]:
                table += [s ^ unit for s in table]
            self._byte_syndromes.append(table)

        syndromes = np.arange(1 << len(self.free))
        # Unreachable is 128: reachable weights are at most codim, and no
        # entry ever exceeds 128, so adding 1 cannot wrap the uint8.
        weights = np.full(syndromes.size, 128, dtype=np.uint8)
        weights[0] = 0
        self._take = np.zeros((length, (syndromes.size + 7) // 8), dtype=np.uint8)
        for i in reversed(range(length)):
            via = weights[syndromes ^ self.units[i]] + 1
            self._take[i] = np.packbits(via < weights, bitorder="little")
            np.minimum(weights, via, out=weights)
        self.weights = weights

    def syndrome(self, v: int) -> int:
        s = 0
        for table in self._byte_syndromes:
            s ^= table[v & 0xFF]
            v >>= 8
        return s

    def lift(self, s: int) -> int:
        """The coset representative supported on the free columns of syndrome s."""
        v = 0
        for i, col in enumerate(self.free):
            v |= ((s >> i) & 1) << col
        return v

    def leader(self, s: int) -> int:
        """The lexicographically smallest minimum-weight vector of syndrome s."""
        v = 0
        for i, take in enumerate(self._take):
            if (take[s >> 3] >> (s & 7)) & 1:
                v |= 1 << i
                s ^= self.units[i]
        return v


__all__ = [
    "BitVector",
    "BitMatrix",
    "CosetTooLargeError",
    "DEFAULT_COSET_CAP",
    "Echelon",
    "rank",
    "null_space_basis",
    "in_row_space",
    "row_combination",
    "solve_affine",
    "coset_min_weight",
    "SyndromeTable",
]
