"""Exact linear algebra over GF(2) on int-bitmask vectors and matrices.

Vectors are stored as Python ints with bit ``i`` holding coordinate ``i``
(coordinate 0 is the lowest bit).  All operations are pure and
deterministic; values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Default hard cap on the coset-enumeration dimension.
DEFAULT_COSET_CAP = 30

#: Below this dimension the coset search enumerates all elements with numpy.
_NUMPY_ENUM_DIM = 22


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


def _echelon(rows: Iterable[int]) -> list[tuple[int, int]]:
    """Reduced echelon basis of the span as (pivot_col, row) pairs.

    Pivots are the lowest set bits, scanned in increasing column order;
    the output is sorted by pivot column and fully reduced.
    """
    basis: list[tuple[int, int]] = []  # (pivot, row), kept sorted by pivot
    for row in rows:
        for pivot, b in basis:
            if (row >> pivot) & 1:
                row ^= b
        if row:
            p = (row & -row).bit_length() - 1
            basis = [(q, (b ^ row if (b >> p) & 1 else b)) for q, b in basis]
            basis.append((p, row))
            basis.sort()
    return basis


def _reduce_by(row: int, basis: list[tuple[int, int]]) -> int:
    for pivot, b in basis:
        if (row >> pivot) & 1:
            row ^= b
    return row


def rank(m: BitMatrix) -> int:
    """GF(2) rank, invariant under row/column permutations."""
    return len(_echelon(m.rows))


def null_space_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of {v : m @ v = 0}; its size is cols - rank(m)."""
    basis = _echelon(m.rows)
    pivots = [p for p, _ in basis]
    pivot_set = set(pivots)
    out = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = 1 << free
        # Back-substitute: pivot coordinate of each basis row balances column `free`.
        for p, b in basis:
            if (b >> free) & 1:
                vec |= 1 << p
        out.append(BitVector(m.cols, vec))
    return out


def in_row_space(m: BitMatrix, v: BitVector) -> bool:
    """True iff v is a GF(2) combination of the rows of m."""
    if v.length != m.cols:
        raise ValueError(f"length mismatch: vector {v.length}, matrix cols {m.cols}")
    return _reduce_by(v.bits, _echelon(m.rows)) == 0


def row_combination(vectors: Sequence[int], target: int) -> int | None:
    """Coefficient mask c with XOR of {vectors[i] : bit i of c} == target.

    Returns None when target is outside the span.  Deterministic: the
    combination produced by echelon reduction of the inputs in order.
    """
    basis: list[tuple[int, int, int]] = []  # (pivot, row, combo)
    for i, row in enumerate(vectors):
        combo = 1 << i
        for pivot, b, bc in basis:
            if (row >> pivot) & 1:
                row ^= b
                combo ^= bc
        if row:
            p = (row & -row).bit_length() - 1
            basis.append((p, row, combo))
            basis.sort()
    t, tc = target, 0
    for pivot, b, bc in basis:
        if (t >> pivot) & 1:
            t ^= b
            tc ^= bc
    return tc if t == 0 else None


def solve_affine(equations: Sequence[int], rhs: Sequence[int], num_vars: int) -> BitVector | None:
    """One solution x of the GF(2) system {eq_i . x = rhs_i}, or None.

    Each equation is an int bitmask over the variables.  The solution
    returned sets all free variables to zero.
    """
    if len(equations) != len(rhs):
        raise ValueError("ragged system")
    # Augment with the rhs in an extra column.
    aug = _echelon(eq | ((b & 1) << num_vars) for eq, b in zip(equations, rhs))
    x = 0
    for pivot, row in aug:
        if pivot == num_vars:
            return None  # 0 = 1 row: inconsistent
        if (row >> num_vars) & 1:
            x |= 1 << pivot
    return BitVector(num_vars, x)


def _lex_key(bits: int, length: int) -> tuple[int, ...]:
    """Coordinate tuple (c0, c1, ...); ties among witnesses compare on this."""
    return tuple((bits >> i) & 1 for i in range(length))


def _span_elements(basis_rows: Sequence[int], offset: int = 0) -> np.ndarray:
    """All 2^len(basis_rows) elements of offset + span(basis_rows) as uint64
    (vector length <= 64 only), by XOR doubling."""
    elems = np.full(1, offset, dtype=np.uint64)
    for b in basis_rows:
        elems = np.concatenate([elems, elems ^ np.uint64(b)])
    return elems


def _min_weight_numpy(basis_rows: list[int], offset: int, length: int) -> tuple[int, int]:
    """Enumerate the full coset with numpy popcounts (length <= 64 only)."""
    elems = _span_elements(basis_rows, offset)
    weights = np.bitwise_count(elems)
    w = int(weights.min())
    candidates = elems[weights == w]
    best = min((int(c) for c in candidates), key=lambda c: _lex_key(c, length))
    return w, best


def _min_weight_dfs(basis: list[tuple[int, int]], offset: int, length: int) -> tuple[int, int]:
    """Branch-and-bound over an echelon basis, pruning on fixed-prefix weight.

    After the first t basis choices, all coordinates below the (t+1)-th pivot
    are final, which bounds the completion weight from below.
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
            w = vec.bit_count()
            if w < best_w or (w == best_w and _lex_key(vec, length) < _lex_key(best_v, length)):
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
    smallest coordinate vector among the minimum-weight elements.  Raises
    CosetTooLargeError when the span dimension exceeds ``cap``, attaching
    the best upper bound found.
    """
    length = offset.length
    for v in row_basis:
        if v.length != length:
            raise ValueError("mixed vector lengths")
    basis = _echelon(v.bits for v in row_basis)
    dim = len(basis)
    start = _reduce_by(offset.bits, basis)
    if dim > cap:
        # Cheap upper bound: the reduced offset (often far below the raw one).
        w = min(offset.bits.bit_count(), start.bit_count())
        witness = start if start.bit_count() <= offset.bits.bit_count() else offset.bits
        raise CosetTooLargeError(dim, cap, w, BitVector(length, witness))
    if offset.bits == 0 or start == 0:
        return 0, BitVector(length, 0)
    if dim <= _NUMPY_ENUM_DIM and length <= 64:
        w, v = _min_weight_numpy([b for _, b in basis], start, length)
    else:
        w, v = _min_weight_dfs(basis, start, length)
    return w, BitVector(length, v)


__all__ = [
    "BitVector",
    "BitMatrix",
    "CosetTooLargeError",
    "DEFAULT_COSET_CAP",
    "rank",
    "null_space_basis",
    "in_row_space",
    "row_combination",
    "solve_affine",
    "coset_min_weight",
]
