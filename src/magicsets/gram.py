"""Valid Gram spaces of hypergraphs, the magic test, qubit minimums.

A Gram matrix records which pairs of observables anticommute.  For a
hypergraph H it is *valid* when (a) entries vanish on pairs sharing a
context and (b) the rows indexed by each context sum to zero.  Valid
matrices form a linear space; magicness is the parity of an inversion sum
over a fixed concatenation of all contexts, which is a linear functional
on that space.  Magic matrices, when they exist, therefore form an affine
subspace of exactly half the valid Gram space.  (b) also gives every
valid matrix G the rank of its core block G[S, S] (``_core``), S being
the vertices whose context-incidence columns depend on the columns before
them, so the qubit minimum ranks only that block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .gf2 import (
    BitMatrix,
    Echelon,
    _block_low,
    _block_ranks,
    _independent,
    _kernel_vectors,
    _null_vectors,
    _span_blocks,
    rank,
)
from .hypergraph import Hypergraph, is_proper_eulerian


class NotProperEulerianError(ValueError):
    def __init__(self, diagnostics):
        super().__init__(f"hypergraph is not proper Eulerian: {diagnostics.describe()}")
        self.diagnostics = diagnostics


class NoMagicGramError(ValueError):
    """The hypergraph admits no magic Gram matrix (hence no Pauli magic set)."""


@dataclass(frozen=True)
class GramSpace:
    """The valid Gram space as its magic/nonmagic split.

    magic_offset is None exactly when no valid Gram matrix is magic (the
    magic parity is linear).  Otherwise the magic matrices are
    magic_offset + span(nonmagic_basis).  ``dim`` is the dimension of the
    whole space: the pair unknowns less the rank of the validity equations.

    ``nonmagic_basis`` is built on its first read, from the solved system
    ``valid_gram_space`` leaves here, and cached; the system is released
    then.  A caller that reads only the offset and ``dim`` (the magic test,
    planarity) never builds the kernel.  ``basis``, a basis of the whole
    space, is derived: (magic_offset, *nonmagic_basis), or nonmagic_basis.
    Equality and hash read the hypergraph, offset and dimension, not the
    solved system; the basis is a function of the hypergraph.
    """

    hypergraph: Hypergraph
    magic_offset: BitMatrix | None
    dim: int
    # (echelon of the equations, pair unknowns, parity mask, offset vector)
    _system: tuple | None = field(repr=False, compare=False)

    @cached_property
    def nonmagic_basis(self) -> tuple[BitMatrix, ...]:
        """The kernel vectors of the system with the offset's own vector
        dropped and the offset XORed into every other odd one, as matrices."""
        ech, pairs, parity, offset = self._system
        m = self.hypergraph.vertex_count
        basis = []
        for v in _null_vectors(ech, len(pairs)):
            if v == offset:
                continue
            if (v & parity).bit_count() & 1:
                v ^= offset
            basis.append(_matrix_from_pair_bits(m, pairs, v))
        object.__setattr__(self, "_system", None)
        return tuple(basis)

    @property
    def basis(self) -> tuple[BitMatrix, ...]:
        offset = () if self.magic_offset is None else (self.magic_offset,)
        return offset + self.nonmagic_basis


@lru_cache(maxsize=4096)
def _validity_masks(h: Hypergraph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Per row, the mask of its co-contextual columns (the diagonal
    excluded); per context, its distinct members (0-based)."""
    members = tuple(tuple(sorted(set(v - 1 for v in e))) for e in h.edges)
    masks = [0] * h.vertex_count
    for context in members:
        bits = sum(1 << v for v in context)
        for v in context:
            masks[v] |= bits ^ (1 << v)
    return tuple(masks), members


@lru_cache(maxsize=4096)
def _core(h: Hypergraph) -> tuple[int, ...]:
    """The core S of h's Gram matrices: the vertices (0-based, ascending)
    whose incidence columns, each the mask of the contexts holding that
    vertex, are sums of the columns before them.

    Every valid G has M·G = 0, M the context × vertex incidence matrix of
    ``_validity_masks``' distinct members, since each context's rows sum
    to zero.  The other vertices D have independent columns, so for each
    v in D some sum of contexts meets D in v alone, and row v of G is a
    sum of rows in S.  So rank G = rank G[S, :], and since the columns obey
    the same relations, rank G[S, S].  |S| is m less the rank of M.
    """
    _, members = _validity_masks(h)
    columns = [0] * h.vertex_count
    for c, context in enumerate(members):
        for v in context:
            columns[v] |= 1 << c
    return tuple(v for v, new in enumerate(_independent(columns)) if not new)


def _restrict(g: BitMatrix, core: Sequence[int]) -> BitMatrix:
    """The block g[core, core]: its row and column j are g's core[j]."""
    return BitMatrix(
        len(core),
        tuple(sum(((g.rows[u] >> v) & 1) << j for j, v in enumerate(core)) for u in core),
    )


def _combination(offset: BitMatrix, basis: Sequence[BitMatrix], x: int) -> BitMatrix:
    """offset ^ XOR{basis[l] : bit l of x}."""
    rows = offset.rows
    while x:
        low = x & -x
        rows = tuple(r ^ s for r, s in zip(rows, basis[low.bit_length() - 1].rows))
        x ^= low
    return BitMatrix(offset.cols, rows)


def validate_gram(h: Hypergraph, g: BitMatrix) -> list[str]:
    """Violations of the valid-Gram conditions; empty list means valid.

    Problems come in a fixed order: nonzero diagonal entries, asymmetric
    pairs, nonzero co-contextual pairs (each pair (i, j) with i < j, by i
    then j), then contexts whose rows do not sum to zero.  Each row is
    checked bit-parallel against its co-context mask, and symmetry by
    walking its set bits.
    """
    m = h.vertex_count
    if g.cols != m or g.num_rows != m:
        return [f"shape {g.num_rows}x{g.cols}, expected {m}x{m}"]
    rows = g.rows
    masks, members = _validity_masks(h)
    diagonal, asymmetric, cocontext = [], [], []
    for i, (row, mask) in enumerate(zip(rows, masks)):
        if (row >> i) & 1:
            diagonal.append(f"nonzero diagonal at {i + 1}")
        # An asymmetric pair has its one set bit on exactly one of its rows.
        rest = row & ~(1 << i)
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if not (rows[j] >> i) & 1:
                asymmetric.append((min(i, j), max(i, j)))
            rest ^= low
        rest = (row & mask) >> (i + 1)
        while rest:
            low = rest & -rest
            cocontext.append(f"nonzero on co-contextual pair ({i + 1},{i + 1 + low.bit_length()})")
            rest ^= low
    problems = diagonal
    problems += [f"asymmetric at ({i + 1},{j + 1})" for i, j in sorted(asymmetric)]
    problems += cocontext
    for idx, context in enumerate(members):
        acc = 0
        for v in context:
            acc ^= rows[v]
        if acc:
            problems.append(f"rows of context {idx + 1} do not sum to zero")
    return problems


@lru_cache(maxsize=4096)
def _inversion_masks(h: Hypergraph, edges: tuple[int, ...]) -> tuple[int, ...]:
    """Row masks of the inversion-sum functional over the concatenation of
    the contexts ``edges`` (indices into h.edges, in that order), under the
    natural vertex order.

    The parity of any matrix g is sum over u of popcount(g.rows[u] &
    masks[u]) mod 2; masks live strictly below the diagonal so each
    unordered pair is counted once.  One backward pass builds them:
    ``later`` holds the parity of each vertex's occurrences after the
    current position, and its bits below that position's vertex are the
    inversions the position starts.
    """
    masks = [0] * h.vertex_count
    later = 0
    for v in reversed([v - 1 for j in edges for v in h.edges[j]]):
        masks[v] ^= later & ((1 << v) - 1)
        later ^= 1 << v
    return tuple(masks)


def _parity_via_masks(rows: Sequence[int], masks: Sequence[int]) -> int:
    acc = 0
    for r, m in zip(rows, masks):
        acc ^= (r & m).bit_count() & 1
    return acc


def fast_magic_parity(h: Hypergraph, g: BitMatrix) -> int:
    """The inversion-sum parity of g over the contexts in stored order, via
    the cached functional; no order changes it for a valid Gram matrix."""
    return _parity_via_masks(g.rows, _inversion_masks(h, tuple(range(h.num_edges))))


def is_magic_gram(h: Hypergraph, g: BitMatrix) -> bool:
    """True iff g is a valid Gram matrix whose inversion parity is odd."""
    problems = validate_gram(h, g)
    if problems:
        raise ValueError("not a valid Gram matrix: " + "; ".join(problems[:3]))
    return fast_magic_parity(h, g) == 1


def _matrix_from_pair_bits(m: int, pairs: list[tuple[int, int]], bits: int) -> BitMatrix:
    """The symmetric matrix with entries (i, j) and (j, i) set for every
    pair ``pairs[t]`` whose bit t is set; visits only the set bits."""
    rows = [0] * m
    while bits:
        low = bits & -bits
        i, j = pairs[low.bit_length() - 1]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        bits ^= low
    return BitMatrix(m, tuple(rows))


@lru_cache(maxsize=1)
def valid_gram_space(h: Hypergraph) -> GramSpace:
    """Solve the validity conditions for the magic split of the valid Gram space.

    Unknowns are the entries on pairs (i, j), i < j, sharing no context,
    by i then j; each context gives one row-sum equation per vertex
    column.  An equation is linear in its context's vertex mask, so a
    context whose mask is a GF(2) sum of earlier contexts' masks adds only
    sums of their equations: it is skipped, the contexts kept being those
    that ``gf2._independent`` finds independent of the ones before them.
    The kept equations stream into one ``Echelon`` column by column,
    highest column first, each column's contexts in stored order, empty
    equations skipped.  They span the row space of the whole system, and
    everything below is read off that span, so the split does not depend
    on which equations were skipped.  The magic parity is linear in the
    unknowns (pair (i, j) counts when bit i of ``_inversion_masks`` row j
    is set), so the space is magic iff that parity mask lies outside the
    equations' row space.  Its reduction w by the echelon decides it
    without the kernel: bit f of w is the parity of the kernel vector of
    free column f.  The offset is the kernel vector of the lowest set bit
    f0 of w, read off by ``gf2._kernel_vectors``, the back-substitution
    that ``_null_vectors`` runs for every free column: it is the first odd
    vector of that basis.  The rest of the kernel waits for the first read
    of ``GramSpace.nonmagic_basis``.  Only the last hypergraph's
    space is cached: every reuse in the library is consecutive calls on one
    hypergraph (``check`` and the catalog run ``min_qubits``, ``is_minimal``
    and ``hypergraph_bound`` on the same one), and a space whose basis is
    never read keeps its whole solved system, so more slots would only hold
    unread echelons.
    """
    ok, diag = is_proper_eulerian(h)
    if not ok:
        raise NotProperEulerianError(diag)
    m = h.vertex_count
    masks, members = _validity_masks(h)
    inversions = _inversion_masks(h, tuple(range(h.num_edges)))
    # index[j][i] numbers the unknown on pair {i, j}, -1 on co-contextual pairs.
    index = [[-1] * m for _ in range(m)]
    pairs: list[tuple[int, int]] = []
    parity = 0
    for i in range(m):
        for j in range(i + 1, m):
            if not (masks[i] >> j) & 1:
                t = len(pairs)
                index[i][j] = index[j][i] = t
                if (inversions[j] >> i) & 1:
                    parity |= 1 << t
                pairs.append((i, j))

    independent = _independent(sum(1 << v for v in context) for context in members)
    members = [context for context, new in zip(members, independent) if new]
    ech = Echelon()
    for j in reversed(range(m)):
        row = index[j]
        for context in members:
            eq = 0
            for i in context:
                t = row[i]
                if t >= 0:
                    eq |= 1 << t
            if eq:
                ech.insert(eq)

    dim = len(pairs) - ech.rank
    w = ech.reduce(parity)
    if not w:
        return GramSpace(h, None, dim, (ech, pairs, parity, 0))
    (x,) = _kernel_vectors(ech, [(w & -w).bit_length() - 1])
    return GramSpace(h, _matrix_from_pair_bits(m, pairs, x), dim, (ech, pairs, parity, x))


def _magic_space(h: Hypergraph) -> GramSpace:
    """``valid_gram_space(h)``; NoMagicGramError when no matrix of it is magic."""
    space = valid_gram_space(h)
    if space.magic_offset is None:
        raise NoMagicGramError(f"{h.name or 'hypergraph'} admits no magic Gram matrix")
    return space


def magic_affine_space(h: Hypergraph) -> tuple[BitMatrix, tuple[BitMatrix, ...]] | None:
    """One magic Gram matrix plus a basis of the nonmagic subspace, or None."""
    space = valid_gram_space(h)
    if space.magic_offset is None:
        return None
    return space.magic_offset, space.nonmagic_basis


@dataclass(frozen=True)
class MinQubitsResult:
    qubits: int
    exact: bool
    gram: BitMatrix  # a witness matrix attaining the reported rank
    searched: int  # magic Gram matrices actually inspected
    total: int  # size of the magic affine space


_WORD = (1 << 64) - 1


def _words(g: BitMatrix, width: int) -> list[int]:
    """The rows of g as ``width`` 64-bit words each, low word first."""
    if width == 1:
        return list(g.rows)
    return [(row >> (64 * j)) & _WORD for row in g.rows for j in range(width)]


def _matrix_of_words(m: int, words: np.ndarray) -> BitMatrix:
    """Inverse of ``_words`` on one (m * width,) word vector."""
    rows = words.reshape(m, -1)
    value = rows[:, -1].tolist()
    for j in range(rows.shape[1] - 2, -1, -1):
        value = [(v << 64) | w for v, w in zip(value, rows[:, j].tolist())]
    return BitMatrix(m, tuple(value))


def _space_blocks(
    offset: BitMatrix, basis: Sequence[BitMatrix], deadline: float | None = None
) -> Iterator[np.ndarray]:
    """All matrices of offset + span(basis) as (count, m, W) uint64 blocks
    of ``_block_low`` matrices each, in binary order: matrix i of the
    concatenated blocks is offset ^ XOR{basis[l] : bit l of i}.  Raises
    ``_DeadlineReached`` once ``deadline`` (``time.monotonic``) has
    passed, checked before each block is yielded."""
    m = offset.num_rows
    width = (m + 63) // 64
    vecs = [_words(b, width) for b in basis]
    for block in _span_blocks(_words(offset, width), vecs, _block_low(m * width)):
        _check_deadline(deadline)
        yield block.reshape(-1, m, width)


def _gray_index(x: np.ndarray) -> np.ndarray:
    """The Gray-code step s at which s ^ (s >> 1) == x: prefix XORs of x's bits."""
    s = x.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        s ^= s >> np.uint64(shift)
    return s


def min_qubits(h: Hypergraph, enumeration_cap: int = 24) -> MinQubitsResult:
    """Half the minimum binary rank over all magic Gram matrices of h.

    Exact (flagged) when the magic affine space has dimension at most
    ``enumeration_cap``; beyond that, the best upper bound over sampled
    combinations of basis elements is returned with exact=False.

    Every matrix is ranked on its core block G[S, S] (``_core``), k × k
    with k = m - rank M, whose rank is rank G.  Restriction is linear, so
    the offset and the d basis matrices are restricted once each and the
    space's blocks are laid out from those.  A space of one matrix (d = 0)
    is its offset, so the offset's rank is the answer.  Otherwise the least
    rank of the offset and its d single basis shifts, all in the space,
    bounds the minimum from above; the offset's rank alone depends on the
    labels (on HB it is 10 under some relabellings, where the least is 6).
    The exact scan ranks all 2^d matrices offset + span(nonmagic_basis)
    with ``gf2._block_ranks``, one ``_space_blocks`` block at a time (2^14
    matrices, fewer for wide matrices), dropping every matrix ranked above
    the least rank of the blocks before, or above the seed bound while no
    block has kept one, so no matrix of least rank is dropped.  The
    witness is, among the matrices of least rank, the one with the least
    Gray index: Gray step s visits coefficient vector s ^ (s >> 1), one
    basis flip per step from the offset at s = 0, and the first matrix of
    least rank on that walk is the witness (a matrix's index in the space,
    whose Gray step that is, counts on from the blocks before).  The
    sampled branch ranks its candidate list, the offset, then its single
    and pair basis shifts, in blocks of the same size under the same
    bounds, and its witness is the first of least rank in that list.
    Either way the m × m witness is rebuilt from its coefficients by
    ``_combination``.
    """
    space = _magic_space(h)
    offset, basis = space.magic_offset, space.nonmagic_basis
    d = len(basis)
    total = 1 << d
    core = _core(h)
    k = len(core)
    width = (k + 63) // 64
    low = _block_low(k * width)
    core_offset = _restrict(offset, core)
    core_basis = [_restrict(b, core) for b in basis]

    seed = rank(core_offset)
    for b in core_basis:
        # A shift lowers the seed only if its rank stays below it.
        r = 0
        for independent in _independent(x ^ y for x, y in zip(core_offset.rows, b.rows)):
            r += independent
            if r >= seed:
                break
        else:
            seed = r

    if d <= enumeration_cap:
        if not d:
            return MinQubitsResult(seed // 2, True, offset, 1, 1)
        best = None  # (rank, Gray index, index in the space)
        start = 0  # index in the space of the block's first matrix
        for block in _space_blocks(core_offset, core_basis):
            bound = seed if best is None else best[0]
            ranks, index = _block_ranks(block, bound)
            if len(ranks):
                r = int(ranks.min())
                tied = index[ranks == r] + start
                gray = _gray_index(tied.astype(np.uint64))
                i = int(np.argmin(gray))
                if best is None or (r, int(gray[i])) < best[:2]:
                    best = (r, int(gray[i]), int(tied[i]))
            start += len(block)
        witness = _combination(offset, basis, best[2])
        return MinQubitsResult(best[0] // 2, True, witness, total, total)

    # Sampled upper bound: offset alone, plus all single and pair basis
    # shifts.  Candidate c is off ^ vecs[first[c]] ^ vecs[second[c]], where
    # index d names an appended zero vector.
    off = np.array(_words(core_offset, width), dtype=np.uint64)
    vecs = np.array([_words(b, width) for b in core_basis], dtype=np.uint64)
    vecs = np.concatenate([vecs.reshape(d, len(off)), np.zeros((1, len(off)), dtype=np.uint64)])
    i, j = np.triu_indices(d, 1)  # pairs i < j, by i then j
    first = np.concatenate([[d], np.arange(d), i])
    second = np.concatenate([[d] * (d + 1), j])
    best = None  # (rank, candidate)
    for start in range(0, len(first), 1 << low):
        stop = start + (1 << low)
        block = off ^ vecs[first[start:stop]] ^ vecs[second[start:stop]]
        bound = seed if best is None else best[0]
        ranks, index = _block_ranks(block.reshape(-1, k, width), bound)
        if len(ranks) and (best is None or ranks.min() < best[0]):
            c = int(np.argmin(ranks))
            best = (int(ranks[c]), start + int(index[c]))
    c = best[1]
    x = sum(1 << int(l) for l in (first[c], second[c]) if l < d)
    return MinQubitsResult(best[0] // 2, False, _combination(offset, basis, x), len(first), total)


def is_reduced(g: BitMatrix) -> bool:
    """No all-zero row and no two equal rows."""
    seen = set()
    for r in g.rows:
        if r == 0 or r in seen:
            return False
        seen.add(r)
    return True


def _defects(offset: BitMatrix, basis: Sequence[BitMatrix]):
    """The reducibility defects of the magic space offset + span(basis).

    Yields (kind, cols, target): first every zero row ("zero", i), then
    every pair i < j by i then j ("equal", i, j).  Row i of the matrix
    offset + sum x_l basis[l] is offset.rows[i] ^ XOR{basis[l].rows[i] :
    bit l of x}, so the defect holds at x exactly when XOR{cols[l] : bit l
    of x} == target, with cols[l] the row (or row difference) of
    basis[l] and target that of the offset.
    """
    m = offset.num_rows
    rows = [[b.rows[i] for b in basis] for i in range(m)]
    for i in range(m):
        yield ("zero", i), rows[i], offset.rows[i]
    for i in range(m):
        for j in range(i + 1, m):
            diff = offset.rows[i] ^ offset.rows[j]
            yield ("equal", i, j), [a ^ b for a, b in zip(rows[i], rows[j])], diff


class _DeadlineReached(Exception):
    """A search's time budget ran out."""


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _DeadlineReached


#: Largest magic space, in matrix rows (2^d * m), decided by a block scan
#: rather than by defect solves.  Near the least measured size (at rows of
#: one 64-bit word) where a whole scan costs more than solving every
#: defect; past it the solves, which stop at the first defect that holds,
#: cost about as much as the scan on a minimal space and far less otherwise.
_SCAN_ROWS = 1 << 19


def _row_keys(block: np.ndarray) -> np.ndarray:
    """The rows of a (count, m, W) uint64 block as a (count, m) array whose
    items compare and sort as whole rows: the words themselves at W = 1,
    one void item of W words otherwise.  A zero row sorts first either way
    (void items sort bytewise)."""
    if block.shape[2] == 1:
        return block[:, :, 0]
    return np.ascontiguousarray(block).view(np.dtype((np.void, 8 * block.shape[2])))[:, :, 0]


def _reducible_rows(block: np.ndarray) -> np.ndarray:
    """Per matrix of a (count, m, W) uint64 block: has a zero row or two equal rows."""
    srt = np.sort(_row_keys(block), axis=1)
    return (srt[:, 0] == np.zeros((), srt.dtype)) | (srt[:, 1:] == srt[:, :-1]).any(axis=1)


def _row_labels(block: np.ndarray) -> np.ndarray:
    """Per matrix of a (count, m, W) uint64 block, each row's label: the
    least index of a row equal to it, or m for a zero row.  A label vector
    is the matrix's reduction signature (``reduce._gram_labels`` of one
    matrix); returns (count, m) labels in the least unsigned dtype that
    holds m."""
    keys = _row_keys(block)
    count, m = keys.shape
    order = np.argsort(keys, axis=1, kind="stable")
    srt = np.take_along_axis(keys, order, axis=1)
    starts = np.ones((count, m), dtype=bool)
    starts[:, 1:] = srt[:, 1:] != srt[:, :-1]
    # A stable sort leads each run of equal rows with its least index.
    run_start = np.maximum.accumulate(np.where(starts, np.arange(m), 0), axis=1)
    least = np.take_along_axis(order, run_start, axis=1)
    least[srt == np.zeros((), srt.dtype)] = m
    labels = np.empty((count, m), dtype=np.min_scalar_type(m))
    np.put_along_axis(labels, order, least.astype(labels.dtype), axis=1)
    return labels


def _reducible_by_scan(
    offset: BitMatrix, basis: Sequence[BitMatrix], deadline: float | None = None
) -> bool:
    """``_has_reducible_matrix`` by scanning the whole space in blocks."""
    return any(_reducible_rows(block).any() for block in _space_blocks(offset, basis, deadline))


def _reducible_by_solves(
    offset: BitMatrix, basis: Sequence[BitMatrix], deadline: float | None = None
) -> bool:
    """``_has_reducible_matrix`` by span membership: a defect holds
    somewhere in the space exactly when its target lies in the span of its
    columns."""
    for _, cols, target in _defects(offset, basis):
        _check_deadline(deadline)
        if Echelon(cols).reduce(target) == 0:
            return True
    return False


def _has_reducible_matrix(
    offset: BitMatrix, basis: Sequence[BitMatrix], deadline: float | None = None
) -> bool:
    """True iff some matrix of offset + span(basis) has a zero row or two equal rows.

    Both routes answer exactly; the size of the space picks one.  A space
    of at most ``_SCAN_ROWS`` matrix rows (2^d * m) is scanned in blocks,
    at any row width; a larger one is decided by span membership, one test
    per defect (``_defects``), stopping at the first that holds.  Raises
    ``_DeadlineReached`` once ``deadline`` (``time.monotonic``) has
    passed, checked once per block or per defect.
    """
    if offset.num_rows << len(basis) <= _SCAN_ROWS:
        return _reducible_by_scan(offset, basis, deadline)
    return _reducible_by_solves(offset, basis, deadline)


def is_minimal(h: Hypergraph) -> bool:
    """No magic Gram matrix of h has a zero row or a repeated row pair.

    One decision, ``_has_reducible_matrix``, serves this and the descent's
    child check: a block scan of magic spaces up to ``_SCAN_ROWS`` matrix
    rows, at any row width, and past that one span-membership test per
    defect (each defect is an affine condition on the magic space).
    """
    space = _magic_space(h)
    return not _has_reducible_matrix(space.magic_offset, space.nonmagic_basis)


__all__ = [
    "GramSpace",
    "MinQubitsResult",
    "NoMagicGramError",
    "NotProperEulerianError",
    "valid_gram_space",
    "validate_gram",
    "fast_magic_parity",
    "is_magic_gram",
    "magic_affine_space",
    "min_qubits",
    "is_reduced",
    "is_minimal",
]
