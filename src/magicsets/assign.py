"""Synthesize explicit k-qubit Pauli assignments respecting a Gram matrix.

The walk only places vectors on a row basis B of the Gram matrix: a
candidate for the next basis vertex must hit prescribed symplectic
products against the vectors already chosen, which is a linear system, so
candidates are its solution space, generated lazily in ascending order,
and the first candidate outside the span of the chosen vectors is taken.
Every other vertex is a GF(2) combination of basis rows and inherits the
combination applied to the chosen vectors; this linear extension
automatically covers zero rows (identity operator) and repeated rows
(repeated operator), and makes the edge sums vanish because a valid Gram
matrix's rows sum to zero on every context.

The greedy ascending walk never backtracks.  Let the r basis rows have
the nonsingular r x r Gram matrix G, with r <= 2k.  At step t the t
chosen vectors are independent, so the candidates form an affine space
of dimension 2k - t.  Suppose it lies inside span(v_<t).  Then so does
the orthogonal complement of that span, which has dimension 2k - t, so
the prefix Gram matrix G_t has rank 2t - 2k, and the new row, a
combination of the chosen vectors' rows, lies in G_t's column space.
Bordering an alternating matrix with a row of its column space keeps its
rank, so G_{t+1} has rank 2t - 2k as well, and each of the r - t - 1
remaining rows adds at most 2: G has rank at most 2r - 2k - 2 < r, a
contradiction.  So every candidate outside the span extends, the first
one does, and ``assignment_from_gram`` makes exactly r candidate solves.
"""

from __future__ import annotations

from typing import Iterator

from .gf2 import BitMatrix, Echelon, _affine_solutions, _ascending_span, _row_combinations, rank
from .hypergraph import Hypergraph
from .pauli import MagicAssignment, PauliString
from .gram import validate_gram


class RankObstructionError(ValueError):
    """2k below the Gram-matrix rank: no k-qubit realization exists."""


def _solution_space(constraints: list[tuple[int, int]], dim: int) -> tuple[int, list[int]] | None:
    """Solve {pairing(x, v_s) = c_s} over packed 2k-vectors x.

    Each constraint (v, c) is linear: the functional of x is the popcount
    parity of x & swap(v).  Returns (particular, kernel_basis) or None,
    read off the 2k columns of the functional matrix.
    """
    k = dim // 2
    mask = (1 << k) - 1
    functionals = [((v & mask) << k) | (v >> k) for v, _ in constraints]
    cols = [sum(((f >> l) & 1) << s for s, f in enumerate(functionals)) for l in range(dim)]
    return _affine_solutions(cols, sum((c & 1) << s for s, (_, c) in enumerate(constraints)))


def _basis_assignments(g: BitMatrix, basis_idx: list[int], k: int) -> Iterator[list[int]]:
    """Yield packed-vector choices for the basis vertices, in ascending order."""
    dim = 2 * k
    r = len(basis_idx)

    def descend(chosen: list[int]) -> Iterator[list[int]]:
        t = len(chosen)
        if t == r:
            yield list(chosen)
            return
        i_t = basis_idx[t]
        constraints = [(chosen[s], g.entry(i_t, basis_idx[s])) for s in range(t)]
        # Solvable: the chosen vectors, hence their functionals, are independent.
        sol = _solution_space(constraints, dim)
        span = Echelon(chosen)
        for cand in _ascending_span(*sol):
            # Basis rows are independent, so their vectors must be too (and nonzero).
            if span.reduce(cand):
                yield from descend(chosen + [cand])

    yield from descend([])


def _extend_assignment(
    h: Hypergraph, g: BitMatrix, basis_idx: list[int], basis_vectors: list[int], k: int
) -> MagicAssignment:
    basis_rows = [g.rows[i] for i in basis_idx]
    strings = []
    for combo in _row_combinations(basis_rows, g.rows):
        if combo is None:
            raise AssertionError("row basis no longer spans the Gram matrix")
        vec = 0
        for s in range(len(basis_idx)):
            if (combo >> s) & 1:
                vec ^= basis_vectors[s]
        strings.append(PauliString(k, vec & ((1 << k) - 1), vec >> k))
    return MagicAssignment.build(h, strings)


def enumerate_assignments(
    h: Hypergraph, g: BitMatrix, k: int, limit: int | None = None
) -> Iterator[MagicAssignment]:
    """Stream distinct assignments whose Gram matrix equals g, deterministically.

    The stream ends early (without error) when the search space is
    exhausted before ``limit`` assignments are produced.  No branch of the
    search dead-ends (see the module docstring), so each assignment costs
    at most r candidate solves.
    """
    problems = validate_gram(h, g)
    if problems:
        raise ValueError("not a valid Gram matrix: " + "; ".join(problems[:3]))
    span = Echelon()
    basis_idx = [i for i, row in enumerate(g.rows) if span.insert(row)]
    r = len(basis_idx)
    if 2 * k < r:
        raise RankObstructionError(f"rank {r} needs at least {(r + 1) // 2} qubits, got {k}")
    sub = BitMatrix.from_rows(
        [[g.entry(i, j) for j in basis_idx] for i in basis_idx]
    )
    if rank(sub) != len(basis_idx):
        # Never observed (and provably impossible for alternating forms);
        # surfaced as a diagnostic rather than assumed away.
        raise AssertionError("Gram submatrix on a row basis is singular")
    produced = 0
    for vectors in _basis_assignments(g, basis_idx, k):
        yield _extend_assignment(h, g, basis_idx, vectors, k)
        produced += 1
        if limit is not None and produced >= limit:
            return


def assignment_from_gram(h: Hypergraph, g: BitMatrix, k: int) -> MagicAssignment:
    """First assignment (in enumeration order) respecting g at k qubits:
    the greedy walk, one candidate solve per row-basis vertex."""
    for a in enumerate_assignments(h, g, k, limit=1):
        return a
    raise AssertionError(
        "no embedding found although the rank bound holds; this contradicts "
        "the symplectic realizability of alternating forms"
    )


__all__ = [
    "assignment_from_gram",
    "enumerate_assignments",
    "RankObstructionError",
]
