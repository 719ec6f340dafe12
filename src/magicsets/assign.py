"""Synthesize explicit k-qubit Pauli assignments respecting a Gram matrix.

The search only places vectors on a row basis B of the Gram matrix: a
candidate for the next basis vertex must hit prescribed symplectic
products against the vectors already chosen, which is a linear system, so
candidates are its solution space, generated lazily in ascending order.
Every other vertex is a GF(2) combination of basis rows and inherits the
combination applied to the chosen vectors; this linear extension automatically covers zero rows
(identity operator) and repeated rows (repeated operator), and makes the
edge sums vanish because a valid Gram matrix's rows sum to zero on every
context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .gf2 import (
    BitMatrix,
    Echelon,
    _ascending_span,
    _row_combinations,
    null_space_basis,
    rank,
    solve_affine,
)
from .hypergraph import Hypergraph
from .pauli import MagicAssignment, PauliString
from .gram import validate_gram

#: Default cap on backtracking nodes before giving up.
DEFAULT_NODE_BUDGET = 2_000_000


class SynthesisBudgetError(RuntimeError):
    """Node budget exhausted before completing the search."""


class RankObstructionError(ValueError):
    """2k below the Gram-matrix rank: no k-qubit realization exists."""


def _solution_space(constraints: list[tuple[int, int]], dim: int) -> tuple[int, list[int]] | None:
    """Solve {pairing(x, v_s) = c_s} over packed 2k-vectors x.

    Each constraint (v, c) is linear: the functional of x is the popcount
    parity of x & swap(v).  Returns (particular, kernel_basis) or None.
    """
    k = dim // 2
    mask = (1 << k) - 1
    functionals = [((v & mask) << k) | (v >> k) for v, _ in constraints]
    particular = solve_affine(functionals, [c for _, c in constraints], dim)
    if particular is None:
        return None
    kernel = null_space_basis(BitMatrix(dim, tuple(functionals)))
    return particular.bits, [v.bits for v in kernel]


@dataclass
class _SearchState:
    nodes: int = 0


def _basis_assignments(
    g: BitMatrix, basis_idx: list[int], k: int, budget: int, state: _SearchState
) -> Iterator[list[int]]:
    """Yield packed-vector choices for the basis vertices, in ascending order."""
    dim = 2 * k
    r = len(basis_idx)

    def descend(chosen: list[int]) -> Iterator[list[int]]:
        state.nodes += 1
        if state.nodes > budget:
            raise SynthesisBudgetError(f"budget of {budget} nodes exhausted")
        t = len(chosen)
        if t == r:
            yield list(chosen)
            return
        i_t = basis_idx[t]
        constraints = [
            (chosen[s], g.entry(i_t, basis_idx[s])) for s in range(t)
        ]
        sol = _solution_space(constraints, dim)
        if sol is None:
            return
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
    assignment = MagicAssignment.build(h, strings)
    return assignment


def enumerate_assignments(
    h: Hypergraph,
    g: BitMatrix,
    k: int,
    limit: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[MagicAssignment]:
    """Stream distinct assignments whose Gram matrix equals g, deterministically.

    The stream ends early (without error) when the search space is
    exhausted before ``limit`` assignments are produced.
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
    state = _SearchState()
    produced = 0
    for vectors in _basis_assignments(g, basis_idx, k, node_budget, state):
        yield _extend_assignment(h, g, basis_idx, vectors, k)
        produced += 1
        if limit is not None and produced >= limit:
            return


def assignment_from_gram(
    h: Hypergraph,
    g: BitMatrix,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> MagicAssignment:
    """First assignment (in enumeration order) respecting g at k qubits."""
    for a in enumerate_assignments(h, g, k, limit=1, node_budget=node_budget):
        return a
    raise AssertionError(
        "no embedding found although the rank bound holds; this contradicts "
        "the symplectic realizability of alternating forms"
    )


__all__ = [
    "assignment_from_gram",
    "enumerate_assignments",
    "RankObstructionError",
    "SynthesisBudgetError",
    "DEFAULT_NODE_BUDGET",
]
