"""Noncontextual bounds of parity noncontextuality inequalities.

For a sign pattern c over the contexts of a proper Eulerian hypergraph,
the best value a deterministic +/-1 vertex assignment can reach is
``|E| - 2*w_min`` where w_min is the minimum Hamming weight over the
affine space c + row(incidence matrix): flipping vertex signs moves c by
row-space elements, and the all-ones assignment is optimal for the
minimum-weight representative.  A direct maximization over all 2^m
classical assignments serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf2 import (
    _TABLE_CODIM,
    BitMatrix,
    BitVector,
    CosetTooLargeError,
    Echelon,
    SyndromeTable,
    coset_min_weight,
    row_combination,
    _coset_min_weight,
    _null_vectors,
    _span_blocks,
)
from .gram import GramSpace, NotProperEulerianError, _inversion_masks, _magic_space, _parity_via_masks
from .hypergraph import Hypergraph, incidence_matrix, is_proper_eulerian

#: Default cap on the brute-force vertex count (2^m assignments).
DEFAULT_BRUTE_FORCE_CAP = 30

@dataclass(frozen=True)
class BoundReport:
    """Noncontextual bound together with its witness and derivation."""

    b: int
    Q: int
    w_min: int
    s: int
    epsilon: Fraction
    witness: tuple[int, ...]  # +/-1 per vertex
    method: str
    exact: bool = True
    magic_signs: bool = True  # sign pattern has odd weight

    def to_json_dict(self) -> dict:
        return {
            "b": self.b,
            "Q": self.Q,
            "w_min": self.w_min,
            "s": self.s,
            "epsilon": float(self.epsilon),
            "epsilon_exact": f"{self.epsilon.numerator}/{self.epsilon.denominator}",
            "witness": list(self.witness),
            "method": self.method,
            "exact": self.exact,
            "magic_signs": self.magic_signs,
        }


def tolerated_error(b: int, Q: int) -> Fraction:
    """Error per context a violation survives: (Q - b)/Q, exact."""
    if Q <= 0:
        raise ValueError("Q must be positive")
    if b > Q:
        raise ValueError(f"bound {b} exceeds quantum value {Q}")
    return Fraction(Q - b, Q)


def format_epsilon(eps: Fraction, decimals: int = 2) -> str:
    """Render like the summary tables: fixed decimals, trailing zeros kept."""
    return f"{float(eps):.{decimals}f}"


def _checked_signs(h: Hypergraph, c: BitVector) -> None:
    """Raise unless h is proper Eulerian and c has one sign per context."""
    ok, diag = is_proper_eulerian(h)
    if not ok:
        raise NotProperEulerianError(diag)
    if c.length != h.num_edges:
        raise ValueError(f"sign vector length {c.length}, expected {h.num_edges}")


def _report(h: Hypergraph, c: BitVector, b: int, x: int, method: str, exact: bool) -> BoundReport:
    """The report of bound b for signs c, witnessed by the assignment that
    is -1 on the vertices of x's set bits (vertex v is bit v - 1) and +1
    elsewhere; AssertionError when that assignment does not reach b."""
    n = h.num_edges
    witness = tuple(-1 if (x >> i) & 1 else 1 for i in range(h.vertex_count))
    total = 0
    for j, e in enumerate(h.edges):
        prod = -1 if c[j] else 1
        for v in e:
            prod *= witness[v - 1]
        total += prod
    if total != b:
        raise AssertionError(f"witness reaches {total}, expected {b}")
    w_min = (n - b) // 2
    return BoundReport(
        b=b,
        Q=n,
        w_min=w_min,
        s=n - w_min,
        epsilon=tolerated_error(b, n),
        witness=witness,
        method=method,
        exact=exact,
        magic_signs=c.weight() % 2 == 1,
    )


def noncontextual_bound(h: Hypergraph, c: BitVector) -> BoundReport:
    """Exact bound via minimum-weight search over c + row(incidence matrix).

    An even-weight c is accepted but flagged (``magic_signs=False``); magic
    sign patterns always have odd weight.  Past the cap of
    ``coset_min_weight`` the report carries the best bound found, flagged
    inexact.
    """
    _checked_signs(h, c)
    M = incidence_matrix(h)
    try:
        _, y = coset_min_weight([BitVector(c.length, r) for r in M.rows], c)
    except CosetTooLargeError as err:
        return _coset_bound(h, M, c, err.best_witness, False)
    return _coset_bound(h, M, c, y, True)


def _coset_bound(h: Hypergraph, M: BitMatrix, c: BitVector, y: BitVector, exact: bool) -> BoundReport:
    """``noncontextual_bound`` of c, for M the incidence matrix of h, from
    y, the least-weight element of c + row(M) its caller found (the
    lightest it found when ``exact`` is False)."""
    x = row_combination(M.rows, y.bits ^ c.bits)
    if x is None:
        raise AssertionError("coset witness not reachable from the row space")
    return _report(h, c, h.num_edges - 2 * y.weight(), x, "coset", exact)


def brute_force_bound(
    h: Hypergraph, c: BitVector, cap: int = DEFAULT_BRUTE_FORCE_CAP
) -> BoundReport:
    """Exact maximum of the inequality value over all 2^m assignments.

    Independent of the coset method: evaluates every classical assignment
    directly (vectorized in blocks).  The witness is the smallest bitmask
    attaining the maximum.
    """
    _checked_signs(h, c)
    m, n = h.vertex_count, h.num_edges
    if m > cap:
        raise ValueError(f"{m} vertices exceed the brute-force cap {cap}")
    edge_masks = []
    for e in h.edges:
        mask = 0
        for v in e:
            mask ^= 1 << (v - 1)  # multiplicity mod 2
        edge_masks.append(np.uint64(mask))
    signs_alpha = np.array([-1 if c[j] else 1 for j in range(n)], dtype=np.int64)

    best = None
    best_x = 0
    block = 1 << 20
    for start in range(0, 1 << m, block):
        stop = min(start + block, 1 << m)
        xs = np.arange(start, stop, dtype=np.uint64)
        total = np.zeros(stop - start, dtype=np.int64)
        for j, mask in enumerate(edge_masks):
            par = np.bitwise_count(xs & mask).astype(np.int64) & 1
            total += signs_alpha[j] * (1 - 2 * par)
        i = int(np.argmax(total))
        if best is None or total[i] > best:
            best = int(total[i])
            best_x = start + i
    return _report(h, c, best, best_x, "brute-force", True)


@dataclass(frozen=True)
class HypergraphBoundReport:
    """Worst-case bound over magic assignments of the hypergraph itself."""

    report: BoundReport  # for the maximizing sign-pattern coset
    pauli_only: bool
    cosets_checked: int
    gram_matrices_checked: int | None  # None for the unrestricted variant
    maximizing_signs: BitVector
    exact: bool

    def to_json_dict(self) -> dict:
        doc = self.report.to_json_dict()
        doc.update(
            {
                "pauli_only": self.pauli_only,
                "cosets_checked": self.cosets_checked,
                "gram_matrices_checked": self.gram_matrices_checked,
                "maximizing_signs": str(self.maximizing_signs),
                "exact": self.exact,
            }
        )
        return doc


def _gray_generators(deltas: list[int]) -> list[int]:
    """The e_l = deltas[l] ^ deltas[l - 1] (deltas[-1] = 0) independent of
    the e before them, in order; see ``hypergraph_bound`` for their use."""
    gens, span, prev = [], Echelon(), 0
    for delta in deltas:
        e, prev = delta ^ prev, delta
        if span.insert(e):
            gens.append(e)
    return gens


def _pauli_sign_cosets(h: Hypergraph, space: GramSpace, row_space: Echelon) -> tuple[int, list[int]]:
    """Sign cosets of magic Pauli assignments, for ``row_space`` the echelon
    of h's incidence rows, as (r0, gens): the reps r0 ^ XOR{gens[k] : bit
    k of i}, i < 2^len(gens), read off the Gram matrices by inversion
    parities over the cycle basis (see ``hypergraph_bound``)."""
    n = h.num_edges
    cycles = [
        (y.bit_length() - 1, _inversion_masks(h, tuple(j for j in range(n) if (y >> j) & 1)))
        for y in _null_vectors(row_space, n)
    ]

    def rep(g: BitMatrix) -> int:
        return sum(_parity_via_masks(g.rows, masks) << f for f, masks in cycles)

    return rep(space.magic_offset), _gray_generators([rep(b) for b in space.nonmagic_basis])


def hypergraph_bound(h: Hypergraph, pauli_only: bool = True) -> HypergraphBoundReport:
    """Minimum bound over magic assignments: b(H) = |E| - 2*max_C w(C).

    pauli_only: iterate the sign cosets of Pauli assignments realizing the
    magic Gram matrices (assignments respecting the same matrix share their
    bound).  Otherwise iterate every odd-weight coset of the incidence row
    space, since observable negations realize any odd pattern within a
    coset.

    Coset weights come from one ``SyndromeTable`` of the row space: a
    suffix dynamic program over its 2^codim syndromes, about n * 2^codim
    steps, after which each coset's exact minimum weight is a lookup.  Both
    routes list their cosets' syndromes with numpy and take the first of
    the largest weight: all-assignments the odd-popcount syndromes in
    ascending order, Pauli-only its image in the order below.  Past
    codimension 22 (``_TABLE_CODIM``) the all-assignments route raises
    ValueError, and the Pauli-only route searches each coset with
    ``coset_min_weight``'s search over the one echelon of the row space
    and raises ValueError when its image has dimension above 22, the same
    2^22-coset limit.

    The Pauli-only route synthesizes no assignment: the sign coset c +
    row(M) of an assignment is a linear function of its Gram matrix G,
    read off G by d+1 parity evaluations for a magic space of dimension d.
    Proof: take an edge set y in which every vertex occurs an even number
    of times, i.e. M.y = 0 for the incidence matrix M.  The product of y's
    contexts, in stored order, is (-1)^<c, y> I.  Sorting that word by
    vertex swaps adjacent P_a, P_b at a sign (-1)^G_ab each; every P_v then
    occurs an even number of times and the sorted word is I.  So <c, y> is
    the inversion parity of G over y's concatenation, the magic parity
    (``gram.fast_magic_parity``) restricted to y, which is linear in G.  The coset's
    representative ``Echelon(M.rows).reduce(c)`` is supported on the free
    columns, and the cycle basis ``null_space_basis(M)`` has one vector
    y_f per free column f, whose only free column, and highest set bit, is
    f.  So bit f of the representative is <c, y_f>, one parity of G over
    y_f's contexts (``gram._inversion_masks``).  Evaluating these at the
    magic offset and at each nonmagic basis matrix b_l gives the coset of
    every magic matrix offset + sum x_l b_l as r0 + sum x_l D_l, with r0 =
    rep(offset) and D_l = rep(b_l).  So all 2^d matrices are covered
    (``gram_matrices_checked``).

    The image is listed in the order a Gray walk over the matrices first
    reaches each coset, in 2^rank(D) steps.  Gray step s visits x = s ^
    (s >> 1), and sum x_l D_l = sum s_l e_l with e_l = D_l + D_{l-1}
    (D_{-1} = 0).  The least s reaching a coset is supported on the l whose
    e_l is independent of e_0..e_{l-1}: any other l tops a kernel vector,
    whose XOR clears bit l and changes only lower ones.  So counting up in
    binary over those e_l (``_gray_generators``) lists each coset at its
    first Gray step, in the same order.  Past codimension 22 each coset
    is searched once, and the maximizing coset's report reuses the leader
    its search found.  A search past its cap (dimension above
    ``DEFAULT_COSET_CAP``) degrades to a flagged upper bound on its weight.
    """
    space = _magic_space(h)  # NotProperEulerianError before NoMagicGramError
    n = h.num_edges
    M = incidence_matrix(h)
    ech = Echelon(M.rows)
    codim = n - ech.rank
    grams_checked = None

    if pauli_only:
        r0, gens = _pauli_sign_cosets(h, space, ech)
        grams_checked = 1 << len(space.nonmagic_basis)
        if len(gens) > _TABLE_CODIM:
            raise ValueError(
                f"Pauli sign cosets span dimension {len(gens)}, over _TABLE_CODIM = {_TABLE_CODIM}"
            )
    elif codim > _TABLE_CODIM:
        # The table holds at most 2^_TABLE_CODIM syndromes.  Its constructor
        # refuses a larger codimension too; that check only backs up direct
        # callers, and this one words the refusal for the bound.
        raise ValueError(f"odd-coset enumeration needs 2^{codim - 1} cosets, over cap {_TABLE_CODIM - 1}")

    if codim > _TABLE_CODIM:  # Pauli-only: one search per coset
        reps = [r0]
        for g in gens:
            reps += [r ^ g for r in reps]
        found = []  # (weight, leader, exact) per coset
        for rep in reps:
            try:
                found.append((*_coset_min_weight(ech, BitVector(n, rep)), True))
            except CosetTooLargeError as err:
                found.append((err.best_weight, err.best_witness, False))
        best = max(range(len(reps)), key=lambda i: found[i][0])  # the first of the largest
        best_rep, (_, leader, leader_exact) = reps[best], found[best]
        exact = all(e for _, _, e in found)
        cosets = len(reps)
    else:
        table = SyndromeTable(ech, n)
        if pauli_only:  # syndromes are linear
            gen_syndromes = [[table.syndrome(g)] for g in gens]
            syndromes = next(_span_blocks([table.syndrome(r0)], gen_syndromes, len(gens))).ravel()
        else:
            # A representative supported on the free columns is its own
            # syndrome; rows of a proper Eulerian incidence matrix are even,
            # so coset parity is the representative's parity and the odd
            # cosets are the odd-popcount syndromes, half of all cosets.
            syndromes = np.arange(1 << codim, dtype=np.uint64)
            syndromes = syndromes[np.bitwise_count(syndromes) & 1 == 1]
        best = int(syndromes[np.argmax(table.weights[syndromes])])
        best_rep, leader = table.lift(best), BitVector(n, table.leader(best))
        exact = leader_exact = True
        cosets = len(syndromes)

    # The maximizing coset's bound, from the leader its scoring found.
    base = _coset_bound(h, M, BitVector(n, best_rep), leader, leader_exact)
    return HypergraphBoundReport(
        report=base,
        pauli_only=pauli_only,
        cosets_checked=cosets,
        gram_matrices_checked=grams_checked,
        maximizing_signs=BitVector(n, best_rep),
        exact=exact,
    )


__all__ = [
    "BoundReport",
    "HypergraphBoundReport",
    "noncontextual_bound",
    "brute_force_bound",
    "hypergraph_bound",
    "tolerated_error",
    "format_epsilon",
    "DEFAULT_BRUTE_FORCE_CAP",
]
