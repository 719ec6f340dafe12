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

from .assign import assignment_from_gram
from .gf2 import (
    _NUMPY_ENUM_DIM,
    BitMatrix,
    BitVector,
    CosetTooLargeError,
    DEFAULT_COSET_CAP,
    coset_min_weight,
    row_combination,
    _echelon,
    _reduce_by,
    _span_elements,
)
from .gram import GramSpace, NoMagicGramError, valid_gram_space, _rank_rows
from .hypergraph import Hypergraph, incidence_matrix, is_proper_eulerian

#: Default cap on the brute-force vertex count (2^m assignments).
DEFAULT_BRUTE_FORCE_CAP = 30

#: Default cap on magic-Gram enumeration inside hypergraph_bound.
DEFAULT_GRAM_ENUM_CAP = 20


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


def _witness_from_x(m: int, x_bits: int) -> tuple[int, ...]:
    return tuple(-1 if (x_bits >> i) & 1 else 1 for i in range(m))


def _check_witness(h: Hypergraph, c: BitVector, witness: tuple[int, ...], b: int) -> None:
    total = 0
    for j, e in enumerate(h.edges):
        prod = 1
        for v in e:
            prod *= witness[v - 1]
        sign_alpha = -1 if c[j] else 1
        total += sign_alpha * prod
    if total != b:
        raise AssertionError(f"witness reaches {total}, expected {b}")


def noncontextual_bound(
    h: Hypergraph, c: BitVector, coset_cap: int = DEFAULT_COSET_CAP
) -> BoundReport:
    """Exact bound via minimum-weight search over c + row(incidence matrix).

    An even-weight c is accepted but flagged (``magic_signs=False``); magic
    sign patterns always have odd weight.  If the row-space dimension
    exceeds ``coset_cap`` the report carries the best bound found, flagged
    inexact.
    """
    ok, diag = is_proper_eulerian(h)
    if not ok:
        raise ValueError(f"hypergraph is not proper Eulerian: {diag}")
    n = h.num_edges
    if c.length != n:
        raise ValueError(f"sign vector length {c.length}, expected {n}")
    M = incidence_matrix(h)
    row_vecs = [BitVector(n, r) for r in M.rows]
    exact = True
    try:
        w_min, y = coset_min_weight(row_vecs, c, cap=coset_cap)
    except CosetTooLargeError as err:
        w_min, y = err.best_weight, err.best_witness
        exact = False
    x = row_combination(M.rows, y.bits ^ c.bits)
    if x is None:
        raise AssertionError("coset witness not reachable from the row space")
    b = n - 2 * w_min
    witness = _witness_from_x(h.vertex_count, x)
    _check_witness(h, c, witness, b)
    return BoundReport(
        b=b,
        Q=n,
        w_min=w_min,
        s=n - w_min,
        epsilon=tolerated_error(b, n),
        witness=witness,
        method="coset",
        exact=exact,
        magic_signs=c.weight() % 2 == 1,
    )


def brute_force_bound(
    h: Hypergraph, c: BitVector, cap: int = DEFAULT_BRUTE_FORCE_CAP
) -> BoundReport:
    """Exact maximum of the inequality value over all 2^m assignments.

    Independent of the coset method: evaluates every classical assignment
    directly (vectorized in blocks).  The witness is the smallest bitmask
    attaining the maximum.
    """
    ok, diag = is_proper_eulerian(h)
    if not ok:
        raise ValueError(f"hypergraph is not proper Eulerian: {diag}")
    m, n = h.vertex_count, h.num_edges
    if c.length != n:
        raise ValueError(f"sign vector length {c.length}, expected {n}")
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
    w_min = (n - best) // 2
    witness = _witness_from_x(m, best_x)
    _check_witness(h, c, witness, best)
    return BoundReport(
        b=best,
        Q=n,
        w_min=w_min,
        s=n - w_min,
        epsilon=tolerated_error(best, n),
        witness=witness,
        method="brute-force",
        exact=True,
        magic_signs=c.weight() % 2 == 1,
    )


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


def _synthesized_rep(h: Hypergraph, g: BitMatrix, echelon_basis) -> int:
    """Coset representative of the context signs of one assignment realizing g."""
    k = _rank_rows(list(g.rows)) // 2
    return _reduce_by(assignment_from_gram(h, g, k).context_signs.bits, echelon_basis)


def _pauli_sign_cosets(
    h: Hypergraph, space: GramSpace, echelon_basis, gram_cap: int
) -> tuple[dict[int, None], int, bool]:
    """Sign cosets of magic Pauli assignments, from d+1 syntheses.

    Returns (reps, matrices covered, exact).  reps holds each coset's
    representative once, in the Gray-code order of the magic Gram
    matrices offset + span(nonmagic_basis) that first realize it.  Past
    ``gram_cap`` only the offset and its d single-basis shifts are covered.
    """
    offset = space.magic_offset
    r0 = _synthesized_rep(h, offset, echelon_basis)
    deltas = [_synthesized_rep(h, offset ^ b, echelon_basis) ^ r0 for b in space.nonmagic_basis]
    d = len(deltas)
    reps = {r0: None}
    if d > gram_cap:
        for delta in deltas:
            reps.setdefault(r0 ^ delta)
        return reps, d + 1, False
    cur = r0
    for step in range(1, 1 << d):
        cur ^= deltas[(step & -step).bit_length() - 1]
        reps.setdefault(cur)
    return reps, 1 << d, True


def _coset_weights(echelon_basis, reps, n: int, coset_cap: int) -> tuple[list[int], bool]:
    """Minimum weight of every coset rep + row(M), and whether all are exact.

    Several cosets of a small row space share one numpy enumeration of it;
    otherwise each coset is searched on its own, degrading to its best
    upper bound past ``coset_cap``.
    """
    rows = [b for _, b in echelon_basis]
    if len(reps) > 1 and len(rows) <= min(coset_cap, _NUMPY_ENUM_DIM) and n <= 64:
        elems = _span_elements(rows)
        return [int(np.bitwise_count(elems ^ np.uint64(rep)).min()) for rep in reps], True
    row_vecs = [BitVector(n, row) for row in rows]
    weights, exact = [], True
    for rep in reps:
        try:
            w, _ = coset_min_weight(row_vecs, BitVector(n, rep), cap=coset_cap)
        except CosetTooLargeError as err:
            w = err.best_weight
            exact = False
        weights.append(w)
    return weights, exact


def hypergraph_bound(
    h: Hypergraph,
    pauli_only: bool = True,
    gram_cap: int = DEFAULT_GRAM_ENUM_CAP,
    coset_cap: int = DEFAULT_COSET_CAP,
) -> HypergraphBoundReport:
    """Minimum bound over magic assignments: b(H) = |E| - 2*max_C w(C).

    pauli_only: iterate the sign cosets of Pauli assignments realizing the
    magic Gram matrices (assignments respecting the same matrix share their
    bound).  Otherwise iterate every odd-weight coset of the incidence row
    space, since observable negations realize any odd pattern within a
    coset.

    The Pauli-only route needs only d+1 syntheses for a magic space of
    dimension d, because the sign coset c + row(M) of an assignment is an
    affine function of its Gram matrix G.  Proof: take an edge set y in
    which every vertex occurs an even number of times, i.e. M.y = 0 for
    the incidence matrix M.  The product of y's contexts, in stored order,
    is (-1)^<c, y> I.  Sorting that word by vertex swaps adjacent P_a, P_b
    at a sign (-1)^G_ab each; every P_v then occurs an even number of
    times and the sorted word is I.  So <c, y> is the inversion parity of
    G over y's concatenation, the ``magic_parity`` functional restricted
    to y, which is linear in G.  GF(2)^n / row(M) is dual to ker M, so the
    coset of c is a linear function of G.  Synthesizing at the magic
    offset and at offset + b_l for each nonmagic basis matrix b_l gives
    the coset of every magic matrix offset + sum x_l b_l as
    rep(offset) + sum x_l (rep(offset + b_l) + rep(offset)).

    ``gram_matrices_checked`` counts the magic Gram matrices covered: all
    2^d of them up to ``gram_cap``; past it, the offset and its d
    single-basis shifts, flagged inexact.  A coset search past
    ``coset_cap`` degrades to a flagged upper bound on its weight.
    """
    ok, diag = is_proper_eulerian(h)
    if not ok:
        raise ValueError(f"hypergraph is not proper Eulerian: {diag}")
    n = h.num_edges
    M = incidence_matrix(h)
    ech = _echelon(M.rows)
    grams_checked = None

    space = valid_gram_space(h)
    if space.magic_offset is None:
        raise NoMagicGramError(f"{h.name or 'hypergraph'} admits no magic Gram matrix")

    if pauli_only:
        reps, grams_checked, exact = _pauli_sign_cosets(h, space, ech, gram_cap)
    else:
        exact = True
        reps = {}
        r = len(ech)
        codim = n - r
        pivots = {p for p, _ in ech}
        free_cols = [j for j in range(n) if j not in pivots]
        if codim - 1 > gram_cap:
            raise ValueError(
                f"odd-coset enumeration needs 2^{codim - 1} cosets, over cap {gram_cap}"
            )
        # Canonical representatives are supported on free columns; rows of a
        # proper Eulerian incidence matrix are even, so coset parity is the
        # representative's parity and odd cosets are half of all cosets.
        for combo in range(1 << codim):
            bits = 0
            cc = combo
            while cc:
                l = (cc & -cc).bit_length() - 1
                bits |= 1 << free_cols[l]
                cc &= cc - 1
            if bits.bit_count() % 2 == 1:
                reps.setdefault(bits)

    weights, weights_exact = _coset_weights(ech, reps, n, coset_cap)
    # The first coset of the largest weight, in the order reps were found.
    best_rep, _ = max(zip(reps, weights), key=lambda item: item[1])
    base = noncontextual_bound(h, BitVector(n, best_rep), coset_cap=coset_cap)
    return HypergraphBoundReport(
        report=base,
        pauli_only=pauli_only,
        cosets_checked=len(reps),
        gram_matrices_checked=grams_checked,
        maximizing_signs=BitVector(n, best_rep),
        exact=exact and weights_exact and base.exact,
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
    "DEFAULT_GRAM_ENUM_CAP",
]
