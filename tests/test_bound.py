from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicsets import assign, bound, datasets, gf2
from magicsets.assign import assignment_from_gram
from magicsets.bound import (
    HypergraphBoundReport,
    brute_force_bound,
    format_epsilon,
    hypergraph_bound,
    noncontextual_bound,
    tolerated_error,
)
from magicsets.gf2 import (
    BitMatrix,
    BitVector,
    CosetTooLargeError,
    Echelon,
    SyndromeTable,
    _min_weight_dfs,
    _span_blocks,
    coset_min_weight,
    null_space_basis,
)
from magicsets.gram import (
    NoMagicGramError,
    min_qubits,
    valid_gram_space,
)
from magicsets.hypergraph import Hypergraph, incidence_matrix, parse_edge_list
from magicsets.orbits import ms327_hypergraph

from conftest import (
    bfs_syndrome_weights,
    disjoint_union,
    gray_enumerate,
    gray_pauli_sign_cosets,
    gray_sign_cosets,
    hb_descendants,
    magic_descendant,
    magic_parity,
    random_proper_eulerian,
    relabelled,
    rigid_blocks,
    seeded_magic_grams,
    synthesized_rep,
)

#: hypergraph_bound(...).to_json_dict() per bundled structure and route.
#: Most entries were written by the implementation that synthesized one
#: assignment per magic Gram matrix and searched each coset on its own.
#: HB and the all-assignments entries of HA, HC, MS3-29 and MS6-35 (too
#: slow for that implementation) were written with coset weights from a
#: SyndromeTable, which the oracles below check.  Both HD entries were
#: rewritten once the table's leaders made every coset search exact there
#: (its row space has rank 36, past the old cap on searched dimensions).
#: The Pauli-only entries of HA (d = 30) and HC (d = 26) were rewritten
#: once that route listed the whole sign-coset image at every magic-space
#: dimension; before, past d = 20, it covered only the magic offset and its
#: d single-basis shifts and flagged the bound inexact.
#: Rewrite named entries with ``PYTHONPATH=src python tests/test_bound.py
#: NAME...`` (only when an output change is intended).
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "hypergraph_bound_golden.json"


def signs(entry):
    return entry.assignment.context_signs


def sweep_bound_oracle(h: Hypergraph) -> HypergraphBoundReport:
    """Pauli-only hypergraph bound from one synthesis per magic Gram matrix.

    The 2^d sweep that the linear sign-coset route replaced, kept as its
    test oracle: every matrix gets its own assignment and every sign coset
    its own coset_min_weight search.
    """
    n = h.num_edges
    M = incidence_matrix(h)
    row_space = Echelon(M.rows)
    space = valid_gram_space(h)
    reps: dict[int, None] = {}
    basis_rows = [list(b.rows) for b in space.nonmagic_basis]
    for _, rows in gray_enumerate(list(space.magic_offset.rows), basis_rows):
        reps.setdefault(synthesized_rep(h, BitMatrix(h.vertex_count, tuple(rows)), row_space))
    row_vecs = [BitVector(n, r) for r in M.rows]
    best_w = best_rep = None
    exact = True
    for rep in reps:
        try:
            w, _ = coset_min_weight(row_vecs, BitVector(n, rep))
        except CosetTooLargeError as err:
            w = err.best_weight
            exact = False
        if best_w is None or w > best_w:
            best_w, best_rep = w, rep
    base = noncontextual_bound(h, BitVector(n, best_rep))
    return HypergraphBoundReport(
        report=base,
        pauli_only=True,
        cosets_checked=len(reps),
        gram_matrices_checked=1 << len(basis_rows),
        maximizing_signs=BitVector(n, best_rep),
        exact=exact and base.exact,
    )


def shared_enumeration_oracle(row_space: Echelon, reps, n: int) -> list[int]:
    """Minimum weight of every coset rep + row(M) from one numpy
    enumeration of row(M) shared by all reps (n <= 64).

    The scorer that the SyndromeTable lookup replaced in
    ``hypergraph_bound``, kept as its test oracle.  Blocks of at most 2^20
    elements keep its memory small up to rank 25.
    """
    rows = list(row_space.pivots.values())
    best = [n] * len(reps)
    for block in _span_blocks([0], [[row] for row in rows], min(len(rows), 20)):
        elems = block.ravel()
        for i, rep in enumerate(reps):
            best[i] = min(best[i], int(np.bitwise_count(elems ^ np.uint64(rep)).min()))
    return best


def binary_span(r0: int, gens: list[int]) -> list[int]:
    """r0 ^ XOR{gens[k] : bit k of i} at index i < 2^len(gens)."""
    reps = [r0]
    for g in gens:
        reps += [r ^ g for r in reps]
    return reps


def pauli_reps(h: Hypergraph) -> tuple[Echelon, list[int]]:
    """The incidence row space and the Pauli sign-coset reps hypergraph_bound scores."""
    row_space = Echelon(incidence_matrix(h).rows)
    return row_space, binary_span(*bound._pauli_sign_cosets(h, valid_gram_space(h), row_space))


def assert_weights_match_oracles(h: Hypergraph, row_space: Echelon, reps: list[int]) -> None:
    """The table against the breadth-first table, the per-rep
    branch-and-bound search (weight and witness) and, up to rank 25, the
    shared enumeration (of 16 reps past rank 20)."""
    n = h.num_edges
    table = SyndromeTable(row_space, n)
    assert table.weights.tolist() == bfs_syndrome_weights(row_space, n).tolist()
    got = table.weights[[table.syndrome(rep) for rep in reps]].tolist()
    basis = row_space.rref()
    searched = [_min_weight_dfs(basis, rep, n) for rep in reps]
    assert searched == [(w, table.leader(table.syndrome(rep))) for w, rep in zip(got, reps)]
    if row_space.rank <= 20:
        assert got == shared_enumeration_oracle(row_space, reps, n)
    elif row_space.rank <= 25:  # HA: 2^25 elements, so its first 16 reps only
        assert got[:16] == shared_enumeration_oracle(row_space, reps[:16], n)


class TestNoncontextualBound:
    @pytest.mark.parametrize(
        "name,b,q,eps,dec",
        [
            ("MS3-29", 19, 33, "0.424", 3),
            ("MS5-26", 24, 30, "0.2", 1),
            ("MS4-21b", 14, 16, "0.125", 3),
            ("MS3-27b", 17, 27, "0.37", 2),
            ("MS6-35", 30, 36, "0.167", 3),
        ],
    )
    def test_published_bounds(self, entries, name, b, q, eps, dec):
        e = entries[name]
        rep = noncontextual_bound(e.hypergraph, signs(e))
        assert (rep.b, rep.Q) == (b, q)
        assert rep.exact
        assert format_epsilon(rep.epsilon, dec) == eps

    def test_square_and_pentagram(self, entries):
        for name, b, q in [("square", 4, 6), ("pentagram", 3, 5)]:
            e = entries[name]
            rep = noncontextual_bound(e.hypergraph, signs(e))
            assert (rep.b, rep.Q) == (b, q)

    def test_witness_achieves_bound(self, entries):
        for name in ["square", "pentagram", "MS4-21b", "MS3-29"]:
            e = entries[name]
            rep = noncontextual_bound(e.hypergraph, signs(e))
            total = 0
            for j, edge in enumerate(e.hypergraph.edges):
                prod = 1
                for v in edge:
                    prod *= rep.witness[v - 1]
                total += (-1 if signs(e)[j] else 1) * prod
            assert total == rep.b

    def test_parity_invariant(self, entries):
        for name in ["square", "pentagram", "MS3-27b", "MS6-35"]:
            e = entries[name]
            rep = noncontextual_bound(e.hypergraph, signs(e))
            assert rep.b % 2 == e.hypergraph.num_edges % 2
            assert rep.b <= e.hypergraph.num_edges - 2

    def test_coset_offset_invariance(self, entries):
        rng = random.Random(47)
        for name in ["square", "pentagram", "MS4-21b"]:
            e = entries[name]
            h = e.hypergraph
            M = incidence_matrix(h)
            base = noncontextual_bound(h, signs(e))
            for _ in range(20):
                shift = 0
                for row in M.rows:
                    if rng.random() < 0.5:
                        shift ^= row
                moved = noncontextual_bound(h, signs(e) ^ BitVector(h.num_edges, shift))
                assert moved.b == base.b and moved.w_min == base.w_min

    def test_all_zero_signs(self, square):
        h = square.hypergraph
        rep = noncontextual_bound(h, BitVector.zero(h.num_edges))
        assert rep.b == h.num_edges
        assert not rep.magic_signs

    def test_hd_zero_signs_exact(self, entries):
        # HD's row space has rank 36, above DEFAULT_COSET_CAP; an offset in
        # the row space still has an exact minimum weight of 0.
        h = entries["HD"].hypergraph
        rep = noncontextual_bound(h, BitVector.zero(h.num_edges))
        assert (rep.b, rep.Q, rep.w_min, rep.exact) == (45, 45, 0, True)

    def test_hd_row_space_signs_exact(self, entries):
        h = entries["HD"].hypergraph
        M = incidence_matrix(h)
        c = BitVector(h.num_edges, M.rows[0] ^ M.rows[1] ^ M.rows[7])
        assert c.weight() > 0
        rep = noncontextual_bound(h, c)
        assert (rep.b, rep.w_min, rep.exact) == (h.num_edges, 0, True)
        assert not rep.magic_signs

    def test_even_weight_flagged(self, square):
        h = square.hypergraph
        rep = noncontextual_bound(h, BitVector.from_bits([1, 1, 0, 0, 0, 0]))
        assert not rep.magic_signs

    def test_sign_length_checked(self, square):
        with pytest.raises(ValueError):
            noncontextual_bound(square.hypergraph, BitVector.zero(5))

    def test_capped_coset_flags_inexact(self):
        # K_33 as a 2-uniform hypergraph: 528 contexts, row-space rank 32
        # (past DEFAULT_COSET_CAP) and codimension 496 (past the table).
        h = Hypergraph.from_edges([[a, b] for a in range(1, 34) for b in range(a + 1, 34)], 33)
        n = h.num_edges
        assert (n, Echelon(incidence_matrix(h).rows).rank) == (528, 32)
        c = BitVector(n, (1 << n) - 1 >> 1)  # every context but the last: odd
        rep = noncontextual_bound(h, c)
        assert not rep.exact
        assert rep.b <= n - 2  # a genuine upper bound on w_min gives a lower b

    @pytest.mark.parametrize("name", datasets.NAMES)
    def test_catalog_signs_exact(self, entries, name):
        """Exact on the signs ``check``/``assign`` synthesize at the minimum qubit count."""
        h = entries[name].hypergraph
        mq = min_qubits(h)
        rep = noncontextual_bound(h, assignment_from_gram(h, mq.gram, mq.qubits).context_signs)
        assert rep.exact and rep.magic_signs


class TestBruteForce:
    def test_square_pentagram_match(self, entries):
        for name in ["square", "pentagram"]:
            e = entries[name]
            coset = noncontextual_bound(e.hypergraph, signs(e))
            oracle = brute_force_bound(e.hypergraph, signs(e))
            assert oracle.b == coset.b

    def test_ms4_21b(self, entries):
        e = entries["MS4-21b"]
        rep = brute_force_bound(e.hypergraph, signs(e))
        assert (rep.b, rep.Q) == (14, 16)

    def test_cap(self, entries):
        with pytest.raises(ValueError):
            brute_force_bound(entries["MS3-27b"].hypergraph, signs(entries["MS3-27b"]), cap=20)

    def test_random_instances_agree(self):
        rng = random.Random(53)
        done = 0
        while done < 12:
            h = random_proper_eulerian(rng, max_vertices=12)
            c_bits = rng.getrandbits(h.num_edges) | 1
            c = BitVector(h.num_edges, c_bits)
            coset = noncontextual_bound(h, c)
            oracle = brute_force_bound(h, c)
            assert coset.b == oracle.b, (h, c)
            done += 1


class TestHypergraphBound:
    def test_square_both_routes(self, square):
        pauli = hypergraph_bound(square.hypergraph, pauli_only=True)
        every = hypergraph_bound(square.hypergraph, pauli_only=False)
        assert pauli.report.b == 4 and every.report.b == 4
        assert pauli.exact and every.exact

    def test_pentagram(self, pentagram):
        rep = hypergraph_bound(pentagram.hypergraph, pauli_only=True)
        assert rep.report.b == 3
        assert rep.gram_matrices_checked == 1  # unique magic Gram matrix

    def test_ms327_single_gram_determines_bound(self):
        h = ms327_hypergraph()
        rep = hypergraph_bound(h, pauli_only=True)
        assert rep.gram_matrices_checked == 1
        assert (rep.report.b, rep.report.Q) == (21, 27)
        assert format_epsilon(rep.report.epsilon, 2) == "0.22"

    def test_ms3_27b_single_coset(self, entries, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("hypergraph_bound synthesized an assignment")

        monkeypatch.setattr(assign, "_basis_assignments", refused)
        rep = hypergraph_bound(entries["MS3-27b"].hypergraph, pauli_only=True)
        assert rep.gram_matrices_checked == 64
        assert rep.cosets_checked == 1
        assert rep.report.b == 17

    @pytest.mark.parametrize("name", sorted(json.loads(GOLDEN_PATH.read_text())))
    def test_golden_json(self, name):
        golden = json.loads(GOLDEN_PATH.read_text())[name]
        h = datasets.load(name).hypergraph
        for route, want in golden.items():
            got = hypergraph_bound(h, pauli_only=route == "pauli_only").to_json_dict()
            assert got == want, route

    def test_matches_sweep_oracle(self, entries):
        rng = random.Random(61)
        inputs = [entries[name].hypergraph for name in ("MS3-27b", "HD", "square", "pentagram")]
        inputs += hb_descendants(max_dim=9)
        for h in inputs:
            for _ in range(2):
                g = relabelled(h, rng)
                assert hypergraph_bound(g).to_json_dict() == sweep_bound_oracle(g).to_json_dict()

    def test_sign_coset_law(self, entries):
        """<c, y> is G's inversion parity over y's contexts for every y in ker M;
        for the cycle basis y_f that parity is bit f of c's coset rep."""
        rng = random.Random(67)
        for name, e in entries.items():
            if name == "HB":
                continue
            h = e.hypergraph
            M = incidence_matrix(h)
            row_space = Echelon(M.rows)
            cycles = null_space_basis(M)
            for g in seeded_magic_grams(h, rng, 3):
                rep = synthesized_rep(h, g, row_space)
                for y in cycles:
                    sub = Hypergraph(h.vertex_count, tuple(ed for j, ed in enumerate(h.edges) if y[j]))
                    parity = magic_parity(sub, g)
                    assert (rep & y.bits).bit_count() % 2 == parity, (name, y)
                    assert (rep >> (y.bits.bit_length() - 1)) & 1 == parity, (name, y)
                assert rep & ~sum(1 << (y.bits.bit_length() - 1) for y in cycles) == 0

    @pytest.mark.parametrize("pauli_only", [True, False])
    @pytest.mark.parametrize("name", ["MS3-27b", "HD", "pentagram"])
    def test_one_syndrome_table(self, entries, monkeypatch, name, pauli_only):
        """Both routes score the cosets and bound the maximizing one from a
        single table, and that bound is ``noncontextual_bound``'s."""
        built = []

        class CountingTable(SyndromeTable):
            def __init__(self, row_space, length):
                built.append(length)
                super().__init__(row_space, length)

        monkeypatch.setattr(bound, "SyndromeTable", CountingTable)
        monkeypatch.setattr(gf2, "SyndromeTable", CountingTable)
        h = entries[name].hypergraph
        rep = hypergraph_bound(h, pauli_only=pauli_only)
        assert built == [h.num_edges]
        assert rep.report == noncontextual_bound(h, rep.maximizing_signs)

    def test_no_magic_rejected(self):
        with pytest.raises(NoMagicGramError):
            hypergraph_bound(parse_edge_list("[[1,2],[2,3],[3,4],[4,1]]"))
        with pytest.raises(NoMagicGramError):
            hypergraph_bound(parse_edge_list("[[1,2],[2,3],[3,4],[4,1]]"), pauli_only=False)

    def test_all_assignments_route_stops_at_table_codimension(self, entries):
        # HD (codim 9) beside one rigid block (codim 14): codim 23, past the
        # table's 22.
        h = disjoint_union(entries["HD"].hypergraph, rigid_blocks(1))
        assert h.num_edges - Echelon(incidence_matrix(h).rows).rank == 23
        with pytest.raises(ValueError, match=r"needs 2\^22 cosets, over cap 21"):
            hypergraph_bound(h, pauli_only=False)

    def test_pauli_route_past_table_codimension(self, entries, monkeypatch):
        """Past the table each Pauli sign coset is searched once, and the
        maximizing coset's report reuses that search; here the search of
        HD's one coset at codim 23 hits coset_min_weight's dimension cap,
        so the bound is flagged inexact."""
        h = disjoint_union(entries["HD"].hypergraph, rigid_blocks(1))
        searches = []

        def counted(*args, **kwargs):
            searches.append(None)
            return gf2._coset_min_weight(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(bound, "_coset_min_weight", counted)
            rep = hypergraph_bound(h, pauli_only=True)
        assert len(searches) == rep.cosets_checked
        assert rep.to_json_dict() == sweep_bound_oracle(h).to_json_dict()
        assert (rep.report.b, rep.exact, rep.cosets_checked, rep.gram_matrices_checked) == (51, False, 1, 32)
        assert str(rep.maximizing_signs) == "00000000000000000000000000000000000011101011100000000000000000000"

    def test_pauli_route_per_coset_searches_match_table(self, entries, monkeypatch):
        """With the table limit just below the codimension, the Pauli route
        searches each coset with coset_min_weight's search and reports the
        same, from one elimination of the incidence row space per call
        whatever the number of cosets."""
        inputs = [entries[name].hypergraph for name in ("MS3-27b", "HD", "pentagram")]
        inputs += hb_descendants(max_dim=6)
        most_cosets = 0
        for h in inputs:
            want = hypergraph_bound(h, pauli_only=True).to_json_dict()
            row_space = Echelon(incidence_matrix(h).rows)
            eliminations = []

            class CountingEchelon(Echelon):
                """Counts the echelons built from rows that span row(M)."""

                def __init__(self, rows=()):
                    rows = list(rows)
                    super().__init__(rows)
                    if self.rank == row_space.rank and not any(map(row_space.reduce, rows)):
                        eliminations.append(None)

            monkeypatch.setattr(bound, "_TABLE_CODIM", h.num_edges - row_space.rank - 1)
            monkeypatch.setattr(bound, "Echelon", CountingEchelon)
            monkeypatch.setattr(gf2, "Echelon", CountingEchelon)
            rep = hypergraph_bound(h, pauli_only=True)
            monkeypatch.undo()
            assert rep.to_json_dict() == want
            assert len(eliminations) == 1
            most_cosets = max(most_cosets, rep.cosets_checked)
        assert most_cosets > 1

    def test_pauli_route_stops_past_table_image_dimension(self, entries, monkeypatch):
        # HB's sign cosets span dimension 14: with the table limit at 10 the
        # route takes the per-coset searches and refuses 2^14 of them.
        monkeypatch.setattr(bound, "_TABLE_CODIM", 10)
        with pytest.raises(ValueError, match=r"span dimension 14, over _TABLE_CODIM = 10"):
            hypergraph_bound(entries["HB"].hypergraph, pauli_only=True)


class TestSyndromeTable:
    @pytest.mark.parametrize("name", datasets.NAMES)
    def test_bundled_pauli_reps(self, entries, name):
        h = entries[name].hypergraph
        row_space, reps = pauli_reps(h)
        if len(reps) > 256:  # HB's 16 384 cosets: a seeded sample
            reps = random.Random(71).sample(reps, 256)
        assert_weights_match_oracles(h, row_space, reps)

    def test_hb_descendants_relabelled(self):
        rng = random.Random(79)
        for child in hb_descendants(max_dim=9):
            for _ in range(2):
                g = relabelled(child, rng)
                assert_weights_match_oracles(g, *pauli_reps(g))

    def test_every_coset_matches_brute_force(self):
        rng = random.Random(73)
        for _ in range(30):
            h = random_proper_eulerian(rng, max_vertices=12, max_edges=18)
            n = h.num_edges
            table = SyndromeTable(Echelon(incidence_matrix(h).rows), n)
            for s in range(1 << len(table.free)):
                rep = table.lift(s)
                assert table.syndrome(rep) == s
                assert brute_force_bound(h, BitVector(n, rep)).w_min == table.weights[s], (h, s)

    def test_hd_weights_from_all_light_vectors(self, entries):
        """HD's table equals the least weight hitting each coset, found by
        listing every vector of weight <= 5 in GF(2)^45 (about 1.39 M);
        every coset is hit, so no coset leader weighs more than 5.  The
        lexicographically smallest of those lightest vectors is the
        table's leader."""
        h = entries["HD"].hypergraph
        n = h.num_edges
        row_space = Echelon(incidence_matrix(h).rows)
        # Reduction is linear: a vector's coset rep is the XOR of its units' reps.
        unit = np.array([row_space.reduce(1 << j) for j in range(n)], dtype=np.uint64)
        # Coordinate j is bit n-1-j of ``rev``, so the least rev is lex-least.
        reps, rev, last = np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64), np.full(1, -1)
        least: dict[int, tuple[int, int]] = {0: (0, 0)}  # rep -> (weight, lex-least vector)
        for w in range(1, 6):
            grown = [(last < j, j) for j in range(n)]
            reps = np.concatenate([reps[keep] ^ unit[j] for keep, j in grown])
            rev = np.concatenate([rev[keep] | np.uint64(1 << (n - 1 - j)) for keep, j in grown])
            last = np.concatenate([np.full(int(keep.sum()), j) for keep, j in grown])
            order = np.lexsort((rev, reps))
            _, first = np.unique(reps[order], return_index=True)
            for rep, r in zip(reps[order][first].tolist(), rev[order][first].tolist()):
                least.setdefault(rep, (w, int(f"{r:0{n}b}"[::-1], 2)))
        table = SyndromeTable(row_space, n)
        assert len(least) == len(table.weights) == 1 << 9
        assert {table.syndrome(rep): w for rep, (w, _) in least.items()} == dict(enumerate(table.weights.tolist()))
        assert all(table.leader(table.syndrome(rep)) == v for rep, (_, v) in least.items())
        odd = [w for rep, (w, _) in least.items() if rep.bit_count() % 2]
        assert (len(odd), max(odd)) == (256, 5)
        every = hypergraph_bound(h, pauli_only=False)
        assert least[row_space.reduce(every.maximizing_signs.bits)][0] == 5
        assert (every.report.w_min, every.report.b, every.exact) == (5, 35, True)
        pauli = hypergraph_bound(h, pauli_only=True)
        assert (pauli.report.w_min, pauli.report.b, pauli.exact) == (5, 35, True)


class TestRoutes:
    @pytest.mark.parametrize("name", datasets.NAMES)
    def test_pauli_bound_not_below_all_assignments(self, entries, name):
        """Pauli sign cosets are odd cosets, so their best weight is no larger."""
        h = entries[name].hypergraph
        pauli = hypergraph_bound(h, pauli_only=True)
        every = hypergraph_bound(h, pauli_only=False)
        codim = h.num_edges - Echelon(incidence_matrix(h).rows).rank
        assert every.cosets_checked == 1 << (codim - 1)
        assert every.maximizing_signs.weight() % 2 == 1
        assert pauli.exact and every.exact
        assert pauli.report.b >= every.report.b
        if name == "HA":
            assert pauli.report.b == every.report.b == 26

    @pytest.mark.parametrize(
        "name,pauli_only",
        [("HA", True), ("HB", True), ("HB", False), ("HC", True), ("HC", False)],
    )
    def test_within_budget(self, entries, name, pauli_only):
        start = time.perf_counter()
        rep = hypergraph_bound(entries[name].hypergraph, pauli_only=pauli_only)
        assert time.perf_counter() - start < 10.0
        assert rep.exact
        if name == "HB":
            assert rep.cosets_checked == 16384
            assert rep.gram_matrices_checked == (16384 if pauli_only else None)


class TestSignCosetOrder:
    """The image's generators, counted up in binary, list the sign cosets in
    the order the Gray walk over the magic Gram matrices first reaches them."""

    def assert_order(self, h: Hypergraph) -> None:
        row_space, reps = pauli_reps(h)
        assert reps == gray_pauli_sign_cosets(h, row_space)

    @pytest.mark.parametrize(
        "name", [n for n in datasets.NAMES if n not in ("HA", "HC")]  # d = 30, 26
    )
    def test_bundled(self, entries, name):
        h = entries[name].hypergraph
        assert len(valid_gram_space(h).nonmagic_basis) <= 20
        self.assert_order(h)

    def test_hb_descendants_relabelled(self):
        rng = random.Random(89)
        for child in hb_descendants(max_dim=12):
            for _ in range(2):
                self.assert_order(relabelled(child, rng))

    @given(st.sampled_from(["HD", "MS3-27b"]), st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_random_magic_descendants(self, name, seed):
        self.assert_order(magic_descendant(name, random.Random(seed)))

    @given(st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_random_deltas(self, seed):
        """Delta lists built with repeats and combinations of earlier ones, so
        most have dependencies."""
        rng = random.Random(seed)
        width = rng.randint(1, 12)
        deltas = []
        for _ in range(rng.randint(0, 10)):
            delta = 0
            if deltas and rng.random() < 0.5:
                for earlier in rng.sample(deltas, rng.randint(1, len(deltas))):
                    delta ^= earlier
            else:
                delta = rng.getrandbits(width)
            deltas.append(delta)
        r0 = rng.getrandbits(width)
        assert binary_span(r0, bound._gray_generators(deltas)) == gray_sign_cosets(r0, deltas)


class TestToleratedError:
    @pytest.mark.parametrize(
        "b,q,expect,dec",
        [
            (15, 21, "0.29", 2),  # 6/21 = 0.2857...
            (17, 27, "0.37", 2),
            (4, 6, "0.33", 2),
            (5, 5, "0.0", 1),
        ],
    )
    def test_values(self, b, q, expect, dec):
        assert format_epsilon(tolerated_error(b, q), dec) == expect

    def test_exact_fraction(self):
        assert tolerated_error(15, 21) == Fraction(6, 21)
        assert tolerated_error(19, 33) == Fraction(14, 33)

    def test_bound_above_quantum_value_rejected(self):
        with pytest.raises(ValueError):
            tolerated_error(7, 6)

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            tolerated_error(0, 0)


def test_report_serialization(square):
    rep = noncontextual_bound(square.hypergraph, square.assignment.context_signs)
    doc = rep.to_json_dict()
    assert {"b", "Q", "w_min", "s", "epsilon", "witness", "method"} <= doc.keys()
    assert doc["b"] == 4 and doc["method"] == "coset"
    assert doc["epsilon_exact"] == "1/3"


def write_golden(names: list[str]) -> None:
    """Recompute both routes for each named structure; keep every other entry."""
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in names:
        h = datasets.load(name).hypergraph
        golden[name] = {
            route: hypergraph_bound(h, pauli_only=route == "pauli_only").to_json_dict()
            for route in ("all_assignments", "pauli_only")
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(datasets.NAMES))
    if not sys.argv[1:] or unknown:
        sys.exit(f"usage: {sys.argv[0]} NAME...  (bundled names: {', '.join(datasets.NAMES)})")
    write_golden(sys.argv[1:])
    print(f"wrote {', '.join(sys.argv[1:])} to {GOLDEN_PATH}", file=sys.stderr)
