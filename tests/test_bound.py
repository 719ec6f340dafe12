from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from magicsets import bound, datasets
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
    _echelon,
    _reduce_by,
    coset_min_weight,
    null_space_basis,
)
from magicsets.gram import (
    NoMagicGramError,
    _gray_enumerate,
    _rank_rows,
    is_reduced,
    magic_parity,
    valid_gram_space,
)
from magicsets.hypergraph import Hypergraph, incidence_matrix, parse_edge_list
from magicsets.orbits import ms327_hypergraph
from magicsets.reduce import reduce_with

from conftest import random_proper_eulerian

#: hypergraph_bound(...).to_json_dict() per bundled structure and route,
#: written by the implementation that synthesized one assignment per magic
#: Gram matrix.  HB is absent (2^14 syntheses took minutes there).  The
#: all-assignments route is absent where its per-coset search takes 9 s or
#: more: HA, HC, MS3-29 and MS6-35.
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "hypergraph_bound_golden.json"


def signs(entry):
    return entry.assignment.context_signs


def sweep_bound_oracle(h: Hypergraph) -> HypergraphBoundReport:
    """Pauli-only hypergraph bound from one synthesis per magic Gram matrix.

    The 2^d sweep that the d+1-synthesis route replaced, kept as its test
    oracle: every matrix gets its own assignment and every sign coset its
    own coset_min_weight search.
    """
    n = h.num_edges
    M = incidence_matrix(h)
    ech = _echelon(M.rows)
    space = valid_gram_space(h)
    reps: dict[int, None] = {}
    basis_rows = [list(b.rows) for b in space.nonmagic_basis]
    for _, rows in _gray_enumerate(list(space.magic_offset.rows), basis_rows):
        g = BitMatrix(h.vertex_count, tuple(rows))
        a = assignment_from_gram(h, g, _rank_rows(list(rows)) // 2)
        reps.setdefault(_reduce_by(a.context_signs.bits, ech))
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


def relabelled(h: Hypergraph, rng: random.Random) -> Hypergraph:
    """h under a random vertex permutation, with its contexts shuffled."""
    perm = list(range(1, h.vertex_count + 1))
    rng.shuffle(perm)
    edges = [[perm[v - 1] for v in e] for e in h.edges]
    rng.shuffle(edges)
    return Hypergraph.from_edges(edges, h.vertex_count)


def seeded_magic_grams(h: Hypergraph, rng: random.Random, count: int) -> list[BitMatrix]:
    """Up to ``count`` distinct magic Gram matrices: offset + random combinations."""
    space = valid_gram_space(h)
    grams = []
    for _ in range(count):
        x = rng.getrandbits(len(space.nonmagic_basis))
        g = space.magic_offset
        for l, b in enumerate(space.nonmagic_basis):
            if (x >> l) & 1:
                g = g ^ b
        if g not in grams:
            grams.append(g)
    return grams


def hb_descendants(max_dim: int) -> list[Hypergraph]:
    """Children of HB from seeded non-reduced magic Gram matrices, the first
    drawn for each magic-space dimension from 1 to max_dim."""
    hb = datasets.load("HB").hypergraph
    children: dict[int, Hypergraph] = {}
    for g in seeded_magic_grams(hb, random.Random(2022), 40):
        if is_reduced(g):
            continue
        child = reduce_with(hb, g).output
        d = len(valid_gram_space(child).nonmagic_basis)
        if 1 <= d <= max_dim:
            children.setdefault(d, child)
    return [children[d] for d in sorted(children)]


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

    def test_even_weight_flagged(self, square):
        h = square.hypergraph
        rep = noncontextual_bound(h, BitVector.from_bits([1, 1, 0, 0, 0, 0]))
        assert not rep.magic_signs

    def test_sign_length_checked(self, square):
        with pytest.raises(ValueError):
            noncontextual_bound(square.hypergraph, BitVector.zero(5))

    def test_capped_coset_flags_inexact(self, entries):
        e = entries["MS6-35"]
        rep = noncontextual_bound(e.hypergraph, signs(e), coset_cap=5)
        assert not rep.exact
        assert rep.b <= 36 - 2  # a genuine upper bound on w_min gives a lower b


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
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return assignment_from_gram(*args, **kwargs)

        monkeypatch.setattr(bound, "assignment_from_gram", counted)
        rep = hypergraph_bound(entries["MS3-27b"].hypergraph, pauli_only=True)
        assert len(calls) == 7  # d+1 syntheses for d = 6
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
        """<c, y> is G's inversion parity over y's contexts for every y in ker M."""
        rng = random.Random(67)
        for name, e in entries.items():
            if name == "HB":
                continue
            h = e.hypergraph
            cycles = null_space_basis(incidence_matrix(h))
            for g in seeded_magic_grams(h, rng, 3):
                c = assignment_from_gram(h, g, _rank_rows(list(g.rows)) // 2).context_signs
                for y in cycles:
                    sub = Hypergraph(h.vertex_count, tuple(ed for j, ed in enumerate(h.edges) if y[j]))
                    assert (c.bits & y.bits).bit_count() % 2 == magic_parity(sub, g), (name, y)

    def test_no_magic_rejected(self):
        with pytest.raises(NoMagicGramError):
            hypergraph_bound(parse_edge_list("[[1,2],[2,3],[3,4],[4,1]]"))
        with pytest.raises(NoMagicGramError):
            hypergraph_bound(parse_edge_list("[[1,2],[2,3],[3,4],[4,1]]"), pauli_only=False)


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
