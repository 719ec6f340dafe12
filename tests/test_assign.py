from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicsets import assign, datasets
from magicsets.assign import (
    RankObstructionError,
    _solution_space,
    assignment_from_gram,
    enumerate_assignments,
)
from magicsets.gf2 import BitMatrix, Echelon, rank
from magicsets.gram import min_qubits, valid_gram_space
from magicsets.hypergraph import Hypergraph, parse_edge_list
from magicsets.pauli import decode, encode, gram_matrix_of, verify_assignment


def magic_gram(entry):
    return valid_gram_space(entry.hypergraph).magic_offset


class TestSynthesis:
    def test_square_two_qubits(self, square):
        g = magic_gram(square)
        a = assignment_from_gram(square.hypergraph, g, 2)
        report = verify_assignment(square.hypergraph, a)
        assert report.valid and report.magic
        assert gram_matrix_of(a.strings) == g

    def test_published_gram_resynthesis(self, entries):
        for name, k in [("MS3-27b", 3), ("MS5-26", 5), ("MS4-21b", 4), ("MS6-35", 6)]:
            e = entries[name]
            g = gram_matrix_of(e.assignment.strings)
            a = assignment_from_gram(e.hypergraph, g, k)
            report = verify_assignment(e.hypergraph, a)
            assert report.valid and report.magic
            assert gram_matrix_of(a.strings) == g

    def test_rank_obstruction(self, square):
        with pytest.raises(RankObstructionError):
            assignment_from_gram(square.hypergraph, magic_gram(square), 1)

    def test_oversized_qubit_count_still_valid(self, square):
        # At k above rank/2 the edge sums still vanish via the linear
        # extension, so the assignment stays valid and magic.
        a = assignment_from_gram(square.hypergraph, magic_gram(square), 4)
        report = verify_assignment(square.hypergraph, a)
        assert report.valid and report.magic
        assert a.qubits == 4

    def test_nonreduced_gram_handled(self, entries):
        # Pull the small structure's assignment back along the published
        # preimage map: the parent-level Gram matrix has repeated rows.
        hd = entries["HD"].hypergraph
        child = entries["MS3-27b"]
        pull = {}
        for new, pre in child.recipe.identification:
            word = decode(child.assignment.strings[new - 1])
            for v in pre:
                pull[v] = word
        strings = [encode(pull[v]) for v in range(1, hd.vertex_count + 1)]
        g = gram_matrix_of(strings)
        assert len(set(g.rows)) < g.num_rows  # repeated rows present
        a = assignment_from_gram(hd, g, 3)
        report = verify_assignment(hd, a)
        assert report.valid and report.magic
        assert gram_matrix_of(a.strings) == g
        # Identical rows received identical operators.
        for new, pre in child.recipe.identification:
            words = {decode(a.strings[v - 1]) for v in pre}
            assert len(words) == 1

    def test_negative_context_parity_always_odd(self, entries):
        for name in ["square", "pentagram", "MS3-27b"]:
            e = entries[name]
            g = magic_gram(e)
            k = rank(g) // 2
            for a in enumerate_assignments(e.hypergraph, g, k, limit=5):
                assert a.negatives() % 2 == 1


class TestEnumeration:
    def test_limit_one_matches_single_synthesis(self, square):
        g = magic_gram(square)
        first = next(iter(enumerate_assignments(square.hypergraph, g, 2, limit=1)))
        direct = assignment_from_gram(square.hypergraph, g, 2)
        assert first.strings == direct.strings

    def test_ten_distinct(self, square):
        g = magic_gram(square)
        seen = set()
        for a in enumerate_assignments(square.hypergraph, g, 2, limit=10):
            assert gram_matrix_of(a.strings) == g
            seen.add(a.strings)
        assert len(seen) == 10

    def test_exhaustive_count_is_symplectic_group_order(self, square):
        # Rank-4 Gram matrix at k=2: choices of respecting assignments
        # correspond to symplectic frames of Z_2^4, i.e. |Sp(4,2)| = 720.
        g = magic_gram(square)
        count = sum(1 for _ in enumerate_assignments(square.hypergraph, g, 2))
        assert count == 720

    def test_stream_ends_without_error_when_exhausted(self, square):
        g = magic_gram(square)
        out = list(enumerate_assignments(square.hypergraph, g, 2, limit=100000))
        assert len(out) == 720

    def test_determinism(self, pentagram):
        g = magic_gram(pentagram)
        run1 = [a.strings for a in enumerate_assignments(pentagram.hypergraph, g, 3, limit=4)]
        run2 = [a.strings for a in enumerate_assignments(pentagram.hypergraph, g, 3, limit=4)]
        assert run1 == run2

    def test_invalid_gram_rejected(self, square):
        from magicsets.gf2 import BitMatrix

        with pytest.raises(ValueError):
            list(enumerate_assignments(square.hypergraph, BitMatrix.identity(9), 2, limit=1))


def test_min_qubit_witness_round_trip(entries):
    # Synthesize at exactly rank/2 qubits from the minimum-rank witness.
    from magicsets.gram import min_qubits

    for name in ["square", "pentagram", "MS3-27b"]:
        e = entries[name]
        res = min_qubits(e.hypergraph)
        a = assignment_from_gram(e.hypergraph, res.gram, res.qubits)
        report = verify_assignment(e.hypergraph, a)
        assert report.valid and report.magic
        assert rank(gram_matrix_of(a.strings)) == 2 * res.qubits


def sorted_candidate_descent(g, basis_idx, k):
    """The synthesis descent that ``assign._basis_assignments`` replaced,
    kept as its oracle: every candidate of a basis vertex is built and
    sorted before the first is tried."""
    dim = 2 * k
    r = len(basis_idx)

    def descend(chosen):
        t = len(chosen)
        if t == r:
            yield list(chosen)
            return
        i_t = basis_idx[t]
        sol = _solution_space([(chosen[s], g.entry(i_t, basis_idx[s])) for s in range(t)], dim)
        if sol is None:
            return
        particular, kernel = sol
        candidates = [particular]
        for kv in kernel:
            candidates = candidates + [c ^ kv for c in candidates]
        span = Echelon(chosen)
        for cand in sorted(candidates):
            if span.reduce(cand):
                yield from descend(chosen + [cand])

    yield from descend([])


class TestLazyDescentAgainstSortedCandidates:
    @pytest.mark.parametrize("name", datasets.NAMES)
    def test_same_stream(self, entries, name, monkeypatch):
        h = entries[name].hypergraph
        res = min_qubits(h)
        for k in (res.qubits, res.qubits + 1):
            got = [a.strings for a in enumerate_assignments(h, res.gram, k, limit=5)]
            with monkeypatch.context() as patch:
                patch.setattr(assign, "_basis_assignments", sorted_candidate_descent)
                want = [a.strings for a in enumerate_assignments(h, res.gram, k, limit=5)]
            assert got == want and len(got) == 5

    def test_square_at_fourteen_qubits(self, square):
        # The sorted descent built a 2^28-element candidate list here.
        g = magic_gram(square)
        start = time.perf_counter()
        a = assignment_from_gram(square.hypergraph, g, 14)
        assert time.perf_counter() - start < 1.0
        report = verify_assignment(square.hypergraph, a)
        assert report.valid and report.magic and a.qubits == 14
        assert gram_matrix_of(a.strings) == g


def solves_per_synthesis(h: Hypergraph, g: BitMatrix, k: int) -> int:
    """``assign._solution_space`` calls made by one ``assignment_from_gram``,
    whose assignment is checked to respect g."""
    calls = []

    def counted(constraints, dim):
        calls.append(None)
        return _solution_space(constraints, dim)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assign, "_solution_space", counted)
        a = assignment_from_gram(h, g, k)
    assert gram_matrix_of(a.strings) == g
    return len(calls)


def alternating_with_defects(rng: random.Random) -> BitMatrix:
    """P^T A P for a random alternating form A on ``base`` vertices, where P
    keeps the base vertices and appends zero, repeated and combination
    vertices, in shuffled vertex order: Gram matrices with zero rows, equal
    rows and rows dependent on several others."""
    base = rng.randint(2, 10)
    a = [[0] * base for _ in range(base)]
    for i in range(base):
        for j in range(i + 1, base):
            a[i][j] = a[j][i] = rng.getrandbits(1)
    combos = [1 << i for i in range(base)]  # vertex -> mask of base vertices
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(("zero", "repeat", "combination"))
        if kind == "zero":
            combos.append(0)
        elif kind == "repeat":
            combos.append(rng.choice(combos))
        else:
            combos.append(rng.getrandbits(base))
    rng.shuffle(combos)
    rows = [
        [sum(a[i][j] for i in range(base) if (p >> i) & 1 for j in range(base) if (q >> j) & 1) % 2 for q in combos]
        for p in combos
    ]
    return BitMatrix.from_rows(rows)


class TestGreedyWalkNeverBacktracks:
    """The first candidate outside the span always extends (the lemma in the
    ``assign`` docstring), so one synthesis solves once per row-basis vertex."""

    @pytest.mark.parametrize("name", datasets.NAMES)
    def test_bundled_witnesses(self, entries, name):
        h = entries[name].hypergraph
        res = min_qubits(h)
        for k in (res.qubits, res.qubits + 1):
            assert solves_per_synthesis(h, res.gram, k) == rank(res.gram)

    @given(st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_random_alternating_forms(self, seed):
        g = alternating_with_defects(random.Random(seed))
        h = Hypergraph(g.num_rows, ())  # no contexts: every alternating form is valid
        r = rank(g)
        for k in range(max(r // 2, 1), r // 2 + 3):
            assert solves_per_synthesis(h, g, k) == r
