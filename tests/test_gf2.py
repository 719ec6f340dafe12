from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicsets import datasets, gram
from magicsets.assign import _solution_space
from magicsets.gf2 import (
    BitMatrix,
    BitVector,
    CosetTooLargeError,
    Echelon,
    SyndromeTable,
    coset_min_weight,
    in_row_space,
    null_space_basis,
    rank,
    row_combination,
    solve_affine,
    _TABLE_CODIM,
    _ascending_span,
    _block_low,
    _block_ranks,
    _independent,
    _kernel_vectors,
    _min_weight_dfs,
    _null_vectors,
    _row_combinations,
    _span_blocks,
)
from magicsets.gram import _reducible_by_scan, _reducible_by_solves

from conftest import (
    bfs_syndrome_weights,
    independent_contexts,
    rref_kernel,
    row_form_solutions,
    valid_gram_system,
)
from conftest import solve_affine as row_form_solve_affine


def _echelon(rows):
    """Reduced echelon basis of the span as (pivot_col, row) pairs.

    The elimination the Echelon kernel replaced, kept as its oracle: pivots
    are the lowest set bits, and every insert back-reduces and re-sorts
    the whole basis.
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


def _reduce_by(row, basis):
    for pivot, b in basis:
        if (row >> pivot) & 1:
            row ^= b
    return row


def null_space_oracle(rows, cols):
    basis = _echelon(rows)
    pivots = {p for p, _ in basis}
    out = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = 1 << free
        for p, b in basis:
            if (b >> free) & 1:
                vec |= 1 << p
        out.append(vec)
    return out


def solve_affine_oracle(equations, rhs, num_vars):
    aug = _echelon(eq | ((b & 1) << num_vars) for eq, b in zip(equations, rhs))
    x = 0
    for pivot, row in aug:
        if pivot == num_vars:
            return None
        if (row >> num_vars) & 1:
            x |= 1 << pivot
    return x


def row_combination_oracle(vectors, target):
    """Elimination with a tracked combination per basis row."""
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


@st.composite
def constraint_lists(draw):
    """(constraints, dim): pairing constraints (v, c) over 2k-vectors, with
    zero vectors and XOR combinations of earlier vectors mixed in; a
    combination's c is drawn too, so some lists are inconsistent."""
    dim = 2 * draw(st.integers(1, 4))
    constraints: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(0, dim + 2))):
        kind = draw(st.sampled_from(["fresh", "fresh", "combination", "zero"]))
        if kind == "combination" and constraints:
            v = 0
            for w, _ in draw(st.lists(st.sampled_from(constraints), min_size=1, max_size=3)):
                v ^= w
        elif kind == "zero":
            v = 0
        else:
            v = draw(st.integers(0, (1 << dim) - 1))
        constraints.append((v, draw(st.integers(0, 1))))
    return constraints, dim


def solution_space_oracle(constraints, dim):
    """assign's former hand-written echelon over the swapped functionals."""
    k = dim // 2
    mask = (1 << k) - 1

    def swap(v: int) -> int:
        return ((v & mask) << k) | (v >> k)

    rows = []
    for v, c in constraints:
        rows.append((swap(v) << 1) | (c & 1))
    basis: list[tuple[int, int]] = []  # (pivot bit index in shifted rep, row)
    for row in rows:
        for p, b in basis:
            if (row >> p) & 1:
                row ^= b
        if row >> 1:
            p = (row >> 1 & -(row >> 1)).bit_length()  # lowest func bit, +1 offset
            basis = [(q, (b ^ row if (b >> p) & 1 else b)) for q, b in basis]
            basis.append((p, row))
            basis.sort()
        elif row & 1:
            return None
    x = 0
    pivots = set()
    for p, b in basis:
        pivots.add(p - 1)
        if b & 1:
            x |= 1 << (p - 1)
    kernel = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = 1 << free
        for p, b in basis:
            if (b >> (free + 1)) & 1:
                vec |= 1 << (p - 1)
        kernel.append(vec)
    return x, kernel


@st.composite
def row_systems(draw, max_width=24, max_rows=12):
    """(width, rows): random rows with XOR combinations of earlier rows,
    and repeats or zeros, mixed in."""
    width = draw(st.integers(1, max_width))
    rows: list[int] = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["fresh", "fresh", "combination", "zero"]))
        if kind == "combination" and rows:
            picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
            row = 0
            for r in picks:
                row ^= r
        elif kind == "zero":
            row = 0
        else:
            row = draw(st.integers(0, (1 << width) - 1))
        rows.append(row)
    return width, rows


def bm(rows):
    return BitMatrix.from_rows(rows)


def bv(*coords):
    return BitVector.from_bits(coords)


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(3)) == 3

    def test_zero(self):
        assert rank(BitMatrix.zero(4, 4)) == 0

    def test_equal_rows(self):
        assert rank(bm([[1, 1], [1, 1]])) == 1

    def test_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = [[rng.randint(0, 1) for _ in range(6)] for _ in range(5)]
            r = rank(bm(rows))
            rng.shuffle(rows)
            perm = list(range(6))
            rng.shuffle(perm)
            shuffled = [[row[j] for j in perm] for row in rows]
            assert rank(bm(shuffled)) == r


class TestNullSpace:
    def test_identity_trivial_kernel(self):
        assert null_space_basis(BitMatrix.identity(3)) == []

    def test_parity_kernel(self):
        basis = null_space_basis(bm([[1, 1]]))
        assert [v.to_tuple() for v in basis] == [(1, 1)]

    def test_full_kernel(self):
        basis = null_space_basis(BitMatrix.zero(2, 3))
        assert len(basis) == 3
        assert rank(BitMatrix(3, tuple(v.bits for v in basis))) == 3

    @given(st.lists(st.lists(st.integers(0, 1), min_size=6, max_size=6), min_size=1, max_size=8))
    def test_kernel_vectors_annihilate(self, rows):
        m = bm(rows)
        basis = null_space_basis(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert m.mul_vector(v).bits == 0
        assert rank(BitMatrix(m.cols, tuple(v.bits for v in basis))) == len(basis)


class TestRowSpace:
    def test_rows_are_members(self):
        m = bm([[1, 0, 1], [0, 1, 1]])
        for i in range(2):
            assert in_row_space(m, m.row(i))

    def test_zero_is_member(self):
        assert in_row_space(bm([[1, 0], [0, 1]]), BitVector.zero(2))

    def test_independent_vector(self):
        assert not in_row_space(bm([[0, 1]]), bv(1, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            in_row_space(bm([[0, 1]]), bv(1, 0, 0))

    def test_row_combination_reconstructs(self):
        rng = random.Random(3)
        for _ in range(100):
            vecs = [rng.getrandbits(10) for _ in range(6)]
            picks = rng.getrandbits(6)
            target = 0
            for i in range(6):
                if (picks >> i) & 1:
                    target ^= vecs[i]
            combo = row_combination(vecs, target)
            assert combo is not None
            acc = 0
            for i in range(6):
                if (combo >> i) & 1:
                    acc ^= vecs[i]
            assert acc == target

    def test_row_combination_outside_span(self):
        assert row_combination([0b01], 0b10) is None


class TestSolveAffine:
    def test_simple_system(self):
        # x0 + x1 = 1, x1 = 1
        x = solve_affine([0b11, 0b10], [1, 1], 2)
        assert x is not None
        assert ((x.bits & 0b11).bit_count() & 1, (x.bits >> 1) & 1) == (1, 1)

    def test_inconsistent(self):
        assert solve_affine([0b1, 0b1], [0, 1], 1) is None

    def test_equation_wider_than_num_vars_rejected(self):
        # Bit 2 would otherwise be read as the rhs column of a 2-variable system.
        with pytest.raises(ValueError):
            solve_affine([0b100], [0], 2)
        with pytest.raises(ValueError):
            solve_affine([-1], [0], 2)


def min_weight_numpy(basis_rows: list[int], offset: int, length: int) -> tuple[int, int]:
    """Enumerate the full coset with numpy popcounts (length <= 64 only).

    The enumeration ``coset_min_weight`` ran up to span dimension 22
    before the syndrome table replaced it, kept as an oracle.
    """
    elems = next(_span_blocks([offset], [[b] for b in basis_rows], len(basis_rows))).ravel()
    weights = np.bitwise_count(elems)
    w = int(weights.min())
    candidates = elems[weights == w]
    best = min((int(c) for c in candidates), key=lambda c: tuple((c >> i) & 1 for i in range(length)))
    return w, best


def naive_coset_min(basis_bits: list[int], offset: int, length: int) -> tuple[int, int]:
    """Independent re-enumeration of the whole coset, kept deliberately dumb."""
    best = None
    for mask in range(1 << len(basis_bits)):
        v = offset
        for i, b in enumerate(basis_bits):
            if (mask >> i) & 1:
                v ^= b
        key = (v.bit_count(), tuple((v >> i) & 1 for i in range(length)))
        if best is None or key < best[0]:
            best = (key, v)
    return best[0][0], best[1]


class TestCosetMinWeight:
    def test_zero_offset(self):
        w, witness = coset_min_weight([bv(1, 0, 1)], BitVector.zero(3))
        assert w == 0 and witness.bits == 0

    def test_singleton_coset(self):
        w, witness = coset_min_weight([], bv(1, 1, 1, 1, 1))
        assert w == 5 and witness.weight() == 5

    def test_square_incidence_row_space(self, square):
        from magicsets.hypergraph import incidence_matrix
        
        h = square.hypergraph
        M = incidence_matrix(h)
        rows = [BitVector(h.num_edges, r) for r in M.rows]
        c = square.assignment.context_signs
        w, witness = coset_min_weight(rows, c)
        assert w == 1  # b = |E| - 2*w_min = 6 - 2 = 4
        assert witness.weight() == 1

    def test_brute_force_equivalence(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(4, 16)
            dim = rng.randint(0, min(10, n))
            basis = [rng.getrandbits(n) | 1 for _ in range(dim)]
            offset = rng.getrandbits(n)
            expect_w, expect_v = naive_coset_min(basis, offset, n)
            w, witness = coset_min_weight([BitVector(n, b) for b in basis], BitVector(n, offset))
            assert w == expect_w
            # The implementation promises the lex-least witness over the
            # true coset; the naive scan enumerates generator combinations,
            # which may revisit elements, so compare weights and membership.
            acc = witness.bits ^ offset
            assert row_combination(basis, acc) is not None
            assert witness.weight() == w

    def test_witness_is_lex_least(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(4, 12)
            dim = rng.randint(1, 6)
            basis = [rng.getrandbits(n) for _ in range(dim)]
            offset = rng.getrandbits(n)
            w, witness = coset_min_weight([BitVector(n, b) for b in basis], BitVector(n, offset))
            seen = set()
            for mask in range(1 << dim):
                v = offset
                for i, b in enumerate(basis):
                    if (mask >> i) & 1:
                        v ^= b
                seen.add(v)
            best = min(seen, key=lambda v: (v.bit_count(), tuple((v >> i) & 1 for i in range(n))))
            assert (w, witness.bits) == (best.bit_count(), best)

    def test_basis_change_invariance(self):
        rng = random.Random(19)
        n, dim = 20, 8
        basis = [rng.getrandbits(n) for _ in range(dim)]
        offset = BitVector(n, rng.getrandbits(n))
        reference = coset_min_weight([BitVector(n, b) for b in basis], offset)
        for _ in range(20):
            mixed = list(basis)
            for _ in range(15):
                i, j = rng.randrange(dim), rng.randrange(dim)
                if i != j:
                    mixed[i] ^= mixed[j]
            rng.shuffle(mixed)
            assert coset_min_weight([BitVector(n, b) for b in mixed], offset) == reference

    def test_offset_shift_invariance(self):
        rng = random.Random(23)
        n, dim = 18, 7
        basis = [rng.getrandbits(n) for _ in range(dim)]
        offset = rng.getrandbits(n)
        reference = coset_min_weight([BitVector(n, b) for b in basis], BitVector(n, offset))
        for _ in range(20):
            shift = 0
            for b in basis:
                if rng.random() < 0.5:
                    shift ^= b
            shifted = coset_min_weight(
                [BitVector(n, b) for b in basis], BitVector(n, offset ^ shift)
            )
            assert shifted == reference

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_weight_parity(self, data):
        n = data.draw(st.integers(4, 14))
        dim = data.draw(st.integers(0, 6))
        # Even-weight basis vectors, odd-weight offset -> odd minimum.
        basis = []
        for _ in range(dim):
            v = data.draw(st.integers(0, (1 << n) - 1))
            if v.bit_count() % 2:
                v ^= v & -v  # clear the lowest set bit: even weight
            basis.append(v)
        offset = data.draw(st.integers(0, (1 << n) - 1))
        if offset.bit_count() % 2 == 0:
            offset ^= 1
        w, _ = coset_min_weight([BitVector(n, b) for b in basis], BitVector(n, offset))
        assert w % 2 == 1

    def test_in_span_offset_past_cap_is_exact(self):
        n = 40
        basis = [BitVector(n, 0b11 << i) for i in range(0, 35)]
        offset = BitVector(n, (0b11 << 3) ^ (0b11 << 20))
        assert coset_min_weight(basis, offset, cap=30) == (0, BitVector.zero(n))

    def test_dfs_matches_numpy(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(6, 24)
            dim = rng.randint(1, 10)
            basis = Echelon(rng.getrandbits(n) for _ in range(dim)).rref()
            if not basis:
                continue
            offset = rng.getrandbits(n)
            assert _min_weight_dfs(basis, offset, n) == min_weight_numpy(
                [b for _, b in basis], offset, n
            )

    def test_cap_exceeded(self):
        # Codimension 35 is past the syndrome table, so the capped search runs.
        n = 70
        basis = [BitVector(n, 0b11 << i) for i in range(0, 35)]
        offset = BitVector(n, (1 << n) - 1)
        with pytest.raises(CosetTooLargeError) as err:
            coset_min_weight(basis, offset, cap=30)
        assert err.value.dim == 35
        assert err.value.best_weight <= n
        assert err.value.best_witness.length == n

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            coset_min_weight([bv(1, 0)], bv(1, 0, 0))

    def test_table_route_exact_past_cap(self):
        # Rank 40 is past cap 30, but codimension 5 puts it in the table.
        n = 45
        basis = [BitVector(n, 0b11 << i) for i in range(0, 40)]
        offset = BitVector(n, 1)
        assert n - 40 <= _TABLE_CODIM
        w, witness = coset_min_weight(basis, offset, cap=30)
        # The coset of e_0 holds every e_j with j <= 40; e_40 is lex-least.
        assert (w, witness.bits) == (1, 1 << 40)


class TestSyndromeTableGuard:
    def test_codimension_over_table_cap_refused(self):
        # Length 97, rank 48: a table of 2^49 syndromes would need petabytes.
        n = 97
        ech = Echelon((1 << i) | (1 << (i + 1)) for i in range(0, n - 1, 2))
        assert n - ech.rank == 49
        with pytest.raises(ValueError, match="_TABLE_CODIM"):
            SyndromeTable(ech, n)

    def test_codimension_just_over_cap_refused(self):
        with pytest.raises(ValueError, match="_TABLE_CODIM"):
            SyndromeTable(Echelon(), _TABLE_CODIM + 1)


class TestSyndromeTableAgainstOracles:
    """The suffix-DP table against the BFS it replaced and the two searches."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_row_spaces(self, seed):
        rng = random.Random(8000 + seed)
        for _ in range(6):
            n = rng.randint(1, 100)
            codim = rng.randint(0, min(16, n))
            ech = Echelon()
            while ech.rank < n - codim:
                # Sparse rows as well as dense ones, so leaders vary in weight.
                ech.insert(rng.getrandbits(n) & rng.getrandbits(n) if rng.random() < 0.5 else rng.getrandbits(n))
            table = SyndromeTable(ech, n)
            assert len(table.free) == codim
            assert table.weights.tolist() == bfs_syndrome_weights(ech, n).tolist()
            basis = ech.rref()
            sample = [rng.randrange(1 << codim) for _ in range(8)]
            for k, s in enumerate(sample):
                leader = table.leader(s)
                assert table.syndrome(leader) == s
                assert leader.bit_count() == table.weights[s]
                if k >= 2:  # the branch-and-bound search is slow at high rank
                    continue
                x = rng.getrandbits(n)
                offset = table.lift(s) ^ x ^ ech.reduce(x)  # lift(s) + a row-space element
                assert _min_weight_dfs(basis, ech.reduce(offset), n) == (table.weights[s], leader)
                if n <= 64 and ech.rank <= 20:
                    assert min_weight_numpy([b for _, b in basis], offset, n) == (table.weights[s], leader)

    def test_paths_across_byte_slices(self):
        # Rows e_i + e_(i+1) link coordinates into paths cut after the
        # listed coordinates; a syndrome bit per path, whose lex-least unit
        # is the path's last coordinate.
        n, cuts = 97, (10, 30, 50, 70, 90)
        ech = Echelon((1 << i) | (1 << (i + 1)) for i in range(n - 1) if i not in cuts)
        table = SyndromeTable(ech, n)
        lasts = [*cuts, n - 1]
        units = [table.syndrome(1 << j) for j in lasts]
        assert sorted(units) == [1 << k for k in range(len(lasts))]
        assert table.weights.tolist() == [s.bit_count() for s in range(1 << len(lasts))]
        assert table.weights.tolist() == bfs_syndrome_weights(ech, n).tolist()
        for s in range(1 << len(lasts)):
            want = sum(1 << j for j, u in zip(lasts, units) if s & u)
            assert table.leader(s) == want


class TestEchelonAgainstOracles:
    """The Echelon kernel and its users against the eliminations they replaced."""

    @given(row_systems())
    def test_rref_and_rank(self, system):
        width, rows = system
        ech = Echelon()
        grew = [ech.insert(row) for row in rows]
        assert ech.rref() == _echelon(rows)
        assert grew == [len(_echelon(rows[: i + 1])) > len(_echelon(rows[:i])) for i in range(len(rows))]
        assert ech.rank == rank(BitMatrix(width, tuple(rows))) == len(_echelon(rows))

    @given(row_systems())
    def test_independent_flags_independent_rows(self, system):
        _, rows = system
        grew = list(_independent(rows))
        assert grew == [len(_echelon(rows[: i + 1])) > len(_echelon(rows[:i])) for i in range(len(rows))]

    @given(row_systems(), st.data())
    def test_kernel_vectors_match_rref_read_off(self, system, data):
        """Back-substitution over the stored rows gives the kernel the
        reduced echelon form gives, whole and for any free columns."""
        width, rows = system
        ech = Echelon(rows)
        want = rref_kernel(ech, width)
        assert _null_vectors(ech, width) == want
        free = [f for f in range(width) if f not in ech.pivots]
        picked = data.draw(st.lists(st.sampled_from(free), max_size=4)) if free else []
        assert _kernel_vectors(ech, picked) == [want[free.index(f)] for f in picked]

    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_vectors_on_wide_echelons(self, seed):
        # Sparse rows over up to 300 columns, inserted in random order, so
        # stored rows keep many bits on later pivots.
        rng = random.Random(seed)
        for _ in range(20):
            width = rng.randint(1, 300)
            ech = Echelon(rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randint(0, width)))
            want = rref_kernel(ech, width)
            assert _null_vectors(ech, width) == want
            for x in want:
                assert not any((row & x).bit_count() & 1 for row in ech.pivots.values())

    @given(row_systems(), st.data())
    def test_min_weight_search_on_stored_rows(self, system, data):
        """The search gives the same weight and witness on the stored,
        semi-reduced rows as on the reduced echelon form."""
        width, rows = system
        ech = Echelon(rows)
        offset = ech.reduce(data.draw(st.integers(0, (1 << width) - 1)))
        want = _min_weight_dfs(ech.rref(), offset, width)
        assert _min_weight_dfs(sorted(ech.pivots.items()), offset, width) == want

    @given(row_systems(), st.data())
    def test_coset_reduction(self, system, data):
        width, rows = system
        target = data.draw(st.integers(0, (1 << width) - 1))
        reduced = Echelon(rows).reduce(target)
        assert reduced == _reduce_by(target, _echelon(rows))
        assert in_row_space(BitMatrix(width, tuple(rows)), BitVector(width, target)) == (reduced == 0)

    @given(row_systems())
    def test_null_space_basis(self, system):
        width, rows = system
        kernel = null_space_basis(BitMatrix(width, tuple(rows)))
        assert [v.bits for v in kernel] == null_space_oracle(rows, width)

    @given(row_systems(), st.data())
    def test_solve_affine(self, system, data):
        width, rows = system
        rhs = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
        want = solve_affine_oracle(rows, rhs, width)
        for solve in (solve_affine, row_form_solve_affine):
            x = solve(rows, rhs, width)
            assert (None if x is None else x.bits) == want

    @given(row_systems(), st.data())
    def test_row_combination(self, system, data):
        width, rows = system
        if data.draw(st.booleans()) or not rows:
            target = data.draw(st.integers(0, (1 << width) - 1))
        else:
            target = 0
            for r in data.draw(st.lists(st.sampled_from(rows), max_size=5)):
                target ^= r
        assert row_combination(rows, target) == row_combination_oracle(rows, target)

    @given(row_systems(), st.data())
    def test_row_combinations_share_one_echelon(self, system, data):
        # Targets in and out of the span, of every width up to the rows'.
        width, rows = system
        targets = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=6))
        targets += [rows[i] ^ rows[-1] for i in range(len(rows))]
        assert _row_combinations(rows, targets) == [row_combination_oracle(rows, t) for t in targets]

    @given(constraint_lists())
    @settings(max_examples=300)
    def test_solution_space(self, system):
        """The column read-off against assign's former echelon and against
        the row-form eliminations ``solve_affine`` and ``null_space_basis``,
        None exactly when the constraints are inconsistent."""
        constraints, dim = system
        want = solution_space_oracle(constraints, dim)
        assert _solution_space(constraints, dim) == want
        k = dim // 2
        functionals = [((v & ((1 << k) - 1)) << k) | (v >> k) for v, _ in constraints]
        assert row_form_solutions(functionals, [c for _, c in constraints], dim) == want


@pytest.mark.parametrize("name", datasets.NAMES)
def test_valid_gram_system_rref_matches_oracle(name, monkeypatch):
    """Byte-identical RREF and kernel on every bundled valid-Gram system:
    the equations ``gram.Echelon`` receives, those of the independent
    contexts only, in the column-descending order ``valid_gram_space``
    documents, the echelon ``gram._null_vectors`` reads on the first read
    of ``nonmagic_basis`` and the kernel it returns, against the
    eliminations of the whole system they replaced."""
    received = []
    solves = []

    class Recording(Echelon):
        def insert(self, row):
            received.append(row)
            return super().insert(row)

    def capture(ech, cols):
        solves.append((ech, cols))
        return _null_vectors(ech, cols)

    monkeypatch.setattr(gram, "Echelon", Recording)
    monkeypatch.setattr(gram, "_null_vectors", capture)
    h = datasets.load(name).hypergraph
    space = gram.valid_gram_space(h)
    assert not solves
    space.nonmagic_basis
    ((ech, cols),) = solves
    system = valid_gram_system(h)
    assert tuple(received) == valid_gram_system(h, independent_contexts(h)).rows
    assert cols == system.cols
    assert ech.rref() == _echelon(system.rows)
    assert _null_vectors(ech, cols) == null_space_oracle(system.rows, system.cols)


class TestBlockLow:
    @pytest.mark.parametrize("words", [1, 9, 64, 65, 142, 4096, 1 << 20, (1 << 20) + 1, 1 << 24])
    def test_largest_block_within_limits(self, words):
        # At most 2^14 matrices and 2^20 words, and at least one matrix.
        low = _block_low(words)
        assert 0 <= low <= 14
        assert low == 0 or words << low <= 1 << 20
        assert low == 14 or words << (low + 1) > 1 << 20


class TestSpanBlocks:
    @pytest.mark.parametrize("low", [0, 1, 3, 5])
    def test_binary_order(self, low):
        rng = random.Random(31)
        width = 3
        offset = [rng.getrandbits(64) for _ in range(width)]
        basis = [[rng.getrandbits(64) for _ in range(width)] for _ in range(5)]
        blocks = list(_span_blocks(offset, basis, low))
        assert [b.shape for b in blocks] == [(1 << min(low, 5), width)] * (1 << (5 - min(low, 5)))
        got = [tuple(int(x) for x in row) for b in blocks for row in b]
        want = []
        for i in range(1 << 5):
            v = list(offset)
            for l in range(5):
                if (i >> l) & 1:
                    v = [a ^ b for a, b in zip(v, basis[l])]
            want.append(tuple(v))
        assert got == want

    def test_empty_basis(self):
        (block,) = _span_blocks([7], [], 4)
        assert block.tolist() == [[7]]

    @pytest.mark.parametrize("d", [16, 17, 18])
    def test_reducibility_scan_matches_defect_solves(self, entries, d):
        """HA's magic space truncated to d dimensions: the block scan and the
        affine defect solves must agree."""
        space = gram.valid_gram_space(entries["HA"].hypergraph)
        offset, nonmagic = space.magic_offset, space.nonmagic_basis[:d]
        scan = _reducible_by_scan(offset, nonmagic)
        solves = _reducible_by_solves(offset, nonmagic)
        assert scan == solves

    @pytest.mark.parametrize("name", [n for n in datasets.NAMES if n not in ("HA", "HC")])
    def test_reducibility_routes_agree_on_bundled(self, entries, name):
        """Full magic spaces (d <= 14; HA and HC have d = 30 and 26); the
        minimal structures answer False."""
        space = gram.valid_gram_space(entries[name].hypergraph)
        offset, nonmagic = space.magic_offset, space.nonmagic_basis
        scan = _reducible_by_scan(offset, nonmagic)
        assert scan == _reducible_by_solves(offset, nonmagic)
        assert scan == (not gram.is_minimal(entries[name].hypergraph))


def _as_words(rows, width):
    return [[(r >> (64 * j)) & ((1 << 64) - 1) for j in range(width)] for r in rows]


class TestBlockRanksAgainstRankRows:
    """The block rank kernel against the per-matrix Python rank."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_blocks(self, width, seed):
        rng = random.Random(100 * width + seed)
        for _ in range(5):
            count, nrows = rng.randint(1, 40), rng.randint(1, 12)
            bits = 64 * width - rng.choice([0, 0, rng.randrange(64 * width)])
            mats = []
            for _ in range(count):
                rows = [rng.getrandbits(bits) & (rng.getrandbits(bits) if rng.random() < 0.5 else -1)
                        for _ in range(nrows)]
                if nrows > 2 and rng.random() < 0.5:
                    rows[-1] = rows[0] ^ rows[1]  # a dependent row
                mats.append(rows)
            block = np.array([_as_words(rows, width) for rows in mats], dtype=np.uint64)
            want = [Echelon(rows).rank for rows in mats]
            ranks, index = _block_ranks(block)
            assert ranks.tolist() == want and index.tolist() == list(range(count))
            bound = rng.randint(0, nrows)
            ranks, index = _block_ranks(block, bound)
            keep = [i for i, r in enumerate(want) if r <= bound]
            assert index.tolist() == keep and ranks.tolist() == [want[i] for i in keep]

    def test_full_64_bit_rows(self):
        # Bit 63 and the word boundary: rows e_63, e_64, e_63 + e_64.
        rows = [1 << 63, 1 << 64, (1 << 63) | (1 << 64), (1 << 64) - 1]
        block = np.array([_as_words(rows, 2)], dtype=np.uint64)
        assert _block_ranks(block)[0].tolist() == [Echelon(rows).rank] == [3]

    def test_all_zero_block(self):
        ranks, index = _block_ranks(np.zeros((5, 4, 2), dtype=np.uint64), 0)
        assert ranks.tolist() == [0] * 5 and index.tolist() == list(range(5))

    def test_bound_below_every_rank(self):
        block = np.array([_as_words([1, 2, 4], 1), _as_words([3, 1, 0], 1)], dtype=np.uint64)
        ranks, index = _block_ranks(block, 1)
        assert ranks.size == 0 and index.size == 0


class TestAscendingSpan:
    @given(st.integers(0, 2**12 - 1), st.lists(st.integers(0, 2**12 - 1), max_size=6))
    def test_sorted_span(self, offset, basis):
        want = {offset}
        for b in basis:
            want |= {v ^ b for v in want}
        assert list(_ascending_span(offset, basis)) == sorted(want)
