from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicsets import bound, datasets, gram
from magicsets.gf2 import (
    BitMatrix,
    _affine_solutions,
    _block_low,
    _block_ranks,
    _null_vectors,
    _rank_rows,
    rank,
)
from magicsets.gram import (
    MinQubitsResult,
    NoMagicGramError,
    NotProperEulerianError,
    fast_magic_parity,
    is_magic_gram,
    is_minimal,
    is_reduced,
    magic_affine_space,
    magic_parity,
    min_qubits,
    _defects,
    _inversion_masks,
    _parity_via_masks,
    valid_gram_space,
    validate_gram,
)
from magicsets.hypergraph import Hypergraph, dual, parse_edge_list
from magicsets.pauli import gram_matrix_of
from magicsets.planarity import _prune_low_degree

from conftest import (
    cocontext_pairs,
    disjoint_union,
    gray_enumerate,
    hb_descendants,
    loop_defect_systems,
    magic_descendant,
    matrix_split_oracle,
    pair_variables,
    random_proper_eulerian,
    relabelled,
    rigid_blocks,
    row_form_solutions,
    seeded_magic_grams,
    transposed,
    valid_gram_system,
)


def space_elements(space, rng, count):
    """Random members of the valid Gram space."""
    out = []
    for _ in range(count):
        acc = BitMatrix.zero(space.hypergraph.vertex_count, space.hypergraph.vertex_count)
        for b in space.basis:
            if rng.random() < 0.5:
                acc = acc ^ b
        out.append(acc)
    return out


class TestValidGramSpace:
    def test_square_space_is_the_complement_matrix(self, square):
        h = square.hypergraph
        space = valid_gram_space(h)
        assert space.dim == 1
        g = space.basis[0]
        # Entries are 1 exactly on pairs sharing no row/column of the grid.
        cocontextual = set()
        for e in h.edges:
            for a in e:
                for b in e:
                    cocontextual.add((a, b))
        for i in range(1, 10):
            for j in range(1, 10):
                expect = 0 if (i, j) in cocontextual or i == j else 1
                assert g.entry(i - 1, j - 1) == expect

    def test_basis_elements_are_valid(self, entries):
        for name in ["square", "pentagram", "MS3-27b", "HD"]:
            h = entries[name].hypergraph
            space = valid_gram_space(h)
            for b in space.basis:
                assert validate_gram(h, b) == []

    def test_four_cycle_has_no_magic(self):
        h = parse_edge_list("[[1,2],[2,3],[3,4],[4,1]]")
        assert magic_affine_space(h) is None
        # Exhaustive cross-check over the whole (small) valid Gram space.
        space = valid_gram_space(h)
        assert space.dim <= 6
        for mask in range(1 << space.dim):
            acc = BitMatrix.zero(4, 4)
            for l in range(space.dim):
                if (mask >> l) & 1:
                    acc = acc ^ space.basis[l]
            assert fast_magic_parity(h, acc) == 0

    def test_not_proper_eulerian_rejected(self):
        h = Hypergraph(3, ((1, 1, 2, 2, 3, 3),))
        with pytest.raises(NotProperEulerianError):
            valid_gram_space(h)

    def test_nonmagic_basis_size(self, entries):
        for name in ["MS3-27b", "HD", "HB"]:
            space = valid_gram_space(entries[name].hypergraph)
            assert space.magic_offset is not None
            assert len(space.nonmagic_basis) == space.dim - 1

    def test_known_dimensions(self, entries):
        # The two open-search ancestors have huge first levels; their magic
        # space sizes (2^30 and 2^26) pin the valid-space dimensions.
        assert valid_gram_space(entries["HA"].hypergraph).dim == 31
        assert valid_gram_space(entries["HC"].hypergraph).dim == 27


def _no_kernel(*args):
    raise AssertionError("the kernel was built")


class TestMagicSplitAgainstOracle:
    """The split of the kernel vectors by one parity mask against
    ``conftest.matrix_split_oracle``, which builds every kernel matrix and
    scores each with ``fast_magic_parity``.  The offset and the dimension
    are checked before ``nonmagic_basis`` is first read, with the kernel
    read-off patched to fail: they come from the echelon alone."""

    @staticmethod
    def assert_same_split(h: Hypergraph) -> BitMatrix | None:
        offset, basis, dim = matrix_split_oracle(h)
        valid_gram_space.cache_clear()  # h's space may be cached with its basis read
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gram, "_null_vectors", _no_kernel)
            space = valid_gram_space(h)
            assert (space.magic_offset, space.dim) == (offset, dim)
        assert space.nonmagic_basis == basis
        return space.magic_offset

    @pytest.mark.parametrize("name", datasets.NAMES)
    def test_bundled(self, entries, name):
        self.assert_same_split(entries[name].hypergraph)

    def test_hb_descendants(self):
        for child in hb_descendants(max_dim=9):
            assert self.assert_same_split(child) is not None

    @pytest.mark.parametrize("copies", [4, 14])
    def test_hd_beside_rigid_blocks(self, entries, copies):
        h = disjoint_union(entries["HD"].hypergraph, rigid_blocks(copies))
        assert self.assert_same_split(h) is not None

    def test_hb_beside_rigid_blocks(self, entries):
        # m = 185: 14 of each block's 20 triples are sums of earlier ones.
        h = disjoint_union(entries["HB"].hypergraph, rigid_blocks(25))
        assert h.vertex_count == 185
        assert self.assert_same_split(h) is not None

    def test_planarity_duals(self):
        # Seeded graphs of the planarity workload's sizes, pruned and dualized
        # as ``is_planar_via_gram`` does.
        rng = random.Random(15)
        magic = []
        for n in range(8, 23):
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            for p in (0.15, 0.2, 0.25, 0.3):
                graph = Hypergraph.from_edges(rng.sample(pairs, round(p * len(pairs))), n)
                core, _ = _prune_low_degree(graph)
                if core.num_edges:
                    magic.append(self.assert_same_split(dual(core)) is not None)
        assert any(magic) and not all(magic)

    def test_dependent_contexts_add_no_equation(self, square, monkeypatch):
        # Nested contexts A > B > C beside the square.  A ^ B, B ^ C and
        # A ^ C are each the sum of two of them, their pairs already share
        # A, and together they keep every degree even.
        a, b, c = set(range(10, 16)), set(range(10, 14)), {10, 11}
        gadget = [a, b, c, {10, 11, 14, 15}]
        h = Hypergraph.from_edges([*square.hypergraph.edges, *gadget], 15)
        sums = [a ^ b, b ^ c, a ^ c]
        extended = Hypergraph.from_edges([*h.edges, *sums], 15)
        assert pair_variables(extended) == pair_variables(h)
        received = []

        class Recording(gram.Echelon):
            def insert(self, row):
                received.append(row)
                return super().insert(row)

        monkeypatch.setattr(gram, "Echelon", Recording)
        dim = valid_gram_space(h).dim
        inserted = len(received)
        received.clear()
        assert valid_gram_space(extended).dim == dim
        assert len(received) == inserted
        assert len(valid_gram_system(extended).rows) > inserted

    def test_no_per_matrix_parity_or_xor(self, entries, monkeypatch):
        def fail(*args):
            raise AssertionError("the split scored or added a whole matrix")

        monkeypatch.setattr(gram, "fast_magic_parity", fail)
        monkeypatch.setattr(BitMatrix, "__xor__", fail)
        for entry in entries.values():
            valid_gram_space(entry.hypergraph).nonmagic_basis

    def test_basis_built_once_then_system_released(self, entries, monkeypatch):
        calls = []

        def counting(ech, cols):
            calls.append(cols)
            return _null_vectors(ech, cols)

        monkeypatch.setattr(gram, "_null_vectors", counting)
        space = valid_gram_space(entries["HD"].hypergraph)
        assert space._system is not None and not calls
        assert space.nonmagic_basis is space.nonmagic_basis
        assert len(calls) == 1 and space._system is None

    def test_equality_reads_the_split_not_the_system(self, entries):
        h = entries["MS3-27b"].hypergraph
        space = valid_gram_space(h)
        valid_gram_space.cache_clear()
        fresh = valid_gram_space(h)
        space.nonmagic_basis  # releases space's system; fresh keeps its own
        assert fresh._system is not None
        assert space == fresh and hash(space) == hash(fresh)
        assert space != valid_gram_space(entries["HD"].hypergraph)

    def test_basis_is_derived(self, square):
        space = valid_gram_space(square.hypergraph)
        assert space.basis == (space.magic_offset, *space.nonmagic_basis)
        cycle = valid_gram_space(parse_edge_list("[[1,2],[2,3],[3,4],[4,1]]"))
        assert cycle.magic_offset is None
        assert cycle.basis == cycle.nonmagic_basis and cycle.dim == len(cycle.basis)


def pair_loop_matrix(m: int, pairs: list[tuple[int, int]], bits: int) -> BitMatrix:
    """The conversion ``gram._matrix_from_pair_bits`` replaced, testing
    every pair unknown in turn: its oracle."""
    rows = [0] * m
    for idx, (i, j) in enumerate(pairs):
        if (bits >> idx) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return BitMatrix(m, tuple(rows))


class TestMatrixFromPairBits:
    def test_against_pair_loop(self, entries):
        # Bundled structures, and the duals the planarity test solves: a
        # 22-vertex graph of 46 edges has a dual with 800+ pair unknowns.
        rng = random.Random(4)
        graph_edges = rng.sample([(u, v) for u in range(1, 23) for v in range(u + 1, 23)], 46)
        graph = Hypergraph.from_edges(graph_edges, 22)
        hs = [e.hypergraph for e in entries.values()] + [dual(graph)]
        for h in hs:
            m, pairs = h.vertex_count, pair_variables(h)
            full = (1 << len(pairs)) - 1
            for bits in [0, full, 1 << (len(pairs) - 1)] + [rng.getrandbits(len(pairs)) for _ in range(20)]:
                assert gram._matrix_from_pair_bits(m, pairs, bits) == pair_loop_matrix(m, pairs, bits)
        assert len(pair_variables(hs[-1])) > 800


class TestMagicGram:
    def test_square_gram_magic(self, square):
        g = gram_matrix_of(square.assignment.strings)
        assert is_magic_gram(square.hypergraph, g)

    def test_zero_matrix_not_magic(self, square):
        m = square.hypergraph.vertex_count
        assert not is_magic_gram(square.hypergraph, BitMatrix.zero(m, m))

    def test_sum_of_two_magic_is_nonmagic(self, entries):
        h = entries["MS3-27b"].hypergraph
        space = valid_gram_space(h)
        magic1 = space.magic_offset
        magic2 = space.magic_offset ^ space.nonmagic_basis[0]
        assert is_magic_gram(h, magic1) and is_magic_gram(h, magic2)
        assert not is_magic_gram(h, magic1 ^ magic2)

    def test_affine_structure(self, entries):
        rng = random.Random(41)
        h = entries["MS3-27b"].hypergraph
        space = valid_gram_space(h)
        for _ in range(40):
            a, b = space_elements(space, rng, 2)
            pa, pb = fast_magic_parity(h, a), fast_magic_parity(h, b)
            assert fast_magic_parity(h, a ^ b) == (pa + pb) % 2

    def test_invalid_matrix_rejected(self, square):
        bad = BitMatrix.identity(9)  # nonzero diagonal
        with pytest.raises(ValueError):
            is_magic_gram(square.hypergraph, bad)

    def test_order_invariance(self, entries):
        rng = random.Random(43)
        for name in ["square", "pentagram", "MS3-27b"]:
            h = entries[name].hypergraph
            space = valid_gram_space(h)
            samples = space_elements(space, rng, 3) + [space.magic_offset]
            for g in samples:
                reference = magic_parity(h, g)
                assert reference == fast_magic_parity(h, g)
                for _ in range(10):
                    edge_order = list(range(h.num_edges))
                    rng.shuffle(edge_order)
                    inner = [
                        rng.sample(range(len(h.edges[i])), len(h.edges[i]))
                        for i in edge_order
                    ]
                    vertex_order = list(range(1, h.vertex_count + 1))
                    rng.shuffle(vertex_order)
                    assert (
                        magic_parity(h, g, edge_order, inner, vertex_order) == reference
                    )

    @given(st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_inversion_masks_match_magic_parity(self, seed):
        """Over any list of contexts, repeats allowed, and any matrix, valid
        or not: the masks evaluate the inversion sum ``magic_parity`` takes."""
        rng = random.Random(seed)
        h = random_proper_eulerian(rng)
        m = h.vertex_count
        edges = tuple(rng.randrange(h.num_edges) for _ in range(rng.randint(0, 2 * h.num_edges)))
        sub = Hypergraph(m, tuple(h.edges[j] for j in edges))
        g = BitMatrix(m, tuple(rng.getrandbits(m) for _ in range(m)))
        assert _parity_via_masks(g.rows, _inversion_masks(h, edges)) == magic_parity(sub, g)


class TestMinQubits:
    def test_square(self, square):
        res = min_qubits(square.hypergraph)
        assert (res.qubits, res.exact) == (2, True)
        assert rank(res.gram) == 4

    def test_pentagram(self, pentagram):
        res = min_qubits(pentagram.hypergraph)
        assert (res.qubits, res.exact) == (3, True)

    def test_witness_matrix_is_magic(self, entries):
        h = entries["MS3-27b"].hypergraph
        res = min_qubits(h)
        assert is_magic_gram(h, res.gram)
        assert rank(res.gram) == 2 * res.qubits

    def test_capped_enumeration_flags_inexact(self, entries):
        h = entries["MS3-27b"].hypergraph
        res = min_qubits(h, enumeration_cap=3)  # true dimension is 6
        assert not res.exact
        assert res.qubits >= 3

    def test_no_magic_raises(self):
        h = parse_edge_list("[[1,2],[2,3],[3,4],[4,1]]")
        with pytest.raises(NoMagicGramError):
            min_qubits(h)


class TestReducedMinimal:
    def test_square_gram_reduced(self, square):
        assert is_reduced(gram_matrix_of(square.assignment.strings))

    def test_zero_matrix_not_reduced(self):
        assert not is_reduced(BitMatrix.zero(3, 3))

    def test_duplicate_row_not_reduced(self):
        assert not is_reduced(BitMatrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]]))

    def test_minimality_calls(self, entries):
        assert is_minimal(entries["square"].hypergraph)
        assert is_minimal(entries["MS3-27b"].hypergraph)
        assert not is_minimal(entries["HB"].hypergraph)

    def test_minimality_cross_check_by_enumeration(self, entries):
        # MS3-27b has 64 magic Gram matrices; every one must be reduced.
        h = entries["MS3-27b"].hypergraph
        space = valid_gram_space(h)
        d = len(space.nonmagic_basis)
        for mask in range(1 << d):
            g = space.magic_offset
            for l in range(d):
                if (mask >> l) & 1:
                    g = g ^ space.nonmagic_basis[l]
            assert is_reduced(g)

    def test_no_magic_raises(self):
        with pytest.raises(NoMagicGramError):
            is_minimal(parse_edge_list("[[1,2],[2,3],[3,4],[4,1]]"))

    def test_hb_decided_without_a_scan_block(self, entries, monkeypatch):
        """HB's 2^14 * 35 matrix rows lie past ``_SCAN_ROWS``: the defect
        solves answer, and no block of the space is built."""

        def no_blocks(*args, **kwargs):
            raise AssertionError("a scan block was built")

        monkeypatch.setattr(gram, "_span_blocks", no_blocks)
        assert not is_minimal(entries["HB"].hypergraph)


class TestDefectSystemsAgainstLoop:
    """The defects' columns and targets are those of the bit-probing
    loop's row-form systems, in the same order."""

    @staticmethod
    def assert_same_systems(h: Hypergraph) -> None:
        space = valid_gram_space(h)
        args = space.magic_offset, space.nonmagic_basis
        d = len(space.nonmagic_basis)
        want = [(kind, *transposed(eqs, rhs, d)) for kind, eqs, rhs in loop_defect_systems(*args)]
        assert list(_defects(*args)) == want

    @pytest.mark.parametrize("name", datasets.NAMES)
    def test_bundled(self, entries, name):
        self.assert_same_systems(entries[name].hypergraph)

    def test_hb_descendants(self):
        children = hb_descendants(max_dim=9)
        assert len(children) == 6  # magic-space dimensions 1, 2, 3, 5, 7 and 9
        for child in children:
            self.assert_same_systems(child)


class TestSliceReadOff:
    """Each defect's slice, read off its columns by ``_affine_solutions``,
    is the particular solution and kernel basis of the row-form
    eliminations ``solve_affine`` and ``null_space_basis``."""

    @staticmethod
    def assert_read_off_matches(offset: BitMatrix, basis) -> int:
        m, d = offset.num_rows, len(basis)
        solvable = 0
        for _, cols, target in _defects(offset, basis):
            eqs = [sum(((c >> j) & 1) << l for l, c in enumerate(cols)) for j in range(m)]
            want = row_form_solutions(eqs, [(target >> j) & 1 for j in range(m)], d)
            assert _affine_solutions(cols, target) == want
            solvable += want is not None
        return solvable

    @pytest.mark.parametrize("name", datasets.NAMES)
    def test_bundled_at_random_offsets(self, entries, name):
        space = valid_gram_space(entries[name].hypergraph)
        offsets = [space.magic_offset]
        offsets += seeded_magic_grams(entries[name].hypergraph, random.Random(13), 3)
        for offset in offsets:
            self.assert_read_off_matches(offset, space.nonmagic_basis)

    def test_hb_descendants(self):
        for child in hb_descendants(max_dim=9):
            space = valid_gram_space(child)
            assert self.assert_read_off_matches(space.magic_offset, space.nonmagic_basis) > 0

    @pytest.mark.parametrize("copies", [4, 14])
    def test_rows_wider_than_64_bits(self, entries, copies):
        # HD (45 vertices) beside rigid blocks: 69 and 129 vertices.
        h = disjoint_union(entries["HD"].hypergraph, rigid_blocks(copies))
        space = valid_gram_space(h)
        assert h.vertex_count in (69, 129)
        assert self.assert_read_off_matches(space.magic_offset, space.nonmagic_basis) > 0


def test_gram_consistency_with_pauli_verification(entries):
    # Magic decision through the inversion parity agrees with the
    # operator-level verification for every published assignment.
    for name in ["MS3-29", "MS5-26", "MS4-21b", "MS3-27b", "MS6-35", "square", "pentagram"]:
        e = entries[name]
        g = gram_matrix_of(e.assignment.strings)
        assert is_magic_gram(e.hypergraph, g)


def gray_min_qubits(h: Hypergraph, enumeration_cap: int = 24) -> MinQubitsResult:
    """The per-matrix scan that ``min_qubits`` replaced, kept as its oracle:
    one Python rank per magic matrix in Gray-code order, keeping the first
    of least rank; past the cap, the first of least rank among the offset
    and its single and pair basis shifts."""
    space = valid_gram_space(h)
    offset, basis = space.magic_offset, space.nonmagic_basis
    d = len(basis)
    if d <= enumeration_cap:
        best_rank = best_rows = None
        searched = 0
        for _, rows in gray_enumerate(list(offset.rows), [list(b.rows) for b in basis]):
            searched += 1
            r = _rank_rows(rows)
            if best_rank is None or r < best_rank:
                best_rank, best_rows = r, tuple(rows)
        return MinQubitsResult(best_rank // 2, True, BitMatrix(h.vertex_count, best_rows), searched, 1 << d)
    candidates = [offset] + [offset ^ b for b in basis]
    candidates += [offset ^ basis[i] ^ basis[j] for i in range(d) for j in range(i + 1, d)]
    best = min(candidates, key=lambda g: _rank_rows(g.rows))
    return MinQubitsResult(_rank_rows(best.rows) // 2, False, best, len(candidates), 1 << d)


class TestMinQubitsAgainstGrayScan:
    """The batched scan gives the Gray scan's qubits, witness, flags and counts."""

    def test_one_matrix_spaces_skip_the_scan(self, entries, monkeypatch):
        def fail(*args):
            raise AssertionError("a one-matrix space was scanned")

        one = [e.hypergraph for e in entries.values()
               if not len(valid_gram_space(e.hypergraph).nonmagic_basis)]
        assert len(one) == 7
        want = [gray_min_qubits(h) for h in one]
        monkeypatch.setattr(gram, "_block_ranks", fail)
        assert [min_qubits(h) for h in one] == want

    def test_first_block_bounded_by_the_offset_rank(self, entries, monkeypatch):
        h = entries["HB"].hypergraph
        bounds = []

        def recording(block, bound=None):
            bounds.append(bound)
            return _block_ranks(block, bound)

        monkeypatch.setattr(gram, "_block_ranks", recording)
        res = min_qubits(h)
        assert _rank_rows(valid_gram_space(h).magic_offset.rows) == 6
        assert bounds == [6]
        assert res == gray_min_qubits(h)

    def test_first_bound_is_label_independent(self, entries, monkeypatch):
        # The offset's rank is 10 under two of these relabellings; the
        # least over the offset and its single shifts is 6 under all.
        rng = random.Random(0)
        bounds, first_bounds, offset_ranks = [], [], []

        def recording(block, bound=None):
            bounds.append(bound)
            return _block_ranks(block, bound)

        monkeypatch.setattr(gram, "_block_ranks", recording)
        for _ in range(20):
            h = relabelled(entries["HB"].hypergraph, rng)
            bounds.clear()
            res = min_qubits(h)
            first_bounds.append(bounds[0])
            offset_ranks.append(_rank_rows(valid_gram_space(h).magic_offset.rows))
            if offset_ranks[-1] != 6:
                assert res == gray_min_qubits(h)
        assert first_bounds == [6] * 20
        assert offset_ranks.count(10) == 2

    @pytest.mark.parametrize("name", datasets.NAMES)
    def test_bundled(self, entries, name):
        # HA (d=30) and HC (d=26) take the sampled branch, the rest the scan.
        h = entries[name].hypergraph
        assert min_qubits(h) == gray_min_qubits(h)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_hb_descendants_relabelled(self, seed):
        rng = random.Random(seed)
        for child in hb_descendants(max_dim=12):
            h = relabelled(child, rng)
            assert min_qubits(h) == gray_min_qubits(h)

    @pytest.mark.parametrize("name, cap", [("HB", 10), ("MS3-27b", 3), ("HD", 0)])
    def test_sampled_branch(self, entries, name, cap):
        h = entries[name].hypergraph
        res = min_qubits(h, enumeration_cap=cap)
        assert not res.exact
        assert res == gray_min_qubits(h, enumeration_cap=cap)

    def test_rows_wider_than_64_bits(self, entries):
        # 71 vertices: rows span two words, and the relabelling spreads
        # HB's vertices over both.  A matrix is then 142 words, so the scan
        # takes four blocks of 2^12 rather than one of 2^14.
        h = relabelled(disjoint_union(rigid_blocks(6), entries["HB"].hypergraph), random.Random(9))
        assert h.vertex_count == 71
        assert len(valid_gram_space(h).nonmagic_basis) == 14
        assert _block_low(71 * 2) == 12
        res = min_qubits(h)
        assert res == gray_min_qubits(h)
        assert (res.qubits, res.searched) == (3, 1 << 14)
        assert min_qubits(h, enumeration_cap=6) == gray_min_qubits(h, enumeration_cap=6)

    @pytest.mark.parametrize("name, cap", [("HB", 24), ("MS3-27b", 24), ("HB", 10), ("HD", 0)])
    def test_small_blocks(self, entries, name, cap, monkeypatch):
        # Blocks of 8 matrices: the bound carried between blocks and the
        # Gray index of a later block decide the witness, in the exact scan
        # and in the sampled branch alike.
        h = entries[name].hypergraph
        want = gray_min_qubits(h, enumeration_cap=cap)
        monkeypatch.setattr(gram, "_block_low", lambda words: 3)
        assert min_qubits(h, enumeration_cap=cap) == want

    @given(st.sampled_from(["HB", "HC", "HD", "MS3-27b"]), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_random_descendants(self, name, seed):
        """Magic hypergraphs drawn as relabelled children of a random magic
        Gram matrix of a bundled structure (the structure itself when that
        matrix is reduced); random proper Eulerian ones are rarely magic."""
        h = magic_descendant(name, random.Random(seed))
        gram.valid_gram_space.cache_clear()  # hypothesis reruns inside one test
        # A cap of 12 keeps the oracle's scan short and sends larger spaces
        # through the sampled branch.
        assert min_qubits(h, enumeration_cap=12) == gray_min_qubits(h, enumeration_cap=12)


def entry_loop_problems(h: Hypergraph, g: BitMatrix) -> list[str]:
    """The valid-Gram violations found entry by entry: the oracle for
    ``validate_gram``'s bit-parallel pass."""
    m = h.vertex_count
    problems = []
    if g.cols != m or g.num_rows != m:
        return [f"shape {g.num_rows}x{g.cols}, expected {m}x{m}"]
    for i in range(m):
        if g.entry(i, i):
            problems.append(f"nonzero diagonal at {i + 1}")
    for i in range(m):
        for j in range(i + 1, m):
            if g.entry(i, j) != g.entry(j, i):
                problems.append(f"asymmetric at ({i + 1},{j + 1})")
    for i, j in sorted(cocontext_pairs(h)):
        if g.entry(i, j):
            problems.append(f"nonzero on co-contextual pair ({i + 1},{j + 1})")
    for idx, e in enumerate(h.edges):
        acc = 0
        for v in set(e):
            acc ^= g.rows[v - 1]
        if acc:
            problems.append(f"rows of context {idx + 1} do not sum to zero")
    return problems


def _corruptions(g: BitMatrix, rng: random.Random) -> list[BitMatrix]:
    """g with one entry flipped, one symmetric pair flipped, and one
    diagonal entry set."""
    m = g.num_rows
    i, j = rng.sample(range(m), 2)
    one = list(g.rows)
    one[i] ^= 1 << j
    pair = list(g.rows)
    pair[i] ^= 1 << j
    pair[j] ^= 1 << i
    diag = list(g.rows)
    diag[i] |= 1 << i
    return [BitMatrix(m, tuple(rows)) for rows in (one, pair, diag)]


class TestValidateGramAgainstEntryLoop:
    """The bit-parallel pass against the entry-by-entry loop it replaced."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_hypergraphs(self, seed):
        rng = random.Random(seed)
        h = random_proper_eulerian(rng)
        gram.valid_gram_space.cache_clear()  # hypothesis reruns inside one test
        space = valid_gram_space(h)
        for g in space_elements(space, rng, 3):
            assert validate_gram(h, g) == entry_loop_problems(h, g) == []
            for bad in _corruptions(g, rng):
                problems = validate_gram(h, bad)
                assert problems and problems == entry_loop_problems(h, bad)
        m = h.vertex_count
        noise = BitMatrix(m, tuple(rng.getrandbits(m) for _ in range(m)))
        assert validate_gram(h, noise) == entry_loop_problems(h, noise)

    @pytest.mark.parametrize("name", ["square", "MS3-27b", "HD"])
    def test_bundled(self, entries, name):
        h = entries[name].hypergraph
        rng = random.Random(17)
        for g in space_elements(valid_gram_space(h), rng, 5):
            assert validate_gram(h, g) == []
            for bad in _corruptions(g, rng):
                assert validate_gram(h, bad) == entry_loop_problems(h, bad) != []

    def test_shape(self, square):
        g = BitMatrix.zero(8, 9)
        assert validate_gram(square.hypergraph, g) == ["shape 8x9, expected 9x9"]


def test_one_solve_per_hypergraph(entries, monkeypatch):
    """valid_gram_space, min_qubits, is_minimal and hypergraph_bound on one
    hypergraph share a single elimination of the valid-Gram system and a
    single kernel read-off.  (MS3-27b's magic space is small enough for
    ``is_minimal`` to scan it, so it builds no defect echelons.)"""
    solves = []
    echelons = []

    class Counting(gram.Echelon):
        def __init__(self, rows=()):
            echelons.append(self)
            super().__init__(rows)

    def counting(ech, cols):
        solves.append(cols)
        return _null_vectors(ech, cols)

    monkeypatch.setattr(gram, "Echelon", Counting)
    monkeypatch.setattr(gram, "_null_vectors", counting)
    h = entries["MS3-27b"].hypergraph
    space = valid_gram_space(h)
    min_qubits(h)
    is_minimal(h)
    bound.hypergraph_bound(h)
    assert valid_gram_space(h) is space
    assert len(echelons) == 1
    assert len(solves) == 1


def test_cache_keeps_the_last_hypergraph(entries):
    """Callers reuse a space only on consecutive calls, so one slot holds
    every hit and no more than one unread solved system."""
    square, pentagram = entries["square"].hypergraph, entries["pentagram"].hypergraph
    valid_gram_space(square)
    space = valid_gram_space(pentagram)
    info = valid_gram_space.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    assert valid_gram_space(pentagram) is space
    assert valid_gram_space.cache_info().hits == info.hits + 1
