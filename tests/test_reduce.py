from __future__ import annotations

import random
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicsets.gf2 import BitMatrix, _block_low, _span_blocks
from magicsets.gram import (
    _has_reducible_matrix,
    _reducible_rows,
    _words,
    is_magic_gram,
    is_reduced,
    valid_gram_space,
)
from magicsets.hypergraph import Hypergraph, is_proper_eulerian, parse_edge_list
from magicsets.orbits import ms327_hypergraph
from magicsets.pauli import decode, encode, gram_matrix_of
from magicsets import reduce
from magicsets.reduce import (
    DescentReport,
    RecipeError,
    ReductionRecipe,
    _child,
    _key_and_gens,
    _reducible_signatures,
    _reduction,
    _row_labels,
    apply_recipe,
    are_isomorphic,
    canonical_edges,
    find_minimal_descendants,
    isomorphism_key,
    recipe_from_gram,
    reduce_with,
)

from conftest import (
    disjoint_union,
    doubling_signatures,
    hb_descendants,
    magic_descendant,
    random_proper_eulerian,
    relabelled,
    rigid_blocks,
    row_signature,
    seeded_magic_grams,
)


def _bipartite_graph(h: Hypergraph) -> nx.Graph:
    """Incidence graph with vertices and contexts told apart by ``part``."""
    g = nx.Graph()
    for v in range(1, h.vertex_count + 1):
        g.add_node(("v", v), part="v")
    for j, e in enumerate(h.edges):
        g.add_node(("e", j), part="e")
        for v in e:
            g.add_edge(("v", v), ("e", j))
    return g


def vf2_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """Oracle: hypergraph isomorphism by networkx VF2++ on the coloured
    incidence graphs."""
    if (a.vertex_count, a.num_edges) != (b.vertex_count, b.num_edges):
        return False
    if sorted(len(e) for e in a.edges) != sorted(len(e) for e in b.edges):
        return False
    return nx.vf2pp_is_isomorphic(_bipartite_graph(a), _bipartite_graph(b), node_label="part")


def two_uniform(graph: nx.Graph) -> Hypergraph:
    """A simple graph as a hypergraph whose contexts are its edges."""
    index = {v: i + 1 for i, v in enumerate(graph.nodes)}
    return Hypergraph.from_edges([(index[u], index[v]) for u, v in graph.edges], len(index))


def shrikhande() -> nx.Graph:
    """Cayley graph of Z4 x Z4 with connection set ±(0,1), ±(1,0), ±(1,1)."""
    steps = [(0, 1), (1, 0), (1, 1), (0, 3), (3, 0), (3, 3)]
    g = nx.Graph()
    for a in range(4):
        for b in range(4):
            for da, db in steps:
                g.add_edge((a, b), ((a + da) % 4, (b + db) % 4))
    return g


def switched(h: Hypergraph, rng: random.Random) -> Hypergraph:
    """h with a vertex of one context traded for a vertex of another: the
    same degrees and context sizes, isomorphic to h or not."""
    edges = [list(e) for e in h.edges]
    i, j = rng.sample(range(len(edges)), 2)
    only_i = sorted(set(edges[i]) - set(edges[j]))
    only_j = sorted(set(edges[j]) - set(edges[i]))
    if only_i and only_j:
        u, v = rng.choice(only_i), rng.choice(only_j)
        edges[i][edges[i].index(u)] = v
        edges[j][edges[j].index(v)] = u
    return Hypergraph.from_edges(edges, h.vertex_count)


def pulled_back_gram(parent_entry, child_entry):
    """Gram matrix on the parent induced by the child's published assignment
    through the published preimage map (deleted vertices get identity)."""
    h = parent_entry.hypergraph
    k = child_entry.assignment.qubits
    pull = {v: "I" * k for v in range(1, h.vertex_count + 1)}
    for new, pre in child_entry.recipe.identification:
        word = decode(child_entry.assignment.strings[new - 1])
        for v in pre:
            pull[v] = word
    return gram_matrix_of([encode(pull[v]) for v in range(1, h.vertex_count + 1)])


class TestApplyRecipe:
    def test_all_published_replays(self, entries):
        for name in ["MS6-35", "MS3-29", "MS5-26", "MS4-21b", "MS3-27b"]:
            child = entries[name]
            parent = entries[child.recipe_parent]
            out = apply_recipe(parent.hypergraph, child.recipe)
            assert canonical_edges(out) == canonical_edges(child.hypergraph)

    def test_empty_recipe_identity(self, square):
        h = square.hypergraph
        out = apply_recipe(h, ReductionRecipe.build([], {}))
        assert out.vertex_count == h.vertex_count and out.edges == h.edges

    def test_recipe_referencing_deleted_vertex(self, square):
        bad = ReductionRecipe.build([1], {1: [1], 2: [2]})
        with pytest.raises(RecipeError):
            apply_recipe(square.hypergraph, bad)

    def test_recipe_must_cover_survivors(self, square):
        bad = ReductionRecipe.build([], {1: [1], 2: [2]})
        with pytest.raises(RecipeError):
            apply_recipe(square.hypergraph, bad)

    def test_new_ids_must_be_contiguous(self, square):
        bad = ReductionRecipe.build([], {i: [i] for i in [1, 2, 3, 4, 5, 6, 7, 8, 10]})
        with pytest.raises(RecipeError):
            apply_recipe(square.hypergraph, bad)

    def test_json_round_trip(self, entries):
        r = entries["MS5-26"].recipe
        again = ReductionRecipe.from_json_dict(r.to_json_dict())
        assert again == r


class TestReduceWith:
    def test_hd_to_ms3_27b_exact(self, entries):
        hd, child = entries["HD"], entries["MS3-27b"]
        g = pulled_back_gram(hd, child)
        trace = reduce_with(hd.hypergraph, g)
        assert canonical_edges(trace.output) == canonical_edges(child.hypergraph)
        # The derived recipe agrees with the published preimage map.
        assert trace.recipe.identification == child.recipe.identification
        assert is_magic_gram(trace.output, trace.reduced_gram)

    def test_hb_to_ms3_29(self, entries):
        hb, child = entries["HB"], entries["MS3-29"]
        trace = reduce_with(hb.hypergraph, pulled_back_gram(hb, child))
        assert (trace.output.vertex_count, trace.output.num_edges) == (29, 33)
        assert canonical_edges(trace.output) == canonical_edges(child.hypergraph)

    def test_hb_to_ms5_26_with_deletions(self, entries):
        hb, child = entries["HB"], entries["MS5-26"]
        g = pulled_back_gram(hb, child)
        assert any(r == 0 for r in g.rows)  # deleted vertices carry identity
        trace = reduce_with(hb.hypergraph, g)
        assert canonical_edges(trace.output) == canonical_edges(child.hypergraph)
        assert sorted(trace.recipe.deleted_vertices) == [2, 4, 8, 11, 27]

    def test_snapshots_chain(self, entries):
        hd, child = entries["HD"], entries["MS3-27b"]
        trace = reduce_with(hd.hypergraph, pulled_back_gram(hd, child))
        snaps = trace.snapshots
        assert len(snaps.after_deletion) == hd.hypergraph.num_edges
        assert len(snaps.after_identification) == hd.hypergraph.num_edges
        # Duplicate contexts cancel pairwise: 45 -> 27 here.
        assert len(snaps.after_edge_mod2) == 27

    def test_reduced_matrix_rejected(self, entries):
        h = entries["MS3-27b"].hypergraph
        g = valid_gram_space(h).magic_offset
        with pytest.raises(ValueError, match="already reduced"):
            reduce_with(h, g)

    def test_nonmagic_matrix_rejected(self, entries):
        from magicsets.gf2 import BitMatrix

        h = entries["HD"].hypergraph
        with pytest.raises(ValueError, match="not magic"):
            reduce_with(h, BitMatrix.zero(45, 45))

    def test_outputs_always_proper_eulerian(self, entries):
        # Includes the regression case where whole contexts cancel modulo 2
        # and leave would-be isolated vertices: two levels of HB's tree.
        from magicsets.reduce import _reducible_signatures

        hb = entries["HB"].hypergraph
        sp = valid_gram_space(hb)
        stats = {"inspected": 0}
        level1 = []
        for _, matrix in _reducible_signatures(hb, sp.magic_offset, sp.nonmagic_basis, 20, stats):
            trace = reduce_with(hb, matrix)
            ok, diag = is_proper_eulerian(trace.output)
            assert ok, diag
            level1.append(trace.output)
            if len(level1) >= 40:
                break
        checked = 0
        for child in level1:
            csp = valid_gram_space(child)
            stats2 = {"inspected": 0}
            for _, matrix in _reducible_signatures(
                child, csp.magic_offset, csp.nonmagic_basis, 20, stats2
            ):
                trace = reduce_with(child, matrix)
                ok, diag = is_proper_eulerian(trace.output)
                assert ok, diag
                checked += 1
                if checked >= 120:
                    return


class TestRecipeFromGram:
    def test_matches_published_map(self, entries):
        hd, child = entries["HD"], entries["MS3-27b"]
        recipe = recipe_from_gram(hd.hypergraph, pulled_back_gram(hd, child))
        assert recipe.identification == child.recipe.identification
        assert recipe.deleted_vertices == frozenset()


def signature_and_gram(labels: list[int]) -> tuple[tuple, BitMatrix]:
    """The signature of a per-vertex labelling (0 a zero row, equal labels
    one class) and a matrix with that signature: row i is label i."""
    classes: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        classes.setdefault(label, []).append(i)
    zero = tuple(classes.pop(0, ()))
    sig = zero, tuple(sorted(tuple(c) for c in classes.values()))
    return sig, BitMatrix(len(labels), tuple(labels))


class TestChildKernel:
    """The mask-built child is ``_reduction``'s output, isolated classes and
    the replayed context order included."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reduction(self, data):
        m = data.draw(st.integers(1, 9), label="m")
        edges = data.draw(
            st.lists(st.lists(st.integers(1, m), min_size=1, max_size=5), min_size=1, max_size=10),
            label="edges",
        )
        h = Hypergraph.from_edges(edges, m)
        labels = data.draw(st.lists(st.integers(0, m), min_size=m, max_size=m), label="labels")
        sig, g = signature_and_gram(labels)
        recipe, _, out = _reduction(h, g)
        child, reps = _child(h, sig)
        assert child == out
        assert reps == [min(pre) for _, pre in recipe.identification]

    def test_isolated_class_merges_contexts(self):
        # Vertex 5 cancels with its two contexts, leaving (1,2) three
        # times: it now leads, where the first pass kept (3,4) first.
        h = Hypergraph.from_edges([(1, 2, 5), (3, 4), (1, 2), (1, 2, 5)], 5)
        sig, g = signature_and_gram([1, 2, 3, 4, 5])
        child, reps = _child(h, sig)
        assert child == _reduction(h, g)[2]
        assert (child.vertex_count, child.edges) == (4, ((1, 2), (3, 4)))
        assert reps == [1, 2, 3, 4]


class TestDescendants:
    def test_hd_single_class(self, entries):
        report = find_minimal_descendants(entries["HD"].hypergraph, max_seconds=600)
        assert report.complete
        assert len(report.minimal) == 1
        assert are_isomorphic(report.minimal[0], entries["MS3-27b"].hypergraph)
        assert any(
            canonical_edges(c) == canonical_edges(entries["MS3-27b"].hypergraph)
            for c in report.labeled_copies
        )

    def test_square_already_minimal(self, square):
        report = find_minimal_descendants(square.hypergraph)
        assert report.already_minimal
        assert report.minimal == ()
        assert report.complete

    def test_budget_exhaustion_flagged(self, entries):
        report = find_minimal_descendants(entries["HB"].hypergraph, max_nodes=2, max_seconds=5)
        assert not report.complete

    def test_deadline_honoured_inside_scans(self, entries):
        # The root alone has hundreds of reductions to class; the budget
        # must stop the search between them and inside the block scans.
        start = time.monotonic()
        report = find_minimal_descendants(
            entries["HB"].hypergraph, max_nodes=10**7, max_seconds=3, gram_cap=26
        )
        assert not report.complete
        assert time.monotonic() - start <= 3 + 2


def descent_summary(h: Hypergraph) -> tuple:
    report = find_minimal_descendants(h, max_seconds=None)
    assert report.complete
    return (
        report.nodes_expanded,
        report.matrices_inspected,
        len(report.minimal),
        sorted((c.vertex_count, c.num_edges) for c in report.minimal),
        {isomorphism_key(c) for c in report.minimal},
    )


class TestDescentLabelIndependence:
    @pytest.mark.parametrize("name", ["HD", "HB-d5"])
    def test_relabelings_give_the_same_descent(self, entries, name):
        if name == "HD":
            h = entries["HD"].hypergraph
        else:
            h = hb_d5()
        expected = descent_summary(h)
        rng = random.Random(name)
        for _ in range(3):
            assert descent_summary(relabelled(h, rng)) == expected


def per_matrix_signatures(h: Hypergraph, block_low: int) -> list[tuple]:
    """The scan before numpy labels: each reducible matrix's signature
    built in Python, the first matrix of each signature kept in scan
    order.  The oracle for ``_reducible_signatures``'s block scan, at any
    row width."""
    sp = valid_gram_space(h)
    m = h.vertex_count
    width = (m + 63) // 64
    seen, out = set(), []
    offset = _words(sp.magic_offset, width)
    blocks = _span_blocks(offset, [_words(b, width) for b in sp.nonmagic_basis], block_low)
    for block in blocks:
        for words in block.reshape(-1, m, width).tolist():
            rows = tuple(sum(w << (64 * j) for j, w in enumerate(row)) for row in words)
            sig = row_signature(rows)
            if sig is not None and sig not in seen:
                seen.add(sig)
                out.append((sig, BitMatrix(m, rows)))
    return out


def python_labels(block: np.ndarray) -> list[list[int]]:
    """``_row_labels`` of a (count, m, W) block, one matrix at a time in Python."""
    out = []
    for matrix in block.tolist():
        first: dict[tuple, int] = {}
        m = len(matrix)
        out.append([first.setdefault(tuple(r), i) if any(r) else m for i, r in enumerate(matrix)])
    return out


class TestBlockSignatures:
    def test_row_labels(self):
        # Four values per word, so equal rows are common and, past one
        # word, rows that differ in one word only occur.
        rng = np.random.default_rng(7)
        for width in (1, 2, 3):
            for m in (1, 2, 5, 64):
                block = rng.integers(0, 4, size=(300, m, width)).astype(np.uint64) << np.uint64(62)
                block[:, 0, 0] ^= rng.integers(0, 2, size=300).astype(np.uint64)
                labels = _row_labels(block)
                assert labels.dtype == np.uint8
                assert labels.tolist() == python_labels(block)

    def test_row_labels_past_255(self):
        # Row 299 repeats row 280 in the first matrix and row 24 in the
        # second, and row 290 is zero: labels 280 and 300 need 16 bits.
        m = 300
        block = np.tile(np.arange(1, m + 1, dtype=np.uint64).reshape(1, m, 1), (2, 1, 1))
        block[0, 299] = block[0, 280]
        block[1, 299] = block[1, 24]
        block[:, 290] = 0
        labels = _row_labels(block)
        assert labels.dtype == np.uint16
        assert labels.tolist() == python_labels(block)
        assert labels[0, 299] == 280 and labels[1, 299] == 24 and labels[0, 290] == m
        assert labels[0].tobytes() != labels[1].tobytes()

    @pytest.mark.parametrize("low", [None, 3])
    def test_scan_matches_per_matrix_signatures(self, entries, monkeypatch, low):
        # Blocks of 8 matrices make most signatures recur in later blocks.
        # HD beside 4 and 14 rigid blocks has rows of 69 and 129 bits (two
        # and three words), the blocks' 24 and 84 vertices zero rows in
        # every matrix.
        if low is not None:
            monkeypatch.setattr(reduce, "_block_low", lambda words: low)
        rng = random.Random(85)
        hd = entries["HD"].hypergraph
        wide = [disjoint_union(hd, rigid_blocks(4)), disjoint_union(hd, rigid_blocks(14))]
        assert [h.vertex_count for h in wide] == [69, 129]
        hs = [entries["HB"].hypergraph, hd] + hb_descendants(max_dim=9) + wide
        for h in hs + [relabelled(h, rng) for h in hs]:
            sp = valid_gram_space(h)
            stats = {"inspected": 0}
            got = list(_reducible_signatures(h, sp.magic_offset, sp.nonmagic_basis, 20, stats))
            words = h.vertex_count * ((h.vertex_count + 63) // 64)
            want = per_matrix_signatures(h, _block_low(words) if low is None else low)
            assert got == want
            assert stats["inspected"] == 1 << len(sp.nonmagic_basis)


class TestSampledSignatures:
    """Past the cap, each solvable slice is sampled as one block, giving the
    doubling loop's signatures, matrices and count."""

    @pytest.mark.parametrize("name, cap", [("HD", 3), ("HB-d7", 6)])
    def test_matches_doubling_oracle(self, entries, name, cap):
        if name == "HD":
            h = entries["HD"].hypergraph
        else:
            children = hb_descendants(max_dim=7)
            (h,) = [c for c in children if len(valid_gram_space(c).nonmagic_basis) == 7]
        sp = valid_gram_space(h)
        assert len(sp.nonmagic_basis) > cap
        got_stats, want_stats = {"inspected": 0}, {"inspected": 0}
        got = list(_reducible_signatures(h, sp.magic_offset, sp.nonmagic_basis, cap, got_stats))
        want = list(doubling_signatures(sp.magic_offset, sp.nonmagic_basis, want_stats))
        assert got and got == want
        assert got_stats == want_stats


def unpruned_descent(h: Hypergraph, gram_cap: int = 20) -> DescentReport:
    """The search before orbit pruning, without budgets: every distinct
    reduction signature of a node is reduced and its child classed.  The
    oracle for ``find_minimal_descendants``, which reduces one signature
    per automorphism orbit."""
    is_minimal_class: dict[tuple, bool] = {}
    minimal: list[Hypergraph] = []
    labeled: dict = {}
    stats = {"inspected": 0}
    expanded = 0
    complete = True
    already_minimal = False
    queue = [(h, valid_gram_space(h))]
    while queue:
        current, sp = queue.pop()
        expanded += 1
        if len(sp.nonmagic_basis) > gram_cap:
            complete = False
        children = []
        found = False
        for _, matrix in _reducible_signatures(
            current, sp.magic_offset, sp.nonmagic_basis, gram_cap, stats
        ):
            found = True
            child = reduce_with(current, matrix).output
            cert = isomorphism_key(child)
            child_minimal = is_minimal_class.get(cert)
            if child_minimal is None:
                child_space = valid_gram_space(child)
                child_minimal = not _has_reducible_matrix(
                    child_space.magic_offset, child_space.nonmagic_basis
                )
                is_minimal_class[cert] = child_minimal
                if child_minimal:
                    minimal.append(child)
                else:
                    children.append((child, child_space))
            if child_minimal:
                labeled.setdefault(canonical_edges(child), child)
        if current is h:
            already_minimal = not found
        queue.extend(children)
    return DescentReport(
        tuple(minimal), tuple(labeled.values()), already_minimal, expanded, stats["inspected"], complete, 0.0
    )


def full_report(report: DescentReport) -> tuple:
    """Every field but the elapsed time, hypergraphs with their labels."""
    return (
        [(c.vertex_count, c.edges) for c in report.minimal],
        [(c.vertex_count, c.edges) for c in report.labeled_copies],
        report.already_minimal,
        report.nodes_expanded,
        report.matrices_inspected,
        report.complete,
    )


def hb_d5() -> Hypergraph:
    """The seeded HB descendant with a 5-dimensional magic space."""
    (h,) = [c for c in hb_descendants(max_dim=5) if len(valid_gram_space(c).nonmagic_basis) == 5]
    return h


class TestOrbitPrunedDescent:
    """Reducing one signature per orbit gives the unpruned search's report."""

    def assert_matches_unpruned(self, h: Hypergraph, gram_cap: int = 20) -> None:
        pruned = find_minimal_descendants(h, max_seconds=None, gram_cap=gram_cap)
        assert full_report(pruned) == full_report(unpruned_descent(h, gram_cap))

    def test_hd_relabelled(self, entries):
        h = entries["HD"].hypergraph
        rng = random.Random(81)
        for g in [h] + [relabelled(h, rng) for _ in range(8)]:
            self.assert_matches_unpruned(g)

    def test_hb_descendants_relabelled(self):
        rng = random.Random(82)
        children = hb_descendants(max_dim=5)  # magic-space dimensions 1, 2, 3 and 5
        assert len(children) == 4
        for child in children:
            for _ in range(8):
                self.assert_matches_unpruned(relabelled(child, rng))

    def test_sampled_and_wide_scans(self, entries):
        # Past the cap the signatures come from the defect slices; beside
        # four rigid blocks (69 vertices) from the block scan of two-word
        # rows, where the blocks' 24 vertices have zero rows in every matrix.
        hd = entries["HD"].hypergraph
        rng = random.Random(83)
        self.assert_matches_unpruned(relabelled(hd, rng), gram_cap=3)
        wide = relabelled(disjoint_union(hd, rigid_blocks(4)), rng)
        assert wide.vertex_count == 69
        self.assert_matches_unpruned(wide)

    @given(st.sampled_from(["HD", "MS3-27b"]), st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_random_magic_descendants(self, name, seed):
        self.assert_matches_unpruned(magic_descendant(name, random.Random(seed)))

    @pytest.mark.parametrize(
        "name, reductions, certificates", [("HD", 3, 3), ("HB-d5", 20, 15)], ids=["HD", "HB-d5"]
    )
    def test_one_reduction_per_orbit(self, entries, monkeypatch, name, reductions, certificates):
        # Unpruned, HD takes 12 reductions and HB-d5 37.  Every first
        # reduction of an orbit passes the checks; certificates are taken
        # once per distinct labelled child, plus the root's, for its
        # automorphisms.
        h = entries["HD"].hypergraph if name == "HD" else hb_d5()
        calls = {"_checked_reduction": 0, "_key_and_gens": 0}
        for fn in calls:
            original = getattr(reduce, fn)

            def counted(*args, _fn=fn, _original=original):
                calls[_fn] += 1
                return _original(*args)

            monkeypatch.setattr(reduce, fn, counted)
        find_minimal_descendants(h, max_seconds=None)
        assert calls == {"_checked_reduction": reductions, "_key_and_gens": certificates}


def descent_inputs(entries) -> list[tuple[Hypergraph, int]]:
    """(input, node budget): HD and the seeded HB descendants up to d = 9,
    each under one relabelling.  The d = 7 and d = 9 descendants reach
    about 1 800 nodes and 300 classes, a minute each, so they get 4 nodes."""
    rng = random.Random(86)
    hs = [entries["HD"].hypergraph] + hb_descendants(max_dim=9)
    budgets = [10_000 if len(valid_gram_space(h).nonmagic_basis) <= 5 else 4 for h in hs]
    return [(relabelled(h, rng), budget) for h, budget in zip(hs, budgets)]


class TestDescentChildren:
    """What the search builds, against ``reduce_with`` as the oracle."""

    def test_every_child_is_reduce_with_output(self, entries, monkeypatch):
        matrices: dict = {}  # (node, signature) -> the scan's matrix
        built: list = []  # (node, signature, child) per kernel call
        scan, kernel = reduce._reducible_signatures, reduce._child

        def recording_scan(h, *args):
            for sig, matrix in scan(h, *args):
                matrices[id(h), sig] = h, matrix
                yield sig, matrix

        def recording_kernel(h, sig):
            out = kernel(h, sig)
            built.append((h, sig, out[0]))
            return out

        monkeypatch.setattr(reduce, "_reducible_signatures", recording_scan)
        monkeypatch.setattr(reduce, "_child", recording_kernel)
        for h, budget in descent_inputs(entries):
            built.clear()
            find_minimal_descendants(h, max_nodes=budget, max_seconds=None)
            assert built
            for node, sig, child in built:
                parent, matrix = matrices[id(node), sig]
                assert parent is node
                assert child == reduce_with(node, matrix).output

    def test_one_certificate_per_labelled_child(self, entries, monkeypatch):
        children: list = []
        calls = [0]
        checked, certify = reduce._checked_reduction, reduce._key_and_gens

        def recording(*args):
            out = checked(*args)
            children.append(out[0])
            return out

        def counted(h):
            calls[0] += 1
            return certify(h)

        monkeypatch.setattr(reduce, "_checked_reduction", recording)
        monkeypatch.setattr(reduce, "_key_and_gens", counted)
        repeats = 0
        for h, budget in descent_inputs(entries):
            children.clear()
            calls[0] = 0
            find_minimal_descendants(h, max_nodes=budget, max_seconds=None)
            distinct = len({canonical_edges(c) for c in children})
            assert calls[0] == distinct + 1
            repeats += len(children) - distinct
        assert repeats > 0


class TestAutomorphismGenerators:
    @staticmethod
    def edge_multiset(h: Hypergraph, perm=None) -> list:
        img = (lambda v: v) if perm is None else (lambda v: perm[v - 1] + 1)
        return sorted(tuple(sorted(img(v) for v in e)) for e in h.edges)

    def test_generators_are_automorphisms(self, entries):
        rng = random.Random(84)
        hs = [e.hypergraph for e in entries.values()] + hb_descendants(max_dim=5)
        total = 0
        for h in hs + [relabelled(h, rng) for h in hs]:
            key, gens = _key_and_gens(h)
            assert key == isomorphism_key(h)
            for g in gens:
                assert sorted(g) == list(range(h.vertex_count))
                assert self.edge_multiset(h, g) == self.edge_multiset(h)
            total += len(gens)
        assert total > 0


class TestIsomorphism:
    def test_relabelings_detected(self, entries):
        h = entries["MS3-27b"].hypergraph
        rng = random.Random(17)
        perm = list(range(1, 28))
        rng.shuffle(perm)
        relabeled = parse_edge_list(
            str([sorted(perm[v - 1] for v in e) for e in h.edges])
        )
        assert are_isomorphic(h, relabeled)

    def test_different_structures_distinguished(self, entries):
        a, b = entries["MS3-27b"].hypergraph, ms327_hypergraph()
        assert not vf2_isomorphic(a, b)
        assert not are_isomorphic(a, b)


class TestCertificateAgainstVF2:
    """``isomorphism_key`` equality must be exactly VF2's verdict."""

    def test_bundled_structures(self, entries):
        # A relabelled copy is isomorphic by construction, which is the
        # oracle's verdict without running it (VF2 takes over 8 s on HA).
        # Different structures of one shape go through VF2 itself.
        hs = [e.hypergraph for e in entries.values()] + [ms327_hypergraph()]
        keys = [isomorphism_key(h) for h in hs]
        rng = random.Random(5)
        for h, key in zip(hs, keys):
            for _ in range(2):
                assert isomorphism_key(relabelled(h, rng)) == key
        for i in range(len(hs)):
            for j in range(i + 1, len(hs)):
                assert (keys[i] == keys[j]) == vf2_isomorphic(hs[i], hs[j])

    def test_hb_children(self, entries):
        # Seeded reductions of HB: a mix of isomorphic and non-isomorphic
        # children of equal shape.
        hb = entries["HB"].hypergraph
        grams = seeded_magic_grams(hb, random.Random(31), 60)
        children = [reduce_with(hb, g).output for g in grams if not is_reduced(g)][:20]
        keys = [isomorphism_key(c) for c in children]
        rng = random.Random(9)
        for child, key in zip(children, keys):
            assert isomorphism_key(relabelled(child, rng)) == key
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                copy = relabelled(children[j], rng)
                assert (keys[i] == isomorphism_key(copy)) == vf2_isomorphic(children[i], copy)

    @pytest.mark.parametrize(
        "a,b",
        [
            (shrikhande(), nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4))),
            (nx.circular_ladder_graph(3), nx.complete_bipartite_graph(3, 3)),
        ],
        ids=["shrikhande-rook4x4", "prism-k33"],
    )
    def test_pairs_colour_refinement_cannot_split(self, a, b):
        ha, hb = two_uniform(a), two_uniform(b)
        assert not vf2_isomorphic(ha, hb)
        assert isomorphism_key(ha) != isomorphism_key(hb)
        # In the disjoint union the first vertex individualised lands in
        # either component, depending on the labels, so only the least
        # leaf over both branches is label-independent.
        union = two_uniform(nx.disjoint_union(a, b))
        rng = random.Random(3)
        for h in (ha, hb, union):
            key = isomorphism_key(h)
            for _ in range(3):
                assert isomorphism_key(relabelled(h, rng)) == key

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_proper_eulerian_pairs(self, seed):
        rng = random.Random(seed)
        a = random_proper_eulerian(rng, max_vertices=7)
        b = random_proper_eulerian(rng, max_vertices=7)
        assert (isomorphism_key(a) == isomorphism_key(b)) == vf2_isomorphic(a, b)
        copy = relabelled(b, rng)
        assert (isomorphism_key(a) == isomorphism_key(copy)) == vf2_isomorphic(a, copy)
        assert isomorphism_key(copy) == isomorphism_key(b)
        twin = relabelled(switched(a, rng), rng)
        assert (isomorphism_key(a) == isomorphism_key(twin)) == vf2_isomorphic(a, twin)
