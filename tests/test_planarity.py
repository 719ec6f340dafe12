from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

from magicsets import gram
from magicsets.hypergraph import Hypergraph, dual, is_proper_eulerian
from magicsets.planarity import NotASimpleGraphError, _prune_low_degree, is_planar_via_gram


def graph_from_nx(g: nx.Graph) -> Hypergraph:
    nodes = sorted(g.nodes())
    relabel = {v: i + 1 for i, v in enumerate(nodes)}
    edges = tuple(tuple(sorted((relabel[u], relabel[v]))) for u, v in g.edges())
    return Hypergraph(len(nodes), edges)


def complete_graph(n: int) -> Hypergraph:
    return Hypergraph(n, tuple((a, b) for a, b in itertools.combinations(range(1, n + 1), 2)))


class TestClassics:
    def test_k5_nonplanar(self):
        result = is_planar_via_gram(complete_graph(5))
        assert not result.planar
        assert result.certificate is not None
        assert len(result.certificate_edges) == 10

    def test_k33_nonplanar(self):
        k33 = graph_from_nx(nx.complete_bipartite_graph(3, 3))
        result = is_planar_via_gram(k33)
        assert not result.planar

    def test_k4_planar(self):
        assert is_planar_via_gram(complete_graph(4)).planar

    def test_empty_and_tree(self):
        assert is_planar_via_gram(Hypergraph(3, ())).planar
        path = Hypergraph(4, ((1, 2), (2, 3), (3, 4)))
        result = is_planar_via_gram(path)
        assert result.planar
        assert set(result.pruned_vertices) == {1, 2, 3, 4}

    def test_pendant_decoration_does_not_change_answer(self):
        # K5 with a pendant path attached.
        edges = list(complete_graph(5).edges) + [(1, 6), (6, 7)]
        decorated = Hypergraph(7, tuple(edges))
        assert not is_planar_via_gram(decorated).planar


class TestValidation:
    def test_hyperedge_rejected(self):
        with pytest.raises(NotASimpleGraphError):
            is_planar_via_gram(Hypergraph(3, ((1, 2, 3),)))

    def test_loop_rejected(self):
        with pytest.raises(NotASimpleGraphError):
            is_planar_via_gram(Hypergraph(2, ((1, 1),)))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(NotASimpleGraphError):
            is_planar_via_gram(Hypergraph(2, ((1, 2), (1, 2))))


class TestOracleAgreement:
    def test_atlas_sample(self):
        # Spot check here; the exhaustive <= 7-vertex sweep runs in the
        # acceptance suite.
        atlas = nx.graph_atlas_g()[1:200]
        for g in atlas:
            if g.number_of_nodes() == 0:
                continue
            expected = nx.check_planarity(g)[0]
            assert is_planar_via_gram(graph_from_nx(g)).planar == expected

    def test_random_medium_graphs(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(8, 12)
            p = rng.choice([0.2, 0.3, 0.45])
            g = nx.gnp_random_graph(n, p, seed=rng.randint(0, 10**9))
            expected = nx.check_planarity(g)[0]
            assert is_planar_via_gram(graph_from_nx(g)).planar == expected

    def test_edge_additions_never_replanarize(self):
        rng = random.Random(67)
        g = nx.complete_bipartite_graph(3, 3)
        h = graph_from_nx(g)
        assert not is_planar_via_gram(h).planar
        edges = set(h.edges)
        all_pairs = list(itertools.combinations(range(1, 7), 2))
        while True:
            free = [p for p in all_pairs if p not in edges]
            if not free:
                break
            edges.add(rng.choice(free))
            assert not is_planar_via_gram(Hypergraph(6, tuple(sorted(edges)))).planar


def seeded_graphs(seed: int) -> list[nx.Graph]:
    """One graph per (n, p), n 8-22, p 0.15-0.3, with round(p * C(n, 2))
    edges: the sizes of the planarity benchmark's graphs."""
    rng = random.Random(seed)
    graphs = []
    for n in range(8, 23):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for p in (0.15, 0.2, 0.25, 0.3):
            g = nx.Graph(rng.sample(pairs, round(p * len(pairs))))
            g.add_nodes_from(range(1, n + 1))
            graphs.append(g)
    return graphs


def test_pruned_duals_are_proper_eulerian():
    """The precondition ``valid_gram_space`` checks holds for every input
    ``is_planar_via_gram`` hands it: the dual of a simple graph pruned of
    its degree-0/1 vertices."""
    graphs = [g for g in nx.graph_atlas_g()[1:] if g.number_of_edges()] + seeded_graphs(29)
    for g in graphs:
        core, _ = _prune_low_degree(graph_from_nx(g))
        if core.num_edges:
            assert is_proper_eulerian(dual(core))[0]


def test_decided_without_the_kernel(monkeypatch):
    """Planarity reads only the magic offset, which comes off the echelon;
    the kernel read-off is never called."""

    def fail(*args):
        raise AssertionError("planarity built the kernel")

    monkeypatch.setattr(gram, "_null_vectors", fail)
    k33 = graph_from_nx(nx.complete_bipartite_graph(3, 3))
    assert not is_planar_via_gram(complete_graph(5)).planar
    assert not is_planar_via_gram(k33).planar
    assert is_planar_via_gram(complete_graph(4)).planar
    outcomes = []
    for g in seeded_graphs(31):
        result = is_planar_via_gram(graph_from_nx(g))
        assert result.planar == nx.check_planarity(g)[0]
        assert result.planar or gram.is_magic_gram(dual(_prune_low_degree(graph_from_nx(g))[0]), result.certificate)
        outcomes.append(result.planar)
    assert any(outcomes) and not all(outcomes)
