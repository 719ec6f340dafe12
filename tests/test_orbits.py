from __future__ import annotations

import pytest

from magicsets.hypergraph import is_proper_eulerian
from magicsets.orbits import (
    OrbitCapError,
    PermutationGroup,
    candidate_hypergraphs,
    group_preserves_edges,
    is_vertex_transitive_under,
    ms327_hypergraph,
    orbit,
    subset_orbits,
    z3_translation_group,
)
from magicsets.reduce import canonical_edges


class TestPermutationGroup:
    def test_generator_validation(self):
        with pytest.raises(ValueError):
            PermutationGroup(3, ((1, 1, 2),))

    def test_json_round_trip(self):
        g = PermutationGroup.from_images(4, [[2, 3, 4, 1]])
        assert PermutationGroup.from_json(g.to_json()) == g

    def test_vertex_orbit(self):
        g = PermutationGroup.from_images(4, [[2, 3, 4, 1]])
        assert g.vertex_orbit(1) == frozenset({1, 2, 3, 4})


def test_orbit_is_breadth_first_from_the_seed():
    # Generators x -> x + 1 and x -> x + 3 on Z_8: level by level, each
    # point's images in generator order.
    found = orbit(0, lambda x: ((x + 1) % 8, (x + 3) % 8))
    assert found == [0, 1, 3, 2, 4, 6, 5, 7]
    assert orbit("a", lambda x: ()) == ["a"]


class TestSubsetOrbits:
    def test_cyclic_four_pairs(self):
        g = PermutationGroup.from_images(4, [[2, 3, 4, 1]])
        orbits = subset_orbits(g, 2)
        as_sets = sorted(tuple(o) for o in orbits)
        assert as_sets == [
            ((1, 2), (1, 4), (2, 3), (3, 4)),
            ((1, 3), (2, 4)),
        ]

    def test_trivial_group_singletons(self):
        g = PermutationGroup.from_images(4, [])
        orbits = subset_orbits(g, 2)
        assert len(orbits) == 6
        assert all(len(o) == 1 for o in orbits)

    def test_translation_orbit_of_starter_has_27_subsets(self):
        g = z3_translation_group()
        starter = (1, 2, 4, 10)  # coordinates (0,0,0), (0,0,1), (0,1,0), (1,0,0)
        orbits = subset_orbits(g, 4, cap=20000)
        hit = [o for o in orbits if starter in o]
        assert len(hit) == 1
        assert len(hit[0]) == 27

    def test_orbits_closed_under_generators(self):
        g = z3_translation_group()
        orbits = subset_orbits(g, 2, cap=1000)
        for orbit in orbits[:5]:
            members = set(orbit)
            for gen in g.generators:
                assert {g.apply(gen, s) for s in members} == members

    def test_size_bounds(self):
        g = PermutationGroup.from_images(3, [])
        with pytest.raises(ValueError):
            subset_orbits(g, 0)
        with pytest.raises(ValueError):
            subset_orbits(g, 4)

    def test_cap(self):
        g = PermutationGroup.from_images(30, [])
        with pytest.raises(OrbitCapError):
            subset_orbits(g, 15, cap=1000)


class TestCandidates:
    def test_translation_candidates_include_ms327(self):
        g = z3_translation_group()
        candidates = candidate_hypergraphs(g, 4, cap=20000)
        assert candidates, "some 27-subset orbit must qualify"
        target = canonical_edges(ms327_hypergraph())
        assert any(canonical_edges(h) == target for h in candidates)
        for h in candidates:
            assert all(d == 4 for d in h.degrees())
            assert is_proper_eulerian(h)[0]

    def test_trivial_group_no_candidates(self):
        g = PermutationGroup.from_images(8, [])
        assert candidate_hypergraphs(g, 4) == []

    def test_non_divisible_size(self):
        g = PermutationGroup.from_images(5, [])
        assert candidate_hypergraphs(g, 3) == []


class TestMs327:
    def test_shape(self):
        h = ms327_hypergraph()
        assert (h.vertex_count, h.num_edges) == (27, 27)
        assert all(d == 4 for d in h.degrees())
        ok, _ = is_proper_eulerian(h)
        assert ok

    def test_identity_translate_edge(self):
        h = ms327_hypergraph()
        assert h.edges[0] == (1, 2, 4, 10)

    def test_vertex_transitive_under_translations(self):
        h = ms327_hypergraph()
        g = z3_translation_group()
        assert group_preserves_edges(h, g)
        assert is_vertex_transitive_under(h, g)

    def test_deterministic(self):
        assert ms327_hypergraph() == ms327_hypergraph()
