from __future__ import annotations

import json

import pytest

from magicsets.gf2 import rank
from magicsets.hypergraph import (
    EdgeListParseError,
    Hypergraph,
    degree_profile,
    dual,
    incidence_matrix,
    is_proper_eulerian,
    parse_edge_list,
    serialize_edge_list,
)


class TestParsing:
    def test_round_trip_tiny(self):
        h = parse_edge_list("[[1,2],[2,1]]")
        assert h.vertex_count == 2
        assert h.edges == ((1, 2), (1, 2))

    def test_whitespace_insensitive(self):
        assert parse_edge_list(" [ [1, 2 ],\n[3,4] ] ") == parse_edge_list("[[1,2],[3,4]]")

    def test_hb_listing(self, entries):
        h = entries["HB"].hypergraph
        assert h.vertex_count == 35
        assert h.num_edges == 35

    def test_trailing_comma_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("[[1,2,]]")

    @pytest.mark.parametrize(
        "bad",
        ["[[0]]", "[[-1,2]]", "[[1,2]", "[[1 2]]", "[[1,2]]x", "[[true]]", "[[1.0]]", "[[[1]]]", "{}"],
    )
    def test_malformed(self, bad):
        with pytest.raises(EdgeListParseError):
            parse_edge_list(bad)

    @pytest.mark.parametrize("labels", [5, "abcdefghi", list(range(9))])
    def test_malformed_labels(self, square, labels):
        doc = square.hypergraph.to_json_dict()
        doc["labels"] = labels
        with pytest.raises(ValueError, match="labels must be a list of strings"):
            Hypergraph.from_json_dict(doc)

    def test_missing_edges_key(self):
        with pytest.raises(ValueError, match="must have an 'edges' key"):
            Hypergraph.from_json_dict({"vertices": 3})

    def test_explicit_vertex_count(self):
        h = parse_edge_list("[[1,2]]", vertex_count=5)
        assert h.vertex_count == 5
        assert is_proper_eulerian(h)[0] is False  # isolated trailing vertices

    def test_serialize_round_trip_bundled(self, entries):
        for entry in entries.values():
            h = entry.hypergraph
            again = parse_edge_list(serialize_edge_list(h), vertex_count=h.vertex_count)
            assert again.edges == h.edges and again.vertex_count == h.vertex_count

    def test_json_round_trip_field_names(self, square):
        doc = json.loads(square.hypergraph.to_json())
        assert set(doc) >= {"vertices", "edges", "name"}
        assert Hypergraph.from_json(square.hypergraph.to_json()) == square.hypergraph


class TestProperEulerian:
    def test_square(self, square):
        ok, diag = is_proper_eulerian(square.hypergraph)
        assert ok and diag.degrees == (2,) * 9

    def test_single_edge_odd(self):
        ok, diag = is_proper_eulerian(parse_edge_list("[[1,2,3]]"))
        assert not ok
        assert diag.odd_degree_vertices == (1, 2, 3)

    def test_hd(self, entries):
        ok, _ = is_proper_eulerian(entries["HD"].hypergraph)
        assert ok

    def test_duplicate_edges_flagged(self):
        ok, diag = is_proper_eulerian(parse_edge_list("[[1,2],[2,1]]"))
        assert not ok and diag.duplicate_edges == ((1, 2),)

    def test_repeated_vertex_flagged(self):
        h = Hypergraph(2, ((1, 1, 2, 2),))
        ok, diag = is_proper_eulerian(h)
        assert not ok and diag.edges_with_repeats == (1,)

    def test_describe_names_only_the_defects(self):
        _, diag = is_proper_eulerian(Hypergraph(6, ((1, 2), (1, 2), (), (3, 3, 4), (1, 2), (4, 5))))
        assert diag.describe() == (
            "isolated vertices 6; odd-degree vertices 1, 2, 5; empty edges 3; "
            "duplicate edges 1 = 2 = 5; edges with repeated vertices 4"
        )
        assert is_proper_eulerian(parse_edge_list("[[1,2,3]]"))[1].describe() == "odd-degree vertices 1, 2, 3"

    def test_degree_sum_matches_sizes(self, entries):
        for entry in entries.values():
            h = entry.hypergraph
            assert sum(h.degrees()) == sum(len(e) for e in h.edges)


class TestIncidence:
    def test_triangle(self):
        m = incidence_matrix(parse_edge_list("[[1,2],[2,3],[1,3]]"))
        assert (m.num_rows, m.cols) == (3, 3)
        assert all(r.bit_count() == 2 for r in m.rows)
        assert all(m.column(j).weight() == 2 for j in range(3))

    def test_square_rows_even(self, square):
        m = incidence_matrix(square.hypergraph)
        assert (m.num_rows, m.cols) == (9, 6)
        assert all(r.bit_count() == 2 for r in m.rows)

    def test_empty(self):
        m = incidence_matrix(Hypergraph(0, ()))
        assert (m.num_rows, m.cols) == (0, 0)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            incidence_matrix(Hypergraph(2, ((1, 1, 2),)))

    def test_eulerian_rows_even_all_bundled(self, entries):
        for entry in entries.values():
            m = incidence_matrix(entry.hypergraph)
            assert all(r.bit_count() % 2 == 0 for r in m.rows)


class TestDual:
    def test_triangle_self_shape(self):
        d = dual(parse_edge_list("[[1,2],[2,3],[1,3]]"))
        assert d.vertex_count == 3
        assert sorted(len(e) for e in d.edges) == [2, 2, 2]

    def test_single_edge(self):
        d = dual(parse_edge_list("[[1,2,3]]"))
        assert d.vertex_count == 1
        assert d.edges == ((1,), (1,), (1,))

    def test_incidence_transpose(self, entries):
        for entry in entries.values():
            h = entry.hypergraph
            assert incidence_matrix(dual(h)) == incidence_matrix(h).transpose()

    def test_double_dual_identity(self, entries):
        for entry in entries.values():
            h = entry.hypergraph
            dd = dual(dual(h))
            assert dd.vertex_count == h.vertex_count
            assert dd.edges == h.edges

    def test_simple_graph_dual_degree_two(self, entries):
        # Size-2 edges make every dual vertex degree 2.
        g = parse_edge_list("[[1,2],[2,3],[3,4],[4,1],[1,3]]")
        d = dual(g)
        assert all(deg == 2 for deg in d.degrees())


class TestDegreeProfile:
    def test_ms6_35(self, entries):
        prof = degree_profile(entries["MS6-35"].hypergraph)
        assert prof.render_vertices() == "30_4 + 5_8"
        assert prof.render_edges() == "3_3 + 14_4 + 19_5"

    def test_ms3_29(self, entries):
        prof = degree_profile(entries["MS3-29"].hypergraph)
        assert prof.render_vertices() == "27_4 + 2_12"
        assert prof.render_edges() == "33_4"

    def test_square(self, square):
        prof = degree_profile(square.hypergraph)
        assert prof.render_vertices() == "9_2"
        assert prof.render_edges() == "6_3"


def test_incidence_rank_invariant(entries):
    # Rank is shared between a hypergraph and its dual (transpose).
    for entry in entries.values():
        h = entry.hypergraph
        assert rank(incidence_matrix(h)) == rank(incidence_matrix(dual(h)))
