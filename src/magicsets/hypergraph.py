"""Hypergraph data model: parsing, Eulerian validation, incidence, duals.

A hypergraph is a vertex count plus an ordered list of hyperedges, each a
multiset of 1-based vertex indices.  Edge order is significant: it fixes
the context indexing used by sign vectors and incidence columns.  Edges
are stored sorted (canonical multiset form) but their multiplicities are
kept, because the reduction procedure transiently creates repeated
vertices inside an edge.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2 import BitMatrix


class EdgeListParseError(ValueError):
    """Malformed bracketed edge-list text."""


def _integer(v, what: str) -> int:
    """v itself when it is an int (not a bool); ValueError otherwise."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


@dataclass(frozen=True)
class Hypergraph:
    vertex_count: int
    edges: tuple[tuple[int, ...], ...]
    name: str | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("negative vertex count")
        for e in self.edges:
            for v in e:
                if not 1 <= v <= self.vertex_count:
                    raise ValueError(f"vertex {v} outside 1..{self.vertex_count}")
        if self.labels is not None and len(self.labels) != self.vertex_count:
            raise ValueError("labels length must equal vertex count")

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Sequence[int]],
        vertex_count: int | None = None,
        name: str | None = None,
        labels: Sequence[str] | None = None,
    ) -> "Hypergraph":
        """Raises ValueError unless the vertex count (when given) and every
        vertex index are integers (bools are refused), and unless labels
        (when given) is a list or tuple of strings."""
        if vertex_count is not None:
            _integer(vertex_count, "vertex count")
        if labels is not None:
            if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
                raise ValueError(f"labels must be a list of strings, got {labels!r}")
            labels = tuple(labels)
        try:
            canon = tuple(tuple(sorted(_integer(v, "vertex index") for v in e)) for e in edges)
        except TypeError:
            raise ValueError("edges must be a list of vertex lists") from None
        if vertex_count is None:
            vertex_count = max((v for e in canon for v in e), default=0)
        return cls(vertex_count, canon, name, labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees counting multiplicity, indexed 0..m-1 for vertices 1..m."""
        deg = [0] * self.vertex_count
        for e in self.edges:
            for v in e:
                deg[v - 1] += 1
        return tuple(deg)

    def to_json_dict(self) -> dict:
        doc: dict = {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges]}
        if self.name is not None:
            doc["name"] = self.name
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Hypergraph":
        if not isinstance(doc, dict):
            raise ValueError(f"a hypergraph document must be a JSON object, got {doc!r}")
        if "edges" not in doc:
            raise ValueError("a hypergraph document must have an 'edges' key")
        return cls.from_edges(
            doc["edges"],
            vertex_count=doc.get("vertices"),
            name=doc.get("name"),
            labels=doc.get("labels"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "Hypergraph":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Diagnostics:
    """Validation report for the proper-Eulerian property."""

    degrees: tuple[int, ...]
    isolated_vertices: tuple[int, ...]
    odd_degree_vertices: tuple[int, ...]
    empty_edges: tuple[int, ...]
    duplicate_edges: tuple[tuple[int, ...], ...]  # groups of 1-based edge indices
    edges_with_repeats: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not (
            self.isolated_vertices
            or self.odd_degree_vertices
            or self.empty_edges
            or self.duplicate_edges
            or self.edges_with_repeats
        )

    def describe(self) -> str:
        """The nonempty defects in words, e.g. "odd-degree vertices 1, 3;
        duplicate edges 2 = 5", 1-based as in the fields."""
        defects = [
            ("isolated vertices", self.isolated_vertices),
            ("odd-degree vertices", self.odd_degree_vertices),
            ("empty edges", self.empty_edges),
            ("duplicate edges", [" = ".join(map(str, g)) for g in self.duplicate_edges]),
            ("edges with repeated vertices", self.edges_with_repeats),
        ]
        return "; ".join(f"{name} {', '.join(map(str, ids))}" for name, ids in defects if ids)


def parse_edge_list(text: str, vertex_count: int | None = None, name: str | None = None) -> Hypergraph:
    """Parse the bracketed list-of-lists format, e.g. "[[1, 2, 22, 28], ...]".

    The text is a JSON array of arrays of positive integers, read by
    ``json.loads``, so JSON's syntax rules hold: no trailing commas, no
    leading zeros, JSON whitespace only.  The vertex count defaults to the
    maximum index present; pass it explicitly to declare trailing isolated
    vertices.
    """
    try:
        edges = json.loads(text)
    except json.JSONDecodeError as err:
        raise EdgeListParseError(f"{err.msg} at offset {err.pos}") from None
    if not isinstance(edges, list):
        raise EdgeListParseError("expected a list of vertex lists")
    try:
        return Hypergraph.from_edges(edges, vertex_count=vertex_count, name=name)
    except ValueError as err:
        raise EdgeListParseError(str(err)) from None


def serialize_edge_list(h: Hypergraph) -> str:
    return "[" + ", ".join("[" + ", ".join(str(v) for v in e) + "]" for e in h.edges) + "]"


def is_proper_eulerian(h: Hypergraph) -> tuple[bool, Diagnostics]:
    """Every vertex in an even, positive number of edges; edges nonempty,
    pairwise distinct, and free of repeated vertices."""
    deg = h.degrees()
    isolated = tuple(v + 1 for v, d in enumerate(deg) if d == 0)
    odd = tuple(v + 1 for v, d in enumerate(deg) if d % 2 == 1)
    empty = tuple(i + 1 for i, e in enumerate(h.edges) if not e)
    repeats = tuple(i + 1 for i, e in enumerate(h.edges) if len(set(e)) != len(e))
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, e in enumerate(h.edges):
        groups.setdefault(e, []).append(i + 1)
    duplicates = tuple(tuple(g) for g in groups.values() if len(g) > 1)
    diag = Diagnostics(deg, isolated, odd, empty, duplicates, repeats)
    return diag.ok, diag


def incidence_matrix(h: Hypergraph) -> BitMatrix:
    """Vertex x edge matrix with entry (i, j) = 1 iff vertex i+1 lies in edge j."""
    for i, e in enumerate(h.edges):
        if len(set(e)) != len(e):
            raise ValueError(f"edge {i + 1} repeats a vertex; incidence matrix undefined")
    rows = [0] * h.vertex_count
    for j, e in enumerate(h.edges):
        for v in e:
            rows[v - 1] |= 1 << j
    return BitMatrix(len(h.edges), tuple(rows))


def dual(h: Hypergraph) -> Hypergraph:
    """Swap the roles of vertices and edges, preserving multiplicities.

    Dual vertex i stands for edge i of h; dual edge j collects (with
    multiplicity) the h-edges containing vertex j.
    """
    out_edges: list[list[int]] = [[] for _ in range(h.vertex_count)]
    for i, e in enumerate(h.edges):
        for v in e:
            out_edges[v - 1].append(i + 1)
    return Hypergraph.from_edges(out_edges, vertex_count=len(h.edges))


@dataclass(frozen=True)
class DegreeProfile:
    """Histograms of vertex degrees and edge sizes, Table-style."""

    vertex_degrees: tuple[tuple[int, int], ...]  # (degree, count), degree-ascending
    edge_sizes: tuple[tuple[int, int], ...]  # (size, count), size-ascending

    @staticmethod
    def _render(pairs: tuple[tuple[int, int], ...]) -> str:
        return " + ".join(f"{count}_{value}" for value, count in pairs)

    def render_vertices(self) -> str:
        return self._render(self.vertex_degrees)

    def render_edges(self) -> str:
        return self._render(self.edge_sizes)


def degree_profile(h: Hypergraph) -> DegreeProfile:
    deg_hist = Counter(d for d in h.degrees())
    size_hist = Counter(len(e) for e in h.edges)
    return DegreeProfile(
        tuple(sorted(deg_hist.items())),
        tuple(sorted(size_hist.items())),
    )


__all__ = [
    "Hypergraph",
    "Diagnostics",
    "DegreeProfile",
    "EdgeListParseError",
    "parse_edge_list",
    "serialize_edge_list",
    "is_proper_eulerian",
    "incidence_matrix",
    "dual",
    "degree_profile",
]
