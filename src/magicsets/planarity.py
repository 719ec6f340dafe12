"""Graph planarity decided through magic Gram matrices of the dual.

A simple graph, read as a hypergraph, has a dual whose vertices are the
graph's edges and whose hyperedges are the vertex neighbourhoods.  The
graph is nonplanar exactly when the dual's valid Gram space contains a
magic matrix, i.e. when the parity mask lies outside the validity
equations' row space; ``valid_gram_space`` decides that from one
elimination, without the kernel.  Degree-0/1 vertices never affect
planarity but break the dual's Eulerian precondition, so they are pruned
first.  The dual of the pruned graph is then proper Eulerian: each graph
edge lies in exactly two neighbourhoods, every neighbourhood has at least
two edges, and two vertices share at most one edge, so no two
neighbourhoods coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitMatrix
from .gram import valid_gram_space
from .hypergraph import Hypergraph, dual


class NotASimpleGraphError(ValueError):
    pass


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    certificate: BitMatrix | None  # magic Gram matrix of the pruned dual, if nonplanar
    certificate_edges: tuple[tuple[int, ...], ...]  # graph edges indexing the certificate
    pruned_vertices: tuple[int, ...]


def _check_simple_graph(g: Hypergraph) -> None:
    seen = set()
    for i, e in enumerate(g.edges):
        if len(e) != 2:
            raise NotASimpleGraphError(f"edge {i + 1} has size {len(e)}, expected 2")
        if e[0] == e[1]:
            raise NotASimpleGraphError(f"edge {i + 1} is a loop at {e[0]}")
        if e in seen:
            raise NotASimpleGraphError(f"edge {i + 1} duplicates {e}")
        seen.add(e)


def _prune_low_degree(g: Hypergraph) -> tuple[Hypergraph, tuple[int, ...]]:
    """Iteratively drop vertices of degree 0 or 1 (with their pendant edges)."""
    edges = list(g.edges)
    alive = set(range(1, g.vertex_count + 1))
    pruned: list[int] = []
    while True:
        deg = {v: 0 for v in alive}
        for e in edges:
            for v in e:
                deg[v] += 1
        low = [v for v in alive if deg[v] <= 1]
        if not low:
            break
        pruned.extend(low)
        alive -= set(low)
        edges = [e for e in edges if all(v in alive for v in e)]
    relabel = {v: i + 1 for i, v in enumerate(sorted(alive))}
    new_edges = [tuple(sorted(relabel[v] for v in e)) for e in edges]
    return Hypergraph(len(alive), tuple(new_edges)), tuple(sorted(pruned))


def is_planar_via_gram(g: Hypergraph) -> PlanarityResult:
    """Planarity decision; nonplanar results carry a certificate matrix.

    The certificate is a magic Gram matrix over the surviving graph edges
    (listed in ``certificate_edges``); it encodes the operations locating a
    topological K5 or K33 minor, though no decoder is provided here.
    """
    _check_simple_graph(g)
    core, pruned = _prune_low_degree(g)
    if core.num_edges == 0:
        return PlanarityResult(True, None, (), pruned)
    space = valid_gram_space(dual(core))
    if space.magic_offset is None:
        return PlanarityResult(True, None, (), pruned)
    # Undo the pruning relabel so certificate rows speak original vertex ids.
    alive = sorted(set(range(1, g.vertex_count + 1)) - set(pruned))
    unlabel = {i + 1: v for i, v in enumerate(alive)}
    cert_edges = tuple(tuple(unlabel[v] for v in e) for e in core.edges)
    return PlanarityResult(False, space.magic_offset, cert_edges, pruned)


__all__ = ["PlanarityResult", "NotASimpleGraphError", "is_planar_via_gram"]
