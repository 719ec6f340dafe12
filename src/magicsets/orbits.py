"""Vertex-transitive candidate hypergraphs from permutation-group orbits.

Given generators of a group acting on {1..N}, the orbits of the action on
s-subsets partition them; an orbit of exactly 4N/s subsets is the edge set
of a 4-regular vertex-transitive hypergraph candidate.  The group database
is the caller's problem; this module only closes orbits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Hashable, Iterable, Sequence

from .hypergraph import Hypergraph, _integer, is_proper_eulerian

#: Refuse to materialize more s-subsets than this.
DEFAULT_SUBSET_CAP = 2_000_000


class OrbitCapError(ValueError):
    pass


@dataclass(frozen=True)
class PermutationGroup:
    """Generators as image tuples: generator g maps point i to images[i-1]."""

    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for g in self.generators:
            if sorted(g) != list(range(1, self.degree + 1)):
                raise ValueError(f"not a permutation of 1..{self.degree}: {g}")

    @classmethod
    def from_images(cls, degree: int, generators: Iterable[Sequence[int]]) -> "PermutationGroup":
        return cls(degree, tuple(tuple(g) for g in generators))

    @classmethod
    def from_json(cls, text: str) -> "PermutationGroup":
        """Read {"degree": n, "generators": [[images of 1..n], ...]};
        ValueError when the document has another shape."""
        doc = json.loads(text)
        if not isinstance(doc, dict) or not {"degree", "generators"} <= doc.keys():
            raise ValueError('a permutation group document needs "degree" and "generators"')
        gens = doc["generators"]
        if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
            raise ValueError(f"generators must be a list of image lists, got {gens!r}")
        return cls.from_images(
            _integer(doc["degree"], "degree"),
            [[_integer(v, "generator image") for v in g] for g in gens],
        )

    def to_json(self) -> str:
        return json.dumps({"degree": self.degree, "generators": [list(g) for g in self.generators]})

    def apply(self, g: tuple[int, ...], subset: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted(g[v - 1] for v in subset))

    def vertex_orbit(self, v: int) -> frozenset[int]:
        return frozenset(orbit(v, lambda u: (g[u - 1] for g in self.generators)))


def orbit(seed: Hashable, images: Callable[[Hashable], Iterable[Hashable]]) -> list:
    """The closure of ``seed`` under ``images`` (a point's images under
    each generator), breadth-first: points in the order they are found,
    seed first."""
    points = [seed]
    seen = {seed}
    for point in points:  # grows while it is walked
        for image in images(point):
            if image not in seen:
                seen.add(image)
                points.append(image)
    return points


def subset_orbits(
    group: PermutationGroup, s: int, cap: int = DEFAULT_SUBSET_CAP
) -> list[list[tuple[int, ...]]]:
    """Orbits of the action on s-subsets, as sorted lists of sorted tuples.

    Breadth-first closure from each unvisited subset, subsets visited in
    lexicographic order; the orbit list is deterministic.
    """
    n = group.degree
    if not 1 <= s <= n:
        raise ValueError(f"subset size {s} outside 1..{n}")
    total = comb(n, s)
    if total > cap:
        raise OrbitCapError(f"{total} subsets of size {s} exceed the cap {cap}")
    visited: set[tuple[int, ...]] = set()
    orbits: list[list[tuple[int, ...]]] = []
    for seed in combinations(range(1, n + 1), s):
        if seed in visited:
            continue
        found = orbit(seed, lambda sub: (group.apply(g, sub) for g in group.generators))
        visited.update(found)
        orbits.append(sorted(found))
    return orbits


def group_preserves_edges(h: Hypergraph, group: PermutationGroup) -> bool:
    """True when every generator permutes the edge multiset of h."""
    if group.degree != h.vertex_count:
        return False
    edges = sorted(h.edges)
    for g in group.generators:
        mapped = sorted(tuple(sorted(g[v - 1] for v in e)) for e in h.edges)
        if mapped != edges:
            return False
    return True


def is_vertex_transitive_under(h: Hypergraph, group: PermutationGroup) -> bool:
    return (
        group_preserves_edges(h, group)
        and h.vertex_count > 0
        and group.vertex_orbit(1) == frozenset(range(1, h.vertex_count + 1))
    )


def candidate_hypergraphs(
    group: PermutationGroup, s: int, cap: int = DEFAULT_SUBSET_CAP
) -> list[Hypergraph]:
    """One hypergraph per orbit of exactly 4N/s subsets, 4-regular by counting.

    Regularity and the proper-Eulerian property are re-checked on every
    candidate rather than trusted.
    """
    n = group.degree
    if (4 * n) % s != 0:
        return []
    target = 4 * n // s
    out = []
    for orbit in subset_orbits(group, s, cap=cap):
        if len(orbit) != target:
            continue
        h = Hypergraph(n, tuple(orbit))
        ok, _ = is_proper_eulerian(h)
        if ok and all(d == 4 for d in h.degrees()):
            out.append(h)
    return out


def z3_translation_group() -> PermutationGroup:
    """Translations of the 27 points of Z_3^3 in the ms327 vertex order."""
    idx = {(x, y, z): 1 + 9 * x + 3 * y + z for x in range(3) for y in range(3) for z in range(3)}
    gens = []
    for shift in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        images = [0] * 27
        for (x, y, z), i in idx.items():
            j = idx[((x + shift[0]) % 3, (y + shift[1]) % 3, (z + shift[2]) % 3)]
            images[i - 1] = j
        gens.append(tuple(images))
    return PermutationGroup(27, tuple(gens))


def ms327_hypergraph() -> Hypergraph:
    """27 observables on Z_3^3 coordinates, contexts = all translates of the
    starter {(0,0,0), (1,0,0), (0,1,0), (0,0,1)}.

    Vertices are indexed lexicographically: (x, y, z) -> 1 + 9x + 3y + z.
    Edges are listed by translation (a, b, c) in lexicographic order.
    """
    idx = lambda x, y, z: 1 + 9 * x + 3 * y + z  # noqa: E731
    starter = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    edges = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                edges.append(
                    tuple(sorted(idx((x + a) % 3, (y + b) % 3, (z + c) % 3) for x, y, z in starter))
                )
    return Hypergraph(27, tuple(edges), name="MS3-27")


__all__ = [
    "PermutationGroup",
    "OrbitCapError",
    "DEFAULT_SUBSET_CAP",
    "orbit",
    "subset_orbits",
    "candidate_hypergraphs",
    "group_preserves_edges",
    "is_vertex_transitive_under",
    "z3_translation_group",
    "ms327_hypergraph",
]
