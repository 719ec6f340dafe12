"""Reduction of non-minimal hypergraphs driven by non-reduced Gram matrices.

A magic Gram matrix with zero rows or repeated rows encodes a smaller
magic hypergraph: zero-row vertices carry the identity operator and are
deleted, identical-row vertices carry the same operator and are merged,
after which vertex and edge multiplicities are flattened modulo 2.  The
matrix restricted to the surviving representatives stays magic for the
result, so the process recurses until every magic Gram matrix is reduced,
i.e. until the hypergraph is minimal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .gf2 import BitMatrix, _span_blocks, null_space_basis, solve_affine
from .gram import (
    NoMagicGramError,
    _defect_systems,
    _gray_enumerate,
    fast_magic_parity,
    is_magic_gram,
    is_reduced,
    valid_gram_space,
    validate_gram,
)
from .hypergraph import Hypergraph, is_proper_eulerian


class RecipeError(ValueError):
    """Inconsistent reduction recipe."""


@dataclass(frozen=True)
class ReductionRecipe:
    """Explicit delete-and-identify instructions over original vertex labels."""

    deleted_vertices: frozenset[int]
    identification: tuple[tuple[int, tuple[int, ...]], ...]  # (new id, sorted preimages)
    notes: str = ""

    @classmethod
    def build(
        cls,
        deleted: Iterable[int],
        identification: dict[int, Iterable[int]] | None,
        notes: str = "",
    ) -> "ReductionRecipe":
        ident = tuple(
            sorted((int(k), tuple(sorted(vs))) for k, vs in (identification or {}).items())
        )
        return cls(frozenset(int(v) for v in deleted), ident, notes)

    def to_json_dict(self) -> dict:
        return {
            "delete": sorted(self.deleted_vertices),
            "identify": {str(k): list(vs) for k, vs in self.identification},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ReductionRecipe":
        return cls.build(doc.get("delete", []), {int(k): v for k, v in doc.get("identify", {}).items()})


@dataclass(frozen=True)
class ReductionSnapshots:
    """Edge lists after each stage, before the output hypergraph is formed."""

    after_deletion: tuple[tuple[int, ...], ...]
    after_identification: tuple[tuple[int, ...], ...]
    after_vertex_mod2: tuple[tuple[int, ...], ...]
    after_edge_mod2: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ReductionTrace:
    input: Hypergraph
    gram: BitMatrix
    recipe: ReductionRecipe
    snapshots: ReductionSnapshots
    output: Hypergraph
    reduced_gram: BitMatrix


def _validate_recipe(h: Hypergraph, recipe: ReductionRecipe) -> dict[int, int]:
    """Check partition consistency; return old-vertex -> new-vertex map."""
    m = h.vertex_count
    for v in recipe.deleted_vertices:
        if not 1 <= v <= m:
            raise RecipeError(f"deleted vertex {v} outside 1..{m}")
    survivors = set(range(1, m + 1)) - recipe.deleted_vertices
    if recipe.identification:
        new_ids = [k for k, _ in recipe.identification]
        if sorted(new_ids) != list(range(1, len(new_ids) + 1)):
            raise RecipeError("new vertex ids must be 1..K")
        mapping: dict[int, int] = {}
        for new, pre in recipe.identification:
            if not pre:
                raise RecipeError(f"empty preimage for new vertex {new}")
            for v in pre:
                if v in recipe.deleted_vertices:
                    raise RecipeError(f"preimage of {new} references deleted vertex {v}")
                if v in mapping:
                    raise RecipeError(f"vertex {v} appears in two preimages")
                if not 1 <= v <= m:
                    raise RecipeError(f"preimage vertex {v} outside 1..{m}")
                mapping[v] = new
        uncovered = survivors - mapping.keys()
        if uncovered:
            raise RecipeError(f"surviving vertices not covered: {sorted(uncovered)}")
        return mapping
    # Identity identification: survivors keep their order, compacted.
    return {v: rank + 1 for rank, v in enumerate(sorted(survivors))}


def _apply_steps(h: Hypergraph, mapping: dict[int, int]) -> tuple[ReductionSnapshots, Hypergraph]:
    after_deletion = tuple(
        tuple(v for v in e if v in mapping) for e in h.edges
    )
    after_identification = tuple(
        tuple(sorted(mapping[v] for v in e)) for e in after_deletion
    )
    after_vertex_mod2 = tuple(
        tuple(sorted(v for v in set(e) if e.count(v) % 2 == 1)) for e in after_identification
    )
    counts: dict[tuple[int, ...], int] = {}
    for e in after_vertex_mod2:
        counts[e] = counts.get(e, 0) + 1
    seen: set[tuple[int, ...]] = set()
    after_edge_mod2 = []
    for e in after_vertex_mod2:
        if e and counts[e] % 2 == 1 and e not in seen:
            after_edge_mod2.append(e)
            seen.add(e)
    after_edge_mod2 = tuple(after_edge_mod2)
    num_new = max(mapping.values(), default=0)
    out = Hypergraph(num_new, after_edge_mod2, name=None)
    return (
        ReductionSnapshots(after_deletion, after_identification, after_vertex_mod2, after_edge_mod2),
        out,
    )


def apply_recipe(h: Hypergraph, recipe: ReductionRecipe) -> Hypergraph:
    """Deterministic replay of delete / identify / mod-2 flattening steps."""
    mapping = _validate_recipe(h, recipe)
    _, out = _apply_steps(h, mapping)
    return out


def recipe_from_gram(h: Hypergraph, g: BitMatrix) -> ReductionRecipe:
    """Derive the recipe a Gram matrix dictates: zero rows are deletions,
    equal-row classes merge, and classes take new ids by ascending minimum
    preimage."""
    deleted = [i + 1 for i in range(h.vertex_count) if g.rows[i] == 0]
    classes: dict[int, list[int]] = {}
    for i in range(h.vertex_count):
        row = g.rows[i]
        if row:
            classes.setdefault(row, []).append(i + 1)
    ordered = sorted(classes.values(), key=min)
    identification = {new + 1: tuple(pre) for new, pre in enumerate(ordered)}
    return ReductionRecipe.build(deleted, identification)


def reduce_with(h: Hypergraph, g: BitMatrix) -> ReductionTrace:
    """Run one reduction round with a magic, non-reduced Gram matrix.

    The output hypergraph is proper Eulerian and the restricted matrix is
    re-verified to be one of its magic Gram matrices.  Vertices whose every
    incident edge cancels in the mod-2 steps end up isolated; they are
    folded into the deletions and the steps replayed, which provably
    leaves all other edges untouched (mod-2 counting is a homomorphism
    under removing a vertex from every edge containing it).
    """
    problems = validate_gram(h, g)
    if problems:
        raise ValueError("not a valid Gram matrix: " + "; ".join(problems[:3]))
    if fast_magic_parity(h, g) != 1:
        raise ValueError("Gram matrix is not magic")
    if is_reduced(g):
        raise ValueError("Gram matrix is already reduced; nothing to do")
    recipe = recipe_from_gram(h, g)
    mapping = _validate_recipe(h, recipe)
    snapshots, out = _apply_steps(h, mapping)
    isolated = [v + 1 for v, d in enumerate(out.degrees()) if d == 0]
    if isolated:
        classes = dict(recipe.identification)
        extra_deleted = [v for new in isolated for v in classes.pop(new)]
        survivors = sorted(classes.values(), key=min)
        recipe = ReductionRecipe.build(
            sorted(recipe.deleted_vertices | set(extra_deleted)),
            {i + 1: pre for i, pre in enumerate(survivors)},
        )
        mapping = _validate_recipe(h, recipe)
        snapshots, out = _apply_steps(h, mapping)
    reps = [min(pre) for _, pre in recipe.identification]
    reduced = BitMatrix(
        len(reps),
        tuple(
            sum(((g.rows[a - 1] >> (b - 1)) & 1) << jb for jb, b in enumerate(reps))
            for a in reps
        ),
    )
    ok, diag = is_proper_eulerian(out)
    if not ok:
        raise AssertionError(f"reduction produced a non-proper-Eulerian hypergraph: {diag}")
    if not is_magic_gram(out, reduced):
        raise AssertionError("reduced matrix is not magic for the output hypergraph")
    return ReductionTrace(h, g, recipe, snapshots, out, reduced)


def canonical_edges(h: Hypergraph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Identity-labeling canonical form used to de-duplicate search output."""
    return h.vertex_count, tuple(sorted(h.edges))


def _bipartite_graph(h: Hypergraph):
    import networkx as nx

    g = nx.Graph()
    for v in range(1, h.vertex_count + 1):
        g.add_node(("v", v), part="v")
    for j, e in enumerate(h.edges):
        g.add_node(("e", j), part="e")
        for v in e:
            g.add_edge(("v", v), ("e", j))
    return g


def isomorphism_key(h: Hypergraph) -> tuple:
    """Fast isomorphism-invariant fingerprint (complete in practice, not provably)."""
    import networkx as nx

    from .hypergraph import degree_profile

    prof = degree_profile(h)
    wl = nx.weisfeiler_lehman_graph_hash(_bipartite_graph(h), node_attr="part", iterations=4)
    return (h.vertex_count, h.num_edges, prof.vertex_degrees, prof.edge_sizes, wl)


def are_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """Exact hypergraph isomorphism via the colored bipartite incidence graph."""
    import networkx as nx

    if (a.vertex_count, a.num_edges) != (b.vertex_count, b.num_edges):
        return False
    if sorted(len(e) for e in a.edges) != sorted(len(e) for e in b.edges):
        return False
    return nx.vf2pp_is_isomorphic(_bipartite_graph(a), _bipartite_graph(b), node_label="part")


class _IsoClasses:
    """Maintains one representative per isomorphism class, first found wins."""

    def __init__(self):
        self.buckets: dict[tuple, list[Hypergraph]] = {}

    def add(self, h: Hypergraph) -> bool:
        """Insert h; True when it opened a new class."""
        key = isomorphism_key(h)
        bucket = self.buckets.setdefault(key, [])
        for rep in bucket:
            if are_isomorphic(h, rep):
                return False
        bucket.append(h)
        return True

    def representatives(self) -> tuple[Hypergraph, ...]:
        return tuple(h for bucket in self.buckets.values() for h in bucket)


@dataclass(frozen=True)
class DescentReport:
    """Search outcome: representatives are one hypergraph per isomorphism
    class; ``labeled_copies`` keeps every distinct identity-labeled output
    encountered on the way (the same structure reappears under many
    labelings, one per reduction path)."""

    minimal: tuple[Hypergraph, ...]  # one representative per isomorphism class
    labeled_copies: tuple[Hypergraph, ...]
    already_minimal: bool
    nodes_expanded: int
    matrices_inspected: int
    complete: bool
    elapsed_seconds: float


@dataclass
class _Budget:
    max_nodes: int
    deadline: float | None
    exhausted: bool = False

    def charge_node(self, expanded: int) -> bool:
        if expanded >= self.max_nodes or self.out_of_time():
            self.exhausted = True
            return False
        return True

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


#: Matrices per scanned block: 2^_LOW_BLOCK.
_LOW_BLOCK = 14

#: Largest magic space, in matrix rows (2^d * m), decided by a block scan
#: rather than by defect solves.
_SCAN_ROWS = 1 << 25


def _reducible_rows(block: np.ndarray) -> np.ndarray:
    """Per matrix of a (count, m) uint64 block: has a zero row or two equal rows."""
    srt = np.sort(block, axis=1)
    return (srt[:, 0] == 0) | (srt[:, 1:] == srt[:, :-1]).any(axis=1)


def _reducible_signatures(h: Hypergraph, offset: BitMatrix, nonmagic, gram_cap: int, stats: dict):
    """Yield one (signature, matrix) per distinct reduction outcome.

    Signature = (deleted set, equal-row partition).  Exhaustive under the
    cap; beyond it, walks each zero-row / equal-row affine slice instead
    (sampled deterministically), which is where all reducible matrices live.
    """
    d = len(nonmagic)
    m = h.vertex_count
    seen: set = set()

    def signature(rows: tuple[int, ...]):
        classes: dict[int, list[int]] = {}
        zero = []
        for i, r in enumerate(rows):
            if r == 0:
                zero.append(i)
            else:
                classes.setdefault(r, []).append(i)
        if not zero and all(len(c) == 1 for c in classes.values()):
            return None
        return (tuple(zero), tuple(sorted(tuple(c) for c in classes.values())))

    if d <= gram_cap:
        # Batched scan: rows fit in uint64 for every bundled instance, so
        # blocks of candidate matrices are screened for reducibility together.
        if m <= 64:
            for block in _span_blocks(offset.rows, [b.rows for b in nonmagic], _LOW_BLOCK):
                stats["inspected"] += block.shape[0]
                for idx in np.nonzero(_reducible_rows(block))[0]:
                    rows = tuple(int(r) for r in block[idx])
                    sig = signature(rows)
                    if sig is not None and sig not in seen:
                        seen.add(sig)
                        yield sig, BitMatrix(m, rows)
            return
        basis_rows = [list(b.rows) for b in nonmagic]
        for _, rows in _gray_enumerate(list(offset.rows), basis_rows):
            stats["inspected"] += 1
            sig = signature(tuple(rows))
            if sig is not None and sig not in seen:
                seen.add(sig)
                yield sig, BitMatrix(m, tuple(rows))
        return

    # Affine-guided sampling: enumerate solutions of each defect system,
    # capped per defect.
    per_defect = 1 << 12
    for _, eqs, rhs in _defect_systems(offset, nonmagic):
        x0 = solve_affine(eqs, rhs, d)
        if x0 is None:
            continue
        kernel = null_space_basis(BitMatrix(d, tuple(eqs)))
        xs = [x0.bits]
        for kv in kernel:
            if len(xs) >= per_defect:
                break
            xs = xs + [x ^ kv.bits for x in xs]
        for x in xs[:per_defect]:
            stats["inspected"] += 1
            rows = list(offset.rows)
            for l in range(d):
                if (x >> l) & 1:
                    rows = [a ^ b for a, b in zip(rows, nonmagic[l].rows)]
            sig = signature(tuple(rows))
            if sig is not None and sig not in seen:
                seen.add(sig)
                yield sig, BitMatrix(m, tuple(rows))


def _has_reducible_magic_matrix(offset: BitMatrix, nonmagic, gram_cap: int) -> bool:
    """True iff some matrix in offset + span(nonmagic) has a zero or repeated row.

    A block scan when the space holds at most ``_SCAN_ROWS`` matrix rows,
    affine defect solves otherwise (both are exact answers to the
    existence question).
    """
    d = len(nonmagic)
    m = offset.num_rows
    if m <= 64 and d <= gram_cap and m << d <= _SCAN_ROWS:
        blocks = _span_blocks(offset.rows, [b.rows for b in nonmagic], _LOW_BLOCK)
        return any(_reducible_rows(block).any() for block in blocks)
    return any(
        solve_affine(eqs, rhs, d) is not None
        for _, eqs, rhs in _defect_systems(offset, nonmagic)
    )


def find_minimal_descendants(
    h: Hypergraph,
    max_nodes: int = 10_000,
    max_seconds: float | None = 3600.0,
    gram_cap: int = 20,
) -> DescentReport:
    """Collect the minimal hypergraphs reachable by repeated reductions.

    Exhaustive whenever every visited hypergraph's magic space fits the
    enumeration cap and the budget is not exhausted; the report says which.
    Distinct reduction paths reproduce the same structure under different
    labelings, so results are classed up to isomorphism, and isomorphic
    intermediates are expanded only once (relabeling a hypergraph relabels
    its reductions along with it, so descendant classes are unaffected).
    """
    t0 = time.monotonic()
    budget = _Budget(max_nodes, None if max_seconds is None else t0 + max_seconds)
    space = valid_gram_space(h)
    if space.magic_offset is None:
        raise NoMagicGramError(f"{h.name or 'hypergraph'} admits no magic Gram matrix")

    minimal = _IsoClasses()
    labeled: dict = {}
    visited_iso = _IsoClasses()
    visited: set = set()
    classified: set = set()  # child keys already routed to results or queue
    complete = True
    stats = {"inspected": 0}
    expanded = 0
    queue: list[Hypergraph] = [h]
    any_reducible_at_root = False

    while queue:
        current = queue.pop()
        key = canonical_edges(current)
        if key in visited:
            continue
        visited.add(key)
        if current is not h and not visited_iso.add(current):
            continue
        if not budget.charge_node(expanded):
            complete = False
            break
        expanded += 1
        sp = space if current is h else valid_gram_space(current)
        if sp.magic_offset is None:
            continue
        if len(sp.nonmagic_basis) > gram_cap:
            complete = False
        children: list[Hypergraph] = []
        for sig, matrix in _reducible_signatures(
            current, sp.magic_offset, sp.nonmagic_basis, gram_cap, stats
        ):
            if current is h:
                any_reducible_at_root = True
            if budget.out_of_time():
                complete = False
                break
            trace = reduce_with(current, matrix)
            child = trace.output
            ckey = canonical_edges(child)
            if ckey in classified or ckey in visited:
                continue
            classified.add(ckey)
            child_space = valid_gram_space(child)
            if child_space.magic_offset is None:
                raise AssertionError("reduction output lost its magic Gram matrix")
            if _has_reducible_magic_matrix(
                child_space.magic_offset, child_space.nonmagic_basis, gram_cap
            ):
                children.append(child)
            else:
                labeled[ckey] = child
                minimal.add(child)
        queue.extend(children)

    return DescentReport(
        minimal=minimal.representatives(),
        labeled_copies=tuple(labeled.values()),
        already_minimal=not any_reducible_at_root,
        nodes_expanded=expanded,
        matrices_inspected=stats["inspected"],
        complete=complete,
        elapsed_seconds=time.monotonic() - t0,
    )


__all__ = [
    "ReductionRecipe",
    "ReductionSnapshots",
    "ReductionTrace",
    "DescentReport",
    "RecipeError",
    "apply_recipe",
    "recipe_from_gram",
    "reduce_with",
    "find_minimal_descendants",
    "canonical_edges",
]
