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

from .gf2 import BitMatrix, _affine_solutions, _block_low, _span_blocks
from .gram import (
    GramSpace,
    _DeadlineReached,
    _check_deadline,
    _defects,
    _has_reducible_matrix,
    _magic_space,
    _matrix_of_words,
    _reducible_rows,
    _row_keys,
    _words,
    fast_magic_parity,
    is_magic_gram,
    is_reduced,
    valid_gram_space,
    validate_gram,
)
from .hypergraph import Hypergraph, _integer, is_proper_eulerian
from .orbits import orbit


class RecipeError(ValueError):
    """Inconsistent reduction recipe."""


@dataclass(frozen=True)
class ReductionRecipe:
    """Explicit delete-and-identify instructions over original vertex labels."""

    deleted_vertices: frozenset[int]
    identification: tuple[tuple[int, tuple[int, ...]], ...]  # (new id, sorted preimages)

    @classmethod
    def build(
        cls, deleted: Iterable[int], identification: dict[int, Iterable[int]] | None
    ) -> "ReductionRecipe":
        ident = tuple(
            sorted((int(k), tuple(sorted(vs))) for k, vs in (identification or {}).items())
        )
        return cls(frozenset(int(v) for v in deleted), ident)

    def to_json_dict(self) -> dict:
        return {
            "delete": sorted(self.deleted_vertices),
            "identify": {str(k): list(vs) for k, vs in self.identification},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ReductionRecipe":
        """Read {"delete": [...], "identify": {"new id": [...], ...}}, both
        keys optional; RecipeError when the document has another shape."""
        if not isinstance(doc, dict):
            raise RecipeError(f"a recipe must be a JSON object, got {doc!r}")
        deleted = doc.get("delete", [])
        identify = doc.get("identify", {})
        if not isinstance(deleted, list):
            raise RecipeError(f'"delete" must be a list of vertices, got {deleted!r}')
        if not isinstance(identify, dict) or not all(isinstance(vs, list) for vs in identify.values()):
            raise RecipeError(f'"identify" must map new vertex ids to vertex lists, got {identify!r}')
        return cls.build(
            [_integer(v, "deleted vertex") for v in deleted],
            {int(k): [_integer(v, "preimage vertex") for v in vs] for k, vs in identify.items()},
        )


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


def _reduction(h: Hypergraph, g: BitMatrix) -> tuple[ReductionRecipe, ReductionSnapshots, Hypergraph]:
    """The recipe g dictates, run: (recipe, snapshots, output), unchecked.

    Vertices whose every incident edge cancels in the mod-2 steps end up
    isolated; they are folded into the deletions and the steps replayed,
    which provably leaves all other edges untouched (mod-2 counting is a
    homomorphism under removing a vertex from every edge containing it).
    The result depends on g only through its zero rows and its equal-row
    partition.
    """
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
    return recipe, snapshots, out


def _odd_masks(masks: list[int]) -> list[int]:
    """The nonzero masks occurring an odd number of times, in order of
    first occurrence: mod-2 flattening of the contexts."""
    parity: dict[int, int] = {}
    for x in masks:
        parity[x] = parity.get(x, 0) ^ 1
    return [x for x, odd in parity.items() if odd and x]


def _child(h: Hypergraph, sig: tuple) -> tuple[Hypergraph, list[int]]:
    """``_reduction``'s output for a signature (zero rows, equal-row
    classes), from bit masks: (output, least vertex of each surviving
    class).

    Class k, classes ordered by least vertex as ``recipe_from_gram``
    numbers them, is bit k, and a zero-row vertex no bit.  A context's
    mask, the XOR of its vertices' bits, is its mod-2 vertex multiplicity,
    and ``_odd_masks`` flattens the contexts.  Classes in no kept mask are
    isolated: they are cleared from every mask and the flattening redone,
    which keeps the same contexts in ``_reduction``'s replayed order (two
    contexts that differed only in isolated classes now coincide).
    Surviving classes are renumbered in order.
    """
    classes = sig[1]
    bit = [0] * (h.vertex_count + 1)
    for k, c in enumerate(classes):
        for v in c:
            bit[v + 1] = 1 << k
    masks = []
    for e in h.edges:
        x = 0
        for v in e:
            x ^= bit[v]
        masks.append(x)
    kept = _odd_masks(masks)
    used = 0
    for x in kept:
        used |= x
    survivors = [k for k in range(len(classes)) if used >> k & 1]
    if len(survivors) < len(classes):
        kept = _odd_masks([x & used for x in masks])
    ids = [0] * len(classes)
    for new, k in enumerate(survivors):
        ids[k] = new + 1
    edges = []
    for x in kept:
        e = []
        while x:
            low = x & -x
            e.append(ids[low.bit_length() - 1])
            x ^= low
        edges.append(tuple(e))
    return Hypergraph(len(survivors), tuple(edges)), [classes[k][0] + 1 for k in survivors]


def _checked_reduction(h: Hypergraph, g: BitMatrix, build) -> tuple[Hypergraph, BitMatrix]:
    """Run ``build()`` -> (output, representatives) for the reduction g
    dictates, between ``reduce_with``'s checks: g is a valid, magic,
    non-reduced Gram matrix of h (ValueError otherwise), the output is
    proper Eulerian and g restricted to the representatives is one of its
    magic Gram matrices (AssertionError otherwise).  Returns (output,
    restricted matrix)."""
    problems = validate_gram(h, g)
    if problems:
        raise ValueError("not a valid Gram matrix: " + "; ".join(problems[:3]))
    if fast_magic_parity(h, g) != 1:
        raise ValueError("Gram matrix is not magic")
    if is_reduced(g):
        raise ValueError("Gram matrix is already reduced; nothing to do")
    out, reps = build()
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
    return out, reduced


def reduce_with(h: Hypergraph, g: BitMatrix) -> ReductionTrace:
    """Run one reduction round with a magic, non-reduced Gram matrix.

    The output hypergraph is proper Eulerian and the restricted matrix is
    re-verified to be one of its magic Gram matrices.  Vertices left
    isolated by the mod-2 steps are deleted as well (see ``_reduction``).
    """
    recipe = snapshots = None

    def build():
        nonlocal recipe, snapshots
        recipe, snapshots, out = _reduction(h, g)
        return out, [min(pre) for _, pre in recipe.identification]

    out, reduced = _checked_reduction(h, g, build)
    return ReductionTrace(h, g, recipe, snapshots, out, reduced)


def canonical_edges(h: Hypergraph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Identity-labeling canonical form used to de-duplicate search output."""
    return h.vertex_count, tuple(sorted(h.edges))


def _refine(adj, lab: list, cell: list, size: list, pending: list) -> tuple:
    """Split cells of an ordered partition until it is equitable.

    The partition is ``lab`` (nodes in cell order), ``cell`` (node -> start
    of its cell in ``lab``) and ``size`` (cell start -> length).  A cell
    that splits keeps its range of ``lab``, its fragments ordered by their
    neighbour count in the splitter, so a cell start is a colour that
    depends on the graph and the partition, not on the labels.  Splitters
    come from ``pending``; a split cell queues its fragments, all but the
    first largest when the cell itself was not queued (counts into it are
    then already uniform).  Returns the split log (per split: the cell
    start, then count and size of each fragment), an invariant as well.
    """
    trace: list[int] = []
    stack = list(pending)
    queued = set(stack)
    while stack:
        w = stack.pop()
        queued.discard(w)
        count: dict[int, int] = {}
        get = count.get
        for x in lab[w : w + size[w]]:
            for y in adj[x]:
                count[y] = get(y, 0) + 1
        touched: dict[int, list[int]] = {}
        for y in count:
            s = cell[y]
            if size[s] > 1:
                if s in touched:
                    touched[s].append(y)
                else:
                    touched[s] = [y]
        for s in sorted(touched):
            sz = size[s]
            hit = touched[s]
            groups: dict[int, list[int]] = {}
            if len(hit) < sz:
                groups[0] = [y for y in lab[s : s + sz] if y not in count]
            for y in hit:
                k = count[y]
                if k in groups:
                    groups[k].append(y)
                else:
                    groups[k] = [y]
            if len(groups) == 1:
                continue
            trace.append(s)
            starts = []
            pos = s
            for k in sorted(groups):
                g = groups[k]
                n = len(g)
                lab[pos : pos + n] = g
                for y in g:
                    cell[y] = pos
                size[pos] = n
                starts.append(pos)
                trace += (k, n)
                pos += n
            if s not in queued:
                starts.remove(max(starts, key=size.__getitem__))
            for p in starts:
                if p not in queued:
                    stack.append(p)
                    queued.add(p)
    return tuple(trace)


def _orbit_roots(members: list[int], gens: list[list[int]]) -> dict[int, int]:
    """Orbit representative of each member under the group ``gens`` generate
    (every generator maps ``members`` onto itself)."""
    root = {x: x for x in members}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for g in gens:
        for x in members:
            a, b = find(x), find(g[x])
            if a != b:
                root[max(a, b)] = min(a, b)
    return {x: find(x) for x in members}


def isomorphism_key(h: Hypergraph) -> tuple:
    """Exact canonical certificate: equal for two hypergraphs iff isomorphic.

    Works on the incidence graph with vertices and contexts in two colour
    classes (a vertex repeated inside a context is a repeated incidence).
    Individualisation-refinement as in McKay & Piperno, "Practical graph
    isomorphism II" (J. Symb. Comput. 60, 2014): refine to an equitable
    partition, individualise each vertex of the first smallest non-singleton
    cell in turn, refine, and recurse down to discrete partitions (leaves).
    Each leaf relabels the hypergraph; leaves are ordered by their
    refinement traces, then by the relabelled contexts, and the least is
    the certificate.  Subtrees whose trace already exceeds the best leaf's
    are cut.  Two leaves with equal keys give an automorphism; the search
    then returns to the node where their paths part, and skips every
    vertex in the orbit of an explored sibling under the automorphisms
    found so far that fix the current prefix.
    """
    return _key_and_gens(h)[0]


def _key_and_gens(h: Hypergraph) -> tuple[tuple, list[list[int]]]:
    """``isomorphism_key``'s certificate and the automorphisms its search
    found, each as the image list of the 0-based vertices (contexts
    dropped).  They generate a subgroup of the automorphism group, which
    is all that orbit pruning needs."""
    m = h.vertex_count
    n = m + h.num_edges
    adj: list[list[int]] = [[] for _ in range(n)]
    for j, e in enumerate(h.edges):
        for v in e:
            adj[v - 1].append(m + j)
            adj[m + j].append(v - 1)
    lab = list(range(n))
    cell = [0] * m + [m] * (n - m)
    size = [0] * n
    starts = []
    for s, end in ((0, m), (m, n)):
        if s < end:
            size[s] = end - s
            starts.append(s)
    root_trace = (_refine(adj, lab, cell, size, starts),)
    gens: list[list[int]] = []
    best: list = []  # [traces, contexts, lab, path] of the least leaf
    first: list = []  # the same for the first leaf

    def leaf_contexts(lab: list[int]) -> tuple:
        pos = [0] * n
        for i, x in enumerate(lab):
            pos[x] = i
        return tuple(tuple(sorted(pos[y] for y in adj[x])) for x in lab[m:])

    def automorphism(lab: list[int], other: list[int]) -> list[int]:
        g = [0] * n
        for x, y in zip(lab, other):
            g[x] = y
        return g

    def search(lab, cell, size, traces, path) -> int | None:
        """Explore one node; an int is the level to return to."""
        if best and traces > best[0][: len(traces)]:
            return None
        t, tsize = -1, n + 1
        s = 0
        while s < n:
            if 1 < size[s] < tsize:
                t, tsize = s, size[s]
            s += size[s]
        if t < 0:
            contexts = leaf_contexts(lab)
            if not first:
                first[:] = best[:] = [traces, contexts, lab, path]
                return None
            for other in (first, best):
                if traces == other[0] and contexts == other[1]:
                    gens.append(automorphism(lab, other[2]))
                    level = 0
                    while path[level] == other[3][level]:
                        level += 1
                    return level
            if (traces, contexts) < (best[0], best[1]):
                best[:] = [traces, contexts, lab, path]
            return None
        level = len(path)
        explored: list[int] = []
        known = -1  # generators the orbits in ``roots`` were computed from
        for x in lab[t : t + tsize]:
            if explored:
                if known < len(gens):
                    known = len(gens)
                    fixing = [g for g in gens if all(g[p] == p for p in path)]
                    roots = _orbit_roots(lab[t : t + tsize], fixing)
                if roots[x] in {roots[y] for y in explored}:
                    continue
            explored.append(x)
            clab, ccell, csize = lab[:], cell[:], size[:]
            i = clab.index(x, t)
            clab[t], clab[i] = x, clab[t]
            ccell[x] = t
            csize[t], csize[t + 1] = 1, tsize - 1
            for y in clab[t + 1 : t + tsize]:
                ccell[y] = t + 1
            trace = _refine(adj, clab, ccell, csize, [t])
            back = search(clab, ccell, csize, traces + (trace,), path + [x])
            if back is not None and back < level:
                return back
        return None

    search(lab, cell, size, root_trace, [])
    return (m, best[1]), [g[:m] for g in gens]


def are_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """Exact hypergraph isomorphism: equal canonical certificates."""
    return isomorphism_key(a) == isomorphism_key(b)


@dataclass(frozen=True)
class DescentReport:
    """Search outcome: ``minimal`` holds one hypergraph per isomorphism
    class, the first copy of the class the search classified (a deep
    search may reach a class under several labelings, and which one comes
    first depends on the input's labels); ``labeled_copies`` keeps every
    distinct identity-labeled minimal output encountered on the way (the
    same structure reappears under many labelings, one per reduction
    path).  Orbit pruning leaves it whole: the orbit-mates of a signature
    with a minimal child build their own children, from bit masks, to add
    their copies.  Only one labelled copy of each intermediate class is
    expanded, and which one depends on the input's labels, so on deeper
    searches ``len(labeled_copies)`` does too: relabellings of one input
    can give different counts while the classes, nodes and matrices agree.
    ``nodes_expanded`` counts scanned hypergraphs and
    ``matrices_inspected`` the magic matrices their scans went through,
    pruned signatures included.  ``already_minimal`` is true when the
    root's scan finished and found no reducible magic matrix."""

    minimal: tuple[Hypergraph, ...]  # one representative per isomorphism class
    labeled_copies: tuple[Hypergraph, ...]
    already_minimal: bool
    nodes_expanded: int
    matrices_inspected: int
    complete: bool
    elapsed_seconds: float


def _row_labels(block: np.ndarray) -> np.ndarray:
    """Per matrix of a (count, m, W) uint64 block, each row's label: the
    least index of a row equal to it, or m for a zero row.  Equal label
    vectors mean equal signatures; returns (count, m) labels in the least
    unsigned dtype that holds m."""
    keys = _row_keys(block)
    count, m = keys.shape
    order = np.argsort(keys, axis=1, kind="stable")
    srt = np.take_along_axis(keys, order, axis=1)
    starts = np.ones((count, m), dtype=bool)
    starts[:, 1:] = srt[:, 1:] != srt[:, :-1]
    # A stable sort leads each run of equal rows with its least index.
    run_start = np.maximum.accumulate(np.where(starts, np.arange(m), 0), axis=1)
    least = np.take_along_axis(order, run_start, axis=1)
    least[srt == np.zeros((), srt.dtype)] = m
    labels = np.empty((count, m), dtype=np.min_scalar_type(m))
    np.put_along_axis(labels, order, least.astype(labels.dtype), axis=1)
    return labels


def _labels_signature(labels: list[int], m: int) -> tuple:
    """The signature (zero rows, equal-row classes) of a ``_row_labels`` vector."""
    classes: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        classes.setdefault(label, []).append(i)
    zero = tuple(classes.pop(m, ()))
    return zero, tuple(sorted(tuple(c) for c in classes.values()))


def _reducible_signatures(
    h: Hypergraph,
    offset: BitMatrix,
    nonmagic,
    gram_cap: int,
    stats: dict,
    deadline: float | None = None,
):
    """Yield one (signature, matrix) per distinct reduction outcome.

    Signature = (deleted set, equal-row partition).  Up to the cap the
    whole magic space is scanned in binary order, one ``_span_blocks``
    block at a time, at any row width; each block's reducible matrices
    are labelled by signature together (``_row_labels``) and the first
    matrix of every new signature is yielded.  Beyond the cap, every
    reducible matrix lies in a zero-row or equal-row affine slice, and up
    to 2^12 matrices of each solvable slice are sampled as one block: its
    particular solution shifted by the span of its first 12 kernel
    vectors, both read off the defect's columns (``_affine_solutions``),
    labelled the same way.  Raises ``_DeadlineReached`` once
    ``deadline`` (``time.monotonic``) has passed, checked once per scanned
    block or per affine slice.
    """
    d = len(nonmagic)
    m = h.vertex_count
    width = (m + 63) // 64
    vecs = np.array([_words(b, width) for b in nonmagic], dtype=np.uint64).reshape(d, m * width)
    seen: set = set()

    def new_signatures(block: np.ndarray):
        stats["inspected"] += block.shape[0]
        reducible = block[_reducible_rows(block)]
        labels = _row_labels(reducible)
        keys = labels.tobytes()
        step = m * labels.itemsize
        for k in range(reducible.shape[0]):
            key = keys[k * step : (k + 1) * step]
            if key not in seen:
                seen.add(key)
                yield _labels_signature(labels[k].tolist(), m), _matrix_of_words(m, reducible[k])

    if d <= gram_cap:
        for block in _span_blocks(_words(offset, width), vecs, _block_low(m * width)):
            _check_deadline(deadline)
            yield from new_signatures(block.reshape(-1, m, width))
        return

    def combinations(xs: list[int]) -> np.ndarray:
        """Per coefficient vector, XOR{nonmagic[l] : bit l set} as words."""
        take = np.array([[(x >> l) & 1 for l in range(d)] for x in xs], dtype=np.uint64)
        return np.bitwise_xor.reduce(vecs * take.reshape(len(xs), d, 1), axis=1)

    base = np.array(_words(offset, width), dtype=np.uint64)
    sample_low = 12
    for _, cols, target in _defects(offset, nonmagic):
        _check_deadline(deadline)
        solutions = _affine_solutions(cols, target)
        if solutions is None:
            continue
        x0, kernel = solutions
        start, *shifts = combinations([x0] + kernel[:sample_low])
        (block,) = _span_blocks(base ^ start, shifts, sample_low)
        yield from new_signatures(block.reshape(-1, m, width))


def _signature_labels(sig: tuple, m: int) -> tuple[int, ...]:
    """A signature (zero rows, equal-row classes) as ``_row_labels`` writes
    it: per vertex the least vertex of its class, m for a zero row."""
    labels = [m] * m
    for c in sig[1]:
        for v in c:
            labels[v] = c[0]
    return tuple(labels)


def _signature_orbit(labels: tuple[int, ...], gens: list[list[int]]) -> list[tuple]:
    """Every image of a reduction signature, as ``_signature_labels``,
    under the group ``gens`` generate (vertex permutations), found
    breadth-first from ``labels``.

    An automorphism maps a matrix with signature (zero rows, equal-row
    classes) to one whose signature is the image, with an isomorphic
    reduction, so a whole orbit reduces to one isomorphism class.  The
    inverses of the generators generate the same group, and the image
    under g's inverse gives vertex v the class of g[v]: relabelled by
    first occurrence, each class takes its least vertex.
    """
    m = len(labels)

    def images(labels: tuple):
        for g in gens:
            first = {m: m}
            yield tuple([first.setdefault(labels[u], v) for v, u in enumerate(g)])

    return orbit(labels, images)


def find_minimal_descendants(
    h: Hypergraph,
    max_nodes: int = 10_000,
    max_seconds: float | None = 3600.0,
    gram_cap: int = 20,
) -> DescentReport:
    """Collect the minimal hypergraphs reachable by repeated reductions.

    Exhaustive whenever every visited hypergraph's magic space fits the
    enumeration cap and the budget is not exhausted; the report says which.
    Past the cap a node's reductions are sampled, up to 2^12 matrices per
    solvable defect slice (``_reducible_signatures``).  Each new class is
    checked for minimality by the decision ``is_minimal`` makes
    (``gram._has_reducible_matrix``): a block scan up to ``_SCAN_ROWS``
    matrix rows, at any row width, one span-membership test per defect
    past that.
    The time budget is checked between reductions and once per scanned
    block, so a search overruns ``max_seconds`` by about one block scan.
    Distinct reduction paths reproduce the same structure under different
    labelings, so every child is classed by its canonical certificate
    (``isomorphism_key``) as soon as it is produced.  The first child of a
    class to be classified is its representative: a minimal one is
    reported, a reducible one is expanded, and later copies only add to
    ``labeled_copies``.  Isomorphic hypergraphs have the same reducibility
    and, relabeled, the same reductions, so neither the verdict nor the
    descendant classes depend on which copy came first.  Certificates are
    kept per search by ``canonical_edges``: a child with the edges of an
    earlier one takes its certificate without a new search; its class is
    then already classified, so its automorphisms are never needed.

    Within a node, reductions are pruned by orbits (isomorph rejection,
    McKay, J. Algorithms 26, 1998): the certificate search of every node
    also yields automorphisms of it, which permute its reduction
    signatures, and signatures in one orbit give isomorphic children.
    Only the first signature of each orbit in scan order is reduced and
    classed; its orbit-mates reuse that class, and build their child only
    when the class is minimal, to add their labelled copy.  The first
    child of every class comes from the first signature of its orbit, so
    the report is the one the unpruned search gives.  Every child is built
    from its signature's bit masks (``_child``), and every first reduction
    passes the checks ``reduce_with`` makes (``_checked_reduction``).
    """
    t0 = time.monotonic()
    deadline = None if max_seconds is None else t0 + max_seconds
    space = _magic_space(h)

    is_minimal_class: dict[tuple, bool] = {}
    certificates: dict[tuple, tuple] = {}  # canonical_edges(child) -> its certificate
    minimal: list[Hypergraph] = []
    labeled: dict = {}
    complete = True
    stats = {"inspected": 0}
    expanded = 0
    # Each node carries the automorphism generators of its own labelling.
    queue: list[tuple[Hypergraph, GramSpace, list[list[int]]]] = [(h, space, _key_and_gens(h)[1])]
    already_minimal = False

    try:
        while queue:
            if expanded >= max_nodes:
                complete = False
                break
            _check_deadline(deadline)
            current, sp, gens = queue.pop()
            expanded += 1
            if len(sp.nonmagic_basis) > gram_cap:
                complete = False
            children = []
            orbit_class: dict[tuple, tuple] = {}  # signature labels -> its child's certificate
            found = False
            for sig, matrix in _reducible_signatures(
                current, sp.magic_offset, sp.nonmagic_basis, gram_cap, stats, deadline
            ):
                found = True
                _check_deadline(deadline)
                labels = _signature_labels(sig, current.vertex_count)
                cert = orbit_class.get(labels)
                if cert is not None:
                    if is_minimal_class[cert]:
                        child = _child(current, sig)[0]
                        labeled.setdefault(canonical_edges(child), child)
                    continue
                child, _ = _checked_reduction(current, matrix, lambda: _child(current, sig))
                edges = canonical_edges(child)
                cert = certificates.get(edges)
                if cert is None:
                    cert, child_gens = _key_and_gens(child)
                    certificates[edges] = cert
                    if cert not in is_minimal_class:
                        child_space = valid_gram_space(child)
                        if child_space.magic_offset is None:
                            raise AssertionError("reduction output lost its magic Gram matrix")
                        child_minimal = not _has_reducible_matrix(
                            child_space.magic_offset, child_space.nonmagic_basis, deadline
                        )
                        is_minimal_class[cert] = child_minimal
                        if child_minimal:
                            minimal.append(child)
                        else:
                            children.append((child, child_space, child_gens))
                orbit_class.update(dict.fromkeys(_signature_orbit(labels, gens), cert))
                if is_minimal_class[cert]:
                    labeled.setdefault(edges, child)
            if current is h:
                already_minimal = not found
            queue.extend(children)
    except _DeadlineReached:
        complete = False

    return DescentReport(
        minimal=tuple(minimal),
        labeled_copies=tuple(labeled.values()),
        already_minimal=already_minimal,
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
