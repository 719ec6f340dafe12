from __future__ import annotations

import itertools
import random
from typing import Sequence

import numpy as np
import pytest

from magicsets import datasets, gram
from magicsets.assign import assignment_from_gram
from magicsets.gf2 import BitMatrix, BitVector, Echelon, null_space_basis, rank
from magicsets.gram import is_reduced, valid_gram_space
from magicsets.hypergraph import Hypergraph
from magicsets.reduce import ReductionRecipe, ReductionSnapshots, _validate_recipe, reduce_with


@pytest.fixture(autouse=True)
def fresh_gram_space_cache():
    """Empty the one-entry cache of ``valid_gram_space`` before each
    test, so a test that patches the solve behind it sees its patch used."""
    gram.valid_gram_space.cache_clear()


@pytest.fixture(scope="session")
def entries():
    return {name: datasets.load(name) for name in datasets.NAMES}


@pytest.fixture(scope="session")
def square(entries):
    return entries["square"]


@pytest.fixture(scope="session")
def pentagram(entries):
    return entries["pentagram"]


def random_proper_eulerian(
    rng: random.Random, max_vertices: int = 14, max_edges: int = 9
) -> Hypergraph:
    """Random proper Eulerian hypergraph: random edges, then one closing
    edge over the odd-degree vertices (their count is even by handshake).
    There are 3 to ``max_edges`` random edges before the closing one."""
    while True:
        m = rng.randint(4, max_vertices)
        edges: set[tuple[int, ...]] = set()
        for _ in range(rng.randint(3, max_edges)):
            size = rng.randint(2, min(5, m))
            edge = tuple(sorted(rng.sample(range(1, m + 1), size)))
            edges.add(edge)
        deg = [0] * (m + 1)
        for e in edges:
            for v in e:
                deg[v] += 1
        odd = tuple(v for v in range(1, m + 1) if deg[v] % 2 == 1)
        if odd and odd not in edges:
            edges.add(odd)
        deg = [0] * (m + 1)
        for e in edges:
            for v in e:
                deg[v] += 1
        used = [v for v in range(1, m + 1) if deg[v] > 0]
        if len(used) < 3 or any(deg[v] % 2 for v in used):
            continue
        relabel = {v: i + 1 for i, v in enumerate(used)}
        clean = tuple(sorted(tuple(sorted(relabel[v] for v in e)) for e in edges))
        return Hypergraph(len(used), clean)


def relabelled(h: Hypergraph, rng: random.Random) -> Hypergraph:
    """h under a random vertex permutation, with its contexts shuffled."""
    perm = list(range(1, h.vertex_count + 1))
    rng.shuffle(perm)
    edges = [[perm[v - 1] for v in e] for e in h.edges]
    rng.shuffle(edges)
    return Hypergraph.from_edges(edges, h.vertex_count)


def disjoint_union(*hs: Hypergraph) -> Hypergraph:
    """The hypergraphs side by side, vertices numbered on in argument order."""
    edges, offset = [], 0
    for h in hs:
        edges += [[v + offset for v in e] for e in h.edges]
        offset += h.vertex_count
    return Hypergraph.from_edges(edges, offset)


def rigid_blocks(copies: int) -> Hypergraph:
    """``copies`` disjoint copies of all 20 triples of 6 vertices.

    Every vertex lies in 10 triples and every vertex pair shares one, so
    the valid Gram space is zero.  No nonempty vertex set meets every
    triple evenly, so beside a hypergraph h in a disjoint union the block
    between them has no valid nonzero entries: the union's valid Gram
    space is h's, and its incidence codimension is h's plus 14 per copy.
    """
    triples = [list(t) for t in itertools.combinations(range(1, 7), 3)]
    return disjoint_union(*[Hypergraph.from_edges(triples, 6)] * copies)


def cocontext_pairs(h: Hypergraph) -> set[tuple[int, int]]:
    """Pairs (i, j), i < j (0-based), of distinct vertices sharing a context."""
    pairs = set()
    for e in h.edges:
        uniq = sorted(set(e))
        for a in range(len(uniq)):
            for b in range(a + 1, len(uniq)):
                pairs.add((uniq[a] - 1, uniq[b] - 1))
    return pairs


def pair_variables(h: Hypergraph) -> list[tuple[int, int]]:
    """The valid-Gram unknowns: pairs (i, j), i < j, sharing no context, by i then j."""
    m = h.vertex_count
    forbidden = cocontext_pairs(h)
    return [(i, j) for i in range(m) for j in range(i + 1, m) if (i, j) not in forbidden]


def independent_contexts(h: Hypergraph) -> list[int]:
    """Indices of the contexts whose vertex mask is not a GF(2) sum of the
    masks of the contexts before them, each decided by comparing the ranks
    of the two prefixes, every rank from scratch."""
    masks = [sum(1 << (v - 1) for v in set(e)) for e in h.edges]
    return [k for k in range(len(masks)) if Echelon(masks[: k + 1]).rank > Echelon(masks[:k]).rank]


def valid_gram_system(h: Hypergraph, contexts: list[int] | None = None) -> BitMatrix:
    """The valid-Gram equations over the ``pair_variables`` unknowns, one
    per vertex column and context (every context, or the indices
    ``contexts``), empty ones dropped: with every context, the system the
    library stored whole before it streamed the equations into one
    echelon.  Rows come in the order ``valid_gram_space`` streams them:
    columns from the highest down, each column's contexts in stored order."""
    m = h.vertex_count
    var_index = {p: t for t, p in enumerate(pair_variables(h))}
    edges = h.edges if contexts is None else [h.edges[k] for k in contexts]
    equations = []
    for j in reversed(range(m)):
        for e in edges:
            members = sorted(set(v - 1 for v in e))
            eq = 0
            for i in members:
                if i == j:
                    continue
                t = var_index.get((i, j) if i < j else (j, i))
                if t is not None:
                    eq |= 1 << t
            if eq:
                equations.append(eq)
    return BitMatrix(len(var_index), tuple(equations))


def magic_parity(
    h: Hypergraph,
    g: BitMatrix,
    edge_order: Sequence[int] | None = None,
    inner_orders: Sequence[Sequence[int]] | None = None,
    vertex_order: Sequence[int] | None = None,
) -> int:
    """Inversion-sum parity over the concatenated context list.

    Contexts are listed jointly (stored edge order by default), and the sum
    collects g entries over position pairs that are out of order under a
    total vertex order (natural index order by default).  For a valid Gram
    matrix the result does not depend on any of the three order choices.
    The order-general oracle of ``gram.fast_magic_parity``.
    """
    edges = list(h.edges)
    if edge_order is not None:
        if sorted(edge_order) != list(range(len(edges))):
            raise ValueError("edge_order must be a permutation of 0..n-1")
        edges = [edges[i] for i in edge_order]
    if inner_orders is not None:
        edges = [tuple(edges[i][j] for j in perm) for i, perm in enumerate(inner_orders)]
    rank_of = list(range(h.vertex_count + 1))
    if vertex_order is not None:
        if sorted(vertex_order) != list(range(1, h.vertex_count + 1)):
            raise ValueError("vertex_order must be a permutation of 1..m")
        for r, v in enumerate(vertex_order):
            rank_of[v] = r
    concat = [v for e in edges for v in e]
    parity = 0
    for b in range(len(concat)):
        vb = concat[b]
        for a in range(b):
            va = concat[a]
            if rank_of[va] > rank_of[vb]:
                parity ^= g.entry(va - 1, vb - 1)
    return parity


def rref_kernel(ech: Echelon, cols: int) -> list[int]:
    """The kernel of the rows ``ech`` spans, over ``cols`` columns, read
    off ``Echelon.rref()``: per free column, in ascending order, the free
    bit plus the pivot bits of the reduced rows that contain it.  How
    ``gf2._null_vectors`` read the kernel before it back-substituted over
    the stored rows (``gf2._kernel_vectors``), kept as its oracle."""
    vecs = {free: 1 << free for free in range(cols) if free not in ech.pivots}
    for p, row in ech.rref():
        rest = row ^ (1 << p)  # free columns only
        while rest:
            low = rest & -rest
            vecs[low.bit_length() - 1] |= 1 << p
            rest ^= low
    return list(vecs.values())


def matrix_split_oracle(h: Hypergraph) -> tuple[BitMatrix | None, tuple[BitMatrix, ...], int]:
    """(magic_offset, nonmagic_basis, dim) of the valid Gram space, split
    matrix by matrix: every kernel vector of ``valid_gram_system`` becomes
    a matrix, ``fast_magic_parity`` scores each, the first odd one is the
    offset and every later odd one is XORed with it.  How
    ``valid_gram_space`` split the space before it split the kernel
    vectors by one parity mask, kept as its oracle."""
    m = h.vertex_count
    pairs = pair_variables(h)
    kernel = null_space_basis(valid_gram_system(h))
    basis = [gram._matrix_from_pair_bits(m, pairs, v.bits) for v in kernel]
    offset = None
    nonmagic = []
    for b in basis:
        if gram.fast_magic_parity(h, b) == 1:
            if offset is None:
                offset = b
                continue
            b = b ^ offset
        nonmagic.append(b)
    return offset, tuple(nonmagic), len(basis)


def seeded_magic_grams(h: Hypergraph, rng: random.Random, count: int) -> list[BitMatrix]:
    """Up to ``count`` distinct magic Gram matrices: offset + random combinations."""
    space = valid_gram_space(h)
    grams = []
    for _ in range(count):
        x = rng.getrandbits(len(space.nonmagic_basis))
        g = space.magic_offset
        for l, b in enumerate(space.nonmagic_basis):
            if (x >> l) & 1:
                g = g ^ b
        if g not in grams:
            grams.append(g)
    return grams


def magic_descendant(name: str, rng: random.Random) -> Hypergraph:
    """A magic hypergraph: the child of a random magic Gram matrix of the
    bundled structure ``name`` (the structure itself when that matrix is
    reduced), relabelled.  ``random_proper_eulerian`` yields no magic
    hypergraph in practice (none in 300 seeds), so magic inputs come from
    here."""
    h = datasets.load(name).hypergraph
    (g,) = seeded_magic_grams(h, rng, 1)
    if not is_reduced(g):
        h = reduce_with(h, g).output
    return relabelled(h, rng)


def hb_descendants(max_dim: int) -> list[Hypergraph]:
    """Children of HB from seeded non-reduced magic Gram matrices, the first
    drawn for each magic-space dimension from 1 to max_dim."""
    hb = datasets.load("HB").hypergraph
    children: dict[int, Hypergraph] = {}
    for g in seeded_magic_grams(hb, random.Random(2022), 40):
        if is_reduced(g):
            continue
        child = reduce_with(hb, g).output
        d = len(valid_gram_space(child).nonmagic_basis)
        if 1 <= d <= max_dim:
            children.setdefault(d, child)
    return [children[d] for d in sorted(children)]


def bfs_syndrome_weights(row_space: Echelon, length: int) -> np.ndarray:
    """Coset-leader weight of every syndrome of row_space, by a numpy
    layered breadth-first search from syndrome 0 whose steps are the unit
    syndromes.

    The table constructor the suffix dynamic program of
    ``gf2.SyndromeTable`` replaced, kept as its oracle; syndromes compress
    ``row_space.reduce(v)`` onto the free columns, as the table does.
    """
    free = [j for j in range(length) if j not in row_space.pivots]
    units = []
    for j in range(length):
        r = row_space.reduce(1 << j)
        units.append(sum(((r >> col) & 1) << i for i, col in enumerate(free)))
    steps = np.unique(units)
    unseen = np.iinfo(np.uint8).max  # a coset leader weighs at most codim
    weights = np.full(1 << len(free), unseen, dtype=np.uint8)
    weights[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    dist = 0
    while frontier.size:
        dist += 1
        for step in steps:
            nxt = frontier ^ step
            weights[nxt[weights[nxt] == unseen]] = dist
        frontier = np.flatnonzero(weights == dist)
    return weights


def gray_enumerate(offset_rows: list[int], basis_rows: list[list[int]]):
    """Yield (index, rows) for all offset + span(basis) matrices via Gray code.

    The per-matrix walk the block scans replaced, kept as an oracle.  Rows
    are mutated in place; callers must not keep references between
    iterations.
    """
    current = list(offset_rows)
    yield 0, current
    d = len(basis_rows)
    for step in range(1, 1 << d):
        l = (step & -step).bit_length() - 1
        b = basis_rows[l]
        for i in range(len(current)):
            current[i] ^= b[i]
        yield step, current


def gray_sign_cosets(r0: int, deltas: list[int]) -> list[int]:
    """Each element of r0 + span(deltas) once, in the order a Gray walk over
    the coefficient vectors first reaches it.

    The walk ``bound._pauli_sign_cosets`` ran before it returned the
    image's generators, kept as the oracle of their order.
    """
    reps = {r0: None}
    cur = r0
    for step in range(1, 1 << len(deltas)):
        cur ^= deltas[(step & -step).bit_length() - 1]
        reps.setdefault(cur)
    return list(reps)


def synthesized_rep(h: Hypergraph, g: BitMatrix, row_space: Echelon) -> int:
    """Coset representative of the context signs of one assignment realizing g.

    How ``bound.hypergraph_bound`` read each sign coset before it read the
    cosets off the Gram matrices by parities over the cycle basis, kept as
    their oracle: synthesize at rank/2 qubits, multiply out every context.
    """
    k = rank(g) // 2
    return row_space.reduce(assignment_from_gram(h, g, k).context_signs.bits)


def gray_pauli_sign_cosets(h: Hypergraph, row_space: Echelon) -> list[int]:
    """The Pauli sign-coset reps of h from d+1 syntheses, in the order the
    Gray walk over its 2^d magic Gram matrices first realizes them."""
    space = valid_gram_space(h)
    offset = space.magic_offset
    r0 = synthesized_rep(h, offset, row_space)
    deltas = [synthesized_rep(h, offset ^ b, row_space) ^ r0 for b in space.nonmagic_basis]
    return gray_sign_cosets(r0, deltas)


def solve_affine(equations, rhs, num_vars: int) -> BitVector | None:
    """One solution x of the row-form system {eq_i . x = rhs_i}, free
    variables zero, or None: an elimination of the equations augmented by
    their right-hand sides.

    How the library solved affine systems before it read the solutions off
    the columns (``gf2._affine_solutions``), kept as the row-form oracle.
    """
    ech = Echelon()
    for eq, b in zip(equations, rhs):
        ech.insert(eq | ((b & 1) << num_vars))
        if num_vars in ech.pivots:
            return None  # 0 = 1 row: inconsistent
    x = 0
    for pivot, row in ech.rref():
        if (row >> num_vars) & 1:
            x |= 1 << pivot
    return BitVector(num_vars, x)


def row_form_solutions(equations, rhs, num_vars: int) -> tuple[int, list[int]] | None:
    """(x0, kernel) of a row-form system by ``solve_affine`` and
    ``null_space_basis``, the two eliminations the column read-off replaced."""
    x0 = solve_affine(equations, rhs, num_vars)
    if x0 is None:
        return None
    return x0.bits, [v.bits for v in null_space_basis(BitMatrix(num_vars, tuple(equations)))]


def transposed(equations, rhs, num_vars: int) -> tuple[list[int], int]:
    """The columns and target of a row-form system: column l holds bit i
    when equation i has variable l; the target holds the right-hand sides."""
    cols = [sum(((eq >> l) & 1) << i for i, eq in enumerate(equations)) for l in range(num_vars)]
    return cols, sum((b & 1) << i for i, b in enumerate(rhs))


def loop_defect_systems(offset: BitMatrix, basis):
    """The defect systems in row form, one equation per column, every
    equation probed bit by bit over the basis: how the library first built
    them, kept as the oracle of ``gram._defects`` (whose columns are these
    systems' columns)."""
    m = offset.num_rows
    d = len(basis)
    for i in range(m):
        eqs, rhs = [], []
        for j in range(m):
            eq = 0
            for l in range(d):
                if (basis[l].rows[i] >> j) & 1:
                    eq |= 1 << l
            eqs.append(eq)
            rhs.append((offset.rows[i] >> j) & 1)
        yield ("zero", i), eqs, rhs
    for i in range(m):
        for j in range(i + 1, m):
            eqs, rhs = [], []
            for t in range(m):
                eq = 0
                for l in range(d):
                    if ((basis[l].rows[i] ^ basis[l].rows[j]) >> t) & 1:
                        eq |= 1 << l
                eqs.append(eq)
                rhs.append(((offset.rows[i] ^ offset.rows[j]) >> t) & 1)
            yield ("equal", i, j), eqs, rhs


def row_labels(rows) -> tuple[int, ...]:
    """Per row the least index of a row equal to it, or the row count for
    a zero row: a matrix's reduction signature."""
    first = {0: len(rows)}
    return tuple(first.setdefault(r, i) for i, r in enumerate(rows))


def row_signature(rows) -> tuple[int, ...] | None:
    """The ``row_labels`` of a matrix's rows, or None when it has neither
    a zero row nor two equal rows."""
    labels = row_labels(rows)
    return None if labels == tuple(range(len(rows))) else labels


def replay(h: Hypergraph, mapping: dict[int, int]) -> tuple[ReductionSnapshots, Hypergraph]:
    """A recipe's old-vertex -> new-vertex map run on edge lists, stage by
    stage: delete, identify, drop vertices of even multiplicity, keep the
    contexts of odd count in first-occurrence order.  How ``reduce`` ran
    every reduction before the bit-mask kernel, kept as its oracle."""
    after_deletion = tuple(tuple(v for v in e if v in mapping) for e in h.edges)
    after_identification = tuple(tuple(sorted(mapping[v] for v in e)) for e in after_deletion)
    after_vertex_mod2 = tuple(
        tuple(sorted(v for v in set(e) if e.count(v) % 2 == 1)) for e in after_identification
    )
    counts: dict[tuple[int, ...], int] = {}
    for e in after_vertex_mod2:
        counts[e] = counts.get(e, 0) + 1
    after_edge_mod2 = tuple(e for e in counts if e and counts[e] % 2 == 1)
    out = Hypergraph(max(mapping.values(), default=0), after_edge_mod2)
    snapshots = ReductionSnapshots(after_deletion, after_identification, after_vertex_mod2, after_edge_mod2)
    return snapshots, out


def gram_recipe(g: BitMatrix) -> ReductionRecipe:
    """The recipe g dictates, from its rows: zero rows are deleted,
    equal-row classes merge and take new ids by least vertex."""
    classes: dict[int, list[int]] = {}
    for i, row in enumerate(g.rows):
        if row:
            classes.setdefault(row, []).append(i + 1)
    deleted = [i + 1 for i, row in enumerate(g.rows) if row == 0]
    ordered = sorted(classes.values(), key=min)
    return ReductionRecipe.build(deleted, {new + 1: pre for new, pre in enumerate(ordered)})


def reduction(h: Hypergraph, g: BitMatrix) -> tuple:
    """(recipe, snapshots, output, restricted matrix) of the reduction g
    dictates, by ``replay``, unchecked: vertices whose every context
    cancels in the mod-2 steps are folded into the deletions and the
    recipe replayed, and g is restricted to the least vertex of each
    remaining class.  The oracle of ``reduce_with``'s trace."""
    recipe = gram_recipe(g)
    snapshots, out = replay(h, _validate_recipe(h, recipe))
    isolated = [v + 1 for v, d in enumerate(out.degrees()) if d == 0]
    if isolated:
        classes = dict(recipe.identification)
        extra_deleted = [v for new in isolated for v in classes.pop(new)]
        survivors = sorted(classes.values(), key=min)
        recipe = ReductionRecipe.build(
            sorted(recipe.deleted_vertices | set(extra_deleted)),
            {i + 1: pre for i, pre in enumerate(survivors)},
        )
        snapshots, out = replay(h, _validate_recipe(h, recipe))
    reps = [min(pre) - 1 for _, pre in recipe.identification]
    reduced = BitMatrix(
        len(reps),
        tuple(sum(((g.rows[a] >> b) & 1) << jb for jb, b in enumerate(reps)) for a in reps),
    )
    return recipe, snapshots, out, reduced


def doubling_signatures(offset: BitMatrix, basis, stats: dict):
    """``reduce._reducible_signatures`` past its cap as it was first written,
    kept as its oracle: per solvable defect slice, the particular solution
    and its XOR doublings by the kernel vectors, up to 2^12 coefficient
    vectors, each matrix built and signed in Python."""
    d = len(basis)
    m = offset.num_rows
    seen: set = set()
    per_defect = 1 << 12
    for _, eqs, rhs in loop_defect_systems(offset, basis):
        solutions = row_form_solutions(eqs, rhs, d)
        if solutions is None:
            continue
        xs, kernel = [solutions[0]], solutions[1]
        for kv in kernel:
            if len(xs) >= per_defect:
                break
            xs = xs + [x ^ kv for x in xs]
        for x in xs[:per_defect]:
            stats["inspected"] += 1
            rows = list(offset.rows)
            for l in range(d):
                if (x >> l) & 1:
                    rows = [a ^ b for a, b in zip(rows, basis[l].rows)]
            sig = row_signature(rows)
            if sig is not None and sig not in seen:
                seen.add(sig)
                yield sig, BitMatrix(m, tuple(rows))
