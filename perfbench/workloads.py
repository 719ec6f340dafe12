"""The benchmark's workloads: inputs, the timed query, and its checks.

Every query starts from edge-list text, the command line's input format.
Each pass over a workload's inputs relabels the vertices and shuffles the
context order of every input afresh, from the run seed and the pass
number; the library sees only the resulting text.  Every checked output
is invariant under that relabelling, which is what lets the checks compare
against values frozen under the original labels.  Fresh labels per pass
matter because some costs depend on the labels (the VF2 isomorphism
tests in the descent search vary by 2-4x), so a run averages over as
many labellings as it makes passes.

The library is called through module attributes (``gram.min_qubits``) so
that the tracer's wrappers are picked up when tracing is on.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx

from magicsets import assign, bound, datasets, gram, hypergraph, pauli, planarity, reduce

FROZEN_PATH = Path(__file__).resolve().parent / "frozen.json"

#: Largest vertex count checked with the 2^m brute-force bound oracle.
BRUTE_FORCE_MAX_VERTICES = 21

#: planarity: vertex counts and edge densities of the random graphs.
PLANARITY_SIZES = range(8, 23)
PLANARITY_DENSITIES = (0.15, 0.2, 0.25, 0.3)


@dataclass
class Query:
    name: str
    text: str
    expected: dict = field(default_factory=dict)


@dataclass
class Outcome:
    values: dict
    exact_flags: list[bool]
    counters: dict[str, int] = field(default_factory=dict)


def load_frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text())


def relabel(edges, vertex_count: int, rng: random.Random) -> str:
    """Edge-list text of the hypergraph under a random vertex permutation,
    with contexts, and vertices inside each context, in random order."""
    perm = list(range(1, vertex_count + 1))
    rng.shuffle(perm)
    out = []
    for e in edges:
        image = [perm[v - 1] for v in e]
        rng.shuffle(image)
        out.append(image)
    rng.shuffle(out)
    return "[" + ", ".join("[" + ", ".join(map(str, e)) + "]" for e in out) + "]"


def _relabel_hypergraph(h, rng) -> str:
    return relabel(h.edges, h.vertex_count, rng)


def _frozen_items(items: list[dict]) -> list[tuple]:
    """(name, hypergraph, expected) for frozen inputs, bundled or edge-list."""
    out = []
    for item in items:
        if "dataset" in item:
            h = datasets.load(item["dataset"]).hypergraph
        else:
            h = hypergraph.parse_edge_list(item["edges"], vertex_count=item["vertices"])
        out.append((item["name"], h, item["expected"]))
    return out


def relabelled_queries(base: list[tuple], rng) -> list[Query]:
    return [Query(name, _relabel_hypergraph(h, rng), expected) for name, h, expected in base]


# ---------------------------------------------------------------- catalog


def catalog_base(frozen: dict) -> list[tuple]:
    base = []
    for entry in datasets.load_all():
        expected = dict(frozen["catalog"][entry.name])
        expected["dataset"] = {k: v.value for k, v in entry.expected.items()}
        base.append((entry.name, entry.hypergraph, expected))
    return base


def catalog_query(q: Query) -> Outcome:
    """check, assign and bound on one structure, as a command-line user runs them."""
    h = hypergraph.parse_edge_list(q.text)
    proper, _ = hypergraph.is_proper_eulerian(h)
    magic = gram.valid_gram_space(h).magic_offset is not None
    mq = gram.min_qubits(h)
    minimal = gram.is_minimal(h)
    a = assign.assignment_from_gram(h, mq.gram, mq.qubits)
    report = pauli.verify_assignment(h, a)
    nb = bound.noncontextual_bound(h, a.context_signs)
    values = {"h": h, "proper": proper, "magic": magic, "mq": mq, "minimal": minimal,
              "assignment": a, "report": report, "nb": nb, "hb": None}
    flags = [mq.exact, nb.exact]
    counters = {"gram.min_qubits.matrices": mq.searched}
    # The full HB Pauli-only bound enumerates 2^14 Gram matrices (minutes).
    if q.name != "HB":
        hb = bound.hypergraph_bound(h, pauli_only=True)
        values["hb"] = hb
        flags.append(hb.exact)
        counters["bound.gram_matrices_checked"] = hb.gram_matrices_checked
        counters["bound.cosets_checked"] = hb.cosets_checked
    return Outcome(values, flags, counters)


def _check_exact_value(problems, label, got, got_exact, want, want_exact):
    """Compare where the result is exact; an exact result turning inexact fails."""
    if got_exact and want_exact and got != want:
        problems.append(f"{label} {got}, expected {want}")
    elif want_exact and not got_exact:
        problems.append(f"{label} is no longer exact")


def catalog_check(q: Query, out: Outcome) -> list[str]:
    v, exp, ds = out.values, q.expected, q.expected["dataset"]
    h, mq = v["h"], v["mq"]
    problems = []
    if not v["proper"]:
        problems.append("not proper Eulerian")
    if v["magic"] != ds.get("magic", True) or v["magic"] != exp["magic"]:
        problems.append(f"magic {v['magic']}")
    _check_exact_value(problems, "min_qubits", mq.qubits, mq.exact, exp["min_qubits"], exp["min_qubits_exact"])
    if mq.exact and "n_qubits" in ds and mq.qubits != ds["n_qubits"]:
        problems.append(f"min_qubits {mq.qubits}, dataset says {ds['n_qubits']}")
    if v["minimal"] != exp["minimal"] or v["minimal"] != ds.get("minimal", v["minimal"]):
        problems.append(f"minimal {v['minimal']}")
    report = v["report"]
    if not (report.valid and report.magic):
        problems.append(f"synthesized assignment valid={report.valid} magic={report.magic}")
    if v["assignment"].qubits != mq.qubits:
        problems.append(f"assignment on {v['assignment'].qubits} qubits, minimum {mq.qubits}")
    nb = v["nb"]
    problems += bound_problems(h, v["assignment"].context_signs, nb)
    hb = v["hb"]
    if hb is not None:
        _check_exact_value(problems, "hypergraph bound b", hb.report.b, hb.exact, exp["b"], exp["exact"])
        _check_exact_value(problems, "hypergraph bound Q", hb.report.Q, hb.exact, exp["Q"], exp["exact"])
        if hb.exact and nb.exact and hb.report.b > nb.b:
            problems.append(f"hypergraph bound {hb.report.b} above an assignment's bound {nb.b}")
    return problems


def bound_problems(h, signs, rep) -> list[str]:
    """Q matches the context count; b matches the brute-force oracle where m is small."""
    problems = []
    if rep.Q != h.num_edges:
        problems.append(f"bound Q {rep.Q} != {h.num_edges} contexts")
    if rep.exact and h.vertex_count <= BRUTE_FORCE_MAX_VERTICES:
        oracle = bound.brute_force_bound(h, signs)
        if oracle.b != rep.b:
            problems.append(f"coset bound {rep.b} != brute-force bound {oracle.b}")
    return problems


# ------------------------------------------------------------ pauli-bound


def pauli_bound_base(frozen: dict) -> list[tuple]:
    return _frozen_items(frozen["pauli_bound"])


def pauli_bound_query(q: Query) -> Outcome:
    h = hypergraph.parse_edge_list(q.text)
    mq = gram.min_qubits(h)
    hb = bound.hypergraph_bound(h, pauli_only=True)
    return Outcome(
        {"h": h, "mq": mq, "hb": hb},
        [mq.exact, hb.exact],
        {
            "gram.min_qubits.matrices": mq.searched,
            "bound.gram_matrices_checked": hb.gram_matrices_checked,
            "bound.cosets_checked": hb.cosets_checked,
        },
    )


def pauli_bound_check(q: Query, out: Outcome) -> list[str]:
    v, exp = out.values, q.expected
    mq, hb = v["mq"], v["hb"]
    problems = []
    _check_exact_value(problems, "min_qubits", mq.qubits, mq.exact, exp["min_qubits"], exp["min_qubits_exact"])
    _check_exact_value(problems, "hypergraph bound b", hb.report.b, hb.exact, exp["b"], exp["exact"])
    _check_exact_value(problems, "hypergraph bound Q", hb.report.Q, hb.exact, exp["Q"], exp["exact"])
    problems += bound_problems(v["h"], hb.maximizing_signs, hb.report)
    return problems


# ---------------------------------------------------------------- descent


def descent_base(frozen: dict) -> list[tuple]:
    return _frozen_items(frozen["descent"])


def descent_query(q: Query) -> Outcome:
    h = hypergraph.parse_edge_list(q.text)
    # No deadline: a completed search is label-independent, a cut one is not.
    rep = reduce.find_minimal_descendants(h, max_seconds=None)
    return Outcome(
        {"report": rep},
        [rep.complete],
        {
            "reduce.nodes_expanded": rep.nodes_expanded,
            "reduce.matrices_inspected": rep.matrices_inspected,
            "reduce.minimal_classes": len(rep.minimal),
        },
    )


def descent_check(q: Query, out: Outcome) -> list[str]:
    rep, exp = out.values["report"], q.expected
    problems = []
    if not rep.complete:
        problems.append("search did not complete")
    shapes = sorted([c.vertex_count, c.num_edges] for c in rep.minimal)
    if len(rep.minimal) != exp["minimal_classes"] or shapes != exp["class_shapes"]:
        problems.append(f"minimal classes {shapes}, expected {exp['class_shapes']}")
    for c in rep.minimal:
        try:
            if not gram.is_minimal(c):
                problems.append(f"class {c.vertex_count}x{c.num_edges} is not minimal")
        except gram.NoMagicGramError:
            problems.append(f"class {c.vertex_count}x{c.num_edges} is not magic")
    return problems


# -------------------------------------------------------------- planarity


def planarity_base(frozen: dict) -> list[tuple]:
    return [(n, p) for n in PLANARITY_SIZES for p in PLANARITY_DENSITIES]


def planarity_queries(base: list[tuple], rng) -> list[Query]:
    """One random graph per (n, p) cell with exactly round(p * n(n-1)/2) edges,
    the edge count G(n, p) has on average, so every pass sees the same sizes."""
    queries = []
    for n, p in base:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = rng.sample(pairs, round(p * len(pairs)))
        queries.append(Query(f"n{n}-p{p}", relabel(edges, n, rng)))
    return queries


def planarity_query(q: Query) -> Outcome:
    result = planarity.is_planar_via_gram(hypergraph.parse_edge_list(q.text))
    return Outcome({"result": result}, [])


def planarity_check(q: Query, out: Outcome) -> list[str]:
    # The oracle reads the query text itself, not the library's parse of it.
    planar, _ = nx.check_planarity(nx.Graph(json.loads(q.text)))
    if planar != out.values["result"].planar:
        return [f"planar={out.values['result'].planar}, networkx says {planar}"]
    return []


@dataclass(frozen=True)
class Workload:
    base: object  # frozen doc -> inputs under their original labels (set-up)
    queries: object  # (base, rng) -> one pass of relabelled queries
    query: object  # the timed call
    check: object  # (query, outcome) -> list of problems


WORKLOADS = {
    "catalog": Workload(catalog_base, relabelled_queries, catalog_query, catalog_check),
    "pauli-bound": Workload(pauli_bound_base, relabelled_queries, pauli_bound_query, pauli_bound_check),
    "descent": Workload(descent_base, relabelled_queries, descent_query, descent_check),
    "planarity": Workload(planarity_base, planarity_queries, planarity_query, planarity_check),
}


def pass_rng(seed: int, pass_index: int) -> random.Random:
    """The labels (and planarity graphs) of one pass, from the run seed."""
    return random.Random(f"{seed}/{pass_index}")


#: Counters summed over the outcomes of a pass (all workloads report all).
OUTCOME_COUNTERS = (
    "gram.min_qubits.matrices",
    "bound.gram_matrices_checked",
    "bound.cosets_checked",
    "reduce.nodes_expanded",
    "reduce.matrices_inspected",
    "reduce.minimal_classes",
)


def sum_counters(outcomes) -> Counter:
    total = Counter({name: 0 for name in OUTCOME_COUNTERS})
    for out in outcomes:
        total.update(out.counters)
    return total
