"""Freeze the benchmark's HB descendants and their expected outputs.

Draws seeded magic Gram matrices of the bundled HB structure through the
public API (``valid_gram_space``, ``is_reduced``, ``reduce_with``), keeps
one child per isomorphism class, and writes the chosen children as edge
lists to ``frozen.json`` together with the outputs the library gave for
them when they were frozen.  The expected outputs come from the
workloads' own timed queries, run on each input under its original
labels.  The benchmark reads only that file, so a later change to
``reduce_with`` cannot change the benchmark's inputs.

Run from the repository root (takes about a minute):

    python3 perfbench/generate.py
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from magicsets import datasets, gram, reduce  # noqa: E402
from magicsets.hypergraph import serialize_edge_list  # noqa: E402

#: Seed of the draw over HB's magic Gram matrices.
GENERATOR_SEED = 20220228
#: Magic Gram matrices drawn (HB has 2^14 of them).
DRAWS = 300
#: pauli-bound takes one descendant per magic-space dimension in this range.
PAULI_BOUND_DIMS = range(9, 13)
#: descent keeps descendants whose exhaustive search ends within this time.
DESCENT_PROBE_SECONDS = 6.0
#: descent takes, besides HD, the first-drawn child of the largest d up to this
#: whose search ends in time.  Larger magic spaces are skipped: the d=12
#: child's search took 2.6 s to 25 s depending on the labels (VF2
#: backtracking), more spread than one run can average.  Cheaper children
#: (d <= 3, about 30 ms) add nothing the two searches do not already time.
DESCENT_MAX_DIM = 8


class _ProbeTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ProbeTimeout()


def draw_children(hb):
    """Distinct HB children, one per isomorphism class, in draw order."""
    space = gram.valid_gram_space(hb)
    d = len(space.nonmagic_basis)
    rng = random.Random(GENERATOR_SEED)
    seen_edges = set()
    buckets: dict = {}  # isomorphism_key -> children already kept
    classes = []  # (child, draw index, coefficient mask)
    for draw in range(DRAWS):
        x = rng.getrandbits(d)
        g = space.magic_offset
        for l in range(d):
            if (x >> l) & 1:
                g = g ^ space.nonmagic_basis[l]
        if gram.is_reduced(g):
            continue
        child = reduce.reduce_with(hb, g).output
        key = reduce.canonical_edges(child)
        if key in seen_edges:
            continue
        seen_edges.add(key)
        bucket = buckets.setdefault(reduce.isomorphism_key(child), [])
        if any(reduce.are_isomorphic(child, c) for c in bucket):
            continue
        bucket.append(child)
        classes.append((child, draw, x))
    return classes


def run_query(workload: str, name: str, h) -> workloads.Outcome:
    """The workload's timed query on h, under h's own labels."""
    return workloads.WORKLOADS[workload].query(workloads.Query(name, serialize_edge_list(h)))


def descent_summary(h) -> dict:
    rep = run_query("descent", "", h).values["report"]
    return {
        "complete": rep.complete,
        "minimal_classes": len(rep.minimal),
        "class_shapes": sorted([c.vertex_count, c.num_edges] for c in rep.minimal),
        "nodes_expanded": rep.nodes_expanded,
        "matrices_inspected": rep.matrices_inspected,
    }


def probe_descent(h) -> dict | None:
    """descent_summary(h) if the exhaustive search ends in time, else None."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DESCENT_PROBE_SECONDS)
    try:
        t0 = time.perf_counter()
        summary = descent_summary(h)
        elapsed = time.perf_counter() - t0
    except _ProbeTimeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return summary if summary["complete"] and elapsed < DESCENT_PROBE_SECONDS else None


def pauli_bound_summary(h) -> dict:
    v = run_query("pauli-bound", "", h).values
    mq, hb = v["mq"], v["hb"]
    return {
        "min_qubits": mq.qubits,
        "min_qubits_exact": mq.exact,
        "b": hb.report.b,
        "Q": hb.report.Q,
        "exact": hb.exact,
        "gram_matrices_checked": hb.gram_matrices_checked,
        "cosets_checked": hb.cosets_checked,
    }


def catalog_summary(name: str, h) -> dict:
    v = run_query("catalog", name, h).values
    mq, hb = v["mq"], v["hb"]
    out = {
        "magic": v["magic"],
        "min_qubits": mq.qubits,
        "min_qubits_exact": mq.exact,
        "minimal": v["minimal"],
    }
    if hb is not None:  # the catalog query skips HB's full bound
        out.update({"b": hb.report.b, "Q": hb.report.Q, "exact": hb.exact})
    return out


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    hb = datasets.load("HB").hypergraph
    children = draw_children(hb)
    by_dim = []
    for child, draw, x in children:
        by_dim.append((len(gram.valid_gram_space(child).nonmagic_basis), child, draw, x))
    print(f"{len(children)} child classes; dims {sorted(d for d, *_ in by_dim)}", file=sys.stderr)

    def entry(name, d, child, draw, x):
        return {
            "name": name,
            "vertices": child.vertex_count,
            "contexts": child.num_edges,
            "d": d,
            "draw": draw,
            "coefficients": x,
            "edges": serialize_edge_list(child),
        }

    pauli_inputs = []
    taken = set()
    for d, child, draw, x in by_dim:
        if d in PAULI_BOUND_DIMS and d not in taken:
            taken.add(d)
            item = entry(f"HB-d{d}", d, child, draw, x)
            item["expected"] = pauli_bound_summary(child)
            pauli_inputs.append(item)
            print(f"pauli-bound {item['name']}: {item['expected']}", file=sys.stderr)

    descent_inputs = []
    hd = datasets.load("HD").hypergraph
    descent_inputs.append(
        {"name": "HD", "dataset": "HD", "d": len(gram.valid_gram_space(hd).nonmagic_basis),
         "expected": descent_summary(hd)}
    )
    for d, child, draw, x in sorted(by_dim, key=lambda t: -t[0]):
        if len(descent_inputs) > 1 or not 1 <= d <= DESCENT_MAX_DIM:
            continue
        summary = probe_descent(child)
        print(f"descent probe d={d} {child.vertex_count}x{child.num_edges}: {summary}", file=sys.stderr)
        if summary is None or summary["minimal_classes"] == 0:
            continue
        item = entry(f"HB-d{d}", d, child, draw, x)
        item["expected"] = summary
        descent_inputs.append(item)

    ms327b = datasets.load("MS3-27b").hypergraph
    pauli_inputs.insert(
        0,
        {"name": "MS3-27b", "dataset": "MS3-27b", "d": len(gram.valid_gram_space(ms327b).nonmagic_basis),
         "expected": pauli_bound_summary(ms327b)},
    )
    catalog = {name: catalog_summary(name, datasets.load(name).hypergraph) for name in datasets.NAMES}

    doc = {
        "provenance": {
            "generator": "perfbench/generate.py",
            "commit": _commit(),
            "generator_seed": GENERATOR_SEED,
            "draws": DRAWS,
            "method": "magic Gram matrices of HB drawn as magic_offset + a uniformly random "
            "combination of nonmagic_basis; non-reduced ones are reduced once with reduce_with "
            "and one child is kept per isomorphism class",
            "child_class_dims": sorted(d for d, *_ in by_dim),
        },
        "catalog": catalog,
        "pauli_bound": pauli_inputs,
        "descent": descent_inputs,
    }
    (HERE / "frozen.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
