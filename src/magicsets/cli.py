"""Command-line surface: check, assign, bound, reduce, planarity, orbits,
verify-dataset.

Exit codes: 0 success, 1 property failure (e.g. the structure is not
magic, or a dataset expectation does not hold), 2 input error.  A command
returns 0 or 1; ``main`` is the one place an exception becomes an exit
code: the property errors of ``gram`` give 1, and every other
``ValueError`` (``InputError`` and the library's malformed-input errors
alike) gives 2.  ``--json`` switches every subcommand to a machine-readable
report with a schema tag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import datasets
from .assign import assignment_from_gram
from .bound import (
    brute_force_bound,
    format_epsilon,
    hypergraph_bound,
    noncontextual_bound,
)
from .gf2 import DEFAULT_COSET_CAP, BitVector
from .gram import (
    NoMagicGramError,
    NotProperEulerianError,
    is_minimal,
    min_qubits,
    valid_gram_space,
)
from .hypergraph import Hypergraph, degree_profile, is_proper_eulerian, parse_edge_list
from .orbits import PermutationGroup, candidate_hypergraphs, subset_orbits
from .pauli import MAX_QUBITS, MagicAssignment, verify_assignment
from .planarity import is_planar_via_gram
from .reduce import ReductionRecipe, apply_recipe, find_minimal_descendants

SCHEMA = 1

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2


class InputError(ValueError):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err


def load_hypergraph(path: str) -> Hypergraph:
    """Accept the JSON document format, a bundled-entry document wrapping
    one under "hypergraph", or the bracketed edge list."""
    text = _read_text(path)
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            doc = json.loads(text)
            if "hypergraph" in doc and "edges" not in doc:
                doc = doc["hypergraph"]
            return Hypergraph.from_json_dict(doc)
        return parse_edge_list(text)
    except ValueError as err:
        raise InputError(f"cannot parse hypergraph from {path}: {err}") from err


def _cap(kind: type):
    """The argparse type of a cap or budget: a ``kind`` (int or float)
    value of at least 0."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not value >= 0:  # a NaN budget is refused as well
            raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
        return value

    return parse


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps({"schema": SCHEMA, **doc}, indent=1))
    else:
        for line in lines:
            print(line)


def cmd_check(args) -> int:
    h = load_hypergraph(args.file)
    ok, diag = is_proper_eulerian(h)
    doc: dict = {"file": args.file, "vertices": h.vertex_count, "contexts": h.num_edges,
                 "proper_eulerian": ok}
    lines = [f"{args.file}: {h.vertex_count} observables, {h.num_edges} contexts"]
    prof = degree_profile(h)
    doc["observables_profile"] = prof.render_vertices()
    doc["contexts_profile"] = prof.render_edges()
    if not ok:
        doc["diagnostics"] = dataclasses.asdict(diag)
        del doc["diagnostics"]["degrees"]
        lines.append("not proper Eulerian; no magic assignment can exist")
        _emit(doc, args.json, lines)
        return EXIT_PROPERTY
    space = valid_gram_space(h)
    doc["gram_space_dim"] = space.dim
    magic = space.magic_offset is not None
    doc["magic"] = magic
    if not magic:
        lines.append("not magic (no magic Gram matrix)")
        _emit(doc, args.json, lines)
        return EXIT_PROPERTY
    res = min_qubits(h, enumeration_cap=args.enumeration_cap)
    doc["min_qubits"] = res.qubits
    doc["min_qubits_exact"] = res.exact
    doc["minimal"] = is_minimal(h)
    lines.append(
        f"magic; minimum qubits {res.qubits}"
        + ("" if res.exact else f" (upper bound: magic space dimension {space.dim - 1} "
                                f"is over --enumeration-cap {args.enumeration_cap})")
        + ("; minimal" if doc["minimal"] else "; reducible")
    )
    if args.dump_gram:
        doc["gram"] = res.gram.to_lists()
        lines.append(json.dumps(res.gram.to_lists()))
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_assign(args) -> int:
    if args.qubits > MAX_QUBITS:
        # Assignment files hold Pauli strings, which stop at MAX_QUBITS letters.
        raise InputError(f"--qubits {args.qubits} exceeds the {MAX_QUBITS}-qubit limit of Pauli strings")
    h = load_hypergraph(args.file)
    space = valid_gram_space(h)
    if space.magic_offset is None:
        _emit({"file": args.file, "magic": False}, args.json, ["not magic; nothing to assign"])
        return EXIT_PROPERTY
    # Synthesize from a minimum-rank magic matrix so any k at or above the
    # instance minimum works.
    witness = min_qubits(h, enumeration_cap=args.enumeration_cap)
    assignment = assignment_from_gram(h, witness.gram, args.qubits)
    report = verify_assignment(h, assignment)
    mapping = assignment.to_mapping()
    if args.output:
        try:
            Path(args.output).write_text(json.dumps(mapping, indent=1) + "\n")
        except OSError as err:
            raise InputError(f"cannot write {args.output}: {err}") from err
    doc = {
        "file": args.file,
        "qubits": args.qubits,
        "assignment": mapping,
        "valid": report.valid,
        "magic": report.magic,
        "negatives": report.negatives,
    }
    lines = [f"{v}: {s}" for v, s in mapping.items()]
    lines.append(f"valid={report.valid} magic={report.magic} negative contexts={report.negatives}")
    _emit(doc, args.json, lines)
    return EXIT_OK if report.magic else EXIT_PROPERTY


def _signs_from_args(h: Hypergraph, args) -> BitVector:
    if args.assignment:
        mapping = json.loads(_read_text(args.assignment))
        a = MagicAssignment.from_mapping(h, mapping)
        report = verify_assignment(h, a)
        if not report.valid:
            raise InputError(f"assignment is not valid: {report.violations[:3]}")
        return a.context_signs
    if args.signs:
        bits = args.signs.replace(",", "").strip()
        if len(bits) != h.num_edges or set(bits) - {"0", "1"}:
            raise InputError(
                f"--signs needs {h.num_edges} bits of 0/1, got {args.signs!r}"
            )
        return BitVector.from_bits(int(b) for b in bits)
    raise InputError("one of --signs, --assignment, or --hypergraph-level is required")


def cmd_bound(args) -> int:
    if args.all_assignments and not args.hypergraph_level:
        raise InputError("--all-assignments needs --hypergraph-level")
    h = load_hypergraph(args.file)
    if args.hypergraph_level:
        hrep = hypergraph_bound(h, pauli_only=not args.all_assignments)
        rep, c, doc = hrep.report, hrep.maximizing_signs, hrep.to_json_dict()
    else:
        c = _signs_from_args(h, args)
        rep = noncontextual_bound(h, c)
        doc = rep.to_json_dict()
    if args.brute_force:
        oracle = brute_force_bound(h, c)
        doc["brute_force_b"] = oracle.b
        if oracle.b != rep.b:
            raise AssertionError(f"oracle disagrees: coset {rep.b}, brute force {oracle.b}")
    eps = format_epsilon(rep.epsilon, args.decimals)
    lines = [f"b/Q = {rep.b}/{rep.Q}    epsilon = {eps}    w_min = {rep.w_min}"]
    if not rep.exact:
        lines.append(f"warning: coset search capped at DEFAULT_COSET_CAP = {DEFAULT_COSET_CAP}; "
                     "b is the best bound found")
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_reduce(args) -> int:
    h = load_hypergraph(args.file)
    if args.recipe:
        recipe = ReductionRecipe.from_json_dict(json.loads(_read_text(args.recipe)))
        out = apply_recipe(h, recipe)
        doc = {"file": args.file, "output": out.to_json_dict()}
        lines = [f"reduced to {out.vertex_count} observables, {out.num_edges} contexts",
                 json.dumps(out.to_json_dict())]
        _emit(doc, args.json, lines)
        return EXIT_OK
    if args.search:
        report = find_minimal_descendants(
            h, max_nodes=args.max_nodes, max_seconds=args.max_seconds
        )
        doc = {
            "file": args.file,
            "already_minimal": report.already_minimal,
            "minimal_classes": [m.to_json_dict() for m in report.minimal],
            "labeled_copies": len(report.labeled_copies),
            "complete": report.complete,
            "nodes_expanded": report.nodes_expanded,
            "matrices_inspected": report.matrices_inspected,
            "elapsed_seconds": round(report.elapsed_seconds, 3),
        }
        lines = [
            f"{len(report.minimal)} minimal class(es); complete={report.complete}; "
            f"already_minimal={report.already_minimal}"
        ]
        for m in report.minimal:
            lines.append(f"  {m.vertex_count} observables / {m.num_edges} contexts")
        _emit(doc, args.json, lines)
        return EXIT_OK
    raise InputError("pass --recipe FILE or --search")


def cmd_planarity(args) -> int:
    g = load_hypergraph(args.file)
    result = is_planar_via_gram(g)
    doc = {
        "file": args.file,
        "planar": result.planar,
        "pruned_vertices": list(result.pruned_vertices),
    }
    if result.certificate is not None:
        doc["certificate"] = result.certificate.to_lists()
        doc["certificate_edges"] = [list(e) for e in result.certificate_edges]
    _emit(doc, args.json, ["planar" if result.planar else "nonplanar"])
    return EXIT_OK


def cmd_orbits(args) -> int:
    group = PermutationGroup.from_json(_read_text(args.file))
    orbits = subset_orbits(group, args.size)
    candidates = candidate_hypergraphs(group, args.size)
    doc = {
        "degree": group.degree,
        "size": args.size,
        "orbit_sizes": [len(o) for o in orbits],
        "candidates": [h.to_json_dict() for h in candidates],
    }
    lines = [f"{len(orbits)} orbit(s); sizes {sorted(set(len(o) for o in orbits))}",
             f"{len(candidates)} four-regular candidate hypergraph(s)"]
    _emit(doc, args.json, lines)
    return EXIT_OK


def _verify_entry(entry) -> tuple[list[str], list[str]]:
    """Returns (pass lines, failure lines) for one dataset entry."""
    passed: list[str] = []
    failed: list[str] = []

    def check(label: str, ok: bool, detail: str = ""):
        (passed if ok else failed).append(f"{entry.name}: {label}" + (f" ({detail})" if detail else ""))

    h = entry.hypergraph
    ok, _ = is_proper_eulerian(h)
    check("proper Eulerian", ok)
    if entry.assignment is not None:
        rep = verify_assignment(h, entry.assignment)
        check("published assignment valid+magic", rep.valid and rep.magic,
              f"negatives={rep.negatives}")
    exp = entry.expected
    if "observables_profile" in exp or "contexts_profile" in exp:
        prof = degree_profile(h)
        if "observables_profile" in exp:
            check("observables profile", prof.render_vertices() == exp["observables_profile"].value,
                  prof.render_vertices())
        if "contexts_profile" in exp:
            check("contexts profile", prof.render_edges() == exp["contexts_profile"].value,
                  prof.render_edges())
    if "magic" in exp:
        space = valid_gram_space(h)
        check("magic", (space.magic_offset is not None) == exp["magic"].value)
    if "n_qubits" in exp:
        res = min_qubits(h)
        check("min qubits", res.exact and res.qubits == exp["n_qubits"].value,
              f"{res.qubits}, exact={res.exact}")
    if "minimal" in exp:
        check("minimal", is_minimal(h) == exp["minimal"].value)
    if "b" in exp:
        if entry.assignment is not None:
            rep = noncontextual_bound(h, entry.assignment.context_signs)
        else:
            rep = hypergraph_bound(h, pauli_only=True).report
        eps_str = exp["epsilon"].value
        decimals = len(eps_str.split(".")[1])
        check(
            "bound b/Q and epsilon",
            rep.b == exp["b"].value
            and rep.Q == exp["Q"].value
            and format_epsilon(rep.epsilon, decimals) == eps_str,
            f"{rep.b}/{rep.Q}, eps={format_epsilon(rep.epsilon, decimals)}",
        )
    if entry.recipe is not None:
        parent = datasets.load(entry.recipe_parent).hypergraph
        out = apply_recipe(parent, entry.recipe)
        check(
            f"recipe replay {entry.recipe_parent} -> {entry.name}",
            sorted(out.edges) == sorted(h.edges) and out.vertex_count == h.vertex_count,
        )
    return passed, failed


def cmd_verify_dataset(args) -> int:
    all_passed: list[str] = []
    all_failed: list[str] = []
    for name in datasets.NAMES:
        entry = datasets.load(name)
        passed, failed = _verify_entry(entry)
        all_passed.extend(passed)
        all_failed.extend(failed)
    doc = {
        "passed": all_passed,
        "failed": all_failed,
        "total": len(all_passed) + len(all_failed),
    }
    lines = [f"PASS {line}" for line in all_passed] + [f"FAIL {line}" for line in all_failed]
    lines.append(f"{len(all_passed)} passed, {len(all_failed)} failed")
    _emit(doc, args.json, lines)
    return EXIT_OK if not all_failed else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magicsets",
        description="Magic Pauli assignments, reductions, and noncontextual bounds "
        "for measurement hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p = command("check", cmd_check, "proper-Eulerian check, magic decision, minimum qubits")
    p.add_argument("file")
    p.add_argument("--enumeration-cap", type=_cap(int), default=24)
    p.add_argument("--dump-gram", action="store_true",
                   help="include a minimum-rank magic Gram matrix as 0/1 rows")

    p = command("assign", cmd_assign, "synthesize a k-qubit magic assignment")
    p.add_argument("file")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--output", help="write the assignment JSON here")
    p.add_argument("--enumeration-cap", type=_cap(int), default=24)

    p = command("bound", cmd_bound, "noncontextual bound for a sign pattern")
    p.add_argument("file")
    p.add_argument("--signs", help="bit string over contexts, e.g. 000001")
    p.add_argument("--assignment", help="assignment JSON file supplying the signs")
    p.add_argument("--hypergraph-level", action="store_true",
                   help="worst case over magic assignments instead of one pattern")
    p.add_argument("--all-assignments", action="store_true",
                   help="with --hypergraph-level: all odd cosets, not only Pauli ones")
    p.add_argument("--brute-force", action="store_true",
                   help="also run the 2^m oracle and cross-check (with --hypergraph-level: "
                   "at the maximizing signs)")
    p.add_argument("--decimals", type=_cap(int), default=2)

    p = command("reduce", cmd_reduce, "apply a recipe or search for minimal descendants")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--recipe", help="recipe JSON file")
    mode.add_argument("--search", action="store_true")
    p.add_argument("--max-nodes", type=_cap(int), default=10_000)
    p.add_argument("--max-seconds", type=_cap(float), default=3600.0)

    p = command("planarity", cmd_planarity, "planarity via the dual's Gram space")
    p.add_argument("file")

    p = command("orbits", cmd_orbits, "orbits of a permutation group on s-subsets")
    p.add_argument("file", help="JSON with degree and generator image lists")
    p.add_argument("--size", type=int, required=True)

    command("verify-dataset", cmd_verify_dataset, "re-derive every bundled published metric")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotProperEulerianError, NoMagicGramError) as err:
        # The input parsed fine; the structure just lacks the property.
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PROPERTY
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
