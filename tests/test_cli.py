from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from magicsets import cli, datasets, gram
from magicsets.bound import hypergraph_bound, noncontextual_bound
from magicsets.cli import build_parser, main


@pytest.fixture()
def ms3_27b_file(tmp_path):
    entry = datasets.load("MS3-27b")
    path = tmp_path / "ms3_27b.json"
    path.write_text(entry.hypergraph.to_json())
    return str(path)


@pytest.fixture()
def ms5_26_files(tmp_path):
    entry = datasets.load("MS5-26")
    hpath = tmp_path / "ms5_26.json"
    hpath.write_text(entry.hypergraph.to_json())
    apath = tmp_path / "ms5_26_assign.json"
    apath.write_text(json.dumps(entry.assignment.to_mapping()))
    return str(hpath), str(apath)


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(datasets.load("square").hypergraph.to_json())
    return str(path)


# Malformed recipe, assignment and generator documents, each with the
# subcommand and option that reads it.
MALFORMED_DOCUMENTS = [
    (["reduce", "--recipe"], {"identify": {"1": 5}}),
    (["reduce", "--recipe"], {"delete": [1], "identify": 7}),
    (["reduce", "--recipe"], [1, 2]),
    (["bound", "--assignment"], [1, 2]),
    (["bound", "--assignment"], {str(v): 5 for v in range(1, 10)}),
    (["orbits"], {"gens": []}),
    (["orbits"], {"degree": 4}),
    (["orbits"], {"degree": 3, "generators": 5}),
    (["orbits"], {"degree": "x", "generators": [[1, 2, 3]]}),
    (["orbits"], {"degree": 3, "generators": [[1, "a", 3]]}),
    (["reduce", "--recipe"], {"identify": {"a": [1, 2]}}),
]


@pytest.mark.parametrize(
    "reader, doc", MALFORMED_DOCUMENTS,
    ids=[f"{reader[0]}{i}" for i, (reader, _) in enumerate(MALFORMED_DOCUMENTS)],
)
def test_malformed_documents_are_input_errors(square_file, tmp_path, capsys, reader, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if reader[0] == "orbits":
        argv = ["orbits", str(path), "--size", "2"]
    else:
        argv = [reader[0], square_file, reader[1], str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_every_subcommand_takes_json():
    required = {
        "check": ["f"],
        "assign": ["f", "--qubits", "2"],
        "bound": ["f"],
        "reduce": ["f"],
        "planarity": ["f"],
        "orbits": ["f", "--size", "2"],
        "verify-dataset": [],
    }
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(required)
    for name, argv in required.items():
        assert parser.parse_args([name, *argv]).json is False
        assert parser.parse_args([name, *argv, "--json"]).json is True


class TestCheck:
    def test_magic_structure(self, ms3_27b_file, capsys):
        assert main(["check", ms3_27b_file]) == 0
        out = capsys.readouterr().out
        assert "magic; minimum qubits 3" in out

    def test_missing_file(self, capsys):
        assert main(["check", "nonexistent.json"]) == 2

    def test_non_magic_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cycle.txt"
        path.write_text("[[1,2],[2,3],[3,4],[4,1]]")
        assert main(["check", str(path)]) == 1
        assert "not magic" in capsys.readouterr().out

    def test_improper_exits_one(self, tmp_path, capsys):
        path = tmp_path / "odd.txt"
        path.write_text("[[1,2,3]]")
        assert main(["check", str(path)]) == 1

    def test_non_magic_json_without_the_kernel(self, tmp_path, capsys, monkeypatch):
        # A non-magic answer needs only the rank and the magic test.
        def fail(*args):
            raise AssertionError("check built the kernel")

        monkeypatch.setattr(gram, "_null_vectors", fail)
        path = tmp_path / "nonmagic.txt"
        path.write_text("[[1,2,3],[1,2,3,5,7],[4,5,6,7],[4,6]]")
        assert main(["check", str(path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["magic"] is False and doc["gram_space_dim"] == 2

    def test_json_schema(self, ms3_27b_file, capsys):
        assert main(["check", ms3_27b_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["magic"] is True and doc["min_qubits"] == 3

    @pytest.mark.parametrize(
        "doc",
        [
            {"edges": [[1.5, 2], [1.5, 2]]},
            {"vertices": "3", "edges": [[1, 2]]},
            {"vertices": 2, "edges": [[True, 2], [1, 2]]},
        ],
    )
    def test_non_integer_vertices_are_input_errors(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"hypergraph": 5}, {"hypergraph": [[1, 2]]}])
    def test_non_object_hypergraph_is_input_error(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert "a hypergraph document must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"vertices": 3}, {"hypergraph": {"vertices": 3}}])
    def test_missing_edges_is_input_error(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot parse hypergraph" in err and "must have an 'edges' key" in err

    def test_inexact_names_its_cap(self, tmp_path, capsys):
        path = tmp_path / "ha.json"
        path.write_text(datasets.load("HA").hypergraph.to_json())
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert ("magic; minimum qubits 3 (upper bound: magic space dimension 30 "
                "is over --enumeration-cap 24); reducible\n") in out

    @pytest.mark.parametrize("command", [["check"], ["assign", "--qubits", "2"]])
    def test_negative_enumeration_cap_is_refused(self, square_file, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command[0], square_file, *command[1:], "--enumeration-cap", "-5"])
        assert exc.value.code == 2
        assert "--enumeration-cap: must be at least 0, got -5" in capsys.readouterr().err

    def test_zero_enumeration_cap_is_exact_on_one_matrix(self, square_file, capsys):
        assert main(["check", square_file, "--enumeration-cap", "0"]) == 0
        assert "magic; minimum qubits 2; minimal\n" in capsys.readouterr().out

    @pytest.mark.parametrize("labels", [5, "abcdefghi", list(range(9))])
    def test_malformed_labels_are_input_errors(self, tmp_path, capsys, labels):
        doc = datasets.load("square").hypergraph.to_json_dict()
        doc["labels"] = labels
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert "labels must be a list of strings" in capsys.readouterr().err

    def test_bracket_text_accepted(self, tmp_path, capsys):
        path = tmp_path / "square.txt"
        path.write_text("[[1,2,3],[4,5,6],[7,8,9],[1,4,7],[2,5,8],[3,6,9]]")
        assert main(["check", str(path)]) == 0
        assert "minimum qubits 2" in capsys.readouterr().out


class TestBound:
    def test_negative_decimals_are_refused(self, ms3_27b_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", ms3_27b_file, "--hypergraph-level", "--decimals", "-1"])
        assert exc.value.code == 2
        assert "--decimals: must be at least 0, got -1" in capsys.readouterr().err

    def test_zero_decimals(self, ms5_26_files, capsys):
        hpath, apath = ms5_26_files
        assert main(["bound", hpath, "--assignment", apath, "--decimals", "0"]) == 0
        assert "epsilon = 0    " in capsys.readouterr().out

    def test_with_assignment_file(self, ms5_26_files, capsys):
        hpath, apath = ms5_26_files
        assert main(["bound", hpath, "--assignment", apath, "--decimals", "1"]) == 0
        out = capsys.readouterr().out
        assert "b/Q = 24/30" in out and "0.2" in out

    def test_with_sign_string(self, tmp_path, capsys):
        entry = datasets.load("square")
        hpath = tmp_path / "square.json"
        hpath.write_text(entry.hypergraph.to_json())
        signs = str(entry.assignment.context_signs)
        assert main(["bound", str(hpath), "--signs", signs, "--brute-force"]) == 0
        assert "b/Q = 4/6" in capsys.readouterr().out

    def test_hypergraph_level(self, ms3_27b_file, capsys):
        assert main(["bound", ms3_27b_file, "--hypergraph-level", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["b"] == 17 and doc["pauli_only"] is True

    @pytest.mark.parametrize("extra", [[], ["--all-assignments"]])
    def test_hypergraph_level_brute_force(self, square_file, capsys, extra):
        # The oracle runs at the maximizing signs, as it runs at given signs.
        argv = ["bound", square_file, "--hypergraph-level", "--brute-force", "--json", *extra]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["brute_force_b"] == doc["b"] == 4

    def test_hypergraph_level_oracle_mismatch_raises(self, square_file, monkeypatch):
        seen = []

        def off_by_two(h, c):
            seen.append(c)
            rep = noncontextual_bound(h, c)
            return dataclasses.replace(rep, b=rep.b + 2)

        monkeypatch.setattr(cli, "brute_force_bound", off_by_two)
        with pytest.raises(AssertionError, match="oracle disagrees: coset 4, brute force 6"):
            main(["bound", square_file, "--hypergraph-level", "--brute-force"])
        assert seen == [hypergraph_bound(datasets.load("square").hypergraph).maximizing_signs]

    def test_all_assignments_needs_hypergraph_level(self, ms5_26_files, capsys):
        hpath, apath = ms5_26_files
        assert main(["bound", hpath, "--assignment", apath, "--all-assignments"]) == 2
        assert capsys.readouterr().err == "error: --all-assignments needs --hypergraph-level\n"

    def test_capped_warning_names_cap(self, tmp_path, capsys):
        # K_33 as 528 pair contexts: row-space rank 32 past the coset search
        # cap of 30 and codimension 496 past the syndrome table.
        hpath = tmp_path / "k33.txt"
        hpath.write_text(json.dumps([[a, b] for a in range(1, 34) for b in range(a + 1, 34)]))
        assert main(["bound", str(hpath), "--signs", "1" * 527 + "0"]) == 0
        out = capsys.readouterr().out
        assert "coset search capped at DEFAULT_COSET_CAP = 30" in out

    def test_missing_signs(self, ms3_27b_file, capsys):
        assert main(["bound", ms3_27b_file]) == 2

    def test_bad_sign_length(self, ms3_27b_file):
        assert main(["bound", ms3_27b_file, "--signs", "01"]) == 2

    def test_improper_names_its_defects(self, tmp_path, capsys):
        path = tmp_path / "twice.txt"
        path.write_text("[[1,2,3],[1,2,3]]")
        assert main(["bound", str(path), "--signs", "01"]) == 1
        err = capsys.readouterr().err
        assert err == "error: hypergraph is not proper Eulerian: duplicate edges 1 = 2\n"


class TestAssign:
    def test_synthesize(self, ms3_27b_file, tmp_path, capsys):
        out_path = tmp_path / "assignment.json"
        assert main(["assign", ms3_27b_file, "--qubits", "3", "--output", str(out_path)]) == 0
        mapping = json.loads(out_path.read_text())
        assert len(mapping) == 27
        out = capsys.readouterr().out
        assert "magic=True" in out

    def test_unwritable_output_is_input_error(self, ms3_27b_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "assignment.json"
        assert main(["assign", ms3_27b_file, "--qubits", "3", "--output", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1

    def test_rank_obstruction_is_input_error(self, ms3_27b_file, capsys):
        assert main(["assign", ms3_27b_file, "--qubits", "1"]) == 2
        assert capsys.readouterr().err == "error: rank 6 needs at least 3 qubits, got 1\n"

    def test_qubits_past_pauli_limit_is_input_error(self, ms3_27b_file, tmp_path, capsys):
        # An assignment file of 33-qubit strings could not be read back by ``bound``.
        out_path = tmp_path / "assignment.json"
        assert main(["assign", ms3_27b_file, "--qubits", "33", "--output", str(out_path)]) == 2
        assert not out_path.exists()
        assert "32-qubit limit" in capsys.readouterr().err
        assert main(["assign", ms3_27b_file, "--qubits", "32", "--output", str(out_path)]) == 0
        assert main(["bound", ms3_27b_file, "--assignment", str(out_path)]) == 0


class TestReduce:
    def test_recipe_replay(self, tmp_path, capsys):
        hb = datasets.load("HB")
        child = datasets.load("MS3-29")
        hpath = tmp_path / "hb.json"
        hpath.write_text(hb.hypergraph.to_json())
        rpath = tmp_path / "recipe.json"
        rpath.write_text(json.dumps(child.recipe.to_json_dict()))
        assert main(["reduce", str(hpath), "--recipe", str(rpath), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["output"]["vertices"] == 29
        assert len(doc["output"]["edges"]) == 33

    def test_search_hd(self, tmp_path, capsys):
        hd = datasets.load("HD")
        hpath = tmp_path / "hd.json"
        hpath.write_text(hd.hypergraph.to_json())
        assert main(["reduce", str(hpath), "--search", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["minimal_classes"]) == 1
        assert doc["complete"] is True

    def test_requires_mode(self, ms3_27b_file):
        assert main(["reduce", ms3_27b_file]) == 2

    def test_recipe_and_search_exclude_each_other(self, ms3_27b_file, tmp_path, capsys):
        rpath = tmp_path / "recipe.json"
        rpath.write_text(json.dumps({}))
        with pytest.raises(SystemExit) as exc:
            main(["reduce", ms3_27b_file, "--recipe", str(rpath), "--search"])
        assert exc.value.code == 2
        assert "argument --search: not allowed with argument --recipe" in capsys.readouterr().err

    def test_repeat_inside_one_preimage_is_named(self, square_file, tmp_path, capsys):
        rpath = tmp_path / "recipe.json"
        rpath.write_text(json.dumps({"identify": {"1": [1, 1], **{str(v): [v] for v in range(2, 10)}}}))
        assert main(["reduce", square_file, "--recipe", str(rpath)]) == 2
        assert capsys.readouterr().err == "error: vertex 1 appears twice in the preimage of 1\n"

    def test_bad_recipe(self, ms3_27b_file, tmp_path):
        rpath = tmp_path / "recipe.json"
        rpath.write_text(json.dumps({"delete": [1], "identify": {"1": [1]}}))
        assert main(["reduce", ms3_27b_file, "--recipe", str(rpath)]) == 2

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--max-nodes", "-3", "must be at least 0, got -3"),
            ("--max-seconds", "-1", "must be at least 0, got -1.0"),
            ("--max-seconds", "nan", "must be at least 0, got nan"),
            ("--max-seconds", "soon", "invalid float value: 'soon'"),
        ],
        ids=["nodes", "seconds", "nan-seconds", "text-seconds"],
    )
    def test_negative_budgets_are_refused(self, ms3_27b_file, capsys, option, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", ms3_27b_file, "--search", option, value])
        assert exc.value.code == 2
        assert f"{option}: {message}" in capsys.readouterr().err


class TestPlanarity:
    def test_k5(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        import itertools

        edges = list(itertools.combinations(range(1, 6), 2))
        path.write_text(str([list(e) for e in edges]))
        assert main(["planarity", str(path)]) == 0
        assert "nonplanar" in capsys.readouterr().out

    def test_k4(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        import itertools

        edges = list(itertools.combinations(range(1, 5), 2))
        path.write_text(str([list(e) for e in edges]))
        assert main(["planarity", str(path)]) == 0
        assert "nonplanar" not in capsys.readouterr().out

    def test_hyperedge_input_error(self, ms3_27b_file, capsys):
        assert main(["planarity", ms3_27b_file]) == 2
        assert capsys.readouterr().err == "error: edge 1 has size 4, expected 2\n"


class TestOrbits:
    def test_cyclic_group(self, tmp_path, capsys):
        path = tmp_path / "c4.json"
        path.write_text(json.dumps({"degree": 4, "generators": [[2, 3, 4, 1]]}))
        assert main(["orbits", str(path), "--size", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["orbit_sizes"]) == [2, 4]

    def test_past_subset_cap_is_input_error(self, tmp_path, capsys):
        # C(27, 8) = 2 220 075 subsets, over the default cap of 2 000 000.
        path = tmp_path / "c27.json"
        path.write_text(json.dumps({"degree": 27, "generators": [list(range(2, 28)) + [1]]}))
        assert main(["orbits", str(path), "--size", "8"]) == 2
        assert capsys.readouterr().err == "error: 2220075 subsets of size 8 exceed the cap 2000000\n"


class TestVerifyDataset:
    def test_runs_clean(self, capsys):
        assert main(["verify-dataset"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "FAIL" not in out

    def test_json_deterministic(self, capsys):
        assert main(["verify-dataset", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify-dataset", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["schema"] == 1 and not doc["failed"]
