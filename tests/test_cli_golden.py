"""CLI ``--json`` output pinned byte for byte on the bundled data.

``tests/data/cli_golden.json`` maps a command label to the document the
command printed when the file was written.  Each command runs on a file
with a fixed relative name, so the ``file`` field is stable too.  The
``reduce --search`` document drops ``elapsed_seconds``, a wall time.

Regenerate the file (only when an output change is intended) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from magicsets import datasets
from magicsets.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "cli_golden.json"

GRAPHS = {
    "K5": list(itertools.combinations(range(1, 6), 2)),
    "K3,3": [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)],
    "K4": list(itertools.combinations(range(1, 5), 2)),
}


def _file_name(name: str) -> str:
    return name.replace(",", "_") + (".txt" if name in GRAPHS else ".json")


def write_inputs(directory: Path) -> None:
    for name in datasets.NAMES:
        (directory / _file_name(name)).write_text(datasets.load(name).hypergraph.to_json())
    for name, edges in GRAPHS.items():
        (directory / _file_name(name)).write_text(str([list(e) for e in edges]))


def commands() -> list[tuple[str, list[str]]]:
    """(label, argv) per pinned command; ``assign`` uses each structure's
    minimum qubit count, which is pinned by the preceding ``check``."""
    out = [(f"check {n}", ["check", _file_name(n), "--dump-gram", "--json"]) for n in datasets.NAMES]
    out.append(("reduce --search HD", ["reduce", _file_name("HD"), "--search", "--json"]))
    out += [(f"planarity {n}", ["planarity", _file_name(n), "--json"]) for n in GRAPHS]
    out.append(("verify-dataset", ["verify-dataset", "--json"]))
    return out


def assign_argv(name: str, qubits: int) -> list[str]:
    return ["assign", _file_name(name), "--qubits", str(qubits), "--json"]


def run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


def render(doc: dict) -> str:
    """The CLI's own rendering of a JSON document."""
    return json.dumps(doc, indent=1) + "\n"


def _comparable(label: str, text: str) -> dict:
    doc = json.loads(text)
    if label.startswith("reduce "):
        doc.pop("elapsed_seconds")
    return doc


def generate() -> dict:
    """Run every pinned command in a scratch directory."""
    golden: dict = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            for label, argv in commands():
                golden[label] = _comparable(label, run(argv))
            for name in datasets.NAMES:
                q = golden[f"check {name}"]["min_qubits"]
                golden[f"assign {name}"] = json.loads(run(assign_argv(name, q)))
        finally:
            os.chdir(cwd)
    return golden


def write_golden(golden: dict) -> None:
    """One command per line, keys in the CLI's own order."""
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in golden.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_golden")
    write_inputs(d)
    return d


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_cli_golden(label, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    want = GOLDEN[label]
    if label.startswith("assign "):
        name = label.split(" ", 1)[1]
        argv = assign_argv(name, GOLDEN[f"check {name}"]["min_qubits"])
    else:
        argv = dict(commands())[label]
    out = run(argv)
    if label.startswith("reduce "):
        assert _comparable(label, out) == want
    else:
        assert out == render(want)


def test_golden_covers_every_command():
    labels = {label for label, _ in commands()} | {f"assign {n}" for n in datasets.NAMES}
    assert set(GOLDEN) == labels


if __name__ == "__main__":
    write_golden(generate())
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
