"""Self-test of the benchmark: its checks fire and its counters repeat.

Not collected by the repository's test suite (the file name does not
match ``test_*.py``); run it explicitly from the repository root:

    python3 -m pytest -q perfbench/tests/selftest.py

It takes two to three minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

#: Counters the roadmap uses as its noise-free gate.
GATE_COUNTERS = (
    "gram.min_qubits.matrices",
    "assign.assignment_from_gram.calls",
    "gf2.null_space_basis.calls",
    "reduce.are_isomorphic.calls",
    "reduce.nodes_expanded",
)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_corrupted_expected_value_is_counted_as_failed():
    wl = run.load_workloads()
    frozen = wl.load_frozen()
    result, info = run.measure("catalog", 1, 0.0, False, frozen=frozen)
    assert result["failed"] == 0, info["failures"]

    frozen["catalog"]["square"]["b"] += 1
    result, info = run.measure("catalog", 1, 0.0, False, frozen=frozen)
    assert result["failed"] > 0 and not result["correct"]
    assert info["failed_ratio"] > 0
    assert any(line.startswith("square:") for line in info["failures"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counters_repeat_for_one_seed(workload):
    runs = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs
    ]
    assert set(GATE_COUNTERS) <= counts[0].keys()
    assert counts[0] == counts[1]
    assert all(r["correct"] for r in runs)

    # Spans are logged as they end, so their query ids never decrease and
    # cover the queries 0, 1, ... in order (all of them unless spans were dropped).
    log = json.loads((run.TRACE_DIR / f"trace-{workload}-seed7.json").read_text())
    ids = [span[4] for span in log["spans"]]
    assert ids == sorted(ids)
    assert sorted(set(ids)) == list(range(ids[-1] + 1))
    if log["dropped_spans"] == 0:
        assert ids[-1] == runs[1]["attempted"] - 1


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
