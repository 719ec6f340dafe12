"""Benchmark of the magicsets library, driven in-process from one thread.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/`` of the
checkout that holds this file.  A run sets up the workload's inputs, then
makes whole passes over them, each under fresh labels drawn from the seed
and the pass number, until ``--seconds`` have passed (at least one pass),
checking every query's output between passes.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:
``queries_per_s`` and ``query_p50_s`` are medians over the passes of each
pass's rate and median query time, ``setup_s`` the median of fresh-process
set-ups.  With ``--trace 1`` the run makes an untraced warm-up pass, then
pairs of an untraced and a traced pass over the same inputs, and reports
per-layer metrics.  The line before the result (``# info ...``) carries
the figures that are zero or unsteady on some workloads and so cannot be
bounded metrics: ``failed_ratio``, ``inexact_ratio``, ``peak_rss_mb`` and,
where at least ten samples lie beyond it, ``query_p90_s``.  NOTES.md
explains the workloads and choices.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("catalog", "pauli-bound", "descent", "planarity")

#: Set-up is measured in this many fresh processes; the median is reported.
SETUP_PROBES = 9
#: A probe that takes longer than this fails the run.
SETUP_PROBE_TIMEOUT_S = 60


class LibraryMissing(Exception):
    pass


def load_workloads():
    """Import the library from this checkout's src/ and the workload module."""
    if not (SRC / "magicsets" / "__init__.py").is_file():
        raise LibraryMissing(f"no magicsets package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import magicsets

    if Path(magicsets.__file__).resolve().parent != SRC / "magicsets":
        raise LibraryMissing(f"imported magicsets from {magicsets.__file__}, not {SRC}")
    import workloads

    return workloads


def setup(workload: str, frozen: dict | None = None):
    """Imports and bundled and frozen inputs: everything before the timed phase
    except relabelling, which each pass does for itself."""
    wl = load_workloads()
    if frozen is None:
        frozen = wl.load_frozen()
    return wl, wl.WORKLOADS[workload].base(frozen)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from interpreter start to the first pass's relabelled inputs."""
    wl, base = setup(workload)
    wl.WORKLOADS[workload].queries(base, wl.pass_rng(seed, 0))
    return time.perf_counter() - _PROCESS_START


def measure_setup_s(workload: str, seed: int) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreter processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


@dataclass
class Passes:
    durations: list = field(default_factory=list)
    pass_sizes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    exact_flags: list = field(default_factory=list)
    first_pass_counters: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.pass_sizes)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def per_pass_durations(self) -> list[list[float]]:
        out, start = [], 0
        for size in self.pass_sizes:
            out.append(self.durations[start:start + size])
            start += size
        return out


def clear_library_caches() -> None:
    """Empty the library's functools caches, so that a pass over inputs seen
    before starts as cold as the first pass over them."""
    for name, module in list(sys.modules.items()):
        if name == "magicsets" or name.startswith("magicsets."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def check_pass(wl, workload: str, queries, outcomes, passes: Passes) -> None:
    """Check one pass's outputs and keep only what the report needs."""
    check = wl.WORKLOADS[workload].check
    for q, out in zip(queries, outcomes):
        if isinstance(out, Exception):
            passes.failures.append(f"{q.name}: raised {type(out).__name__}: {out}")
            continue
        passes.exact_flags += out.exact_flags
        problems = check(q, out)
        if problems:
            passes.failures.append(f"{q.name}: " + "; ".join(problems))
    if passes.count == 1:
        passes.first_pass_counters = wl.sum_counters(o for o in outcomes if not isinstance(o, Exception))


def run_pass(wl, workload: str, base, seed: int, out: Passes, pass_index: int, tracer=None) -> None:
    """One whole pass over the inputs under the labels of `pass_index`,
    appended to `out`.

    Only the library calls are timed (and traced).  Relabelling, the checks,
    emptying the library's caches and a garbage collection run outside the
    timed calls, so every pass starts from the same state and no outputs
    accumulate.
    """
    spec = wl.WORKLOADS[workload]
    clock = time.perf_counter
    queries = spec.queries(base, wl.pass_rng(seed, pass_index))
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        for q in queries:
            if tracer is not None:
                tracer.query_id = out.attempted
            t0 = clock()
            try:
                result = spec.query(q)
            except Exception as err:  # a query that raises counts as failed
                result = err
            out.durations.append(clock() - t0)
            outcomes.append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.pass_sizes.append(len(queries))
    check_pass(wl, workload, queries, outcomes, out)
    del outcomes
    clear_library_caches()
    gc.collect()


def run_passes(wl, workload: str, base, seed: int, seconds: float) -> Passes:
    """Passes 0, 1, ..., each over freshly relabelled inputs, until `seconds`
    of wall time have passed (at least one pass)."""
    out = Passes()
    start = time.perf_counter()
    while True:
        run_pass(wl, workload, base, seed, out, out.count)
        if time.perf_counter() - start >= seconds:
            return out


def p90_if_resolved(durations):
    """90th percentile, or None unless at least ten samples lie beyond it."""
    if len(durations) < 100:
        return None
    return statistics.quantiles(durations, n=10)[-1]


def traced_run(wl, workload: str, base, seed: int, seconds: float):
    """Pairs of an untraced and a traced pass over the same inputs, until
    `seconds` have passed (at least one pair); returns (traced passes,
    per-layer metrics).

    An untraced warm-up pass on labels no other pass uses comes first, so
    neither pass of a pair pays first-call costs; the library's caches are
    emptied after every pass, and the pairs alternate which pass runs first.
    The tracing overhead is the median over the pairs of untraced minus
    traced queries per second.  Counts come from the first traced pass,
    whose inputs depend only on the seed, so they repeat exactly between
    runs of one seed.  Self times are averaged over every traced pass.
    """
    from tracing import SPAN_NAMES, Tracer

    run_pass(wl, workload, base, seed, Passes(), pass_index=-1)
    tracer = Tracer()
    traced = Passes()
    overheads = []
    start = time.perf_counter()
    while True:
        i = traced.count
        ref = Passes()
        pair = [(ref, None), (traced, tracer)]
        for out, pass_tracer in pair if i % 2 == 0 else reversed(pair):
            run_pass(wl, workload, base, seed, out, i, tracer=pass_tracer)
        n = traced.pass_sizes[-1]
        overheads.append(n / sum(ref.durations) - n / sum(traced.durations[-n:]))
        if i == 0:
            calls = dict(zip(SPAN_NAMES, tracer.calls))
        if time.perf_counter() - start >= seconds:
            break

    n0 = traced.pass_sizes[0]
    counters = traced.first_pass_counters
    metrics = {}
    for name, self_s in zip(SPAN_NAMES, tracer.self_s):
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s / traced.count, "s")
    for name, total in counters.items():
        metrics[name] = (total, "count")
    metrics["gram.valid_gram_space.calls_per_query"] = (calls["gram.valid_gram_space"] / n0, "ratio")
    grams = counters["bound.gram_matrices_checked"]
    metrics["bound.cosets_per_gram"] = (counters["bound.cosets_checked"] / grams if grams else 0.0, "ratio")
    classes = counters["reduce.minimal_classes"]
    metrics["reduce.iso_tests_per_class"] = (calls["reduce.are_isomorphic"] / classes if classes else 0.0, "ratio")
    traced_s = sum(traced.durations)
    metrics["trace.wall_s"] = (traced_s / traced.count, "s")
    metrics["trace.unattributed_s"] = ((traced_s - sum(tracer.self_s)) / traced.count, "s")
    metrics["trace.overhead_queries_per_s"] = (statistics.median(overheads), "1/s")

    TRACE_DIR.mkdir(exist_ok=True)
    log = tracer.span_log()
    log["first_pass_counts"] = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    (TRACE_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(log))
    return traced, metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            frozen: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, info line)."""
    wl, base = setup(workload, frozen)
    gc.collect()
    gc.freeze()  # set-up objects stay out of the collections the queries trigger
    if trace:
        passes, metrics = traced_run(wl, workload, base, seed, seconds)
    else:
        passes = run_passes(wl, workload, base, seed, seconds)
        per_pass = passes.per_pass_durations()
        metrics = {
            "setup_s": (measure_setup_s(workload, seed), "s"),
            "queries_per_s": (statistics.median(len(d) / sum(d) for d in per_pass), "1/s"),
            "query_p50_s": (statistics.median(statistics.median(d) for d in per_pass), "s"),
        }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures, flags = passes.failures, passes.exact_flags
    info = {
        "workload": workload,
        "seed": seed,
        "passes": passes.count,
        "timed_s": sum(passes.durations),
        "query_p90_s": p90_if_resolved(passes.durations),
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": len(failures) / passes.attempted,
        "inexact_ratio": flags.count(False) / len(flags) if flags else 0.0,
        "exact_flagged_results": len(flags),
        "failures": failures[:10],
    }
    result = {
        "correct": not failures,
        "attempted": passes.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
            return 0
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print("# info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
