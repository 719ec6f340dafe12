"""Spans and self time around the library's public functions.

The tracer replaces each listed function at every ``magicsets`` module
attribute that holds it (the defining module and every module that
imported it by name), so calls between library modules are traced as well
as the benchmark's own calls.  ``uninstall`` puts the originals back.

Self time of a span is its duration minus the time covered by its child
spans, so the self times of all spans add up to the time covered by the
outermost spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

#: Layer (module) -> traced public functions.  Metric names are
#: ``<layer>.<function>.calls`` and ``<layer>.<function>.self_s``.
LAYERS = {
    "hypergraph": ("parse_edge_list", "is_proper_eulerian"),
    "gf2": ("null_space_basis", "coset_min_weight", "row_combination", "solve_affine", "rank"),
    "gram": ("valid_gram_space", "min_qubits", "is_minimal", "validate_gram"),
    "assign": ("assignment_from_gram",),
    "pauli": ("multiply", "verify_assignment"),
    "bound": ("noncontextual_bound", "hypergraph_bound"),
    "reduce": ("find_minimal_descendants", "reduce_with", "isomorphism_key", "are_isomorphic"),
    "planarity": ("is_planar_via_gram",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

#: Spans kept for the written span log; aggregates cover every span.
MAX_LOGGED_SPANS = 200_000


class Tracer:
    """Wraps the functions in LAYERS and aggregates their spans in memory."""

    def __init__(self):
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.query_id = -1
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        # Span log columns: name index, start, end, parent span id, query id.
        self.log_name = array("H")
        self.log_start = array("d")
        self.log_end = array("d")
        self.log_parent = array("q")
        self.log_query = array("q")
        self.dropped = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_s[idx] += dur - frame[2]
                calls[idx] += 1
                if stack:
                    stack[-1][2] += dur
                if len(self.log_name) < MAX_LOGGED_SPANS:
                    self.log_name.append(idx)
                    self.log_start.append(frame[1])
                    self.log_end.append(end)
                    self.log_parent.append(parent)
                    self.log_query.append(self.query_id)
                else:
                    self.dropped += 1

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "magicsets" or name.startswith("magicsets.")]
        for idx, span in enumerate(SPAN_NAMES):
            layer, fn_name = span.split(".")
            original = getattr(sys.modules[f"magicsets.{layer}"], fn_name)
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def span_log(self) -> dict:
        return {
            "names": list(SPAN_NAMES),
            "columns": ["name", "start_s", "end_s", "parent", "query"],
            "spans": [
                [SPAN_NAMES[n], s, e, p, q]
                for n, s, e, p, q in zip(
                    self.log_name, self.log_start, self.log_end, self.log_parent, self.log_query
                )
            ],
            "dropped_spans": self.dropped,
        }
