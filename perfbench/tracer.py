"""In-memory span tracing of the library's layers, from outside the library.

``Tracer.install`` replaces module attributes of ``gallai`` (the names each
module uses to call into the next layer) and four ``Graph`` methods with
wrappers that record one span per call: name, start, end, parent span and
the id of the input graph being solved.  Nothing in the library changes;
``uninstall`` puts the original functions back.  Each wrapper adds one
stack frame to the call it wraps, and no wrapped function calls itself
through its wrapped name, so the solver's recursion gets at most a few
frames deeper.

Span names are ``<module>.<function>``, the layer metric keys; calls of
``verify`` are further tagged by the module that made them, so the report
can split verification by caller.
"""

from __future__ import annotations

import json
import time

# (module the name is looked up in, attribute, span name)
_MODULE_HOOKS = (
    ("solver", "detect", "reductions.detect"),
    ("solver", "reduce", "reductions.reduce"),
    ("solver", "lift", "reductions.lift"),
    ("solver", "check_structure", "reductions.check_structure"),
    ("solver", "verify", "paths.verify.in_solve"),
    ("solver", "cover_with_paths", "search.cover_with_paths"),
    ("reductions", "detect", "reductions.detect"),
    ("reductions", "verify", "paths.verify.in_lift"),
    ("reductions", "cover_with_paths", "search.in_lift"),
    ("batch", "solve", "solver.solve"),
    ("batch", "detect", "reductions.detect"),
    ("batch", "check_structure", "reductions.check_structure"),
    ("batch", "verify", "paths.verify.in_batch"),
    ("census", "canonical_form", "census.canonical_form"),
)
_GRAPH_METHODS = ("delete_vertices", "contract_edge", "is_connected", "bridges")


class Tracer:
    """Records spans; one instance per traced process."""

    def __init__(self) -> None:
        # span: (name, start_ns, end_ns, parent index or -1, graph id)
        self.spans: list[tuple[str, int, int, int, str] | None] = []
        self.graph = ""
        self.graph_of: dict[int, str] = {}
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, entry: bool = False):
        """``fn`` recording a span per call.  An ``entry`` wrapper takes
        its first argument to be an input graph and, if ``graph_of`` knows
        it, makes its id the current graph id."""
        spans, opened, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            if entry and args:
                self.graph = self.graph_of.get(id(args[0]), self.graph)
            index = len(spans)
            spans.append(None)
            parent = opened[-1] if opened else -1
            opened.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                spans[index] = (name, start, end, parent, self.graph)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import gallai.batch
        import gallai.census
        import gallai.reductions
        import gallai.solver
        from gallai.graphs import Graph

        modules = {
            "solver": gallai.solver,
            "reductions": gallai.reductions,
            "batch": gallai.batch,
            "census": gallai.census,
        }
        for module, attr, name in _MODULE_HOOKS:
            # `run_check` calls these with the input graph itself.
            self._replace(modules[module], attr, name, module == "batch")
        for method in _GRAPH_METHODS:
            self._replace(Graph, method, f"graphs.{method}")

    def _replace(self, owner, attr: str, name: str, entry: bool = False) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, entry))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, graph."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds ``s`` and ``self_s``.

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap, since the process runs one
    call at a time.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _, _), covered in zip(spans, child_ns):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - covered) / 1e9
    return totals
