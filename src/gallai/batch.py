"""Batch runs over graph streams: solve-and-verify, floor search, scanning.

Each run produces a ``BatchReport`` holding one record per input graph (in
input order), aggregate counters, and a findings list.  A finding is
anything that contradicts the guarantees this library is built around: a
solve that fails (a cyclic even-degree core on an irreducible graph among
the guarantees ``solve`` checks), or a graph that misses the floor(n/2)
target without being an odd semi-clique.  The three runs share one failure
rule: a graph whose work raises ``SolveError``, ``ReductionError`` or
``RecursionError`` is an ``error`` finding of that graph, one whose search
runs out of budget a ``budget`` finding, and the run goes on with the next
graph.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

from .graphs import Graph
from .paths import verify
from .reductions import _DETECTORS, ReductionError
# imported only so the benchmark's tracer can hook ``batch.detect`` and
# ``batch.check_structure``
from .reductions import check_structure, detect  # noqa: F401
from .search import BudgetExhaustedError
from .solver import SolveError, solve, solve_base


@dataclass(frozen=True)
class Finding:
    # error | budget (any run), verify_failure (check), floor_gap (floor-search)
    kind: str
    graph_id: str
    message: str


@dataclass(frozen=True)
class GraphRecord:
    graph_id: str
    n: int
    m: int
    max_degree: int
    bound: int
    paths: int | None
    histogram: dict[str, int]
    verified: bool
    note: str
    seconds: float

    def line(self) -> str:
        paths = "-" if self.paths is None else str(self.paths)
        flag = "ok" if self.verified else "FAIL"
        hist = ",".join(f"{k}x{v}" for k, v in sorted(self.histogram.items()))
        note = f" {self.note}" if self.note else ""
        return (
            f"{self.graph_id}\tn={self.n} m={self.m} maxdeg={self.max_degree} "
            f"paths={paths}/{self.bound} {flag}{note}"
            + (f" [{hist}]" if hist else "")
        )


@dataclass
class BatchReport:
    command: str
    records: list[GraphRecord] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counters(self) -> dict[str, int]:
        out = {
            "graphs": len(self.records),
            "verified": sum(1 for r in self.records if r.verified),
            "findings": len(self.findings),
        }
        for record in self.records:
            for key, value in record.histogram.items():
                out[key] = out.get(key, 0) + value
        return out

    def to_text(self) -> str:
        lines = [record.line() for record in self.records]
        for finding in self.findings:
            lines.append(f"FINDING {finding.kind} {finding.graph_id}: {finding.message}")
        counts = self.counters()
        summary = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
        lines.append(f"# {self.command}: {summary}")
        return "\n".join(lines) + "\n"

    def to_document(self) -> dict:
        return {
            "command": self.command,
            "counters": self.counters(),
            "records": [
                {
                    **asdict(r),
                    "histogram": dict(sorted(r.histogram.items())),
                    "seconds": round(r.seconds, 6),
                }
                for r in self.records
            ],
            "findings": [asdict(f) for f in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2) + "\n"


def _run(command: str, graphs: list[tuple[str, Graph]], examine,
         bound=lambda g: (g.n + 1) // 2) -> BatchReport:
    """One timed record per graph, in input order, with ``bound(g)`` as its
    bound.  ``examine(g)`` gives the record's paths, histogram, verified
    flag and note, and a finding's kind and message or None.  A ``SolveError``, ``ReductionError`` or
    ``RecursionError`` it raises is an ``error`` finding of the graph, a
    ``BudgetExhaustedError`` a ``budget`` finding; either leaves a failed
    record, and the run goes on with the next graph."""
    report = BatchReport(command)
    for graph_id, g in graphs:
        start = time.perf_counter()
        try:
            paths, histogram, verified, note, problem = examine(g)
        except (SolveError, ReductionError, RecursionError,
                BudgetExhaustedError) as exc:
            kind = "budget" if isinstance(exc, BudgetExhaustedError) else "error"
            paths, histogram, verified, note = None, {}, False, ""
            problem = kind, str(exc)
        if problem is not None:
            report.findings.append(Finding(problem[0], graph_id, problem[1]))
        report.records.append(
            GraphRecord(
                graph_id, g.n, g.m, g.max_degree() if g.n else 0, bound(g),
                paths, histogram, verified, note, time.perf_counter() - start,
            )
        )
    return report


def run_check(
    graphs: list[tuple[str, Graph]], budget: int | None = None
) -> BatchReport:
    """Solve and verify every graph, one ``solve`` each.

    ``solve`` checks the input contract and, on every irreducible graph it
    meets, the even-core structure, so an input outside the contract (such
    as an edgeless graph other than K1), a cyclic even-degree core, a
    reduction or lift that breaks its own check, or recursion too deep is
    an ``error`` finding.  A solved graph's note is ``edgeless`` without
    edges, and ``irreducible`` when ``solve`` searched it whole, with no
    reduction.
    """

    def examine(g: Graph):
        result = solve(g, budget)
        trace = result.trace
        note = ""
        if g.m == 0:
            note = "edgeless"
        elif not trace.steps and trace.base_case.startswith("search"):
            note = "irreducible"
        histogram: dict[str, int] = {}
        for step in trace.steps:
            key = f"{step.tag}/{step.subcase}"
            histogram[key] = histogram.get(key, 0) + 1
        outcome = verify(g, result.decomposition)
        verified = outcome.valid and outcome.good
        problem = None if verified else ("verify_failure", str(outcome))
        return outcome.path_count, histogram, verified, note, problem

    return _run("check", graphs, examine)


def run_floor_search(
    graphs: list[tuple[str, Graph]], budget: int | None = None
) -> BatchReport:
    """Try floor(n/2) paths on every graph; failures must be odd
    semi-cliques, and any other is a ``floor_gap`` finding."""

    def examine(g: Graph):
        target = g.n // 2
        if g.n == 1:
            return 0, {}, True, "edgeless", None
        d = solve_base(g, target, budget)
        if d is not None:
            outcome = verify(g, d)
            return outcome.path_count, {}, outcome.valid, "", None
        # an odd semi-clique: a clique on 2k + 1 vertices minus at most
        # k - 1 edges, so more than 2k^2 edges, where k = floor(n/2)
        if g.n % 2 and g.m > 2 * target * target:
            return None, {}, True, "odd_semi_clique", None
        return None, {}, False, "unclassified", (
            "floor_gap",
            f"no decomposition into {target} paths and the graph is not an "
            "odd semi-clique",
        )

    return _run("floor-search", graphs, examine, lambda g: g.n // 2)


def run_scan(graphs: list[tuple[str, Graph]]) -> BatchReport:
    """Report which configurations occur in each graph, without solving."""

    def examine(g: Graph):
        histogram = {}
        for detector in _DETECTORS:
            occ = detector(g)
            if occ is not None:
                histogram[occ.tag] = 1
        # the detectors run in priority order, so the first tag is detect's
        return None, histogram, True, next(iter(histogram), "irreducible"), None

    return _run("scan", graphs, examine)
