"""Batch runs over graph streams: solve-and-verify, floor search, scanning.

Each run produces a ``BatchReport`` holding one record per input graph (in
input order), aggregate counters, and a findings list.  A finding is
anything that contradicts the guarantees this library is built around: a
solve that fails (a cyclic even-degree core on an irreducible graph among
the guarantees ``solve`` checks), or a graph that misses the floor(n/2)
target without being an odd semi-clique.  A graph whose solve fails, or
runs out of search budget, is a finding of that graph, and the run goes on
with the next one.
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
    # verify_failure | floor_gap | error | budget
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


def _bound(g: Graph) -> int:
    return (g.n + 1) // 2


def run_check(
    graphs: list[tuple[str, Graph]], budget: int | None = None
) -> BatchReport:
    """Solve and verify every graph, one ``solve`` each.

    ``solve`` checks the input contract and, on every irreducible graph it
    meets, the even-core structure.  A graph whose solve fails (an input
    outside the contract, such as an edgeless graph other than K1, a
    cyclic even-degree core, a reduction or lift that breaks its own
    check, or recursion too deep) gets an ``error`` finding and a failed
    record, and the run goes on with the next graph; one whose search runs
    out of ``budget`` gets a ``budget`` finding the same way.  A solved
    graph's note is ``edgeless`` without edges, and ``irreducible`` when
    ``solve`` searched it whole, with no reduction.
    """
    report = BatchReport("check")
    for graph_id, g in graphs:
        start = time.perf_counter()
        note = ""
        histogram: dict[str, int] = {}
        verified = False
        paths = None
        try:
            result = solve(g, budget)
            trace = result.trace
            if g.m == 0:
                note = "edgeless"
            elif not trace.steps and trace.base_case.startswith("search"):
                note = "irreducible"
            for step in trace.steps:
                key = f"{step.tag}/{step.subcase}"
                histogram[key] = histogram.get(key, 0) + 1
            outcome = verify(g, result.decomposition)
            paths = outcome.path_count
            verified = outcome.valid and outcome.good
            if not verified:
                report.findings.append(
                    Finding("verify_failure", graph_id, str(outcome))
                )
        except (SolveError, ReductionError, RecursionError) as exc:
            report.findings.append(Finding("error", graph_id, str(exc)))
        except BudgetExhaustedError as exc:
            report.findings.append(Finding("budget", graph_id, str(exc)))
        report.records.append(
            GraphRecord(
                graph_id, g.n, g.m, g.max_degree() if g.n else 0, _bound(g),
                paths, histogram, verified, note, time.perf_counter() - start,
            )
        )
    return report


def run_floor_search(
    graphs: list[tuple[str, Graph]], budget: int | None = None
) -> BatchReport:
    """Try floor(n/2) paths on every graph; failures must be odd
    semi-cliques, anything else is surfaced as a finding.  A graph that is
    not connected gets an ``error`` finding, one whose search runs out of
    ``budget`` a ``budget`` finding, and the run goes on with the next."""
    report = BatchReport("floor-search")
    for graph_id, g in graphs:
        start = time.perf_counter()
        target = g.n // 2
        paths, verified, note = None, False, ""
        try:
            if g.n == 1:
                paths, verified, note = 0, True, "edgeless"
            elif (d := solve_base(g, target, budget)) is not None:
                outcome = verify(g, d)
                paths, verified = outcome.path_count, outcome.valid
            elif g.is_odd_semi_clique():
                verified, note = True, "odd_semi_clique"
            else:
                note = "unclassified"
                report.findings.append(
                    Finding(
                        "floor_gap",
                        graph_id,
                        f"no decomposition into {target} paths and the graph "
                        "is not an odd semi-clique",
                    )
                )
        except SolveError as exc:
            report.findings.append(Finding("error", graph_id, str(exc)))
        except BudgetExhaustedError as exc:
            report.findings.append(Finding("budget", graph_id, str(exc)))
        report.records.append(
            GraphRecord(
                graph_id, g.n, g.m, g.max_degree() if g.n else 0, target,
                paths, {}, verified, note, time.perf_counter() - start,
            )
        )
    return report


def run_scan(graphs: list[tuple[str, Graph]]) -> BatchReport:
    """Report which configurations occur in each graph, without solving."""
    report = BatchReport("scan")
    for graph_id, g in graphs:
        start = time.perf_counter()
        histogram = {}
        for detector in _DETECTORS:
            occ = detector(g)
            if occ is not None:
                histogram[occ.tag] = 1
        # the detectors run in priority order, so the first tag is detect's
        note = next(iter(histogram), "irreducible")
        report.records.append(
            GraphRecord(
                graph_id, g.n, g.m, g.max_degree() if g.n else 0, _bound(g),
                None, histogram, True, note, time.perf_counter() - start,
            )
        )
    return report
