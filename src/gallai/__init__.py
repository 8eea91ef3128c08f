"""Path decompositions of connected graphs with maximum degree at most 5.

Every connected graph on n vertices with max degree <= 5 decomposes into at
most ceil(n/2) paths.  This library makes that constructive: ``solve``
shrinks a graph through five reducible configurations, finishes the
irreducible core by exact search, rewrites the pieces' decompositions back
up, and verifies the result end to end.

The package exports the documented API below; everything else (the
configurations, ``reduce`` and ``lift``, the ``PathStore`` that ``lift``
rewrites and that ``PathStore.load`` fills from a decomposition, path
helpers such as ``path`` and ``decomposition``) is imported from its
module, e.g. ``gallai.reductions``.
"""

from .graphs import Graph
from .paths import Path, PathDecomposition, VerifyReport, Violation, verify
from .io import (
    FormatError,
    format_decomposition,
    parse_decomposition,
    parse_edgelist,
    parse_graph6,
    write_graph6,
)
from .census import canonical_form, enumerate_connected
from .reductions import SUBCASES, LiftError, ReductionError, detect
from .search import BudgetExhaustedError
from .solver import SolveError, SolveResult, SolveTrace, min_decomposition, solve
from .batch import BatchReport, Finding, GraphRecord, run_check, run_floor_search, run_scan

__version__ = "0.1.0"

__all__ = [
    "BatchReport",
    "BudgetExhaustedError",
    "Finding",
    "FormatError",
    "Graph",
    "GraphRecord",
    "LiftError",
    "Path",
    "PathDecomposition",
    "ReductionError",
    "SUBCASES",
    "SolveError",
    "SolveResult",
    "SolveTrace",
    "VerifyReport",
    "Violation",
    "canonical_form",
    "detect",
    "enumerate_connected",
    "format_decomposition",
    "min_decomposition",
    "parse_decomposition",
    "parse_edgelist",
    "parse_graph6",
    "run_check",
    "run_floor_search",
    "run_scan",
    "solve",
    "verify",
    "write_graph6",
]
