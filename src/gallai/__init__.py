"""Path decompositions of connected graphs with maximum degree at most 5.

Every connected graph on n vertices with max degree <= 5 decomposes into at
most ceil(n/2) paths.  This library makes that constructive: ``solve``
shrinks a graph through five reducible configurations, finishes the
irreducible core by exact search, rewrites the pieces' decompositions back
up, and verifies the result end to end.
"""

from .graphs import Edge, Graph, edge
from .paths import (
    Path,
    PathDecomposition,
    VerifyReport,
    Violation,
    add_path,
    decomposition,
    extend,
    is_good,
    lower_bound,
    path,
    replace_subpath,
    split_at,
    verify,
)
from .io import (
    FormatError,
    format_decomposition,
    parse_decomposition,
    parse_edgelist,
    parse_graph6,
    write_graph6,
)
from .census import canonical_form, canonical_graph, enumerate_connected
from .reductions import (
    C1,
    C2,
    C3,
    C4,
    C5,
    SUBCASES,
    LiftError,
    LiftPlan,
    Occurrence,
    ReductionError,
    check_structure,
    detect,
    detect_c1,
    detect_c2,
    detect_c3,
    detect_c4,
    detect_c5,
    lift,
    reduce,
)
from .search import BudgetExhaustedError
from .solver import (
    SolveError,
    SolveResult,
    SolveTrace,
    min_decomposition,
    solve,
    solve_base,
)
from .batch import BatchReport, Finding, GraphRecord, run_check, run_floor_search, run_scan

__version__ = "0.1.0"

__all__ = [
    "BatchReport",
    "BudgetExhaustedError",
    "C1",
    "C2",
    "C3",
    "C4",
    "C5",
    "Edge",
    "Finding",
    "FormatError",
    "Graph",
    "GraphRecord",
    "LiftError",
    "LiftPlan",
    "Occurrence",
    "Path",
    "PathDecomposition",
    "ReductionError",
    "SUBCASES",
    "SolveError",
    "SolveResult",
    "SolveTrace",
    "VerifyReport",
    "Violation",
    "add_path",
    "canonical_form",
    "canonical_graph",
    "check_structure",
    "decomposition",
    "detect",
    "detect_c1",
    "detect_c2",
    "detect_c3",
    "detect_c4",
    "detect_c5",
    "edge",
    "enumerate_connected",
    "extend",
    "format_decomposition",
    "is_good",
    "lift",
    "lower_bound",
    "min_decomposition",
    "parse_decomposition",
    "parse_edgelist",
    "parse_graph6",
    "path",
    "reduce",
    "replace_subpath",
    "run_check",
    "run_floor_search",
    "run_scan",
    "solve",
    "solve_base",
    "split_at",
    "verify",
    "write_graph6",
]
