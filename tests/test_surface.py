"""The package exports the documented API and nothing else, keeps every
name the benchmark's tracer hooks, and has no ``Graph`` method without a
use."""

import importlib.util
import re
import types
from pathlib import Path

import gallai
from gallai.graphs import Graph

API = [
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

# Names the benchmark (perfbench/) reads from the package itself.
BENCH_NAMES = [
    "Graph",
    "detect",
    "SUBCASES",
    "solve",
    "verify",
    "run_check",
    "enumerate_connected",
    "parse_graph6",
    "write_graph6",
    "format_decomposition",
    "SolveError",
    "LiftError",
    "BudgetExhaustedError",
]


def test_all_is_the_documented_api():
    assert sorted(gallai.__all__) == API


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from gallai import *", namespace)
    for name in gallai.__all__:
        assert namespace[name] is getattr(gallai, name)


def test_bench_names_stay_exported():
    missing = [name for name in BENCH_NAMES if name not in gallai.__all__]
    assert not missing


def _tracer():
    """perfbench/tracer.py, loaded from its file (it imports only the
    standard library)."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    tracer = _tracer()
    assert tracer._MODULE_HOOKS and tracer._GRAPH_METHODS
    missing = []
    for module, attr, _ in tracer._MODULE_HOOKS:
        owner = importlib.import_module(f"gallai.{module}")
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{attr}")
    missing += [
        f"Graph.{method}"
        for method in tracer._GRAPH_METHODS
        if not callable(getattr(Graph, method, None))
    ]
    assert not missing


def test_every_public_graph_method_has_a_use():
    # A public ``Graph`` method is called somewhere in the library, or the
    # tracer hooks it; one that only tests call is surface to retire.  The
    # library is read as text: a method is called where ``.name`` appears.
    library = "".join(
        path.read_text()
        for path in Path(gallai.__file__).parent.glob("*.py")
    )
    hooked = set(_tracer()._GRAPH_METHODS)
    unused = [
        name
        for name, value in vars(Graph).items()
        if not name.startswith("_")
        and isinstance(value, (classmethod, types.FunctionType))
        and name not in hooked
        and not re.search(rf"\.{name}\b", library)
    ]
    assert not unused
