"""End-to-end solver: reduce while a configuration exists, search the rest.

``solve`` shrinks the graph through the reducible configurations, handles
the two exceptional cliques directly, and resolves irreducible graphs by
exact bounded search (their even-degree core is a forest, so a
decomposition into ceil(n/2) paths exists and the search is guaranteed a
target).  The input contract, connected with maximum degree at most 5, is
checked once, by ``check_input``; every child keeps it, since ``reduce``
certifies each child's connectivity and the degrees at its boundary.  So
at a base case ``check_structure`` tests only what is new there, the
shape of the even-degree core.

``solve`` runs on an explicit work stack, not on recursion, so the depth
of the reduction chain is not bounded by Python's recursion limit: each
reduction pushes a frame holding its plan, its children are solved in
order, and the frame is lifted as soon as its last child is done.  Child
graphs keep their parent's vertex ids, so every decomposition is in the
ids of the input graph.

A base case that a lift consumes is loaded through the checked
``PathStore.load``, and each lift edits the store of its first child in
place, with a check at every edit (``reductions.lift``).  ``solve``
verifies the final decomposition against the input, so a returned result
is always checked end to end.

``min_decomposition`` is the independent oracle: iterative deepening on the
exact search, starting from the combinatorial lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .paths import Path, PathDecomposition, PathStore, lower_bound, verify
from .reductions import (
    LiftPlan,
    check_structure,
    detect,
    is_exceptional_clique,
    lift,
    reduce,
)
from .search import cover_with_paths


class SolveError(RuntimeError):
    """Input rejected or an internal guarantee failed during solving."""


class InternalError(SolveError):
    """An internal guarantee of the solver failed: a fault of the
    program, not of its input."""


@dataclass(frozen=True)
class ReductionStep:
    order: int  # vertex count of the graph the reduction was applied to
    tag: str
    subcase: str


@dataclass(frozen=True)
class SolveTrace:
    steps: tuple[ReductionStep, ...]
    base_cases: tuple[str, ...]

    @property
    def base_case(self) -> str:
        return self.base_cases[0]


@dataclass(frozen=True)
class SolveResult:
    decomposition: PathDecomposition
    trace: SolveTrace


# Templates for K3 and K5, by position in the ascending vertex ids.
_CLIQUE_PATHS = {
    3: ((0, 1, 2), (0, 2)),
    5: ((0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (4, 0, 3)),
}


def _clique_decomposition(g: Graph) -> PathDecomposition:
    order = tuple(g.vertices())
    return PathDecomposition(
        tuple(Path(tuple(order[i] for i in seq)) for seq in _CLIQUE_PATHS[g.n])
    )


def check_input(g: Graph) -> None:
    """Raise ``SolveError`` unless ``g`` is connected with max degree <= 5."""
    if not g.is_connected():
        raise SolveError("graph is not connected")
    if g.m and g.max_degree() > 5:
        raise SolveError("max degree exceeds 5")


def solve(g: Graph, budget: int | None = None) -> SolveResult:
    """Decompose a connected graph with max degree <= 5 into at most
    ceil(n/2) paths, verified end to end; raise ``InternalError`` rather
    than return a decomposition that is not good."""
    check_input(g)
    steps: list[ReductionStep] = []
    bases: list[str] = []
    # The reductions whose children are not all solved yet, innermost
    # last, each with the stores of its children solved so far.
    stack: list[tuple[LiftPlan, list[PathStore]]] = []
    graph = g
    while True:
        occ = None if graph.m == 0 or is_exceptional_clique(graph) else detect(graph)
        if occ is not None:
            plan = reduce(graph, occ)
            steps.append(ReductionStep(graph.n, plan.tag, plan.subcase))
            stack.append((plan, []))
            graph = plan.children[0].graph
            continue
        solved: PathDecomposition | PathStore = _base_case(graph, budget, bases)
        if stack:
            solved = _load(graph, solved, bases[-1])
        # Lift every reduction that this base case completes.
        while stack and len(stack[-1][1]) + 1 == len(stack[-1][0].children):
            plan, stores = stack.pop()
            stores.append(solved)
            solved = lift(plan, stores)
        if not stack:
            break
        plan, stores = stack[-1]
        stores.append(solved)
        graph = plan.children[len(stores)].graph
    d = solved if isinstance(solved, PathDecomposition) else solved.decomposition()
    report = verify(g, d)
    if not (report.valid and report.good):
        raise InternalError(f"final decomposition not good:\n{report}")
    return SolveResult(d, SolveTrace(tuple(steps), tuple(bases)))


def _base_case(g: Graph, budget: int | None, bases: list[str]) -> PathDecomposition:
    """Decompose a graph that is edgeless, an exceptional clique or
    irreducible (``solve`` calls this only once ``detect`` has found no
    configuration), and append its base-case label to ``bases``."""
    if g.m == 0:
        bases.append("trivial")
        return PathDecomposition(())
    if is_exceptional_clique(g):
        bases.append(f"K{g.n}")
        return _clique_decomposition(g)
    if not check_structure(g):
        raise InternalError(
            "irreducible graph has a cyclic even-degree core; "
            "this contradicts the structure guarantee"
        )
    k = (g.n + 1) // 2
    # g is connected and has edges, so the search needs no checks first
    d = _search(g, k, budget)
    if d is None:
        raise InternalError(
            f"exact search found no decomposition into {k} paths; "
            "this contradicts the decomposition guarantee"
        )
    bases.append(f"search(k={k})")
    return d


def _load(g: Graph, d: PathDecomposition, base: str) -> PathStore:
    """The checked store of a base case that a lift is about to consume."""
    try:
        return PathStore.load(g, d)
    except ValueError as exc:
        raise InternalError(f"base case {base} is not a decomposition: {exc}") from exc


def solve_base(
    g: Graph, k: int, budget: int | None = None
) -> PathDecomposition | None:
    """Exact search for a decomposition into at most k paths, or None.

    Complete and deterministic; raises BudgetExhaustedError if the node
    budget runs out before an answer is certain.
    """
    if not g.is_connected():
        raise SolveError("graph is not connected")
    if g.m == 0:
        raise SolveError("graph has no edges")
    return _search(g, k, budget)


def _search(g: Graph, k: int, budget: int | None) -> PathDecomposition | None:
    cover = cover_with_paths(g.adjacency(), k, budget)
    if cover is None:
        return None
    return PathDecomposition(tuple(Path(seq) for seq in cover))


def min_decomposition(
    g: Graph, budget: int | None = None
) -> tuple[int, PathDecomposition]:
    """Exact minimum number of paths, by iterative deepening from the
    lower bound."""
    if g.m == 0:
        raise SolveError("graph has no edges")
    if not g.is_connected():
        raise SolveError("graph is not connected")
    k = lower_bound(g)
    while (d := _search(g, k, budget)) is None:
        k += 1
    return k, d
