"""End-to-end solver: reduce while a configuration exists, search the rest.

``solve`` recursively shrinks the graph through the reducible
configurations, handles the two exceptional cliques directly, and resolves
irreducible graphs by exact bounded search (their even-degree core is a
forest, so a decomposition into ceil(n/2) paths exists and the search is
guaranteed a target).  Child graphs keep their parent's vertex ids, so
every decomposition is in the ids of the input graph.  Each lift verifies
its own result against the graph it was applied to, once per level, and
``solve`` verifies the final decomposition against the input, so a
returned result is always checked end to end.

``min_decomposition`` is the independent oracle: iterative deepening on the
exact search, starting from the combinatorial lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .paths import Path, PathDecomposition, lower_bound, verify
from .reductions import (
    check_structure,
    detect,
    is_exceptional_clique,
    lift,
    reduce,
)
from .search import cover_with_paths


class SolveError(RuntimeError):
    """Input rejected or an internal guarantee failed during solving."""


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
    verified: bool


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
    if g.n and g.m and g.max_degree() > 5:
        raise SolveError("max degree exceeds 5")


def solve(g: Graph, budget: int | None = None) -> SolveResult:
    """Decompose a connected graph with max degree <= 5 into at most
    ceil(n/2) paths, verified."""
    check_input(g)
    steps: list[ReductionStep] = []
    bases: list[str] = []
    d = _solve(g, budget, steps, bases)
    report = verify(g, d)
    if not (report.valid and report.good):
        raise SolveError(f"internal error: final decomposition not good:\n{report}")
    return SolveResult(d, SolveTrace(tuple(steps), tuple(bases)), True)


def _solve(
    g: Graph, budget: int | None, steps: list[ReductionStep], bases: list[str]
) -> PathDecomposition:
    """Decompose ``g``, appending its reductions to ``steps`` and its base
    cases to ``bases``, both in pre-order."""
    if g.m == 0:
        bases.append("trivial")
        return PathDecomposition(())
    if is_exceptional_clique(g):
        bases.append(f"K{g.n}")
        return _clique_decomposition(g)
    occ = detect(g)
    if occ is None:
        if not check_structure(g):
            raise SolveError(
                "irreducible graph has a cyclic even-degree core; "
                "this contradicts the structure guarantee"
            )
        k = (g.n + 1) // 2
        d = solve_base(g, k, budget)
        if d is None:
            raise SolveError(
                f"exact search found no decomposition into {k} paths; "
                "this contradicts the decomposition guarantee"
            )
        bases.append(f"search(k={k})")
        return d
    plan = reduce(g, occ)
    steps.append(ReductionStep(g.n, plan.tag, plan.subcase))
    decomps = [_solve(child.graph, budget, steps, bases) for child in plan.children]
    return lift(occ, plan, decomps)


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
    cover = cover_with_paths(frozenset(g.edges()), k, budget)
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
    while True:
        d = solve_base(g, k, budget)
        if d is not None:
            return k, d
        k += 1
