"""End-to-end solver: reduce while a configuration exists, search the rest.

``solve`` shrinks the graph through the reducible configurations and
covers every graph left, edgeless, one of the two exceptional cliques or
irreducible, by the same exact search for ceil(n/2) paths (an irreducible
graph's even-degree core is a forest, so such a decomposition exists and
the search is guaranteed a target).  The input contract, connected with
maximum degree at most 5, is checked once, by ``check_input``; every
child keeps it, since ``reduce`` certifies each child's connectivity and
the degrees at its boundary.  So at an irreducible base case
``check_structure`` tests only what is new there, the shape of the
even-degree core.

``solve`` runs on an explicit work stack, not on recursion, so the depth
of the reduction chain is not bounded by Python's recursion limit: each
reduction pushes a frame holding its plan, its children are solved in
order, each passing what ``reductions.inherited`` derives from what its
parent passed to ``detect``, and the frame is lifted as soon as its last
child is done.  Child graphs keep their parent's vertex ids, so every
decomposition is in the ids of the input graph.

A frame holds no graph, so memory stays linear in n however long the
chain.  ``reduce`` is pure: each child it builds is a graph over a view of
its parent's table (``graphs._cut``), minus the removed set S and with
new tuples for the boundary B, the only vertices whose tuples change.
``solve`` descends into every child by one edit of one working table
(``_descend``, ``graphs._settle``), the input's copied at the first
reduction: it pops S, writes B's tuples and points the child's graph at
the table, and the parent's tuples that it overwrote, with the parent's
``m``, are the frame's undo record.  Putting it back re-inserts S and
drops the synthetic edges at B: before the lift, which runs against a
graph over the restored table, and between the two children of a plan
(C2 and two C4 sub-cases), with S in ascending order.  The two children
share no vertex, so the second child's S pops every id that the first
one's levels re-inserted, and its own ids ascend.  Each child's graph
and bridges leave its plan as ``solve`` descends into it, and S stays
only in the view that its graph was built over.  A frame keeps its
plan, its children's stores, its undo record and, for a two-child plan,
the ``near`` that its graph passed to ``detect``: ``inherited`` reads a
parent's bridges only for C1, which has one child.

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

from .graphs import Edge, Graph, _derived, _settle
from .paths import Path, PathDecomposition, PathStore, lower_bound, verify
from .reductions import (
    LiftPlan,
    check_structure,
    detect,
    inherited,
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


def check_input(g: Graph) -> None:
    """Raise ``SolveError`` unless ``g`` is connected with max degree <= 5."""
    if not g.is_connected():
        raise SolveError("graph is not connected")
    if g.m and g.max_degree() > 5:
        raise SolveError("max degree exceeds 5")


_Table = dict[int, tuple[int, ...]]

# What restores a parent from its child in the working table: the
# parent's ``m`` and its neighbour tuples of the removed set S and the
# boundary B, which the descent overwrote (``graphs._settle``).
_Undo = tuple[int, _Table]

# A pending reduction: its plan, the stores of its children solved so far,
# the ``near`` that its graph passed to ``detect`` where a second child
# will inherit from it (None otherwise), and the undo record of the child
# that it descended into last.
_Frame = tuple[LiftPlan, list[PathStore], frozenset[int] | None, _Undo]


def solve(g: Graph, budget: int | None = None) -> SolveResult:
    """Decompose a connected graph with max degree <= 5 into at most
    ceil(n/2) paths, verified end to end; raise ``InternalError`` rather
    than return a decomposition that is not good."""
    check_input(g)
    steps: list[ReductionStep] = []
    bases: list[str] = []
    stack: list[_Frame] = []  # innermost last
    graph, near, bridges = g, None, None
    table: _Table  # the working table that every graph but g stands over
    while True:
        leaf = _leaf(graph)
        occ = None if leaf else detect(graph, near, bridges)
        if occ is not None:
            plan = reduce(graph, occ)
            steps.append(ReductionStep(graph.n, plan.tag, plan.subcase))
            if graph is g:  # the input's table is never written
                table = dict(g.adjacency())
            m = graph.m
            kept = near if len(plan.children) > 1 else None
            graph, near, bridges, old = _descend(plan, 0, table, near, bridges)
            stack.append((plan, [], kept, (m, old)))
            continue
        base, solved = _base_case(graph, leaf, budget)
        bases.append(base)
        if stack:
            solved = _load(graph, solved, base)
        # Lift every reduction that this base case completes, restoring its
        # parent first: putting back the overwritten tuples re-inserts S and
        # drops the synthetic edges at B.  S's ids, inserted last, no longer
        # ascend, so the restored table serves only the lift's lookups.
        while stack and len(stack[-1][1]) + 1 == len(stack[-1][0].children):
            plan, stores, _, (m, old) = stack.pop()
            table.update(old)
            plan.parent = _derived(table, m)
            stores.append(solved)
            solved = lift(plan, stores)
        if not stack:
            break
        # The next child of a two-child plan: restore the parent with S
        # inserted ascending, which the child's own S then pops (the two
        # children share no vertex), and descend into it.
        plan, stores, kept, (m, old) = stack[-1]
        stores.append(solved)
        table.update(sorted(old.items()))
        graph, near, bridges, old = _descend(plan, len(stores), table, kept, None)
        stack[-1] = (plan, stores, kept, (m, old))
    d = solved if isinstance(solved, PathDecomposition) else solved.decomposition()
    report = verify(g, d)
    if not (report.valid and report.good):
        raise InternalError(f"final decomposition not good:\n{report}")
    return SolveResult(d, SolveTrace(tuple(steps), tuple(bases)))


def _descend(
    plan: LiftPlan, i: int, table: _Table, near: frozenset[int] | None,
    bridges: frozenset[Edge] | None,
) -> tuple[Graph, frozenset[int] | None, frozenset[Edge] | None, _Table]:
    """The graph of child i of ``plan`` over ``table``, which held its
    parent's tuples and is edited into the child's (``graphs._settle``);
    what the child passes to ``detect``, given what the plan's parent
    passed, read once the table holds the child; and the parent's tuples
    that the edit overwrote.  The child's graph and bridges, and the
    plan's parent, are taken out: the lift reads the child's routes and
    synthetic edges, and a parent re-derived over the restored table."""
    child = plan.children[i]
    graph = child.graph
    old = _settle(graph, table)
    near, bridges = inherited(plan, i, near, bridges)
    child.graph = child.bridges = plan.parent = None  # type: ignore[assignment]
    return graph, near, bridges, old


def _leaf(g: Graph) -> str | None:
    """The base-case label of a graph that ``solve`` does not reduce: an
    edgeless graph (``trivial``) or an exceptional clique (``K3``, ``K5``);
    None for any other graph."""
    if g.m == 0:
        return "trivial"
    return f"K{g.n}" if is_exceptional_clique(g) else None


def _base_case(
    g: Graph, leaf: str | None, budget: int | None
) -> tuple[str, PathDecomposition]:
    """The base-case label and the decomposition of a graph that is the
    ``leaf`` that ``_leaf`` names, or irreducible where ``leaf`` is None
    (``detect`` found no configuration): one exact search for ceil(n/2)
    paths covers all three.  The budget bounds only the search of an
    irreducible graph; the search covers an edgeless graph with no node,
    and K3 and K5 with one node per edge and no backtracking."""
    k = (g.n + 1) // 2
    if leaf is not None:
        base, budget = leaf, None
    elif check_structure(g):
        base = f"search(k={k})"
    else:
        raise InternalError(
            "irreducible graph has a cyclic even-degree core; "
            "this contradicts the structure guarantee"
        )
    # g is connected, so the search needs no checks first
    d = _search(g, k, budget)
    if d is None:
        raise InternalError(
            f"exact search found no decomposition into {k} paths; "
            "this contradicts the decomposition guarantee"
        )
    return base, d


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
    _check_searchable(g)
    return _search(g, k, budget)


def _check_searchable(g: Graph) -> None:
    """Raise ``SolveError`` unless ``g`` is connected and has edges."""
    if not g.is_connected():
        raise SolveError("graph is not connected")
    if g.m == 0:
        raise SolveError("graph has no edges")


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
    _check_searchable(g)
    k = lower_bound(g)
    while (d := _search(g, k, budget)) is None:
        k += 1
    return k, d
