import dataclasses
import functools
import itertools
import re
import sys
import time

import pytest

from gallai import (
    BudgetExhaustedError,
    Graph,
    LiftError,
    SolveError,
    enumerate_connected,
    min_decomposition,
    solve,
    verify,
)
from gallai.paths import lower_bound
from gallai.solver import solve_base
from helpers import complete_graph, cycle, path_graph, petersen, star


def test_solve_examples():
    assert len(solve(path_graph(4)).decomposition) == 1
    assert len(solve(complete_graph(5)).decomposition) == 3
    assert len(solve(cycle(4)).decomposition) == 2
    result = solve(petersen())
    assert len(result.decomposition) == 5
    assert lower_bound(petersen()) == 5


def test_solve_is_verified_and_good():
    for g in (path_graph(4), cycle(5), complete_graph(5), petersen(), star(5)):
        result = solve(g)
        assert result.verified
        report = verify(g, result.decomposition)
        assert report.valid and report.good


def test_solve_trivial_graph():
    result = solve(Graph(1, [0]))
    assert len(result.decomposition) == 0
    assert result.trace.base_case == "trivial"


def test_solve_rejects_bad_inputs():
    with pytest.raises(SolveError):
        solve(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(SolveError):
        solve(star(6))  # degree 6 hub


def test_solve_base_examples():
    d = solve_base(star(3), 2)
    assert d is not None and len(d) == 2
    assert solve_base(complete_graph(5), 2) is None
    assert solve_base(cycle(4), 1) is None
    assert solve_base(cycle(4), 2) is not None


def test_min_decomposition_examples():
    assert min_decomposition(complete_graph(3))[0] == 2
    assert min_decomposition(complete_graph(5))[0] == 3
    assert min_decomposition(path_graph(5))[0] == 1
    assert min_decomposition(star(4))[0] == 2
    k, d = min_decomposition(petersen())
    assert k == 5 and verify(petersen(), d).valid


def test_determinism():
    for g in (cycle(6), complete_graph(5), petersen()):
        first = solve(g)
        second = solve(g)
        assert first.decomposition == second.decomposition
        assert first.trace == second.trace


def test_trace_orders_strictly_decrease():
    g = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    )
    result = solve(g)
    orders = [step.order for step in result.trace.steps]
    assert orders == sorted(orders, reverse=True)
    assert len(orders) <= g.n


def test_budget_exhaustion_is_distinct():
    with pytest.raises(BudgetExhaustedError):
        solve_base(petersen(), 5, budget=10)
    # with a budget that suffices, the same call returns a decomposition
    assert solve_base(petersen(), 5, budget=10**6) is not None


def test_lower_bound_not_above_minimum():
    for n in range(2, 7):
        for g in enumerate_connected(n, n):
            assert lower_bound(g) <= min_decomposition(g)[0]


# -- independent naive minimum oracle ----------------------------------------


def _all_simple_paths(g: Graph):
    """Every simple path as a frozenset of edges (no orientation dupes)."""
    out = set()

    def grow(seq):
        tail = seq[-1]
        for nb in g.neighbors(tail):
            if nb in seq:
                continue
            longer = seq + (nb,)
            if longer[0] < longer[-1]:
                out.add(
                    frozenset(
                        (min(a, b), max(a, b)) for a, b in zip(longer, longer[1:])
                    )
                )
            grow(longer)

    for v in range(g.n):
        grow((v,))
    return sorted(out, key=sorted)


def naive_min_paths(g: Graph) -> int:
    """Exhaustive partition search with no solver machinery shared."""
    paths = _all_simple_paths(g)

    @functools.lru_cache(maxsize=None)
    def best(uncovered: frozenset) -> int:
        if not uncovered:
            return 0
        seed = min(uncovered)
        answers = [
            best(uncovered - p) for p in paths if seed in p and p <= uncovered
        ]
        return 1 + min(answers)

    return best(frozenset(g.edges()))


def test_minimum_matches_naive_oracle_small():
    for n in range(2, 6):
        for g in enumerate_connected(n, n):
            assert min_decomposition(g)[0] == naive_min_paths(g)


def test_solve_base_succeeds_exactly_from_the_minimum():
    for n in range(2, 6):
        for g in enumerate_connected(n, n):
            k = min_decomposition(g)[0]
            assert solve_base(g, k) is not None
            if k > 1:
                assert solve_base(g, k - 1) is None


# -- the work stack and the checked in-place lifts ----------------------------


@pytest.mark.parametrize("n", [500, 1500])
def test_long_paths_solve_at_the_default_recursion_limit(n):
    # n - 2 reductions in a chain: at two stack frames each, a recursive
    # solver already overflows the default limit of 1000 at n = 500.
    limit = sys.getrecursionlimit()
    result = solve(path_graph(n))
    assert [p.vertices for p in result.decomposition] == [tuple(range(n))]
    assert len(result.trace.steps) == n - 2
    assert sys.getrecursionlimit() == limit


def _fault_splice_at_order(order, fault):
    """Solve the path 0-1-...-6, whose C1 reductions have parents of order
    7 down to 3, with the rewrite of the order-``order`` reduction replaced
    by ``fault(plan, store)``; return the error and the orders lifted."""
    import gallai.solver

    real_reduce, real_lift = gallai.solver.reduce, gallai.solver.lift
    lifted = []

    def faulty_reduce(g, occ):
        plan = real_reduce(g, occ)
        if g.n == order:
            plan = dataclasses.replace(plan, rewrite=functools.partial(fault, plan))
        return plan

    def recording_lift(occ, plan, stores):
        lifted.append(plan.parent.n)
        return real_lift(occ, plan, stores)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gallai.solver, "reduce", faulty_reduce)
        patch.setattr(gallai.solver, "lift", recording_lift)
        with pytest.raises(LiftError) as caught:
            solve(path_graph(7))
    return str(caught.value), lifted


def _leave_synthetic(plan, store):
    store.append(plan.children[0].routes[0])  # route added, edge not spliced


def _add_non_edge(plan, store):
    plan.rewrite(store)
    store.append((0, 5))


def _cover_twice(plan, store):
    plan.rewrite(store)
    store.append((5, 6))


def _drop_parent_edge(plan, store):
    plan.rewrite(store)
    (pid, vertices), = store.paths.items()
    store.replace(pid, vertices[:-1])


def _splice_onto_host(plan, store):
    store.splice((0, 5, 4))  # 5 is already on the host path 0-4-5-6


@pytest.mark.parametrize(
    "fault, message",
    [
        (_leave_synthetic, r"C1/splice left synthetic edges \[\(0, 4\)\] covered"),
        (_add_non_edge, r"C1/splice recipe failed: \(0, 5\) is not an edge"),
        (_cover_twice, r"C1/splice recipe failed: edge \(5, 6\) is already covered"),
        (_drop_parent_edge, r"C1/splice covers 3 of 4 edges"),
        (_splice_onto_host, r"C1/splice recipe failed: .* not leave a simple path"),
    ],
    ids=["synthetic_left", "non_edge", "covered_twice", "edge_dropped", "vertex_twice"],
)
def test_solve_rejects_a_faulty_rewrite_at_its_level(fault, message):
    # The order-5 parent is the path 0-3-4-5-6 and its child 0-4-5-6 holds
    # the synthetic edge 0-4.  The lifts of orders 3 and 4 run first; the
    # fault is caught in the lift of order 5, and no lift above it starts.
    error, lifted = _fault_splice_at_order(5, fault)
    assert re.search(message, error), error
    assert lifted == [3, 4, 5]
