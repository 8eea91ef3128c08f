import functools
import itertools
import time

import pytest

from gallai import (
    BudgetExhaustedError,
    Graph,
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
