import hashlib
import random
from collections import Counter

import pytest

from gallai import BudgetExhaustedError, enumerate_connected
from gallai.paths import lower_bound
from gallai.search import cover_with_paths
from helpers import (
    path_graph,
    random_connected_graph,
    random_cubic_graph,
    random_regular_graph,
    reference_cover_with_paths,
    reference_lower_bound,
)

# (census order, index into enumerate_connected(order, 5), k, least budget
# at which the search ends) for graphs whose minimum path count k0 exceeds
# their lower bound, at k = k0 (a cover) and k = k0 - 1 (None after an
# exhaustive search).  Recorded with the search that recomputed the bound
# and the uncovered edge set at every node.
_CENSUS_COUNTS = [
    (7, 14, 3, 7), (7, 14, 2, 10),
    (7, 105, 3, 10), (7, 105, 2, 34),
    (7, 259, 3, 12), (7, 259, 2, 100),
    (7, 462, 3, 22), (7, 462, 2, 135),
    (7, 637, 3, 12), (7, 637, 2, 99),
    (8, 42, 3, 9), (8, 42, 2, 17),
    (8, 553, 3, 11), (8, 553, 2, 50),
    (8, 1253, 3, 65), (8, 1253, 2, 26),
    (8, 2016, 3, 13), (8, 2016, 2, 136),
    (8, 3017, 3, 14), (8, 3017, 2, 306),
    (8, 4025, 3, 16), (8, 4025, 2, 262),
    (8, 4634, 3, 16), (8, 4634, 2, 249),
]
# SHA-256 over repr(cover) + "\n" for the twenty cubic graphs below and
# then the census cases above, in order; recorded with the same search.
_COVERS_SHA256 = (
    "009b50140a88f525c2d218fd85654efe41a0d32f26fdd7ebd2050e3cf4aabf7f"
)


def _pinned_cases():
    rng = random.Random(2016)
    for i in range(20):
        n = 10 + 2 * i
        # no backtracking: one node per edge, 3n/2
        yield random_cubic_graph(rng, n), n // 2, 3 * n // 2
    for n, j, k, budget in _CENSUS_COUNTS:
        yield enumerate_connected(n, 5)[j], k, budget


def test_cover_with_paths_spends_the_recorded_node_count():
    digest = hashlib.sha256()
    for g, k, budget in _pinned_cases():
        adj = g.adjacency()
        cover = cover_with_paths(adj, k, budget)
        assert cover == cover_with_paths(adj, k), (g, k)
        with pytest.raises(BudgetExhaustedError):
            cover_with_paths(adj, k, budget - 1)
        digest.update(repr(cover).encode() + b"\n")
    assert digest.hexdigest() == _COVERS_SHA256


def _same_search(g, k):
    """The search on ``g``'s neighbour table returns the reference's cover
    of ``g``'s edge set at exactly the least budget the reference needs,
    and runs out of budget one node sooner."""
    adj, edges = g.adjacency(), list(g.edges())
    want, nodes = reference_cover_with_paths(edges, k)
    assert cover_with_paths(adj, k, nodes) == want, (edges, k)
    if nodes:
        with pytest.raises(BudgetExhaustedError):
            cover_with_paths(adj, k, nodes - 1)
    return want is not None


def _census_and_cubic():
    """Every census graph with n <= 7, then seeded cubic graphs."""
    graphs = [g for n in range(2, 8) for g in enumerate_connected(n, 5)]
    rng = random.Random(1968)
    return graphs + [random_cubic_graph(rng, n) for n in range(4, 61, 2)]


def test_cover_with_paths_matches_the_reference_search():
    # each graph at k = lower bound - 1, lower bound and lower bound + 1
    graphs = _census_and_cubic()
    assert len(graphs) == 839 + 29
    outcomes = Counter()
    for g in graphs:
        lb = lower_bound(g)
        for k in (lb - 1, lb, lb + 1):
            outcomes[k - lb, _same_search(g, k)] += 1
    assert sum(outcomes.values()) == 2604
    # at the lower bound the search both covers and exhausts often
    assert outcomes[0, True] > 600 and outcomes[0, False] > 200, outcomes


def _derived_graphs():
    """Children of the census graphs with 5 <= n <= 7 and of seeded cubic
    graphs, as ``delete_vertices`` leaves them: ids with gaps (the largest
    id stays), and some vertices with no neighbour left."""
    rng = random.Random(2024)
    for g in _census_and_cubic():
        if g.n >= 5:
            yield g.delete_vertices(rng.sample(range(g.n - 1), g.n // 4))


def _backtracking_graphs():
    """Seeded 4-regular, 5-regular and max-degree-5 graphs with
    9 <= n <= 14, whose searches give paths back and resume scans at both
    ends of a path."""
    rng = random.Random(1736)
    for n in range(9, 15):
        for _ in range(3):
            yield random_regular_graph(rng, n, 4)
            if n % 2 == 0:
                yield random_regular_graph(rng, n, 5)
            g = None
            while g is None:
                g = random_connected_graph(rng, n, n)
            yield g


def test_cover_with_paths_matches_the_reference_when_backtracking_deeply():
    # each graph at k = lower bound - 1 and lower bound; at the lower
    # bound, some searches spend two nodes or more per edge
    deep = 0
    for g in _backtracking_graphs():
        lb = lower_bound(g)
        for k in (lb - 1, lb):
            _same_search(g, k)
        _, nodes = reference_cover_with_paths(list(g.edges()), lb)
        deep += nodes >= 2 * g.m
    assert deep >= 10, deep


def test_lower_bound_matches_the_reference():
    graphs = [g for n in range(2, 8) for g in enumerate_connected(n, 5)]
    derived = [h for h in _derived_graphs() if h.m]
    assert any(not nbrs for h in derived for nbrs in h.adjacency().values())
    for g in graphs + derived:
        assert lower_bound(g) == reference_lower_bound(list(g.edges())), g


def test_cover_with_paths_on_derived_tables_matches_the_reference():
    # each child at k = its lower bound and one less
    isolated = 0
    outcomes = Counter()
    for h in _derived_graphs():
        adj = h.adjacency()
        assert list(adj) != list(range(h.n))  # the ids have gaps
        isolated += any(not nbrs for nbrs in adj.values())
        lb = reference_lower_bound(list(h.edges()))
        for k in (lb - 1, lb):
            outcomes[k - lb, _same_search(h, k)] += 1
    assert isolated > 20, isolated
    assert outcomes[0, True] > 600 and outcomes[0, False] > 50, outcomes


def test_cover_with_paths_covers_a_long_path_with_one_path():
    # one level per path and one node per edge, none of them a frame
    assert cover_with_paths(path_graph(5001).adjacency(), 1) == [tuple(range(5001))]


def test_cover_with_paths_costs_no_path_scan_per_node():
    # Every vertex id of a 2000-vertex path counts the equality tests made
    # on it.  Testing a candidate against a tuple of the path would make
    # about n**2 / 2 of them; the search makes O(1) per node.
    tests = Counter()

    class Id(int):
        __hash__ = int.__hash__

        def __eq__(self, other):
            tests["=="] += 1
            return int.__eq__(self, other)

        def __ne__(self, other):
            tests["!="] += 1
            return int.__ne__(self, other)

    n = 2000
    ids = [Id(v) for v in range(n)]
    adj = {ids[v]: tuple(ids[u] for u in (v - 1, v + 1) if 0 <= u < n)
           for v in range(n)}
    cover = cover_with_paths(adj, 1)
    calls = sum(tests.values())
    assert cover == [tuple(range(n))]
    assert calls <= 4 * n, tests
