import hashlib
import random
from collections import Counter

import pytest

from gallai import BudgetExhaustedError, enumerate_connected
from gallai.search import cover_with_paths, residual_lower_bound
from helpers import random_cubic_graph, reference_cover_with_paths

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
        edges = frozenset(g.edges())
        cover = cover_with_paths(edges, k, budget)
        assert cover == cover_with_paths(edges, k), (g, k)
        with pytest.raises(BudgetExhaustedError):
            cover_with_paths(edges, k, budget - 1)
        digest.update(repr(cover).encode() + b"\n")
    assert digest.hexdigest() == _COVERS_SHA256


def _same_search(edges, k):
    """The search returns the reference's cover at exactly the least
    budget the reference needs, and runs out of budget one node sooner."""
    want, nodes = reference_cover_with_paths(edges, k)
    assert cover_with_paths(edges, k, nodes) == want, (sorted(edges), k)
    if nodes:
        with pytest.raises(BudgetExhaustedError):
            cover_with_paths(edges, k, nodes - 1)
    return want is not None


def test_cover_with_paths_matches_the_reference_search():
    # every census graph with n <= 7, then seeded cubic graphs, each at k
    # = lower bound - 1, lower bound and lower bound + 1
    graphs = [g for n in range(2, 8) for g in enumerate_connected(n, 5)]
    rng = random.Random(1968)
    graphs += [random_cubic_graph(rng, n) for n in range(4, 61, 2)]
    outcomes = Counter()
    for g in graphs:
        edges = frozenset(g.edges())
        lb = residual_lower_bound(edges)
        for k in (lb - 1, lb, lb + 1):
            outcomes[k - lb, _same_search(edges, k)] += 1
    # at the lower bound the search both covers and exhausts often
    assert outcomes[0, True] > 600 and outcomes[0, False] > 200, outcomes


def test_cover_with_paths_covers_a_long_path_with_one_path():
    # one level per path and one node per edge, none of them a frame
    path = tuple(range(5001))
    edges = frozenset(zip(path, path[1:]))
    assert cover_with_paths(edges, 1) == [path]
