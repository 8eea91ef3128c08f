import hashlib
import random

import pytest

from gallai import BudgetExhaustedError, enumerate_connected
from gallai.search import cover_with_paths
from helpers import random_cubic_graph

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
