"""``solve`` and the detectors agree exactly with the reference copies in
``tests/helpers.py``: the detectors before their degree pre-filters and
table loops, on the low-link bridge finder, and the recursive solver whose lifts rebuild path tuples and verify every
level.  Agreement means the same occurrence, the same paths in the same
order and orientation, and the same trace."""

import random
from collections import Counter

from gallai import solve
from gallai.graphs import Graph
from gallai.paths import decomposition
from gallai.census import enumerate_connected
from gallai.reductions import (
    C5,
    detect,
    detect_c1,
    detect_c2,
    detect_c3,
    detect_c4,
    detect_c5,
    reduce,
)
from helpers import (
    SHADOWED,
    complete_graph,
    load_and_lift,
    random_c5_satellites,
    random_connected_graph,
    random_cubic_graph,
    random_regular_graph,
    reference_c3_roles,
    reference_c4_labelling,
    reference_detect_c1,
    reference_detect_c2,
    reference_detect_c3,
    reference_detect_c4,
    reference_detect_c5,
    reference_lift,
    reference_solve,
    subcase_fixtures,
)


_DETECTOR_PAIRS = (
    ("C1", detect_c1, reference_detect_c1),
    ("C2", detect_c2, reference_detect_c2),
    ("C3", detect_c3, reference_detect_c3),
    ("C4", detect_c4, reference_detect_c4),
    ("C5", detect_c5, reference_detect_c5),
)


def _detector_corpus():
    """300 seeded graphs, then every census graph with n <= 7."""
    rng = random.Random(9090)
    for i in range(300):
        kind = i % 4
        if kind == 0:
            yield random_cubic_graph(rng, rng.randrange(4, 21) * 2)
        elif kind == 1:
            yield random_regular_graph(rng, rng.randrange(8, 30), 4)
        else:
            # max degree 5, or max degree 4 with many degree-2 vertices
            g = random_connected_graph(rng, 6, 40, max_deg=5 if kind == 2 else 4)
            if g is not None:
                yield g
    for n in range(1, 8):
        yield from enumerate_connected(n, 5)


def test_detectors_match_their_reference_copies():
    found = Counter()
    for g in _detector_corpus():
        for name, fast, slow in _DETECTOR_PAIRS:
            occ = fast(g)
            assert occ == slow(g), (name, g)
            found[name] += occ is not None
    assert min(found[name] for name, _, _ in _DETECTOR_PAIRS) > 20, found


def test_the_roles_reduce_reads_match_their_reference_derivation():
    # An occurrence names only its site, so the reference checks the roles
    # that `reduce` derives there: C3's common pair and extras, and the
    # first C4 labelling, at each edge of two degree-4 ends, both ways.
    from gallai.reductions import _c3_roles, _c4_labellings

    found = Counter()
    for g in _detector_corpus():
        adj = g.adjacency()
        for u, v in g.edges():
            if len(adj[u]) != 4 or len(adj[v]) != 4:
                continue
            for a, b in ((u, v), (v, u)):
                if len(g.common_neighbors(a, b)) == 2:
                    assert _c3_roles(adj, a, b) == reference_c3_roles(g, a, b)
                    found["C3"] += 1
                labelling = next(_c4_labellings(adj, a, b), None)
                assert labelling == reference_c4_labelling(g, a, b), (g, a, b)
                found["C4"] += labelling is not None
    # floors at what this corpus makes
    assert found["C3"] >= 1332 and found["C4"] >= 9326, found


def _same_solve(g):
    got, want = solve(g), reference_solve(g)
    assert got.decomposition == want.decomposition
    assert got.trace == want.trace
    return [f"{step.tag}/{step.subcase}" for step in got.trace.steps]


def test_solve_matches_the_reference_solver_on_random_graphs():
    rng = random.Random(4242)
    seen = Counter()
    solved = 0
    while solved < 400:
        g = random_connected_graph(rng, lo=6, hi=40)
        if g is None:
            continue
        seen.update(_same_solve(g))
        solved += 1
    assert seen["C1/splice"] and seen["C4/paired_nonedges"] and seen["C3/sparse_ring"]


def _same_lift(g, occ):
    """The lift of ``occ`` on ``g`` against the reference lift, from the
    children's decompositions as ``solve`` returns them."""
    plan = reduce(g, occ)
    decomps = [solve(child.graph).decomposition for child in plan.children]
    assert load_and_lift(occ, plan, decomps) == reference_lift(occ, plan, decomps)
    return f"{plan.tag}/{plan.subcase}"


def test_lifts_match_the_reference_on_satellites_and_fixtures():
    seen = Counter()
    # Solving the satellite graphs joins cut edges and splits hubs.
    rng = random.Random(1105)
    for _ in range(250):
        g = random_c5_satellites(rng)
        if g is None:
            continue
        seen.update(_same_solve(g))
    for g, occ, tag, subcase in subcase_fixtures():
        seen.update(_same_solve(g))
        if (tag, subcase) in SHADOWED:
            continue  # `reduce` refuses the named C5, since a C4 comes first
        assert _same_lift(g, occ or detect(g)) == f"{tag}/{subcase}"
    wanted = {"C5/common_triangle", "C5/degree_two", "C2/join", "C4/hub_split"}
    assert wanted <= set(seen), wanted - set(seen)


def test_rare_lift_branches_match_the_reference():
    # Hand-built child decompositions that drive the triangle repair, the
    # degree-two hinge, and the three sparse-ring bridge collisions.
    k5 = list(complete_graph(5).edges())
    ring = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)])
    hung = Graph.from_edges(
        7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 5), (4, 6), (5, 6)]
    )
    cases = [
        (Graph.from_edges(7, k5 + [(3, 5), (4, 6)]), None,
         [(5, 3, 2, 4, 6), (3, 4)], "C5/common_triangle"),
        (Graph.from_edges(7, k5 + [(3, 5), (4, 6)]), None,
         [(5, 3, 2), (2, 4, 6), (3, 4)], "C5/common_triangle"),
        (hung, C5(0, 1, 2), [(3, 0, 4), (3, 5, 6, 4)], "C5/degree_two"),
        (hung, C5(0, 1, 2), [(0, 3, 5, 6), (0, 4, 6)], "C5/degree_two"),
        (ring, None, [(5, 2, 3, 4)], "C3/sparse_ring"),
        (ring, None, [(5, 2, 3), (3, 4)], "C3/sparse_ring"),
        (ring, None, [(2, 3, 4), (2, 5)], "C3/sparse_ring"),
    ]
    for g, occ, paths, name in cases:
        occ = occ or detect(g)
        plan = reduce(g, occ)
        assert f"{plan.tag}/{plan.subcase}" == name
        child = decomposition(*paths)
        assert load_and_lift(occ, plan, [child]) == reference_lift(occ, plan, [child])
