"""``solve`` and the detectors agree exactly with the reference copies in
``tests/helpers.py``: the detectors before their degree pre-filters, and
the recursive solver whose lifts rebuild path tuples and verify every
level.  Agreement means the same occurrence, the same paths in the same
order and orientation, and the same trace."""

import random
from collections import Counter

from gallai import solve
from gallai.graphs import Graph
from gallai.paths import PathStore, decomposition
from gallai.reductions import C5, detect, detect_c2, detect_c5, lift, lift_in_place, reduce
from helpers import (
    complete_graph,
    random_c5_satellites,
    random_connected_graph,
    random_cubic_graph,
    random_regular_graph,
    reference_detect_c2,
    reference_detect_c5,
    reference_lift,
    reference_solve,
    subcase_fixtures,
)


def test_detectors_match_their_reference_copies():
    rng = random.Random(9090)
    found = Counter()
    for i in range(300):
        kind = i % 4
        if kind == 0:
            g = random_cubic_graph(rng, rng.randrange(4, 21) * 2)
        elif kind == 1:
            g = random_regular_graph(rng, rng.randrange(8, 30), 4)
        else:
            # max degree 5, or max degree 4 with many degree-2 vertices
            g = random_connected_graph(rng, 6, 40, max_deg=5 if kind == 2 else 4)
            if g is None:
                continue
        for name, fast, slow in (
            ("C2", detect_c2, reference_detect_c2),
            ("C5", detect_c5, reference_detect_c5),
        ):
            occ = fast(g)
            assert occ == slow(g), (name, g)
            found[name] += occ is not None
    assert found["C2"] > 20 and found["C5"] > 20, found


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
    """The in-place lift of ``occ`` on ``g`` against the reference lift,
    from the children's decompositions as ``solve`` returns them."""
    plan = reduce(g, occ)
    decomps = [solve(child.graph).decomposition for child in plan.children]
    stores = [PathStore.load(c.graph, d) for c, d in zip(plan.children, decomps)]
    got = lift_in_place(occ, plan, stores).decomposition()
    assert got == reference_lift(occ, plan, decomps)
    assert lift(occ, plan, decomps) == got
    return f"{plan.tag}/{plan.subcase}"


def test_lifts_match_the_reference_on_satellites_and_fixtures():
    seen = Counter()
    # Satellite graphs: solving them joins cut edges and splits hubs; their
    # triangle, named as an occurrence, is a hub contraction or a spread.
    rng = random.Random(1105)
    for _ in range(250):
        g = random_c5_satellites(rng)
        if g is None:
            continue
        seen.update(_same_solve(g))
        seen[_same_lift(g, C5(0, 1, 2))] += 1
    for g, occ, tag, subcase in subcase_fixtures():
        seen.update(_same_solve(g))
        assert _same_lift(g, occ or detect(g)) == f"{tag}/{subcase}"
    wanted = {
        "C5/common_triangle", "C5/degree_two", "C5/hub_contraction",
        "C5/bridge_spread", "C2/join", "C4/hub_split",
    }
    assert wanted <= set(seen), wanted - set(seen)


def test_rare_lift_branches_match_the_reference():
    # Hand-built child decompositions that drive the triangle repair, the
    # degree-two hinge, two crossings of a merged pair with the corner
    # extension, and the three sparse-ring bridge collisions.
    k5 = list(complete_graph(5).edges())
    u, v, w, x1, x2, y1, y2, z1, z2 = range(9)
    hub = Graph.from_edges(9, [
        (u, v), (u, w), (v, w), (u, x1), (u, x2), (x1, x2),
        (v, y1), (v, y2), (w, z1), (w, z2),
    ])
    s = min(v, w)
    ring = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)])
    cases = [
        (Graph.from_edges(7, k5 + [(3, 5), (4, 6)]), None,
         [(5, 3, 2, 4, 6), (3, 4)], "C5/common_triangle"),
        (Graph.from_edges(7, k5 + [(3, 5), (4, 6)]), None,
         [(5, 3, 2), (2, 4, 6), (3, 4)], "C5/common_triangle"),
        (Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)]),
         C5(0, 1, 2), [(3, 0, 4), (5, 0, 6)], "C5/degree_two"),
        (Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)]),
         C5(0, 1, 2), [(3, 0, 5), (4, 0, 6)], "C5/degree_two"),
        (hub, C5(u, v, w), [(y1, s, z1), (y2, s, z2), (x1, x2, s)], "C5/hub_contraction"),
        (hub, C5(u, v, w), [(y1, s, y2), (z1, s, z2), (x1, x2, s)], "C5/hub_contraction"),
        (ring, None, [(5, 2, 3, 4)], "C3/sparse_ring"),
        (ring, None, [(5, 2, 3), (3, 4)], "C3/sparse_ring"),
        (ring, None, [(2, 3, 4), (2, 5)], "C3/sparse_ring"),
    ]
    for g, occ, paths, name in cases:
        occ = occ or detect(g)
        plan = reduce(g, occ)
        assert f"{plan.tag}/{plan.subcase}" == name
        child = decomposition(*paths)
        assert lift(occ, plan, [child]) == reference_lift(occ, plan, [child])
