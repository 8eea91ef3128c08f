import itertools

import pytest

from gallai import Graph, ReductionError, detect, enumerate_connected, solve, verify
from gallai.reductions import (
    C1,
    C2,
    C3,
    C4,
    C5,
    check_structure,
    detect_c1,
    detect_c2,
    detect_c3,
    detect_c4,
    detect_c5,
    lift,
    reduce,
)
from helpers import complete_graph, cycle, path_graph, petersen, two_cliques_with_bridge


# -- naive re-implementations of the membership tests (oracles) -------------


def naive_any_configuration(g: Graph) -> bool:
    for u in range(g.n):
        if g.degree(u) == 2:
            v, w = g.neighbors(u)
            if not g.has_edge(v, w):
                return True
    cut = {
        e
        for e in g.edges()
        if len(g.delete_edge(*e).components()) > len(g.components())
    }
    for u, v in g.edges():
        if (u, v) in cut and g.degree(u) % 2 == 0 and g.degree(v) % 2 == 0:
            return True
    for u, v in g.edges():
        if g.degree(u) == 4 and g.degree(v) == 4:
            commons = set(g.neighbors(u)) & set(g.neighbors(v))
            if len(commons) == 2:
                return True
            ts = set(g.neighbors(u)) - {v}
            ws = set(g.neighbors(v)) - {u}
            for t1, t2, t3 in itertools.permutations(sorted(ts)):
                for w1, w2, w3 in itertools.permutations(sorted(ws)):
                    if (
                        not g.has_edge(t1, t2)
                        and not g.has_edge(w1, w2)
                        and t3 != w3
                    ):
                        return True
    for a, b, c in itertools.combinations(range(g.n), 3):
        if not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)):
            continue
        degs = sorted(g.degree(x) for x in (a, b, c))
        if 4 in degs and all(d in (2, 4) for d in degs):
            return True
    return False


def test_detector_completeness_against_naive_scan():
    for n in range(2, 8):
        for g in enumerate_connected(n, 5):
            assert (detect(g) is None) == (not naive_any_configuration(g))


def test_detector_soundness_on_census():
    for n in range(2, 8):
        for g in enumerate_connected(n, 5):
            occ = detect(g)
            if occ is not None:
                occ.validate(g)  # must not raise


# -- spec detection examples -------------------------------------------------


def test_detect_priority_examples():
    occ = detect(cycle(4))
    assert occ == C1(0, 1, 3)

    occ = detect(two_cliques_with_bridge())
    assert occ == C2(0, 4)

    # eight-vertex graph where only the two-non-adjacent-pairs pattern fits
    u, v, t1, t2, t3, w1, w2, w3 = range(8)
    g = Graph.from_edges(8, [
        (u, v), (u, t1), (u, t2), (u, t3), (v, w1), (v, w2), (v, w3),
        (t1, w1), (t1, w2), (t2, w1), (t2, w2), (t3, w3), (t3, w1), (w3, t1),
    ])
    assert detect_c1(g) is None
    assert detect_c2(g) is None
    assert detect_c3(g) is None
    occ = detect(g)
    assert isinstance(occ, C4) and {occ.u, occ.v} == {u, v}


def test_detect_c1_on_triangle_is_none():
    assert detect_c1(complete_graph(3)) is None


def test_detect_c3_example():
    g = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)]
    )
    occ = detect_c3(g)
    assert occ == C3(0, 1, 2, 3, 4, 5)
    assert detect_c3(complete_graph(5)) is None  # 3 common neighbours


def test_detect_c5_example():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    occ = detect_c5(g)
    assert occ == C5(0, 1, 2)


def test_detectors_are_deterministic():
    for g in enumerate_connected(6, 5):
        assert detect(g) == detect(g)


# -- reduce/lift fixtures, one per sub-case ----------------------------------


def round_trip(g, occ, expected_subcase):
    """reduce, solve the children, lift, verify, check the accounting."""
    occ.validate(g)
    plan = reduce(g, occ)
    assert plan.subcase == expected_subcase
    assert all(child.graph.is_connected() for child in plan.children)
    assert all(child.graph.n < g.n for child in plan.children)
    assert sum(child.graph.n for child in plan.children) <= g.n
    for child in plan.children:
        assert child.graph.vertices() <= g.vertices()  # parent ids kept
        for a, b in child.synthetic:
            assert child.graph.has_edge(a, b)
            assert not g.has_edge(a, b)
    decomps = [solve(child.graph).decomposition for child in plan.children]
    lifted = lift(occ, plan, decomps)
    report = verify(g, lifted)
    assert report.valid
    assert len(lifted) <= sum(len(d) for d in decomps) + 1
    return lifted


def test_c1_round_trip():
    g = cycle(4)
    lifted = round_trip(g, detect(g), "splice")
    assert len(lifted) == 2  # ceil(4/2)


def test_c2_round_trip():
    g = two_cliques_with_bridge()
    occ = detect(g)
    plan = reduce(g, occ)
    decomps = [solve(c.graph).decomposition for c in plan.children]
    lifted = lift(occ, plan, decomps)
    assert len(lifted) == sum(len(d) for d in decomps) - 1
    assert verify(g, lifted).valid


def test_c3_sparse_ring_round_trip():
    g = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)]
    )
    assert isinstance(detect(g), C3)
    round_trip(g, detect(g), "sparse_ring")


def test_c3_full_ring_round_trip():
    g = Graph.from_edges(6, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5),
        (2, 4), (4, 3), (3, 5), (5, 2),
    ])
    occ = detect(g)
    assert isinstance(occ, C3)
    round_trip(g, occ, "full_ring")


def test_c3_partial_ring_round_trip():
    g = Graph.from_edges(6, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5),
        (2, 4), (4, 3),
    ])
    occ = detect(g)
    assert isinstance(occ, C3)
    round_trip(g, occ, "partial_ring")


def test_c4_triple_common_round_trip():
    g = Graph.from_edges(5, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4),
    ])
    occ = detect(g)
    assert isinstance(occ, C4)
    round_trip(g, occ, "triple_common")


def test_c4_hub_split_round_trip():
    g = Graph.from_edges(12, [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (2, 5), (2, 6), (5, 6),
        (3, 7), (3, 8), (7, 8),
        (1, 9), (1, 10), (1, 11),
        (4, 9), (4, 10), (9, 10),
    ])
    occ = detect(g)
    assert isinstance(occ, C4)
    round_trip(g, occ, "hub_split")


def test_c4_four_components_round_trip():
    g = Graph.from_edges(12, [
        (0, 1), (0, 2), (1, 2),
        (0, 3), (3, 4), (4, 1), (3, 5), (4, 5),
        (0, 6), (6, 8), (6, 9), (8, 9),
        (1, 7), (7, 10), (7, 11), (10, 11),
    ])
    occ = detect(g)
    assert isinstance(occ, C4)
    round_trip(g, occ, "four_components")


def test_c4_paired_nonedges_round_trip():
    g = Graph.from_edges(8, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7),
        (2, 5), (2, 6), (3, 5), (3, 6), (4, 7), (2, 7), (4, 5),
    ])
    occ = detect(g)
    assert isinstance(occ, C4)
    round_trip(g, occ, "paired_nonedges")


def test_c5_one_gap_round_trip():
    g = complete_graph(5).delete_edge(3, 4)
    occ = detect(g)
    assert isinstance(occ, C5)
    round_trip(g, occ, "one_gap")


def test_c5_common_triangle_round_trip():
    g = complete_graph(5)
    edges = list(g.edges()) + [(3, 5)]
    g = Graph.from_edges(6, edges)
    occ = detect(g)
    assert isinstance(occ, C5)
    round_trip(g, occ, "common_triangle")


def test_c5_degree_two_round_trip():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    occ = detect(g)
    assert isinstance(occ, C5)
    lifted = round_trip(g, occ, "degree_two")
    assert len(lifted) <= 3  # ceil(5/2)


# The remaining C5 sub-cases are shadowed by the detection priority (such
# graphs always contain a C4 as well), so they are exercised through
# directly constructed occurrences; the reduction only relies on the
# earlier-priority facts it re-checks itself.


def test_c5_two_gaps_round_trip_direct():
    g = Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    )
    assert isinstance(detect(g), C4)
    round_trip(g, C5(0, 1, 2), "two_gaps")


def test_c5_hub_contraction_round_trip_direct():
    u, v, w, x1, x2, y1, y2, z1, z2 = range(9)
    g = Graph.from_edges(9, [
        (u, v), (u, w), (v, w), (u, x1), (u, x2), (x1, x2),
        (v, y1), (v, y2), (w, z1), (w, z2),
    ])
    lifted = round_trip(g, C5(u, v, w), "hub_contraction")
    assert verify(g, lifted).good


def test_c5_bridge_spread_round_trip_direct():
    u, v, w, x1, x2, y1, y2, z1, z2 = range(9)
    g = Graph.from_edges(9, [
        (u, v), (u, w), (v, w), (u, x1), (u, x2),
        (v, y1), (v, y2), (w, z1), (w, z2),
    ])
    plan = reduce(g, C5(u, v, w))
    assert plan.subcase == "bridge_spread"
    assert len(plan.children) == 3
    round_trip(g, C5(u, v, w), "bridge_spread")


def test_c5_bridge_spread_with_fat_satellites():
    u, v, w = 0, 1, 2
    sat = {}
    edges = [(u, v), (u, w), (v, w)]
    base = 3
    for corner in (u, u, v, v, w, w):
        a, b, c = base, base + 1, base + 2
        edges += [(corner, a), (a, b), (a, c), (b, c)]
        sat[corner] = sat.get(corner, []) + [a]
        base += 3
    g = Graph.from_edges(base, edges)
    round_trip(g, C5(u, v, w), "bridge_spread")


# -- rare lift branches, driven by hand-built child decompositions -----------
#
# Child graphs keep the parent's vertex ids; a contracted pair keeps the
# smaller of its two ids.


def test_c5_hub_contraction_two_crossings_and_extension():
    from gallai.paths import decomposition

    u, v, w, x1, x2, y1, y2, z1, z2 = range(9)
    g = Graph.from_edges(9, [
        (u, v), (u, w), (v, w), (u, x1), (u, x2), (x1, x2),
        (v, y1), (v, y2), (w, z1), (w, z2),
    ])
    occ = C5(u, v, w)
    plan = reduce(g, occ)
    s = min(v, w)

    # two paths crossing straight through the merged pair
    crossing = decomposition((y1, s, z1), (y2, s, z2), (x1, x2, s))
    lifted = lift(occ, plan, [crossing])
    assert verify(g, lifted).good

    # same-side crossings leave a non-path residue, forcing the corner
    # extension step
    bent = decomposition((y1, s, y2), (z1, s, z2), (x1, x2, s))
    lifted = lift(occ, plan, [bent])
    assert verify(g, lifted).good


def test_c5_common_triangle_repair_fallback():
    from gallai.paths import decomposition

    k5 = list(complete_graph(5).edges())
    g = Graph.from_edges(7, k5 + [(3, 5), (4, 6)])
    occ = detect(g)
    assert isinstance(occ, C5)
    plan = reduce(g, occ)
    assert plan.subcase == "common_triangle"

    # both edges at the only degree-2 triangle vertex share one path: no
    # role assignment works and the exact local re-partition must kick in
    blocked = decomposition((5, 3, 2, 4, 6), (3, 4))
    assert verify(plan.children[0].graph, blocked).good
    lifted = lift(occ, plan, [blocked])
    assert verify(g, lifted).good
    assert len(lifted) == len(blocked) + 1

    # a separated decomposition goes through the ordinary recipe
    free = decomposition((5, 3, 2), (2, 4, 6), (3, 4))
    lifted = lift(occ, plan, [free])
    assert verify(g, lifted).good


def test_c3_sparse_bridge_collisions():
    from gallai.paths import decomposition

    g = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)]
    )
    occ = detect(g)
    plan = reduce(g, occ)
    assert plan.subcase == "sparse_ring"
    assert len(plan.children[0].synthetic) == 3
    x, y, ue, ve = 2, 3, 4, 5

    for child_decomp in (
        decomposition((ve, x, y, ue)),                # both collisions
        decomposition((ve, x, y), (y, ue)),           # collision before x-y
        decomposition((x, y, ue), (x, ve)),           # collision after x-y
    ):
        assert verify(plan.children[0].graph, child_decomp).valid
        lifted = lift(occ, plan, [child_decomp])
        assert verify(g, lifted).good


def test_c5_degree_two_both_branches():
    from gallai.paths import decomposition

    g = Graph.from_edges(
        7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)]
    )
    occ = C5(0, 1, 2)
    plan = reduce(g, occ)
    assert plan.subcase == "degree_two"
    c = 0  # u = 0 and w = 2 merge into the smaller id

    split_sides = decomposition((3, c, 5), (4, c, 6))
    lifted = lift(occ, plan, [split_sides])
    assert verify(g, lifted).good
    assert len(lifted) == 2

    hinged = decomposition((3, c, 4), (5, c, 6))
    lifted = lift(occ, plan, [hinged])
    assert verify(g, lifted).good
    assert len(lifted) == 3


# -- randomized structural fuzzing -------------------------------------------


def test_c5_dense_reductions_on_random_satellites():
    # An all-degree-4 triangle with random satellite blobs; joining one
    # corner's two anchors decides between the contraction and the
    # three-way split.  Every round-trip must verify.
    import random

    from helpers import random_c5_satellites

    rng = random.Random(1105)
    seen = {"hub_contraction": 0, "bridge_spread": 0}
    for trial in range(250):
        g = random_c5_satellites(rng)
        if g is None:
            continue
        occ = C5(0, 1, 2)
        try:
            occ.validate(g)
            plan = reduce(g, occ)
        except ReductionError:
            continue
        decomps = [solve(child.graph).decomposition for child in plan.children]
        lifted = lift(occ, plan, decomps)
        assert verify(g, lifted).valid
        seen[plan.subcase] += 1
    assert seen["hub_contraction"] > 0
    assert seen["bridge_spread"] > 0


def _all_occurrences(g):
    out = []
    out += [occ for occ in [detect_c1(g)] if occ]
    cut = g.bridges()
    for u, v in g.edges():
        if (u, v) in cut and g.degree(u) % 2 == 0 and g.degree(v) % 2 == 0:
            out.append(C2(u, v))
        if g.degree(u) == 4 and g.degree(v) == 4:
            commons = g.common_neighbors(u, v)
            if len(commons) == 2:
                x, y = commons
                (ue,) = set(g.neighbors(u)) - {v, x, y}
                (ve,) = set(g.neighbors(v)) - {u, x, y}
                out.append(C3(u, v, x, y, ue, ve))
            ts = sorted(set(g.neighbors(u)) - {v})
            ws = sorted(set(g.neighbors(v)) - {u})
            found = None
            for t1, t2 in itertools.combinations(ts, 2):
                if found or g.has_edge(t1, t2):
                    continue
                (t3,) = set(ts) - {t1, t2}
                for w1, w2 in itertools.combinations(ws, 2):
                    if g.has_edge(w1, w2):
                        continue
                    (w3,) = set(ws) - {w1, w2}
                    if t3 != w3:
                        found = C4(u, v, t1, t2, t3, w1, w2, w3)
                        break
            if found:
                out.append(found)
    for a in range(g.n):
        for b in g.neighbors(a):
            if b <= a:
                continue
            for c in g.common_neighbors(a, b):
                if c <= b:
                    continue
                degrees = {x: g.degree(x) for x in (a, b, c)}
                fours = [x for x in (a, b, c) if degrees[x] == 4]
                if fours and all(d in (2, 4) for d in degrees.values()):
                    v0, w0 = sorted({a, b, c} - {fours[0]})
                    out.append(C5(fours[0], v0, w0))
    return out


def test_every_occurrence_round_trips_on_random_graphs():
    # Not just the detector's first pick: every occurrence whose local
    # hypotheses hold must reduce and lift to a valid decomposition.
    import random

    from helpers import random_connected_graph

    rng = random.Random(31337)
    skip_markers = ("C2 was skipped", "C3 present", "order broken")
    trips = 0
    for trial in range(150):
        g = random_connected_graph(rng, lo=6, hi=11)
        if g is None or not g.is_connected():
            continue
        for occ in _all_occurrences(g):
            try:
                plan = reduce(g, occ)
            except ReductionError as exc:
                if any(marker in str(exc) for marker in skip_markers):
                    continue
                raise
            decomps = [solve(child.graph).decomposition for child in plan.children]
            lifted = lift(occ, plan, decomps)
            assert verify(g, lifted).valid
            trips += 1
    assert trips > 100


# -- misuse and priority enforcement ----------------------------------------


def test_reduce_rejects_invalid_occurrence():
    with pytest.raises(ReductionError):
        reduce(cycle(4), C1(0, 1, 2))  # 1 and 2 are not u's neighbours
    with pytest.raises(ReductionError):
        reduce(complete_graph(4), C2(0, 1))  # not a bridge
    with pytest.raises(ReductionError):
        reduce(cycle(5), C5(0, 1, 2))  # not a triangle


def test_reduce_c4_rejects_priority_violations():
    # C3 present at the same edge: reduce must refuse rather than guess.
    g = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)]
    )
    occ = C4(0, 1, 2, 3, 4, 2, 3, 5)
    with pytest.raises(ReductionError):
        reduce(g, occ)


def test_lift_rejects_bad_child_decomposition():
    g = cycle(4)
    occ = detect(g)
    plan = reduce(g, occ)
    from gallai import LiftError, PathDecomposition

    with pytest.raises(LiftError):
        lift(occ, plan, [PathDecomposition(())])


def test_lift_rejects_added_path_reusing_a_covered_edge():
    import dataclasses

    from gallai import LiftError

    g = complete_graph(5).delete_edge(3, 4)
    occ = detect(g)
    plan = reduce(g, occ)
    assert plan.subcase == "one_gap"
    decomps = [solve(child.graph).decomposition for child in plan.children]
    assert verify(g, lift(occ, plan, decomps)).good
    # A rewrite that also adds a path made of the route's first edge covers
    # that edge twice; the check at this level names it.
    a, b = sorted(plan.children[0].routes[0][:2])

    def clashing(store):
        plan.rewrite(store)
        store.append((a, b))

    broken = dataclasses.replace(plan, rewrite=clashing)
    with pytest.raises(LiftError, match=rf"edge \({a}, {b}\) is already covered"):
        lift(occ, broken, decomps)


@pytest.mark.parametrize(
    "g, subcase",
    [
        (complete_graph(5).delete_edge(3, 4), "one_gap"),  # lifted by routes
        (two_cliques_with_bridge(), "join"),  # a recipe of its own
    ],
    ids=["route", "recipe"],
)
def test_lift_enforces_the_plan_gain(g, subcase):
    import dataclasses

    from gallai import LiftError

    occ = detect(g)
    plan = reduce(g, occ)
    assert plan.subcase == subcase
    decomps = [solve(child.graph).decomposition for child in plan.children]
    total = sum(len(d) for d in decomps)
    produced = len(lift(occ, plan, decomps))
    lo, hi = plan.gain
    assert total + lo <= produced <= total + hi
    # The same rewrite checked against a range it does not meet.
    broken = dataclasses.replace(plan, gain=(hi + 1, hi + 2))
    with pytest.raises(
        LiftError,
        match=rf"{subcase} produced {produced} paths from {total}, "
        rf"outside \[{total + hi + 1}, {total + hi + 2}\]",
    ):
        lift(occ, broken, decomps)


def test_lift_rejects_non_edge_in_an_untouched_child_path():
    from gallai import LiftError
    from gallai.paths import decomposition

    g = cycle(6)
    occ = C1(0, 1, 5)
    plan = reduce(g, occ)
    child = plan.children[0].graph
    assert plan.children[0].synthetic == ((1, 5),)
    assert verify(child, decomposition((5, 1, 2, 3), (3, 4, 5))).good
    # The second path steps over the non-edge 2-4 and misses 4-5; the route
    # only rewrites the first path, so the check at this level must catch it.
    bad = decomposition((5, 1, 2, 3), (3, 4), (4, 2))
    assert not verify(child, bad).valid
    with pytest.raises(LiftError, match="lifted decomposition invalid"):
        lift(occ, plan, [bad])


def test_lift_rejects_routed_edge_in_two_child_paths():
    from gallai import LiftError
    from gallai.paths import decomposition

    g = cycle(6)
    occ = C1(0, 1, 5)
    plan = reduce(g, occ)
    assert plan.children[0].synthetic == ((1, 5),)
    # The routed edge 1-5 is in the first and the last path; the path
    # between them shares neither of its ends.
    bad = decomposition((5, 1, 2), (2, 3, 4), (4, 5, 1))
    with pytest.raises(LiftError, match=r"edge \(1, 5\) occurs 2 times"):
        lift(occ, plan, [bad])


# -- the route splice ----------------------------------------------------------


@pytest.mark.parametrize(
    "host, e, route, spliced",
    [
        ((0, 1, 2, 3), (0, 1), (0, 5, 1), (0, 5, 1, 2, 3)),
        ((0, 1, 2, 3), (1, 2), (1, 5, 2), (0, 1, 5, 2, 3)),
        ((0, 1, 2, 3), (2, 3), (2, 5, 3), (0, 1, 2, 5, 3)),
        ((3, 2, 1, 0), (1, 2), (1, 5, 6, 2), (3, 2, 6, 5, 1, 0)),
    ],
    ids=["first", "middle", "last", "descending_host"],
)
@pytest.mark.parametrize("backwards", [False, True], ids=["forward", "backward"])
def test_replace_edge_splices_the_route_in_place(host, e, route, spliced, backwards):
    # The store's splice replaces the edge joining the route's ends.
    from gallai.paths import Path, PathStore, decomposition

    d = decomposition((8, 9), host, (7, 4))
    via = route[::-1] if backwards else route
    steps = [q for p in d.paths for q in p.edges()] + list(zip(via, via[1:]))
    store = PathStore.wrap(Graph.from_edges(10, steps), d)
    assert e in store.owner
    store.splice(via)
    # the host keeps its index and orientation; the other paths are untouched
    assert list(store.paths.values()) == [(8, 9), spliced, (7, 4)]
    # the index follows: the edge is gone and the route's edges name the host
    assert e not in store.owner
    assert store.owner == {
        f: pid for pid, vs in store.paths.items() for f in Path(vs).edges()
    }


def test_replace_edge_rejects_a_route_that_revisits_a_vertex():
    from gallai import LiftError
    from gallai.paths import PathStore, decomposition

    d = decomposition((0, 1, 2, 3))
    store = PathStore.wrap(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)]), d)
    with pytest.raises(ValueError, match="does not leave a simple path"):
        store.splice((1, 3, 2))
    assert list(store.paths.values()) == [(0, 1, 2, 3)]

    # Inside lift the same failure is a recipe fault: the C1 route 1-0-5
    # meets a child path that already holds vertex 0.
    g = cycle(6)
    occ = C1(0, 1, 5)
    plan = reduce(g, occ)
    assert plan.children[0].routes == ((1, 0, 5),)
    bad = decomposition((0, 5, 1, 2, 3), (3, 4, 5))
    with pytest.raises(LiftError, match="recipe failed") as caught:
        lift(occ, plan, [bad])
    assert "does not leave a simple path" in str(caught.value)


# -- structure of irreducible graphs -----------------------------------------


def test_check_structure_examples():
    assert check_structure(complete_graph(4))  # all degrees odd
    assert check_structure(petersen())
    assert check_structure(path_graph(2))


def test_check_structure_preconditions():
    with pytest.raises(ValueError):
        check_structure(complete_graph(3))
    with pytest.raises(ValueError):
        check_structure(complete_graph(5))
    with pytest.raises(ValueError):
        check_structure(cycle(4))  # still reducible
    with pytest.raises(ValueError):
        check_structure(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_check_structure_on_irreducible_census():
    for n in range(2, 8):
        for g in enumerate_connected(n, 5):
            if detect(g) is not None:
                continue
            if (g.n, g.m) in ((3, 3), (5, 10)):
                continue
            assert check_structure(g)
