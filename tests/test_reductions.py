import dataclasses
import itertools
import random
import re
from collections import Counter

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
    reduce,
)
from helpers import (
    check_split,
    complete_graph,
    cycle,
    delete_edges,
    load_and_lift,
    path_graph,
    petersen,
    random_caterpillar,
    random_connected_graph,
    random_cubic_graph,
    random_regular_graph,
    two_cliques_with_bridge,
)


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
        if len(delete_edges(g, [e]).components()) > len(g.components())
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
    lifted = load_and_lift(occ, plan, decomps)
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
    lifted = load_and_lift(occ, plan, decomps)
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
    g = delete_edges(complete_graph(5), [(3, 4)])
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


# The other three C5 sub-case names are never built: their graphs hold a C4,
# which comes first (the lemma of `reductions._reduce_c5`, tested below
# under "the C5 sub-cases that a C4 shadows").


# -- rare lift branches, driven by hand-built child decompositions -----------
#
# Child graphs keep the parent's vertex ids; a contracted pair keeps the
# smaller of its two ids.


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
    lifted = load_and_lift(occ, plan, [blocked])
    assert verify(g, lifted).good
    assert len(lifted) == len(blocked) + 1

    # a separated decomposition goes through the ordinary recipe
    free = decomposition((5, 3, 2), (2, 4, 6), (3, 4))
    lifted = load_and_lift(occ, plan, [free])
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
        lifted = load_and_lift(occ, plan, [child_decomp])
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
    lifted = load_and_lift(occ, plan, [split_sides])
    assert verify(g, lifted).good
    assert len(lifted) == 2

    hinged = decomposition((3, c, 4), (5, c, 6))
    lifted = load_and_lift(occ, plan, [hinged])
    assert verify(g, lifted).good
    assert len(lifted) == 3


# -- randomized structural fuzzing -------------------------------------------


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
    skip_markers = ("C2 was skipped", "C3 present", "C4 present", "order broken")
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
            lifted = load_and_lift(occ, plan, decomps)
            assert verify(g, lifted).valid
            trips += 1
    assert trips > 100


# -- the C5 sub-cases that a C4 shadows --------------------------------------
#
# Where two corners of a C5 see a common trio with two gaps, or all three
# corners have degree 4 and share no outside neighbour, the graph holds a
# C4 at a corner edge, which `detect` finds first (the lemma of
# `reductions._reduce_c5`): `reduce` refuses the C5 and names the C4.


def _shadowed_branch(g, occ):
    """The sub-case that the corner tests once sent ``occ`` to, if a C4
    shadows it: "two_gaps", or for the dense case "bridge_spread" when
    every outer corner edge is a bridge and "hub_contraction" otherwise;
    None for the sub-cases that `reduce` still builds."""
    corners = sorted((occ.u, occ.v, occ.w))
    pairs = list(itertools.combinations(corners, 2))
    for a, b in pairs:
        trio = g.common_neighbors(a, b)
        if len(trio) == 3:
            gaps = [e for e in itertools.combinations(trio, 2) if not g.has_edge(*e)]
            return "two_gaps" if len(gaps) >= 2 else None
    if any(len(g.common_neighbors(a, b)) != 1 for a, b in pairs):
        return None
    if any(g.degree(x) != 4 for x in corners):
        return None
    outer = [(c, y) for c in corners for y in g.neighbors(c) if y not in corners]
    if all(g.is_bridge(c, y) for c, y in outer):
        return "bridge_spread"
    return "hub_contraction"


def _named_c4(message):
    """The C4 that a refusal names, rebuilt from its repr."""
    named = re.search(r"\(C4 present: C4\(([^)]*)\)\)$", message)
    assert named, message
    fields = (part.split("=") for part in named.group(1).split(", "))
    return C4(**{name: int(value) for name, value in fields})


def test_shadowed_c5_subcases_hold_a_c4_and_are_refused():
    from helpers import random_c5_satellites

    graphs = [g for n in range(3, 8) for g in enumerate_connected(n, 5)]
    rng = random.Random(2111)
    graphs += [g for g in (random_c5_satellites(rng) for _ in range(400)) if g]
    seen = Counter()
    for g in graphs:
        for occ in (occ for occ in _all_occurrences(g) if occ.tag == "C5"):
            branch = _shadowed_branch(g, occ)
            if branch is None:
                try:
                    reduce(g, occ)
                except ReductionError as exc:
                    assert "C4 present" not in str(exc)
                continue
            assert detect_c4(g) is not None, (g, occ)
            with pytest.raises(ReductionError) as refused:
                reduce(g, occ)
            _named_c4(str(refused.value)).validate(g)
            seen[branch] += 1
    assert min(seen[b] for b in ("two_gaps", "hub_contraction", "bridge_spread")) >= 20, seen


# -- boundary certificates ---------------------------------------------------


def _certificate_corpus():
    """The census up to n = 7 and 240 seeded cubic, 4-regular,
    max-degree-5 and caterpillar graphs."""
    for n in range(2, 8):
        yield from (g for g in enumerate_connected(n, 5) if g.m)
    rng = random.Random(8086)
    for i in range(240):
        kind = i % 4
        if kind == 0:
            yield random_cubic_graph(rng, 2 * rng.randrange(4, 21))
        elif kind == 1:
            yield random_regular_graph(rng, rng.randrange(8, 40), 4)
        elif kind == 2:
            g = random_connected_graph(rng, 10, 60)
            if g is not None:
                yield g
        else:
            yield random_caterpillar(rng, rng.randrange(10, 80))


def test_certificates_and_splits_match_global_searches(monkeypatch):
    # Every connectivity certificate that `reduce` asks for (the `_finish`
    # checks and the trial children of the C3 rings and the C4 pairs) must
    # answer as a search of the whole child does, every lockstep split
    # must give the components of the graph it cuts, and `_ascending`
    # must order a split as `components` does.
    import gallai.reductions as reductions

    answers, splits, orders = Counter(), Counter(), Counter()
    connected, split, ascending = (
        reductions._connected, Graph.split, reductions._ascending
    )

    def checked_connected(child):
        answer = connected(child)
        assert answer == child.graph.is_connected(), child
        answers[answer] += 1
        return answer

    def checked_split(g, starts, removed=(), without=None):
        parts = split(g, starts, removed, without)
        check_split(g, starts, removed, without, parts)
        splits[len(parts)] += 1
        return parts

    def checked_ascending(g, parts, removed):
        got = ascending(g, parts, removed)
        comps = g.delete_vertices(removed).components()
        assert got == sorted(
            parts, key=lambda p: next(i for i, c in enumerate(comps) if p[0][0] in c)
        )
        orders[any(vertices is None for _, vertices in parts)] += 1
        return got

    monkeypatch.setattr(reductions, "_connected", checked_connected)
    monkeypatch.setattr(reductions, "_ascending", checked_ascending)
    monkeypatch.setattr(Graph, "split", checked_split)
    for g in _certificate_corpus():
        solve(g)
    assert answers[True] > 1000 and answers[False] > 20, (answers, orders)
    assert splits[1] > 500 and splits[2] > 50 and splits[3] + splits[4] > 5, splits
    assert orders[True] > 0, orders


def _check_contraction(g, plan, met):
    """A C5 contraction child is the chained build of delete and contract,
    in the same table order, and its synthetic edges are exactly its edges
    that ``g`` lacks."""
    if plan.subcase != "degree_two":
        return
    (child,) = plan.children
    u, v, w, x1, x2 = plan.rewrite.args
    old = g.delete_vertices({v}).contract_edge(u, w)
    assert list(child.graph.adjacency().items()) == list(old.adjacency().items())
    assert child.graph.m == old.m
    assert len(set(child.synthetic)) == len(child.synthetic)
    assert set(child.synthetic) == {
        e for e in child.graph.edges() if not g.has_edge(*e)
    }
    met[plan.subcase] += 1


def test_contraction_children_are_one_build(monkeypatch):
    # Every C5 contraction child that `solve` meets on the certificate
    # corpus is built by one `_child` call as the old chain of table
    # copies built it.
    import gallai.solver as solver

    met = Counter()
    original = solver.reduce

    def checked_reduce(g, occ):
        plan = original(g, occ)
        _check_contraction(g, plan, met)
        return plan

    monkeypatch.setattr(solver, "reduce", checked_reduce)
    for g in _certificate_corpus():
        solve(g)
    assert met["degree_two"] >= 40, met


def test_certificate_sees_past_radius_three():
    # A 20-cycle minus one vertex: the boundary, the two neighbours of the
    # removed vertex, joins up only along the 18 edges between them.
    from gallai.reductions import LiftPlan, _child, _connected, _finish

    g = cycle(20)
    child = _child(g, {0})
    assert child.boundary == (1, 19)
    assert _connected(child)
    plan = LiftPlan("C1", "splice", g, (child,), lambda store: None, (0, 0))
    assert _finish(plan) is plan
    # Minus two opposite vertices, the boundary lies in two paths.
    apart = _child(g, {0, 10})
    assert apart.boundary == (1, 9, 11, 19)
    assert not _connected(apart)


@pytest.mark.parametrize(
    "message",
    [
        "child disconnected", "child not smaller", "degree inflated",
        "children too large",
    ],
)
def test_finish_refuses_each_broken_child(message):
    # A real C1 plan on a 10-vertex path, whose child is broken in turn for
    # each check of `_finish`.
    from gallai.reductions import _finish

    g = path_graph(10)
    plan = reduce(g, detect(g))
    (child,) = plan.children
    assert (plan.tag, child.boundary) == ("C1", (0, 2))
    star = Graph.from_edges(10, [(2, x) for x in range(10) if x != 2])
    broken = {
        "child disconnected": (
            dataclasses.replace(child, graph=delete_edges(child.graph, [(0, 2)])),
        ),
        "child not smaller": (dataclasses.replace(child, graph=g),),
        "degree inflated": (
            dataclasses.replace(child, graph=star.delete_vertices({1})),
        ),
        "children too large": (child, child),
    }
    assert _finish(plan) is plan
    with pytest.raises(ReductionError, match=f"^C1/splice: {message}$"):
        _finish(dataclasses.replace(plan, children=broken[message]))


# -- misuse and priority enforcement ----------------------------------------


# A C3 site (edge 0-1, common neighbours 2 and 3, extras 4 and 5), a C4
# site (edge 0-1, sides 2, 3, 4 and 5, 6, 7, with the edge 2-4) and a
# triangle whose corner 1 has degree 3.
_C3_SITE = Graph.from_edges(
    6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)]
)
_C4_SITE = Graph.from_edges(
    8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7), (2, 4)]
)
_ODD_CORNER = Graph.from_edges(
    6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5)]
)

_WRONG = [
    (complete_graph(3), C1(0, 1, 2), ": neighbours are adjacent"),
    (path_graph(3), C2(0, 2), " is not an edge"),
    (cycle(4), C2(0, 1), " is not a cut edge"),
    (_C3_SITE, C3(2, 3, 0, 1, 4, 5), " is not an edge"),
    (_C3_SITE, C3(0, 2, 1, 3, 4, 5), ": degrees are not both 4"),
    (_C3_SITE, C3(0, 1, 2, 4, 3, 5), ": common neighbours mismatch"),
    (_C3_SITE, C3(0, 1, 2, 3, 5, 5), ": u_extra mismatch"),
    (_C3_SITE, C3(0, 1, 2, 3, 4, 4), ": v_extra mismatch"),
    (_C4_SITE, C4(2, 3, 0, 1, 4, 5, 6, 7), " is not an edge"),
    (_C4_SITE, C4(0, 2, 1, 3, 4, 5, 6, 7), ": degrees are not both 4"),
    (_C4_SITE, C4(0, 1, 2, 3, 7, 5, 6, 7), ": t-side mismatch"),
    (_C4_SITE, C4(0, 1, 2, 3, 4, 5, 6, 4), ": w-side mismatch"),
    (_C4_SITE, C4(0, 1, 2, 4, 3, 5, 6, 7), ": named non-edge is present"),
    (_C3_SITE, C4(0, 1, 3, 4, 2, 3, 5, 2), ": leftover vertices coincide"),
    (complete_graph(3), C5(0, 1, 2), ": degree(u) != 4"),
    (_ODD_CORNER, C5(0, 1, 2), ": corner degree not in {2, 4}"),
]


@pytest.mark.parametrize(
    "g, occ, message", _WRONG, ids=[f"{occ.tag}{m}" for _, occ, m in _WRONG]
)
def test_reduce_names_each_wrong_occurrence(g, occ, message):
    with pytest.raises(ReductionError) as refused:
        reduce(g, occ)
    assert str(refused.value) == f"{occ}{message}"


def test_reduce_rejects_invalid_occurrence():
    with pytest.raises(ReductionError):
        reduce(cycle(4), C1(0, 1, 2))  # 1 and 2 are not u's neighbours
    with pytest.raises(ReductionError):
        reduce(complete_graph(4), C2(0, 1))  # not a bridge
    with pytest.raises(ReductionError):
        reduce(cycle(5), C5(0, 1, 2))  # not a triangle


def test_reduce_c4_rejects_priority_violations():
    # C3 present at the same edge: reduce must refuse rather than guess.
    with pytest.raises(ReductionError):
        reduce(_C3_SITE, C4(0, 1, 2, 3, 4, 2, 3, 5))


def test_lift_rejects_bad_child_decomposition():
    from gallai import PathDecomposition
    from gallai.paths import PathStore

    g = cycle(4)
    plan = reduce(g, detect(g))
    # A child decomposition reaches lift only through the checked load.
    with pytest.raises(ValueError, match=r"paths cover 0 of 3 edges"):
        PathStore.load(plan.children[0].graph, PathDecomposition(()))


@pytest.mark.parametrize(
    "count, message",
    [(0, "one decomposition per child is required")],
    ids=["child_count"],
)
def test_lift_rejects_a_mismatched_call(count, message):
    from gallai import LiftError
    from gallai.paths import PathStore
    from gallai.reductions import lift

    g = cycle(4)
    plan = reduce(g, detect(g))
    child = plan.children[0].graph
    stores = [PathStore.load(child, solve(child).decomposition)]
    with pytest.raises(LiftError, match=message):
        lift(plan, stores[:count])


def test_lift_rejects_a_rewrite_past_the_path_bound():
    import dataclasses

    from gallai import LiftError

    g = cycle(4)
    occ = detect(g)
    plan = reduce(g, occ)
    decomps = [solve(child.graph).decomposition for child in plan.children]
    assert len(load_and_lift(occ, plan, decomps)) == 2
    # Splitting the longest lifted path adds a third path: inside a
    # widened gain, but past ceil(4/2).

    def splitting(store):
        plan.rewrite(store)
        pid = max(store.paths, key=lambda p: len(store.paths[p]))
        vs = store.take(pid)
        store.append(vs[:2])
        store.append(vs[1:])

    broken = dataclasses.replace(plan, rewrite=splitting, gain=(0, 1))
    with pytest.raises(LiftError, match="C1/splice lost goodness"):
        load_and_lift(occ, broken, decomps)


def test_lift_rejects_added_path_reusing_a_covered_edge():
    import dataclasses

    from gallai import LiftError

    g = delete_edges(complete_graph(5), [(3, 4)])
    occ = detect(g)
    plan = reduce(g, occ)
    assert plan.subcase == "one_gap"
    decomps = [solve(child.graph).decomposition for child in plan.children]
    assert verify(g, load_and_lift(occ, plan, decomps)).good
    # A rewrite that also adds a path made of the route's first edge covers
    # that edge twice; the check at this level names it.
    a, b = sorted(plan.children[0].routes[0][:2])

    def clashing(store):
        plan.rewrite(store)
        store.append((a, b))

    broken = dataclasses.replace(plan, rewrite=clashing)
    with pytest.raises(LiftError, match=rf"edge \({a}, {b}\) is already covered"):
        load_and_lift(occ, broken, decomps)


@pytest.mark.parametrize(
    "g, subcase",
    [
        (delete_edges(complete_graph(5), [(3, 4)]), "one_gap"),  # lifted by routes
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
    produced = len(load_and_lift(occ, plan, decomps))
    lo, hi = plan.gain
    assert total + lo <= produced <= total + hi
    # The same rewrite checked against a range it does not meet.
    broken = dataclasses.replace(plan, gain=(hi + 1, hi + 2))
    with pytest.raises(
        LiftError,
        match=rf"{subcase} produced {produced} paths from {total}, "
        rf"outside \[{total + hi + 1}, {total + hi + 2}\]",
    ):
        load_and_lift(occ, broken, decomps)


def test_lift_rejects_non_edge_in_an_untouched_child_path():
    from gallai.paths import PathStore, decomposition

    g = cycle(6)
    occ = C1(0, 1, 5)
    plan = reduce(g, occ)
    child = plan.children[0].graph
    assert plan.children[0].synthetic == ((1, 5),)
    assert verify(child, decomposition((5, 1, 2, 3), (3, 4, 5))).good
    # The last path steps over the non-edge 2-4 and 4-5 is missed; the
    # route only rewrites the first path, so the load must catch it.
    bad = decomposition((5, 1, 2, 3), (3, 4), (4, 2))
    assert not verify(child, bad).valid
    with pytest.raises(ValueError, match=r"\(4, 2\) is not an edge of the graph"):
        PathStore.load(child, bad)


def test_lift_rejects_routed_edge_in_two_child_paths():
    from gallai.paths import PathStore, decomposition

    g = cycle(6)
    occ = C1(0, 1, 5)
    plan = reduce(g, occ)
    assert plan.children[0].synthetic == ((1, 5),)
    # The routed edge 1-5 is in the first and the last path; the path
    # between them shares neither of its ends.
    bad = decomposition((5, 1, 2), (2, 3, 4), (4, 5, 1))
    with pytest.raises(ValueError, match=r"edge \(1, 5\) is already covered"):
        PathStore.load(plan.children[0].graph, bad)


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
    from gallai.paths import Path, PathStore

    paths = [(8, 9), host, (7, 4)]
    via = route[::-1] if backwards else route
    steps = [q for vs in paths for q in Path(vs).edges()] + list(zip(via, via[1:]))
    store = PathStore(Graph.from_edges(10, steps))
    for vs in paths:
        store.append(vs)
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
    import dataclasses

    from gallai import LiftError
    from gallai.paths import PathStore, decomposition

    store = PathStore(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)]))
    store.append((0, 1, 2, 3))
    with pytest.raises(ValueError, match="does not leave a simple path"):
        store.splice((1, 3, 2))
    assert list(store.paths.values()) == [(0, 1, 2, 3)]

    # Inside lift the same failure is a recipe fault: a rewrite that routes
    # 1-5 the long way round the cycle, in place of the C1 route 1-0-5,
    # meets vertices 2 and 3 on the host path.
    g = cycle(6)
    occ = C1(0, 1, 5)
    plan = reduce(g, occ)
    assert plan.children[0].routes == ((1, 0, 5),)
    broken = dataclasses.replace(
        plan, rewrite=lambda store: store.splice((1, 2, 3, 4, 5))
    )
    child = decomposition((5, 1, 2, 3), (3, 4, 5))
    with pytest.raises(LiftError, match="recipe failed") as caught:
        load_and_lift(occ, broken, [child])
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


def test_check_structure_on_irreducible_census():
    for n in range(2, 8):
        for g in enumerate_connected(n, 5):
            if detect(g) is not None:
                continue
            if (g.n, g.m) in ((3, 3), (5, 10)):
                continue
            assert check_structure(g)
