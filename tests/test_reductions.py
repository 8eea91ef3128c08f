import dataclasses
import itertools
import random
import re
from collections import Counter

import pytest

from gallai import (
    Graph, ReductionError, detect, enumerate_connected, reductions, solve, verify,
)
from gallai.graphs import edge
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
    is_exceptional_clique,
    reduce,
)
from helpers import (
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
    reference_bridges,
    searched_components,
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
            if isinstance(occ, C2):  # `reduce`, not `validate`, asks this
                assert edge(occ.u, occ.v) in g.bridges(), (g, occ)


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

    # a triangle hung from u = 0 on the 5-cycle 0-3-5-6-4
    g = Graph.from_edges(
        7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 5), (4, 6), (5, 6)]
    )
    occ = C5(0, 1, 2)
    plan = reduce(g, occ)
    assert plan.subcase == "degree_two"
    c = 0  # u = 0 and w = 2 merge into the smaller id

    split_sides = decomposition((c, 3, 5, 6), (c, 4, 6))
    lifted = load_and_lift(occ, plan, [split_sides])
    assert verify(g, lifted).good
    assert len(lifted) == 2

    hinged = decomposition((3, c, 4), (3, 5, 6, 4))
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
# Where two corners of a C5 see a common trio with two gaps, or two corners
# have degree 4 and no two share an outside neighbour, the graph holds a
# C4 at a corner edge, which `detect` finds first (the lemma of
# `reductions._reduce_c5`): `reduce` refuses the C5 and names the C4.


def _shadowed_branch(g, occ):
    """The sub-case that the corner tests once sent ``occ`` to, if a C4
    shadows it: "two_gaps"; "degree_two" when exactly two corners have
    degree 4; for three, "bridge_spread" when every outer corner edge is
    a bridge and "hub_contraction" otherwise; None for the sub-cases that
    `reduce` still builds."""
    corners = sorted((occ.u, occ.v, occ.w))
    pairs = list(itertools.combinations(corners, 2))
    for a, b in pairs:
        trio = g.common_neighbors(a, b)
        if len(trio) == 3:
            gaps = [e for e in itertools.combinations(trio, 2) if not g.has_edge(*e)]
            return "two_gaps" if len(gaps) >= 2 else None
    if any(len(g.common_neighbors(a, b)) != 1 for a, b in pairs):
        return None
    fours = sum(g.degree(x) == 4 for x in corners)
    if fours < 3:
        return "degree_two" if fours == 2 else None
    outer = [(c, y) for c in corners for y in g.neighbors(c) if y not in corners]
    cut = g.bridges()
    if all(edge(c, y) in cut for c, y in outer):
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
    shadowed = ("two_gaps", "degree_two", "hub_contraction", "bridge_spread")
    assert min(seen[b] for b in shadowed) >= 20, seen


# -- C3 near the changed vertices --------------------------------------------


def _near_corpus():
    """Every census graph with n <= 7, then seeded 4-regular and
    max-degree-5 graphs."""
    for n in range(1, 8):
        yield from enumerate_connected(n, 5)
    rng = random.Random(2424)
    for i in range(600):
        if i % 2:
            yield random_regular_graph(rng, rng.randrange(8, 60), 4)
        elif (g := random_connected_graph(rng, 8, 60, max_deg=5)) is not None:
            yield g


def _reductions(graphs):
    """Each graph of ``graphs`` that ``solve`` would reduce, with its
    occurrence and plan."""
    for g in graphs:
        if g.m and not is_exceptional_clique(g) and (occ := detect(g)):
            yield g, occ, reduce(g, occ)


def test_children_change_only_their_boundary():
    # The premise of the C3 lemma: every synthetic edge joins two boundary
    # vertices, and every other kept vertex keeps its neighbour tuple.
    for g, _, plan in _reductions(_near_corpus()):
        for child in plan.children:
            near = set(child.boundary)
            assert near.issuperset(x for e in child.synthetic for x in e), plan
            for v, nbrs in child.graph.adjacency().items():
                assert v in near or nbrs == g.neighbors(v), (plan, v)


def test_c3_near_the_boundary_is_the_whole_scan():
    # A graph whose detection passed C3 has no C3, so each of its
    # children has one only at an edge at its boundary.
    found = Counter()
    for _, occ, plan in _reductions(_near_corpus()):
        if occ.tag in ("C4", "C5"):
            for child in plan.children:
                occ3 = detect_c3(child.graph)
                assert detect_c3(child.graph, child.boundary) == occ3, plan
                found[occ3 is not None] += 1
    assert found[True] >= 10 and found[False] >= 150, found


def test_solve_carries_c3_absence_exactly(monkeypatch):
    # Down whole reduction chains: every C3 scan that solve restricts to
    # ``near`` answers as the scan of the whole graph would, and every set
    # a child is handed names only its own vertices.  A child of a C3 level
    # whose graph carried a set keeps what it still has of that set plus
    # its boundary (the lemma of ``reductions``), so it never scans whole.
    import gallai.solver as solver

    whole = reductions._DETECTORS[2]
    real = solver.inherited
    answers = Counter()
    past_c3 = {}  # id -> child graph of a C3 level whose graph carried a set

    def watched(plan, i, near, bridges):
        child = plan.children[i].graph
        if plan.tag == "C3" and near is not None:
            past_c3[id(child)] = child
        got = real(plan, i, near, bridges)
        assert got[0] is None or child.vertices() >= got[0], (plan, i, got)
        return got

    def checked(g, near=None):
        occ = whole(g)
        if near is not None:
            assert whole(g, near) == occ, (g, near)
            answers[occ is not None] += 1
        if id(g) in past_c3:
            answers["near past C3" if near is not None else "whole past C3"] += 1
        return occ

    monkeypatch.setattr(solver, "inherited", watched)
    monkeypatch.setattr(
        reductions, "_DETECTORS",
        reductions._DETECTORS[:2] + (checked,) + reductions._DETECTORS[3:],
    )
    for g in _near_corpus():
        solve(g)
    assert answers[True] >= 200 and answers[False] >= 2000, answers
    assert answers["near past C3"] >= 187 and not answers["whole past C3"], answers


def test_solve_scans_a_4_regular_graph_for_c3_a_few_times(monkeypatch):
    # Past the first level, solve looks for C3 only near the vertices
    # that changed.  One seeded 4-regular graph with n = 400 asks for a
    # C3 at 119 levels; scanning the whole graph each time made 119 scans.
    whole = reductions._DETECTORS[2]
    scans = Counter()

    def counted(g, near=None):
        scans["whole" if near is None else "near"] += 1
        return whole(g) if near is None else whole(g, near)

    monkeypatch.setattr(
        reductions, "_DETECTORS",
        reductions._DETECTORS[:2] + (counted,) + reductions._DETECTORS[3:],
    )
    solve(random_regular_graph(random.Random(801), 400, 4))
    assert scans["whole"] <= 3 and scans["near"] >= 100, scans


# A C4 at 0-1 whose leftover 4 has degree 3, with a K4 hung from it by the
# bridge 4-8: the paired child makes 4 a C1 vertex between two bridges
# with even ends, 4-8 and 4-12, so the C1 child carries 8-12 as a bridge.
_C1_BETWEEN_BRIDGES = Graph.from_edges(14, [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7), (2, 5), (2, 6),
    (2, 7), (2, 13), (3, 7), (3, 13), (4, 8), (4, 12), (5, 12), (6, 7),
    (6, 13), (7, 12), (8, 9), (8, 10), (8, 11), (9, 10), (9, 11), (10, 11),
    (12, 13),
])


def _carry_corpus():
    """The census up to n = 7, 300 seeded 4-regular and max-degree-5
    graphs, and a graph whose C1 carries a bridge through its vertex."""
    for n in range(2, 8):
        yield from (g for g in enumerate_connected(n, 5) if g.m)
    rng = random.Random(4099)
    for i in range(300):
        if i % 2:
            yield random_regular_graph(rng, rng.randrange(8, 60), 4)
        elif (g := random_connected_graph(rng, 30, 120)) is not None:
            yield g
    yield _C1_BETWEEN_BRIDGES


def test_solve_carries_bridges_exactly(monkeypatch):
    # Wherever solve hands `detect` a graph's bridges, from C4's remainder
    # search or down a C1 splice, they are exactly those of the reference
    # bridge finder, an odd end or not: only `detect_c2` reads the degrees.
    import gallai.solver as solver

    real = solver.detect
    met = Counter()

    def checked(g, near=None, bridges=None):
        if bridges is not None:
            want = reference_bridges(g)
            assert set(bridges) == want, g
            met[bool(want)] += 1
            adj = g.adjacency()
            if any(len(adj[a]) % 2 or len(adj[b]) % 2 for a, b in want):
                met["odd end"] += 1
        return real(g, near, bridges)

    monkeypatch.setattr(solver, "detect", checked)
    for g in _carry_corpus():
        solve(g)
    # floors at this corpus's counts: 2,763 carried sets, 810 not empty
    assert met[True] + met[False] >= 2763 and met[True] >= 810, met
    assert met["odd end"] >= 808, met


def test_solve_searches_a_4_regular_graph_for_c2_a_few_times(monkeypatch):
    # Past the first level, each C4 paired child and each C1 child after it
    # has its even bridges handed down, so one seeded 4-regular graph with
    # n = 400 is searched whole for C2 only where a C3 or C5 came before.
    searched = []
    bridges = Graph.bridges

    def counted(g):
        searched.append(g.n)
        return bridges(g)

    monkeypatch.setattr(Graph, "bridges", counted)
    solve(random_regular_graph(random.Random(801), 400, 4))
    assert len(searched) <= 3, searched


# -- boundary certificates ---------------------------------------------------


def _certificate_corpus():
    """The census up to n = 7 and 400 seeded cubic, 4-regular,
    max-degree-5 and caterpillar graphs."""
    for n in range(2, 8):
        yield from (g for g in enumerate_connected(n, 5) if g.m)
    rng = random.Random(8086)
    for i in range(400):
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
    # checks, the trial child of the C3 sparse ring, and the paired
    # children that C4's remainder search found in one part) must answer
    # as a search of the whole child does.  Every
    # low-link search must give the components of the graph it cuts that
    # hold a start, and the bridges of the vertices it walked; each C2
    # join's two children must be the sides of its cut edge, u's first;
    # and `_ascending` must order the parts it is given as `components`
    # does.
    import gallai.reductions as reductions

    answers, searches, orders, larger = Counter(), Counter(), Counter(), Counter()
    connected, low_link = reductions._connected, Graph.low_link
    ascending, finish = reductions._ascending, reductions._finish
    reduce_c2 = reductions._reduce_c2

    def checked_connected(child):
        answer = connected(child)
        assert answer == child.graph.is_connected(), child
        answers[answer] += 1
        return answer

    def checked_low_link(g, starts, removed=()):
        search = low_link(g, starts, removed)
        parts = search.parts()
        assert parts == searched_components(g, starts, removed), (g, removed)
        walked = set().union(*(vertices for _, vertices in parts))
        walked_graph = g.delete_vertices(g.vertices() - walked)
        assert set(search.bridges) == reference_bridges(walked_graph), g
        # C2 removes one end of its edge, C4 both ends of its own
        searches[len(removed), len(parts)] += 1
        return search

    def checked_reduce_c2(g, occ):
        plan = reduce_c2(g, occ)
        sides = [set(child.graph.vertices()) for child in plan.children]
        cut = delete_edges(g, [(occ.u, occ.v)]).components()
        assert sorted(map(sorted, sides)) == sorted(map(list, cut)), (g, occ)
        assert occ.u in sides[0] and occ.v in sides[1], (g, occ)
        u_side, v_side = map(len, sides)
        larger["u" if u_side > v_side else "v" if v_side > u_side else "="] += 1
        return plan

    def checked_ascending(chosen):
        got = ascending(chosen)
        assert [min(vertices) for _, vertices in got] == sorted(
            min(vertices) for _, vertices in chosen
        )
        orders[len(got)] += 1
        return got

    def checked_finish(plan):
        for child in plan.children:
            if child.bridges is not None:
                assert child.graph.is_connected(), child
                answers["searched"] += 1
        return finish(plan)

    monkeypatch.setattr(reductions, "_connected", checked_connected)
    monkeypatch.setattr(reductions, "_ascending", checked_ascending)
    monkeypatch.setattr(reductions, "_finish", checked_finish)
    monkeypatch.setattr(reductions, "_reduce_c2", checked_reduce_c2)
    monkeypatch.setattr(Graph, "low_link", checked_low_link)
    for g in _certificate_corpus():
        solve(g)
    # a child that `_finish` passes is connected, so every disconnected
    # answer is a C3 sparse ring's trial child: 5 in this corpus
    assert answers[True] > 1000 and answers[False] >= 5, answers
    assert answers["searched"] > 500, answers
    # floors at what this corpus makes: 56 C2 joins, 49 two-part C4 searches
    assert searches[2, 1] > 500 and searches[2, 2] >= 49, searches
    assert searches[1, 1] >= 56 and larger["u"] and larger["v"], (searches, larger)
    assert searches[2, 3] + searches[2, 4] > 5 and orders[2] > 5, (searches, orders)


def test_each_connectivity_question_is_searched_once(monkeypatch):
    # Over every occurrence that `reduce` builds on the census up to n = 7:
    # each C2 runs one low-link search, of the graph minus one end, and
    # each C4 that is not a common triple one, of the graph minus both.
    # The C3 full and partial rings, and the C4 pairs whose remainder
    # search found it split, search their children only in `_finish`, once
    # per child (no labelling is tried by a search), and the C4 pairs whose
    # remainder search found one part not at all.
    import gallai.reductions as reductions

    low_link, connected = Graph.low_link, reductions._connected
    searches, certified, met = [], [], Counter()

    def counted_low_link(g, starts, removed=()):
        search = low_link(g, starts, removed)
        searches.append((len(removed), len(search.firsts)))
        return search

    def counted_connected(child):
        certified.append(child)
        return connected(child)

    monkeypatch.setattr(Graph, "low_link", counted_low_link)
    monkeypatch.setattr(reductions, "_connected", counted_connected)
    for n in range(2, 8):
        for g in enumerate_connected(n, 5):
            for occ in _all_occurrences(g):
                searches.clear()
                certified.clear()
                try:
                    plan = reduce(g, occ)
                except ReductionError:
                    continue
                kind = plan.subcase
                if plan.tag == "C2":
                    assert searches == [(1, 1)], (g, occ, searches)
                if plan.tag == "C4" and kind != "triple_common":
                    assert len(searches) == 1 and searches[0][0] == 2, (
                        g, occ, searches,
                    )
                if kind == "paired_nonedges":
                    kind += f"/{searches[0][1]}"
                split = kind.startswith("paired_nonedges/") and kind[-1] != "1"
                if kind in ("full_ring", "partial_ring") or split:
                    assert certified == list(plan.children), (g, occ)
                if kind == "paired_nonedges/1":
                    assert certified == [], (g, occ)
                met[kind] += 1
    floors = {
        "join": 25, "full_ring": 25, "partial_ring": 150, "hub_split": 3,
        "paired_nonedges/1": 80, "paired_nonedges/2": 20, "paired_nonedges/3": 10,
    }
    assert all(met[kind] >= floor for kind, floor in floors.items()), met


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


def _check_one_shape(g, plan, met):
    """Each child of ``plan`` is ``g`` minus the vertices it lacks plus its
    ``synthetic`` edges, and those are exactly, in route order, the ends of
    its routes that ``g`` does not join; each route is a walk of ``g``
    between two kept vertices whose inner vertices were all removed."""
    for child in plan.children:
        kept = child.graph.adjacency()
        removed = g.vertices() - kept.keys()
        lacking = []
        for route in child.routes:
            assert all(g.has_edge(a, b) for a, b in zip(route, route[1:])), route
            assert route[0] in kept and route[-1] in kept, (plan.subcase, route)
            assert removed.issuperset(route[1:-1]), (plan.subcase, route)
            if not g.has_edge(route[0], route[-1]):
                lacking.append(edge(route[0], route[-1]))
        assert child.synthetic == tuple(lacking), (plan.tag, plan.subcase, child)
        built = g.delete_vertices(removed, child.synthetic)
        assert list(built.adjacency().items()) == list(kept.items()), child
        met[plan.tag, plan.subcase] += 1
        if plan.subcase == "degree_two" and child.routes:
            met["routed degree_two"] += 1


def test_every_child_has_one_shape(monkeypatch):
    # Every child that `solve` meets on the census up to n = 8 and on the
    # certificate corpus is the parent minus a removed set plus one
    # synthetic edge per route whose ends the parent lacks: a C5
    # degree-two child with w < u too, whose two edges are routed.
    import gallai.solver as solver

    met = Counter()
    original = solver.reduce

    def checked_reduce(g, occ):
        plan = original(g, occ)
        _check_one_shape(g, plan, met)
        return plan

    monkeypatch.setattr(solver, "reduce", checked_reduce)
    census = (g for n in range(2, 9) for g in enumerate_connected(n, 5) if g.m)
    for g in itertools.chain(census, _certificate_corpus()):
        solve(g)
    assert met["routed degree_two"] >= 285, met
    built = {kind for kind in met if isinstance(kind, tuple)}
    assert len(built) == 12, met  # every sub-case that `reduce` builds


def test_c4_pairs_take_the_first_labelling_that_joins_the_remainder(monkeypatch):
    # Each C4 paired child that `solve` meets on the certificate corpus
    # comes from the first labelling, in `_c4_labellings` order, whose two
    # synthetic edges make g - {u, v} connected; when g - {u, v} is split,
    # that is read from the trees of C4's one search.
    import gallai.solver as solver
    from gallai.reductions import _c4_labellings

    trees = Counter()
    original = solver.reduce

    def checked_reduce(g, occ):
        plan = original(g, occ)
        if plan.subcase != "paired_nonedges":
            return plan
        u, v = occ.u, occ.v
        (child,) = plan.children
        (t1, _, t2), (w1, _, w2) = child.routes
        ((t3, _, _, w3),) = plan.rewrite.args[1]
        first = next(
            (a, b, c, d, e, f)
            for a, b, c, d, e, f in _c4_labellings(g.adjacency(), u, v)
            if g.delete_vertices({u, v}, [edge(a, b), edge(d, e)]).is_connected()
        )
        assert (t1, t2, t3, w1, w2, w3) == first, (g, occ)
        trees[len(g.delete_vertices({u, v}).components())] += 1
        return plan

    monkeypatch.setattr(solver, "reduce", checked_reduce)
    for g in _certificate_corpus():
        solve(g)
    # floors at what this corpus makes
    assert trees[1] >= 631 and trees[2] >= 49 and trees[3] >= 11, trees


def _set_partitions(items):
    """Every partition of the list ``items`` into blocks, as lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1:]


def _c4_remainder_shapes():
    """Every way to lay out the side neighbours of a C4 at the edge 0-1 in
    the parts of g - {0, 1}: ts = (2, 3, 4) at 0 and ws = (5, 6, 7) at 1,
    or ws = (4, 5, 6) with 4 common to both ends; each part is joined by
    one connector vertex, and any pairs of one side within a part may be
    adjacent.  Yields (g, ts, ws, parts) where the graph has maximum
    degree at most 5 and a C4 labelling at 0-1."""
    from gallai.reductions import _c4_labellings

    for ts, ws in (((2, 3, 4), (5, 6, 7)), ((2, 3, 4), (4, 5, 6))):
        side = sorted(set(ts) | set(ws))
        for parts in _set_partitions(side):
            part_of = {x: i for i, part in enumerate(parts) for x in part}
            inside = [
                (a, b)
                for ends in (ts, ws)
                for a, b in itertools.combinations(ends, 2)
                if part_of[a] == part_of[b]
            ]
            connectors = [(8 + i, x) for i, part in enumerate(parts) for x in part]
            base = [(0, 1)] + [(0, t) for t in ts] + [(1, w) for w in ws] + connectors
            for k in range(len(inside) + 1):
                for chosen in itertools.combinations(inside, k):
                    g = Graph.from_edges(8 + len(parts), base + list(chosen))
                    if g.max_degree() > 5:
                        continue
                    if next(_c4_labellings(g.adjacency(), 0, 1), None) is not None:
                        yield g, ts, ws, parts


def test_every_c4_remainder_shape_reduces_as_the_lemmas_say():
    # The counting lemma of `_reduce_c4` sends each split of g - {u, v} to
    # the cut-edge refusal, a hub split, the four-way split or the paired
    # non-edges, and the joining lemma gives the paired non-edges a
    # labelling that joins every part; so the three guards that assert
    # them never fire, on any shape of the remainder.
    from gallai.reductions import _c4_labellings

    met = Counter()
    for g, ts, ws, parts in _c4_remainder_shapes():
        both = [p for p in parts if set(p) & set(ts) and set(p) & set(ws)]
        only_t = [p for p in parts if not set(p) & set(ws)]
        only_w = [p for p in parts if not set(p) & set(ts)]
        occ = C4(0, 1, *next(_c4_labellings(g.adjacency(), 0, 1)))
        if not both:
            with pytest.raises(ReductionError, match="the edge is a cut edge"):
                reduce(g, occ)
            met["cut edge"] += 1
            continue
        plan = reduce(g, occ)
        if len(only_t) >= 2 or len(only_w) >= 2:
            assert plan.subcase == "hub_split", (g, parts)
            assert plan.rewrite.args[0] == (0 if len(only_t) >= 2 else 1)
        elif len(parts) >= 4:
            assert plan.subcase == "four_components", (g, parts)
        else:
            assert plan.subcase == "paired_nonedges", (g, parts)
        met[plan.subcase, len(parts)] += 1
    # floors at the counts of these 1,048 shapes
    assert met["cut edge"] >= 196 and met["four_components", 4] >= 22, met
    assert met["hub_split", 3] + met["hub_split", 4] + met["hub_split", 5] >= 150, met
    assert met["paired_nonedges", 2] >= 356 and met["paired_nonedges", 3] >= 284, met


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


def test_finish_takes_carried_bridges_as_proof_only_from_c4_paired():
    # A disconnected child that carries a set of bridges is still searched,
    # and refused, in any plan but the C4 paired non-edges.
    from gallai.reductions import _finish

    g = path_graph(10)
    plan = reduce(g, detect(g))
    (child,) = plan.children
    broken = dataclasses.replace(
        child, graph=delete_edges(child.graph, [(0, 2)]), bridges=frozenset(),
    )
    with pytest.raises(ReductionError, match="^C1/splice: child disconnected$"):
        _finish(dataclasses.replace(plan, children=(broken,)))


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
    (_C4_SITE, C4(0, 1, 2, 3, 4, 5, 6, 7), ": the edge is a cut edge (C2 was skipped)"),
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


def test_c4_common_triple_with_one_gap_is_refused():
    # u = 0 and v = 1 share the trio 2, 3, 4, whose only gap is 2-4: both
    # sides must name that gap, so the leftovers coincide.  This is the one
    # shape of a triple with fewer than two gaps that reaches `reduce`.
    g = Graph.from_edges(5, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4),
    ])
    occ = C4(0, 1, 2, 4, 3, 2, 4, 3)
    with pytest.raises(ReductionError) as refused:
        reduce(g, occ)
    assert str(refused.value) == f"{occ}: leftover vertices coincide"


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


def test_lift_names_the_join_when_no_path_ends_at_a_cut_edge_endpoint():
    # A C2 side whose store leaves u's edges uncovered has no path ending
    # at u: the store refuses, and lift labels the refusal with the sub-case.
    from gallai import LiftError
    from gallai.paths import PathStore, decomposition
    from gallai.reductions import lift

    plan = reduce(path_graph(4), C2(1, 2))
    side_u, side_v = (child.graph for child in plan.children)
    stores = [PathStore(side_u), PathStore.load(side_v, decomposition((2, 3)))]
    with pytest.raises(LiftError, match="^C2/join recipe failed: no path ends at 1$"):
        lift(plan, stores)


def test_lift_names_the_hub_split_when_its_synthetic_edge_is_uncovered():
    # The hub recipe splits the path that covers t1-t2; with the pair
    # child's store left empty, the store refuses the lookup, and lift
    # labels the refusal with the sub-case.
    from gallai import LiftError
    from gallai.paths import PathStore
    from gallai.reductions import lift

    g = Graph.from_edges(12, [
        (0, 1), (0, 2), (0, 3), (0, 4), (2, 5), (2, 6), (5, 6), (3, 7),
        (3, 8), (7, 8), (1, 9), (1, 10), (1, 11), (4, 9), (4, 10), (9, 10),
    ])
    plan = reduce(g, detect(g))
    assert plan.subcase == "hub_split"
    pair, rest = plan.children
    (e,) = pair.synthetic
    stores = [
        PathStore(pair.graph),
        PathStore.load(rest.graph, solve(rest.graph).decomposition),
    ]
    message = f"^C4/hub_split recipe failed: edge {re.escape(str(e))} is on no path$"
    with pytest.raises(LiftError, match=message):
        lift(plan, stores)


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
