import itertools
import random
from collections import Counter

import networkx as nx
import pytest

from gallai import Graph, canonical_form, enumerate_connected
from gallai.graphs import _derived, edge
from gallai.reductions import check_structure
from helpers import (
    MaskGraph,
    check_split,
    complete_graph,
    cycle,
    delete_edges,
    path_graph,
    petersen,
    random_caterpillar,
    random_connected_graph,
    reference_bridges,
    star,
    two_cliques_with_bridge,
)


def test_degree():
    assert all(complete_graph(3).degree(v) == 2 for v in range(3))
    assert star(3).degree(0) == 3
    assert all(petersen().degree(v) == 3 for v in range(10))


def test_max_degree():
    assert Graph.from_edges(2, [(0, 1)]).max_degree() == 1
    assert complete_graph(5).max_degree() == 4
    assert cycle(4).max_degree() == 2
    with pytest.raises(ValueError):
        Graph(0, []).max_degree()


def test_connectivity():
    assert cycle(4).is_connected()
    assert len(cycle(4).components()) == 1
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert two_edges.components() == [(0, 1), (2, 3)]
    k4_minus_vertex = complete_graph(4).delete_vertices({3})
    assert k4_minus_vertex.is_connected()
    assert Graph(0, []).components() == []


def test_bridges_examples():
    assert path_graph(3).bridges() == {(0, 1), (1, 2)}
    assert cycle(4).bridges() == set()
    two_triangles = Graph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)]
    )
    assert two_triangles.bridges() == {(0, 3)}


def test_bridges_of_the_empty_graph_and_k1():
    assert Graph(0, []).bridges() == set()
    assert Graph(1, [0]).bridges() == set()


def test_bridges_with_several_dfs_roots():
    # a triangle, a path, an isolated vertex and a square with a pendant,
    # on ids with gaps: each component starts a search of its own
    g = Graph.from_edges(14, [
        (0, 1), (1, 2), (0, 2),
        (3, 4), (4, 5),
        (7, 8), (8, 9), (9, 10), (7, 10), (10, 11),
        (12, 13),
    ]).delete_vertices({12})
    want = {(3, 4), (4, 5), (10, 11)}
    assert g.bridges() == reference_bridges(g) == want


def test_bridges_of_long_paths_and_cycles_do_not_recurse():
    n = 20_000
    path = path_graph(n)
    assert path.bridges() == set(path.edges())
    assert cycle(n).bridges() == set()


def test_bridges_of_two_cycles_joined_by_a_path():
    # cycles on 0..4 and 10..15, joined by the path 2-5-6-7-8-9-12
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(10 + i, 10 + (i + 1) % 6) for i in range(6)]
    joint = [(2, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 12)]
    g = Graph.from_edges(16, edges + joint)
    assert g.bridges() == set(joint)


def test_bridges_cost_only_the_graph_itself():
    # A 3-vertex child of a 5000-vertex path keeps the ids 4997..4999:
    # its bridges look up each of its own vertices a bounded number of
    # times, whatever its ids.
    n = 5000
    child = path_graph(n).delete_vertices(range(n - 3))
    table = _CountingTable(child.adjacency())
    counted = _derived(table, child.m)
    assert counted.bridges() == {(n - 3, n - 2), (n - 2, n - 1)}
    assert table.looked_up < 10


def test_bridges_against_component_counts():
    # Removing a bridge raises the component count by one; removing any
    # other edge leaves it unchanged.  Exhaustive over the small census.
    for n in range(2, 8):
        for g in enumerate_connected(n, 5):
            cut = g.bridges()
            for e in g.edges():
                parts = len(delete_edges(g, [e]).components())
                assert parts == (2 if e in cut else 1), (g, e)


def _seeded_graphs(rng, count):
    """Random graphs of max degree 5 and 3 and caterpillars, some with a
    few vertices deleted: disconnected, and on ids that are not 0..n-1."""
    for i in range(count):
        if i % 3 == 2:
            g = random_caterpillar(rng, rng.randrange(5, 40))
        else:
            g = random_connected_graph(rng, 6, 50, max_deg=5 if i % 3 else 3)
            if g is None:
                continue
        if i % 4 == 3:
            g = g.delete_vertices(rng.sample(sorted(g.vertices()), 2))
        yield g


def test_is_bridge_matches_bridges_on_seeded_graphs():
    rng = random.Random(2718)
    seen = Counter()
    for g in _seeded_graphs(rng, 150):
        cut = g.bridges()
        assert cut == reference_bridges(g), g
        for e in g.edges():
            assert g.is_bridge(*e) == g.is_bridge(*e[::-1]) == (e in cut), (g, e)
            seen[e in cut] += 1
    assert seen[True] > 300 and seen[False] > 300, seen


def test_split_matches_components_on_seeded_graphs():
    rng = random.Random(3141)
    sizes = Counter()
    for g in _seeded_graphs(rng, 400):
        vertices = sorted(g.vertices())
        removed = set(rng.sample(vertices, rng.randrange(0, 4)))
        rest = [v for v in vertices if v not in removed]
        if rng.random() < 0.5:
            starts = [rng.choice(rest) for _ in range(rng.randrange(0, 7))]
        else:  # the vertices next to the removed ones, as reductions do
            starts = [w for x in removed for w in g.neighbors(x) if w in rest]
        parts = g.split(starts, removed)
        check_split(g, starts, removed, None, parts)
        sizes[len(parts)] += 1
        u, v = rng.choice(list(g.edges()))
        if u not in removed and v not in removed:
            parts = g.split((u, v), removed, without=(u, v))
            check_split(g, (u, v), removed, (u, v), parts)
    many = sum(count for parts, count in sizes.items() if parts >= 3)
    assert sizes[0] and sizes[1] > 20 and many > 20, sizes


def test_split_rejects_a_start_it_cannot_search():
    g = path_graph(4)
    with pytest.raises(ValueError, match="start 1 is not a vertex left"):
        g.split((0, 1), removed={1})
    with pytest.raises(ValueError, match="start 7 is not a vertex left"):
        g.split((0, 7))


class _CountingTable(dict):
    """An adjacency table that counts the vertices looked up in it."""

    looked_up = 0

    def __getitem__(self, v):
        self.looked_up += 1
        return super().__getitem__(v)


def test_split_costs_only_the_smaller_sides():
    # A 2000-vertex path with a triangle hung at one end: a one-sided
    # search from the path's side of the joining edge would walk the
    # whole path.  Lockstep searches stop once the small side is used up.
    n = 2000
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(n - 1, n), (n, n + 1), (n + 1, n + 2), (n, n + 2)]
    g = Graph.from_edges(n + 3, edges)
    table = _CountingTable(g.adjacency())
    counted = _derived(table, g.m)
    assert counted.is_bridge(n - 1, n)
    assert table.looked_up < 20
    table.looked_up = 0
    parts = counted.split((n - 2, n), removed={n - 1})
    assert parts == [((n - 2,), None), ((n,), {n, n + 1, n + 2})]
    assert table.looked_up < 20


def test_check_structure_reads_no_tuple_of_a_cubic_graph():
    # The structure check trusts the input contract and reads only the
    # even vertices' tuples: a cubic graph has none, so it looks up no
    # vertex, where a connectivity check would look up every one.
    n = 20000  # a Moebius ladder: a cycle with its long diagonals
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + n // 2) for i in range(n // 2)]
    g = Graph.from_edges(n, edges)
    table = _CountingTable(g.adjacency())
    assert check_structure(_derived(table, g.m))
    assert table.looked_up == 0


def test_degree_sum_equals_twice_edges():
    for n in range(1, 8):
        for g in enumerate_connected(n, 5):
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_delete_vertices():
    g = complete_graph(3).delete_vertices({0})
    assert g.n == 2 and g.m == 1
    g = cycle(4).delete_vertices({0})
    assert list(g.vertices()) == [1, 2, 3]
    assert sorted(g.edges()) == [(1, 2), (2, 3)]
    g = cycle(4).delete_vertices({0, 1})
    assert g.m == 1
    with pytest.raises(ValueError):
        g.degree(0)  # deleted ids are gone, not renumbered
    g = path_graph(4).delete_vertices({1}, [(2, 0)])  # drop, then bypass
    assert list(g.adjacency().items()) == [(0, (2,)), (2, (0, 3)), (3, (2,))]
    assert g.m == 2


@pytest.mark.parametrize(
    "drop, add, message",
    [
        ((), [(1, 1)], "self-loop at 1"),
        ({2}, [(0, 2)], "edge (0, 2) leaves the kept vertices"),
        ((), [(0, 9)], "edge (0, 9) leaves the kept vertices"),
        ((), [(1, 0)], "edge (1, 0) already present"),
        ((), [(0, 2), (2, 0)], "edge (2, 0) already present"),
    ],
    ids=["loop", "dropped_end", "absent_end", "present", "added_twice"],
)
def test_delete_vertices_refuses_each_bad_added_edge(drop, add, message):
    with pytest.raises(ValueError) as refused:
        path_graph(4).delete_vertices(drop, add)
    assert str(refused.value) == message


def test_delete_vertices_preserves_surviving_adjacency():
    g = petersen()
    sub = g.delete_vertices({2, 7})
    assert set(sub.vertices()) == set(range(10)) - {2, 7}
    for u, v in itertools.combinations(sub.vertices(), 2):
        assert sub.has_edge(u, v) == g.has_edge(u, v)


def test_contract_edge():
    g = path_graph(3).contract_edge(0, 1)
    assert g.n == 2 and g.m == 1
    assert list(g.vertices()) == [0, 2]  # the merged vertex keeps min(u, v)
    tri = cycle(4).contract_edge(1, 0)
    assert list(tri.vertices()) == [0, 2, 3]
    assert sorted(tri.edges()) == [(0, 2), (0, 3), (2, 3)]
    with pytest.raises(ValueError):
        complete_graph(3).contract_edge(0, 1)  # shared neighbour


def test_contract_edge_bowtie_site():
    # Triangle u-v-w plus pendants a, b at u; after deleting v, contracting
    # u-w leaves the star path a - merged - b.
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    merged = g.delete_vertices({1}).contract_edge(0, 2)
    assert merged.n == 3 and merged.m == 2
    assert merged.neighbors(0) == (3, 4)


def test_contract_degree_arithmetic():
    for g in enumerate_connected(6, 5):
        for u, v in g.edges():
            if g.common_neighbors(u, v):
                continue
            merged = g.contract_edge(u, v)
            assert max(u, v) not in merged.vertices()
            assert merged.degree(min(u, v)) == g.degree(u) + g.degree(v) - 2
            assert merged.n == g.n - 1
            assert merged.m == g.m - 1


def test_induced_even_subgraph():
    k5 = complete_graph(5).induced_even_subgraph()
    assert k5 == complete_graph(5)
    mid = path_graph(3).induced_even_subgraph()
    assert list(mid.vertices()) == [1] and mid.m == 0
    c4 = cycle(4).induced_even_subgraph()
    assert c4 == cycle(4)


def test_induced_even_subgraph_selects_even_vertices_exactly():
    for g in enumerate_connected(6, 5):
        core = g.induced_even_subgraph()
        survivors = set(core.vertices())
        assert survivors == {v for v in range(g.n) if g.degree(v) % 2 == 0}
        for u, v in itertools.combinations(core.vertices(), 2):
            assert core.has_edge(u, v) == g.has_edge(u, v)
        # applying it again keeps exactly the now-even vertices
        again = core.induced_even_subgraph()
        assert set(again.vertices()) == {
            v for v in core.vertices() if core.degree(v) % 2 == 0
        }
    # Derived graphs on gapped ids, some with a few hundred vertices: the
    # core keeps the ids, ascending (``==`` compares tables and would not
    # see their order), and counts its own edges.
    rng = random.Random(4242)
    graphs = list(_seeded_graphs(rng, 60))
    for _ in range(4):
        g = random_connected_graph(rng, 120, 300)
        graphs.append(g.delete_vertices(rng.sample(sorted(g.vertices()), 5)))
    for g in graphs:
        core = g.induced_even_subgraph()
        odd = [v for v in g.vertices() if g.degree(v) % 2]
        assert core == g.delete_vertices(odd)
        assert list(core.vertices()) == sorted(core.vertices())
        assert core.m == len(list(core.edges()))


def test_is_forest():
    assert path_graph(5).is_forest()
    assert star(4).is_forest()
    assert not cycle(4).is_forest()
    assert Graph(0, []).is_forest()


def test_is_odd_semi_clique_examples():
    assert complete_graph(5).is_odd_semi_clique()
    assert delete_edges(complete_graph(5), [(0, 1)]).is_odd_semi_clique()
    assert not delete_edges(complete_graph(5), [(0, 1), (2, 3)]).is_odd_semi_clique()
    assert not complete_graph(4).is_odd_semi_clique()


def test_is_odd_semi_clique_against_generated_family():
    # Generate the family directly: delete up to k-1 edges from a clique on
    # 2k+1 vertices, in every way, and compare membership by canonical form.
    for n in (3, 5, 7):
        k = (n - 1) // 2
        family = set()
        base = complete_graph(n)
        pairs = list(itertools.combinations(range(n), 2))
        for count in range(k):
            for drop in itertools.combinations(pairs, count):
                family.add(canonical_form(delete_edges(base, drop)))
        for g in enumerate_connected(n, n - 1):
            assert g.is_odd_semi_clique() == (canonical_form(g) in family)


def test_common_neighbors():
    assert complete_graph(3).common_neighbors(0, 1) == (2,)
    assert cycle(4).common_neighbors(0, 2) == (1, 3)
    assert len(complete_graph(5).common_neighbors(0, 1)) == 3


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [2, 0])  # asymmetric adjacency


# -- against networkx and the adjacency-mask reference ----------------------


def _same_error(ours, theirs, call):
    """``call`` raises the same ValueError on both graphs (or classes)."""
    with pytest.raises(ValueError) as got:
        call(ours)
    with pytest.raises(ValueError) as want:
        call(theirs)
    assert str(got.value) == str(want.value)


def _assert_agrees(g: Graph, ref: MaskGraph, nxg: nx.Graph, order: int):
    assert g.n == len(ref.adj) == nxg.number_of_nodes()
    assert list(g.vertices()) == list(ref.adj) == sorted(nxg)
    edges = list(g.edges())
    assert edges == ref.edges() == sorted(edge(*e) for e in nxg.edges)
    assert g.m == len(edges) == ref.m  # the kept count against a recount
    for v in g.vertices():
        assert g.degree(v) == ref.degree(v) == nxg.degree(v)
        assert g.neighbors(v) == ref.neighbors(v) == tuple(sorted(nxg[v]))
        assert g.neighbor_mask(v) == ref.neighbor_mask(v)
    assert g.components() == ref.components() == sorted(
        tuple(sorted(c)) for c in nx.connected_components(nxg)
    )
    cut = g.bridges()
    assert cut == ref.bridges() == {edge(*e) for e in nx.bridges(nxg)}
    assert [g.is_bridge(*e) for e in edges] == [e in cut for e in edges]
    assert g.is_connected() == ref.is_connected() == (
        g.n > 0 and nx.is_connected(nxg)
    )
    # the same graph built another way is equal and hashes equal
    twin = Graph.from_edges(order, edges).delete_vertices(
        set(range(order)) - set(g.vertices())
    )
    assert twin == g and hash(twin) == hash(g)
    if edges:
        assert delete_edges(g, edges[:1]) != g


def test_derived_graphs_agree_with_networkx_and_masks():
    rng = random.Random(606)
    checked = 0
    for _ in range(60):
        g = random_connected_graph(rng, 6, 16)
        if g is None:
            continue
        order = g.n
        ref = MaskGraph.from_edges(order, g.edges())
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(order))
        for _ in range(14):
            _assert_agrees(g, ref, nxg, order)
            checked += 1
            ids = sorted(g.vertices())
            if len(ids) < 3:
                break
            u, v = rng.sample(ids, 2)
            absent = rng.choice([-1, order, *(set(range(order)) - set(ids))])
            for call in (
                lambda h: h.degree(absent),
                lambda h: h.has_edge(u, absent),
                lambda h: h.delete_vertices({u, absent}),
                lambda h: h.delete_vertices((), [(u, u)]),
                lambda h: h.delete_vertices({v}, [(u, v)]),
                lambda h: h.delete_vertices((), [(absent, u)]),
                lambda h: h.common_neighbors(u, u),
            ):
                _same_error(g, ref, call)
            kind = rng.choice(("delete", "edit", "add", "remove", "contract"))
            if kind == "delete":
                drop = set(rng.sample(ids, rng.randint(1, 2)))
                g, ref = g.delete_vertices(drop), ref.delete_vertices(drop)
                nxg.remove_nodes_from(drop)
            elif kind == "edit":  # drop up to two vertices, add up to three edges
                drop = set(rng.sample(ids, rng.randint(0, 2)))
                kept = [x for x in ids if x not in drop]
                new = [
                    (b, a) if rng.random() < 0.5 else (a, b)
                    for a, b in itertools.combinations(kept, 2)
                    if not g.has_edge(a, b)
                ]
                add = rng.sample(new, min(len(new), rng.randint(1, 3)))
                g, ref = g.delete_vertices(drop, add), ref.delete_vertices(drop, add)
                nxg.remove_nodes_from(drop)
                nxg.add_edges_from(add)
            elif not g.has_edge(u, v):
                for call in (
                    lambda h: h.contract_edge(u, v),
                    lambda h: h.delete_vertices((), [(u, v), (v, u)]),
                ):
                    _same_error(g, ref, call)
                if kind == "add":
                    add = [(u, v)]
                    g, ref = g.delete_vertices((), add), ref.delete_vertices((), add)
                    nxg.add_edge(u, v)
            else:
                _same_error(g, ref, lambda h: h.delete_vertices((), [(v, u)]))
                if kind == "remove":
                    g, ref = delete_edges(g, [(u, v)]), ref.delete_edge(u, v)
                    nxg.remove_edge(u, v)
                elif g.common_neighbors(u, v):
                    _same_error(g, ref, lambda h: h.contract_edge(u, v))
                elif kind == "contract":
                    g, ref = g.contract_edge(u, v), ref.contract_edge(u, v)
                    a, b = edge(u, v)
                    nxg = nx.contracted_nodes(nxg, a, b, self_loops=False)
    assert checked > 500


@pytest.mark.parametrize(
    "n, masks",
    [
        (-1, []),
        (2, [2]),
        (2, [4, 0]),
        (2, [1, 0]),
        (2, [2, 0]),
        (3, [2, 5, 0]),
        (12, [1 << 11] + [0] * 11),
    ],
)
def test_mask_constructor_errors_are_unchanged(n, masks):
    _same_error(Graph, MaskGraph, lambda cls: cls(n, masks))


@pytest.mark.parametrize(
    "n, edges",
    [
        (-1, []),
        (-1, [(0, 1)]),
        (2, [(0, 0)]),
        (2, [(0, 2)]),
        (2, [(-1, 0)]),
        (2, [(0, 1), (1, 0)]),
        (3, [(0, 1), (1, 2), (2, 1), (0, 5)]),
        (3, [(0, 1), (0, 3), (1, 0)]),
    ],
)
def test_edge_list_constructor_errors_are_unchanged(n, edges):
    _same_error(Graph, MaskGraph, lambda cls: cls.from_edges(n, edges))


def test_mask_and_edge_constructors_agree():
    rng = random.Random(8)
    for n in (0, 1, 9, 10, 11, 40):
        pairs = [p for p in itertools.combinations(range(n), 2)
                 if rng.random() < 0.3]
        ref = MaskGraph.from_edges(n, pairs)
        g = Graph(n, [ref.neighbor_mask(v) for v in range(n)])
        assert g == Graph.from_edges(n, reversed(pairs))
        assert g.m == ref.m and list(g.edges()) == ref.edges()
