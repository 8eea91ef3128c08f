import itertools
import random
from collections import Counter

import networkx as nx
import pytest

from gallai import Graph, canonical_form, enumerate_connected, run_floor_search
from gallai.graphs import _derived, edge
from gallai.reductions import C1, check_structure, reduce
from helpers import (
    MaskGraph,
    complete_graph,
    cycle,
    delete_edges,
    path_graph,
    petersen,
    random_caterpillar,
    random_connected_graph,
    reference_bridges,
    reference_components,
    searched_components,
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
    assert cycle(4).is_connected() and cycle(4).joins((2, 0))
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not two_edges.is_connected()
    assert two_edges.joins((0, 1)) and two_edges.joins((3, 2))
    assert not two_edges.joins((0, 2)) and not two_edges.joins((1, 3, 0))
    assert two_edges.joins((2,)) and not two_edges.joins(())
    k4_minus_vertex = complete_graph(4).delete_vertices({3})
    assert k4_minus_vertex.is_connected()
    assert not Graph(0, []).is_connected() and not Graph(0, []).joins(())


def test_joins_against_mask_components():
    # Every nonempty vertex set of every census graph with n <= 6, and of
    # each of them minus one vertex (on ids with a gap, often split),
    # joins exactly when the mask reference's search puts it in one
    # component; and seeded derived graphs, on gapped ids, agree on the
    # sets that make or break a component.
    checked = Counter()
    for n in range(1, 7):
        for g in enumerate_connected(n, 5):
            for h in [g, *(g.delete_vertices({v}) for v in range(n) if n > 1)]:
                comps = [set(c) for c in reference_components(h)]
                assert h.is_connected() == (len(comps) == 1)
                ids = list(h.vertices())
                for size in range(1, len(ids) + 1):
                    for chosen in itertools.combinations(ids, size):
                        want = any(comp.issuperset(chosen) for comp in comps)
                        assert h.joins(chosen) == want, (h, chosen)
                        assert h.joins(chosen[::-1]) == want, (h, chosen)
                        checked[want] += 1
    assert checked[True] > 10000 and checked[False] > 1000, checked
    for g in _seeded_graphs(random.Random(5151), 60):
        comps = reference_components(g)
        assert g.is_connected() == (len(comps) == 1)
        assert all(g.joins(comp) for comp in comps)
        assert g.joins([comp[-1] for comp in comps]) == (len(comps) == 1)
        for a, b in zip(comps, comps[1:]):
            assert not g.joins((*a, b[0]))


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
                parts = len(reference_components(delete_edges(g, [e])))
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


def test_low_link_matches_components_and_bridges_on_seeded_graphs():
    # The whole-graph search gives g's bridges, and the remainder search
    # of g - S from a set of starts gives the components that hold a
    # start and the bridges of what it searched.
    # Where it is one tree, the bridges that no added edge crosses are
    # the bridges of that tree's graph plus the added edges.
    rng = random.Random(1729)
    met = Counter()
    for g in _seeded_graphs(rng, 400):
        assert g.bridges() == reference_bridges(g), g
        vertices = sorted(g.vertices())
        removed = set(rng.sample(vertices, rng.randrange(0, 4)))
        rest = [v for v in vertices if v not in removed]
        if not removed or rng.random() < 0.5:
            starts = rest
        else:  # the vertices next to the removed ones, as C4 starts it
            starts = sorted({w for x in removed for w in g.neighbors(x)} - removed)
        search = g.low_link(starts, removed)
        parts = search.parts()
        assert parts == searched_components(g, starts, removed), (g, removed)
        searched = set().union(*(vertices for _, vertices in parts))
        h = g.delete_vertices(set(vertices) - searched)
        assert set(search.bridges) == reference_bridges(h), (g, removed)
        met[min(len(parts), 3)] += 1
        if len(parts) != 1 or len(searched) < 3:
            continue
        pool = sorted(searched)
        added = list({
            edge(*rng.sample(pool, 2)) for _ in range(rng.randrange(1, 4))
        } - set(h.edges()))
        kept = search.uncrossed(added)
        assert set(kept) == reference_bridges(h.delete_vertices((), added)), (
            g, removed, added,
        )
        met["crossed" if len(kept) < len(search.bridges) else "kept"] += 1
    assert met[0] and met[1] > 100 and met[2] > 20 and met[3] > 20, met
    assert met["crossed"] > 50 and met["kept"] > 50, met


def test_low_link_rejects_a_start_it_cannot_search():
    g = path_graph(4)
    with pytest.raises(ValueError, match="start 1 is not a vertex left"):
        g.low_link((0, 1), removed={1})
    with pytest.raises(ValueError, match="start 7 is not a vertex left"):
        g.low_link((0, 7))


class _CountingTable(dict):
    """An adjacency table that counts the vertices looked up in it."""

    looked_up = 0

    def __getitem__(self, v):
        self.looked_up += 1
        return super().__getitem__(v)


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
        ((9, 1, 5), [(1, 1)], "vertices [5, 9] are not in the graph"),
    ],
    ids=["loop", "dropped_end", "absent_end", "present", "added_twice", "unknown"],
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


def _floor_notes(graphs):
    """Each graph's note in one ``run_floor_search``, which must find
    nothing: ``odd_semi_clique`` on a graph that floor(n/2) paths cannot
    decompose."""
    report = run_floor_search([(str(i), g) for i, g in enumerate(graphs)])
    assert report.ok, report.findings
    return [record.note for record in report.records]


def test_is_odd_semi_clique_examples():
    graphs = [
        complete_graph(5),
        delete_edges(complete_graph(5), [(0, 1)]),
        delete_edges(complete_graph(5), [(0, 1), (2, 3)]),
        complete_graph(4),
    ]
    notes = _floor_notes(graphs)
    assert notes == ["odd_semi_clique", "odd_semi_clique", "", ""]


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
        graphs = enumerate_connected(n, n - 1)
        for g, note in zip(graphs, _floor_notes(graphs)):
            assert (note == "odd_semi_clique") == (canonical_form(g) in family)


def test_common_neighbors():
    assert complete_graph(3).common_neighbors(0, 1) == (2,)
    assert cycle(4).common_neighbors(0, 2) == (1, 3)
    assert len(complete_graph(5).common_neighbors(0, 1)) == 3


def test_graph_is_immutable():
    g = cycle(4)
    with pytest.raises(AttributeError, match="Graph is immutable"):
        g.n = 5


def test_a_child_view_refuses_the_vertices_of_its_removed_set():
    # A reduction's child is a view of its parent's table minus S, which
    # answers for a vertex of S as for any id outside the graph.
    (child,) = reduce(cycle(5), C1(0)).children
    assert list(child.graph.vertices()) == [1, 2, 3, 4]
    assert 0 not in child.graph.adjacency()
    with pytest.raises(ValueError, match="vertex 0 is not in the graph"):
        child.graph.neighbors(0)


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
    comps = ref.components()
    assert comps == sorted(tuple(sorted(c)) for c in nx.connected_components(nxg))
    assert all(g.joins(comp) for comp in comps)
    assert g.joins([comp[0] for comp in comps]) == (len(comps) == 1)
    assert g.bridges() == ref.bridges() == {edge(*e) for e in nx.bridges(nxg)}
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
