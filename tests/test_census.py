import hashlib
import itertools
import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

import gallai.census
import gallai.io
from gallai import Graph, canonical_form, enumerate_connected, write_graph6
from gallai.census import (
    _automorphisms,
    _below,
    _image_tables,
    _is_canonical_deletion,
    _least_prefixes,
    canonical_graph,
)
from helpers import (
    all_labeled_graphs,
    columns,
    complete_graph,
    cycle,
    path_graph,
    petersen,
    reference_enumerate,
    relabeled,
)

# Published counts of connected graphs up to isomorphism.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# SHA-256 over the graph6 line of every graph with n <= 8 and max degree
# <= 5, in enumeration order: the census's canonical ids and their order,
# as the enumerator that labelled every child produced them.
CENSUS_GRAPH6_DIGEST = (
    "49a529ed8755b1f9fc84b871c05184bdc50d8baa79d8f2e28272760f6e0c1461"
)


def test_tiny_census_examples():
    assert len(enumerate_connected(3, 5)) == 2  # P3 and K3
    assert len(enumerate_connected(4, 5)) == 6
    assert len(enumerate_connected(4, 2)) == 2  # P4 and C4


@pytest.mark.parametrize("n", sorted(CONNECTED_COUNTS))
def test_census_counts_match_published_values(n):
    assert len(enumerate_connected(n, max(1, n - 1))) == CONNECTED_COUNTS[n]


def test_census_against_labeled_enumeration():
    # Independent oracle: canonicalize every labeled connected graph and
    # count distinct forms.
    for n in range(1, 6):
        labeled = {
            canonical_form(g)
            for g in all_labeled_graphs(n)
            if g.is_connected()
        }
        ours = {canonical_form(g) for g in enumerate_connected(n, n)}
        assert ours == labeled


def test_census_respects_degree_cap():
    for g in enumerate_connected(7, 5):
        assert g.max_degree() <= 5
        assert g.is_connected()


def test_census_is_deterministic_and_canonical():
    first = enumerate_connected(5, 5)
    again = enumerate_connected(5, 5)
    assert first == again
    forms = [canonical_form(g) for g in first]
    assert forms == sorted(forms)
    assert all(canonical_graph(g) == g for g in first)


def test_enumeration_limit():
    with pytest.raises(ValueError):
        enumerate_connected(9, 5)
    with pytest.raises(ValueError):
        enumerate_connected(0, 5)


def test_enumeration_refuses_a_negative_degree_cap():
    # K1's degree 0 exceeds a cap of -1, so there is no graph to return.
    for n in (1, 3):
        with pytest.raises(ValueError, match="degree"):
            enumerate_connected(n, -1)


def test_enumeration_matches_the_naive_reference():
    for n in range(1, 8):
        for cap in sorted({3, 5, n - 1}):
            assert enumerate_connected(n, cap) == reference_enumerate(n, cap)


def test_census_graph6_digest():
    digest = hashlib.sha256()
    for n in range(1, 9):
        for g in enumerate_connected(n, 5):
            digest.update(write_graph6(g).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == CENSUS_GRAPH6_DIGEST


def test_enumeration_labels_each_class_once(monkeypatch):
    # Subsets in one orbit of the parent's automorphisms are skipped, so a
    # cold enumeration labels exactly one child per class of n = 2..7.
    labelled = []
    label = gallai.census._canonical_masks

    def counted(masks):
        labelled.append(len(masks))
        return label(masks)

    monkeypatch.setattr(gallai.census, "_census_cache", {})
    monkeypatch.setattr(gallai.census, "_canonical_masks", counted)
    classes = sum(len(enumerate_connected(n, 5)) for n in range(2, 8))
    assert len(labelled) == classes == 839


def test_enumeration_builds_one_graph_per_class(monkeypatch):
    # Each kept class is labelled on its masks and built once; no graph is
    # read back from its graph6 form.
    built = []
    parsed = []
    parse = gallai.io.parse_graph6

    def counted_graph(n, masks):
        built.append(n)
        return Graph(n, masks)

    def counted_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(gallai.census, "_census_cache", {})
    monkeypatch.setattr(gallai.census, "Graph", counted_graph)
    monkeypatch.setattr(gallai.census, "parse_graph6", counted_parse, raising=False)
    monkeypatch.setattr(gallai.io, "parse_graph6", counted_parse)
    classes = sum(len(enumerate_connected(n, 5)) for n in range(1, 8))
    assert len(built) == classes == 840
    assert parsed == []


def test_orbit_tables_match_the_image_masks():
    # The enumerator skips a subset when some automorphism's two table
    # lookups give a smaller mask; that must be the image mask itself.
    for p in range(1, 8):
        half = p // 2
        low_mask = (1 << half) - 1
        for parent in enumerate_connected(p, 5):
            masks = [parent.neighbor_mask(v) for v in range(p)]
            images = _automorphisms(masks)[1:]
            tables = [_image_tables(image, half) for image in images]
            for subset in range(1 << p):
                direct = [
                    sum(1 << image[v] for v in range(p) if subset >> v & 1)
                    for image in images
                ]
                looked_up = [
                    lo[subset & low_mask] | hi[subset >> half] for lo, hi in tables
                ]
                assert looked_up == direct
                assert (any(image < subset for image in looked_up)
                        == any(image < subset for image in direct))


def test_bounded_tie_search_decides_as_the_full_comparison(monkeypatch):
    # Every tie met while enumerating n <= 7 is decided by a search bounded
    # by x's least string; it must agree with comparing the full strings.
    cases = []

    def recorded(masks, v, bound):
        below = _below(masks, v, bound)
        cases.append((masks, v, bound, below))
        return below

    monkeypatch.setattr(gallai.census, "_census_cache", {})
    monkeypatch.setattr(gallai.census, "_below", recorded)
    for n in range(2, 8):
        enumerate_connected(n, 5)
    assert {below for *_, below in cases} == {False, True}
    for masks, v, bound, below in cases:
        x = len(masks) - 1
        assert bound == _least_search(masks, x)[0]
        assert below == (not bound <= _least_search(masks, v)[0])


def _least_search(masks, first=None):
    """The columns ``_least_prefixes`` yields, and the vertex orders of the
    states it leaves at the end."""
    cols, states = [], [(None, [])]
    for low, states in _least_prefixes(masks, first):
        cols.append(low)
    orders = []
    for chain, _ in states:
        order = []
        while chain is not None:
            v, chain = chain
            order.append(v)
        orders.append(tuple(reversed(order)))
    return tuple(cols), orders


def test_canonical_labelling_takes_any_vertex_ids():
    # A derived graph keeps its parent's ids: P4 minus vertex 0 is P3 on
    # the ids 1, 2, 3.
    p3 = path_graph(4).delete_vertices([0])
    assert canonical_form(p3) == canonical_form(path_graph(3)) == "BW"
    assert canonical_graph(p3) == Graph.from_edges(3, [(0, 2), (1, 2)])
    rng = random.Random(17)
    for n in range(1, 7):
        for g in enumerate_connected(n, 5):
            ids = rng.sample(range(3 * n), n)
            spread = Graph.from_edges(3 * n, [(ids[u], ids[v]) for u, v in g.edges()])
            h = spread.delete_vertices(set(range(3 * n)) - set(ids))
            assert canonical_form(h) == write_graph6(g)
            assert canonical_graph(h) == g


def test_automorphisms_match_networkx():
    for n in range(1, 7):
        for g in enumerate_connected(n, 5):
            found = _automorphisms([g.neighbor_mask(v) for v in range(n)])
            assert found[0] == tuple(range(n))
            expected = {
                tuple(iso[v] for v in range(n)) for iso in _self_isomorphisms(g)
            }
            assert len(found) == len(set(found)) and set(found) == expected


def test_first_vertex_search_finds_the_least_string_and_the_orbits():
    # With `first`, the search must yield the least string over the orders
    # that start with that vertex, and every order it keeps to the end must
    # start with it and spell that string; two vertices get equal strings
    # exactly when an automorphism maps one to the other.
    for n in range(1, 7):
        for g in enumerate_connected(n, 5):
            masks = [g.neighbor_mask(v) for v in range(n)]
            strings = {}
            for v in range(n):
                rest = [u for u in range(n) if u != v]
                brute = min(
                    columns(relabeled(g, (v, *perm)))
                    for perm in itertools.permutations(rest)
                )
                strings[v], orders = _least_search(masks, v)
                assert strings[v] == brute
                assert orders
                for order in orders:
                    assert order[0] == v
                    assert columns(relabeled(g, order)) == brute
            orbit_of = {v: orbit for orbit in _orbits(g) for v in orbit}
            for a, b in itertools.product(range(n), repeat=2):
                assert (strings[a] == strings[b]) == (b in orbit_of[a])


def _self_isomorphisms(g):
    nx_graph = nx.Graph(list(g.edges()))
    nx_graph.add_nodes_from(range(g.n))
    return GraphMatcher(nx_graph, nx_graph).isomorphisms_iter()


def _orbits(g):
    orbit = {v: {v} for v in range(g.n)}
    for iso in _self_isomorphisms(g):
        for a, b in iso.items():
            orbit[a].add(b)
    return {frozenset(members) for members in orbit.values()}


def test_canonical_deletion_is_one_orbit_whatever_the_labels():
    # Put each vertex last in turn, the others in a random order: the
    # deletion test must accept exactly the vertices of one orbit, the same
    # one under every labelling, so each graph has exactly one parent.
    rng = random.Random(11)
    graphs = [g for n in range(2, 7) for g in enumerate_connected(n, 5)]
    graphs += list(enumerate_connected(7, 5))[::7]
    for g in graphs:
        accepted = set()
        for v in range(g.n):
            for _ in range(2):
                rest = [u for u in range(g.n) if u != v]
                rng.shuffle(rest)
                child = relabeled(g, (*rest, v))
                masks = [child.neighbor_mask(u) for u in range(g.n)]
                if child.delete_vertices([g.n - 1]).is_connected():
                    if _is_canonical_deletion(masks):
                        accepted.add(v)
        assert frozenset(accepted) in _orbits(g)


def test_canonical_form_is_the_true_permutation_minimum():
    # Brute force over every permutation; the slot-by-slot search must agree.
    def brute_minimum(g):
        return min(
            write_graph6(relabeled(g, perm))
            for perm in itertools.permutations(range(g.n))
        )

    for n in range(2, 6):
        for g in enumerate_connected(n, n):
            assert canonical_form(g) == brute_minimum(g)
    for g in list(enumerate_connected(6, 5))[::9]:
        assert canonical_form(g) == brute_minimum(g)


def test_canonical_form_is_labelling_invariant():
    rng = random.Random(5)
    samples = [petersen(), complete_graph(5), cycle(6), path_graph(7)]
    samples += list(enumerate_connected(6, 5))[::11]
    for g in samples:
        base = canonical_form(g)
        for _ in range(5):
            order = list(range(g.n))
            rng.shuffle(order)
            assert canonical_form(relabeled(g, tuple(order))) == base


def test_canonical_form_separates_nonisomorphic():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p4 = path_graph(4)
    assert canonical_form(star) != canonical_form(p4)
    # cross-check with networkx on a census slice
    graphs = list(enumerate_connected(5, 5))
    for i, a in enumerate(graphs):
        for b in graphs[i + 1:]:
            ga = nx.Graph(list(a.edges()))
            gb = nx.Graph(list(b.edges()))
            ga.add_nodes_from(range(a.n))
            gb.add_nodes_from(range(b.n))
            assert not nx.is_isomorphic(ga, gb)
