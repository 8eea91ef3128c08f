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
    _canonical_masks,
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
    # Subsets in one orbit of the parent's automorphisms are skipped, and a
    # child is labelled at most once: each of the 839 classes of n = 2..7
    # once, where the deletion test keeps it, and the 51 children that tie
    # x with a rival and that the test rejects, once each to decide.  A
    # child whose x has no rival and loses on invariants costs none.
    labelled = []
    label = gallai.census._canonical_masks

    def counted(masks, *candidates):
        labelled.append(len(masks))
        return label(masks, *candidates)

    monkeypatch.setattr(gallai.census, "_census_cache", {})
    monkeypatch.setattr(gallai.census, "_canonical_masks", counted)
    classes = sum(len(enumerate_connected(n, 5)) for n in range(2, 8))
    assert classes == 839
    assert len(labelled) == classes + 51 == 890


def test_enumeration_builds_one_graph_per_class(monkeypatch):
    # Each kept class is labelled on its masks and built once, by either
    # constructor; no graph is read back from its graph6 form.
    built = []
    parsed = []
    parse = gallai.io.parse_graph6
    from_masks = gallai.census._from_masks

    def counted_graph(n, masks):
        built.append(n)
        return Graph(n, masks)

    def counted_from_masks(masks):
        built.append(len(masks))
        return from_masks(masks)

    def counted_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(gallai.census, "_census_cache", {})
    monkeypatch.setattr(gallai.census, "Graph", counted_graph)
    monkeypatch.setattr(gallai.census, "_from_masks", counted_from_masks)
    monkeypatch.setattr(gallai.census, "parse_graph6", counted_parse, raising=False)
    monkeypatch.setattr(gallai.io, "parse_graph6", counted_parse)
    classes = sum(len(enumerate_connected(n, 5)) for n in range(1, 8))
    assert len(built) == classes == 840
    assert parsed == []


def test_enumerated_graphs_equal_their_checked_builds():
    # The census builds its class graphs without the checked constructor's
    # range, self-loop and symmetry checks; each one passes them and is
    # the graph that the checked constructor builds from its masks.
    for n in range(1, 9):
        for g in enumerate_connected(n, 5):
            checked = Graph(n, [g.neighbor_mask(v) for v in range(n)])
            assert checked == g and checked.m == g.m and checked.n == g.n


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


def test_least_prefixes_find_the_least_string_and_the_orbits():
    # Every census graph with n <= 6, labelled with each vertex first in
    # turn and the others in a random order: every order that
    # `_least_prefixes` keeps to the end must spell the brute-force least
    # string, and the orbit that the deletion rule reads off those orders
    # must be the orbit: for candidates that are one orbit, that orbit; for
    # two vertices, both exactly when they share an orbit; and for all
    # vertices, the orbit of the one in the last slot.
    rng = random.Random(23)
    for n in range(1, 7):
        for g in enumerate_connected(n, 5):
            brute = min(
                columns(relabeled(g, perm))
                for perm in itertools.permutations(range(n))
            )
            g_orbits = _orbits(g)
            for first in range(n):
                rest = [u for u in range(n) if u != first]
                rng.shuffle(rest)
                order = (first, *rest)
                h = relabeled(g, order)
                masks = [h.neighbor_mask(v) for v in range(n)]
                cols, orders, _ = _least_prefixes(masks)
                assert cols == brute
                assert orders
                for kept in orders:
                    assert sorted(kept) == list(range(n))
                    assert columns(relabeled(h, kept)) == brute
                orbits = {
                    frozenset(order.index(v) for v in orbit) for orbit in g_orbits
                }
                orbit_of = {v: orbit for orbit in orbits for v in orbit}
                for orbit in orbits:
                    mask = sum(1 << v for v in orbit)
                    assert _canonical_masks(masks, mask)[2] == mask
                for a, b in itertools.combinations(range(n), 2):
                    read = _canonical_masks(masks, 1 << a | 1 << b)[2]
                    both = read >> a & 1 and read >> b & 1
                    assert bool(both) == (b in orbit_of[a])
                last = orbit_of[orders[0][-1]]
                read = _canonical_masks(masks, (1 << n) - 1)[2]
                assert read == sum(1 << v for v in last)


def test_tie_labelling_decides_as_the_full_comparison(monkeypatch):
    # Every tie for the canonical deletion met while enumerating n <= 7 is
    # decided by one labelling of the child; the orbit it reads must be the
    # set of candidates at the latest candidate slot over every order that
    # spells the least string, found by comparing every order.
    cases = []
    labelling = gallai.census._canonical_masks

    def recorded(masks, candidates=0):
        found = labelling(masks, candidates)
        if candidates & (candidates - 1):
            cases.append((list(masks), candidates, found))
        return found

    monkeypatch.setattr(gallai.census, "_census_cache", {})
    monkeypatch.setattr(gallai.census, "_canonical_masks", recorded)
    for n in range(2, 8):
        enumerate_connected(n, 5)
    kept = {deletion >> len(masks) - 1 & 1 for masks, _, (_, _, deletion) in cases}
    assert kept == {0, 1}
    for masks, candidates, (cols, _, deletion) in cases:
        least, orders = _least_orders(masks)
        assert cols == least
        expected = 0
        for order in orders:
            slot = max(k for k, v in enumerate(order) if candidates >> v & 1)
            expected |= 1 << order[slot]
        assert deletion == expected


def _least_orders(masks):
    """The least string's columns over every vertex order of the graph with
    adjacency ``masks``, and every order that spells it: a depth-first walk
    over all orders that drops a prefix once its columns exceed the least
    string's so far."""
    n = len(masks)
    least, orders = None, []

    def extend(order, cols, used):
        nonlocal least, orders
        k = len(order)
        if k == n:
            if least is None or cols < least:
                least, orders = cols, []
            orders.append(tuple(order))
            return
        for v in range(n):
            if used >> v & 1:
                continue
            col = sum(
                1 << k - 1 - j for j, u in enumerate(order) if masks[v] >> u & 1
            )
            grown = (*cols, col)
            if least is None or grown <= least[:k + 1]:
                extend([*order, v], grown, used | 1 << v)

    extend([], (), 0)
    return least, orders


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


def test_canonical_form_is_the_permutation_minimum_off_the_census():
    # Graphs the enumerator never labels: no vertex, K1, edgeless, complete
    # and disconnected graphs, then every labelled graph with 1 <= n <= 5,
    # each against the least columns over all its relabellings.
    named = [
        Graph(0, []),
        Graph(1, [0]),
        Graph.from_edges(5, []),
        complete_graph(6),
        Graph.from_edges(6, [(0, 4), (4, 2), (2, 0), (1, 5)]),
    ]
    for g in named:
        least = min(
            columns(relabeled(g, perm)) for perm in itertools.permutations(range(g.n))
        )
        assert columns(canonical_graph(g)) == least
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        least = {}
        labelled = 0
        for g in all_labeled_graphs(n):
            labelled += 1
            edges = frozenset(g.edges())
            if edges not in least:
                # the relabellings of g, whose least columns are g's too
                images = {
                    frozenset(h.edges()): h for h in (relabeled(g, p) for p in perms)
                }
                low = min(columns(h) for h in images.values())
                least.update(dict.fromkeys(images, low))
            masks = [g.neighbor_mask(v) for v in range(n)]
            assert _canonical_masks(masks)[0] == least[edges]
            assert columns(canonical_graph(g)) == least[edges]
        assert labelled == 2 ** (n * (n - 1) // 2)


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
