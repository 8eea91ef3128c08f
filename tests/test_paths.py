import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gallai import Graph, Path, PathDecomposition, verify
from gallai.paths import PathStore, decomposition, lower_bound, path
from helpers import (
    complete_graph,
    cycle,
    path_graph,
    petersen,
    reference_verify,
    star,
)


def test_path_invariants():
    with pytest.raises(ValueError):
        Path((3,))
    # a walk with a repeated vertex constructs, but never verifies
    assert not verify(cycle(4), decomposition((0, 1, 2, 3, 0))).valid
    assert path(2, 0, 1).canonical().vertices == (1, 0, 2)


def test_verify_examples():
    good = verify(cycle(4), decomposition((0, 1, 2), (2, 3, 0)))
    assert good.valid and good.good and good.path_count == 2

    closed = verify(cycle(4), decomposition((0, 1, 2, 3, 0)))
    assert not closed.valid
    assert any(v.kind == "repeated_vertex" for v in closed.violations)

    partial = verify(complete_graph(3), decomposition((0, 1, 2)))
    assert not partial.valid
    assert any(v.kind == "uncovered_edge" for v in partial.violations)


def test_verify_reports_everything():
    report = verify(
        cycle(4), decomposition((0, 1, 2), (0, 1), (0, 2))
    )
    kinds = {v.kind for v in report.violations}
    assert "duplicate_edge" in kinds
    assert "non_edge" in kinds
    assert "uncovered_edge" in kinds
    out_of_range = verify(path_graph(2), decomposition((0, 7)))
    assert any(v.kind == "non_edge" for v in out_of_range.violations)


def test_valid_decomposition_covers_all_edges_once():
    d = decomposition((0, 1, 2), (2, 3, 0))
    report = verify(cycle(4), d)
    assert report.valid
    covered = [e for p in d.paths for e in p.edges()]
    assert sorted(covered) == sorted(cycle(4).edges())


def test_goodness_threshold():
    # 3 paths are good for K5 (ceil(5/2) = 3), 4 are not.
    k5 = complete_graph(5)
    three = decomposition((0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (4, 0, 3))
    assert verify(k5, three).good
    four = decomposition((0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (4, 0), (0, 3))
    report = verify(k5, four)
    assert report.valid and not report.good


def test_lower_bound():
    assert lower_bound(petersen()) == 5
    assert lower_bound(complete_graph(5)) == 3
    assert lower_bound(path_graph(6)) == 1
    assert lower_bound(star(4)) == 2
    with pytest.raises(ValueError):
        lower_bound(Graph(3, [0, 0, 0]))


# -- property tests over random graphs and decompositions ------------------


def _random_graph(rng: random.Random, n: int) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    count = rng.randrange(1, len(pairs) + 1)
    return Graph.from_edges(n, rng.sample(pairs, count))


def _random_decomposition(rng: random.Random, g: Graph) -> PathDecomposition:
    """A valid decomposition built by peeling random paths."""
    uncovered = set(g.edges())
    paths = []
    while uncovered:
        a, b = rng.choice(sorted(uncovered))
        seq = [a, b]
        uncovered.discard((a, b))
        while rng.random() < 0.7:
            tail = seq[-1]
            options = [
                w
                for w in g.neighbors(tail)
                if w not in seq
                and (min(tail, w), max(tail, w)) in uncovered
            ]
            if not options:
                break
            w = rng.choice(options)
            uncovered.discard((min(tail, w), max(tail, w)))
            seq.append(w)
        paths.append(Path(tuple(seq)))
    return PathDecomposition(tuple(paths))


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 10), st.randoms(use_true_random=False))
def test_random_decompositions_verify(n, rng):
    g = _random_graph(rng, n)
    d = _random_decomposition(rng, g)
    report = verify(g, d)
    assert report.valid
    assert sum(len(p) - 1 for p in d.paths) == g.m


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 10), st.randoms(use_true_random=False))
def test_editing_moves_preserve_validity(n, rng):
    g = _random_graph(rng, n)
    d = _random_decomposition(rng, g)

    # moving one edge out to a fresh single-edge path keeps validity
    p = rng.choice(list(d.paths))
    if len(p) >= 3:
        head = Path(p.vertices[:2])
        rest = Path(p.vertices[1:])
        reshaped = PathDecomposition(
            tuple(q for q in d.paths if q != p) + (rest, head)
        )
        assert verify(g, reshaped).valid


# -- verify against the straightforward reference ------------------------------


def _corrupted(
    rng: random.Random, g: Graph, d: PathDecomposition, outside: list[int]
) -> PathDecomposition:
    """``d`` with a few random faults: repeated vertices, steps to ids not
    in ``g``, non-edges, edges covered twice, and paths dropped."""
    paths = [list(p.vertices) for p in d.paths]
    ids = sorted(g.vertices())
    for _ in range(rng.randrange(0, 4)):
        fault = rng.randrange(5)
        if fault == 0 and paths:
            p = rng.choice(paths)
            p.insert(rng.randrange(len(p) + 1), rng.choice(p))
        elif fault == 1 and paths:
            p = rng.choice(paths)
            p.insert(rng.randrange(len(p) + 1), rng.choice(outside))
        elif fault == 2 and len(ids) >= 2:
            paths.append(rng.sample(ids, 2))
        elif fault == 3 and paths:
            p = rng.choice(paths)
            at = rng.randrange(len(p) - 1)
            paths.append(p[at : at + rng.randrange(2, 4)][::-1])
        elif fault == 4 and paths:
            paths.pop(rng.randrange(len(paths)))
    return PathDecomposition(tuple(Path(tuple(p)) for p in paths if len(p) >= 2))


def test_verify_matches_the_reference_on_corrupted_decompositions():
    rng = random.Random(4242)
    kinds: set[str] = set()
    derived = outside_steps = valid = 0
    for _ in range(1500):
        g = _random_graph(rng, rng.randrange(2, 11))
        if rng.random() < 0.4 and g.n > 3:
            drop = rng.sample(sorted(g.vertices()), rng.randrange(1, 3))
            g = g.delete_vertices(drop)
            derived += 1
        top = max(g.vertices())
        gaps = [v for v in range(top) if v not in g.vertices()]
        outside = [-3, -1, top + 1, top + 9] + gaps
        d = _corrupted(rng, g, _random_decomposition(rng, g), outside)
        report = verify(g, d)
        expected = reference_verify(g, d)
        assert report.violations == expected.violations
        assert report.path_count == expected.path_count
        assert report.good == expected.good
        kinds |= {v.kind for v in report.violations}
        valid += report.valid
        if any(v not in g.vertices() for p in d.paths for v in p.vertices):
            outside_steps += 1
    assert kinds == {"repeated_vertex", "non_edge", "duplicate_edge", "uncovered_edge"}
    assert derived > 100 and outside_steps > 100 and valid > 100


# -- the path store -------------------------------------------------------------


@pytest.mark.parametrize(
    "paths, message",
    [
        (((0, 1, 2, 0),), "repeats a vertex"),
        (((0, 1, 2), (2, 1)), r"edge \(1, 2\) is already covered"),
        (((0, 1), (1, 3)), r"\(1, 3\) is not an edge"),
        (((0, 1, 2),), "paths cover 2 of 3 edges"),
    ],
    ids=["repeated_vertex", "covered_twice", "non_edge", "edge_missing"],
)
def test_path_store_load_refuses_what_is_not_a_decomposition(paths, message):
    with pytest.raises(ValueError, match=message):
        PathStore.load(complete_graph(3), decomposition(*paths))


def test_path_store_edits_keep_ids_order_and_index():
    g = cycle(6)
    store = PathStore.load(g, decomposition((0, 1, 2), (3, 2), (3, 4, 5, 0)))
    first, second, third = store.paths
    assert first < second < third
    # the first path with an end at 3 is the second path, not the third
    assert store.first_ending_at(3) == second
    assert store.first_ending_at(1) is None
    store.replace(first, (2, 1, 0))  # in place, reversed
    assert list(store.paths) == [first, second, third]
    with pytest.raises(ValueError, match="repeats a vertex"):
        store.replace(first, (2, 1, 0, 5, 4, 3, 2))
    assert store.take(second) == (3, 2)
    appended = store.append((2, 3))
    assert list(store.paths) == [first, third, appended]
    assert store.holder((2, 3)) == appended
    assert store.owner == {
        e: pid for pid, vs in store.paths.items() for e in Path(vs).edges()
    }
    assert verify(g, store.decomposition()).valid
    with pytest.raises(ValueError, match="on no path"):
        store.holder((0, 3))


def test_path_store_merges_only_a_newer_store():
    older = PathStore.load(path_graph(2), decomposition((0, 1)))
    newer = PathStore.load(Graph.from_edges(4, [(2, 3)]), decomposition((2, 3)))
    with pytest.raises(ValueError, match="newer store"):
        newer.merge(older)
    older.merge(newer)
    assert list(older.paths.values()) == [(0, 1), (2, 3)]
    assert older.holder((2, 3)) == list(older.paths)[1]
