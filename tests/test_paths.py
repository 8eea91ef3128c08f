import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gallai import (
    Graph,
    Path,
    PathDecomposition,
    add_path,
    decomposition,
    extend,
    is_good,
    lower_bound,
    path,
    replace_subpath,
    split_at,
    verify,
)
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


def test_is_good():
    assert is_good(complete_graph(3), decomposition((0, 1, 2), (0, 2)))
    k5_three = decomposition((0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (4, 0, 3))
    assert is_good(complete_graph(5), k5_three)
    assert is_good(path_graph(2), decomposition((0, 1)))
    with pytest.raises(ValueError):
        is_good(complete_graph(3), decomposition((0, 1)))


def test_goodness_threshold():
    # 3 paths are good for K5 (ceil(5/2) = 3), 4 are not.
    k5 = complete_graph(5)
    three = decomposition((0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (4, 0, 3))
    assert verify(k5, three).good
    four = decomposition((0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (4, 0), (0, 3))
    report = verify(k5, four)
    assert report.valid and not report.good


def test_replace_subpath():
    d = decomposition((1, 3), (0, 1), (0, 3))
    d2 = replace_subpath(d, path(1, 3), path(1, 3), path(1, 0, 3))
    assert path(1, 0, 3) in d2.paths
    d = decomposition((5, 4, 6))
    d2 = replace_subpath(d, path(5, 4, 6), path(4, 6), path(4, 7, 6))
    assert d2.paths == (path(5, 4, 7, 6),)
    with pytest.raises(ValueError):
        replace_subpath(d, path(5, 4, 6), path(4, 6), path(4, 8, 5))
    with pytest.raises(ValueError):
        # reinserting a vertex already on the host is not simple
        replace_subpath(d, path(5, 4, 6), path(4, 6), path(4, 5, 6))


def test_extend():
    d = decomposition((9, 1), (3, 4))
    d2 = extend(d, path(9, 1), path(1, 2))
    assert path(9, 1, 2) in d2.paths
    d3 = extend(d2, path(9, 1, 2), path(5, 9))
    assert path(5, 9, 1, 2) in d3.paths or path(2, 1, 9, 5) in d3.paths
    with pytest.raises(ValueError):
        extend(d, path(9, 1), path(2, 3))
    with pytest.raises(ValueError):
        extend(d, path(9, 1), path(1, 9))


def test_split_at():
    d = decomposition((0, 1, 2))
    parts = split_at(d, path(0, 1, 2), 1)
    assert set(parts.paths) == {path(0, 1), path(1, 2)}
    d = decomposition((0, 1, 2, 3))
    parts = split_at(d, path(0, 1, 2, 3), 1)
    assert set(parts.paths) == {path(0, 1), path(1, 2, 3)}
    unchanged = split_at(d, path(0, 1, 2, 3), 0)
    assert unchanged.paths == (path(0, 1, 2, 3),)
    with pytest.raises(ValueError):
        split_at(d, path(0, 1, 2, 3), 9)


def test_add_path():
    d = add_path(PathDecomposition(()), path(0, 1))
    assert len(d) == 1
    with pytest.raises(ValueError):
        add_path(d, path(1, 0))


def test_add_path_finds_a_clash_in_a_later_path():
    d = decomposition((0, 1), (2, 3), (6, 7), (3, 4, 5))
    with pytest.raises(ValueError, match=r"\(4, 5\)"):
        add_path(d, path(8, 5, 4))


def test_add_path_allows_sharing_vertices_without_sharing_edges():
    d = decomposition((0, 1, 2), (3, 4))
    # r meets the first path at both of its ends and the second at one,
    # but none of its edges is on either.
    grown = add_path(d, path(0, 2, 4))
    assert grown.paths[-1] == path(0, 2, 4)
    assert verify(
        Graph.from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 2), (2, 4)]), grown
    ).valid


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
    before = len(d)

    # split at an interior vertex, where one exists
    long_paths = [p for p in d.paths if len(p) >= 3]
    if long_paths:
        p = rng.choice(long_paths)
        at = p.vertices[rng.randrange(1, len(p) - 1)]
        split = split_at(d, p, at)
        assert verify(g, split).valid
        assert len(split) == before + 1

    # splitting at an endpoint never changes anything
    p = rng.choice(list(d.paths))
    same = split_at(d, p, p.vertices[0])
    assert verify(g, same).valid
    assert len(same) == before

    # moving one edge out to a fresh single-edge path keeps validity
    p = rng.choice(list(d.paths))
    if len(p) >= 3:
        head = Path(p.vertices[:2])
        rest = Path(p.vertices[1:])
        reshaped = PathDecomposition(
            tuple(q for q in d.paths if q != p) + (rest, head)
        )
        assert verify(g, reshaped).valid

    # replacing a subpath with itself is the identity
    p = rng.choice(list(d.paths))
    q = Path(p.vertices[:2])
    assert verify(g, replace_subpath(d, p, q, q)).valid

    # removing a path and adding it back restores a valid decomposition
    p = rng.choice(list(d.paths))
    without = PathDecomposition(tuple(q for q in d.paths if q != p))
    assert verify(g, add_path(without, p)).valid

    # splitting, withdrawing one side, and extending with it round-trips
    long_paths = [p for p in d.paths if len(p) >= 3]
    if long_paths:
        p = long_paths[0]
        at = p.vertices[1]
        pieces = split_at(d, p, at)
        left = Path(p.vertices[:2])
        right = Path(p.vertices[1:])
        withdrawn = PathDecomposition(
            tuple(q for q in pieces.paths if q != right)
        )
        rejoined = extend(withdrawn, left, right)
        assert verify(g, rejoined).valid
        assert len(rejoined) == len(d)


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
