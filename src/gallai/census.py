"""Small-graph enumeration by canonical augmentation.

The canonical form of a graph is the lexicographically smallest upper
triangle bit-string (column-major, the graph6 bit order) over all vertex
relabellings.  The minimum is found by branch and bound rather than by
trying all n! permutations outright, but the value is exactly that minimum,
so the canonical string doubles as a stable graph id.

The enumerator grows connected graphs one vertex at a time by canonical
augmentation (McKay, "Isomorph-free exhaustive generation", J. Algorithms
26, 1998).  A child C of a canonical parent P is P plus a new vertex x
joined to some of P's vertices, and it is kept only if x is C's canonical
deletion: among the vertices whose removal leaves C connected, x has the
largest invariant (degree, then sorted neighbour degrees), and among the
vertices tied with it, the least first-vertex string, the smallest
bit-string over the orders that put that vertex first.  Equal first-vertex
strings mean the same automorphism orbit, so the rule does not depend on
labels, and every isomorphism class arises from exactly one parent.

A subset is skipped before the deletion test when an automorphism of P
maps it to a smaller mask.  If two kept children of P are isomorphic, some
isomorphism between them fixes x (x lies in the canonical deletion's orbit
of both) and restricts to an automorphism of P carrying one subset onto
the other; so each class is labelled canonically exactly once.  The
labelling search keeps its candidates as cells, one vertex mask per column
in column order: placing v splits each cell into its non-neighbours of v,
then its neighbours, so the first cell holds the least column.  The
enumerator is capped at 8 vertices; larger orders are expected to arrive
as graph6 streams from an external generator.
"""

from __future__ import annotations

from .graphs import Graph
from .io import parse_graph6, write_graph6

ENUMERATION_LIMIT = 8

_census_cache: dict[tuple[int, int], tuple[Graph, ...]] = {}


def relabeled(g: Graph, order: tuple[int, ...]) -> Graph:
    """Graph with old vertex ``order[i]`` renamed to ``i``."""
    position = {old: new for new, old in enumerate(order)}
    masks = [0] * g.n
    for old_u, new_u in position.items():
        for old_v in g.neighbors(old_u):
            masks[new_u] |= 1 << position[old_v]
    return Graph(g.n, masks)


def canonical_order(g: Graph, first: int | None = None) -> tuple[int, ...]:
    """Relabelling order achieving the minimal adjacency bit-string; with
    ``first``, the minimum over the orders that put ``first`` in slot 0."""
    return _least_labelling([g.neighbor_mask(v) for v in range(g.n)], first)[1]


def _least_labelling(
    adj: list[int], first: int | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The minimal bit-string of the graph with neighbour masks ``adj``,
    as its columns (see ``descend``), and an order achieving it; with
    ``first``, the minimum over the orders that start with ``first``."""
    n = len(adj)
    if n <= 1:
        return (0,) * n, tuple(range(n))
    best_cols: list[int] | None = None
    best_order: list[int] | None = None

    # cols[k] holds the k adjacency bits of the vertex placed at slot k
    # towards slots 0..k-1 (earlier slot = more significant bit).  The
    # candidates travel as (vertex mask, column) cells in column order; only
    # the first cell's can extend a minimal string, so levels where it holds
    # one vertex are walked iteratively and recursion only happens on ties.
    def split(cells: list[tuple[int, int]], v: int) -> list[tuple[int, int]]:
        on_mask = adj[v]
        off_mask = ~(on_mask | 1 << v)
        out = []
        for members, col in cells:
            off = members & off_mask
            if off:
                out.append((off, col << 1))
            on = members & on_mask
            if on:
                out.append((on, col << 1 | 1))
        return out

    def descend(placed: list[int], cols: list[int],
                cells: list[tuple[int, int]], tied: bool) -> None:
        nonlocal best_cols, best_order
        grown = 0
        while True:
            k = len(placed)
            if k == n:
                if best_cols is None or cols < best_cols:
                    best_cols = cols.copy()
                    best_order = placed.copy()
                break
            minimal, low = cells[0]
            # `tied` is a pruning aid: the prefix matched the best known
            # string when this branch was entered.
            if tied and best_cols is not None:
                if low > best_cols[k]:
                    break
                tied = low == best_cols[k]
            if minimal & (minimal - 1) == 0:
                v = minimal.bit_length() - 1
                cells = split(cells, v)
                placed.append(v)
                cols.append(low)
                grown += 1
                continue
            cols.append(low)
            plain_seen: set[int] = set()
            while minimal:
                v = (minimal & -minimal).bit_length() - 1
                minimal &= minimal - 1
                # skip candidates twinned with one already tried here
                mask = adj[v]
                if mask in plain_seen or mask | (1 << v) in plain_seen:
                    continue
                plain_seen.add(mask)
                plain_seen.add(mask | (1 << v))
                placed.append(v)
                descend(placed, cols, split(cells, v), tied)
                placed.pop()
            cols.pop()
            break
        for _ in range(grown):
            placed.pop()
            cols.pop()

    everyone = [((1 << n) - 1, 0)]
    if first is None:
        descend([], [], everyone, True)
    else:
        descend([first], [0], split(everyone, first), True)
    assert best_cols is not None and best_order is not None
    return tuple(best_cols), tuple(best_order)


def canonical_graph(g: Graph) -> Graph:
    return relabeled(g, canonical_order(g))


def canonical_form(g: Graph) -> str:
    """graph6 of the canonically labelled graph (stable across labellings)."""
    return write_graph6(canonical_graph(g))


def enumerate_connected(n: int, max_deg: int) -> tuple[Graph, ...]:
    """One canonically labelled representative per isomorphism class of
    connected graphs on ``n`` vertices with maximum degree <= ``max_deg``,
    sorted by canonical form."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"internal enumerator is capped at n={ENUMERATION_LIMIT}; "
            "pipe a graph6 stream instead"
        )
    key = (n, max_deg)
    if key in _census_cache:
        return _census_cache[key]
    if n == 1:
        result = (Graph(1, [0]),)
    else:
        found: dict[str, Graph] = {}
        new = n - 1
        for parent in enumerate_connected(n - 1, max_deg):
            # vertices that can still take one more edge
            open_mask = 0
            for v in range(parent.n):
                if parent.degree(v) < max_deg:
                    open_mask |= 1 << v
            base = [parent.neighbor_mask(v) for v in range(parent.n)]
            # the image bit of each vertex under each non-identity automorphism
            moves = [[1 << w for w in image] for image in _automorphisms(base)[1:]]
            for subset in range(1, 1 << parent.n):
                if subset & ~open_mask or subset.bit_count() > max_deg:
                    continue
                if any(
                    sum(bits[v] for v in range(new) if subset >> v & 1) < subset
                    for bits in moves
                ):
                    continue
                masks = base.copy()
                masks.append(subset)
                for v in range(parent.n):
                    if subset >> v & 1:
                        masks[v] |= 1 << new
                if not _is_canonical_deletion(masks):
                    continue
                form = canonical_form(Graph(n, masks))
                found[form] = parse_graph6(form)
        result = tuple(found[form] for form in sorted(found))
    _census_cache[key] = result
    return result


def _automorphisms(masks: list[int]) -> list[tuple[int, ...]]:
    """Every automorphism of the graph with adjacency ``masks`` as its tuple
    of images, the identity first: the vertices are mapped in order, each
    onto an unused vertex of equal degree that keeps adjacency with the
    vertices already mapped, trying images in ascending order."""
    n = len(masks)
    degrees = [mask.bit_count() for mask in masks]
    found: list[tuple[int, ...]] = []
    image: list[int] = []

    def extend(v: int, used: int) -> None:
        if v == n:
            found.append(tuple(image))
            return
        target = sum(1 << image[u] for u in range(v) if masks[v] >> u & 1)
        for w in range(n):
            if (not used >> w & 1 and degrees[w] == degrees[v]
                    and masks[w] & used == target):
                image.append(w)
                extend(v + 1, used | 1 << w)
                image.pop()

    extend(0, 0)
    return found


def _is_canonical_deletion(masks: list[int]) -> bool:
    """Whether the last vertex x of the connected graph with adjacency
    ``masks`` lies in the orbit of its canonical deletion.

    The canonical deletion is, among the vertices whose removal leaves the
    graph connected, those with the largest invariant (degree, then sorted
    neighbour degrees), then among these the ones with the least
    first-vertex string.  Removing x leaves the parent, so x qualifies.
    """
    n = len(masks)
    x = n - 1
    degrees = [mask.bit_count() for mask in masks]

    def invariant(v: int) -> tuple[int, list[int]]:
        mask = masks[v]
        return degrees[v], sorted(degrees[u] for u in range(n) if mask >> u & 1)

    mine = invariant(x)
    tied = []
    for v in range(x):
        if degrees[v] < mine[0]:
            continue
        theirs = invariant(v)
        if theirs < mine or _is_cut_vertex(masks, v):
            continue
        if theirs > mine:
            return False
        tied.append(v)
    if not tied:
        return True
    least = _least_labelling(masks, x)[0]
    return all(least <= _least_labelling(masks, v)[0] for v in tied)


def _is_cut_vertex(masks: list[int], v: int) -> bool:
    """Whether removing ``v`` disconnects the graph with adjacency ``masks``."""
    rest = ((1 << len(masks)) - 1) & ~(1 << v)
    seen = frontier = rest & -rest
    while frontier:
        reach = 0
        u = 0
        while frontier >> u:
            if frontier >> u & 1:
                reach |= masks[u]
            u += 1
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen != rest
