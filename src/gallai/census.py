"""Small-graph enumeration by canonical augmentation.

The canonical form of a graph is the lexicographically smallest upper
triangle bit-string (column-major, the graph6 bit order) over all vertex
relabellings.  It is found slot by slot rather than by trying all n!
permutations: the search keeps every partial order whose columns so far
are least, and only those, so the value is exactly that minimum and the
canonical string doubles as a stable graph id.  Any order achieving it
relabels the graph to the same canonical graph.

The enumerator grows connected graphs one vertex at a time by canonical
augmentation (McKay, "Isomorph-free exhaustive generation", J. Algorithms
26, 1998).  A child C of a canonical parent P is P plus a new vertex x
joined to some of P's vertices, and it is kept only if x is C's canonical
deletion: among the vertices whose removal leaves C connected, x has the
largest invariant (degree, then sorted neighbour degrees), and among the
vertices tied with it, the least first-vertex string, the smallest
bit-string over the orders that put that vertex first.  Equal first-vertex
strings mean the same automorphism orbit, so the rule does not depend on
labels, and every isomorphism class arises from exactly one parent.  A
tied vertex's search is bounded by x's string and stops at its first
column that differs from it: a smaller column rejects x, a larger one
clears the vertex, and no difference at all means the two share an orbit.

A subset is skipped before the deletion test when an automorphism of P
maps it to a smaller mask; the image of a subset is two lookups per
automorphism, in a table for the low half of P's vertices and one for the
high half.  It is also skipped when it would give some vertex that P
keeps connected without a larger degree than x, as that vertex still
leaves C connected once x has two neighbours.  If two kept children of P are isomorphic, some isomorphism
between them fixes x (x lies in the canonical deletion's orbit of both)
and restricts to an automorphism of P carrying one subset onto the other;
so each class is labelled canonically exactly once.  That one labelling
(``_canonical_masks``) relabels the child's neighbour masks, which become
its one ``Graph``; the least string's columns are its sort key.  The
enumerator is capped at 8 vertices; larger orders are expected to arrive
as graph6 streams from an external generator.
"""

from __future__ import annotations

from collections.abc import Iterator

from .graphs import Graph
from .io import write_graph6

ENUMERATION_LIMIT = 8

_census_cache: dict[tuple[int, int], tuple[Graph, ...]] = {}

# A state of the labelling search: the vertices placed so far, last first,
# as a chain of (vertex, rest) pairs, and the cells of the unplaced ones.
_Cells = list[tuple[int, int]]
_State = tuple[tuple | None, _Cells]


def canonical_graph(g: Graph) -> Graph:
    """``g`` canonically labelled.  A derived graph keeps its parent's ids,
    which need not be ``0..n-1``, so its ids are first renamed in ascending
    order."""
    position = {old: new for new, old in enumerate(sorted(g.vertices()))}
    masks = [0] * g.n
    for old_u, new_u in position.items():
        for old_v in g.neighbors(old_u):
            masks[new_u] |= 1 << position[old_v]
    return Graph(g.n, _canonical_masks(masks)[1])


def canonical_form(g: Graph) -> str:
    """graph6 of the canonically labelled graph (stable across labellings)."""
    return write_graph6(canonical_graph(g))


def _canonical_masks(adj: list[int]) -> tuple[tuple[int, ...], list[int]]:
    """The minimal bit-string of the graph with neighbour masks ``adj``, as
    its columns (see ``_least_prefixes``), and the masks relabelled by an
    order achieving it.  Every canonical labelling goes through here."""
    cols = []
    states: list[_State] = [(None, [])]  # what an empty graph leaves
    for low, states in _least_prefixes(adj):
        cols.append(low)
    order = []
    chain = states[0][0]
    while chain is not None:
        v, chain = chain
        order.append(v)
    order.reverse()
    position = [0] * len(adj)
    for new, old in enumerate(order):
        position[old] = new
    relabelled = []
    for old in order:
        mask = adj[old]
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << position[low.bit_length() - 1]
            mask ^= low
        relabelled.append(out)
    return tuple(cols), relabelled


def _below(adj: list[int], first: int, bound: tuple[int, ...]) -> bool:
    """Whether the least string over the orders that start with ``first``
    is below ``bound``; the search stops at the first column that differs
    from the bound."""
    for (low, _), want in zip(_least_prefixes(adj, first), bound):
        if low != want:
            return low < want
    return False


def _least_prefixes(
    adj: list[int], first: int | None = None
) -> Iterator[tuple[int, list[_State]]]:
    """Yield, slot by slot, the least column that can follow the least
    prefix so far, and every search state whose prefix it extends and
    whose next column is least.

    Column k holds the k adjacency bits of the vertex placed at slot k
    towards slots 0..k-1, the earlier slot the more significant bit, so
    comparing columns in turn compares bit-strings.  The unplaced vertices
    of a state travel as (vertex mask, column) cells in column order:
    placing v splits each cell into its non-neighbours of v, then its
    neighbours, so only the first cell's vertices can come next, and its
    column is the one they get.  With ``first``, slot 0 holds ``first``.
    """
    n = len(adj)
    everyone = (1 << n) - 1
    allowed = everyone if first is None else 1 << first
    # twins (equal open or closed neighbourhoods) share every column while
    # both are unplaced, and swapping them is an automorphism fixing the
    # placed ones: a candidate is skipped when a lower twin is one too
    lower_twins = [0] * n
    classes: dict[int, int] = {}
    for v, mask in enumerate(adj):
        for key in (mask, mask | 1 << v):
            lower_twins[v] |= classes.get(key, 0)
            classes[key] = classes.get(key, 0) | 1 << v
    low = 0
    states: list[_State] = [(None, [(everyone, 0)] if n else [])]
    while states[0][1]:
        grown: list[_State] = []
        least = everyone  # above every column
        for chain, cells in states:
            front, front_col = cells[0]
            candidates = front & allowed
            rest = candidates
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                if candidates & lower_twins[v]:
                    continue
                on_mask = adj[v]
                off_mask = ~(on_mask | bit)
                # the next column comes from the first cell left nonempty
                others = front ^ bit
                if others:
                    head = front_col << 1 if others & off_mask else front_col << 1 | 1
                elif len(cells) > 1:
                    members, col = cells[1]
                    head = col << 1 if members & off_mask else col << 1 | 1
                else:
                    head = 0
                if head > least:
                    continue
                split = []
                for members, col in cells:
                    off = members & off_mask
                    if off:
                        split.append((off, col << 1))
                    on = members & on_mask
                    if on:
                        split.append((on, col << 1 | 1))
                if head < least:
                    least = head
                    grown = [((v, chain), split)]
                elif head == least:
                    grown.append(((v, chain), split))
        yield low, grown
        states = grown
        low = least
        allowed = everyone


def enumerate_connected(n: int, max_deg: int) -> tuple[Graph, ...]:
    """One canonically labelled representative per isomorphism class of
    connected graphs on ``n`` vertices with maximum degree <= ``max_deg``,
    sorted by canonical form."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if max_deg < 0:
        raise ValueError("maximum degree must be at least 0")
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
        # keyed by columns: on one order, comparing column tuples compares
        # the bit-strings, so their order is the order of the graph6 forms
        found: dict[tuple[int, ...], Graph] = {}
        new = n - 1
        half = new // 2
        low_mask = (1 << half) - 1
        for parent in enumerate_connected(new, max_deg):
            base = [parent.neighbor_mask(v) for v in range(new)]
            # vertices that can still take one more edge
            open_mask = 0
            # the highest degree of a vertex whose removal leaves P connected,
            # and the vertices of that degree
            top_degree = top = 0
            for v in range(new):
                degree = base[v].bit_count()
                if degree < max_deg:
                    open_mask |= 1 << v
                if degree >= top_degree and not _is_cut_vertex(base, v):
                    if degree > top_degree:
                        top_degree, top = degree, 0
                    top |= 1 << v
            tables = [
                _image_tables(image, half) for image in _automorphisms(base)[1:]
            ]
            for subset in range(1, 1 << new):
                size = subset.bit_count()
                if subset & ~open_mask or size > max_deg:
                    continue
                # Once x has two neighbours, such a vertex leaves the child
                # connected too; if its degree there exceeds x's, x is not
                # the canonical deletion.
                if size > 1 and (size < top_degree
                                 or size == top_degree and subset & top):
                    continue
                for lo, hi in tables:
                    if lo[subset & low_mask] | hi[subset >> half] < subset:
                        break
                else:
                    masks = base.copy()
                    masks.append(subset)
                    for v in range(new):
                        if subset >> v & 1:
                            masks[v] |= 1 << new
                    if _is_canonical_deletion(masks):
                        cols, relabelled = _canonical_masks(masks)
                        found[cols] = Graph(n, relabelled)
        result = tuple(found[cols] for cols in sorted(found))
    _census_cache[key] = result
    return result


def _image_tables(image: tuple[int, ...], half: int) -> tuple[list[int], ...]:
    """The images under the vertex map ``image`` of every mask of the
    vertices below ``half``, by mask, and of every mask of the others,
    by the mask shifted down by ``half``: the image of a mask s is
    ``lo[s & (1 << half) - 1] | hi[s >> half]``."""
    tables = []
    for images in (image[:half], image[half:]):
        table = [0]
        for w in images:
            table += [mask | 1 << w for mask in table]
        tables.append(table)
    return tuple(tables)


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

    def neighbour_degrees(v: int) -> list[int]:
        mask = masks[v]
        return sorted(degrees[u] for u in range(n) if mask >> u & 1)

    mine = neighbour_degrees(x)
    tied = []
    for v in range(x):
        if degrees[v] < degrees[x]:
            continue
        if degrees[v] > degrees[x]:  # a larger invariant, if v qualifies
            if not _is_cut_vertex(masks, v):
                return False
            continue
        theirs = neighbour_degrees(v)
        if theirs < mine or _is_cut_vertex(masks, v):
            continue
        if theirs > mine:
            return False
        tied.append(v)
    if not tied:
        return True
    least = tuple(low for low, _ in _least_prefixes(masks, x))
    return not any(_below(masks, v, least) for v in tied)


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
