"""Small-graph enumeration by canonical augmentation.

The canonical form of a graph is the lexicographically smallest upper
triangle bit-string (column-major, the graph6 bit order) over all vertex
relabellings.  It is found slot by slot rather than by trying all n!
permutations: the search keeps every partial order whose columns so far
are least, and only those, so the value is exactly that minimum and the
canonical string doubles as a stable graph id.  Any order achieving it
relabels the graph to the same canonical graph.  The least string opens
with a maximum independent set, whose columns are 0 in any order, so the
search opens on each such set as one unordered piece and orders its
members only as later vertices tell them apart: the orders of one set
are one state, not alpha! of them.

The enumerator grows connected graphs one vertex at a time by canonical
augmentation (McKay, "Isomorph-free exhaustive generation", J. Algorithms
26, 1998).  A child C of a canonical parent P is P plus a new vertex x
joined to some of P's vertices, and it is kept only if x is C's canonical
deletion.  The candidates are the vertices whose removal leaves C
connected with the largest invariant (degree, then sorted neighbour
degrees), and the canonical deletion is the orbit of the candidate at the
latest slot of C's least string.  Any two orders that achieve the least
string differ by an automorphism, so the rule does not depend on labels,
and every isomorphism class arises from exactly one parent.  A lone
candidate needs no search; between rivals, one labelling of C decides,
reading the orbit off the orders its search keeps, and labels the class
too if x is kept.  So each child is labelled at most once.

A subset is skipped before the deletion test when an automorphism of P
maps it to a smaller mask; the image of a subset is two lookups per
automorphism, in a table for the low half of P's vertices and one for the
high half.  It is also skipped when it would give some vertex that P
keeps connected without a larger degree than x, as that vertex still
leaves C connected once x has two neighbours.  If two kept children of P
are isomorphic, some isomorphism between them fixes x (x lies in the
canonical deletion's orbit of both) and restricts to an automorphism of P
carrying one subset onto the other; so each class is kept exactly once.
Its labelling (``_canonical_masks``) relabels the child's neighbour
masks, which become its one ``Graph`` without the checked constructor's
checks (a relabelling of a valid graph's masks is valid); the least
string's columns are its sort key.  The enumerator is capped at 8
vertices; larger orders are expected to arrive as graph6 streams from an
external generator.
"""

from __future__ import annotations

from .graphs import Graph, _from_masks
from .io import write_graph6

ENUMERATION_LIMIT = 8

_census_cache: dict[tuple[int, int], tuple[Graph, ...]] = {}

# The unplaced vertices of a labelling search state, as (column, vertex
# mask) cells in column order.  A state is the vertices placed after the
# opening set, last first, as a chain of (vertex, rest) pairs, the pieces
# of the opening set in slot order, and these cells.
_Cells = list[tuple[int, int]]


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


def _canonical_masks(
    adj: list[int], candidates: int = 0
) -> tuple[tuple[int, ...], list[int], int]:
    """The minimal bit-string of the graph with neighbour masks ``adj``, as
    its columns (see ``_least_prefixes``), the masks relabelled by an order
    achieving it, and the orbit of the vertex that sits at the latest slot
    among ``candidates``, a union of orbits.  Every canonical labelling
    goes through here.

    Every order the search keeps spells the least string, and the orders
    it skips are twin swaps of kept ones, so the vertices at one slot over
    the kept orders, with their twins, are that slot's whole orbit."""
    cols, orders, twins = _least_prefixes(adj)
    order = orders[0]
    orbit = candidates
    if candidates & (candidates - 1):  # a lone candidate is its own orbit
        slot = max(k for k, v in enumerate(order) if candidates >> v & 1)
        orbit = 0
        for kept in orders:
            orbit |= twins[kept[slot]]
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
    return cols, relabelled, orbit


def _twins(adj: list[int]) -> list[int]:
    """Each vertex's twins, itself included: the vertices with its open or
    its closed neighbourhood.  A vertex has twins of one kind only, so
    being twins is an equivalence, and swapping two is an automorphism."""
    classes: dict[int, int] = {}
    for v, mask in enumerate(adj):
        for key in (mask, mask | 1 << v):
            classes[key] = classes.get(key, 0) | 1 << v
    return [classes[mask] | classes[mask | 1 << v] for v, mask in enumerate(adj)]


def _least_prefixes(
    adj: list[int],
) -> tuple[tuple[int, ...], list[tuple[int, ...]], list[int]]:
    """The least string's columns, the vertex order of every state the
    search keeps to the end, and each vertex's twins (``_twins``).

    Column k holds the k adjacency bits of the vertex placed at slot k
    towards slots 0..k-1, the earlier slot the more significant bit, so
    comparing columns in turn compares bit-strings.  The string opens with
    a maximum independent set, in any order, so the first alpha columns
    are 0 and each such set S starts one state, placed as one unordered
    piece.  A vertex v placed later gets its least column when its
    non-neighbours come first in every piece, so placing v splits each
    piece into its non-neighbours of v, then its neighbours; pieces still
    whole at the end hold twins, placed in ascending order.

    The unplaced vertices of a state travel as (column, vertex mask)
    cells in column order, a column being what a vertex would get if it
    came next: placing v splits each cell into its non-neighbours of v,
    then its neighbours, so only the first cell's vertices can come next.
    When v splits a piece, the columns are worked out afresh.
    """
    n = len(adj)
    everyone = (1 << n) - 1
    twins = _twins(adj)
    # twins share every column while both are unplaced, and swapping them
    # is an automorphism fixing the placed ones: a candidate is skipped
    # when a lower twin is one too, and an opening set when it holds a
    # vertex but not its lower twin, which only an adjacent twin can be
    # (a largest independent set holds all of a vertex's other twins or
    # none), so the sets are drawn from the vertices without one
    lower_twins = [mask & (1 << v) - 1 for v, mask in enumerate(twins)]
    pool = 0
    for v in range(n):
        if not lower_twins[v] & adj[v]:
            pool |= 1 << v
    low = everyone  # above every column
    states = []
    for chosen in _maximum_independent_sets(adj, pool):
        # a vertex with c neighbours in the set would get c ones last
        by_col: dict[int, int] = {}
        rest = everyone & ~chosen
        while rest:
            bit = rest & -rest
            rest ^= bit
            col = (1 << (adj[bit.bit_length() - 1] & chosen).bit_count()) - 1
            by_col[col] = by_col.get(col, 0) | bit
        cells = sorted(by_col.items())
        head = cells[0][0] if cells else 0
        if head < low:
            low, states = head, []
        if head == low:
            states.append((None, (chosen,), cells))
    cols = [0] * states[0][1][0].bit_count()
    placed = 0  # vertices placed after the opening set
    while states[0][2]:
        cols.append(low)
        grown = []
        least = everyone
        for chain, pieces, cells in states:
            front_col, front = cells[0]
            rest = front
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                if front & lower_twins[v]:
                    continue
                on_mask = adj[v]
                off_mask = ~(on_mask | bit)
                # the next column comes from the first cell left nonempty;
                # if v splits a piece, that can only raise it
                others = front ^ bit
                if others:
                    head = front_col << 1 if others & off_mask else front_col << 1 | 1
                elif len(cells) > 1:
                    col, members = cells[1]
                    head = col << 1 if members & off_mask else col << 1 | 1
                else:
                    head = 0
                if head > least:
                    continue
                split_pieces = []
                for piece in pieces:
                    on = piece & on_mask
                    if on and on != piece:
                        split_pieces += (piece ^ on, on)
                    else:
                        split_pieces.append(piece)
                if len(split_pieces) > len(pieces):
                    pieces_now = tuple(split_pieces)
                    split = _recut(adj, cells, pieces_now, placed, v)
                    head = split[0][0] if split else 0
                    if head > least:
                        continue
                else:
                    pieces_now = pieces
                    split = []
                    for col, members in cells:
                        off = members & off_mask
                        if off:
                            split.append((col << 1, off))
                        on = members & on_mask
                        if on:
                            split.append((col << 1 | 1, on))
                if head < least:
                    least = head
                    grown = [((v, chain), pieces_now, split)]
                elif head == least:
                    grown.append(((v, chain), pieces_now, split))
        states = grown
        low = least
        placed += 1
    orders = []
    for chain, pieces, _ in states:
        order = []
        while chain is not None:
            v, chain = chain
            order.append(v)
        for piece in reversed(pieces):
            while piece:  # highest first, as the order is built backwards
                v = piece.bit_length() - 1
                order.append(v)
                piece ^= 1 << v
        orders.append(tuple(reversed(order)))
    return tuple(cols), orders, twins


def _maximum_independent_sets(adj: list[int], pool: int) -> list[int]:
    """Every largest independent set of the vertices in ``pool``, as masks.

    Branch and bound on the lowest free vertex, taking it first: a free
    vertex with no free neighbour is always taken, and a branch stops
    when its free vertices cannot bring it up to the largest set found."""
    best = 0
    found: list[int] = []
    stack = [(0, 0, pool)]
    while stack:
        chosen, size, free = stack.pop()
        if not free:
            if size > best:
                best, found = size, []
            if size == best:
                found.append(chosen)
            continue
        if size + free.bit_count() < best:
            continue
        bit = free & -free
        free ^= bit
        mask = adj[bit.bit_length() - 1]
        if mask & free:
            stack.append((chosen, size, free))
        stack.append((chosen | bit, size + 1, free & ~mask))
    return found


def _recut(
    adj: list[int], cells: _Cells, pieces: tuple[int, ...], placed: int, v: int
) -> _Cells:
    """The cells of the unplaced vertices other than ``v`` once ``v`` is
    placed and has cut the opening set into ``pieces``, their columns worked
    out afresh: piece by piece, the zeros of a vertex's non-neighbours then
    the ones of its neighbours, then its bits towards the ``placed``
    vertices that follow the set, which its old column ends with, then its
    bit towards ``v``."""
    tail = (1 << placed) - 1
    others = ~(1 << v)
    by_col: dict[int, int] = {}
    for col, members in cells:
        after = (col & tail) << 1
        members &= others
        while members:
            bit = members & -members
            members ^= bit
            mask = adj[bit.bit_length() - 1]
            head = 0
            for piece in pieces:
                head = head << piece.bit_count() | (1 << (mask & piece).bit_count()) - 1
            new = head << placed + 1 | after | mask >> v & 1
            by_col[new] = by_col.get(new, 0) | bit
    return sorted(by_col.items())


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
                    labelled = _is_canonical_deletion(masks)
                    if labelled:
                        cols, relabelled = labelled
                        found[cols] = _from_masks(relabelled)
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


def _is_canonical_deletion(
    masks: list[int],
) -> tuple[tuple[int, ...], list[int]] | None:
    """The canonical labelling of the connected graph with adjacency
    ``masks`` (``_canonical_masks``' columns and relabelled masks) if its
    last vertex x lies in the orbit of its canonical deletion, else None.

    The candidates for the deletion are the vertices whose removal leaves
    the graph connected with the largest invariant (degree, then sorted
    neighbour degrees), and the deletion is the orbit of the candidate at
    the latest slot of the least string.  Removing x leaves the parent, so
    x is a candidate.  A lone candidate is the deletion; between rivals
    the one labelling that decides also labels the class when x is kept.
    """
    x = len(masks) - 1
    degrees = [mask.bit_count() for mask in masks]

    def neighbour_degrees(v: int) -> list[int]:
        mask = masks[v]
        found = []
        while mask:
            low = mask & -mask
            found.append(degrees[low.bit_length() - 1])
            mask ^= low
        found.sort()
        return found

    mine: list[int] | None = None  # x's, once a vertex of its degree needs them
    candidates = 1 << x
    for v in range(x):
        if degrees[v] < degrees[x]:
            continue
        if degrees[v] > degrees[x]:  # a larger invariant, if v qualifies
            if not _is_cut_vertex(masks, v):
                return None
            continue
        if mine is None:
            mine = neighbour_degrees(x)
        theirs = neighbour_degrees(v)
        if theirs < mine or _is_cut_vertex(masks, v):
            continue
        if theirs > mine:
            return None
        candidates |= 1 << v
    cols, relabelled, deletion = _canonical_masks(masks, candidates)
    return (cols, relabelled) if deletion >> x & 1 else None


def _is_cut_vertex(masks: list[int], v: int) -> bool:
    """Whether removing ``v`` disconnects the graph with adjacency ``masks``."""
    rest = ((1 << len(masks)) - 1) & ~(1 << v)
    seen = frontier = rest & -rest
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen != rest
