"""Immutable simple graphs and the structural queries the reductions rely on.

Vertices are nonnegative integer ids.  A graph built directly
(``Graph(n, masks)``, ``Graph.from_edges``, the parsers) has the ids
``0..n-1``.  A graph derived from another one keeps its parent's ids:
deleting vertices leaves the other ids as they are, and contracting an edge
keeps the smaller of its two ids.  So a reduction's child graphs, and every
path found in them, are already in the ids of the input graph.  ``n`` counts
the vertices; in a derived graph the largest id can be ``n`` or more.
graph6 and the census take graphs on ``0..n-1`` only.

Adjacency is stored as one sorted tuple of neighbour ids per vertex, keyed
by id in ascending order, and the edge count ``m`` is kept alongside it.
Degrees are at most 5 in the graphs the solver takes, so a degree is a
``len`` and an adjacency test a short tuple scan.  A reduction's child is
a graph over a view (``_cut``): its parent's table minus the removed
vertices S, with the new tuples of the vertices that the cut touches in
front (``_rows``), built with no copy and read while the parent's table
holds the parent's tuples.  One edit points such a graph at a table of
its own (``_settle``): given a table that holds the parent's tuples, it
pops S and writes the rewritten tuples, and the parent's tuples that it
overwrote undo it.  ``delete_vertices`` is that edit on a copy of the
table, and ``contract_edge`` a call of ``delete_vertices(drop, add)``.
Values are safe to share between threads, but for what ``solve`` does
inside one call: it edits one working table from parent to child and
back, so a graph over it changes with each descent and each restore.  A
restored parent's re-inserted ids no longer ascend, so only lookups read
it; a second child descends into it restored with S in ascending order.

The connectivity queries never recurse and key their work by vertex id:
``joins`` is a breadth-first search that stops once it has seen the
vertices asked about, and ``low_link`` is one iterative low-link
depth-first search of the graph minus a removed set, which finds its
components, its bridges and the subtree below each bridge at once;
``bridges`` is its case with nothing removed.  Each is linear in the
graph's own n + m, however large its ids.
"""

from __future__ import annotations

import bisect
from collections.abc import KeysView, Mapping
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence


Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical (smaller endpoint first) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """A finite simple undirected graph on a set of integer vertex ids."""

    __slots__ = ("n", "m", "_adj")

    n: int
    m: int

    def __init__(self, n: int, adj_masks: Sequence[int]):
        """Graph on ``0..n-1`` where bit u of ``adj_masks[v]`` marks uv."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj_masks) != n:
            raise ValueError("adjacency length does not match vertex count")
        for v, mask in enumerate(adj_masks):
            if mask >> n:
                raise ValueError(f"neighbour of {v} out of range")
            if mask & (1 << v):
                raise ValueError(f"self-loop at {v}")
        adj, m = _mask_table(adj_masks)
        for v, nbrs in adj.items():
            for u in nbrs:
                if not adj_masks[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        _init(self, adj, m)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        nbrs: list[list[int]] = [[] for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            # scan the shorter list: linear in m for bounded degrees
            a, b = (u, v) if len(nbrs[u]) <= len(nbrs[v]) else (v, u)
            if b in nbrs[a]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            nbrs[u].append(v)
            nbrs[v].append(u)
            m += 1
        if n < 0:  # after the edges, which name a bad edge first
            raise ValueError("vertex count must be nonnegative")
        return _derived({v: tuple(sorted(vs)) for v, vs in enumerate(nbrs)}, m)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(tuple(self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        try:
            return len(self._adj[v])
        except KeyError:
            raise ValueError(f"vertex {v} is not in the graph") from None

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max degree of the empty graph is undefined")
        return max(map(len, self._adj.values()))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The neighbours of ``v``, ascending."""
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} is not in the graph") from None

    def neighbor_mask(self, v: int) -> int:
        """The neighbours of ``v`` as a bitmask (bit u set for each u)."""
        mask = 0
        for u in self.neighbors(v):
            mask |= 1 << u
        return mask

    def has_edge(self, u: int, v: int) -> bool:
        self.neighbors(v)  # raises if v is not a vertex
        return v in self.neighbors(u)

    def edges(self) -> Iterator[Edge]:
        """All edges, ascending by (u, v)."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v > u:
                    yield (u, v)

    def vertices(self) -> KeysView[int]:
        """The vertex ids, ascending, as a set-like view."""
        return self._adj.keys()

    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        """Each vertex id's ascending neighbour tuple, ascending by id.

        The graph's own table, for loops that test many adjacencies; it is
        read only, like the graph.
        """
        return self._adj

    def common_neighbors(self, u: int, v: int) -> tuple[int, ...]:
        if u == v:
            raise ValueError("common neighbours of a vertex with itself")
        nu, nv = self.neighbors(u), self.neighbors(v)
        return tuple(w for w in nu if w in nv)

    # -- connectivity -----------------------------------------------------

    def is_connected(self) -> bool:
        return self.joins(self._adj)

    def joins(self, vertices: Collection[int]) -> bool:
        """Whether the ``vertices``, at least one and all of them vertices
        of the graph, lie in one component: one breadth-first search from
        the first, which stops once it has seen them all."""
        left = set(vertices)
        if not left:
            return False
        adj = self._adj
        first = next(iter(vertices))
        left.discard(first)
        seen = {first}
        queue = [first]
        for v in queue:  # grows while it is walked
            if not left:
                return True
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
                    left.discard(w)
        return not left

    def bridges(self) -> set[Edge]:
        """Edges whose removal increases the component count: the bridges
        that ``low_link`` finds with every vertex as a start."""
        return set(_low_link(self._adj, self._adj, {})[0])

    def low_link(
        self, starts: Collection[int], removed: Collection[int] = ()
    ) -> LowLink:
        """One low-link depth-first search (Tarjan 1974) of the graph minus
        the vertices ``removed``, with a new tree from each of ``starts``,
        in order, that no earlier tree has reached.

        It runs on an explicit stack with one tuple per suspended vertex
        (``_low_link``).  A vertex's low is the least preorder number that
        its subtree reaches by one edge other than the tree edge to its
        parent; a removed vertex is numbered above every vertex searched,
        so it never lowers a low.  When a vertex's neighbours run out it is
        popped and its low passes to its parent; the tree edge between them
        is a bridge exactly when that low is above the parent's number.
        The vertex's subtree is then the preorder interval from its own
        number to the next number to be given.  Linear in the size of what
        it searches, with no recursion and nothing sized by the largest id.
        """
        pre = dict.fromkeys(removed, len(self._adj))
        for s in starts:
            if s not in self._adj or s in pre:
                raise ValueError(f"start {s} is not a vertex left to search")
        skip = len(pre)
        found, firsts = _low_link(self._adj, starts, pre)
        return LowLink(starts, pre, skip, firsts, found)

    # -- derived graphs ---------------------------------------------------

    def delete_vertices(self, drop: Iterable[int], add: Iterable[Edge] = ()) -> "Graph":
        """The graph minus the vertices ``drop``, plus the new edges ``add``
        among the vertices it keeps, on the same ids."""
        dropped = set(drop)
        unknown = [v for v in dropped if v not in self._adj]
        if unknown:
            raise ValueError(f"vertices {sorted(unknown)} are not in the graph")
        g = _cut(self, dropped, *_rows(self._adj, dropped, add))
        _settle(g, dict(self._adj))
        return g

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Merge the endpoints of an edge whose ends share no neighbour.

        The merged vertex keeps the id min(u, v); the id max(u, v) is gone.
        No reduction contracts: it stays for ``perfbench/tracer.py``, which
        wraps it (ROADMAP item 2(c)).
        """
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        if self.common_neighbors(u, v):
            raise ValueError(
                f"contracting ({u}, {v}) would create a parallel edge"
            )
        a, b = edge(u, v)
        return self.delete_vertices((b,), ((a, y) for y in self._adj[b] if y != a))


class LowLink(NamedTuple):
    """What one ``Graph.low_link`` search found.

    ``pre`` numbers each searched vertex in preorder, after the removed
    vertices (the first ``skip`` keys), so its keys from there on list the
    searched vertices by number.  Each tree is the interval of numbers from
    its entry in ``firsts`` to the next.  ``bridges`` maps each bridge to
    the interval of its lower end's subtree.
    """

    starts: Collection[int]
    pre: dict[int, int]
    skip: int
    firsts: list[int]
    bridges: dict[Edge, tuple[int, int]]

    def parts(self) -> list[tuple[tuple[int, ...], set[int]]]:
        """The components searched: for each tree, the starts it holds and
        its vertex set, in the order of their first starts."""
        order = list(self.pre)[self.skip:]
        bounds = self.firsts + [len(order)]
        held: list[list[int]] = [[] for _ in self.firsts]
        for s in dict.fromkeys(self.starts):
            held[self.tree(s)].append(s)
        return [
            (tuple(starts), set(order[a:b]))
            for starts, a, b in zip(held, bounds, bounds[1:])
        ]

    def tree(self, x: int) -> int:
        """The index in ``firsts`` of the tree that holds the searched ``x``."""
        return bisect.bisect_right(self.firsts, self.pre[x]) - 1

    def uncrossed(self, added: Iterable[Edge]) -> list[Edge]:
        """The bridges that no edge of ``added`` crosses: a bridge's lower
        end's subtree holds one end of a crossing edge and not the other.

        Lemma: where the search was one tree, these are exactly the bridges
        of the graph it searched plus the edges ``added`` among its
        vertices.  An added edge lies on a cycle through the tree, so it is
        no bridge; adding edges makes no new bridge; and a bridge pc, with
        c below p, stays one exactly when every added edge has both ends
        inside c's subtree or both outside it, the two sides that the
        bridge alone joins.
        """
        pre = self.pre
        ends = [(pre[a], pre[b]) for a, b in added]
        return [
            e for e, (lo, hi) in self.bridges.items()
            if all((lo <= i < hi) == (lo <= j < hi) for i, j in ends)
        ]


def _low_link(
    adj: Mapping[int, tuple[int, ...]], starts: Iterable[int], pre: dict[int, int]
) -> tuple[dict[Edge, tuple[int, int]], list[int]]:
    """The search of ``Graph.low_link`` from the checked ``starts`` on the
    table ``adj``, whose removed vertices ``pre`` numbers ``len(adj)``: it
    numbers the others it searches, and returns the bridges with their
    subtrees' intervals and each tree's first number.  ``bridges`` calls
    it directly, as the whole-graph search runs at many levels of a
    solve.

    The vertex being searched lives in locals: its id ``v``, number ``i``,
    low ``low``, parent's number ``p`` and neighbour iterator ``rest``.
    Descending to a new vertex pushes those five as one tuple; popping one
    back passes the finished vertex's low to its parent."""
    firsts: list[int] = []
    found: dict[Edge, tuple[int, int]] = {}
    given = 0  # the next preorder number
    for root in starts:
        if root in pre:
            continue
        pre[root] = given
        firsts.append(given)
        v, i, low, p, rest = root, given, given, -1, iter(adj[root])
        given += 1
        stack: list[tuple[int, int, int, int, Iterator[int]]] = []
        while True:
            for w in rest:
                j = pre.get(w)
                if j is None:
                    pre[w] = given
                    stack.append((v, i, low, p, rest))
                    v, i, low, p, rest = w, given, given, i, iter(adj[w])
                    given += 1
                    break
                if j < low and j != p:  # a back edge up the tree
                    low = j
            else:
                if not stack:
                    break
                child, child_low, child_i = v, low, i
                v, i, low, p, rest = stack.pop()
                if child_low < low:
                    low = child_low
                elif child_low > i:  # nothing below the child reaches v or above
                    found[edge(v, child)] = (child_i, given)
    return found, firsts


# The slots' own setters, past ``Graph.__setattr__``, which refuses writes.
_set_n, _set_m, _set_adj = Graph.n.__set__, Graph.m.__set__, Graph._adj.__set__


def _init(g: Graph, adj: dict[int, tuple[int, ...]], m: int) -> None:
    _set_n(g, len(adj))
    _set_m(g, m)
    _set_adj(g, adj)


def _derived(adj: dict[int, tuple[int, ...]], m: int) -> Graph:
    """Graph on ``adj`` (ids ascending, tuples sorted, symmetric, ``m``
    edges), built without the checks of ``Graph.__init__``: every caller
    derives it from a valid graph."""
    g = object.__new__(Graph)
    _init(g, adj, m)
    return g


def _rows(
    adj: Mapping[int, tuple[int, ...]], dropped: Collection[int], add: Iterable[Edge]
) -> tuple[dict[int, tuple[int, ...]], int]:
    """What deleting the vertices ``dropped`` and adding the edges ``add``
    among the others rewrites in the table ``adj``: the new tuples of the
    kept vertices next to a dropped one or at an added edge, and the change
    in the edge count.  Raises ``ValueError`` on an added edge that is a
    self-loop, leaves the kept vertices or is already present."""
    rows: dict[int, tuple[int, ...]] = {}
    change = 0  # less each edge at a dropped vertex, plus each added one
    for v in dropped:
        for w in adj[v]:
            if w not in dropped:
                rows[w] = ()
                change -= 1
            elif w < v:
                change -= 1
    for w in rows:
        rows[w] = tuple(x for x in adj[w] if x not in dropped)
    for u, v in add:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if u in dropped or v in dropped or u not in adj or v not in adj:
            raise ValueError(f"edge ({u}, {v}) leaves the kept vertices")
        nu = rows[u] if u in rows else adj[u]
        if v in nu:
            raise ValueError(f"edge ({u}, {v}) already present")
        nv = rows[v] if v in rows else adj[v]
        rows[u] = tuple(sorted(nu + (v,)))
        rows[v] = tuple(sorted(nv + (u,)))
        change += 1
    return rows, change


class _Cut(Mapping):
    """A read-only view of the table ``base`` minus the vertices ``removed``,
    with ``rows`` in place of the tuples that the cut rewrites (``_rows``):
    built in O(|rows|) steps, with no copy of ``base``, and ascending by id
    as ``base`` is.  It stays valid while ``base`` holds the tuples that it
    held when the view was built."""

    __slots__ = ("base", "removed", "rows", "n")

    def __init__(
        self, base: Mapping[int, tuple[int, ...]], removed: Collection[int],
        rows: dict[int, tuple[int, ...]],
    ):
        self.base, self.removed, self.rows = base, removed, rows
        self.n = len(base) - len(removed)

    def __getitem__(self, v: int) -> tuple[int, ...]:
        row = self.rows.get(v)
        if row is not None:
            return row
        if v in self.removed:
            raise KeyError(v)
        return self.base[v]

    def __iter__(self) -> Iterator[int]:
        removed = self.removed
        return (v for v in self.base if v not in removed)

    def __len__(self) -> int:
        return self.n


def _cut(
    g: Graph, removed: Collection[int], rows: dict[int, tuple[int, ...]], change: int
) -> Graph:
    """``g`` minus ``removed`` with the ``rows`` and edge-count ``change``
    that ``_rows`` gives, as a graph over a view of ``g``'s table
    (``_Cut``): for a reduction's reads of its child, while ``g`` is not
    written."""
    return _derived(_Cut(g._adj, removed, rows), g.m + change)  # type: ignore[arg-type]


def _settle(
    g: Graph, table: dict[int, tuple[int, ...]]
) -> dict[int, tuple[int, ...]]:
    """Point ``g``, a graph over a view (``_cut``), at ``table``, which
    holds the tuples of the view's base, in an id order that ``g`` then
    takes: pop the view's removed set from ``table``, write its rows in
    their slots, and return the tuples that this overwrote, which
    ``table.update`` puts back.  ``g``'s value does not change, only where
    it is stored: so ``solve`` hands on the very child graph that a
    reduction built."""
    cut: _Cut = g._adj  # type: ignore[assignment]
    # loops, not a comprehension, which costs a frame before Python 3.12
    old: dict[int, tuple[int, ...]] = {}
    for v in cut.removed:
        old[v] = table.pop(v)
    for b in cut.rows:
        old[b] = table[b]
    table.update(cut.rows)
    _set_adj(g, table)
    return old


def _mask_table(adj_masks: Sequence[int]) -> tuple[dict[int, tuple[int, ...]], int]:
    """The neighbour table and edge count of the in-range masks ``adj_masks``."""
    adj = dict(enumerate(map(_neighbours_in, adj_masks)))
    return adj, sum(map(int.bit_count, adj_masks)) // 2


def _from_masks(adj_masks: Sequence[int]) -> Graph:
    """``Graph(len(adj_masks), adj_masks)`` without its range, self-loop
    and symmetry checks, for masks that hold by construction: a graph6
    body's upper triangle, or a census graph's relabelled masks."""
    return _derived(*_mask_table(adj_masks))


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _small_table(width: int) -> tuple[tuple[int, ...], ...]:
    """``_bits(mask)`` for every mask below ``2**width``, by mask."""
    table: list[tuple[int, ...]] = [()]
    for bit in range(width):
        table += [nbrs + (bit,) for nbrs in table]
    return tuple(table)


# Every small graph (the census, parsed graph6 lines of order <= 10) shares
# these tuples instead of holding one per vertex.
_SMALL = _small_table(10)


def _neighbours_in(mask: int) -> tuple[int, ...]:
    return _SMALL[mask] if mask < len(_SMALL) else _bits(mask)
