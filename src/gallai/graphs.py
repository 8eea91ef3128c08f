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
``len`` and an adjacency test a short tuple scan.  A derived graph is one
copy of the table that rewrites only the tuples of the vertices it
touches; ``contract_edge`` is a call of ``delete_vertices(drop, add)``,
and ``induced_even_subgraph`` builds its table from the even vertices'
tuples alone.  Every derived graph is a new ``Graph``; values are safe to
share between threads.

The connectivity queries never recurse and key their work by vertex id:
``components`` and ``split`` are breadth-first searches, ``bridges`` a
chain decomposition on one iterative depth-first search.  Each is linear
in the graph's own n + m, however large its ids, and ``split`` stops
before it walks its largest side.
"""

from __future__ import annotations

from collections.abc import KeysView, Mapping
from typing import Collection, Iterable, Iterator, Sequence


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
        adj = {v: _neighbours_in(mask) for v, mask in enumerate(adj_masks)}
        for v, nbrs in adj.items():
            for u in nbrs:
                if not adj_masks[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        _init(self, adj, sum(map(len, adj.values())) // 2)

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
        g = object.__new__(cls)
        _init(g, {v: tuple(sorted(vs)) for v, vs in enumerate(nbrs)}, m)
        return g

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

    def components(self) -> list[tuple[int, ...]]:
        """Connected components, ascending by smallest member."""
        seen: set[int] = set()
        return [
            tuple(sorted(self._reach(start, seen)))
            for start in self._adj
            if start not in seen
        ]

    def is_connected(self) -> bool:
        if not self._adj:
            return False
        return len(self._reach(next(iter(self._adj)), set())) == self.n

    def _reach(self, start: int, seen: set[int]) -> list[int]:
        """The vertices joined to ``start`` and not in ``seen``, which
        gains them."""
        adj = self._adj
        seen.add(start)
        comp = [start]
        for v in comp:  # grows while it is walked: a breadth-first search
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        return comp

    def split(
        self,
        starts: Iterable[int],
        removed: Collection[int] = (),
        without: Edge | None = None,
    ) -> list[tuple[tuple[int, ...], set[int] | None]]:
        """The components that hold a vertex of ``starts`` once the
        vertices ``removed`` and the edge ``without``, which must join two
        starts, are taken out: for each, the starts it holds and its
        vertex set, in the order of their first starts.

        One breadth-first search runs from each start, one vertex each in
        turn, and two searches that meet go on as one.  They stop as soon
        as all of them have met, or all but one group of them have run out
        of vertices.  The component that is still growing then is never
        walked to its end, and its vertex set is given as None: a split
        costs about the number of starts times the size of its smaller
        sides, and never more than ``components``, since no vertex is seen
        twice.
        """
        adj = self._adj
        owner = dict.fromkeys(removed, -1)  # vertex -> the search that saw it
        order: list[int] = []
        for s in starts:
            if owner.get(s, -1) >= 0:
                continue  # a repeated start
            if s not in adj or s in owner:
                raise ValueError(f"start {s} is not a vertex left to search")
            owner[s] = len(order)
            order.append(s)
        k = len(order)
        if k < 2:
            return [(tuple(order), None)] if order else []
        if without is not None and min(owner.get(without[0], -1),
                                       owner.get(without[1], -1)) < 0:
            raise ValueError(f"edge {without} does not join two starts")
        found = [[s] for s in order]  # each search's vertices, as seen
        done = [0] * k  # how many of them the search has expanded
        group = list(range(k))  # the search that each one has joined
        groups = k
        while True:
            ended = False
            for i in range(k):
                seen, d = found[i], done[i]
                if d == len(seen):
                    continue
                x = seen[d]
                done[i] = d = d + 1
                for w in adj[x]:
                    j = owner.get(w)
                    if j is None:
                        owner[w] = i
                        seen.append(w)
                    elif (
                        j >= 0 and group[j] != group[i]
                        and without not in ((x, w), (w, x))
                    ):
                        old, new = group[j], group[i]
                        for t in range(k):
                            if group[t] == old:
                                group[t] = new
                        groups -= 1
                        if groups == 1:
                            return [(tuple(order), None)]
                # a search that runs out stays out: only it adds to its list
                ended = ended or d == len(seen)
            if ended:
                live = {group[i] for i in range(k) if done[i] < len(found[i])}
                if len(live) < 2:
                    break
        parts = []
        for label in dict.fromkeys(group):
            members = [i for i in range(k) if group[i] == label]
            vertices = (
                None if label in live
                else set().union(*(found[i] for i in members))
            )
            parts.append((tuple(order[i] for i in members), vertices))
        return parts

    def is_bridge(self, u: int, v: int) -> bool:
        """Whether removing the edge uv disconnects u from v.

        A search from each end, without the edge, run in lockstep by
        ``split``: it stops when the two meet or one side is used up, so
        it costs about twice the smaller side.
        """
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        return len(self.split((u, v), without=(u, v))) == 2

    def bridges(self) -> set[Edge]:
        """Edges whose removal increases the component count.

        A chain decomposition (Schmidt 2013).  One depth-first search on
        an explicit stack numbers the vertices in preorder; each stack
        entry carries the preorder number of the vertex that pushed it, so
        a vertex's parent is its last pusher and the pops are a true DFS.
        Then each back edge, taken in the preorder of its upper end, walks
        up the tree from its lower end and marks the tree edges it passes
        until it meets a vertex already seen.  The bridges are the tree
        edges left unmarked.  Linear in the graph's own n + m, with no
        recursion and nothing sized by the largest id.
        """
        adj = self._adj
        pre: dict[int, int] = {}  # vertex -> preorder number
        order: list[int] = []  # the vertices in preorder
        up: list[int] = []  # by number: the parent's number (a root's own)
        for root in adj:
            if root in pre:
                continue
            stack = [(root, len(order))]
            while stack:
                v, p = stack.pop()
                if v in pre:
                    continue
                pre[v] = i = len(order)
                up.append(p)
                order.append(v)
                for w in adj[v]:
                    if w not in pre:
                        stack.append((w, i))
        marked = [False] * len(order)  # the tree edge to the parent is covered
        i = 0
        for v in order:
            for w in adj[v]:
                j = pre[w]
                if j > i and up[j] != i:  # a back edge down to a descendant
                    while j != i and not marked[j]:
                        marked[j] = True
                        j = up[j]
            i += 1
        return {
            edge(order[j], order[up[j]])
            for j, covered in enumerate(marked)
            if not covered and up[j] != j
        }

    # -- derived graphs ---------------------------------------------------

    def delete_vertices(self, drop: Iterable[int], add: Iterable[Edge] = ()) -> "Graph":
        """The graph minus the vertices ``drop``, plus the new edges ``add``
        among the vertices it keeps, on the same ids."""
        dropped = set(drop)
        unknown = dropped - self._adj.keys()
        if unknown:
            raise ValueError(f"vertices {sorted(unknown)} are not in the graph")
        adj = dict(self._adj)
        m = self.m  # less each edge at a dropped vertex, plus each added one
        touched: set[int] = set()
        for v in dropped:
            for w in adj.pop(v):
                if w not in dropped:
                    touched.add(w)
                    m -= 1
                elif w < v:
                    m -= 1
        for w in touched:
            adj[w] = tuple(x for x in adj[w] if x not in dropped)
        for u, v in add:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u}, {v}) leaves the kept vertices")
            if v in adj[u]:
                raise ValueError(f"edge ({u}, {v}) already present")
            adj[u] = tuple(sorted(adj[u] + (v,)))
            adj[v] = tuple(sorted(adj[v] + (u,)))
            m += 1
        return _derived(adj, m)

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Merge the endpoints of an edge whose ends share no neighbour.

        The merged vertex keeps the id min(u, v); the id max(u, v) is gone.
        """
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        if self.common_neighbors(u, v):
            raise ValueError(
                f"contracting ({u}, {v}) would create a parallel edge"
            )
        a, b = edge(u, v)
        return self.delete_vertices((b,), ((a, y) for y in self._adj[b] if y != a))

    def induced_even_subgraph(self) -> "Graph":
        """Subgraph induced by the vertices of even degree, on the same ids.

        Reads only the even vertices' tuples, so a graph with no even
        vertex (a cubic one) costs one pass over its degrees.
        """
        adj = self._adj
        core = {
            v: tuple(w for w in nbrs if len(adj[w]) % 2 == 0)
            for v, nbrs in adj.items()
            if len(nbrs) % 2 == 0
        }
        return _derived(core, sum(map(len, core.values())) // 2)

    # -- predicates --------------------------------------------------------

    def is_forest(self) -> bool:
        return self.m == self.n - len(self.components())

    def is_odd_semi_clique(self) -> bool:
        """True for a clique on 2k+1 vertices minus at most k-1 edges."""
        if self.n < 3 or self.n % 2 == 0:
            return False
        k = (self.n - 1) // 2
        return self.m >= self.n * (self.n - 1) // 2 - (k - 1)


def _init(g: Graph, adj: dict[int, tuple[int, ...]], m: int) -> None:
    object.__setattr__(g, "n", len(adj))
    object.__setattr__(g, "m", m)
    object.__setattr__(g, "_adj", adj)


def _derived(adj: dict[int, tuple[int, ...]], m: int) -> Graph:
    """Graph on ``adj`` (ids ascending, tuples sorted, symmetric, ``m``
    edges), built without the checks of ``Graph.__init__``: every caller
    derives it from a valid graph."""
    g = object.__new__(Graph)
    _init(g, adj, m)
    return g


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
