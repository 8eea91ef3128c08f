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
``components`` is a breadth-first search, and ``low_link`` is one
iterative low-link depth-first search of the graph minus a removed set,
which finds its components, its bridges and the subtree below each bridge
at once; ``bridges`` is its case with nothing removed.  Each is linear in
the graph's own n + m, however large its ids.
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

        It runs on an explicit stack of (vertex, preorder number, parent's
        number, neighbour iterator).  ``low`` holds, by preorder number, the
        least number that the vertex's subtree reaches by one edge other
        than the tree edge to its parent; a removed vertex is numbered above
        every vertex searched, so it never lowers a low.  When a vertex's
        neighbours run out it is popped and its low passes to its parent;
        the tree edge between them is a bridge exactly when that low is
        above the parent's number.  The vertex's subtree is then the
        preorder interval from its own number to the next number to be
        given.  Linear in the size of what it searches, with no recursion
        and nothing sized by the largest id.
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
    solve."""
    low: list[int] = []  # by preorder number
    firsts: list[int] = []
    found: dict[Edge, tuple[int, int]] = {}
    for root in starts:
        if root in pre:
            continue
        pre[root] = i = len(low)
        low.append(i)
        firsts.append(i)
        stack = [(root, i, -1, iter(adj[root]))]
        while stack:
            v, i, p, rest = stack[-1]
            for w in rest:
                j = pre.get(w)
                if j is None:
                    pre[w] = j = len(low)
                    low.append(j)
                    stack.append((w, j, i, iter(adj[w])))
                    break
                if j < low[i] and j != p:  # a back edge up the tree
                    low[i] = j
            else:
                stack.pop()
                if p < 0:
                    continue
                if low[i] < low[p]:
                    low[p] = low[i]
                elif low[i] > p:  # no edge from v's subtree reaches p or above
                    found[edge(stack[-1][0], v)] = (i, len(low))
    return found, firsts


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
