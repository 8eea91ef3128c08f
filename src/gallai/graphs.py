"""Immutable simple graphs and the structural queries the reductions rely on.

Vertices are nonnegative integer ids.  A graph built directly
(``Graph(n, masks)``, ``Graph.from_edges``, the parsers) has the ids
``0..n-1``.  A graph derived from another one keeps its parent's ids:
deleting vertices leaves the other ids as they are, and contracting an edge
keeps the smaller of its two ids.  So a reduction's child graphs, and every
path found in them, are already in the ids of the input graph.  ``n`` counts
the vertices; in a derived graph the largest id can be ``n`` or more.
graph6 and the census take graphs on ``0..n-1`` only.

Adjacency is stored as one bitmask per vertex, keyed by id in ascending
order, which keeps degree/common-neighbour/connectivity queries cheap at the
sizes this library targets (a few dozen vertices).  Every mutating operation
returns a new ``Graph``; values are safe to share between threads.
"""

from __future__ import annotations

from collections.abc import KeysView, Mapping
from typing import Iterable, Iterator, Sequence


Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical (smaller endpoint first) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """A finite simple undirected graph on a set of integer vertex ids."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj_masks: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj_masks) != n:
            raise ValueError("adjacency length does not match vertex count")
        for v, mask in enumerate(adj_masks):
            if mask >> n:
                raise ValueError(f"neighbour of {v} out of range")
            if mask & (1 << v):
                raise ValueError(f"self-loop at {v}")
        for v, mask in enumerate(adj_masks):
            for u in _bits(mask):
                if not adj_masks[u] & (1 << v):
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", dict(enumerate(adj_masks)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if masks[u] & (1 << v):
                raise ValueError(f"duplicate edge ({u}, {v})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, masks)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(tuple(self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self._adj.values()) // 2

    def degree(self, v: int) -> int:
        return self.neighbor_mask(v).bit_count()

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max degree of the empty graph is undefined")
        return max(mask.bit_count() for mask in self._adj.values())

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.neighbor_mask(v)))

    def neighbor_mask(self, v: int) -> int:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} is not in the graph") from None

    def has_edge(self, u: int, v: int) -> bool:
        self.neighbor_mask(v)  # raises if v is not a vertex
        return bool(self.neighbor_mask(u) & (1 << v))

    def edges(self) -> Iterator[Edge]:
        """All edges, ascending by (u, v)."""
        for u, mask in self._adj.items():
            for v in _bits(mask >> (u + 1), offset=u + 1):
                yield (u, v)

    def vertices(self) -> KeysView[int]:
        """The vertex ids, ascending, as a set-like view."""
        return self._adj.keys()

    def adjacency(self) -> Mapping[int, int]:
        """Each vertex id's neighbour mask, ascending by id.

        The graph's own table, for loops that test many adjacencies; it is
        read only, like the graph.
        """
        return self._adj

    def common_neighbors(self, u: int, v: int) -> tuple[int, ...]:
        if u == v:
            raise ValueError("common neighbours of a vertex with itself")
        return tuple(_bits(self.neighbor_mask(u) & self.neighbor_mask(v)))

    # -- connectivity -----------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Connected components, ascending by smallest member."""
        seen = 0
        out = []
        for start in self._adj:
            if seen >> start & 1:
                continue
            comp = self._reach(start)
            seen |= comp
            out.append(tuple(_bits(comp)))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def _reach(self, start: int) -> int:
        comp = 1 << start
        frontier = comp
        while frontier:
            grown = 0
            for v in _bits(frontier):
                grown |= self._adj[v]
            frontier = grown & ~comp
            comp |= grown
        return comp

    def bridges(self) -> set[Edge]:
        """Edges whose removal increases the component count.

        Iterative low-link computation, linear in n + m.
        """
        disc = dict.fromkeys(self._adj, -1)
        low = dict.fromkeys(self._adj, 0)
        out: set[Edge] = set()
        timer = 0
        for root in self._adj:
            if disc[root] != -1:
                continue
            # stack entries: (vertex, parent, iterator over neighbours)
            stack = [(root, -1, iter(self.neighbors(root)))]
            disc[root] = low[root] = timer
            timer += 1
            while stack:
                v, parent, it = stack[-1]
                advanced = False
                for w in it:
                    if disc[w] == -1:
                        disc[w] = low[w] = timer
                        timer += 1
                        stack.append((w, v, iter(self.neighbors(w))))
                        advanced = True
                        break
                    if w != parent:
                        low[v] = min(low[v], disc[w])
                if not advanced:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        low[p] = min(low[p], low[v])
                        if low[v] > disc[p]:
                            out.add(edge(p, v))
        return out

    # -- derived graphs ---------------------------------------------------

    def delete_vertices(self, drop: Iterable[int]) -> "Graph":
        """Induced subgraph on the surviving vertices, on the same ids."""
        dropped = set(drop)
        unknown = dropped - self._adj.keys()
        if unknown:
            raise ValueError(f"vertices {sorted(unknown)} are not in the graph")
        kept = ~sum(1 << v for v in dropped)
        return _derived(
            {v: mask & kept for v, mask in self._adj.items() if v not in dropped}
        )

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present")
        adj = dict(self._adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return _derived(adj)

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        adj = dict(self._adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return _derived(adj)

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Merge the endpoints of an edge whose ends share no neighbour.

        The merged vertex keeps the id min(u, v); the id max(u, v) is gone.
        """
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        if self._adj[u] & self._adj[v]:
            raise ValueError(
                f"contracting ({u}, {v}) would create a parallel edge"
            )
        a, b = edge(u, v)
        a_bit, b_bit = 1 << a, 1 << b
        adj = dict(self._adj)
        del adj[b]
        adj[a] = (self._adj[a] | self._adj[b]) & ~a_bit & ~b_bit
        for w in _bits(self._adj[b] & ~a_bit):
            adj[w] = adj[w] & ~b_bit | a_bit
        return _derived(adj)

    def induced_even_subgraph(self) -> "Graph":
        """Subgraph induced by the vertices of even degree."""
        return self.delete_vertices(
            v for v, mask in self._adj.items() if mask.bit_count() % 2 == 1
        )

    # -- predicates --------------------------------------------------------

    def is_forest(self) -> bool:
        return self.m == self.n - len(self.components())

    def is_odd_semi_clique(self) -> bool:
        """True for a clique on 2k+1 vertices minus at most k-1 edges."""
        if self.n < 3 or self.n % 2 == 0:
            return False
        k = (self.n - 1) // 2
        return self.m >= self.n * (self.n - 1) // 2 - (k - 1)


def _derived(adj: dict[int, int]) -> Graph:
    """Graph on ``adj`` (ids ascending, symmetric), built without the
    checks of ``Graph.__init__``: every caller derives it from a valid
    graph."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", len(adj))
    object.__setattr__(g, "_adj", adj)
    return g


def _bits(mask: int, offset: int = 0) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1 + offset
        mask ^= low
