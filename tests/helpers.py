"""Shared graph builders and corpus generators for the tests."""

from __future__ import annotations

import itertools
import random
from collections import Counter

from gallai import Graph, PathDecomposition, VerifyReport, Violation, canonical_form
from gallai.census import canonical_graph
from gallai.graphs import edge


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def two_cliques_with_bridge(k: int = 4) -> Graph:
    edges = list(itertools.combinations(range(k), 2))
    edges += [(a + k, b + k) for a, b in itertools.combinations(range(k), 2)]
    edges.append((0, k))
    return Graph.from_edges(2 * k, edges)


def reference_verify(g: Graph, d: PathDecomposition) -> VerifyReport:
    """The straightforward verifier ``paths.verify`` must agree with,
    report for report: every step goes through ``has_edge`` and every edge
    of the graph is looked up."""
    violations: list[Violation] = []
    used: Counter = Counter()
    vertices = g.vertices()
    for i, p in enumerate(d.paths):
        seen: set[int] = set()
        for v in p.vertices:
            if v in seen:
                violations.append(
                    Violation("repeated_vertex", f"path {i} revisits {v}")
                )
            seen.add(v)
        for a, b in zip(p.vertices, p.vertices[1:]):
            ok = a in vertices and b in vertices and g.has_edge(a, b)
            if not ok:
                violations.append(
                    Violation("non_edge", f"path {i} steps over ({a}, {b})")
                )
            else:
                used[edge(a, b)] += 1
    for e in sorted(e for e, count in used.items() if count > 1):
        violations.append(
            Violation("duplicate_edge", f"edge {e} covered {used[e]} times")
        )
    for e in g.edges():
        if e not in used:
            violations.append(Violation("uncovered_edge", f"edge {e} uncovered"))
    valid = not violations
    good = valid and len(d.paths) <= (g.n + 1) // 2
    return VerifyReport(valid, tuple(violations), len(d.paths), good)


_reference_census: dict[tuple[int, int], tuple[Graph, ...]] = {}


def reference_enumerate(n: int, max_deg: int) -> tuple[Graph, ...]:
    """The straightforward enumerator ``census.enumerate_connected`` must
    agree with, tuple for tuple: it extends every graph of the order below
    by a new vertex in every allowed way, labels every child canonically
    and keeps one graph per canonical form."""
    key = (n, max_deg)
    if key in _reference_census:
        return _reference_census[key]
    if n == 1:
        result = (Graph(1, [0]),)
    else:
        found: dict[str, Graph] = {}
        new = n - 1
        for parent in reference_enumerate(n - 1, max_deg):
            open_mask = 0
            for v in range(parent.n):
                if parent.degree(v) < max_deg:
                    open_mask |= 1 << v
            base = [parent.neighbor_mask(v) for v in range(parent.n)]
            for subset in range(1, 1 << parent.n):
                if subset & ~open_mask or subset.bit_count() > max_deg:
                    continue
                masks = base.copy()
                masks.append(subset)
                for v in range(parent.n):
                    if subset >> v & 1:
                        masks[v] |= 1 << new
                child = Graph(n, masks)
                form = canonical_form(child)
                if form not in found:
                    found[form] = canonical_graph(child)
        result = tuple(found[form] for form in sorted(found))
    _reference_census[key] = result
    return result


def delete_edges(g: Graph, edges) -> Graph:
    for a, b in edges:
        g = g.delete_edge(a, b)
    return g


def random_connected_graph(
    rng: random.Random, lo: int = 10, hi: int = 20, max_deg: int = 5
) -> Graph | None:
    """A random connected graph with bounded degrees: a random tree plus a
    random number of extra edges."""
    n = rng.randrange(lo, hi + 1)
    edges: set[tuple[int, int]] = set()
    deg = [0] * n
    for v in range(1, n):
        candidates = [u for u in range(v) if deg[u] < max_deg]
        if not candidates:
            return None
        u = rng.choice(candidates)
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for _ in range(rng.randrange(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        e = (min(a, b), max(a, b))
        if e in edges or deg[a] >= max_deg or deg[b] >= max_deg:
            continue
        edges.add(e)
        deg[a] += 1
        deg[b] += 1
    return Graph.from_edges(n, sorted(edges))


def random_cubic_graph(rng: random.Random, n: int) -> Graph:
    """A random simple 3-regular graph on ``n`` (even) vertices: random
    pairings of three stubs per vertex, drawn until one has no loop or
    double edge."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {edge(a, b) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return Graph.from_edges(n, sorted(edges))


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices (for oracle cross-checks)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


def subcase_fixtures():
    """One graph per reduction sub-case.

    Entries are (graph, occurrence, tag, subcase); occurrence None means the
    detector's own pick is the wanted one.  The last three C5 cases are
    shadowed by the detection priority (such graphs always contain a C4
    too), so they carry explicit occurrences.
    """
    from gallai.reductions import C5

    k5 = complete_graph(5)
    fixtures = [
        (cycle(4), None, "C1", "splice"),
        (two_cliques_with_bridge(), None, "C2", "join"),
        (
            Graph.from_edges(
                6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)]
            ),
            None, "C3", "sparse_ring",
        ),
        (
            Graph.from_edges(6, [
                (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5),
                (2, 4), (4, 3), (3, 5), (5, 2),
            ]),
            None, "C3", "full_ring",
        ),
        (
            Graph.from_edges(6, [
                (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5),
                (2, 4), (4, 3),
            ]),
            None, "C3", "partial_ring",
        ),
        (
            Graph.from_edges(5, [
                (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4),
            ]),
            None, "C4", "triple_common",
        ),
        (
            Graph.from_edges(12, [
                (0, 1), (0, 2), (0, 3), (0, 4),
                (2, 5), (2, 6), (5, 6),
                (3, 7), (3, 8), (7, 8),
                (1, 9), (1, 10), (1, 11),
                (4, 9), (4, 10), (9, 10),
            ]),
            None, "C4", "hub_split",
        ),
        (
            Graph.from_edges(12, [
                (0, 1), (0, 2), (1, 2),
                (0, 3), (3, 4), (4, 1), (3, 5), (4, 5),
                (0, 6), (6, 8), (6, 9), (8, 9),
                (1, 7), (7, 10), (7, 11), (10, 11),
            ]),
            None, "C4", "four_components",
        ),
        (
            Graph.from_edges(8, [
                (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7),
                (2, 5), (2, 6), (3, 5), (3, 6), (4, 7), (2, 7), (4, 5),
            ]),
            None, "C4", "paired_nonedges",
        ),
        (
            Graph.from_edges(
                5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
            ),
            C5(0, 1, 2), "C5", "two_gaps",
        ),
        (k5.delete_edge(3, 4), None, "C5", "one_gap"),
        (
            Graph.from_edges(6, list(k5.edges()) + [(3, 5)]),
            None, "C5", "common_triangle",
        ),
        (
            Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)]),
            None, "C5", "degree_two",
        ),
        (
            Graph.from_edges(9, [
                (0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                (1, 5), (1, 6), (2, 7), (2, 8),
            ]),
            C5(0, 1, 2), "C5", "hub_contraction",
        ),
        (
            Graph.from_edges(9, [
                (0, 1), (0, 2), (1, 2), (0, 3), (0, 4),
                (1, 5), (1, 6), (2, 7), (2, 8),
            ]),
            C5(0, 1, 2), "C5", "bridge_spread",
        ),
    ]
    return fixtures


class MaskGraph:
    """The adjacency-mask graph that ``Graph`` must agree with, query for
    query and error message for error message: one big-int neighbour mask
    per vertex id, every count and list recomputed from the masks."""

    def __init__(self, n: int, adj_masks) -> None:
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
            for u in _mask_bits(mask):
                if not adj_masks[u] & (1 << v):
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        self.adj = dict(enumerate(adj_masks))

    @classmethod
    def from_edges(cls, n: int, edges) -> "MaskGraph":
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

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.adj.values()) // 2

    def neighbor_mask(self, v: int) -> int:
        try:
            return self.adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} is not in the graph") from None

    def degree(self, v: int) -> int:
        return self.neighbor_mask(v).bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return _mask_bits(self.neighbor_mask(v))

    def has_edge(self, u: int, v: int) -> bool:
        self.neighbor_mask(v)
        return bool(self.neighbor_mask(u) & (1 << v))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, mask in self.adj.items()
                for v in _mask_bits(mask) if v > u]

    def common_neighbors(self, u: int, v: int) -> tuple[int, ...]:
        if u == v:
            raise ValueError("common neighbours of a vertex with itself")
        return _mask_bits(self.neighbor_mask(u) & self.neighbor_mask(v))

    def components(self) -> list[tuple[int, ...]]:
        seen = 0
        out = []
        for start in self.adj:
            if seen >> start & 1:
                continue
            comp = frontier = 1 << start
            while frontier:
                grown = 0
                for v in _mask_bits(frontier):
                    grown |= self.adj[v]
                frontier = grown & ~comp
                comp |= grown
            seen |= comp
            out.append(_mask_bits(comp))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def bridges(self) -> set[tuple[int, int]]:
        """Edges whose removal adds a component, by removing each one."""
        parts = len(self.components())
        return {e for e in self.edges()
                if len(self.delete_edge(*e).components()) > parts}

    def _derived(self, adj: dict[int, int]) -> "MaskGraph":
        g = object.__new__(MaskGraph)
        g.adj = adj
        return g

    def delete_vertices(self, drop) -> "MaskGraph":
        dropped = set(drop)
        unknown = dropped - self.adj.keys()
        if unknown:
            raise ValueError(f"vertices {sorted(unknown)} are not in the graph")
        kept = ~sum(1 << v for v in dropped)
        return self._derived(
            {v: mask & kept for v, mask in self.adj.items() if v not in dropped}
        )

    def add_edge(self, u: int, v: int) -> "MaskGraph":
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present")
        adj = dict(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return self._derived(adj)

    def delete_edge(self, u: int, v: int) -> "MaskGraph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        adj = dict(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return self._derived(adj)

    def contract_edge(self, u: int, v: int) -> "MaskGraph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        if self.adj[u] & self.adj[v]:
            raise ValueError(
                f"contracting ({u}, {v}) would create a parallel edge"
            )
        a, b = edge(u, v)
        adj = dict(self.adj)
        del adj[b]
        adj[a] = (self.adj[a] | self.adj[b]) & ~(1 << a) & ~(1 << b)
        for w in _mask_bits(self.adj[b] & ~(1 << a)):
            adj[w] = adj[w] & ~(1 << b) | 1 << a
        return self._derived(adj)


def _mask_bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
