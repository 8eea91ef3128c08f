"""Shared graph builders and corpus generators for the tests."""

from __future__ import annotations

import itertools
import random
from collections import Counter

from gallai import (
    Graph,
    Path,
    PathDecomposition,
    VerifyReport,
    Violation,
    canonical_form,
    verify,
)
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
    """A random simple 3-regular graph on ``n`` (even) vertices."""
    return random_regular_graph(rng, n, 3)


def random_regular_graph(rng: random.Random, n: int, degree: int) -> Graph:
    """A random simple ``degree``-regular graph on ``n`` vertices: random
    pairings of ``degree`` stubs per vertex, drawn until one has no loop or
    double edge."""
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = {edge(a, b) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(edges) == degree * n // 2 and all(a != b for a, b in edges):
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


def random_c5_satellites(rng: random.Random) -> Graph | None:
    """A triangle 0-1-2 with two pendant tree blobs at each corner, each
    corner's two anchors joined with probability 0.67, or None when the
    draw is not a simple connected graph of max degree <= 5.  Solved from
    the explicit occurrence C5(0, 1, 2), such graphs reach the C5
    hub_contraction and bridge_spread lifts that detection shadows."""

    def blob(attach_id, next_id):
        size = rng.randrange(1, 5)
        ids = [next_id + i for i in range(size)]
        edges = [(attach_id, ids[0])]
        for i in range(1, size):
            edges.append((ids[rng.randrange(i)], ids[i]))
        return edges, next_id + size

    edges = [(0, 1), (0, 2), (1, 2)]
    nid = 3
    anchors: dict[int, list[int]] = {0: [], 1: [], 2: []}
    for corner in (0, 1, 2):
        for _ in range(2):
            anchors[corner].append(nid)
            edges.append((corner, nid))
            nid += 1
            more, nid = blob(nid - 1, nid)
            edges += more
    if rng.random() < 0.67:
        a, b = anchors[rng.randrange(3)]
        edges.append((a, b))
    try:
        g = Graph.from_edges(nid, sorted({(min(a, b), max(a, b)) for a, b in edges}))
    except ValueError:
        return None
    if g.max_degree() > 5 or not g.is_connected():
        return None
    return g


# -- reference detectors and solver -------------------------------------------
#
# The detectors as they were before their degree pre-filters, and the
# recursive solver with its tuple-rebuilding lifts as it was before the
# work stack and the path store.  ``solve`` and the detectors must agree
# with them exactly: same occurrence, same paths in the same order and
# orientation, same trace.


def reference_detect_c2(g: Graph):
    from gallai.reductions import C2

    for u, v in sorted(g.bridges()):
        if g.degree(u) % 2 == 0 and g.degree(v) % 2 == 0:
            return C2(u, v)
    return None


def reference_detect_c5(g: Graph):
    from gallai.reductions import C5

    for a in g.vertices():
        for b in g.neighbors(a):
            if b <= a:
                continue
            for c in g.common_neighbors(a, b):
                if c <= b:
                    continue
                degrees = {x: g.degree(x) for x in (a, b, c)}
                if any(d not in (2, 4) for d in degrees.values()):
                    continue
                fours = [x for x in (a, b, c) if degrees[x] == 4]
                if not fours:
                    continue
                u = fours[0]
                v, w = sorted({a, b, c} - {u})
                return C5(u, v, w)
    return None


def reference_solve(g: Graph, budget: int | None = None):
    """``solve`` as a recursion of two frames per reduction, lifting with
    ``reference_lift``."""
    from gallai.solver import SolveResult, SolveTrace, check_input

    check_input(g)
    steps: list = []
    bases: list[str] = []
    d = _reference_solve(g, budget, steps, bases)
    report = verify(g, d)
    assert report.valid and report.good, report
    return SolveResult(d, SolveTrace(tuple(steps), tuple(bases)), True)


def _reference_solve(g, budget, steps, bases):
    from gallai.reductions import check_structure, detect, is_exceptional_clique, reduce
    from gallai.solver import ReductionStep, _clique_decomposition, solve_base

    if g.m == 0:
        bases.append("trivial")
        return PathDecomposition(())
    if is_exceptional_clique(g):
        bases.append(f"K{g.n}")
        return _clique_decomposition(g)
    occ = detect(g)
    if occ is None:
        assert check_structure(g)
        k = (g.n + 1) // 2
        d = solve_base(g, k, budget)
        assert d is not None
        bases.append(f"search(k={k})")
        return d
    plan = reduce(g, occ)
    steps.append(ReductionStep(g.n, plan.tag, plan.subcase))
    decomps = [_reference_solve(c.graph, budget, steps, bases) for c in plan.children]
    return reference_lift(occ, plan, decomps)


def reference_lift(occ, plan, decomps) -> PathDecomposition:
    """Lift by the plan's sub-case recipe bound to the same vertices, each
    recipe rebuilding path tuples, and verify the result in full."""
    from gallai.reductions import LiftError

    assert occ.tag == plan.tag and len(decomps) == len(plan.children)
    name = plan.rewrite.func.__name__
    args = plan.rewrite.args
    if name == "_lift_c5_hub":
        args = (plan.parent, *args)
    total = sum(len(d) for d in decomps)
    lo, hi = plan.gain
    try:
        lifted = _REFERENCE_RECIPES[name](*args, decomps)
    except ValueError as exc:
        raise LiftError(f"{plan.tag}/{plan.subcase} recipe failed: {exc}") from exc
    report = verify(plan.parent, lifted)
    if not report.valid:
        raise LiftError(f"lifted decomposition invalid:\n{report}")
    if not (total + lo <= len(lifted) <= total + hi):
        raise LiftError(f"{plan.tag}/{plan.subcase} produced {len(lifted)} paths")
    if not report.good:
        raise LiftError(f"{plan.tag}/{plan.subcase} lost goodness")
    return lifted


def _ref_paths_ending_at(d, v):
    return [p for p in d.paths if v in p.ends]


def _ref_find_edge_index(d, e):
    from gallai.reductions import LiftError

    a, b = e
    hits = [
        (i, j)
        for i, p in enumerate(d.paths)
        if a in p.vertices and b in p.vertices
        for j, f in enumerate(p.edges())
        if f == e
    ]
    if len(hits) != 1:
        raise LiftError(f"edge {e} occurs {len(hits)} times in the decomposition")
    return hits[0]


def _ref_path_with_edge(d, e):
    return d.paths[_ref_find_edge_index(d, e)[0]]


def _ref_replace_edge(d, e, via):
    i, j = _ref_find_edge_index(d, e)
    vs = d.paths[i].vertices
    middle = via if via[0] == vs[j] else via[::-1]
    merged = vs[:j] + middle + vs[j + 2 :]
    if len(set(merged)) != len(merged):
        raise ValueError("replacement does not leave a simple path")
    return PathDecomposition(d.paths[:i] + (Path(merged),) + d.paths[i + 1 :])


def _ref_apply_routes(d, routes):
    for route in routes:
        d = _ref_replace_edge(d, edge(route[0], route[-1]), route)
    return d


def _ref_split_on_edge(p, e):
    vs = p.vertices
    for i in range(len(vs) - 1):
        if edge(vs[i], vs[i + 1]) == e:
            return vs[: i + 1], vs[i + 1 :]
    raise AssertionError(f"edge {e} not on path {vs}")


def _ref_oriented(p, first=None, last=None):
    vs = p.vertices
    if first is not None:
        return vs if vs[0] == first else vs[::-1]
    return vs if vs[-1] == last else vs[::-1]


def _ref_lift_routes(children, added, decomps):
    paths: tuple = ()
    for child, d in zip(children, decomps):
        paths += _ref_apply_routes(d, child.routes).paths
    return PathDecomposition(paths + tuple(Path(r) for r in added))


def _ref_lift_c2(u, v, decomps):
    du, dv = decomps
    ends_u = _ref_paths_ending_at(du, u)
    ends_v = _ref_paths_ending_at(dv, v)
    pu, pv = ends_u[0], ends_v[0]
    joined = Path(_ref_oriented(pu, last=u) + _ref_oriented(pv, first=v))
    rest_u = tuple(p for p in du.paths if p != pu)
    rest_v = tuple(p for p in dv.paths if p != pv)
    return PathDecomposition(rest_u + rest_v + (joined,))


def _ref_lift_c3_sparse_with_bridge(routes, decomps):
    (x, v, ve), (ue, u, y), _ = routes
    d = decomps[0]
    host = _ref_path_with_edge(d, edge(x, y))
    hv = host.vertices
    if hv.index(x) > hv.index(y):
        hv = hv[::-1]
    i = hv.index(x)
    before_is_ve = i > 0 and hv[i - 1] == ve
    after_is_ue = i + 2 < len(hv) and hv[i + 2] == ue
    rest = tuple(p for p in d.paths if p != host)
    if before_is_ve and after_is_ue:
        part_a = Path(hv[: i - 1] + (ve, v, x, u, y))
        part_b = Path((y, v, u, ue) + hv[i + 3 :])
        return PathDecomposition(rest + (part_a, part_b))
    if before_is_ve:
        part_a = Path(hv[: i - 1] + (ve, v, x, u))
        part_b = Path((u, v, y) + hv[i + 2 :])
        d = PathDecomposition(rest + (part_a, part_b))
        return _ref_replace_edge(d, edge(ue, y), (ue, u, y))
    if after_is_ue:
        part_a = Path(hv[i + 3 :][::-1] + (ue, u, y, v))
        part_b = Path((v, u, x) + hv[:i][::-1])
        d = PathDecomposition(rest + (part_a, part_b))
        return _ref_replace_edge(d, edge(ve, x), (x, v, ve))
    return _ref_apply_routes(d, routes)


def _ref_lift_c4_hub(hub, other, t1, t2, t3, decomps):
    pair, rest = decomps
    host = _ref_path_with_edge(pair, edge(t1, t2))
    left, right = _ref_split_on_edge(host, edge(t1, t2))
    if left[-1] == t1:
        t1_part, t2_part = left, right[::-1]
    else:
        t1_part, t2_part = right[::-1], left
    q = _ref_paths_ending_at(rest, other)[0]
    first = Path(t1_part + (hub,) + _ref_oriented(q, first=other))
    second = Path(t2_part + (hub, t3))
    keep_pair = tuple(p for p in pair.paths if p != host)
    keep_rest = tuple(p for p in rest.paths if p != q)
    return PathDecomposition(keep_pair + keep_rest + (first, second))


def _ref_lift_c5_triangle(u, v, trio, child, decomps):
    d = decomps[0]

    def holder(e):
        return _ref_find_edge_index(d, e)[0]

    roles = None
    for wr, xr, yr in itertools.permutations(trio):
        if child.degree(wr) != 2:
            continue
        if holder(edge(xr, wr)) == holder(edge(wr, yr)):
            continue
        if holder(edge(xr, yr)) == holder(edge(wr, yr)):
            continue
        roles = (wr, xr, yr)
        break
    if roles is None:
        return _ref_lift_c5_triangle_repair(u, v, trio, d)
    wr, xr, yr = roles
    q_old = _ref_path_with_edge(d, edge(xr, wr))
    q_vertices = _ref_oriented(q_old, last=wr)
    assert q_vertices[-2] == xr
    q_new = Path(q_vertices[:-1] + (u,))
    d = PathDecomposition(tuple(q_new if p == q_old else p for p in d.paths))
    p_old = _ref_path_with_edge(d, edge(xr, yr))
    left, right = _ref_split_on_edge(p_old, edge(xr, yr))
    if left[-1] == xr:
        x_part, y_part = left, right
    else:
        x_part, y_part = right[::-1], left[::-1]
    p1 = Path(x_part + (yr, v, wr))
    p2 = Path(y_part[::-1] + (u, v, xr, wr))
    r_old = _ref_path_with_edge(d, edge(yr, wr))
    assert r_old != p_old
    r_new = Path(_ref_oriented(r_old, last=wr) + (u,))
    remaining = tuple(p for p in d.paths if p not in (p_old, r_old))
    return PathDecomposition(remaining + (p1, p2, r_new))


def _ref_lift_c5_triangle_repair(u, v, trio, translated):
    from gallai.search import cover_with_paths

    tri_edges = {edge(p, q) for p, q in itertools.combinations(trio, 2)}
    hosts = []
    for p in translated.paths:
        if tri_edges & set(p.edges()) and p not in hosts:
            hosts.append(p)
    fresh = {edge(u, v)} | {edge(u, t) for t in trio} | {edge(v, t) for t in trio}
    pool = frozenset({e for host in hosts for e in host.edges()} | fresh)
    cover = cover_with_paths(pool, len(hosts) + 1, budget=2_000_000)
    assert cover is not None
    kept = tuple(p for p in translated.paths if p not in hosts)
    return PathDecomposition(kept + tuple(Path(seq) for seq in cover))


def _ref_lift_c5_degree_two(u, v, w, x1, x2, decomps):
    old = min(u, w)
    d = PathDecomposition(
        tuple(Path(tuple(w if x == old else x for x in p.vertices)) for p in decomps[0])
    )
    hinge = None
    for p in d.paths:
        for i, vertex in enumerate(p.vertices):
            if vertex != w:
                continue
            around = {p.vertices[j] for j in (i - 1, i + 1) if 0 <= j < len(p)}
            if around == {x1, x2}:
                hinge = p
    if hinge is None:
        d = _ref_replace_edge(d, edge(w, x1), (w, u, x1))
        return _ref_replace_edge(d, edge(w, x2), (w, v, u, x2))
    at = hinge.vertices.index(w)
    first = Path(hinge.vertices[:at] + (u, w))
    second = Path((w, v, u) + hinge.vertices[at + 1 :])
    rest = tuple(p for p in d.paths if p != hinge)
    return PathDecomposition(rest + (first, second))


def _ref_lift_c5_hub(g, u, v, w, x1, x2, decomps):
    from gallai.reductions import _edges_as_path

    s = min(v, w)
    v_side = set(g.neighbors(v)) - {u, w}
    w_side = set(g.neighbors(w)) - {u, v}

    def side(vertex):
        if vertex == x2:
            return "x"
        if vertex in v_side:
            return "v"
        assert vertex in w_side
        return "w"

    crossings = 0
    translated = []
    for p in decomps[0].paths:
        vertices: list[int] = []
        for i, cv in enumerate(p.vertices):
            if cv != s:
                vertices.append(cv)
                continue
            before = p.vertices[i - 1] if i > 0 else None
            after = p.vertices[i + 1] if i + 1 < len(p) else None
            if before is not None and after is not None:
                kinds = (side(before), side(after))
                if kinds in (("v", "w"), ("w", "v")):
                    crossings += 1
                    assert crossings <= 2
                    detour = (v, w) if crossings == 1 else (v, u, w)
                    if kinds[0] == "w":
                        detour = detour[::-1]
                    vertices.extend(detour)
                elif "x" in kinds:
                    t_kind = kinds[1] if kinds[0] == "x" else kinds[0]
                    corner = v if t_kind == "v" else w
                    vertices.extend((u, corner) if kinds[0] == "x" else (corner, u))
                else:
                    vertices.append(v if kinds[0] == "v" else w)
            else:
                kind = side(after if before is None else before)
                vertices.append({"x": u, "v": v, "w": w}[kind])
        translated.append(Path(tuple(vertices)))
    d = PathDecomposition(tuple(translated))
    covered = {e for p in d.paths for e in p.edges()}
    residual = {e for e in g.edges() if e not in covered}
    assert edge(u, x1) in residual
    sequence = _edges_as_path(residual)
    if sequence is None:
        d, residual = _ref_extend_into_residual(d, residual, (u, v, w))
        sequence = _edges_as_path(residual)
        assert sequence is not None
    return PathDecomposition(d.paths + (Path(sequence),))


def _ref_extend_into_residual(d, residual, corners):
    from gallai.reductions import _edges_as_path

    u, v, w = corners
    for i, host in enumerate(d.paths):
        for endpoint in dict.fromkeys(host.ends):
            if endpoint not in corners:
                continue
            for candidate in (edge(w, u), edge(w, v)):
                if candidate not in residual or endpoint not in candidate:
                    continue
                other = candidate[0] if candidate[1] == endpoint else candidate[1]
                if other in host:
                    continue
                if _edges_as_path(residual - {candidate}) is None:
                    continue
                vs = host.vertices
                grown = vs + (other,) if vs[-1] == endpoint else (other,) + vs
                paths = d.paths[:i] + (Path(grown),) + d.paths[i + 1 :]
                return PathDecomposition(paths), residual - {candidate}
    raise AssertionError("no corner extension straightens the residual")


_REFERENCE_RECIPES = {
    "_lift_routes": _ref_lift_routes,
    "_lift_c2": _ref_lift_c2,
    "_lift_c3_sparse_with_bridge": _ref_lift_c3_sparse_with_bridge,
    "_lift_c4_hub": _ref_lift_c4_hub,
    "_lift_c5_triangle": _ref_lift_c5_triangle,
    "_lift_c5_degree_two": _ref_lift_c5_degree_two,
    "_lift_c5_hub": _ref_lift_c5_hub,
}
