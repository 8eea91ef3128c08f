"""Reducible configurations: detection, reduction, and decomposition lifting.

Five local patterns make a connected graph of maximum degree at most five
reducible: a smaller graph (or several) can be solved instead, and any good
decomposition of the pieces can be rewritten into a good decomposition of
the original graph.

C1  a degree-2 vertex whose two neighbours are not adjacent;
C2  a cut edge whose endpoints both have even degree;
C3  an edge between two degree-4 vertices with exactly two common
    neighbours;
C4  an edge between two degree-4 vertices whose side neighbourhoods each
    contain a non-adjacent pair, with distinct leftover vertices;
C5  a triangle with one degree-4 corner and the other corners of degree 2
    or 4.

``detect`` scans under the priority C1 < C2 < C3 < C4 < C5 with
ascending-id tie-breaking.  The priority is load-bearing: the C4 and C5
rewrite recipes are only guaranteed to apply when the earlier
configurations are absent, so ``reduce`` re-checks the facts it relies on
and fails loudly rather than patching around a priority violation.

``reduce`` takes a connected parent and checks each child at its
boundary.  A child is the parent minus a removed set S plus synthetic
edges among the kept vertices (a contraction is the same, with the merged
vertex as the end of its synthetic edges).  Lemma: every kept vertex then
reaches the boundary B = N(S) minus S without leaving the kept vertices,
so the child is connected exactly when B lies in one of its components,
and only the vertices of B change degree.  One search from a vertex of B
that stops once it has seen all of B certifies the child, and where a
reduction splits the remainder into sides, ``Graph.split`` searches from
every vertex of B in lockstep and stops before it walks the largest side.

Each reduction records a ``LiftPlan`` naming the sub-case it chose, with
one interface for every sub-case: a ``rewrite`` that edits a ``PathStore``
holding the children's paths into a decomposition of the parent, and the
``gain`` range of paths that rewrite adds, both bound where the sub-case is
built.  In eight of the twelve sub-cases the rewrite is ``_lift_routes``
bound to the children and a few added paths: every synthetic child edge is
stated as its route through the removed vertices and spliced in place of
that edge.  The other four, and the sparse ring when it needs the x-y
bridge, bind a recipe of their own to the vertices it reads; the C5
contraction rebuilds only the paths through the merged vertex.

``lift`` takes one ``PathStore`` per child, as ``PathStore.load`` checks
a decomposition in or an earlier ``lift`` leaves it.  The store checks
every edit against the parent, so ``lift`` only has to check that no
synthetic child edge is left, that the parent's ``m`` edges are covered,
the gain and the path bound: O(|edit|) work per level instead of a
verification of the whole parent.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterator, Union

from .graphs import Edge, Graph, edge
from .paths import Path, PathStore, spliced
# imported only so the benchmark's tracer can hook ``reductions.verify``
from .paths import verify  # noqa: F401
from .search import cover_with_paths


class ReductionError(RuntimeError):
    """An occurrence failed validation or no rewrite sub-case applies."""


class LiftError(ReductionError):
    """A lift recipe's precondition failed; never silently repaired."""


# -- occurrences -----------------------------------------------------------


@dataclass(frozen=True)
class C1:
    """Degree-2 vertex ``u`` with non-adjacent neighbours ``v`` and ``w``."""

    u: int
    v: int
    w: int
    tag = "C1"

    def validate(self, g: Graph) -> None:
        if g.degree(self.u) != 2 or set(g.neighbors(self.u)) != {self.v, self.w}:
            raise ReductionError(f"{self} does not match the neighbourhood")
        if g.has_edge(self.v, self.w):
            raise ReductionError(f"{self}: neighbours are adjacent")


@dataclass(frozen=True)
class C2:
    """Cut edge ``uv`` whose two endpoint degrees are both even."""

    u: int
    v: int
    tag = "C2"

    def validate(self, g: Graph) -> None:
        if not g.has_edge(self.u, self.v):
            raise ReductionError(f"{self} is not an edge")
        if g.degree(self.u) % 2 or g.degree(self.v) % 2:
            raise ReductionError(f"{self}: endpoint of odd degree")
        if not g.is_bridge(self.u, self.v):
            raise ReductionError(f"{self} is not a cut edge")


@dataclass(frozen=True)
class C3:
    """Edge ``uv``, both ends of degree 4, with exactly two common
    neighbours ``x`` and ``y``; ``u_extra``/``v_extra`` are the remaining
    private neighbours."""

    u: int
    v: int
    x: int
    y: int
    u_extra: int
    v_extra: int
    tag = "C3"

    def validate(self, g: Graph) -> None:
        if not g.has_edge(self.u, self.v):
            raise ReductionError(f"{self} is not an edge")
        if g.degree(self.u) != 4 or g.degree(self.v) != 4:
            raise ReductionError(f"{self}: degrees are not both 4")
        if set(g.common_neighbors(self.u, self.v)) != {self.x, self.y}:
            raise ReductionError(f"{self}: common neighbours mismatch")
        if set(g.neighbors(self.u)) != {self.v, self.x, self.y, self.u_extra}:
            raise ReductionError(f"{self}: u_extra mismatch")
        if set(g.neighbors(self.v)) != {self.u, self.x, self.y, self.v_extra}:
            raise ReductionError(f"{self}: v_extra mismatch")


@dataclass(frozen=True)
class C4:
    """Edge ``uv`` with both degrees 4, ``t1..t3``/``w1..w3`` the other
    neighbours of ``u``/``v``, where ``t1 t2`` and ``w1 w2`` are non-edges
    and ``t3 != w3``."""

    u: int
    v: int
    t1: int
    t2: int
    t3: int
    w1: int
    w2: int
    w3: int
    tag = "C4"

    def validate(self, g: Graph) -> None:
        if not g.has_edge(self.u, self.v):
            raise ReductionError(f"{self} is not an edge")
        if g.degree(self.u) != 4 or g.degree(self.v) != 4:
            raise ReductionError(f"{self}: degrees are not both 4")
        if set(g.neighbors(self.u)) != {self.v, self.t1, self.t2, self.t3}:
            raise ReductionError(f"{self}: t-side mismatch")
        if set(g.neighbors(self.v)) != {self.u, self.w1, self.w2, self.w3}:
            raise ReductionError(f"{self}: w-side mismatch")
        if g.has_edge(self.t1, self.t2) or g.has_edge(self.w1, self.w2):
            raise ReductionError(f"{self}: named non-edge is present")
        if self.t3 == self.w3:
            raise ReductionError(f"{self}: leftover vertices coincide")


@dataclass(frozen=True)
class C5:
    """Triangle ``uvw`` with degree(u) = 4 and the other two corners of
    degree 2 or 4."""

    u: int
    v: int
    w: int
    tag = "C5"

    def validate(self, g: Graph) -> None:
        for a, b in ((self.u, self.v), (self.u, self.w), (self.v, self.w)):
            if not g.has_edge(a, b):
                raise ReductionError(f"{self} is not a triangle")
        if g.degree(self.u) != 4:
            raise ReductionError(f"{self}: degree(u) != 4")
        for corner in (self.v, self.w):
            if g.degree(corner) not in (2, 4):
                raise ReductionError(f"{self}: corner degree not in {{2, 4}}")


Occurrence = Union[C1, C2, C3, C4, C5]

SUBCASES = {
    "C1": ("splice",),
    "C2": ("join",),
    "C3": ("sparse_ring", "full_ring", "partial_ring"),
    "C4": ("triple_common", "hub_split", "four_components", "paired_nonedges"),
    # two_gaps, hub_contraction and bridge_spread are never produced: a C4
    # comes first (the lemma of ``_reduce_c5``)
    "C5": (
        "two_gaps",
        "one_gap",
        "common_triangle",
        "degree_two",
        "hub_contraction",
        "bridge_spread",
    ),
}


# -- detection -------------------------------------------------------------


def detect_c1(g: Graph) -> C1 | None:
    adj = g.adjacency()
    for u, nbrs in adj.items():
        if len(nbrs) == 2:
            v, w = nbrs
            if w not in adj[v]:
                return C1(u, v, w)
    return None


def detect_c2(g: Graph) -> C2 | None:
    adj = g.adjacency()
    if not _has_even_edge(adj):
        return None  # no edge has two even ends, so no bridge is wanted
    even = [
        (u, v) for u, v in g.bridges()
        if not len(adj[u]) % 2 and not len(adj[v]) % 2
    ]
    return C2(*min(even)) if even else None


def _has_even_edge(adj: Mapping[int, tuple[int, ...]]) -> bool:
    """Whether some edge has two ends of even degree."""
    for nbrs in adj.values():
        if not len(nbrs) % 2:
            for w in nbrs:
                if not len(adj[w]) % 2:
                    return True
    return False


def detect_c3(g: Graph) -> C3 | None:
    adj = g.adjacency()
    for u, nu in adj.items():
        if len(nu) != 4:
            continue
        a, b, c, d = nu
        for v in nu:
            if v < u:
                continue
            nv = adj[v]
            # v is one of a..d but not in nv: the sum counts the common ones
            if len(nv) == 4 and (a in nv) + (b in nv) + (c in nv) + (d in nv) == 2:
                x, y = (w for w in nu if w in nv)
                (u_extra,) = (w for w in nu if w != v and w not in nv)
                (v_extra,) = (w for w in nv if w != u and w not in nu)
                return C3(u, v, x, y, u_extra, v_extra)
    return None


def detect_c4(g: Graph) -> C4 | None:
    adj = g.adjacency()
    for u, nu in adj.items():
        if len(nu) != 4:
            continue
        for v in nu:
            if v > u and len(adj[v]) == 4:
                for labelling in _c4_labellings(adj, u, v):
                    return C4(u, v, *labelling)
    return None


def _c4_labellings(
    adj: Mapping[int, tuple[int, ...]], u: int, v: int
) -> Iterator[tuple[int, ...]]:
    """Every ``(t1, t2, t3, w1, w2, w3)`` naming a C4 at the edge uv of
    two degree-4 vertices, in ascending order of the non-adjacent pairs."""
    nu, nv = adj[u], adj[v]
    # the other neighbours, ascending, and the pairs of each side in the
    # order of itertools.combinations, each with its leftover
    i, k = nu.index(v), nv.index(u)
    t1, t2, t3 = nu[:i] + nu[i + 1:]
    w1, w2, w3 = nv[:k] + nv[k + 1:]
    for p, q, r in ((t1, t2, t3), (t1, t3, t2), (t2, t3, t1)):
        if q in adj[p]:
            continue
        for s, t, z in ((w1, w2, w3), (w1, w3, w2), (w2, w3, w1)):
            if t not in adj[s] and r != z:
                yield p, q, r, s, t, z


def detect_c5(g: Graph) -> C5 | None:
    adj = g.adjacency()
    for a, na in adj.items():
        da = len(na)
        if da != 2 and da != 4:
            continue
        for b in na:
            if b <= a:
                continue
            nb = adj[b]
            db = len(nb)
            if db != 2 and db != 4:
                continue
            for c in na:  # the common neighbours above b, ascending
                if c <= b or c not in nb:
                    continue
                dc = len(adj[c])
                if dc == 4 or (dc == 2 and (da == 4 or db == 4)):
                    # u is the smallest corner of degree 4
                    if da == 4:
                        return C5(a, b, c)
                    return C5(b, a, c) if db == 4 else C5(c, a, b)
    return None


_DETECTORS = (detect_c1, detect_c2, detect_c3, detect_c4, detect_c5)


def detect(g: Graph) -> Occurrence | None:
    """First occurrence under the priority C1 < C2 < C3 < C4 < C5."""
    for detector in _DETECTORS:
        occ = detector(g)
        if occ is not None:
            return occ
    return None


# -- reduction plumbing ------------------------------------------------------


Route = tuple[int, ...]


@dataclass(frozen=True)
class Child:
    """One reduced graph, on its parent's vertex ids.

    A route ``(a, ..., b)`` says that the child edge a-b is lifted as that
    walk through removed vertices.  Its ends are a synthetic edge, except
    in the C3 full ring, whose route reroutes a real edge that an added
    path then covers again.  ``synthetic`` lists exactly the edges that
    ``_child`` added, a contraction's included: every edge of the child
    that is not an edge of the parent.  No lift may leave one covered.
    ``boundary`` lists, ascending, the child's vertices that have a
    neighbour among the removed vertices S of the parent, B = N(S) minus
    S; a contracted pair's merged vertex is one of them.  Only they can
    have gained or lost edges.
    """

    graph: Graph
    routes: tuple[Route, ...] = ()
    synthetic: tuple[Edge, ...] = ()
    boundary: tuple[int, ...] = ()


@dataclass(frozen=True)
class LiftPlan:
    """How to lift the children's decompositions back to ``parent``:
    ``rewrite`` edits a store holding the children's paths, in child
    order and checked against the parent, into a decomposition of the
    parent with between ``gain[0]`` and ``gain[1]`` more paths."""

    tag: str
    subcase: str
    parent: Graph
    children: tuple[Child, ...]
    rewrite: Callable[[PathStore], None]
    gain: tuple[int, int]


def _routed(
    tag: str, subcase: str, g: Graph, children: tuple[Child, ...],
    *added: Route,
) -> LiftPlan:
    """A plan lifted by its children's routes plus the ``added`` paths."""
    rewrite = functools.partial(_lift_routes, children, added)
    return LiftPlan(tag, subcase, g, children, rewrite, (len(added), len(added)))


def _boundary(g: Graph, removed: set[int]) -> tuple[int, ...]:
    """N(removed) minus ``removed``, ascending: in O(|removed|) steps."""
    adj = g.adjacency()
    return tuple(sorted({w for x in removed for w in adj[x] if w not in removed}))


def _child(
    g: Graph, removed: set[int], routes: tuple[Route, ...] = (),
    merge: Edge | None = None,
) -> Child:
    """``g`` minus ``removed`` plus the synthetic edges, built in one copy
    of the table: an edge joining the ends of each route that are not
    adjacent in ``g``, and for ``merge = (a, b)`` with b removed, an edge
    from a to each other kept neighbour of b, so that a stands for the
    contracted pair."""
    added = []
    if merge is not None:
        a, b = merge
        added = [edge(a, y) for y in g.neighbors(b) if y != a and y not in removed]
    for route in routes:
        e = edge(route[0], route[-1])
        if not g.has_edge(*e):
            added.append(e)
    sub = g.delete_vertices(removed, added)
    return Child(sub, routes, tuple(added), _boundary(g, removed))


Part = tuple[tuple[int, ...], Union[set[int], None]]


def _side(
    g: Graph, parts: list[Part], chosen: list[Part], removed: set[int],
    routes: tuple[Route, ...] = (), also: frozenset[int] = frozenset(),
) -> Child:
    """The child on the ``chosen`` parts of ``g.split(starts, removed)``
    and the vertices ``also`` of ``removed``.

    It deletes the other parts when the split finished them all, and
    otherwise keeps only the chosen ones: a part that the split left
    unfinished is never listed.
    """
    others = [part[1] for part in parts if part not in chosen]
    if None not in others:
        drop = (removed - also).union(*others)
    else:
        drop = g.vertices() - also.union(*(vertices for _, vertices in chosen))
    return _child(g, drop, routes)


def _ascending(g: Graph, parts: list[Part], removed: set[int]) -> list[Part]:
    """``parts``, a split of all of ``g`` minus ``removed``, ascending by
    smallest vertex as ``components`` lists them.  The smallest vertex of
    the unfinished part is the first id that ``removed`` and no finished
    part holds, found within as many steps as those hold vertices."""
    done = [vertices for _, vertices in parts if vertices is not None]

    def smallest(part: Part) -> int:
        if part[1] is not None:
            return min(part[1])
        return next(
            x for x in g.vertices()
            if x not in removed and not any(x in vs for vs in done)
        )

    return sorted(parts, key=smallest)


def _connected(child: Child) -> bool:
    """Whether the child is connected, for a child of a connected parent.

    Every vertex of the child reaches its boundary B without leaving the
    child (follow a path of the parent towards a removed vertex), so the
    child is connected exactly when B lies in one of its components.  One
    search from a vertex of B stops as soon as it has seen all of B: no
    radius, no fallback, and never more work than a search of the whole
    child.
    """
    if not child.boundary:
        return False
    adj = child.graph.adjacency()
    first = child.boundary[0]
    left = set(child.boundary)
    left.discard(first)
    seen = {first}
    queue = [first]
    for x in queue:  # grows while it is walked: a breadth-first search
        if not left:
            return True
        for w in adj[x]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
                left.discard(w)
    return not left


def _finish(plan: LiftPlan) -> LiftPlan:
    """Check the children of a plan whose parent is connected: each is
    connected, smaller than the parent, and of maximum degree at most
    max(5, the parent's); together they are no larger than the parent.

    By the lemma of the module docstring, a child is connected exactly
    when its boundary B lies in one of its components (``_connected``),
    and only vertices of B change degree: so only they are looked at, and
    the parent's maximum degree only when one of them exceeds 5.
    """
    g = plan.parent
    total = 0
    for child in plan.children:
        if not _connected(child):
            raise ReductionError(f"{plan.tag}/{plan.subcase}: child disconnected")
        if child.graph.n >= g.n:
            raise ReductionError(f"{plan.tag}/{plan.subcase}: child not smaller")
        adj = child.graph.adjacency()
        for b in child.boundary:
            if len(adj[b]) > 5 and len(adj[b]) > g.max_degree():
                raise ReductionError(f"{plan.tag}/{plan.subcase}: degree inflated")
        total += child.graph.n
    if total > g.n:
        raise ReductionError(f"{plan.tag}/{plan.subcase}: children too large")
    return plan


def reduce(g: Graph, occ: Occurrence) -> LiftPlan:
    """Build the reduced graph(s) and the plan for lifting back.

    ``g`` must be connected: the checks of its children rest on it (see
    ``_finish``).  ``solve`` guarantees it by induction: ``check_input``
    checks its input, and every child that ``_finish`` passes is
    connected.
    """
    occ.validate(g)
    build = {
        "C1": _reduce_c1,
        "C2": _reduce_c2,
        "C3": _reduce_c3,
        "C4": _reduce_c4,
        "C5": _reduce_c5,
    }[occ.tag]
    return _finish(build(g, occ))


# -- C1: splice the degree-2 vertex into the bypass edge ---------------------


def _reduce_c1(g: Graph, occ: C1) -> LiftPlan:
    child = _child(g, {occ.u}, ((occ.v, occ.u, occ.w),))
    return _routed("C1", "splice", g, (child,))


# -- C2: solve the two sides and join two of their paths ---------------------


def _reduce_c2(g: Graph, occ: C2) -> LiftPlan:
    parts = g.split((occ.u, occ.v), without=(occ.u, occ.v))
    if len(parts) != 2:
        raise ReductionError(f"{occ}: deleting the edge left {len(parts)} parts")
    child_u = _side(g, parts, parts[:1], set())
    child_v = _side(g, parts, parts[1:], set())
    rewrite = functools.partial(_lift_c2, occ.u, occ.v)
    return LiftPlan("C2", "join", g, (child_u, child_v), rewrite, (-1, -1))


def _lift_c2(u: int, v: int, store: PathStore) -> None:
    pu, pv = store.first_ending_at(u), store.first_ending_at(v)
    if pu is None or pv is None:
        raise LiftError("no path ends at a cut-edge endpoint of odd degree")
    joined = _oriented(store.take(pu), last=u) + _oriented(store.take(pv), first=v)
    store.append(joined)


# -- C3: bypass two degree-4 endpoints around their common pair --------------


def _reduce_c3(g: Graph, occ: C3) -> LiftPlan:
    u, v, x, y, ue, ve = occ.u, occ.v, occ.x, occ.y, occ.u_extra, occ.v_extra
    # (u, v, x, y, u_extra, v_extra) relabelled to carry ring position i,
    # the edge x-ue, ue-y, y-ve or ve-x, to the front
    to_front = (
        (u, v, x, y, ue, ve),
        (u, v, y, x, ue, ve),
        (v, u, y, x, ve, ue),
        (v, u, x, y, ve, ue),
    )
    present = [g.has_edge(a, b) for a, b in ((x, ue), (ue, y), (y, ve), (ve, x))]
    removed = {u, v}
    if sum(present) == 4:
        child = _child(g, removed, ((x, v, u, ue),))
        return _routed("C3", "full_ring", g, (child,), (ue, x, u, y, v, ve))
    if sum(present) >= 2:
        for i, has in enumerate(present):
            if has:
                continue
            u, v, x, y, ue, ve = to_front[i]
            child = _child(g, removed, ((x, v, u, ue),))
            if _connected(child):
                return _routed("C3", "partial_ring", g, (child,), (x, u, y, v, ve))
        raise ReductionError(f"{occ}: no missing ring edge reconnects")
    front = present.index(True) if any(present) else 0
    u, v, x, y, ue, ve = to_front[front]
    routes = ((x, v, ve), (ue, u, y))
    child = _child(g, removed, routes)
    if _connected(child):
        return _routed("C3", "sparse_ring", g, (child,), (x, u, v, y))
    # The two bypass edges do not reconnect the remainder, so the x-y
    # bridge is guaranteed absent from the parent and restores
    # connectivity.
    child = _child(g, removed, routes + ((x, u, v, y),))
    rewrite = functools.partial(_lift_c3_sparse_with_bridge, child.routes)
    return LiftPlan("C3", "sparse_ring", g, (child,), rewrite, (0, 1))


def _lift_c3_sparse_with_bridge(routes: tuple[Route, ...], store: PathStore) -> None:
    """Sparse ring when the child also carries the synthetic x-y edge.

    Each synthetic edge is normally routed in place, but when the path
    holding x-y also holds a second synthetic edge at x or y, the routes
    would revisit an inserted vertex.  That host is then split into two
    paths carrying the same coverage, which still gains at most one path.
    """
    (x, v, ve), (ue, u, y), _ = routes
    host = store.holder(edge(x, y))
    hv = store.paths[host]
    if hv.index(x) > hv.index(y):
        hv = hv[::-1]
    i = hv.index(x)
    before_is_ve = i > 0 and hv[i - 1] == ve
    after_is_ue = i + 2 < len(hv) and hv[i + 2] == ue
    if before_is_ve and after_is_ue:
        parts = (hv[: i - 1] + (ve, v, x, u, y), (y, v, u, ue) + hv[i + 3 :])
        left = ()
    elif before_is_ve:
        parts = (hv[: i - 1] + (ve, v, x, u), (u, v, y) + hv[i + 2 :])
        left = ((ue, u, y),)
    elif after_is_ue:
        parts = (hv[i + 3 :][::-1] + (ue, u, y, v), (v, u, x) + hv[:i][::-1])
        left = ((x, v, ve),)
    else:
        parts, left = (), routes
    if parts:
        store.take(host)
        for part in parts:
            store.append(part)
    for route in left:
        store.splice(route)


# -- C4: peel off two adjacent degree-4 vertices ------------------------------


def _reduce_c4(g: Graph, occ: C4) -> LiftPlan:
    u, v = occ.u, occ.v
    if g.is_bridge(u, v):
        raise ReductionError(f"{occ}: the edge is a cut edge (C2 was skipped)")
    commons = g.common_neighbors(u, v)
    if len(commons) == 2:
        raise ReductionError(f"{occ}: exactly two common neighbours (C3 present)")
    if len(commons) == 3:
        return _reduce_c4_triple(g, occ, commons)
    # One split of g - {u, v} decides all three: g - hub has the component
    # of the other end, which takes in every part next to it, and one for
    # each part next to the hub alone.
    parts = g.split(_boundary(g, {u, v}), {u, v})
    for hub, other in ((u, v), (v, u)):
        far = set(g.neighbors(other)) - {hub}
        if sum(not far.intersection(starts) for starts, _ in parts) >= 2:
            return _reduce_c4_hub(g, occ, hub, other, parts)
    if len(parts) >= 4:
        return _reduce_c4_four(g, occ, parts)
    return _reduce_c4_paired(g, occ)


def _reduce_c4_triple(g: Graph, occ: C4, commons: tuple[int, ...]) -> LiftPlan:
    nonedges = [
        (a, b)
        for a, b in itertools.combinations(sorted(commons), 2)
        if not g.has_edge(a, b)
    ]
    if len(nonedges) < 2:
        raise ReductionError(f"{occ}: common triple has fewer than two gaps")
    first, second = nonedges[0], nonedges[1]
    (y,) = set(first) & set(second)
    (x,) = set(first) - {y}
    (z,) = set(second) - {y}
    u, v = occ.u, occ.v
    child = _child(g, {u, v}, ((x, u, y), (y, v, z)))
    return _routed("C4", "triple_common", g, (child,), (x, v, u, z))


def _reduce_c4_hub(
    g: Graph, occ: C4, hub: int, other: int, parts: list[Part]
) -> LiftPlan:
    side = sorted(set(g.neighbors(hub)) - {other})
    far = set(g.neighbors(other)) - {hub}
    parts = _ascending(g, parts, {hub, other})
    lone = [p for p in parts if not far.intersection(p[0])]
    main = [p for p in parts if far.intersection(p[0])]  # with `other`
    if len(lone) != 2:
        raise ReductionError(f"{occ}: unexpected split around the hub")
    t_lone = [[t for t in side if t in starts] for starts, _ in lone]
    t_main = [t for t in side if any(t in starts for starts, _ in main)]
    if any(len(ts) != 1 for ts in t_lone) or len(t_main) != 1:
        raise ReductionError(f"{occ}: hub neighbours spread unexpectedly")
    t1, t2, t3 = t_lone[0][0], t_lone[1][0], t_main[0]
    pair = _side(g, parts, lone, {hub, other}, ((t1, hub, t2),))
    rest = _side(g, parts, main, {hub, other}, also=frozenset({other}))
    rewrite = functools.partial(_lift_c4_hub, hub, other, t1, t2, t3)
    return LiftPlan("C4", "hub_split", g, (pair, rest), rewrite, (0, 0))


def _reduce_c4_four(g: Graph, occ: C4, parts: list[Part]) -> LiftPlan:
    u, v = occ.u, occ.v
    ts = set(g.neighbors(u)) - {v}
    ws = set(g.neighbors(v)) - {u}
    if len(parts) != 4:
        raise ReductionError(f"{occ}: expected exactly four components")
    parts = _ascending(g, parts, {u, v})
    both = [p for p in parts if ts.intersection(p[0]) and ws.intersection(p[0])]
    only_t = [p for p in parts if ts.intersection(p[0]) and not ws.intersection(p[0])]
    only_w = [p for p in parts if ws.intersection(p[0]) and not ts.intersection(p[0])]
    if len(both) != 2 or len(only_t) != 1 or len(only_w) != 1:
        raise ReductionError(f"{occ}: component split does not match")
    (t1,) = ts.intersection(both[0][0])
    (w1,) = ws.intersection(both[0][0])
    (t2,) = ts.intersection(both[1][0])
    (w2,) = ws.intersection(both[1][0])
    (t3,) = ts.intersection(only_t[0][0])
    (w3,) = ws.intersection(only_w[0][0])
    near = _side(g, parts, both, {u, v}, ((t1, u, t2), (w1, v, w2)))
    far = _side(g, parts, only_t + only_w, {u, v}, ((t3, u, v, w3),))
    return _routed("C4", "four_components", g, (near, far))


def _reduce_c4_paired(g: Graph, occ: C4) -> LiftPlan:
    u, v = occ.u, occ.v
    for t1, t2, t3, w1, w2, w3 in _c4_labellings(g.adjacency(), u, v):
        child = _child(g, {u, v}, ((t1, u, t2), (w1, v, w2)))
        if _connected(child):
            return _routed("C4", "paired_nonedges", g, (child,), (t3, u, v, w3))
    raise ReductionError(f"{occ}: no reconnecting relabelling exists")


def _lift_c4_hub(
    hub: int, other: int, t1: int, t2: int, t3: int, store: PathStore
) -> None:
    host = store.holder(edge(t1, t2))
    q = store.first_ending_at(other)
    if q is None:
        raise LiftError("no path ends at the surviving endpoint")
    left, right = _split_on_edge(store.take(host), edge(t1, t2))
    if left[-1] == t1:
        t1_part, t2_part = left, right[::-1]
    else:
        t1_part, t2_part = right[::-1], left
    store.append(t1_part + (hub,) + _oriented(store.take(q), first=other))
    store.append(t2_part + (hub, t3))


# -- C5: shrink a triangle with even corner degrees ---------------------------


def _reduce_c5(g: Graph, occ: C5) -> LiftPlan:
    """Lemma: two shapes of C5 hold a C4 at a corner edge, which ``detect``
    finds first, so they are refused with that C4 named, as ``_reduce_c4``
    refuses a C4 where C3 is present.  (i) Corners a and b see three common
    vertices with two gaps among them: both have degree 4 and N(a) - b =
    N(b) - a is that trio, and two gaps have different leftovers, so one
    gap on each side makes a C4 at ab.  (ii) All corners have degree 4 and
    each pair shares only the third: then w is adjacent to none of the
    outer neighbours x1, x2 of u and y1, y2 of v, so (w, x1) and (w, y1)
    are non-edges with leftovers x2 != y2, a C4 at uv.
    """
    corners = (occ.u, occ.v, occ.w)
    for a, b in itertools.combinations(sorted(corners), 2):
        if len(g.common_neighbors(a, b)) == 3:
            return _reduce_c5_common3(g, occ, a, b)
    for a, b in itertools.combinations(corners, 2):
        if len(g.common_neighbors(a, b)) != 1:  # the third corner is common
            raise ReductionError(
                f"{occ}: corners share an outside neighbour (C3/C4 order broken)"
            )
    if g.degree(occ.v) == 2 or g.degree(occ.w) == 2:
        return _reduce_c5_degree_two(g, occ)
    raise _c4_first(g, occ, *sorted(corners)[:2], "all corners have degree 4")


def _c4_first(g: Graph, occ: C5, a: int, b: int, why: str) -> ReductionError:
    """Refuse a C5 whose corner edge ab carries a C4, and name that C4."""
    c4 = C4(a, b, *next(_c4_labellings(g.adjacency(), a, b)))
    return ReductionError(f"{occ}: {why} (C4 present: {c4})")


def _reduce_c5_common3(g: Graph, occ: C5, a: int, b: int) -> LiftPlan:
    """The corner pair (a, b) sees three common vertices, one of them the
    third corner; the sub-case depends on the gaps among those three."""
    trio = sorted(g.common_neighbors(a, b))
    missing = [
        (p, q) for p, q in itertools.combinations(trio, 2) if not g.has_edge(p, q)
    ]
    if len(missing) >= 2:
        raise _c4_first(g, occ, a, b, "two gaps in the common trio")
    if len(missing) == 1:
        x, y = missing[0]
        (apex,) = set(trio) - {x, y}
        child = _child(g, {a, b}, ((x, a, b, y),))
        return _routed("C5", "one_gap", g, (child,), (x, b, apex, a, y))
    child = _child(g, {a, b})
    rewrite = functools.partial(_lift_c5_triangle, a, b, tuple(trio), child.graph)
    return LiftPlan("C5", "common_triangle", g, (child,), rewrite, (1, 1))


def _reduce_c5_degree_two(g: Graph, occ: C5) -> LiftPlan:
    u, v, w = occ.u, occ.v, occ.w
    if g.degree(v) != 2:
        v, w = w, v
    x1, x2 = sorted(set(g.neighbors(u)) - {v, w})
    child = _child(g, {v, max(u, w)}, merge=edge(u, w))
    rewrite = functools.partial(_lift_c5_degree_two, u, v, w, x1, x2)
    return LiftPlan("C5", "degree_two", g, (child,), rewrite, (0, 1))


def _lift_c5_triangle(
    u: int, v: int, trio: tuple[int, int, int], child: Graph, store: PathStore
) -> None:
    """Both removed corners see all of the triangle {c1, c2, c3}.

    The rewrite needs a role assignment (w, x, y) of the triangle where w
    has no neighbours outside the triangle in the child, the x-w and w-y
    edges lie on different paths, and x-y and w-y lie on different paths.
    When every admissible assignment is blocked (both child edges at every
    candidate w share one path), fall back to an exact re-partition of the
    affected paths, which keeps the same accounting.
    """
    holder = store.holder
    for wr, xr, yr in itertools.permutations(trio):
        if child.degree(wr) != 2:
            continue
        if holder(edge(xr, wr)) == holder(edge(wr, yr)):
            continue
        if holder(edge(xr, yr)) == holder(edge(wr, yr)):
            continue
        break
    else:
        _lift_c5_triangle_repair(u, v, trio, store)
        return

    # Reroute the path through x-w to end at u instead of w.
    q = holder(edge(xr, wr))
    q_vertices = _oriented(store.paths[q], last=wr)
    if q_vertices[-2] != xr:
        raise LiftError("triangle corner is not terminal in its path")
    store.replace(q, q_vertices[:-1] + (u,))

    p = holder(edge(xr, yr))
    r = holder(edge(yr, wr))
    if r == p:
        raise LiftError("triangle role separation failed")
    left, right = _split_on_edge(store.take(p), edge(xr, yr))
    if left[-1] == xr:
        x_part, y_part = left, right
    else:
        x_part, y_part = right[::-1], left[::-1]
    r_new = _oriented(store.take(r), last=wr) + (u,)
    store.append(x_part + (yr, v, wr))
    store.append(y_part[::-1] + (u, v, xr, wr))
    store.append(r_new)


_REPAIR_BUDGET = 2_000_000


def _lift_c5_triangle_repair(
    u: int, v: int, trio: tuple[int, int, int], store: PathStore
) -> None:
    hosts = {store.holder(edge(p, q)) for p, q in itertools.combinations(trio, 2)}
    fresh = {edge(u, v)} | {edge(u, t) for t in trio} | {edge(v, t) for t in trio}
    pool = {e for host in hosts for e in Path(store.take(host)).edges()} | fresh
    # the pool's neighbour table, ids and tuples ascending, for the search
    nbrs: dict[int, list[int]] = {}
    for a, b in pool:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    table = {x: tuple(sorted(nbrs[x])) for x in sorted(nbrs)}
    cover = cover_with_paths(table, len(hosts) + 1, budget=_REPAIR_BUDGET)
    if cover is None:
        raise LiftError("triangle repair found no small re-partition")
    for sequence in cover:
        store.append(sequence)


def _lift_c5_degree_two(
    u: int, v: int, w: int, x1: int, x2: int, store: PathStore
) -> None:
    # The merged vertex kept the id s = min(u, w) and plays w; its edges
    # towards x1/x2 stand for parent edges at u.  Only the paths through it
    # change: each is renamed and rebuilt in one edit.
    s = min(u, w)
    far = [y for y in store.graph.neighbors(w) if y not in (u, v)]
    through = sorted({store.holder(edge(s, y)) for y in (x1, x2, *far)})
    at_x1, at_x2 = store.holder(edge(s, x1)), store.holder(edge(s, x2))
    for pid in through:
        vertices = tuple(w if x == s else x for x in store.paths[pid])
        if pid == at_x1 == at_x2:  # the hinge: x1 - w - x2 on one path
            at = vertices.index(w)
            store.take(pid)
            store.append(vertices[:at] + (u, w))
            store.append((w, v, u) + vertices[at + 1 :])
            continue
        if pid == at_x1:
            vertices = spliced(vertices, (w, u, x1))
        elif pid == at_x2:
            vertices = spliced(vertices, (w, v, u, x2))
        store.replace(pid, vertices)


# -- lifting ------------------------------------------------------------------


def _lift_routes(
    children: tuple[Child, ...], added: tuple[Route, ...], store: PathStore
) -> None:
    """Splice each child's routes in place of their edges, then append the
    ``added`` paths."""
    for child in children:
        for route in child.routes:
            store.splice(route)
    for route in added:
        store.append(route)


def lift(plan: LiftPlan, stores: list[PathStore]) -> PathStore:
    """Rewrite the children's stores into one store for the parent graph.

    Each store must hold a decomposition of its child, as
    ``PathStore.load`` or an earlier ``lift`` leaves it.  The stores are
    merged in child order into the first one, which is pointed at the
    parent and handed to the plan's rewrite.  The edits check every edge
    they remove and add, so the result is a decomposition of the parent
    exactly when no synthetic child edge is left covered and the parent's
    ``m`` edges are: these two checks, the plan's gain and the path bound
    replace a verification of the whole parent.  Returns the first store.
    """
    if len(stores) != len(plan.children):
        raise LiftError("one decomposition per child is required")
    parent = plan.parent
    label = f"{plan.tag}/{plan.subcase}"
    total = sum(map(len, stores))
    store = stores[0]
    try:
        for other in stores[1:]:
            store.merge(other)
        store.graph = parent
        plan.rewrite(store)
    except ValueError as exc:
        raise LiftError(f"{label} recipe failed: {exc}") from exc
    left = [e for child in plan.children for e in child.synthetic if e in store.owner]
    if left:
        raise LiftError(f"{label} left synthetic edges {left} covered")
    if len(store.owner) != parent.m:
        raise LiftError(f"{label} covers {len(store.owner)} of {parent.m} edges")
    count = len(store)
    lo, hi = plan.gain
    if not (total + lo <= count <= total + hi):
        raise LiftError(
            f"{label} produced {count} paths "
            f"from {total}, outside [{total + lo}, {total + hi}]"
        )
    if count > (parent.n + 1) // 2:
        raise LiftError(f"{label} lost goodness")
    return store


# -- structural consequence ----------------------------------------------------


def check_structure(g: Graph) -> bool:
    """For an irreducible graph, the even-degree core must be a forest.

    ``g`` must be connected, have maximum degree at most 5 and be
    irreducible (``detect`` found no configuration); none of this is
    checked again here.  ``solve`` establishes it: ``check_input`` checks
    its input, ``_finish`` certifies each child's connectivity and the
    degrees at its boundary, and ``detect`` has just run.  Raises
    ``ValueError`` on the two exceptional cliques (K3, K5), which the
    lemma excludes.
    """
    if is_exceptional_clique(g):
        raise ValueError("K3 and K5 are excluded")
    return g.induced_even_subgraph().is_forest()


def is_exceptional_clique(g: Graph) -> bool:
    """K3 or K5: the two cliques ``solve`` covers from fixed templates and
    ``check_structure`` excludes."""
    return (g.n, g.m) in ((3, 3), (5, 10))


# -- shared helpers --------------------------------------------------------------


def _split_on_edge(
    vs: tuple[int, ...], e: Edge
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two sides of a path around one of its edges (either side can be
    a single vertex)."""
    for i in range(len(vs) - 1):
        if edge(vs[i], vs[i + 1]) == e:
            return vs[: i + 1], vs[i + 1 :]
    raise LiftError(f"edge {e} not on path {vs}")


def _oriented(
    vs: tuple[int, ...], first: int | None = None, last: int | None = None
) -> tuple[int, ...]:
    if first is not None:
        return vs if vs[0] == first else vs[::-1]
    return vs if vs[-1] == last else vs[::-1]
