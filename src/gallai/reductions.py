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

Each reduction records a ``LiftPlan`` naming the sub-case it chose, with
one interface for every sub-case: a ``rewrite`` that edits a ``PathStore``
holding the children's paths into a decomposition of the parent, and the
``gain`` range of paths that rewrite adds, both bound where the sub-case is
built.  In ten of the fifteen sub-cases the rewrite is ``_lift_routes``
bound to the children and a few added paths: every synthetic child edge is
stated as its route through the removed vertices and spliced in place of
that edge.  The other five sub-cases, and the sparse ring when it needs
the x-y bridge, bind a recipe of their own to the vertices it reads; the
two contractions rebuild only the paths through the merged vertex.

The store checks every edit against the parent, so ``lift_in_place``,
which ``solve`` uses, only has to check that no synthetic child edge is
left, that the parent's ``m`` edges are covered, the gain and the path
bound: O(|edit|) work per level instead of a verification of the whole
parent.  The public ``lift`` takes decompositions from outside, runs the
same rewrite and verifies its result against the parent in full.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Union

from .graphs import Edge, Graph, edge
from .paths import Path, PathDecomposition, PathStore, spliced, verify
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
    for u in g.vertices():
        if g.degree(u) == 2:
            v, w = g.neighbors(u)
            if not g.has_edge(v, w):
                return C1(u, v, w)
    return None


def detect_c2(g: Graph) -> C2 | None:
    adj = g.adjacency()
    if not any(
        len(nbrs) % 2 == 0 and any(len(adj[v]) % 2 == 0 for v in nbrs)
        for nbrs in adj.values()
    ):
        return None  # no edge has two even ends, so no bridge is wanted
    for u, v in sorted(g.bridges()):
        if g.degree(u) % 2 == 0 and g.degree(v) % 2 == 0:
            return C2(u, v)
    return None


def _degree_four_edges(g: Graph) -> Iterator[Edge]:
    """The edges whose ends both have degree 4, ascending by (u, v)."""
    adj = g.adjacency()
    for u, nbrs in adj.items():
        if len(nbrs) == 4:
            for v in nbrs:
                if v > u and len(adj[v]) == 4:
                    yield u, v


def detect_c3(g: Graph) -> C3 | None:
    for u, v in _degree_four_edges(g):
        commons = g.common_neighbors(u, v)
        if len(commons) != 2:
            continue
        x, y = commons
        (u_extra,) = set(g.neighbors(u)) - {v, x, y}
        (v_extra,) = set(g.neighbors(v)) - {u, x, y}
        return C3(u, v, x, y, u_extra, v_extra)
    return None


def detect_c4(g: Graph) -> C4 | None:
    for u, v in _degree_four_edges(g):
        labels = next(_c4_labellings(g, u, v), None)
        if labels is not None:
            return C4(u, v, *labels)
    return None


def _c4_labellings(g: Graph, u: int, v: int) -> Iterator[tuple[int, ...]]:
    """Every ``(t1, t2, t3, w1, w2, w3)`` naming a C4 at the edge uv, in
    ascending order of the non-adjacent pairs."""
    ts = sorted(set(g.neighbors(u)) - {v})
    ws = sorted(set(g.neighbors(v)) - {u})
    for t1, t2 in itertools.combinations(ts, 2):
        if g.has_edge(t1, t2):
            continue
        (t3,) = set(ts) - {t1, t2}
        for w1, w2 in itertools.combinations(ws, 2):
            if g.has_edge(w1, w2):
                continue
            (w3,) = set(ws) - {w1, w2}
            if t3 != w3:
                yield t1, t2, t3, w1, w2, w3


def detect_c5(g: Graph) -> C5 | None:
    adj = g.adjacency()
    for a, a_nbrs in adj.items():
        if len(a_nbrs) not in (2, 4):
            continue
        for b in a_nbrs:
            if b <= a or len(adj[b]) not in (2, 4):
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
    path then covers again.  ``synthetic`` lists every edge of the child
    that is not an edge of the parent; no lift may leave one covered.
    """

    graph: Graph
    routes: tuple[Route, ...] = ()
    synthetic: tuple[Edge, ...] = ()


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


def _child(g: Graph, keep: set[int], routes: tuple[Route, ...] = ()) -> Child:
    """Induced child on ``keep`` plus an edge joining the ends of each route
    that are not adjacent in ``g``."""
    sub = g.delete_vertices(g.vertices() - keep)
    synthetic = []
    for route in routes:
        e = edge(route[0], route[-1])
        if not g.has_edge(*e):
            sub = sub.add_edge(*e)
            synthetic.append(e)
    return Child(sub, routes, tuple(synthetic))


def _merged_child(
    g: Graph, merged: Graph, s: int, routes: tuple[Route, ...] = ()
) -> Child:
    """Child in which ``s`` stands for a contracted pair: its edges at ``s``
    that ``g`` lacks are synthetic."""
    synthetic = tuple(edge(s, y) for y in merged.neighbors(s) if not g.has_edge(s, y))
    return Child(merged, routes, synthetic)


def _finish(plan: LiftPlan) -> LiftPlan:
    g = plan.parent
    total = 0
    for child in plan.children:
        if not child.graph.is_connected():
            raise ReductionError(f"{plan.tag}/{plan.subcase}: child disconnected")
        if child.graph.n >= g.n:
            raise ReductionError(f"{plan.tag}/{plan.subcase}: child not smaller")
        if child.graph.m and child.graph.max_degree() > max(5, g.max_degree()):
            raise ReductionError(f"{plan.tag}/{plan.subcase}: degree inflated")
        total += child.graph.n
    if total > g.n:
        raise ReductionError(f"{plan.tag}/{plan.subcase}: children too large")
    return plan


def reduce(g: Graph, occ: Occurrence) -> LiftPlan:
    """Build the reduced graph(s) and the plan for lifting back."""
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
    child = _child(g, g.vertices() - {occ.u}, ((occ.v, occ.u, occ.w),))
    return _routed("C1", "splice", g, (child,))


# -- C2: solve the two sides and join two of their paths ---------------------


def _reduce_c2(g: Graph, occ: C2) -> LiftPlan:
    cut = g.delete_edge(occ.u, occ.v)
    comps = cut.components()
    if len(comps) != 2:
        raise ReductionError(f"{occ}: deleting the edge left {len(comps)} parts")
    side_u = next(set(c) for c in comps if occ.u in c)
    side_v = g.vertices() - side_u
    child_u = _child(cut, side_u)
    child_v = _child(cut, side_v)
    rewrite = functools.partial(_lift_c2, occ.u, occ.v)
    return LiftPlan("C2", "join", g, (child_u, child_v), rewrite, (-1, -1))


def _lift_c2(u: int, v: int, store: PathStore) -> None:
    pu, pv = store.first_ending_at(u), store.first_ending_at(v)
    if pu is None or pv is None:
        raise LiftError("no path ends at a cut-edge endpoint of odd degree")
    joined = _oriented(store.take(pu), last=u) + _oriented(store.take(pv), first=v)
    store.append(joined)


# -- C3: bypass two degree-4 endpoints around their common pair --------------


def _c3_relabel(occ: C3, swap_xy: bool, swap_uv: bool) -> tuple[int, ...]:
    """``(u, v, x, y, u_extra, v_extra)`` after the given swaps."""
    u, v, x, y, ue, ve = occ.u, occ.v, occ.x, occ.y, occ.u_extra, occ.v_extra
    if swap_xy:
        x, y = y, x
    if swap_uv:
        u, v = v, u
        ue, ve = ve, ue
    return u, v, x, y, ue, ve


# Relabelling (swap x/y, swap u/v) carrying ring position i to position 0.
_C3_TO_FRONT = {0: (False, False), 1: (True, False), 2: (True, True), 3: (False, True)}


def _reduce_c3(g: Graph, occ: C3) -> LiftPlan:
    u, v, x, y, ue, ve = _c3_relabel(occ, False, False)
    present = [g.has_edge(a, b) for a, b in ((x, ue), (ue, y), (y, ve), (ve, x))]
    keep = g.vertices() - {u, v}
    if sum(present) == 4:
        child = _child(g, keep, ((x, v, u, ue),))
        return _routed("C3", "full_ring", g, (child,), (ue, x, u, y, v, ve))
    if sum(present) >= 2:
        for i, has in enumerate(present):
            if has:
                continue
            u, v, x, y, ue, ve = _c3_relabel(occ, *_C3_TO_FRONT[i])
            child = _child(g, keep, ((x, v, u, ue),))
            if child.graph.is_connected():
                return _routed("C3", "partial_ring", g, (child,), (x, u, y, v, ve))
        raise ReductionError(f"{occ}: no missing ring edge reconnects")
    front = present.index(True) if any(present) else 0
    u, v, x, y, ue, ve = _c3_relabel(occ, *_C3_TO_FRONT[front])
    routes = ((x, v, ve), (ue, u, y))
    child = _child(g, keep, routes)
    if child.graph.is_connected():
        return _routed("C3", "sparse_ring", g, (child,), (x, u, v, y))
    # The two bypass edges do not reconnect the remainder, so the x-y
    # bridge is guaranteed absent from the parent and restores
    # connectivity.
    child = _child(g, keep, routes + ((x, u, v, y),))
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
    for hub, other in ((u, v), (v, u)):
        comps = g.delete_vertices({hub}).components()
        if len(comps) >= 3:
            return _reduce_c4_hub(g, occ, hub, other, comps)
    comps = g.delete_vertices({u, v}).components()
    if len(comps) >= 4:
        return _reduce_c4_four(g, occ, comps)
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
    child = _child(g, g.vertices() - {u, v}, ((x, u, y), (y, v, z)))
    return _routed("C4", "triple_common", g, (child,), (x, v, u, z))


def _reduce_c4_hub(
    g: Graph, occ: C4, hub: int, other: int, comps: list[tuple[int, ...]]
) -> LiftPlan:
    side = sorted(set(g.neighbors(hub)) - {other})
    lone = [c for c in comps if other not in c]
    main = [c for c in comps if other in c]
    if len(lone) != 2 or len(main) != 1:
        raise ReductionError(f"{occ}: unexpected split around the hub")
    t_lone = [[t for t in side if t in c] for c in lone]
    t_main = [t for t in side if t in main[0]]
    if any(len(ts) != 1 for ts in t_lone) or len(t_main) != 1:
        raise ReductionError(f"{occ}: hub neighbours spread unexpectedly")
    t1, t2, t3 = t_lone[0][0], t_lone[1][0], t_main[0]
    pair = _child(g, set(lone[0]) | set(lone[1]), ((t1, hub, t2),))
    rest = _child(g, set(main[0]))
    rewrite = functools.partial(_lift_c4_hub, hub, other, t1, t2, t3)
    return LiftPlan("C4", "hub_split", g, (pair, rest), rewrite, (0, 0))


def _reduce_c4_four(g: Graph, occ: C4, comps: list[tuple[int, ...]]) -> LiftPlan:
    u, v = occ.u, occ.v
    ts = set(g.neighbors(u)) - {v}
    ws = set(g.neighbors(v)) - {u}
    if len(comps) != 4:
        raise ReductionError(f"{occ}: expected exactly four components")
    both = [c for c in comps if set(c) & ts and set(c) & ws]
    only_t = [c for c in comps if set(c) & ts and not set(c) & ws]
    only_w = [c for c in comps if set(c) & ws and not set(c) & ts]
    if len(both) != 2 or len(only_t) != 1 or len(only_w) != 1:
        raise ReductionError(f"{occ}: component split does not match")
    (t1,) = set(both[0]) & ts
    (w1,) = set(both[0]) & ws
    (t2,) = set(both[1]) & ts
    (w2,) = set(both[1]) & ws
    (t3,) = set(only_t[0]) & ts
    (w3,) = set(only_w[0]) & ws
    near = _child(g, set(both[0]) | set(both[1]), ((t1, u, t2), (w1, v, w2)))
    far = _child(g, set(only_t[0]) | set(only_w[0]), ((t3, u, v, w3),))
    return _routed("C4", "four_components", g, (near, far))


def _reduce_c4_paired(g: Graph, occ: C4) -> LiftPlan:
    u, v = occ.u, occ.v
    keep = g.vertices() - {u, v}
    for t1, t2, t3, w1, w2, w3 in _c4_labellings(g, u, v):
        child = _child(g, keep, ((t1, u, t2), (w1, v, w2)))
        if child.graph.is_connected():
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
    corners = (occ.u, occ.v, occ.w)
    for a, b in itertools.combinations(sorted(corners), 2):
        if len(g.common_neighbors(a, b)) == 3:
            return _reduce_c5_common3(g, a, b)
    for a, b in itertools.combinations(sorted(corners), 2):
        (c,) = set(corners) - {a, b}
        if set(g.common_neighbors(a, b)) != {c}:
            raise ReductionError(
                f"{occ}: corners share an outside neighbour (C3/C4 order broken)"
            )
    if g.degree(occ.v) == 2 or g.degree(occ.w) == 2:
        return _reduce_c5_degree_two(g, occ)
    return _reduce_c5_dense(g, occ)


def _reduce_c5_common3(g: Graph, a: int, b: int) -> LiftPlan:
    """The corner pair (a, b) sees three common vertices, one of them the
    third corner; the sub-case depends on the gaps among those three."""
    trio = sorted(g.common_neighbors(a, b))
    missing = [
        (p, q) for p, q in itertools.combinations(trio, 2) if not g.has_edge(p, q)
    ]
    keep = g.vertices() - {a, b}
    if len(missing) >= 2:
        center = next(s for s in trio if sum(s in pair for pair in missing) >= 2)
        o1, o2 = sorted(set(trio) - {center})
        child = _child(g, keep, ((o1, a, center), (center, b, o2)))
        return _routed("C5", "two_gaps", g, (child,), (o1, b, a, o2))
    if len(missing) == 1:
        x, y = missing[0]
        (apex,) = set(trio) - {x, y}
        child = _child(g, keep, ((x, a, b, y),))
        return _routed("C5", "one_gap", g, (child,), (x, b, apex, a, y))
    child = _child(g, keep)
    rewrite = functools.partial(_lift_c5_triangle, a, b, tuple(trio), child.graph)
    return LiftPlan("C5", "common_triangle", g, (child,), rewrite, (1, 1))


def _reduce_c5_degree_two(g: Graph, occ: C5) -> LiftPlan:
    u, v, w = occ.u, occ.v, occ.w
    if g.degree(v) != 2:
        v, w = w, v
    x1, x2 = sorted(set(g.neighbors(u)) - {v, w})
    child = _merged_child(g, g.delete_vertices({v}).contract_edge(u, w), min(u, w))
    rewrite = functools.partial(_lift_c5_degree_two, u, v, w, x1, x2)
    return LiftPlan("C5", "degree_two", g, (child,), rewrite, (0, 1))


def _reduce_c5_dense(g: Graph, occ: C5) -> LiftPlan:
    """All corners have degree 4 and private outer neighbour pairs."""
    corners = {occ.u, occ.v, occ.w}
    outer = []
    for corner in sorted(corners):
        if g.degree(corner) != 4:
            raise ReductionError(f"{occ}: corner degrees must all be 4 here")
        for nb in sorted(set(g.neighbors(corner)) - corners):
            outer.append((corner, nb))
    cut = g.bridges()
    loose = [(a, b) for a, b in outer if edge(a, b) not in cut]
    if loose:
        host, x1 = loose[0]
        v2, w2 = sorted(corners - {host})
        (x2,) = set(g.neighbors(host)) - corners - {x1}
        return _reduce_c5_hub(g, host, v2, w2, x1, x2)
    return _reduce_c5_bridges(g, occ, outer)


def _reduce_c5_hub(
    g: Graph, u: int, v: int, w: int, x1: int, x2: int
) -> LiftPlan:
    merged = g.delete_vertices({u}).contract_edge(v, w)
    s = min(v, w)  # the merged vertex, read as v or w by the lift
    child = _merged_child(g, merged.add_edge(s, x2), s, ((s, u, x2),))
    rewrite = functools.partial(_lift_c5_hub, u, v, w, x1, x2)
    return LiftPlan("C5", "hub_contraction", g, (child,), rewrite, (1, 1))


def _reduce_c5_bridges(
    g: Graph, occ: C5, outer: list[tuple[int, int]]
) -> LiftPlan:
    u, v, w = occ.u, occ.v, occ.w
    x1, x2 = sorted(nb for c, nb in outer if c == u)
    y1, y2 = sorted(nb for c, nb in outer if c == v)
    z1, z2 = sorted(nb for c, nb in outer if c == w)
    comps = g.delete_vertices({u, v, w}).components()
    if len(comps) != 6:
        raise ReductionError(f"{occ}: expected six satellite components")
    home = {}
    for vertex in (x1, x2, y1, y2, z1, z2):
        (comp,) = [c for c in comps if vertex in c]
        home[vertex] = set(comp)
    first = _child(g, home[x1] | home[y1], ((x1, u, v, y1),))
    second = _child(g, home[x2] | home[y2], ((x2, u, w, v, y2),))
    third = _child(g, home[z1] | home[z2], ((z1, w, z2),))
    return _routed("C5", "bridge_spread", g, (first, second, third))


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
    pool = frozenset(
        {e for host in hosts for e in Path(store.take(host)).edges()} | fresh
    )
    cover = cover_with_paths(pool, len(hosts) + 1, budget=_REPAIR_BUDGET)
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


def _lift_c5_hub(
    u: int, v: int, w: int, x1: int, x2: int, store: PathStore
) -> None:
    g = store.graph
    s = min(v, w)  # the merged vertex
    v_side = set(g.neighbors(v)) - {u, w}
    w_side = set(g.neighbors(w)) - {u, v}

    def side(vertex: int) -> str:
        if vertex == x2:
            return "x"
        if vertex in v_side:
            return "v"
        if vertex in w_side:
            return "w"
        raise LiftError(f"unexpected neighbour {vertex} of the merged pair")

    # Rebuild the paths through the merged vertex, in path order, since the
    # first crossing takes v-w and the second v-u-w.
    crossings = 0
    through = {store.holder(edge(s, y)) for y in (x2, *v_side, *w_side)}
    for pid in sorted(through):
        p = store.paths[pid]
        vertices: list[int] = []
        for i, cv in enumerate(p):
            if cv != s:
                vertices.append(cv)
                continue
            before = p[i - 1] if i > 0 else None
            after = p[i + 1] if i + 1 < len(p) else None
            if before is not None and after is not None:
                kinds = (side(before), side(after))
                if kinds in (("v", "w"), ("w", "v")):
                    crossings += 1
                    if crossings > 2:
                        raise LiftError("too many crossings of the merged pair")
                    detour = (v, w) if crossings == 1 else (v, u, w)
                    if kinds[0] == "w":
                        detour = detour[::-1]
                    vertices.extend(detour)
                elif "x" in kinds:
                    t_kind = kinds[1] if kinds[0] == "x" else kinds[0]
                    corner = v if t_kind == "v" else w
                    piece = (u, corner) if kinds[0] == "x" else (corner, u)
                    vertices.extend(piece)
                else:
                    vertices.append(v if kinds[0] == "v" else w)
            else:
                kind = side(after if before is None else before)
                vertices.append({"x": u, "v": v, "w": w}[kind])
        store.replace(pid, tuple(vertices))

    # Every edge away from the corners is covered, so the residual is the
    # uncovered part of the edges at u, v and w.
    corners = (u, v, w)
    residual = {edge(c, y) for c in corners for y in g.neighbors(c)}
    residual -= store.owner.keys()
    if edge(u, x1) not in residual:
        raise LiftError("the spared outer edge is unexpectedly covered")
    sequence = _edges_as_path(residual)
    if sequence is None:
        residual = _extend_into_residual(store, residual, corners)
        sequence = _edges_as_path(residual)
        if sequence is None:
            raise LiftError("residual edges do not form a path")
    store.append(sequence)


def _extend_into_residual(
    store: PathStore, residual: set[Edge], corners: tuple[int, int, int]
) -> set[Edge]:
    """Grow the first path ending at a corner by one residual corner edge
    that leaves the rest of the residual a path; return that rest."""
    u, v, w = corners
    at_corners = {
        store.owner[e]
        for c in corners
        for y in store.graph.neighbors(c)
        if (e := edge(c, y)) in store.owner
    }
    for pid in sorted(at_corners):
        vs = store.paths[pid]
        for endpoint in dict.fromkeys((vs[0], vs[-1])):
            if endpoint not in corners:
                continue
            for candidate in (edge(w, u), edge(w, v)):
                if candidate not in residual or endpoint not in candidate:
                    continue
                other = candidate[0] if candidate[1] == endpoint else candidate[1]
                if other in vs:
                    continue
                if _edges_as_path(residual - {candidate}) is None:
                    continue
                grown = vs + (other,) if vs[-1] == endpoint else (other,) + vs
                store.replace(pid, grown)
                return residual - {candidate}
    raise LiftError("no corner extension straightens the residual")


def _edges_as_path(edges: set[Edge]) -> tuple[int, ...] | None:
    """Vertex sequence if the edge set induces a single simple path."""
    if not edges:
        return None
    degree: dict[int, int] = {}
    adjacency: dict[int, list[int]] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    if len(edges) != len(degree) - 1:
        return None
    if any(count > 2 for count in degree.values()):
        return None
    ends = sorted(vertex for vertex, count in degree.items() if count == 1)
    if len(ends) != 2:
        return None
    sequence = [ends[0]]
    seen = {ends[0]}
    while len(sequence) < len(degree):
        options = [nb for nb in adjacency[sequence[-1]] if nb not in seen]
        if len(options) != 1:
            return None
        sequence.append(options[0])
        seen.add(options[0])
    return tuple(sequence)


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


def _rewrite(
    occ: Occurrence, plan: LiftPlan, stores: list[PathStore]
) -> tuple[PathStore, int]:
    """Merge the children's stores in child order into the first one, point
    it at the parent and run the plan's rewrite on it.  Returns the store
    and the children's path count."""
    if occ.tag != plan.tag:
        raise LiftError(f"plan is for {plan.tag}, occurrence is {occ.tag}")
    if len(stores) != len(plan.children):
        raise LiftError("one decomposition per child is required")
    total = sum(map(len, stores))
    store = stores[0]
    try:
        for other in stores[1:]:
            store.merge(other)
        store.graph = plan.parent
        plan.rewrite(store)
    except ValueError as exc:
        raise LiftError(f"{plan.tag}/{plan.subcase} recipe failed: {exc}") from exc
    return store, total


def _check_gain(plan: LiftPlan, total: int, count: int) -> None:
    lo, hi = plan.gain
    if not (total + lo <= count <= total + hi):
        raise LiftError(
            f"{plan.tag}/{plan.subcase} produced {count} paths "
            f"from {total}, outside [{total + lo}, {total + hi}]"
        )


def lift(
    occ: Occurrence,
    plan: LiftPlan,
    children_decomps: list[PathDecomposition],
) -> PathDecomposition:
    """Rewrite good child decompositions into one for the parent graph.

    The children's decompositions come from outside, so they are taken
    unchecked (an edge on two paths is refused, as the store cannot hold
    it) and the result is verified against the parent in full; it must
    also gain a number of paths in the plan's ``gain`` range.
    """
    if len(children_decomps) != len(plan.children):
        raise LiftError("one decomposition per child is required")
    try:
        stores = [
            PathStore.wrap(child.graph, d)
            for child, d in zip(plan.children, children_decomps)
        ]
    except ValueError as exc:
        raise LiftError(f"{plan.tag}/{plan.subcase}: {exc}") from exc
    store, total = _rewrite(occ, plan, stores)
    lifted = store.decomposition()
    report = verify(plan.parent, lifted)
    if not report.valid:
        raise LiftError(f"lifted decomposition invalid:\n{report}")
    _check_gain(plan, total, len(lifted))
    if not report.good:
        raise LiftError(f"{plan.tag}/{plan.subcase} lost goodness")
    return lifted


def lift_in_place(
    occ: Occurrence, plan: LiftPlan, stores: list[PathStore]
) -> PathStore:
    """Rewrite the children's stores into one store for the parent graph.

    Each store must hold a decomposition of its child, as a checked load
    or an earlier ``lift_in_place`` leaves it.  The edits check every edge
    they remove and add, so the result is a decomposition of the parent
    exactly when no synthetic child edge is left covered and the parent's
    ``m`` edges are: these two checks, the plan's gain and the path bound
    replace a verification of the whole parent.  Returns the first store.
    """
    store, total = _rewrite(occ, plan, stores)
    parent = plan.parent
    label = f"{plan.tag}/{plan.subcase}"
    left = [e for child in plan.children for e in child.synthetic if e in store.owner]
    if left:
        raise LiftError(f"{label} left synthetic edges {left} covered")
    if len(store.owner) != parent.m:
        raise LiftError(f"{label} covers {len(store.owner)} of {parent.m} edges")
    _check_gain(plan, total, len(store))
    if len(store) > (parent.n + 1) // 2:
        raise LiftError(f"{label} lost goodness")
    return store


# -- structural consequence ----------------------------------------------------


def check_structure(g: Graph) -> bool:
    """For an irreducible graph, the even-degree core must be a forest.

    Preconditions: connected, max degree at most 5, no configuration
    present, and not one of the two exceptional cliques (K3, K5).
    """
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if g.n and g.max_degree() > 5:
        raise ValueError("maximum degree exceeds 5")
    if is_exceptional_clique(g):
        raise ValueError("K3 and K5 are excluded")
    if detect(g) is not None:
        raise ValueError("graph still contains a configuration")
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
