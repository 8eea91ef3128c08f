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

An occurrence names only its site: C1 its vertex, C2, C3 and C4 their
edge, C5 its triangle.  ``validate`` checks that the configuration holds
there, and each reduction derives the roles it reads where it reads them:
C1's two neighbours, C3's common pair and extras (``_c3_roles``), and a C4
labelling only where the paired non-edges take one (``_reduce_c4_paired``).

``detect`` scans under the priority C1 < C2 < C3 < C4 < C5 with
ascending-id tie-breaking.  The priority is load-bearing: the C4 and C5
rewrite recipes are only guaranteed to apply when the earlier
configurations are absent, so ``reduce`` re-checks the facts it relies on
and fails loudly rather than patching around a priority violation.

``reduce`` takes a connected parent, which it never writes, and checks
each child at its boundary.  Every child is built one way (``_child``):
the parent minus a removed set S plus a synthetic edge for each route, a
walk through S whose ends the parent does not join, as a view of the
parent's table that copies nothing.  Lemma: every kept vertex then
reaches the boundary B = N(S) minus S without leaving the kept vertices,
so the child is connected exactly when B lies in one of its components,
and only the vertices of B change degree.  One search from a vertex of B
that stops once it has seen all of B (``Graph.joins``) certifies the
child.  C2 takes its two sides from one low-link search of g - v from u:
its one tree is u's side of uv, and uv is a cut edge exactly when no
other neighbour of v lies in it.

Lemma: the two children of a two-child plan (the C2 join, the C4 hub
split and four components) share no vertex, so each one's S holds the
other: C2's second child keeps v's side, the first child's S; ``rest``
keeps the ``pair``'s S minus the hub; ``far`` keeps the parts next to one
end alone, which ``near`` removes.  So ``solve`` can descend into the
second child in the table that the first child's descent edited and then
restored.

The same picture bounds where a child can hold a C3.  Every synthetic
edge has both ends in B, so an edge of the child with neither end in B
is an edge of the parent whose ends keep their neighbour tuples, and
whether an edge uv is a C3 depends on N(u) and N(v) alone.  Lemma: if
every C3 of the parent has an end in a set D, every C3 of the child has
an end in D or B.  D is empty at a graph whose detection passed C3, and
down the chain from there each child keeps the vertices of D that it
still has plus its own B (``inherited``): a set of its own vertices.

C2, the one global configuration, is carried down the chain where a
reduction already knows the child's bridges.  ``_reduce_c4`` runs one
low-link search (``Graph.low_link``) of g - {u, v} from B, and its trees
are the parts that choose the sub-case.  When it is one tree, it has
reached every vertex that the paired child keeps, so the child is
connected.  When it is more, its trees are the components of g - {u, v},
and the paired child takes the first labelling whose two synthetic edges
join them all.  Two lemmas give the bridges of the children:

- The crossing rule (``LowLink.uncrossed``): adding an edge ab to a
  connected graph keeps a tree bridge pc, with c below p, a bridge exactly
  when a and b are both inside c's subtree or both outside it.  So the
  paired child's bridges are the remainder's that no synthetic edge
  crosses.
- The C1 carry: the child of v-u-w is g - u plus the edge vw, and a path
  through u in g is one through vw in the child.  So every other edge is
  a bridge of the one exactly when it is of the other, and vw is one
  exactly when vu and uw are, which are bridges together since u has
  degree 2.  So the child's bridges are the parent's, with vw in place
  of vu and uw when they were among them.

``inherited`` gives each child what it passes to ``detect``: D as
``near``, and all its bridges where these lemmas give them, among which
``detect_c2``, the one reader of their ends' degrees, answers C2 without
a search.  ``solve`` carries both down its work stack; where either is
unknown, the child is scanned whole for it.

Each reduction records a ``LiftPlan`` naming the sub-case it chose, with
one interface for every sub-case: a ``rewrite`` that edits a ``PathStore``
holding the children's paths into a decomposition of the parent, and the
``gain`` range of paths that rewrite adds, both bound where the sub-case is
built.  In eight of the twelve sub-cases the rewrite is ``_lift_routes``
bound to the children and a few added paths: every synthetic child edge is
stated as its route through the removed vertices and spliced in place of
that edge.  The other four, and the sparse ring when it needs the x-y
bridge, bind a recipe of their own to the vertices it reads; the C5
degree-two lift rebuilds only the paths through the kept corner.

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
from collections.abc import Collection, Mapping
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Union

from .graphs import Edge, Graph, LowLink, _cut, _rows, edge
from .paths import Path, PathStore, spliced
# imported only so the benchmark's tracer can hook ``reductions.verify``
from .paths import verify  # noqa: F401
from .search import BudgetExhaustedError, cover_with_paths


class ReductionError(RuntimeError):
    """An occurrence failed validation or no rewrite sub-case applies."""


class LiftError(ReductionError):
    """A lift recipe's precondition failed; never silently repaired."""


# -- occurrences -----------------------------------------------------------


@dataclass(frozen=True)
class C1:
    """Degree-2 vertex ``u`` whose two neighbours are not adjacent."""

    u: int
    tag = "C1"

    def validate(self, g: Graph) -> None:
        if g.degree(self.u) != 2:
            raise ReductionError(f"{self}: degree is not 2")
        if g.has_edge(*g.neighbors(self.u)):
            raise ReductionError(f"{self}: neighbours are adjacent")


@dataclass(frozen=True)
class C2:
    """Cut edge ``uv`` whose two endpoint degrees are both even."""

    u: int
    v: int
    tag = "C2"

    def validate(self, g: Graph) -> None:
        # whether uv is a cut edge is asked once, by the search of _reduce_c2
        if not g.has_edge(self.u, self.v):
            raise ReductionError(f"{self} is not an edge")
        if g.degree(self.u) % 2 or g.degree(self.v) % 2:
            raise ReductionError(f"{self}: endpoint of odd degree")


@dataclass(frozen=True)
class C3:
    """Edge ``uv``, both ends of degree 4, with exactly two common
    neighbours (their roles: ``_c3_roles``)."""

    u: int
    v: int
    tag = "C3"

    def validate(self, g: Graph) -> None:
        _degree_four_edge(self, g)
        if len(g.common_neighbors(self.u, self.v)) != 2:
            raise ReductionError(f"{self}: common neighbours mismatch")


@dataclass(frozen=True)
class C4:
    """Edge ``uv``, both ends of degree 4, at which ``_c4_labellings``
    names a non-adjacent pair of each side with distinct leftovers."""

    u: int
    v: int
    tag = "C4"

    def validate(self, g: Graph) -> None:
        _degree_four_edge(self, g)
        if next(_c4_labellings(g.adjacency(), self.u, self.v), None) is None:
            raise ReductionError(f"{self}: no labelling exists")


def _degree_four_edge(occ: C3 | C4, g: Graph) -> None:
    """Refuse a C3 or C4 whose site is not an edge of two degree-4 ends."""
    if not g.has_edge(occ.u, occ.v):
        raise ReductionError(f"{occ} is not an edge")
    if g.degree(occ.u) != 4 or g.degree(occ.v) != 4:
        raise ReductionError(f"{occ}: degrees are not both 4")


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
                return C1(u)
    return None


def detect_c2(g: Graph, bridges: Collection[Edge] | None = None) -> C2 | None:
    """The C2 at the least bridge whose two ends have even degree, or None;
    given ``bridges``, all the bridges of ``g``, nothing is searched."""
    adj = g.adjacency()
    if bridges is None:
        if not _has_even_edge(adj):
            return None  # no edge has two even ends, so no bridge is wanted
        bridges = g.bridges()
    even = [(u, v) for u, v in bridges if not len(adj[u]) % 2 and not len(adj[v]) % 2]
    return C2(*min(even)) if even else None


def _has_even_edge(adj: Mapping[int, tuple[int, ...]]) -> bool:
    """Whether some edge has two ends of even degree."""
    for nbrs in adj.values():
        if not len(nbrs) % 2:
            for w in nbrs:
                if not len(adj[w]) % 2:
                    return True
    return False


def detect_c3(g: Graph, near: Iterable[int] | None = None) -> C3 | None:
    """The C3 at the least edge (u, v), or None; given ``near``, vertices
    of ``g``, only the edges at them are examined (the lemma of the module
    docstring says when that suffices).  The whole scan walks the vertices
    ascending, so the first one at a C3 is the least edge's smaller end."""
    adj = g.adjacency()
    best = None
    for u in adj if near is None else near:
        nu = adj[u]
        if len(nu) != 4:
            continue
        a, b, c, d = nu
        for v in nu:
            nv = adj[v]
            # v is one of a..d but not in nv: the sum counts the common ones
            if len(nv) == 4 and (a in nv) + (b in nv) + (c in nv) + (d in nv) == 2:
                e = (u, v) if u < v else (v, u)
                if best is None or e < best:
                    best = e
        if best is not None and near is None:
            break
    return None if best is None else C3(*best)


def _c3_roles(
    adj: Mapping[int, tuple[int, ...]], u: int, v: int
) -> tuple[int, int, int, int]:
    """``(x, y, u_extra, v_extra)`` of the C3 at the edge uv: the two
    common neighbours, ascending, and the other neighbour of u and of v."""
    nu, nv = adj[u], adj[v]
    x, y = (w for w in nu if w in nv)
    (u_extra,) = (w for w in nu if w != v and w not in nv)
    (v_extra,) = (w for w in nv if w != u and w not in nu)
    return x, y, u_extra, v_extra


def detect_c4(g: Graph) -> C4 | None:
    adj = g.adjacency()
    for u, nu in adj.items():
        if len(nu) != 4:
            continue
        for v in nu:
            if v > u and len(adj[v]) == 4:
                if next(_c4_labellings(adj, u, v), None) is not None:
                    return C4(u, v)
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


def detect(
    g: Graph, near: Iterable[int] | None = None,
    bridges: Collection[Edge] | None = None,
) -> Occurrence | None:
    """First occurrence under the priority C1 < C2 < C3 < C4 < C5; C3 is
    looked for only at the edges at ``near``, if given (``detect_c3``),
    and C2 only among ``bridges``, if given (``detect_c2``)."""
    c1, c2, c3, c4, c5 = _DETECTORS
    return c1(g) or c2(g, bridges) or c3(g, near) or c4(g) or c5(g)


# -- reduction plumbing ------------------------------------------------------


Route = tuple[int, ...]


# Child and LiftPlan are built at every level of a solve, so they are not
# frozen: a frozen __init__ sets each field through object.__setattr__, at
# about four times the cost.  They must still never be changed once built,
# but for the fields that ``solve`` releases: _finish checks a plan once,
# and takes a child's bridges as the proof that it is connected.  As
# ``solve`` descends into a child, it sets the child's ``graph`` and
# ``bridges`` to None, and the plan's ``parent`` too, which it points at
# the restored parent just before the lift.
@dataclass(slots=True)
class Child:
    """One reduced graph, on its parent's vertex ids: ``graph`` is a view
    of the parent's table (``graphs._cut``), read in place while the
    table holds the parent's tuples, until ``solve`` descends into it and
    points it at the parent's table edited into the child's.

    A route ``(a, ..., b)`` says that the child edge a-b is lifted as that
    walk through removed vertices.  Its ends are a synthetic edge, except
    in the C3 full ring, whose route reroutes a real edge that an added
    path then covers again.  ``synthetic`` lists, in route order, exactly
    the edges that ``_child`` added: every edge of the child that is not an
    edge of the parent.  No lift may leave one covered.  ``boundary``
    lists, ascending, the child's vertices that have a neighbour among the
    removed vertices S of the parent, B = N(S) minus S; S itself is held
    by the view alone.  Only the vertices of B can have gained or lost
    edges, so the parent is the child with the parent's tuples of S and B
    put back.
    ``bridges``, where the reduction's own search found them, are all the
    child's bridges.  They are also the proof that the child is connected,
    so only a reduction whose own search reached every vertex the child
    keeps may set them: the C4 paired non-edges, from a remainder search
    that was one tree, and ``_finish`` takes them as that proof from no
    other.
    """

    graph: Graph
    routes: tuple[Route, ...] = ()
    synthetic: tuple[Edge, ...] = ()
    boundary: tuple[int, ...] = ()
    bridges: frozenset[Edge] | None = None


@dataclass(slots=True)
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


def _child(g: Graph, removed: set[int], routes: tuple[Route, ...] = ()) -> Child:
    """``g`` minus ``removed`` plus the synthetic edges, an edge joining
    the ends of each route that are not adjacent in ``g``: a graph over a
    view of ``g``'s table (``graphs._cut``) that rewrites only the tuples
    of B, with no copy of the table."""
    adj = g.adjacency()
    added = []
    for route in routes:
        a, b = edge(route[0], route[-1])
        if b not in adj[a]:
            added.append((a, b))
    rows, change = _rows(adj, removed, added)
    # the synthetic edges join vertices of B, so the rewritten rows are B's
    sub = _cut(g, removed, rows, change)
    return Child(sub, routes, tuple(added), tuple(sorted(rows)))


Part = tuple[tuple[int, ...], set[int]]


def _held(parts: list[Part]) -> set[int]:
    """The vertices of ``parts``."""
    return set().union(*(vertices for _, vertices in parts))


def _ascending(chosen: list[Part]) -> list[Part]:
    """The ``chosen`` parts ascending by smallest vertex."""
    return sorted(chosen, key=lambda part: min(part[1]))


def _finish(plan: LiftPlan) -> LiftPlan:
    """Check the children of a plan whose parent is connected: each is
    connected, smaller than the parent, and of maximum degree at most
    max(5, the parent's); together they are no larger than the parent.

    By the lemma of the module docstring, a child is connected exactly
    when its boundary B lies in one of its components (``Graph.joins``),
    and only vertices of B change degree: so only they are looked at, and
    the parent's maximum degree only when one of them exceeds 5.  A C4
    paired child that carries ``bridges`` was shown connected by the
    search that found them, and is not searched again.
    """
    g = plan.parent
    certified = plan.subcase == "paired_nonedges"
    total = 0
    for child in plan.children:
        if not (certified and child.bridges is not None
                or child.graph.joins(child.boundary)):
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


def inherited(
    plan: LiftPlan, i: int, near: frozenset[int] | None,
    bridges: frozenset[Edge] | None,
) -> tuple[frozenset[int] | None, frozenset[Edge] | None]:
    """What child i of ``plan`` passes to ``detect``, given what the plan's
    parent passed: the vertices of the child at whose edges it may have a
    C3, and all its bridges (each None where unknown: search it all).

    By the C3 lemma of the module docstring, the child keeps those of
    ``near`` that it still has, plus its boundary, or its boundary alone
    past C4 and C5, whose detection found C3 absent.  A C1 child has the
    parent's bridges by the C1 carry, with no copy unless vu, and so uw,
    is among them; any other child has the ones its reduction found, if
    any, and the parent's ``bridges`` are not read.
    """
    child = plan.children[i]
    if plan.tag in ("C4", "C5"):
        near = frozenset(child.boundary)
    elif near is not None:  # vertices of the parent
        adj = child.graph.adjacency()
        near = frozenset(x for x in near if x in adj).union(child.boundary)
    if plan.tag != "C1":
        return near, child.bridges
    if bridges is not None:
        ((v, u, w),) = child.routes
        if edge(v, u) in bridges:
            bridges = (bridges - {edge(v, u), edge(u, w)}) | {edge(v, w)}
    return near, bridges


# -- C1: splice the degree-2 vertex into the bypass edge ---------------------


def _reduce_c1(g: Graph, occ: C1) -> LiftPlan:
    u = occ.u
    v, w = g.neighbors(u)
    child = _child(g, {u}, ((v, u, w),))
    return _routed("C1", "splice", g, (child,))


# -- C2: solve the two sides and join two of their paths ---------------------


def _reduce_c2(g: Graph, occ: C2) -> LiftPlan:
    # one tree of g - v from u, u's side: uv is a cut edge exactly when no
    # other neighbour of v lies in it
    u, v = occ.u, occ.v
    ((_, side),) = g.low_link((u,), (v,)).parts()
    if any(w in side for w in g.neighbors(v) if w != u):
        raise ReductionError(f"{occ} is not a cut edge")
    child_u = _child(g, g.vertices() - side)
    child_v = _child(g, side)
    rewrite = functools.partial(_lift_c2, u, v)
    return LiftPlan("C2", "join", g, (child_u, child_v), rewrite, (-1, -1))


def _lift_c2(u: int, v: int, store: PathStore) -> None:
    # u and v are odd in their sides, so a path of each side ends there
    pu, pv = store.first_ending_at(u), store.first_ending_at(v)
    joined = _oriented(store.take(pu), last=u) + _oriented(store.take(pv), first=v)
    store.append(joined)


# -- C3: bypass two degree-4 endpoints around their common pair --------------


def _reduce_c3(g: Graph, occ: C3) -> LiftPlan:
    u, v = occ.u, occ.v
    x, y, ue, ve = _c3_roles(g.adjacency(), u, v)
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
    # The boundary is the ring x-ue-y-ve, and any three of its edges join
    # it, as does a present ring edge x-ue with the bypass edges x-ve, ue-y:
    # only a sparse ring with no ring edge needs its child searched.
    if sum(present) >= 2:
        u, v, x, y, ue, ve = to_front[present.index(False)]
        child = _child(g, removed, ((x, v, u, ue),))
        return _routed("C3", "partial_ring", g, (child,), (x, u, y, v, ve))
    front = present.index(True) if any(present) else 0
    u, v, x, y, ue, ve = to_front[front]
    routes = ((x, v, ve), (ue, u, y))
    child = _child(g, removed, routes)
    if any(present) or child.graph.joins(child.boundary):
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
    commons = g.common_neighbors(u, v)
    if len(commons) == 2:
        raise ReductionError(f"{occ}: exactly two common neighbours (C3 present)")
    if len(commons) == 3:
        return _reduce_c4_triple(g, occ, commons)
    # One search of g - {u, v} decides every case.  A single part is next to
    # both ends and leaves the paired non-edges.  Otherwise uv is a cut edge
    # when no part is next to both ends.  g - hub has the component of the
    # other end, which takes in every part next to it, and one per part next
    # to hub alone.
    #
    # The counting lemma: every part holds a side neighbour, as the search
    # starts from them, and each end has three, so at most three parts are
    # next to each end, each with one of its side neighbours.  With a part
    # next to both ends, two lone parts at one end force exactly (2 lone,
    # 1 both); four parts with at most one lone part per end force
    # (2 both, 1, 1); every other split has at most three parts.  One check
    # asserts it where the parts are sorted.  The joining lemma: in every
    # other split, some labelling's two synthetic edges join all the parts,
    # as the paired check asserts; parts are never adjacent, so it rests
    # only on which part holds each side neighbour and on the edges within
    # parts.  A breach of either lemma is a fault of the program, not of
    # its input, so both checks raise ``solver.InternalError``.
    ts, ws = set(g.neighbors(u)) - {v}, set(g.neighbors(v)) - {u}
    search = g.low_link(sorted(ts | ws), {u, v})
    if len(search.firsts) == 1:
        return _reduce_c4_paired(g, occ, search)
    parts = search.parts()
    both = [p for p in parts if ts.intersection(p[0]) and ws.intersection(p[0])]
    only_t = [p for p in parts if not ws.intersection(p[0])]
    only_w = [p for p in parts if not ts.intersection(p[0])]
    if not both:
        raise ReductionError(f"{occ}: the edge is a cut edge (C2 was skipped)")
    if len(both) + max(len(only_t), len(only_w)) > 3:
        from .solver import InternalError  # here: solver imports this module

        raise InternalError(
            f"{occ}: the parts break the counting lemma"
            " (each part next to an end holds one of its three side neighbours)"
        )
    if len(only_t) == 2:
        return _reduce_c4_hub(g, u, v, ts, only_t, both, only_w)
    if len(only_w) == 2:
        return _reduce_c4_hub(g, v, u, ws, only_w, both, only_t)
    if len(parts) == 4:
        return _reduce_c4_four(g, occ, ts, ws, both, only_t, only_w)
    return _reduce_c4_paired(g, occ, search)


def _reduce_c4_triple(g: Graph, occ: C4, commons: tuple[int, ...]) -> LiftPlan:
    # two gaps at least: with one, both sides' only non-adjacent pair is
    # that gap, whose leftovers coincide, so C4.validate finds no labelling
    first, second = [
        (a, b)
        for a, b in itertools.combinations(sorted(commons), 2)
        if not g.has_edge(a, b)
    ][:2]
    (y,) = set(first) & set(second)
    (x,) = set(first) - {y}
    (z,) = set(second) - {y}
    u, v = occ.u, occ.v
    child = _child(g, {u, v}, ((x, u, y), (y, v, z)))
    return _routed("C4", "triple_common", g, (child,), (x, v, u, z))


def _reduce_c4_hub(
    g: Graph, hub: int, other: int, side: set[int],
    lone: list[Part], both: list[Part], beyond: list[Part],
) -> LiftPlan:
    # parts next to the hub alone (two), to both ends (one), and to the
    # other end alone: the hub's three side neighbours, ``side``, lie one
    # in each of the first three
    lone = _ascending(lone)
    (t1,), (t2,), (t3,) = (side.intersection(starts) for starts, _ in lone + both)
    pair = _child(g, {hub, other} | _held(both + beyond), ((t1, hub, t2),))
    rest = _child(g, {hub} | _held(lone))
    rewrite = functools.partial(_lift_c4_hub, hub, other, t1, t2, t3)
    return LiftPlan("C4", "hub_split", g, (pair, rest), rewrite, (0, 0))


def _reduce_c4_four(
    g: Graph, occ: C4, ts: set[int], ws: set[int],
    both: list[Part], only_t: list[Part], only_w: list[Part],
) -> LiftPlan:
    # two parts next to both ends and one next to each end alone (the
    # counting lemma of _reduce_c4)
    u, v = occ.u, occ.v
    both = _ascending(both)
    (t1,), (t2,), (t3,) = (ts.intersection(p[0]) for p in both + only_t)
    (w1,), (w2,), (w3,) = (ws.intersection(p[0]) for p in both + only_w)
    near = _child(g, {u, v} | _held(only_t + only_w), ((t1, u, t2), (w1, v, w2)))
    far = _child(g, {u, v} | _held(both), ((t3, u, v, w3),))
    return _routed("C4", "four_components", g, (near, far))


def _reduce_c4_paired(g: Graph, occ: C4, search: LowLink) -> LiftPlan:
    # The first labelling whose synthetic edges join every tree is taken,
    # so with one tree the first, whose child keeps the search's bridges
    # that no synthetic edge crosses.
    u, v = occ.u, occ.v
    trees = len(search.firsts)
    for t1, t2, t3, w1, w2, w3 in _c4_labellings(g.adjacency(), u, v):
        ends = [(search.tree(a), search.tree(b)) for a, b in ((t1, t2), (w1, w2))]
        if len({edge(i, j) for i, j in ends if i != j}) < trees - 1:
            continue
        child = _child(g, {u, v}, ((t1, u, t2), (w1, v, w2)))
        if trees == 1:
            child = replace(child, bridges=frozenset(search.uncrossed(child.synthetic)))
        return _routed("C4", "paired_nonedges", g, (child,), (t3, u, v, w3))
    from .solver import InternalError  # here: solver imports this module

    raise InternalError(
        f"{occ}: no reconnecting relabelling exists (the joining lemma gives one)"
    )


def _lift_c4_hub(
    hub: int, other: int, t1: int, t2: int, t3: int, store: PathStore
) -> None:
    # other has degree 3 in the rest child, so a path ends there
    q = store.first_ending_at(other)
    left, right = _take_split(store, edge(t1, t2))
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
    gap on each side makes a C4 at ab.  (ii) Each pair of corners shares
    only the third, and two corners a and b have degree 4: then the third
    corner c is adjacent to none of the outer neighbours a1, a2 of a and
    b1, b2 of b, so (c, a1) and (c, b1) are non-edges with leftovers
    a2 != b2, a C4 at ab.  So ``degree_two`` is left only with both
    corners other than u of degree 2.
    """
    corners = (occ.u, occ.v, occ.w)
    shared = False  # some pair shares a vertex besides the third corner
    for a, b in itertools.combinations(sorted(corners), 2):
        common = g.common_neighbors(a, b)
        if len(common) == 3:
            return _reduce_c5_common3(g, occ, a, b, common)
        shared = shared or len(common) != 1
    if shared:
        raise ReductionError(
            f"{occ}: corners share an outside neighbour (C3/C4 order broken)"
        )
    fours = sorted(c for c in corners if g.degree(c) == 4)
    if len(fours) >= 2:
        raise _c4_first(occ, *fours[:2], "two corners have degree 4")
    return _reduce_c5_degree_two(g, occ)


def _c4_first(occ: C5, a: int, b: int, why: str) -> ReductionError:
    """Refuse a C5 whose corner edge ab carries a C4, and name that C4."""
    return ReductionError(f"{occ}: {why} (C4 present: {C4(a, b)})")


def _reduce_c5_common3(
    g: Graph, occ: C5, a: int, b: int, trio: tuple[int, ...]
) -> LiftPlan:
    """The corner pair (a, b) sees the ``trio``, three common vertices
    ascending, one of them the third corner; the sub-case depends on the
    gaps among those three."""
    missing = [
        (p, q) for p, q in itertools.combinations(trio, 2) if not g.has_edge(p, q)
    ]
    if len(missing) >= 2:
        raise _c4_first(occ, a, b, "two gaps in the common trio")
    if len(missing) == 1:
        x, y = missing[0]
        (apex,) = set(trio) - {x, y}
        child = _child(g, {a, b}, ((x, a, b, y),))
        return _routed("C5", "one_gap", g, (child,), (x, b, apex, a, y))
    child = _child(g, {a, b})
    degrees = tuple(map(child.graph.degree, trio))
    rewrite = functools.partial(_lift_c5_triangle, a, b, trio, degrees)
    return LiftPlan("C5", "common_triangle", g, (child,), rewrite, (1, 1))


def _reduce_c5_degree_two(g: Graph, occ: C5) -> LiftPlan:
    # v and w have degree 2: the child is g - {v, w}, or for w < u g - {v, u}
    # plus w-x1 and w-x2, routed as the walks that the lift puts back
    u, v, w = occ.u, occ.v, occ.w
    x1, x2 = sorted(set(g.neighbors(u)) - {v, w})
    child = _child(g, {v, max(u, w)}, ((w, u, x1), (w, v, u, x2)) if w < u else ())
    rewrite = functools.partial(_lift_c5_degree_two, u, v, w, x1, x2)
    return LiftPlan("C5", "degree_two", g, (child,), rewrite, (0, 1))


def _lift_c5_triangle(
    u: int, v: int, trio: tuple[int, int, int], degrees: tuple[int, int, int],
    store: PathStore,
) -> None:
    """Both removed corners see all of the triangle {c1, c2, c3}, whose
    vertices have the ``degrees`` in the child, in the order of ``trio``.

    The rewrite needs a role assignment (w, x, y) of the triangle where w
    has no neighbours outside the triangle in the child, the x-w and w-y
    edges lie on different paths, and x-y and w-y lie on different paths.
    When every admissible assignment is blocked (both child edges at every
    candidate w share one path), fall back to an exact re-partition of the
    affected paths, which keeps the same accounting.
    """
    holder = store.holder
    degree = dict(zip(trio, degrees))
    for wr, xr, yr in itertools.permutations(trio):
        if degree[wr] != 2:
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
        raise LiftError(
            "triangle corner is not terminal in its path (the role loop"
            " admits w only of child degree 2, with x-w and w-y on two paths)"
        )
    store.replace(q, q_vertices[:-1] + (u,))

    p = holder(edge(xr, yr))
    r = holder(edge(yr, wr))
    if r == p:
        raise LiftError(
            "triangle role separation failed (the role loop admits x-y and"
            " w-y only on two paths, and store.replace keeps path ids)"
        )
    left, right = _take_split(store, edge(xr, yr))
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
    try:
        cover = cover_with_paths(table, len(hosts) + 1, budget=_REPAIR_BUDGET)
    except BudgetExhaustedError as exc:  # the repair's own bound, not the user's
        raise LiftError(f"triangle repair ran out of its budget: {exc}") from exc
    if cover is None:
        raise LiftError("triangle repair found no small re-partition")
    for sequence in cover:
        store.append(sequence)


def _lift_c5_degree_two(
    u: int, v: int, w: int, x1: int, x2: int, store: PathStore
) -> None:
    # The child kept the corner s = min(u, w), which plays w; its edges
    # towards x1/x2 stand for parent edges at u, and w has no others, as
    # v and w have degree 2.  Only the paths through it change: each is
    # renamed and rebuilt in one edit.
    s = min(u, w)
    at_x1, at_x2 = store.holder(edge(s, x1)), store.holder(edge(s, x2))
    for pid in sorted({at_x1, at_x2}):
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
    total = sum(map(len, stores))
    store = stores[0]
    try:
        for other in stores[1:]:
            store.merge(other)
        store.graph = parent
        plan.rewrite(store)
    except ValueError as exc:
        raise _lift_error(plan, f"recipe failed: {exc}") from exc
    left = [e for child in plan.children for e in child.synthetic if e in store.owner]
    if left:
        raise _lift_error(plan, f"left synthetic edges {left} covered")
    if len(store.owner) != parent.m:
        raise _lift_error(plan, f"covers {len(store.owner)} of {parent.m} edges")
    count = len(store)
    lo, hi = plan.gain
    if not (total + lo <= count <= total + hi):
        raise _lift_error(
            plan,
            f"produced {count} paths "
            f"from {total}, outside [{total + lo}, {total + hi}]",
        )
    if count > (parent.n + 1) // 2:
        raise _lift_error(plan, "lost goodness")
    return store


def _lift_error(plan: LiftPlan, why: str) -> LiftError:
    """Refuse a lift, naming its plan as ``tag/subcase``; the label is
    formatted only here, on failure, not once per lift."""
    return LiftError(f"{plan.tag}/{plan.subcase} {why}")


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

    One search of the table decides it: it counts the even vertices, the
    edges among them and their components, and the core is a forest
    exactly when it has as many edges as vertices less components.
    """
    if is_exceptional_clique(g):
        raise ValueError("K3 and K5 are excluded")
    adj = g.adjacency()
    seen: set[int] = set()
    ends = 0  # each core edge counts at both of its ends
    parts = 0
    for root, nbrs in adj.items():
        if len(nbrs) & 1 or root in seen:
            continue
        parts += 1
        seen.add(root)
        stack = [root]
        while stack:
            for w in adj[stack.pop()]:
                if not len(adj[w]) & 1:
                    ends += 1
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return ends // 2 == len(seen) - parts


def is_exceptional_clique(g: Graph) -> bool:
    """K3 or K5: the two cliques ``solve`` does not reduce and
    ``check_structure`` excludes."""
    return (g.n, g.m) in ((3, 3), (5, 10))


# -- shared helpers --------------------------------------------------------------


def _take_split(store: PathStore, e: Edge) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Take the path that covers ``e`` from ``store``, as its two sides
    around e (either side can be a single vertex)."""
    vs = store.take(store.holder(e))
    i = min(vs.index(e[0]), vs.index(e[1]))
    return vs[: i + 1], vs[i + 1 :]


def _oriented(
    vs: tuple[int, ...], first: int | None = None, last: int | None = None
) -> tuple[int, ...]:
    if first is not None:
        return vs if vs[0] == first else vs[::-1]
    return vs if vs[-1] == last else vs[::-1]
