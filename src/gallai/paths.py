"""Paths, path decompositions, the verifier, and the path store.

A decomposition is *valid* against a graph when its paths are simple, every
step is an edge, and the path edges partition the edge set exactly.  It is
*good* when it is valid and uses at most ceil(n/2) paths.

The lift in ``reductions`` rewrites decompositions in place through a
``PathStore``: a decomposition kept as path ids mapped to vertex tuples,
with an index from each covered edge to the id of its path.  Every edit
checks what it changes against the store's graph (an edge it removes must
be indexed, an edge it adds must be an edge of the graph that no path
covers yet, a vertex it adds to a path must not be on it), so an edit
costs the length of the paths it touches, not a pass over the graph.  A
decomposition enters a store only through ``PathStore.load``, which makes
the same checks and also requires every edge to be covered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Edge, Graph, edge
from .search import _paths_needed


@dataclass(frozen=True)
class Path:
    """A path, stored as its vertex sequence (length >= 2).

    Simplicity (no repeated vertex) and edge membership are properties
    against a reference graph and are reported by ``verify`` rather than
    enforced here, so malformed input can always be diagnosed in full.
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError("a path needs at least two vertices")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self.vertices

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def edges(self) -> tuple[Edge, ...]:
        vs = self.vertices
        return tuple(edge(a, b) for a, b in zip(vs, vs[1:]))

    def reversed(self) -> "Path":
        return Path(self.vertices[::-1])

    def canonical(self) -> "Path":
        """Orientation with the smaller endpoint first (for serialization)."""
        return self if self.vertices[0] <= self.vertices[-1] else self.reversed()


def path(*vertices: int) -> Path:
    return Path(tuple(vertices))


@dataclass(frozen=True)
class PathDecomposition:
    paths: tuple[Path, ...]

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def decomposition(*paths: Path | tuple[int, ...]) -> PathDecomposition:
    return PathDecomposition(
        tuple(p if isinstance(p, Path) else Path(tuple(p)) for p in paths)
    )


@dataclass(frozen=True)
class Violation:
    kind: str  # non_edge | repeated_vertex | duplicate_edge | uncovered_edge
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple[Violation, ...]
    path_count: int
    good: bool

    def __str__(self) -> str:
        if self.valid:
            word = "good" if self.good else "valid but not good"
            return f"{word}: {self.path_count} paths"
        lines = [f"invalid: {self.path_count} paths"]
        lines += [f"  {v.kind}: {v.detail}" for v in self.violations]
        return "\n".join(lines)


def verify(g: Graph, d: PathDecomposition) -> VerifyReport:
    """Check a decomposition against a graph, reporting every violation.

    The check is one pass over the path steps: each step is looked up in the
    neighbour tuple of its first vertex, and each graph edge it covers is
    tallied under one key however often it is covered.  So every edge is
    covered exactly when there are ``g.m`` keys, and the graph's edges are
    listed only when there are fewer, to name the uncovered ones.
    Violations are reported per path (repeated vertices, then non-edges, in
    path order), then duplicated edges ascending, then uncovered edges
    ascending.
    """
    violations: list[Violation] = []
    used: dict[Edge, int] = {}
    adj = g.adjacency()
    for i, p in enumerate(d.paths):
        vs = p.vertices
        if len(set(vs)) != len(vs):
            seen: set[int] = set()
            for v in vs:
                if v in seen:
                    violations.append(
                        Violation("repeated_vertex", f"path {i} revisits {v}")
                    )
                seen.add(v)
        steps = iter(vs)
        a = next(steps)
        for b in steps:
            # an id outside the graph has no neighbours and is no neighbour
            if b not in adj.get(a, ()):
                violations.append(
                    Violation("non_edge", f"path {i} steps over ({a}, {b})")
                )
            else:
                e = (a, b) if a < b else (b, a)
                used[e] = used.get(e, 0) + 1
            a = b
    for e in sorted(e for e, count in used.items() if count > 1):
        violations.append(
            Violation("duplicate_edge", f"edge {e} covered {used[e]} times")
        )
    if len(used) != g.m:
        for e in g.edges():
            if e not in used:
                violations.append(Violation("uncovered_edge", f"edge {e} uncovered"))
    valid = not violations
    good = valid and len(d.paths) <= (g.n + 1) // 2
    return VerifyReport(valid, tuple(violations), len(d.paths), good)


def lower_bound(g: Graph) -> int:
    """max(half the odd-degree vertices, edges over the longest path length)."""
    if g.m == 0:
        raise ValueError("lower bound of an edgeless graph is undefined")
    degrees = [len(nbrs) for nbrs in g.adjacency().values() if nbrs]
    return _paths_needed(g.m, len(degrees), sum(d % 2 for d in degrees))


# -- the path store ---------------------------------------------------------


# Path ids come from one counter, so a path added later has a larger id:
# the ids of a store ascend in its path order, and ``first_ending_at``
# picks the earliest path by its id.
_path_ids = itertools.count()


class PathStore:
    """A decomposition under in-place rewriting.

    ``paths`` maps stable path ids to vertex tuples in path order and
    ``owner`` maps each covered edge to the id of its path; both are read
    directly and changed only through the methods, which keep them in
    step.  A path rewritten in place keeps its id and position, a taken
    path drops out, and an appended path goes last.  ``graph`` is the
    graph the edits are checked against; a lift points it at the parent
    graph before it edits.  Every failed check raises ``ValueError``.
    """

    __slots__ = ("graph", "paths", "owner")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.paths: dict[int, tuple[int, ...]] = {}
        self.owner: dict[Edge, int] = {}

    @classmethod
    def load(cls, graph: Graph, d: PathDecomposition) -> "PathStore":
        """A store holding ``d``, checked to be a decomposition of
        ``graph``: every path is appended with the edit checks, and the
        paths must cover all ``graph.m`` edges."""
        store = cls(graph)
        for p in d.paths:
            store.append(p.vertices)
        if len(store.owner) != graph.m:
            raise ValueError(f"paths cover {len(store.owner)} of {graph.m} edges")
        return store

    def __len__(self) -> int:
        return len(self.paths)

    def decomposition(self) -> PathDecomposition:
        return PathDecomposition(tuple(Path(vs) for vs in self.paths.values()))

    def merge(self, other: "PathStore") -> None:
        """Move the paths of ``other``, a store on disjoint edges built
        after this one, behind this store's paths."""
        if other.paths and self.paths:
            if next(iter(other.paths)) < next(reversed(self.paths)):
                raise ValueError("a store can only take in a newer store")
        self.paths.update(other.paths)
        self.owner.update(other.owner)

    def holder(self, e: Edge) -> int:
        """The id of the path that covers ``e``."""
        try:
            return self.owner[e]
        except KeyError:
            raise ValueError(f"edge {e} is on no path") from None

    def first_ending_at(self, v: int) -> int | None:
        """The id of the first path with an end at ``v``, found through
        the index entries of the graph edges at ``v``."""
        owner = self.owner
        found = None
        for x in self.graph.neighbors(v):
            pid = owner.get((v, x) if v < x else (x, v))
            if pid is not None and (found is None or pid < found):
                vs = self.paths[pid]
                if vs[0] == v or vs[-1] == v:
                    found = pid
        return found

    def append(self, vertices: tuple[int, ...]) -> int:
        """Add a path after the others and return its id."""
        if len(set(vertices)) != len(vertices):
            raise ValueError(f"path {vertices} repeats a vertex")
        pid = next(_path_ids)
        self._claim(pid, vertices)
        self.paths[pid] = vertices
        return pid

    def take(self, pid: int) -> tuple[int, ...]:
        """Remove the path ``pid`` and return its vertices."""
        vertices = self.paths.pop(pid)
        self._release(vertices)
        return vertices

    def replace(self, pid: int, vertices: tuple[int, ...]) -> None:
        """Rewrite the path ``pid`` in place."""
        if len(set(vertices)) != len(vertices):
            raise ValueError(f"path {vertices} repeats a vertex")
        self._release(self.paths[pid])
        self._claim(pid, vertices)
        self.paths[pid] = vertices

    def splice(self, route: tuple[int, ...]) -> None:
        """Put ``route`` in place of the edge that joins its ends, on the
        path that covers it."""
        a, b = route[0], route[-1]
        e = (a, b) if a < b else (b, a)
        pid = self.holder(e)
        vertices = spliced(self.paths[pid], route)
        del self.owner[e]
        self._claim(pid, route)
        self.paths[pid] = vertices

    def _claim(self, pid: int, vertices: tuple[int, ...]) -> None:
        """Index the steps of ``vertices`` under ``pid``; each must be an
        edge of the graph that no path covers yet."""
        adj, owner = self.graph.adjacency(), self.owner
        for a, b in zip(vertices, vertices[1:]):
            if b not in adj.get(a, ()):
                raise ValueError(f"({a}, {b}) is not an edge of the graph")
            e = (a, b) if a < b else (b, a)
            if e in owner:
                raise ValueError(f"edge {e} is already covered")
            owner[e] = pid

    def _release(self, vertices: tuple[int, ...]) -> None:
        owner = self.owner
        for a, b in zip(vertices, vertices[1:]):
            del owner[(a, b) if a < b else (b, a)]


def spliced(vertices: tuple[int, ...], route: tuple[int, ...]) -> tuple[int, ...]:
    """``vertices`` with ``route`` in place of its step between the route's
    ends, oriented along the path; no vertex may then appear twice."""
    a, b = route[0], route[-1]
    i = vertices.index(a) if a in vertices else -1
    if 0 <= i < len(vertices) - 1 and vertices[i + 1] == b:
        middle = route
    elif i > 0 and vertices[i - 1] == b:
        i -= 1
        middle = route[::-1]
    else:
        raise ValueError(f"({a}, {b}) is not a step of the path {vertices}")
    if len(set(route)) != len(route) or any(x in vertices for x in route[1:-1]):
        raise ValueError("replacement does not leave a simple path")
    return vertices[:i] + middle + vertices[i + 2 :]
