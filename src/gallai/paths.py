"""Paths, path decompositions, and the verifier.

A decomposition is *valid* against a graph when its paths are simple, every
step is an edge, and the path edges partition the edge set exactly.  It is
*good* when it is valid and uses at most ceil(n/2) paths.  The lifting rules
find their host paths with ``paths_ending_at`` here and build their rewrites
in ``reductions``; ``lift`` verifies every result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph, edge
from .search import residual_lower_bound


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
    return residual_lower_bound(frozenset(g.edges()))


# -- helpers for the lifts ------------------------------------------------


def paths_ending_at(d: PathDecomposition, v: int) -> list[Path]:
    return [p for p in d.paths if v in p.ends]
