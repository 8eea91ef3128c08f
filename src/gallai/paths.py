"""Paths, path decompositions, the verifier, and the four editing moves.

A decomposition is *valid* against a graph when its paths are simple, every
step is an edge, and the path edges partition the edge set exactly.  It is
*good* when it is valid and uses at most ceil(n/2) paths.  The editing moves
(replace a subpath, extend, split, add) are the only ways the lifting rules
rewrite decompositions; each one checks its own preconditions loudly.
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


def is_good(g: Graph, d: PathDecomposition) -> bool:
    report = verify(g, d)
    if not report.valid:
        raise ValueError(f"decomposition is not valid:\n{report}")
    return report.good


def lower_bound(g: Graph) -> int:
    """max(half the odd-degree vertices, edges over the longest path length)."""
    if g.m == 0:
        raise ValueError("lower bound of an edgeless graph is undefined")
    return residual_lower_bound(frozenset(g.edges()))


# -- editing moves --------------------------------------------------------


def _index_of(d: PathDecomposition, p: Path) -> int:
    back = p.reversed()
    for i, q in enumerate(d.paths):
        if q == p or q == back:
            return i
    raise ValueError(f"path {p.vertices} is not in the decomposition")


def _find_subpath(p: Path, q: Path) -> tuple[int, int]:
    """Start/end indices of q as a contiguous subpath of p (either direction)."""
    vs, target = p.vertices, q.vertices
    for cand in (target, target[::-1]):
        for i in range(len(vs) - len(cand) + 1):
            if vs[i : i + len(cand)] == cand:
                return i, i + len(cand) - 1
    raise ValueError(f"{q.vertices} is not a subpath of {p.vertices}")


def _as_path_or_none(vertices: tuple[int, ...]) -> Path | None:
    return Path(vertices) if len(vertices) >= 2 else None


def replace_subpath(
    d: PathDecomposition, p: Path, q: Path, r: Path
) -> PathDecomposition:
    """Replace the subpath q of p with r (same endpoints), keeping p simple."""
    i = _index_of(d, p)
    host = d.paths[i]
    lo, hi = _find_subpath(host, q)
    seg = host.vertices[lo : hi + 1]
    if r.vertices[0] == seg[0] and r.vertices[-1] == seg[-1]:
        middle = r.vertices
    elif r.vertices[-1] == seg[0] and r.vertices[0] == seg[-1]:
        middle = r.vertices[::-1]
    else:
        raise ValueError(
            f"replacement {r.vertices} does not share endpoints with {seg}"
        )
    merged = host.vertices[:lo] + middle + host.vertices[hi + 1 :]
    if len(set(merged)) != len(merged):
        raise ValueError("replacement does not leave a simple path")
    return PathDecomposition(d.paths[:i] + (Path(merged),) + d.paths[i + 1 :])


def extend(d: PathDecomposition, p: Path, r: Path) -> PathDecomposition:
    """Extend p with r, which shares exactly one endpoint with p."""
    i = _index_of(d, p)
    host = d.paths[i]
    h0, h1 = host.ends
    r0, r1 = r.ends
    if r0 == h1:
        merged = host.vertices + r.vertices[1:]
    elif r1 == h1:
        merged = host.vertices + r.vertices[-2::-1]
    elif r0 == h0:
        merged = r.vertices[:0:-1] + host.vertices
    elif r1 == h0:
        merged = r.vertices[:-1] + host.vertices
    else:
        raise ValueError(
            f"extension {r.vertices} shares no endpoint with {host.vertices}"
        )
    if len(set(merged)) != len(merged):
        raise ValueError("extension revisits a vertex")
    return PathDecomposition(d.paths[:i] + (Path(merged),) + d.paths[i + 1 :])


def split_at(d: PathDecomposition, p: Path, u: int) -> PathDecomposition:
    """Split p at u into the two sides of u; an empty side is dropped."""
    i = _index_of(d, p)
    host = d.paths[i]
    if u not in host.vertices:
        raise ValueError(f"{u} does not lie on {host.vertices}")
    at = host.vertices.index(u)
    parts = [
        part
        for part in (
            _as_path_or_none(host.vertices[: at + 1]),
            _as_path_or_none(host.vertices[at:]),
        )
        if part is not None
    ]
    return PathDecomposition(d.paths[:i] + tuple(parts) + d.paths[i + 1 :])


def add_path(d: PathDecomposition, r: Path) -> PathDecomposition:
    """Add r, whose edges must be disjoint from the decomposition's."""
    # Only a path sharing a vertex with r can hold one of r's edges.
    on_r = set(r.vertices)
    taken = {
        e for p in d.paths if not on_r.isdisjoint(p.vertices) for e in p.edges()
    }
    clash = [e for e in r.edges() if e in taken]
    if clash:
        raise ValueError(f"added path reuses covered edges {clash}")
    return PathDecomposition(d.paths + (r,))


def paths_ending_at(d: PathDecomposition, v: int) -> list[Path]:
    return [p for p in d.paths if v in p.ends]
