"""Exact depth-first search for partitioning an edge set into few paths.

The engine always grows a path through the lexicographically smallest
uncovered edge, extending first at the tail and then at the head, trying
neighbours in ascending order and exploring longer extensions before
shorter ones.  Pruning uses the residual lower bound (odd-degree endpoints
and edges-per-path capacity), which keeps the search exact.
"""

from __future__ import annotations

from .graphs import Edge, edge


class BudgetExhaustedError(RuntimeError):
    """The node budget ran out before the search could decide."""


def residual_lower_bound(edges: frozenset[Edge]) -> int:
    """Minimum number of paths any partition of this edge set needs."""
    if not edges:
        return 0
    degree: dict[int, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    odd = sum(1 for count in degree.values() if count % 2 == 1)
    return _paths_needed(len(edges), len(degree), odd)


def _paths_needed(edge_count: int, live: int, odd: int) -> int:
    """The residual lower bound of ``edge_count`` > 0 edges meeting ``live``
    vertices, ``odd`` of them of odd degree: each path has two ends and at
    most ``live - 1`` edges."""
    return max((odd + 1) // 2, -(-edge_count // (live - 1)))


def cover_with_paths(
    edges: frozenset[Edge], k: int, budget: int | None = None
) -> list[tuple[int, ...]] | None:
    """Partition the edge set into at most k simple paths, or None.

    Deterministic and complete: if any partition into <= k paths exists,
    one is found.  ``budget`` caps the number of candidate paths tried.

    The uncovered edges live in one set that each tried path takes its
    edges out of and gives them back to on backtrack, with the degree
    counts the residual lower bound reads; the smallest uncovered edge is
    found by walking the sorted edge list, which only moves forward along
    a branch.
    """
    order = sorted({edge(*e) for e in edges})
    available = set(order)
    adjacency: dict[int, list[int]] = {}
    for a, b in order:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    neighbours = {v: tuple(sorted(nbs)) for v, nbs in adjacency.items()}
    degree = {v: len(nbs) for v, nbs in neighbours.items()}
    live = len(degree)  # vertices with an uncovered edge
    odd = sum(d % 2 for d in degree.values())
    spent = 0
    cover: list[tuple[int, ...]] = []

    def grow(sequence: tuple[int, ...], tail_open: bool):
        """All simple paths extending ``sequence`` inside ``available``,
        longer extensions first; head extensions only after the tail is
        final."""
        nonlocal spent
        spent += 1
        if budget is not None and spent > budget:
            raise BudgetExhaustedError(f"search budget {budget} exhausted")
        if tail_open:
            tail = sequence[-1]
            for nb in neighbours[tail]:
                if nb in sequence or edge(tail, nb) not in available:
                    continue
                yield from grow(sequence + (nb,), True)
        head = sequence[0]
        for nb in neighbours[head]:
            if nb in sequence or edge(head, nb) not in available:
                continue
            yield from grow((nb,) + sequence, False)
        yield sequence

    def shift(sequence: tuple[int, ...], step: int) -> None:
        """Take the path's edges out of ``available`` (step -1) or give
        them back (step 1), keeping ``degree``, ``live`` and ``odd``."""
        nonlocal live, odd
        for a, b in zip(sequence, sequence[1:]):
            if step < 0:
                available.remove(edge(a, b))
            else:
                available.add(edge(a, b))
            for x in (a, b):
                before = degree[x]
                degree[x] = after = before + step
                odd += after % 2 - before % 2
                live += (after > 0) - (before > 0)

    def solve(first: int, remaining: int) -> bool:
        """Cover ``available`` with at most ``remaining`` more paths; no
        uncovered edge comes before ``order[first]``."""
        if not available:
            return True
        if remaining <= 0 or _paths_needed(len(available), live, odd) > remaining:
            return False
        while order[first] not in available:
            first += 1
        for sequence in grow(order[first], True):
            shift(sequence, -1)
            cover.append(sequence)
            if solve(first + 1, remaining - 1):
                return True
            cover.pop()
            shift(sequence, 1)
        return False

    return cover if solve(0, k) else None
