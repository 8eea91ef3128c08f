"""Exact search for covering a graph's edges with few paths.

The search reads a neighbour table: ascending vertex ids, each mapped to
the ascending tuple of its neighbours, as ``Graph.adjacency()`` gives it.
It always grows a path through the lexicographically smallest uncovered
edge, extending first at the tail and then at the head, trying neighbours
in ascending order and exploring longer extensions before shorter ones.
Pruning uses the residual lower bound (odd-degree endpoints and
edges-per-path capacity), which keeps the search exact.  The search is
depth-first, but it runs as one loop on explicit stacks, with no recursion
and no generator, so neither the number of paths nor their length is
bounded by the recursion limit.  A search node is the one edge it adds to
a path, kept at the path's end: a node stores no object of its own and
costs O(1) however long its path is.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping


class BudgetExhaustedError(RuntimeError):
    """The node budget ran out before the search could decide."""


def _paths_needed(edge_count: int, live: int, odd: int) -> int:
    """The residual lower bound of ``edge_count`` > 0 edges meeting ``live``
    vertices, ``odd`` of them of odd degree: each path has two ends and at
    most ``live - 1`` edges."""
    return max((odd + 1) // 2, -(-edge_count // (live - 1)))


def cover_with_paths(
    adj: Mapping[int, tuple[int, ...]], k: int, budget: int | None = None
) -> list[tuple[int, ...]] | None:
    """Partition the edges of the table ``adj`` into at most k simple
    paths, or None.

    ``adj`` maps ascending vertex ids, all at least 0, to ascending,
    symmetric neighbour tuples.  The ids may have gaps and a vertex may
    have no neighbours, as in a graph derived from another one: the search
    runs on the vertices with a neighbour.  Deterministic and complete: if
    any partition into <= k paths exists, one is found.  ``budget`` caps
    the number of candidate paths tried.

    One loop runs the whole search on an explicit stack of levels, one per
    path of the cover under construction, so its depth is bounded by
    memory, not by the recursion limit.  A level holds its start index
    into the ascending vertices, its remaining path count, the residual
    counts it opened with, and its candidate path: a deque of vertices,
    with the set of them for membership tests.  A node is the edge x-y it
    added to the path, with y at one end and x next to it, so the deque is
    the level's node stack and no object is stored per node.  The edge
    leaves the per-vertex sets of free neighbours when the node is pushed
    and returns when it is popped.  Within a level every tail extension
    comes before every head extension, so the last node pushed sits at the
    head once the path no longer starts at the level's first vertex, and
    at the tail before.  Popping it resumes its parent's scan of the
    ascending tuple ``adj[x]`` at the first neighbour above y, on the same
    side, which is where an iterator over that tuple would have stopped; a
    new node scans its tuple from the start.  So a node costs O(1), not
    the length of its path.  A path is offered as its level's, as one
    tuple, once both of its ends are exhausted, and its last node is
    popped once every level opened above it has failed.
    """
    free = {v: set(nbs) for v, nbs in adj.items() if nbs}
    vertices = list(free)
    slots = list(free.values())
    uncovered = sum(map(len, slots)) // 2
    live = len(slots)  # vertices with an uncovered edge
    odd = sum(len(nbs) % 2 for nbs in slots)
    limit = float("inf") if budget is None else budget
    spent = 0
    cover: list[tuple[int, ...]] = []
    # (first, remaining, uncovered, odd, path, on) for each path of
    # ``cover`` and the level looking for the next one: no vertex before
    # vertices[first] has a free neighbour, and the path starts from
    # vertices[first] until it extends at the head
    levels: list[tuple[int, int, int, int, deque[int], set[int]]] = []
    first, remaining = 0, k
    while True:
        if not uncovered:
            return cover
        if remaining > 0 and _paths_needed(uncovered, live, odd) <= remaining:
            # Open a level on the smallest uncovered edge: its smaller end
            # is the first vertex with a free neighbour, all of which are
            # larger than it, so the scan below pushes that edge first.
            while not slots[first]:
                first += 1
            x = vertices[first]
            fx = slots[first]
            path = deque((x,))
            on = {x}
            levels.append((first, remaining, uncovered, odd, path, on))
            tail = True
            after = -1  # below every id: scan from the start
        else:
            # Give offered paths back until a level has a node left.
            while True:
                if not levels:
                    return None
                cover.pop()
                first, remaining, uncovered, odd, path, on = levels[-1]
                # Pop the last node, the edge x-after at the end it sits
                # on; the scan of adj[x] resumes above ``after``.
                tail = path[0] == vertices[first]
                if tail:
                    after = path.pop()
                    x = path[-1]
                else:
                    after = path.popleft()
                    x = path[0]
                on.remove(after)
                fx, fy = free[x], free[after]
                live += (not fx) + (not fy)
                fx.add(after)
                fy.add(x)
                if len(path) > 1:
                    break
                levels.pop()
        while True:
            for nb in adj[x]:
                if nb > after and nb in fx and nb not in on:
                    break
            else:
                if tail:
                    # The tail is final: extend at the head.
                    tail = False
                    x = path[0]
                    fx = free[x]
                    after = -1
                    continue
                cover.append(tuple(path))
                remaining -= 1
                uncovered -= len(path) - 1
                # A path flips the degree parity of its two ends only.
                odd += (1 if len(fx) % 2 else -1) + (
                    1 if len(free[path[-1]]) % 2 else -1
                )
                break
            # Push the node that extends the path by x-nb.
            spent += 1
            if spent > limit:
                raise BudgetExhaustedError(f"search budget {budget} exhausted")
            fn = free[nb]
            fx.remove(nb)
            fn.remove(x)
            live -= (not fx) + (not fn)
            if tail:
                path.append(nb)
            else:
                path.appendleft(nb)
            on.add(nb)
            x, fx, after = nb, fn, -1
