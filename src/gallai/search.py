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
bounded by the recursion limit.
"""

from __future__ import annotations

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

    ``adj`` maps ascending vertex ids to ascending, symmetric neighbour
    tuples.  The ids may have gaps and a vertex may have no neighbours, as
    in a graph derived from another one: the search runs on the vertices
    with a neighbour.  Deterministic and complete: if any partition into
    <= k paths exists, one is found.  ``budget`` caps the number of
    candidate paths tried.

    One loop runs the whole search on an explicit stack of levels, one per
    path of the cover under construction, so its depth is bounded by
    memory, not by the recursion limit.  A level holds its start index
    into the ascending vertices, its remaining path count, the residual
    counts it opened with, and the stack of nodes of its candidate
    enumeration.  A node is a candidate path, whether its tail is still
    open, an iterator over the ascending neighbours of its open end, and
    the edge it added.  That edge leaves the per-vertex sets of free
    neighbours when the node is pushed and returns when it is popped, so
    a suspended node resumes on the free edges it was suspended on.  A
    node is offered as its level's path once both of its ends are
    exhausted, and popped once every level opened above it has failed.
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
    # (first, remaining, uncovered, odd, nodes) for each path of ``cover``
    # and the level looking for the next one; no vertex before
    # vertices[first] has a free neighbour
    levels: list[tuple[int, int, int, int, list[tuple]]] = []
    first, remaining = 0, k
    while True:
        if not uncovered:
            return cover
        if remaining > 0 and _paths_needed(uncovered, live, odd) <= remaining:
            # Open a level on the smallest uncovered edge: its smaller end
            # is the first vertex with a free neighbour, all of which are
            # larger than it.
            while not slots[first]:
                first += 1
            end = vertices[first]
            fe = slots[first]
            nb = min(fe)
            sequence: tuple[int, ...] = (end,)
            tail_open = True
            nodes: list[tuple] = []
            levels.append((first, remaining, uncovered, odd, nodes))
        else:
            # Give offered paths back until a level has a node left.
            while True:
                if not levels:
                    return None
                cover.pop()
                first, remaining, uncovered, odd, nodes = levels[-1]
                *_, x, y = nodes.pop()
                fx, fy = free[x], free[y]
                live += (not fx) + (not fy)
                fx.add(y)
                fy.add(x)
                if nodes:
                    break
                levels.pop()
            sequence, tail_open, scan, _, _ = nodes[-1]
            end = sequence[-1] if tail_open else sequence[0]
            fe = free[end]
            nb = None
        while True:
            if nb is not None:
                # Push the node that extends ``sequence`` by end-nb.
                spent += 1
                if spent > limit:
                    raise BudgetExhaustedError(f"search budget {budget} exhausted")
                fn = free[nb]
                fe.remove(nb)
                fn.remove(end)
                live -= (not fe) + (not fn)
                sequence = sequence + (nb,) if tail_open else (nb,) + sequence
                scan = iter(adj[nb])
                nodes.append((sequence, tail_open, scan, end, nb))
                end, fe = nb, fn
            for nb in scan:
                if nb in fe and nb not in sequence:
                    break
            else:
                if tail_open:
                    # The tail is final: extend at the head.
                    tail_open = False
                    end = sequence[0]
                    fe = free[end]
                    scan = iter(adj[end])
                    nodes[-1] = (sequence, False, scan, *nodes[-1][3:])
                    nb = None
                    continue
                cover.append(sequence)
                remaining -= 1
                uncovered -= len(sequence) - 1
                # A path flips the degree parity of its two ends only.
                odd += (1 if len(fe) % 2 else -1) + (
                    1 if len(free[sequence[-1]]) % 2 else -1
                )
                break
