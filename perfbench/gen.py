"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a connected graph with
maximum degree at most 5, as a vertex count plus a sorted edge list.  Vertex
ids are shuffled at the end, so the solver never sees a structured labelling
and two seeds give two different labelled inputs of the same shape.  The
module depends only on the standard library.  The library is handed each
input as a ``Graph`` built from the edge list.
"""

from __future__ import annotations

import random
from typing import NamedTuple

Edges = list[tuple[int, int]]

# n -> seeded instances of each family at that n: 44 graphs.  The counts
# put each latency percentile inside a pair of graphs of one family whose
# solve time hardly depends on the seed, so that a seed moves it little:
# p50 among the n = 200 paths, p90 between the two n = 400 paths and p99
# between the two n = 400 4-regular graphs.  Two graphs of each family at
# n = 400 also average out most of the seed's effect on the largest rung.
FAMILY_LADDER = {100: 3, 200: 6, 400: 2}
# (n, instances) rungs of the cubic graphs of `odd_regular`: over 100
# graphs in all, so p90 rests on more than ten samples beyond it; p90
# falls among the n = 600 graphs, whose solve times vary little, and eight
# graphs at n = 1800 steady the largest rung and p99.  None of 6018 such
# graphs (seeds 1-59, four at n = 1800) exhausted the search budget.
# 5-regular graphs are not timed: about one in a hundred of them (n = 200
# to 1200) makes the exact search backtrack for minutes, which a timed
# workload cannot hold; one of them is among the known defects below.
ODD_REGULAR_RUNGS = ((200, 88), (600, 10), (1800, 8))


class Input(NamedTuple):
    id: str
    family: str
    n: int
    edges: Edges


def _relabeled(rng: random.Random, n: int, edges: Edges) -> tuple[int, Edges]:
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted(
        (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges
    )


def random_max_degree5(rng: random.Random, n: int) -> tuple[int, Edges]:
    """A random tree with degrees capped at 5, plus random extra edges
    until m reaches 2n or 20n attempts have been spent."""
    deg = [0] * n
    edges: set[tuple[int, int]] = set()
    open_vertices = [0]
    for v in range(1, n):
        u = rng.choice(open_vertices)
        edges.add((u, v))
        deg[u] += 1
        deg[v] = 1
        if deg[u] == 5:
            open_vertices.remove(u)
        open_vertices.append(v)
    for _ in range(20 * n):
        if len(edges) >= 2 * n:
            break
        a, b = rng.randrange(n), rng.randrange(n)
        e = (min(a, b), max(a, b))
        if a == b or e in edges or deg[a] >= 5 or deg[b] >= 5:
            continue
        edges.add(e)
        deg[a] += 1
        deg[b] += 1
    return _relabeled(rng, n, sorted(edges))


def random_regular(rng: random.Random, n: int, d: int) -> tuple[int, Edges]:
    """A connected simple d-regular graph from the configuration model.

    Stubs are paired at random; a pair that would make a loop or a repeated
    edge is rejected and its stubs go back into the pool (the Steger-Wormald
    variant).  A pool that can no longer be paired, or a disconnected
    result, is rejected as a whole and drawn again.
    """
    if n * d % 2 or d >= n:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    while True:
        edges = _pair_stubs(rng, [v for v in range(n) for _ in range(d)])
        if edges is not None and _connected(n, edges):
            return _relabeled(rng, n, sorted(edges))


def _pair_stubs(rng: random.Random, stubs: list[int]) -> set | None:
    edges: set[tuple[int, int]] = set()
    while stubs:
        rng.shuffle(stubs)
        rejected = []
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                rejected += (a, b)
            else:
                edges.add(e)
        if len(rejected) == len(stubs):
            return None
        stubs = rejected
    return edges


def caterpillar(rng: random.Random, n: int) -> tuple[int, Edges]:
    """A path (the spine) with pendant legs: each new vertex hangs off the
    current spine end, as a leg or as the next spine vertex.  Interior spine
    vertices take at most 3 legs and the first at most 4, so the maximum
    degree is 5."""
    edges: Edges = []
    end, legs_left = 0, 4
    for v in range(1, n):
        edges.append((end, v))
        if legs_left and rng.random() < 0.5:
            legs_left -= 1
        else:
            end, legs_left = v, 3
    return _relabeled(rng, n, edges)


def path(rng: random.Random, n: int) -> tuple[int, Edges]:
    return _relabeled(rng, n, [(i, i + 1) for i in range(n - 1)])


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def workload_inputs(workload: str, seed: int) -> list[Input]:
    """The generated inputs of ``families`` or ``odd_regular`` for a seed.

    Inputs are listed in a fixed order.  Each draws from its own stream,
    seeded by the workload seed and the input id, so one input never
    depends on how many random numbers another one used.
    """
    specs = []
    if workload == "families":
        makers = {
            "maxdeg5": random_max_degree5,
            "regular4": lambda rng, n: random_regular(rng, n, 4),
            "caterpillar": caterpillar,
            "path": path,
        }
        for n, count in FAMILY_LADDER.items():
            for i in range(count):
                for family, make in makers.items():
                    specs.append((f"{family}-{n}-{i}", family, n, make))
    elif workload == "odd_regular":
        for n, count in ODD_REGULAR_RUNGS:
            for i in range(count):
                specs.append((f"regular3-{n}-{i}", "regular3", n, _cubic))
    else:
        raise ValueError(f"no generated inputs for workload {workload!r}")
    return [_make(f"{seed}:{input_id}", input_id, family, n, make)
            for input_id, family, n, make in specs]


def known_defects(workload: str) -> list[tuple[Input, str]]:
    """Fixed inputs on which the solver fails today, with the exception
    it raises, for the workload whose layers they exercise.

    They are solved once per run, untimed: a timed workload holds only
    inputs that succeed, and these keep the defects in sight until the
    solver is fixed.
    """
    # (id, random stream, family, n, generator, exception raised today)
    defects = {
        "families": [
            # `_solve` recurses once per reduction: deeper than Python's
            # 1000 frames on a path of 500 vertices.
            ("path-500", "path-500", "path", 500, path, "RecursionError"),
        ],
        "odd_regular": [
            # The exact search recurses once per path.
            ("regular3-2400", "regular3-2400", "regular3", 2400, _cubic,
             "RecursionError"),
            # The exact search backtracks past its budget of 1.1 m on
            # this graph: the first 5-regular graph seen to do so.
            ("regular5-200", "1:regular5-200-21", "regular5", 200,
             lambda rng, n: random_regular(rng, n, 5), "BudgetExhaustedError"),
        ],
    }
    return [(_make(stream, input_id, family, n, make), error)
            for input_id, stream, family, n, make, error
            in defects.get(workload, [])]


def _cubic(rng: random.Random, n: int) -> tuple[int, Edges]:
    return random_regular(rng, n, 3)


def _make(stream: str, input_id: str, family: str, n: int, make) -> Input:
    n, edges = make(random.Random(stream), n)
    return Input(input_id, family, n, edges)
