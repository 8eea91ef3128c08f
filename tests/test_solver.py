import collections
import dataclasses
import functools
import itertools
import random
import re
import sys
import time

import pytest

from gallai import (
    BudgetExhaustedError,
    Graph,
    LiftError,
    Path,
    PathDecomposition,
    SolveError,
    enumerate_connected,
    min_decomposition,
    solve,
    verify,
)
from gallai.paths import lower_bound
from gallai.reductions import detect, reduce
from gallai.solver import solve_base
from helpers import (
    SHADOWED,
    complete_graph,
    cycle,
    path_graph,
    petersen,
    random_c5_satellites,
    random_caterpillar,
    random_connected_graph,
    random_cubic_graph,
    random_regular_graph,
    star,
    subcase_fixtures,
)


def test_solve_examples():
    assert len(solve(path_graph(4)).decomposition) == 1
    assert len(solve(complete_graph(5)).decomposition) == 3
    assert len(solve(cycle(4)).decomposition) == 2
    result = solve(petersen())
    assert len(result.decomposition) == 5
    assert lower_bound(petersen()) == 5


def test_solve_is_verified_and_good():
    for g in (path_graph(4), cycle(5), complete_graph(5), petersen(), star(5)):
        result = solve(g)
        report = verify(g, result.decomposition)
        assert report.valid and report.good


def test_solve_trivial_graph():
    result = solve(Graph(1, [0]))
    assert len(result.decomposition) == 0
    assert result.trace.base_case == "trivial"


@pytest.mark.parametrize(
    "g, base, paths",
    [
        (complete_graph(3), "K3", [(0, 1, 2), (0, 2)]),
        (complete_graph(5), "K5", [(0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (4, 0, 3)]),
        (
            complete_graph(6).delete_vertices({0}), "K5",
            [(1, 2, 3, 4, 5), (1, 3, 5, 2, 4), (5, 1, 4)],
        ),
    ],
    ids=["K3", "K5", "K5_gapped_ids"],
)
def test_clique_leaves_are_searched_with_no_budgeted_node(g, base, paths):
    # The exact search covers K3 and K5 without a budget, in the paths
    # that the retired hand-written templates put on the ascending ids.
    result = solve(g, budget=0)
    assert result.trace.base_cases == (base,)
    assert [p.vertices for p in result.decomposition.paths] == paths


def test_solve_rejects_bad_inputs():
    with pytest.raises(SolveError):
        solve(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(SolveError):
        solve(star(6))  # degree 6 hub


def test_solve_base_examples():
    d = solve_base(star(3), 2)
    assert d is not None and len(d) == 2
    assert solve_base(complete_graph(5), 2) is None
    assert solve_base(cycle(4), 1) is None
    assert solve_base(cycle(4), 2) is not None


def test_min_decomposition_examples():
    assert min_decomposition(complete_graph(3))[0] == 2
    assert min_decomposition(complete_graph(5))[0] == 3
    assert min_decomposition(path_graph(5))[0] == 1
    assert min_decomposition(star(4))[0] == 2
    k, d = min_decomposition(petersen())
    assert k == 5 and verify(petersen(), d).valid


def test_determinism():
    for g in (cycle(6), complete_graph(5), petersen()):
        first = solve(g)
        second = solve(g)
        assert first.decomposition == second.decomposition
        assert first.trace == second.trace


def test_trace_orders_strictly_decrease():
    g = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    )
    result = solve(g)
    orders = [step.order for step in result.trace.steps]
    assert orders == sorted(orders, reverse=True)
    assert len(orders) <= g.n


def test_budget_exhaustion_is_distinct():
    with pytest.raises(BudgetExhaustedError):
        solve_base(petersen(), 5, budget=10)
    # with a budget that suffices, the same call returns a decomposition
    assert solve_base(petersen(), 5, budget=10**6) is not None


def test_lower_bound_not_above_minimum():
    for n in range(2, 7):
        for g in enumerate_connected(n, n):
            assert lower_bound(g) <= min_decomposition(g)[0]


# -- independent naive minimum oracle ----------------------------------------


def _all_simple_paths(g: Graph):
    """Every simple path as a frozenset of edges (no orientation dupes)."""
    out = set()

    def grow(seq):
        tail = seq[-1]
        for nb in g.neighbors(tail):
            if nb in seq:
                continue
            longer = seq + (nb,)
            if longer[0] < longer[-1]:
                out.add(
                    frozenset(
                        (min(a, b), max(a, b)) for a, b in zip(longer, longer[1:])
                    )
                )
            grow(longer)

    for v in range(g.n):
        grow((v,))
    return sorted(out, key=sorted)


def naive_min_paths(g: Graph) -> int:
    """Exhaustive partition search with no solver machinery shared."""
    paths = _all_simple_paths(g)

    @functools.lru_cache(maxsize=None)
    def best(uncovered: frozenset) -> int:
        if not uncovered:
            return 0
        seed = min(uncovered)
        answers = [
            best(uncovered - p) for p in paths if seed in p and p <= uncovered
        ]
        return 1 + min(answers)

    return best(frozenset(g.edges()))


def test_minimum_matches_naive_oracle_small():
    for n in range(2, 6):
        for g in enumerate_connected(n, n):
            assert min_decomposition(g)[0] == naive_min_paths(g)


def test_solve_base_succeeds_exactly_from_the_minimum():
    for n in range(2, 6):
        for g in enumerate_connected(n, n):
            k = min_decomposition(g)[0]
            assert solve_base(g, k) is not None
            if k > 1:
                assert solve_base(g, k - 1) is None


# -- the work stack and the checked in-place lifts ----------------------------


@pytest.mark.parametrize("n", [500, 1500])
def test_long_paths_solve_at_the_default_recursion_limit(n):
    # n - 2 reductions in a chain: at two stack frames each, a recursive
    # solver already overflows the default limit of 1000 at n = 500.
    limit = sys.getrecursionlimit()
    result = solve(path_graph(n))
    assert [p.vertices for p in result.decomposition] == [tuple(range(n))]
    assert len(result.trace.steps) == n - 2
    assert sys.getrecursionlimit() == limit


def test_large_cubic_graph_solves_at_the_default_recursion_limit():
    # No configuration fits a cubic graph, so the exact search covers it
    # with n/2 paths, more levels than the default limit of 1000 frames.
    g = random_cubic_graph(random.Random(2400), 2400)
    result = solve(g)
    report = verify(g, result.decomposition)
    assert report.valid and report.good
    assert len(result.decomposition) <= 1200
    assert result.trace.steps == () and result.trace.base_cases == ("search(k=1200)",)


def test_no_released_graph_outlives_its_descent(monkeypatch):
    # A path of 600 vertices reduces by C1 one vertex a level, down to one
    # edge.  Every level releases its graph as it descends, so at the one
    # leaf the solve holds the leaf's graph and no other: not one per
    # level, 598, as when every frame kept its graph.
    import gc

    import gallai.solver

    def graphs() -> int:
        return sum(isinstance(x, Graph) for x in gc.get_objects())

    real = gallai.solver._base_case
    held = []

    def counting(g, *args):
        held.append(graphs() - before)
        return real(g, *args)

    monkeypatch.setattr(gallai.solver, "_base_case", counting)
    g = path_graph(600)
    before = graphs()  # the input's among them
    assert len(solve(g).trace.steps) == 598
    assert len(held) == 1 and held[0] <= 2, held


def test_no_removed_set_outlives_its_descent(monkeypatch):
    # Each C1 level of a 600-vertex path removes a set of one vertex.  Once
    # the child's tuples are in the working table, the set is dropped with
    # the child's graph: at the one leaf the solve holds a few sets, not
    # one per pending level, 598.
    import gc

    import gallai.solver

    def sets() -> int:
        return sum(type(x) is set for x in gc.get_objects())

    real = gallai.solver._base_case
    held = []

    def counting(g, *args):
        held.append(sets() - before)
        return real(g, *args)

    monkeypatch.setattr(gallai.solver, "_base_case", counting)
    g = path_graph(600)
    before = sets()
    assert len(solve(g).trace.steps) == 598
    assert len(held) == 1 and held[0] < 20, held


def _descent_corpus():
    """The census up to n = 7, and seeded graphs whose chains descend
    through C1, C3 and C4 paired levels above 64 vertices, and through
    both children of C2 joins and C4 hub splits above 64 vertices, and
    satellites whose hub splits' second child pops ids that a set does
    not iterate in ascending order."""
    for n in range(2, 8):
        yield from (g for g in enumerate_connected(n, 5) if g.m)
    rng = random.Random(5077)
    for n in (70, 90, 130, 200):
        yield random_caterpillar(rng, n)
        yield random_regular_graph(rng, n, 4)
        yield path_graph(n)
    for _ in range(12):
        g = random_connected_graph(rng, 70, 160)
        if g is not None:
            yield g
    for _ in range(40):
        g = random_c5_satellites(rng)
        if g is not None:
            yield g


def _cut_by_hand(parent, removed, synthetic):
    """The parent table's items minus ``removed`` plus the ``synthetic``
    edges, with sets, in the parent's id order."""
    nbrs = {v: set(ws) - set(removed) for v, ws in parent if v not in removed}
    for a, b in synthetic:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return [(v, tuple(sorted(ws))) for v, ws in nbrs.items()]


def test_the_children_of_a_two_child_plan_share_no_vertex(monkeypatch):
    # The lemma that lets `solve` restore a parent between its children in
    # one table (module docstring of `reductions`): each child's S holds
    # every vertex of the others.  Checked on every sub-case fixture, the
    # top-level reduction of every census graph up to n = 7 that reduces,
    # and every reduction of the descent corpus's solves.
    import gallai.solver as solver

    met = collections.Counter()

    def check(plan):
        seen = set()  # the vertices of the children before this one
        for child in plan.children:
            ids = set(child.graph.vertices())
            assert not ids & seen, (plan.tag, plan.subcase, sorted(ids & seen))
            seen |= ids
        met[plan.tag, plan.subcase, len(plan.children)] += 1
        return plan

    for g, occ, tag, subcase in subcase_fixtures():
        if (tag, subcase) not in SHADOWED:
            assert check(reduce(g, occ or detect(g))).subcase == subcase
    for n in range(2, 8):
        for g in enumerate_connected(n, 5):
            if g.m and (occ := detect(g)) is not None:
                check(reduce(g, occ))
    real_reduce = solver.reduce
    monkeypatch.setattr(solver, "reduce", lambda g, occ: check(real_reduce(g, occ)))
    for g in _descent_corpus():
        solve(g)
    two = {(tag, subcase) for tag, subcase, k in met if k == 2}
    assert two == {("C2", "join"), ("C4", "hub_split"), ("C4", "four_components")}, met


def test_one_working_table_per_solve(monkeypatch):
    # `solve` never writes its input, `reduce` never writes its parent, and
    # every descent of one solve edits the same table, never the input's,
    # into a graph that is the parent minus S plus the synthetic edges, as
    # plain set code builds it: the same tuples in the same id order, which
    # ascends, also where the second child of a two-child plan descends
    # into its restored parent.  Each descent starts from the parent's
    # table as its reduce saw it, and its record puts the parent back.
    import gallai.solver as solver

    real_reduce, real_descend = solver.reduce, solver._descend
    met = collections.Counter()
    tables = []  # the tables that one solve's descents edit
    parents = {}  # id(plan) -> its parent's table, as reduce saw it

    def snapshot(g):
        return list(g.adjacency().items()), g.n, g.m

    def pure_reduce(g, occ):
        before = snapshot(g)
        plan = real_reduce(g, occ)
        assert snapshot(g) == before, (g, occ)
        parents[id(plan)] = dict(before[0])
        if len(plan.children) > 1 and g.n > 64:
            met["two children above 64", plan.tag] += 1
        return plan

    def checked_descend(plan, i, table, near, bridges):
        child = plan.children[i]
        parent = list(table.items())
        assert dict(parent) == parents[id(plan)], (plan.tag, plan.subcase, i)
        tables.append(table)
        removed = dict(parent).keys() - child.graph.vertices()
        want = _cut_by_hand(parent, removed, child.synthetic)
        got = real_descend(plan, i, table, near, bridges)
        graph, old = got[0], got[3]
        assert graph.adjacency() is table
        m = sum(len(ws) for _, ws in want) // 2
        assert snapshot(graph) == (want, len(want), m), (plan.tag, plan.subcase)
        assert list(table) == sorted(table), (plan.tag, plan.subcase, i)
        restored = dict(table)
        restored.update(old)
        assert restored == dict(parent), (plan.tag, plan.subcase)
        small = "at most 64" if len(parent) <= 64 else "above 64"
        met[plan.tag, plan.subcase, i, small] += 1
        return got

    monkeypatch.setattr(solver, "reduce", pure_reduce)
    monkeypatch.setattr(solver, "_descend", checked_descend)
    for g in _descent_corpus():
        before = snapshot(g)
        table = g.adjacency()
        tables.clear()
        assert verify(g, solve(g).decomposition).good
        assert g.adjacency() is table and snapshot(g) == before, g
        assert all(t is tables[0] and t is not table for t in tables), g
    for small in ("at most 64", "above 64"):
        assert met["C2", "join", 0, small] and met["C2", "join", 1, small], met
    assert met["C1", "splice", 0, "at most 64"], met
    assert met["C1", "splice", 0, "above 64"], met
    assert met["C4", "paired_nonedges", 0, "above 64"], met
    assert met["C3", "sparse_ring", 0, "above 64"], met
    assert met["C4", "hub_split", 1, "above 64"], met
    assert met["two children above 64", "C2"], met


def test_every_restored_parent_is_exact(monkeypatch):
    # Each lift's parent is re-derived over the working table, restored to
    # the table, n and m that its reduce saw: as a mapping, since a restored
    # table's re-inserted ids no longer ascend.  C2 joins are among them,
    # whose parent is also restored between their two children
    # (`test_one_working_table_per_solve` checks that restore).
    import gallai.solver

    real_reduce, real_lift = gallai.solver.reduce, gallai.solver.lift
    seen = {}  # id(plan) -> (plan, parent, its table, n, m)
    released = collections.Counter()

    def recording_reduce(g, occ):
        plan = real_reduce(g, occ)
        seen[id(plan)] = (plan, g, dict(g.adjacency()), g.n, g.m)
        return plan

    def comparing_lift(plan, stores):
        _, parent, table, n, m = seen.pop(id(plan))
        assert plan.parent is not parent, plan.tag
        assert dict(plan.parent.adjacency()) == table, plan.tag
        assert (plan.parent.n, plan.parent.m) == (n, m), plan.tag
        released[plan.tag, len(plan.children)] += 1
        return real_lift(plan, stores)

    monkeypatch.setattr(gallai.solver, "reduce", recording_reduce)
    monkeypatch.setattr(gallai.solver, "lift", comparing_lift)
    rng = random.Random(3618)
    graphs = [path_graph(70), path_graph(200)]
    for n in (70, 120, 200):
        graphs.append(random_regular_graph(rng, n, 4))
        graphs.append(random_caterpillar(rng, n))
    while len(graphs) < 12:
        g = random_connected_graph(rng, 70, 200)
        if g is not None:
            graphs.append(g)
    for g in graphs:
        assert verify(g, solve(g).decomposition).good
    assert not seen
    assert released["C1", 1] and released["C3", 1] and released["C4", 1], released
    assert released["C2", 2], released


def test_min_decomposition_of_a_long_path():
    # one search node per edge, 2999 of them on one candidate path
    assert min_decomposition(path_graph(3000)) == (
        1, PathDecomposition((Path(tuple(range(3000))),))
    )


def _fault_splice_at_order(order, fault):
    """Solve the path 0-1-...-6, whose C1 reductions have parents of order
    7 down to 3, with the rewrite of the order-``order`` reduction replaced
    by ``fault(plan, store)``; return the error and the orders lifted."""
    import gallai.solver

    real_reduce, real_lift = gallai.solver.reduce, gallai.solver.lift
    lifted = []

    def faulty_reduce(g, occ):
        plan = real_reduce(g, occ)
        if g.n == order:
            plan = dataclasses.replace(plan, rewrite=functools.partial(fault, plan))
        return plan

    def recording_lift(plan, stores):
        lifted.append(plan.parent.n)
        return real_lift(plan, stores)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gallai.solver, "reduce", faulty_reduce)
        patch.setattr(gallai.solver, "lift", recording_lift)
        with pytest.raises(LiftError) as caught:
            solve(path_graph(7))
    return str(caught.value), lifted


def _leave_synthetic(plan, store):
    store.append(plan.children[0].routes[0])  # route added, edge not spliced


def _add_non_edge(plan, store):
    plan.rewrite(store)
    store.append((0, 5))


def _cover_twice(plan, store):
    plan.rewrite(store)
    store.append((5, 6))


def _drop_parent_edge(plan, store):
    plan.rewrite(store)
    (pid, vertices), = store.paths.items()
    store.replace(pid, vertices[:-1])


def _splice_onto_host(plan, store):
    store.splice((0, 5, 4))  # 5 is already on the host path 0-4-5-6


@pytest.mark.parametrize(
    "fault, message",
    [
        (_leave_synthetic, r"C1/splice left synthetic edges \[\(0, 4\)\] covered"),
        (_add_non_edge, r"C1/splice recipe failed: \(0, 5\) is not an edge"),
        (_cover_twice, r"C1/splice recipe failed: edge \(5, 6\) is already covered"),
        (_drop_parent_edge, r"C1/splice covers 3 of 4 edges"),
        (_splice_onto_host, r"C1/splice recipe failed: .* not leave a simple path"),
    ],
    ids=["synthetic_left", "non_edge", "covered_twice", "edge_dropped", "vertex_twice"],
)
def test_solve_rejects_a_faulty_rewrite_at_its_level(fault, message):
    # The order-5 parent is the path 0-3-4-5-6 and its child 0-4-5-6 holds
    # the synthetic edge 0-4.  The lifts of orders 3 and 4 run first; the
    # fault is caught in the lift of order 5, and no lift above it starts.
    error, lifted = _fault_splice_at_order(5, fault)
    assert re.search(message, error), error
    assert lifted == [3, 4, 5]


def test_exact_search_entries_refuse_inputs_outside_their_contract():
    edgeless = Graph(1, [0])
    with pytest.raises(SolveError, match="graph has no edges"):
        solve_base(edgeless, 1)
    with pytest.raises(SolveError, match="graph has no edges"):
        min_decomposition(edgeless)
    with pytest.raises(SolveError, match="graph is not connected"):
        min_decomposition(Graph.from_edges(4, [(0, 1), (2, 3)]))
    # Both entries check connectivity first, so two isolated vertices are
    # refused as disconnected, as `solve` refuses them.
    apart = Graph.from_edges(2, [])
    for refused in (solve, min_decomposition, lambda g: solve_base(g, 1)):
        with pytest.raises(SolveError, match="graph is not connected"):
            refused(apart)
