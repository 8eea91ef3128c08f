"""Tests of the benchmark itself: inputs, workload shape, tracing, output.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gallai  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workload  # noqa: E402
from gallai import Graph, detect, run_check, solve, write_graph6  # noqa: E402


def declared() -> tuple[set[str], set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


@pytest.mark.parametrize("workload", ["families", "odd_regular"])
def test_same_seed_gives_same_inputs(workload):
    def graph6_lines(inputs):
        # write_graph6 tests every vertex pair, so the small inputs only.
        return [write_graph6(Graph.from_edges(x.n, x.edges))
                for x in inputs if x.n <= 200]

    first = gen.workload_inputs(workload, 7)
    again = gen.workload_inputs(workload, 7)
    other = gen.workload_inputs(workload, 8)
    assert first == again
    assert [x.id for x in first] == [x.id for x in other]
    assert graph6_lines(first) == graph6_lines(again)
    assert graph6_lines(first) != graph6_lines(other)


@pytest.mark.parametrize("make, degrees", [
    (gen.random_max_degree5, None),
    (lambda rng, n: gen.random_regular(rng, n, 3), {3}),
    (lambda rng, n: gen.random_regular(rng, n, 4), {4}),
    (lambda rng, n: gen.random_regular(rng, n, 5), {5}),
    (gen.caterpillar, None),
    (gen.path, None),
])
def test_generators_give_connected_simple_graphs(make, degrees):
    rng = random.Random(3)
    for n in (6, 20, 64, 150):
        n, edges = make(rng, n)
        assert len(set(edges)) == len(edges)
        assert all(a < b for a, b in edges)
        g = Graph.from_edges(n, edges)
        assert sorted(g.edges()) == edges
        assert g.is_connected() and g.max_degree() <= 5
        if degrees:
            assert {g.degree(v) for v in range(n)} == degrees


def test_odd_regular_graphs_have_no_configuration():
    # detect() finding nothing means solve() goes straight to the search.
    for x in gen.workload_inputs("odd_regular", 1):
        assert detect(Graph.from_edges(x.n, x.edges)) is None, x.id
    small = gen.workload_inputs("odd_regular", 2)[:3]
    for x in small:
        g = Graph.from_edges(x.n, x.edges)
        assert solve(g, 2 * g.m).trace.steps == ()


def test_every_families_graph_takes_a_reduction():
    for x in gen.workload_inputs("families", 1):
        assert detect(Graph.from_edges(x.n, x.edges)) is not None, x.id


def run_with_failures(failing: dict[str, Exception]) -> dict:
    """`run_generated` over the n = 100 `families` inputs, with the inputs
    named in ``failing`` raising."""
    inputs = [x for x in gen.workload_inputs("families", 1) if x.n == 100]
    graphs = [(x, Graph.from_edges(x.n, x.edges)) for x in inputs]
    raising = {id(g): failing[x.id] for x, g in graphs if x.id in failing}

    def failing_solve(g, budget=None):
        if id(g) in raising:
            raise raising[id(g)]
        return solve(g, budget)

    library = SimpleNamespace(solve=failing_solve, verify=gallai.verify,
                              format_decomposition=gallai.format_decomposition)
    return workload.run_generated(library, graphs, 0, None, speed.Probe())


@pytest.mark.parametrize("failing", [
    {},
    {"maxdeg5-100-0": gallai.BudgetExhaustedError()},
    {"maxdeg5-100-0": RecursionError()},
    {"path-100-1": gallai.SolveError()},
    {"caterpillar-100-0": gallai.LiftError(),
     "regular4-100-2": gallai.BudgetExhaustedError()},
])
def test_any_failure_makes_the_run_incorrect(failing):
    result = run_with_failures(failing)
    assert result["correct"] is not failing
    assert result["failed"] == len(failing)
    assert sum(result["failures"].values()) == len(failing)


@pytest.mark.parametrize("raised, ok", [
    (RecursionError(), True),
    (None, True),
    (gallai.SolveError(), False),
    (gallai.BudgetExhaustedError(), False),
])
def test_a_known_defect_fails_as_today_or_is_fixed(raised, ok):
    x, error = gen.known_defects("families")[0]
    assert error == "RecursionError"
    small = x._replace(n=20, edges=gen.path(random.Random(1), 20)[1])

    def defect_solve(g, budget=None):
        if raised:
            raise raised
        return solve(g, budget)

    library = SimpleNamespace(
        solve=defect_solve, Graph=Graph, verify=gallai.verify,
        format_decomposition=gallai.format_decomposition)
    outcomes, correct = workload.check_defects(library, [(small, error)])
    assert correct is ok
    assert outcomes == {x.id: type(raised).__name__ if raised else "solved"}


@pytest.mark.parametrize("workload_name", ["families", "odd_regular"])
def test_known_defects_fail_today(workload_name):
    defects = gen.known_defects(workload_name)
    outcomes, correct = workload.check_defects(gallai, defects)
    assert correct
    assert outcomes == {x.id: error for x, error in defects}


@pytest.mark.parametrize("slowdown", [1.0, 2.0])
def test_scaled_times_take_out_the_probe_and_the_machine_speed(slowdown):
    probe = speed.Probe()
    took = slowdown * speed.REFERENCE_S
    # Probe runs at 0, 1, 2, ... s, each taking `took`.
    probe.starts = [float(k) for k in range(10)]
    probe.ends = [k + took for k in range(10)]
    probe.stop()
    # 2.5 s to 5.5 s holds three probe runs.
    assert probe.scaled(2.5, 5.5) == pytest.approx((3 - 3 * took) / slowdown)
    # Before the first and after the last probe run.
    assert probe.scaled(-1.0, -0.5) == pytest.approx(0.5 / slowdown)
    assert probe.scaled(20.0, 21.0) == pytest.approx(1.0 / slowdown)


def test_the_probe_runs_while_the_program_works():
    probe = speed.Probe()
    probe.start()
    try:
        begin = time.perf_counter()
        while time.perf_counter() - begin < 0.3:
            speed.calibrate()
        end = time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.starts) >= 5
    assert 0 < probe.scaled(begin, end) < 10 * (end - begin)


def test_span_self_times_sum_to_at_most_the_wall_time():
    from gallai import enumerate_connected

    tracer = tracing.Tracer()
    graphs = [(str(i), g) for i, g in enumerate(enumerate_connected(5, 5))]
    inputs = [Graph.from_edges(x.n, x.edges) for x in
              gen.workload_inputs("families", 1) if x.n == 100][:4]
    start = time.perf_counter_ns()
    tracer.install()
    try:
        tracer.graph_of = {id(g): gid for gid, g in graphs}
        run_check(graphs)
        for g in inputs:
            solve(g)
    finally:
        tracer.uninstall()
    wall = time.perf_counter_ns() - start
    totals = tracing.layer_totals(tracer.spans)
    assert totals["reductions.lift"]["calls"] > 0
    assert totals["paths.verify.in_batch"]["calls"] == len(graphs)
    assert all(entry["self_s"] >= 0 for entry in totals.values())
    assert sum(entry["self_s"] for entry in totals.values()) <= wall / 1e9
    # The batch-level wrappers tag every span with the census graph's id.
    assert {span[4] for span in tracer.spans if span[4]} <= {g for g, _ in graphs}


def test_uninstall_restores_the_library():
    import gallai.solver
    from gallai.graphs import Graph as G

    before = (gallai.solver.detect, G.is_connected)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert (gallai.solver.detect, G.is_connected) == before


def printed_metrics(trace: int) -> tuple[set[str], dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "odd_regular",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.strip().splitlines()
    names = {line.split(" = ")[0] for line in lines if " = " in line}
    return names, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace):
    names, result = printed_metrics(trace)
    want = declared()[trace]
    assert names == want
    assert set(result["metrics"]) == want
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
