"""One run of one workload, in the fresh interpreter that run.py starts.

    python3 perfbench/workload.py --workload W --seed S --seconds T \
        --mode setup|plain|traced [--spans PATH]

``setup`` imports the library and builds the inputs, then exits; run.py
times whole processes of this mode for ``setup_s``.  ``plain`` and
``traced`` also measure and check, and print one JSON object: the
end-to-end figures, the failure tally and output digest and, when traced,
the per-layer totals.  The speed probe (speed.py) runs during the timed
region only, and every time in the figures is scaled by it to the
reference speed.  Tracing starts after set-up and stops before the
checks, so only the measured region is traced.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("census", "families", "odd_regular")
CENSUS_MAX_N = 8
MAX_DEGREE = 5
# Connected graphs with maximum degree <= 5, per order, up to isomorphism.
CENSUS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 697, 8: 6386}
# The cold enumeration takes about 17 s and a check pass about 4 s at the
# reference speed, so a run of up to 29 s makes exactly this many passes.
# A graph's time is the median of its passes: with three, one pass that a
# pause of the interpreter's garbage collector hit does not move it.  A
# traced child makes one pass: its call counts and times need no median,
# and the traced run stays well inside its deadline.
CENSUS_MIN_PASSES = 3
# The exact search gets this many candidate paths per edge of the input.
# A search that never backtracks spends 1.01-1.02 per edge (every cubic
# graph of `odd_regular` measured); one that backtracks can run for
# minutes, so without a budget a run could not be bounded.
SEARCH_BUDGET_PER_EDGE = 1.1


def import_library():
    """Import ``gallai`` from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import gallai
    except ImportError as exc:
        raise SystemExit(f"cannot import gallai from {ROOT / 'src'}: {exc}")
    if not Path(gallai.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"gallai was imported from {gallai.__file__}")
    return gallai


def budget(g) -> int:
    return math.ceil(SEARCH_BUDGET_PER_EDGE * g.m)


def growth_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(m)."""
    xs = [math.log(m) for m, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def rung_points(rows) -> list[tuple[float, float]]:
    """(median m, median seconds) per (family, n) rung, from rows of
    (family, n, m, seconds)."""
    groups: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for family, n, m, seconds in rows:
        groups.setdefault((family, n), []).append((m, seconds))
    return [
        (statistics.median(m for m, _ in g), statistics.median(s for _, s in g))
        for g in groups.values()
    ]


def speed_figures(probe: speed.Probe) -> dict:
    """How fast the machine ran, for the report: the median probe run
    against the reference, and the probe's share of the timed region."""
    took = statistics.median(e - s for s, e in zip(probe.starts, probe.ends))
    return {"speed": speed.REFERENCE_S / took, "probe_share": probe.wall_share()}


class Checker:
    """Checks each output outside the timed region and digests them all."""

    def __init__(self, gallai) -> None:
        self.gallai = gallai
        self.digest = hashlib.sha256()
        self.bad: list[str] = []

    def check(self, input_id: str, g, decomposition) -> bool:
        report = self.gallai.verify(g, decomposition)
        # Checked here again, apart from the library's own `good` flag.
        within = len(decomposition.paths) <= math.ceil(g.n / 2)
        ok = report.valid and report.good and within
        if not ok:
            self.bad.append(input_id)
        self.add(input_id, self.gallai.format_decomposition(decomposition))
        return ok

    def add(self, input_id: str, text: str) -> None:
        self.digest.update(f"{input_id}\n{text}\n".encode())


def run_census(gallai, seed: int, seconds: float, tracer, probe) -> dict:
    """Cold enumeration up to n = 8, then `run_check` over graph6 lines.

    The enumeration is measured once per process, cold, as every `gallai
    check` call pays for it.  Parsing and `run_check` are then repeated,
    closed loop, until ``seconds`` have passed since the enumeration
    began, and at least CENSUS_MIN_PASSES times (once when traced).  The
    check time is the median pass, and a graph's time the median of its
    `solve` calls.
    `run_check` keeps no decompositions, so ``batch.solve`` is wrapped to
    keep each result of the last pass, and when it ran, for the checks and
    the figures that follow.
    """
    from gallai import batch

    solved = []
    solve = batch.solve
    clock = time.perf_counter

    def capturing_solve(g, budget=None):
        begin = clock()
        result = solve(g, budget)
        solved.append((g, result, begin, clock()))
        return result

    batch.solve = capturing_solve
    enumerate_connected = gallai.enumerate_connected
    parse = gallai.parse_graph6
    run_check = gallai.run_check
    if tracer:
        tracer.install()
        enumerate_connected = tracer.wrap(enumerate_connected,
                                          "census.enumerate_connected")
        parse = tracer.wrap(parse, "io.parse_graph6")
        run_check = tracer.wrap(run_check, "batch.run_check")

    probe.start()
    begin = clock()
    census = [enumerate_connected(n, MAX_DEGREE) for n in range(1, CENSUS_MAX_N + 1)]
    enumerated = clock()

    lines = [gallai.write_graph6(g) for level in census for g in level]
    random.Random(seed).shuffle(lines)

    passes = []
    solve_times: dict[str, list[tuple[float, float]]] = {}
    unverified: set[str] = set()
    findings: dict[str, str] = {}
    min_passes = 1 if tracer else CENSUS_MIN_PASSES
    while (len(passes) < min_passes
           or clock() - begin < seconds):
        solved.clear()
        start = clock()
        graphs = [(line, parse(line)) for line in lines]
        if tracer:
            tracer.graph_of = {id(g): line for line, g in graphs}
        report = run_check(graphs)
        passes.append((start, clock()))
        line_of = {id(g): line for line, g in graphs}
        for g, _, a, b in solved:
            solve_times.setdefault(line_of[id(g)], []).append((a, b))
        for r in report.records:
            if not r.verified:
                unverified.add(r.graph_id)
        for f in report.findings:
            findings.setdefault(f.graph_id, f.kind)
    probe.stop()
    if tracer:
        tracer.uninstall()
    batch.solve = solve

    enum_s = probe.scaled(begin, enumerated)
    check_s = statistics.median(probe.scaled(a, b) for a, b in passes)
    latency = {
        line: statistics.median(probe.scaled(a, b) for a, b in spans)
        for line, spans in solve_times.items()
    }

    checker = Checker(gallai)
    counts_ok = {n: len(level) for n, level in enumerate(census, 1)} == CENSUS_COUNTS
    outputs = {id(g): result for g, result, _, _ in solved}
    failures: Counter[str] = Counter()
    for line, g in sorted(graphs):
        reason = findings.get(line)
        if g.m == 0:
            checker.add(line, "")
        elif id(g) not in outputs:
            reason = reason or "no_output"
        elif not checker.check(line, g, outputs[id(g)].decomposition):
            reason = reason or "verify_failure"
        if reason or line in unverified:
            failures[reason or "not_verified"] += 1

    solved_records = [r for r in report.records if r.graph_id in latency]
    steps = [sum(r.histogram.values()) for r in report.records if r.m]
    subcases = Counter()
    for r in report.records:
        subcases.update(r.histogram)
    return {
        "attempted": len(graphs) * len(passes),
        "failed": sum(failures.values()),
        "correct": counts_ok and not checker.bad and not failures,
        "failures": dict(failures),
        "digest": checker.digest.hexdigest(),
        "figures": {
            "pass_s": enum_s + check_s,
            "enum_s": enum_s,
            "passes": len(passes),
            "graphs_per_s": len(graphs) / check_s,
            "edges_per_s": sum(g.m for _, g in graphs) / check_s,
            "latencies": list(latency.values()),
            "largest_s": statistics.median(
                latency[r.graph_id] for r in solved_records
                if r.n == CENSUS_MAX_N
            ),
            # Orders below 6 hold at most 21 graphs each, too few for a
            # steady median of times this short.
            "growth_exp": growth_exponent(rung_points(
                ("census", r.n, r.m, latency[r.graph_id])
                for r in solved_records if r.n >= 6
            )),
            **speed_figures(probe),
        },
        "solves": len(steps),
        "reductions": sum(steps),
        "subcases": dict(subcases),
        "classes": sum(len(level) for level in census[1:]),
    }


def generated_graphs(gallai, inputs):
    return [(x, gallai.Graph.from_edges(x.n, x.edges)) for x in inputs]


def inputs_digest(graphs) -> str:
    """SHA-256 over the generated inputs' ids and sorted edge lists."""
    digest = hashlib.sha256()
    for x, _ in graphs:
        digest.update(f"{x.id} {x.n} {x.edges}\n".encode())
    return digest.hexdigest()


def run_generated(gallai, graphs, seconds: float, tracer, probe) -> dict:
    """Solve the inputs round robin, closed loop, until every input has
    been solved once and ``seconds`` have passed.

    An input's time is the median of its repeats.  Every input is expected
    to succeed: any failure, and any input whose outcome changes between
    repeats, makes the run incorrect, since a failed input would count
    with its time to fail and could read as a speed-up.

    The cyclic garbage collector runs to completion before each solve,
    untimed, so every solve starts from the same heap: neither its time
    nor the peak RSS then depends on the garbage that earlier solves left
    or on when the speed probe's allocations made the collector run.
    """
    solve = gallai.solve
    if tracer:
        tracer.install()
        solve = tracer.wrap(solve, "solver.solve")
    clock = time.perf_counter
    spans: list[list[tuple[float, float]]] = [[] for _ in graphs]
    outcomes: list[object] = [None] * len(graphs)
    attempted = failed = 0
    probe.start()
    start = clock()
    for k in itertools.count():
        i = k % len(graphs)
        x, g = graphs[i]
        if tracer:
            tracer.graph = x.id
        gc.collect()
        begin = clock()
        try:
            outcome = solve(g, budget(g))
        except Exception as exc:  # every failure is tallied, none is fatal
            outcome = type(exc).__name__
            failed += 1
        end = clock()
        spans[i].append((begin, end))
        attempted += 1
        if outcomes[i] is None:
            outcomes[i] = outcome
        elif isinstance(outcome, str) != isinstance(outcomes[i], str):
            outcomes[i] = "Nondeterministic"
        if k + 1 >= len(graphs) and end - start >= seconds:
            break
    probe.stop()
    if tracer:
        tracer.uninstall()

    checker = Checker(gallai)
    failures: Counter[str] = Counter()
    rows = []
    latencies = []
    edges = 0
    for (x, g), outcome, times in zip(graphs, outcomes, spans):
        latency = statistics.median(probe.scaled(a, b) for a, b in times)
        latencies.append(latency)
        if isinstance(outcome, str):
            failures[outcome] += 1
            checker.add(x.id, f"FAILED {outcome}")
        elif checker.check(x.id, g, outcome.decomposition):
            edges += g.m
            rows.append((x.family, x.n, g.m, latency))
        else:
            failures["verify_failure"] += 1
    pass_s = sum(latencies)
    solved = [o for o in outcomes if not isinstance(o, str)]
    subcases = Counter(
        f"{s.tag}/{s.subcase}" for o in solved for s in o.trace.steps
    )
    top = max(n for _, n, _, _ in rows) if rows else 0
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not failures,
        "failures": dict(failures),
        "digest": checker.digest.hexdigest(),
        "figures": {
            "pass_s": pass_s,
            "graphs_per_s": len(solved) / pass_s,
            "edges_per_s": edges / pass_s,
            "latencies": latencies,
            # The mean, not the median: the rung holds few graphs of
            # unlike families, and a median would pick one seed's graph.
            "largest_s": statistics.fmean(
                [t for _, n, _, t in rows if n == top] or [pass_s]),
            "growth_exp": growth_exponent(rung_points(rows)) if rows else 0.0,
            **speed_figures(probe),
        },
        "solves": len(solved),
        "reductions": sum(len(o.trace.steps) for o in solved),
        "subcases": dict(subcases),
        "classes": 0,
    }


def check_defects(gallai, defects) -> tuple[dict[str, str], bool]:
    """Solve each known-defect input once, untimed: the outcome per input
    id, and whether each failed as it does today or succeeded with an
    output that checks out (once its defect is fixed)."""
    checker = Checker(gallai)
    outcomes = {}
    for x, error in defects:
        g = gallai.Graph.from_edges(x.n, x.edges)
        try:
            result = gallai.solve(g, budget(g))
        except Exception as exc:
            outcomes[x.id] = type(exc).__name__
            continue
        ok = checker.check(x.id, g, result.decomposition)
        outcomes[x.id] = "solved" if ok else "verify_failure"
    ok = all(outcomes[x.id] in (error, "solved") for x, error in defects)
    return outcomes, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        required=True)
    parser.add_argument("--spans", help="file to write the spans to")
    args = parser.parse_args(argv)

    gallai = import_library()
    graphs = []
    if args.workload != "census":
        graphs = generated_graphs(
            gallai, gen.workload_inputs(args.workload, args.seed))
    if args.mode == "setup":
        return 0

    tracer = tracing.Tracer() if args.mode == "traced" else None
    probe = speed.Probe()
    if args.workload == "census":
        result = run_census(gallai, args.seed, args.seconds, tracer, probe)
    else:
        result = run_generated(gallai, graphs, args.seconds, tracer, probe)
        result["inputs_digest"] = inputs_digest(graphs)
    # Taken before the known defects run: a search that recurses until it
    # fails holds more memory than the timed inputs ever do.
    result["figures"]["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    result["defects"], defects_ok = check_defects(
        gallai, gen.known_defects(args.workload))
    result["correct"] = result["correct"] and defects_ok
    if tracer:
        # Every sub-case the library defines, as "<C#>.<subcase>": count.
        result["subcases"] = {
            f"{tag}.{sub}": result["subcases"].get(f"{tag}/{sub}", 0)
            for tag, subs in gallai.SUBCASES.items() for sub in subs
        }
        result["layers"] = tracing.layer_totals(tracer.spans)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
