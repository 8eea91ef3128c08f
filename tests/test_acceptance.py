"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The n = 8 census is
enumerated once and shared; expect a minute or two for that step.
"""

import functools
import hashlib
import itertools
import json
import random
import time

import pytest

from gallai import (
    detect,
    enumerate_connected,
    min_decomposition,
    parse_graph6,
    run_check,
    run_floor_search,
    solve,
    verify,
    write_graph6,
)
from gallai.reductions import SUBCASES, ReductionError, check_structure, reduce
from gallai.solver import solve_base
import gallai.batch
from helpers import (
    SHADOWED,
    complete_graph,
    delete_edges,
    load_and_lift,
    path_graph,
    petersen,
    random_connected_graph,
    subcase_fixtures,
)


def census(max_n, max_deg=5):
    return [
        g for n in range(1, max_n + 1) for g in enumerate_connected(n, max_deg)
    ]


def _report_digest(report):
    """SHA-256 of the report's JSON document without the timings."""
    document = report.to_document()
    for record in document["records"]:
        del record["seconds"]
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


# Recorded when `run_check` still ran its own detect and structure checks
# around `solve`; one `solve` per graph gives the same reports, K1's
# record included.
CENSUS_7_REPORT_SHA256 = (
    "fbd2d1220e3331845605b951f6fbb8252718cd0d42e5b3bbf2921bb66728adc0"
)
STREAM_8_REPORT_SHA256 = (
    "33cd2f030b081d69b5e57f18044118b85a6396b2baefd27bc2043b0296710ac8"
)


def test_criterion_1_desk_scale_ceiling_bound(tmp_path):
    start = time.time()
    items = [(write_graph6(g), g) for g in census(7)]
    report = run_check(items)
    assert report.ok, report.findings
    assert _report_digest(report) == CENSUS_7_REPORT_SHA256
    for record in report.records:
        assert record.verified
        assert record.paths is not None and record.paths <= record.bound
    elapsed = time.time() - start
    assert elapsed < 600, f"n<=7 run took {elapsed:.0f}s"

    # the same through a graph6 stream at n = 8, as an external generator
    # would supply it
    stream = tmp_path / "n8.g6"
    stream.write_text(
        "".join(write_graph6(g) + "\n" for g in enumerate_connected(8, 5))
    )
    parsed = [
        (line, parse_graph6(line))
        for line in stream.read_text().splitlines()
    ]
    stream_report = run_check(parsed)
    assert stream_report.ok, stream_report.findings[:3]
    assert all(r.verified and r.paths <= r.bound for r in stream_report.records)
    assert _report_digest(stream_report) == STREAM_8_REPORT_SHA256
    print(
        f"\ncriterion 1: PASS ({len(items)} graphs n<=7 in {elapsed:.1f}s, "
        f"{len(parsed)} graphs at n=8 via stream)"
    )


def _all_simple_path_edge_sets(g):
    out = set()

    def grow(seq):
        for nb in g.neighbors(seq[-1]):
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


def _naive_min_paths(g) -> int:
    """Independent exhaustive partition search (memoised, no pruning)."""
    paths = _all_simple_path_edge_sets(g)

    @functools.lru_cache(maxsize=None)
    def best(uncovered):
        if not uncovered:
            return 0
        seed = min(uncovered)
        return 1 + min(
            best(uncovered - p) for p in paths if seed in p and p <= uncovered
        )

    return best(frozenset(g.edges()))


def test_criterion_2_oracle_equivalence():
    checked = 0
    for n in range(2, 7):
        for g in enumerate_connected(n, 5):  # at n <= 6 this is every graph
            k, d = min_decomposition(g)
            assert verify(g, d).valid
            assert k == _naive_min_paths(g), list(g.edges())
            result = solve(g)
            assert k <= len(result.decomposition) <= (g.n + 1) // 2
            checked += 1
    print(f"\ncriterion 2: PASS (minimum matches the naive oracle on "
          f"{checked} graphs, n<=6)")


def test_criterion_3_even_core_is_forest():
    irreducible = 0
    for g in census(8):
        if detect(g) is not None:
            continue
        if (g.n, g.m) in ((3, 3), (5, 10)):
            continue
        assert check_structure(g), list(g.edges())
        irreducible += 1
    print(f"\ncriterion 3: PASS ({irreducible} irreducible graphs n<=8, "
          f"every even core a forest)")


def test_criterion_4_odd_semi_clique_obstructions():
    assert min_decomposition(complete_graph(3))[0] == 2
    assert min_decomposition(complete_graph(5))[0] == 3
    families = {
        3: [[]],
        5: [[], [(0, 1)]],
        7: [[], [(0, 1)], [(0, 1), (0, 2)], [(0, 1), (2, 3)]],
    }
    tried = 0
    for n, deletions in families.items():
        for drop in deletions:
            g = delete_edges(complete_graph(n), drop)
            report = run_floor_search([(str(n), g)])
            assert report.ok and report.records[0].note == "odd_semi_clique"
            assert solve_base(g, n // 2) is None, (n, drop)
            tried += 1
    print(f"\ncriterion 4: PASS (min(K3)=2, min(K5)=3; {tried} odd "
          f"semi-cliques all fail floor(n/2))")


def test_criterion_5_lift_round_trip_suite():
    rng = random.Random(20260810)
    covered = set()
    count = 0
    t0 = time.time()
    while count < 1000:
        g = random_connected_graph(rng)
        if g is None or not g.is_connected():
            continue
        occ = detect(g)
        if occ is None:
            continue
        plan = reduce(g, occ)
        decomps = [solve(child.graph).decomposition for child in plan.children]
        lifted = load_and_lift(occ, plan, decomps)
        report = verify(g, lifted)
        assert report.valid
        assert len(lifted) <= sum(len(d) for d in decomps) + 1
        covered.add((plan.tag, plan.subcase))
        count += 1

    # constructed fixtures close any sub-cases random generation misses
    for g, occ, tag, subcase in subcase_fixtures():
        occ = occ if occ is not None else detect(g)
        if (tag, subcase) in SHADOWED:
            with pytest.raises(ReductionError, match=r"\(C4 present: C4\("):
                reduce(g, occ)
            continue
        plan = reduce(g, occ)
        assert (plan.tag, plan.subcase) == (tag, subcase)
        decomps = [solve(child.graph).decomposition for child in plan.children]
        lifted = load_and_lift(occ, plan, decomps)
        assert verify(g, lifted).valid
        covered.add((tag, subcase))

    wanted = {(tag, sub) for tag, subs in SUBCASES.items() for sub in subs}
    wanted -= SHADOWED
    assert covered >= wanted, wanted - covered
    assert len(SUBCASES["C3"]) == 3
    assert len(SUBCASES["C4"]) == 4
    assert len(SUBCASES["C5"]) == 6
    print(f"\ncriterion 5: PASS ({count} random graphs in "
          f"{time.time()-t0:.1f}s; all {len(wanted)} sub-cases exercised)")


def test_criterion_6_petersen():
    g = petersen()
    start = time.time()
    result = solve(g)
    elapsed = time.time() - start
    assert len(result.decomposition) == 5
    report = verify(g, result.decomposition)
    assert report.valid and report.good
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"\ncriterion 6: PASS (Petersen: 5 paths in {elapsed*1000:.0f} ms)")


def test_criterion_7_format_fidelity(tmp_path):
    total = 0
    for g in census(8):
        assert parse_graph6(write_graph6(g)) == g
        total += 1

    from gallai.cli import main

    loop = tmp_path / "loop.txt"
    loop.write_text("0 0\n")
    assert main(["solve", str(loop)]) == 2
    dup = tmp_path / "dup.txt"
    dup.write_text("0 1\n0 1\n")
    assert main(["solve", str(dup)]) == 2
    print(f"\ncriterion 7: PASS (graph6 round-trip on {total} graphs n<=8; "
          f"edge-list rejects exit with status 2)")


def test_criterion_8_floor_search(monkeypatch):
    items = [(write_graph6(g), g) for g in census(7)]
    report = run_floor_search(items)
    assert report.ok
    failures = [r for r in report.records if r.paths is None and r.m > 0]
    assert failures, "the known obstructions should appear"
    assert all(r.note == "odd_semi_clique" for r in failures)

    # the finding channel, exercised with an injected failure
    real = gallai.batch.solve_base

    def failing(g, k, budget=None):
        if g.n == 4 and g.m == 3:
            return None
        return real(g, k, budget)

    monkeypatch.setattr(gallai.batch, "solve_base", failing)
    p4 = path_graph(4)
    mocked = run_floor_search([(write_graph6(p4), p4)])
    assert not mocked.ok
    assert mocked.findings[0].kind == "floor_gap"
    print(f"\ncriterion 8: PASS (floor-search n<=7: "
          f"{len(failures)} failures, all odd semi-cliques; "
          f"mocked gap emits a FINDING)")
