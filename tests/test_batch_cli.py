import json
import random

import pytest

import gallai.batch
import gallai.cli
import gallai.paths
import gallai.reductions
import gallai.solver
from gallai import (
    Graph,
    detect,
    enumerate_connected,
    parse_graph6,
    run_check,
    run_floor_search,
    run_scan,
    solve,
    write_graph6,
)
from gallai.cli import build_parser, main
from helpers import (
    complete_graph,
    cycle,
    path_graph,
    petersen,
    random_cubic_graph,
    two_cliques_with_bridge,
)


def census_items(max_n, max_deg=5):
    return [
        (write_graph6(g), g)
        for n in range(1, max_n + 1)
        for g in enumerate_connected(n, max_deg)
    ]


def test_run_check_small_census():
    report = run_check(census_items(5))
    assert report.ok
    counts = report.counters()
    assert counts["graphs"] == 31  # 1+1+2+6+21
    assert counts["verified"] == 31
    ids = [r.graph_id for r in report.records]
    assert len(ids) == len(set(ids))


def test_run_check_reports_are_deterministic():
    items = census_items(5)
    first = run_check(items).to_document()
    second = run_check(items).to_document()
    for a, b in zip(first["records"], second["records"]):
        a.pop("seconds"), b.pop("seconds")
    assert first["records"] == second["records"]
    assert first["findings"] == second["findings"]


def test_report_document_keys_and_values():
    # One solved graph whose histogram keys arrive out of order, and one
    # graph outside the contract: the JSON document's keys and values.
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    report = run_check([("D@{", parse_graph6("D@{")), ("split", disconnected)])
    document = report.to_document()
    solved, failed = document["records"]
    assert list(solved) == [
        "graph_id", "n", "m", "max_degree", "bound", "paths",
        "histogram", "verified", "note", "seconds",
    ]
    assert list(solved["histogram"]) == ["C1/splice", "C5/degree_two"]
    assert solved == {
        "graph_id": "D@{", "n": 5, "m": 5, "max_degree": 4, "bound": 3,
        "paths": 2, "histogram": {"C1/splice": 1, "C5/degree_two": 1},
        "verified": True, "note": "", "seconds": round(report.records[0].seconds, 6),
    }
    assert {k: v for k, v in failed.items() if k != "seconds"} == {
        "graph_id": "split", "n": 4, "m": 2, "max_degree": 1, "bound": 2,
        "paths": None, "histogram": {}, "verified": False, "note": "",
    }
    assert document["findings"] == [
        {"kind": "error", "graph_id": "split", "message": "graph is not connected"}
    ]
    assert list(document["findings"][0]) == ["kind", "graph_id", "message"]


def test_run_check_detects_once_per_solve_step(monkeypatch):
    # One pass per job: `detect` runs only in solve's loop, once per
    # reduction and once per searched base case, and `check_structure`
    # does not detect again on the graph solve just found irreducible.
    calls = []
    inside = []
    for module in (gallai.batch, gallai.solver, gallai.reductions):
        real_detect, real_check = module.detect, module.check_structure

        def counted_detect(g, module=module, real=real_detect):
            calls.append((module.__name__, bool(inside)))
            return real(g)

        def counted_check(g, real=real_check):
            inside.append(g)
            try:
                return real(g)
            finally:
                inside.pop()

        monkeypatch.setattr(module, "detect", counted_detect)
        monkeypatch.setattr(module, "check_structure", counted_check)
    items = census_items(6)
    assert run_check(items).ok
    assert set(calls) == {("gallai.solver", False)}
    monkeypatch.undo()
    traces = [solve(g).trace for _, g in items]
    assert len(calls) == sum(
        len(t.steps) + sum(b.startswith("search") for b in t.base_cases)
        for t in traces
    )


def test_solve_checks_connectivity_once(monkeypatch):
    # `check_input` checks the input contract; the structure check at the
    # base case trusts it and does not search the graph again.  A cubic
    # graph has no configuration, so solve goes straight to its search.
    g = random_cubic_graph(random.Random(801), 200)
    searched = []
    real = Graph.is_connected

    def counted(graph):
        searched.append(graph.n)
        return real(graph)

    monkeypatch.setattr(Graph, "is_connected", counted)
    assert solve(g).trace.base_cases == ("search(k=100)",)
    assert searched == [200]


def test_run_check_gives_a_structure_fault_one_finding(monkeypatch):
    # A cyclic even core is the InternalError solve raises: one `error`
    # finding for each graph whose solve searches a base case, and the
    # run goes on with the next graph.
    items = census_items(5)
    searched = [
        gid for gid, g in items
        if any(b.startswith("search") for b in solve(g).trace.base_cases)
    ]
    irreducible = [
        gid for gid, g in items
        if g.m and (g.n, g.m) not in ((3, 3), (5, 10)) and detect(g) is None
    ]
    monkeypatch.setattr(gallai.batch, "check_structure", _cyclic_core)
    monkeypatch.setattr(gallai.solver, "check_structure", _cyclic_core)
    report = run_check(items)
    assert [r.graph_id for r in report.records] == [gid for gid, _ in items]
    assert [(f.kind, f.graph_id) for f in report.findings] == [
        ("error", gid) for gid in searched
    ]
    assert all("cyclic even-degree core" in f.message for f in report.findings)
    assert set(irreducible) <= set(searched)
    for record in report.records:
        assert record.verified == (record.graph_id not in searched)


def _refuse_edit(*args):
    raise ValueError("editing move refused")


def _too_deep(*args):
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "module, name, broken, message",
    [
        (gallai.paths.PathStore, "splice", _refuse_edit, "editing move refused"),
        (gallai.solver, "_base_case", _too_deep, "maximum recursion depth exceeded"),
    ],
    ids=["lift_error", "recursion_error"],
)
def test_run_check_records_a_failed_solve_and_goes_on(
    monkeypatch, module, name, broken, message
):
    # A LiftError (here from a recipe whose route splice fails) or a
    # RecursionError on one graph is that graph's finding, not the run's end.
    monkeypatch.setattr(module, name, broken)
    items = census_items(5)
    report = run_check(items)
    assert [r.graph_id for r in report.records] == [gid for gid, _ in items]
    assert not report.ok
    assert report.findings
    assert all(f.kind == "error" and message in f.message for f in report.findings)
    failed = {f.graph_id for f in report.findings}
    for record in report.records:
        assert record.verified == (record.graph_id not in failed)
        assert (record.paths is None) == (record.graph_id in failed)


def test_run_floor_search_classifies_failures():
    report = run_floor_search(census_items(5))
    assert report.ok  # no unclassified failures expected
    misses = {r.graph_id: r.note for r in report.records if r.paths is None}
    k3 = write_graph6(complete_graph(3))
    assert misses[k3] == "odd_semi_clique"
    assert all(note == "odd_semi_clique" for note in misses.values())
    assert len(misses) == 3  # K3, K5 minus an edge, K5


def test_run_floor_search_finds_no_gap_up_to_n8():
    # The floor(n/2) probe over the whole internal census: every graph
    # that misses floor(n/2) paths is an odd semi-clique.
    report = run_floor_search(census_items(8))
    assert len(report.records) == 7226
    assert report.findings == []
    misses = [r for r in report.records if r.paths is None and r.m > 0]
    assert misses and all(r.note == "odd_semi_clique" for r in misses)


def test_run_floor_search_emits_finding_on_mock(monkeypatch):
    # Force the search to fail on a path graph: the finding channel must
    # fire because P4 is not an odd semi-clique.
    real = gallai.batch.solve_base

    def failing(g, k, budget=None):
        if g.n == 4 and g.m == 3:
            return None
        return real(g, k, budget)

    monkeypatch.setattr(gallai.batch, "solve_base", failing)
    p4 = path_graph(4)
    report = run_floor_search([(write_graph6(p4), p4)])
    assert not report.ok
    assert report.findings[0].kind == "floor_gap"
    assert "not an odd semi-clique" in report.findings[0].message


def test_run_floor_search_records_a_disconnected_graph_and_goes_on():
    p3 = path_graph(3)
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    k2 = path_graph(2)
    items = [("p3", p3), ("two_edges", two_edges), ("k2", k2)]
    report = run_floor_search(items)
    assert [r.graph_id for r in report.records] == ["p3", "two_edges", "k2"]
    assert [(f.kind, f.graph_id, f.message) for f in report.findings] == [
        ("error", "two_edges", "graph is not connected")
    ]
    assert [(r.paths, r.verified) for r in report.records] == [
        (1, True), (None, False), (1, True)
    ]


def test_run_scan_histogram():
    g = cycle(4)
    report = run_scan([("c4", g)])
    record = report.records[0]
    assert record.histogram == {"C1": 1}
    assert record.note == "C1"
    pet_report = run_scan([("petersen", path_graph(2))])
    assert pet_report.records[0].note == "irreducible"
    # The note is the configuration detect finds first.
    items = census_items(6)
    for (_, g), record in zip(items, run_scan(items).records):
        first = detect(g)
        assert record.note == (first.tag if first else "irreducible")


def _out_of_contract_stream():
    """Two irreducible graphs outside the contract, then a good one."""
    triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    star = Graph.from_edges(7, [(0, i) for i in range(1, 7)])
    return [write_graph6(g) for g in (triangles, star, cycle(4))]


def test_run_check_records_an_irreducible_graph_outside_the_contract():
    lines = _out_of_contract_stream()
    assert all(detect(parse_graph6(line)) is None for line in lines[:2])
    report = run_check([(line, parse_graph6(line)) for line in lines])
    assert [r.graph_id for r in report.records] == lines
    assert [(f.kind, f.graph_id, f.message) for f in report.findings] == [
        ("error", lines[0], "graph is not connected"),
        ("error", lines[1], "max degree exceeds 5"),
    ]
    assert [r.verified for r in report.records] == [False, False, True]


def test_cli_check_reports_an_irreducible_graph_outside_the_contract(
    tmp_path, capsys
):
    lines = _out_of_contract_stream()
    path = write(tmp_path, "bad.g6", "\n".join(lines) + "\n")
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "graphs=3" in out and "findings=2" in out
    assert f"FINDING error {lines[0]}: graph is not connected" in out
    assert f"FINDING error {lines[1]}: max degree exceeds 5" in out


# -- command line -------------------------------------------------------------


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


def test_cli_solve_edge_list(tmp_path, capsys):
    path = write(tmp_path, "k5.txt", "\n".join(
        f"{i} {j}" for i in range(5) for j in range(i + 1, 5)
    ))
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "paths=3" in out and "good" in out


def test_cli_solve_rejects_disconnected(tmp_path, capsys):
    path = write(tmp_path, "two.txt", "0 1\n2 3\n")
    assert main(["solve", path]) == 2
    assert "not connected" in capsys.readouterr().err


def test_cli_solve_rejects_big_degree(tmp_path, capsys):
    path = write(tmp_path, "star6.txt", "\n".join(f"0 {i}" for i in range(1, 7)))
    assert main(["solve", path]) == 2
    assert "max degree exceeds 5" in capsys.readouterr().err


def test_cli_solve_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "0 0\n")
    assert main(["solve", path]) == 2
    assert "self-loop" in capsys.readouterr().err


def test_cli_solve_budget_exhausted(tmp_path, capsys):
    path = write(tmp_path, "pet.g6", write_graph6(petersen()) + "\n")
    assert main(["solve", path, "--budget", "5"]) == 3


def test_cli_solve_graph6_stream(tmp_path, capsys):
    lines = "\n".join(write_graph6(g) for g in enumerate_connected(4, 5))
    path = write(tmp_path, "stream.g6", lines + "\n")
    assert main(["solve", path, "--trace"]) == 0
    out = capsys.readouterr().out
    assert out.count("# base:") == 6


def test_cli_verify_good(tmp_path, capsys):
    g = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n3 0\n")
    d = write(tmp_path, "c4d.txt", "0 1 2\n2 3 0\n")
    assert main(["verify", g, d]) == 0
    assert "good: 2 paths" in capsys.readouterr().out


def test_cli_verify_repeated_vertex(tmp_path, capsys):
    g = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n3 0\n")
    d = write(tmp_path, "bad.txt", "0 1 2 3 0\n")
    assert main(["verify", g, d]) == 1
    assert "repeated_vertex" in capsys.readouterr().out


def test_cli_verify_uncovered(tmp_path, capsys):
    g = write(tmp_path, "k3.txt", "0 1\n1 2\n0 2\n")
    d = write(tmp_path, "d.txt", "0 1 2\n")
    assert main(["verify", g, d]) == 1
    assert "uncovered_edge" in capsys.readouterr().out


def test_cli_check_internal_and_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["check", "--max-n", "4", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "findings=0" in out
    document = json.loads(report_path.read_text())
    assert document["command"] == "check"
    assert document["counters"]["graphs"] == 10
    assert document["counters"]["verified"] == 10
    assert document["findings"] == []
    record = document["records"][-1]
    assert set(record) == {
        "graph_id", "n", "m", "max_degree", "bound", "paths",
        "histogram", "verified", "note", "seconds",
    }


def test_cli_check_budget_exhaustion_keeps_every_record(tmp_path, capsys):
    # A graph whose search runs out of budget is a `budget` finding of that
    # graph; the other graphs are still checked and the report is written.
    report_path = tmp_path / "report.json"
    argv = ["check", "--max-n", "5", "--budget", "1", "--report", str(report_path)]
    assert main(argv) == 3
    document = json.loads(report_path.read_text())
    ids = [gid for gid, _ in census_items(5)]
    assert [r["graph_id"] for r in document["records"]] == ids
    findings = document["findings"]
    assert findings
    assert {f["kind"] for f in findings} == {"budget"}
    failed = {f["graph_id"] for f in findings}
    for record in document["records"]:
        assert (record["paths"] is None) == (record["graph_id"] in failed)
        assert record["verified"] == (record["graph_id"] not in failed)
    assert "FINDING budget" in capsys.readouterr().out


def test_cli_check_stream(tmp_path, capsys):
    lines = [write_graph6(g) for g in enumerate_connected(5, 5)]
    path = write(tmp_path, "n5.g6", "\n".join(lines) + "\n")
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert f"graphs={len(lines)}" in out


def test_check_refuses_edgeless_graphs_on_no_or_two_vertices(tmp_path, capsys):
    # The graph6 lines `?` (n = 0) and `A?` (two isolated vertices) are
    # not connected, as solve says; K1 (`@`) stays the edgeless base case.
    lines = ["?", "A?", "@"]
    report = run_check([(line, parse_graph6(line)) for line in lines])
    assert [(f.kind, f.graph_id, f.message) for f in report.findings] == [
        ("error", "?", "graph is not connected"),
        ("error", "A?", "graph is not connected"),
    ]
    assert [
        (r.graph_id, r.max_degree, r.paths, r.verified, r.note)
        for r in report.records
    ] == [("?", 0, None, False, ""), ("A?", 0, None, False, ""),
          ("@", 0, 0, True, "edgeless")]
    path = write(tmp_path, "edgeless.g6", "?\nA?\n")
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "FINDING error ?: graph is not connected" in out
    assert "FINDING error A?: graph is not connected" in out


def test_cli_floor_search(capsys):
    assert main(["floor-search", "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert "odd_semi_clique" in out
    assert "FINDING" not in out


def test_cli_floor_search_cap(capsys, monkeypatch):
    # floor-search takes the census cap, and refuses an order above it
    # before anything is enumerated.
    calls = []

    def counted(n, max_deg):
        calls.append(n)
        return enumerate_connected(n, max_deg)

    monkeypatch.setattr(gallai.cli, "enumerate_connected", counted)
    assert main(["floor-search", "--max-n", "9"]) == 2
    assert "capped at n=8" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["check", "scan", "floor-search"])
def test_cli_refuses_an_order_below_one(capsys, command):
    assert main([command, "--max-n", "0"]) == 2
    assert "--max-n must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["solve", "absent.txt"], ["check", "--max-n", "4"],
             ["floor-search", "--max-n", "4"]],
)
def test_cli_refuses_a_negative_budget_before_reading(
    capsys, monkeypatch, argv
):
    # no file is opened and no graph enumerated: absent.txt does not exist
    calls = []
    monkeypatch.setattr(
        gallai.cli, "enumerate_connected", lambda n, d: calls.append(n) or []
    )
    assert main([*argv, "--budget", "-3"]) == 2
    assert "--budget must be at least 0, got -3" in capsys.readouterr().err
    assert calls == []


def test_cli_solve_needs_no_search_node_for_a_graph_that_reduces(tmp_path):
    # a 5-cycle reduces to K3, which is decomposed without a search
    path = write(tmp_path, "c5.txt", "0 1\n1 2\n2 3\n3 4\n0 4\n")
    assert main(["solve", path, "--budget", "0"]) == 0


def test_cli_check_refuses_an_order_above_the_cap_before_enumerating(
    capsys, monkeypatch
):
    calls = []

    def counted(n, max_deg):
        calls.append(n)
        return enumerate_connected(n, max_deg)

    monkeypatch.setattr(gallai.cli, "enumerate_connected", counted)
    assert main(["check", "--max-n", "9"]) == 2
    assert "capped at n=8" in capsys.readouterr().err
    assert calls == []


def test_cli_floor_search_budget_exhaustion_keeps_every_record(tmp_path, capsys):
    # As in check: a search that runs out of budget is a `budget` finding of
    # that graph, and the other graphs and the report still come out.
    report_path = tmp_path / "report.json"
    argv = ["floor-search", "--max-n", "5", "--budget", "3",
            "--report", str(report_path)]
    assert main(argv) == 3
    document = json.loads(report_path.read_text())
    ids = [gid for gid, _ in census_items(5)]
    assert [r["graph_id"] for r in document["records"]] == ids
    findings = document["findings"]
    assert findings
    assert {f["kind"] for f in findings} == {"budget"}
    failed = {f["graph_id"] for f in findings}
    for record in document["records"]:
        assert record["verified"] == (record["graph_id"] not in failed)
    assert "FINDING budget" in capsys.readouterr().out


def test_cli_scan(tmp_path, capsys):
    lines = [write_graph6(g) for g in enumerate_connected(4, 5)]
    path = write(tmp_path, "n4.g6", "\n".join(lines) + "\n")
    assert main(["scan", path]) == 0
    assert "C1" in capsys.readouterr().out


def test_cli_scan_internal(capsys):
    assert main(["scan", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "irreducible" in out and "graphs=10" in out


def test_cli_unreadable_file(capsys):
    assert main(["solve", "/nonexistent/file"]) == 2


def test_cli_solve_recipe_value_error_is_internal_failure(
    tmp_path, capsys, monkeypatch
):
    # A ValueError inside a lift recipe is a bug in the recipe, not bad
    # input: it surfaces as a LiftError and exit status 1, not 2.
    def broken(*args):
        raise ValueError("editing move refused")

    monkeypatch.setattr(gallai.paths.PathStore, "splice", broken)
    path = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n3 0\n")
    assert main(["solve", path]) == 1
    assert "editing move refused" in capsys.readouterr().err


def test_cli_solve_recursion_error_is_internal_failure(
    tmp_path, capsys, monkeypatch
):
    # Too deep a reduction chain is an internal failure: one line on
    # stderr and exit status 1, no traceback.
    monkeypatch.setattr(gallai.solver, "_base_case", _too_deep)
    path = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n3 0\n")
    assert main(["solve", path]) == 1
    err = capsys.readouterr().err
    assert err == "gallai: internal failure: maximum recursion depth exceeded\n"


def _no_search(edges, k, budget=None):
    return None


def _cyclic_core(g):
    return False


def _never_valid(g, d):
    from gallai.paths import VerifyReport

    return VerifyReport(False, (), len(d), False)


@pytest.mark.parametrize(
    "name, broken, message",
    [
        ("cover_with_paths", _no_search, "exact search found no decomposition into 2 paths"),
        ("check_structure", _cyclic_core, "cyclic even-degree core"),
        ("verify", _never_valid, "final decomposition not good"),
    ],
    ids=["search", "structure", "final_verify"],
)
def test_cli_solve_broken_guarantee_is_internal_failure(
    tmp_path, capsys, monkeypatch, name, broken, message
):
    # A guarantee of the solver failing is a fault of the program: exit
    # status 1 and "internal failure", not the input error status 2.  The
    # 4-cycle with a chord is irreducible, so it goes to the search.
    monkeypatch.setattr(gallai.solver, name, broken)
    path = write(tmp_path, "chorded.txt", "0 1\n1 2\n2 3\n3 0\n0 2\n")
    assert main(["solve", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gallai: internal failure: ") and message in err


def test_cli_solve_rejected_input_stays_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "two.txt", "0 1\n2 3\n")
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert err == "gallai: graph is not connected\n"


def test_cli_graph6_file_header(tmp_path, capsys):
    g = two_cliques_with_bridge()
    path = write(tmp_path, "h.g6", ">>graph6<<" + write_graph6(g) + "\n")
    assert main(["solve", path]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "g.txt", "--report", "r.json"],
        ["verify", "g.txt", "d.txt", "--budget", "5"],
        ["verify", "g.txt", "d.txt", "--report", "r.json"],
        ["scan", "--budget", "5"],
    ],
    ids=["solve_report", "verify_budget", "verify_report", "scan_budget"],
)
def test_cli_rejects_options_that_nothing_reads(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "g.txt", "--format", "edgelist", "--trace", "--budget", "5"],
        ["verify", "g.txt", "d.txt", "--format", "graph6"],
        ["check", "g.g6", "--max-n", "4", "--format", "graph6", "--budget", "5",
         "--report", "r.json"],
        ["floor-search", "--max-n", "4", "--budget", "5", "--report", "r.json"],
        ["scan", "g.g6", "--max-n", "4", "--format", "graph6",
         "--report", "r.json"],
    ],
    ids=["solve", "verify", "check", "floor_search", "scan"],
)
def test_cli_parses_every_remaining_option(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
