"""The scripts under ``tools/`` that tier-1 can check without running
the benchmark itself."""

import ast
import hashlib
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gallai import Graph, solve
from gallai.io import format_decomposition

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]


def _tool(name):
    """tools/<name>.py, loaded from its file."""
    source = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _raises(source):
    """Each raise line of the file ``source``, with its text."""
    text = source.read_text()
    lines = text.splitlines()
    return {
        node.lineno: lines[node.lineno - 1]
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Raise)
    }


def test_raise_lines_lists_every_raise_of_the_reductions_but_one():
    # Every raise of reductions.py is a ReductionError or LiftError, a
    # refusal that `_c4_first` builds, or the InternalError of a C4 lemma
    # check, except the ValueError of check_structure, which is not a
    # reduction's guard.  In solver.py the InternalError raises are
    # counted, and not the SolveError refusals of input outside the
    # contract.  The guards of graphs, paths, io and cli follow.
    tool = _tool("raise_lines")
    reductions, solver, *guarded = tool.SOURCES
    assert (reductions.name, solver.name) == ("reductions.py", "solver.py")
    assert [source.name for source in guarded] == [
        "graphs.py", "paths.py", "io.py", "cli.py",
    ]
    raises = _raises(reductions)
    (value_error,) = (n for n, line in raises.items() if "ValueError" in line)
    assert set(tool.raise_lines(reductions)) == raises.keys() - {value_error}
    lemmas = {n for n, line in raises.items() if "InternalError" in line}
    assert len(lemmas) == 2 and "InternalError" in tool.SOURCES[reductions]
    internal = {n for n, line in _raises(solver).items() if "InternalError" in line}
    assert len(internal) == 4
    assert set(tool.raise_lines(solver)) == internal


def test_bench_pairs_refuses_a_revision_git_does_not_know():
    bench = _tool("bench_pairs")
    with pytest.raises(SystemExit, match="git knows no revision 'no-such-rev'"):
        bench.main(["--parent", "no-such-rev", "--label", "refused"])
    assert not (ROOT / "BENCH_refused.json").exists()


def _fake_runs(digests):
    """A runner that records its calls and gives each side ``digests``'
    outputs digest, and every metric the value 1.0 for the parent and a
    little less for the change."""
    calls = []

    def run(side, workload, seed, seconds):
        calls.append((side.name, workload, seed))
        value = 1.0 if side.name == "parent" else 0.9 + 0.01 * len(calls)
        return dict.fromkeys(METRICS, value) | {"failed": 0}, digests[side.name], "none"

    return run, calls


def test_bench_pairs_alternates_the_sides_and_summarises(tmp_path):
    bench = _tool("bench_pairs")
    run, calls = _fake_runs({"parent": "aa", "change": "aa"})
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    doc = bench.compare(sides, [("families", 801)], 3, 1.0, run)
    assert [side for side, _, _ in calls] == [
        "parent", "change", "change", "parent", "parent", "change",
    ]
    assert doc["digest_mismatches"] == []
    assert doc["outputs_sha256"] == {
        "families@801": {"parent": ["aa"], "change": ["aa"]}
    }
    row = bench.summarize(doc["pairs"], {"pass_s": "lower"})["families@801"]["pass_s"]
    assert row["change_wins"] == "3 of 3" and row["parent_median"] == 1.0
    assert set(row) == {
        "parent_median", "parent_quartiles", "change_median",
        "change_quartiles", "change_over_parent", "change_wins",
    }


def test_bench_pairs_reports_a_digest_mismatch(tmp_path, monkeypatch, capsys):
    # The whole command with its exports and runs stubbed: it still writes
    # the file in the shape of the hand-built ones, names the mismatch
    # there and on standard error, and exits non-zero.
    bench = _tool("bench_pairs")
    run, _ = _fake_runs({"parent": "aa", "change": "bb"})
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "resolve", lambda rev: "0123456789abcdef")
    monkeypatch.setattr(bench, "export", lambda commit, into: into)
    monkeypatch.setattr(bench, "copy_tree", lambda into: into)
    monkeypatch.setattr(bench, "run_bench", run)
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    status = bench.main(["--parent", "HEAD", "--label", "t", "--pairs", "2"])
    assert status == 1
    assert "OUTPUT DIGESTS DIFFER at families@801" in capsys.readouterr().err
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["digest_mismatches"] == ["families@801"]
    assert doc["outputs_sha256"]["families@801"] == {"parent": ["aa"], "change": ["bb"]}
    hand_built = json.loads((ROOT / "BENCH_c3_near.json").read_text())
    core = {"label", "command", "python", "cpu", "nproc", "parent_commit",
            "change_commit", "note", "pairs", "outputs_sha256", "summary"}
    assert core <= set(hand_built) and core <= set(doc)
    assert doc["parent_commit"] == "0123456"
    assert set(doc["summary"]["families@801"]) == set(METRICS)


def test_scale_probe_reports_levels_and_steps(monkeypatch):
    # `levels` counts the calls of `reduce` and `steps` the trace's steps,
    # one per level while each level removes one configuration.
    probe = _tool("scale_probe")
    monkeypatch.setattr(probe, "INPUTS", (("path", 40), ("regular3", 20)))
    runs = probe.probe(801)["runs"]
    assert (runs["path-40"]["levels"], runs["path-40"]["steps"]) == (38, 38)
    assert (runs["regular3-20"]["levels"], runs["regular3-20"]["steps"]) == (0, 0)
    # a cubic graph has no configuration, so no child to descend into
    assert "descend_s" in runs["path-40"] and runs["regular3-20"]["descend_s"] == 0.0


def test_scale_probe_solves_one_named_input_in_its_own_process():
    # `--input` takes any order of a family the probe knows, solves that
    # one input, and adds the process's peak RSS and the result's digest.
    probe = _tool("scale_probe")
    script = str(ROOT / "tools" / "scale_probe.py")
    done = subprocess.run(
        [sys.executable, script, "--input", "maxdeg5-90"],
        capture_output=True, text=True, check=True,
    )
    doc = json.loads(done.stdout)
    (name,) = doc["runs"]
    run = doc["runs"][name]
    assert name == "maxdeg5-90" and run["n"] == 90 and run["levels"] > 0
    assert 0 < doc["peak_rss_mb"] < 1000
    size, edges = probe.MAKERS["maxdeg5"](random.Random("801:maxdeg5-90"), 90)
    d = solve(Graph.from_edges(size, edges)).decomposition
    assert run["sha256"] == hashlib.sha256(format_decomposition(d).encode()).hexdigest()
    refused = subprocess.run(
        [sys.executable, script, "--input", "regular5-90"],
        capture_output=True, text=True,
    )
    assert refused.returncode == 2 and "unknown input" in refused.stderr


def test_census_probe_counts_each_order(monkeypatch):
    # Orders 1-5 of the census, from a cold cache.  K1 is built without a
    # search; from n = 2 every kept class is labelled once, so the
    # labellings are at least the classes, and each labelling, a tie's
    # included, runs inside one deletion test.
    probe = _tool("census_probe")
    monkeypatch.setattr(probe.census, "_census_cache", {})
    orders = probe.probe(5)["orders"]
    assert [orders[n]["classes"] for n in range(1, 6)] == [1, 1, 2, 6, 21]
    assert orders[1]["labellings"] == orders[1]["deletion_tests"] == 0
    for n in range(2, 6):
        row = orders[n]
        assert row["labellings"] >= row["classes"]
        assert row["tie_labellings"] <= row["labellings"] <= row["deletion_tests"]
