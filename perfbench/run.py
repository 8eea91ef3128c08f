"""The gallai benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload census|families|odd_regular \
        --seed N --seconds T --trace 0|1

Each run starts the workload in child interpreters (perfbench/workload.py),
one after another, single client, closed loop:

* one child that measures and checks, untraced;
* with ``--trace 0``, SETUP_REPEATS children before it and as many after
  it that only import the library and build the inputs; ``setup_s`` is
  the median of their wall times, each scaled to the reference speed of
  speed.py by probe runs made just before and after it;
* with ``--trace 1``, a second child that measures the same inputs with
  every layer wrapped (perfbench/tracer.py).  Its spans go to
  ``perfbench/out/``; the per-layer totals and the tracing overhead are
  printed instead of the end-to-end metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
say the same for a human, with the machine facts, the failure tally by
exception class and the SHA-256 digests of the inputs and the outputs.
A child that exits non-zero ends the run with a non-zero exit and no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

WORKLOADS = ("census", "families", "odd_regular")
# Set-up children before and again after the measuring child: their
# median then spans the run, not one moment of the machine's speed.
SETUP_REPEATS = 5
# Probe runs, each side of a set-up child, whose median gives its speed.
SETUP_PROBES = 15
# A run must end within 180 s; children get what is left of this.
RUN_DEADLINE_S = 170.0

# (span name, totals fields reported) for the per-layer metrics.
LAYERS = (
    ("census.enumerate_connected", ("s",)),
    ("census.canonical_form", ("calls", "s")),
    ("io.parse_graph6", ("calls", "s")),
    ("batch.run_check", ("self_s",)),
    ("solver.solve", ("calls", "s", "self_s")),
    ("reductions.detect", ("calls", "s")),
    ("reductions.check_structure", ("calls", "s")),
    ("reductions.reduce", ("calls", "s")),
    ("graphs.delete_vertices", ("calls", "s")),
    ("graphs.contract_edge", ("calls", "s")),
    ("graphs.is_connected", ("calls", "s")),
    ("graphs.bridges", ("calls", "s")),
    ("reductions.lift", ("calls", "self_s")),
    ("paths.verify", ("calls", "s")),
    ("paths.verify.in_lift", ("calls", "s")),
    ("paths.verify.in_solve", ("calls", "s")),
    ("paths.verify.in_batch", ("calls", "s")),
    ("search.cover_with_paths", ("calls", "s")),
    ("search.in_lift", ("calls", "s")),
)


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"python {platform.python_version()}, cpu {cpu}, nproc {os.cpu_count()}"


class Child:
    """Starts workload children and holds the run's deadline."""

    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def run(self, mode: str, seconds: float, spans: Path | None = None):
        command = [
            sys.executable, str(HERE / "workload.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(seconds), "--mode", mode,
        ]
        if spans:
            command += ["--spans", str(spans)]
        before = probe_s() if mode == "setup" else 0.0
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        wall = time.perf_counter() - start
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{mode} child exited with {done.returncode}")
        if mode == "setup":
            return wall * speed.REFERENCE_S / statistics.median(
                [before, probe_s()])
        return json.loads(done.stdout.strip().splitlines()[-1])


def probe_s() -> float:
    """Median duration of SETUP_PROBES runs of the speed probe's work."""
    took = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        speed.calibrate()
        took.append(time.perf_counter() - start)
    return statistics.median(took)


def end_to_end(result: dict, setup_s: float) -> dict:
    figures = result["figures"]
    latencies = figures["latencies"]
    values = {
        "setup_s": (setup_s, "s"),
        "pass_s": (figures["pass_s"], "s"),
        "graphs_per_s": (figures["graphs_per_s"], "1/s"),
        "edges_per_s": (figures["edges_per_s"], "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * _percentile(latencies, 90), "ms"),
        "latency_p99_ms": (1e3 * _percentile(latencies, 99), "ms"),
        "largest_s": (figures["largest_s"], "s"),
        "growth_exp": (figures["growth_exp"], "exponent"),
        "peak_rss_mb": (figures["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(plain: dict, traced: dict) -> dict:
    totals = traced["layers"]
    verify = {"calls": 0, "s": 0.0}
    for caller in ("in_lift", "in_solve", "in_batch"):
        for field in verify:
            verify[field] += totals.get(f"paths.verify.{caller}", {}).get(field, 0)
    totals["paths.verify"] = verify
    values: dict[str, tuple[float, str]] = {}
    for name, fields in LAYERS:
        for field in fields:
            unit = "count" if field == "calls" else "s"
            values[f"{name}.{field}"] = (totals.get(name, {}).get(field, 0), unit)
    canonical = values["census.canonical_form.calls"][0]
    solves = traced["solves"]
    values["census.kept_ratio"] = (
        traced["classes"] / canonical if canonical else 0.0, "ratio")
    values["solver.reductions_per_solve"] = (
        traced["reductions"] / solves if solves else 0.0, "count")
    calls = values["solver.solve.calls"][0]
    values["paths.verify.per_solve"] = (
        verify["calls"] / calls if calls else 0.0, "count")
    for subcase, count in traced["subcases"].items():
        values[f"reductions.subcase.{subcase}"] = (count, "count")
    values["enum_s"] = (plain["figures"].get("enum_s", 0.0), "s")
    values["fail_frac"] = (plain["failed"] / plain["attempted"], "ratio")
    values["known_defects.failed"] = (
        sum(o != "solved" for o in plain["defects"].values()), "count")
    values["trace_overhead"] = (
        traced["figures"]["pass_s"] / plain["figures"]["pass_s"], "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    child = Child(args)

    def set_up() -> list[float]:
        if args.trace:
            return []
        return [child.run("setup", 0) for _ in range(SETUP_REPEATS)]

    setups = set_up()
    # With tracing, the untraced and the traced child share the run length.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = child.run("plain", seconds)
    result = plain
    correct = plain["correct"]
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-{args.seed}.jsonl"
        result = child.run("traced", seconds, spans)
        # The tracer's extra frames must not change any outcome.
        correct = (correct and result["correct"]
                   and result["failures"] == plain["failures"]
                   and result["defects"] == plain["defects"]
                   and result["digest"] == plain["digest"])
        metrics = per_layer(plain, result)
    else:
        setups += set_up()
        metrics = end_to_end(plain, statistics.median(setups))

    print(f"# gallai benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {machine()}")
    if "inputs_digest" in plain:
        print(f"# inputs sha256 {plain['inputs_digest']}")
    print(f"# outputs sha256 {result['digest']}")
    tally = ", ".join(f"{k}={v}" for k, v in sorted(result["failures"].items()))
    print(f"# failed inputs: {tally or 'none'}; "
          f"failed attempts: {result['failed']} of {result['attempted']}")
    defects = ", ".join(f"{k} {v}" for k, v in result["defects"].items())
    print(f"# known defects, solved once untimed: {defects or 'none'}")
    figures = result["figures"]
    print(f"# machine speed {figures['speed']:.3f} of the reference; "
          f"speed probe {100 * figures['probe_share']:.1f} % of the timed region")
    if args.trace:
        print(f"# spans: {result['spans']} in {spans.relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
