"""Compare a revision with the working tree on the benchmark, in pairs.

    python3 tools/bench_pairs.py --parent REV --label L \
        [--run W@S ...] [--pairs 10] [--seconds 10]

Exports REV with ``git archive`` and copies the working tree (the files
git tracks or does not ignore) into one temporary directory each.  For
each workload W at seed S it then runs ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` in the two copies by turns,
the parent first in odd pairs, and writes ``BENCH_<L>.json`` at the root
of the checkout:

- ``pairs``: every run's end-to-end metrics and ``failed`` count, by W@S;
- ``summary``: per W@S and metric, each side's median and quartiles
  (``statistics.quantiles``, inclusive), the change's median over the
  parent's and the pairs that the change won, by the direction that
  ``BENCHMARK.json`` gives the metric;
- ``outputs_sha256`` and ``known_defects``: what each side's runs printed.

When the two sides' output digests differ, it says so on standard error
and names the mismatch in the file's ``digest_mismatches``.  Local git
only; nothing is fetched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0"

# One run: (side's directory, workload, seed, seconds) -> the run's
# metrics, its outputs digest and its known-defects line.
Runner = Callable[[Path, str, int, float], tuple[dict, str, str]]


def resolve(rev: str) -> str:
    """The full commit id of ``rev``; ``SystemExit`` if git does not know it."""
    done = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: git knows no revision {rev!r}")
    return done.stdout.strip()


def export(commit: str, into: Path) -> Path:
    """The files of ``commit``, unpacked from ``git archive`` into ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT,
        capture_output=True, check=True,
    )
    with tempfile.TemporaryFile() as tar_file:
        tar_file.write(archive.stdout)
        tar_file.seek(0)
        with tarfile.open(fileobj=tar_file) as tar:
            tar.extractall(into, filter="data")
    return into


def copy_tree(into: Path) -> Path:
    """The working tree's files that git tracks or does not ignore."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is left out
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)
    return into


def run_bench(side: Path, workload: str, seed: int, seconds: float):
    """One ``perfbench/run.py`` run in ``side``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=side, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(command)} exited "
                         f"{done.returncode} in {side}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = defects = ""
    for line in lines:
        if line.startswith("# outputs sha256 "):
            digest = line.split()[-1]
        elif line.startswith("# known defects"):
            defects = line.split(": ", 1)[1]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed"] = result["failed"]
    return metrics, digest, defects


def compare(
    sides: dict[str, Path], runs: list[tuple[str, int]], pairs: int,
    seconds: float, run: Runner,
) -> dict:
    """Alternate ``pairs`` pairs of ``run`` between the parent and the
    change for each (workload, seed); return the file's ``pairs``,
    ``outputs_sha256``, ``known_defects`` and ``digest_mismatches``."""
    doc: dict = {"pairs": {}, "outputs_sha256": {}, "known_defects": {}}
    for workload, seed in runs:
        key = f"{workload}@{seed}"
        results, digests, defects = [], {"parent": [], "change": []}, {}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                metrics, digest, defect = run(sides[side], workload, seed, seconds)
                pair[side] = metrics
                if digest not in digests[side]:
                    digests[side].append(digest)
                defects[side] = defect
            results.append(pair)
            print(f"{key} pair {i + 1}: pass_s parent "
                  f"{pair['parent'].get('pass_s', float('nan')):.4f}, change "
                  f"{pair['change'].get('pass_s', float('nan')):.4f}", file=sys.stderr)
        doc["pairs"][key] = results
        doc["outputs_sha256"][key] = digests
        doc["known_defects"][key] = defects
    doc["digest_mismatches"] = [
        key for key, digests in doc["outputs_sha256"].items()
        if digests["parent"] != digests["change"]
    ]
    for key in doc["digest_mismatches"]:
        print(f"bench_pairs: OUTPUT DIGESTS DIFFER at {key}: "
              f"parent {doc['outputs_sha256'][key]['parent']}, "
              f"change {doc['outputs_sha256'][key]['change']}", file=sys.stderr)
    return doc


def summarize(pairs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per W@S and metric of ``better`` (its direction, "lower" or
    "higher"): medians, quartiles, ratio and pairs the change won."""
    summary: dict = {}
    for key, results in pairs.items():
        rows = {}
        for name, direction in better.items():
            parent = [pair["parent"][name] for pair in results]
            change = [pair["change"][name] for pair in results]
            won = sum(
                (c < p) if direction == "lower" else (c > p)
                for p, c in zip(parent, change)
            )
            rows[name] = {
                "parent_median": round(statistics.median(parent), 6),
                "parent_quartiles": _quartiles(parent),
                "change_median": round(statistics.median(change), 6),
                "change_quartiles": _quartiles(change),
                "change_over_parent": round(
                    statistics.median(change) / statistics.median(parent), 4
                ) if statistics.median(parent) else None,
                "change_wins": f"{won} of {len(results)}",
            }
        summary[key] = rows
    return summary


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 6)] * 3
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def _run_spec(text: str) -> tuple[str, int]:
    workload, _, seed = text.partition("@")
    if not seed.isdigit():
        raise argparse.ArgumentTypeError(f"expected W@SEED, got {text!r}")
    return workload, int(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--run", type=_run_spec, action="append", dest="runs",
                        help="a workload and seed, W@S; repeat for more "
                             "(default: families@801)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    runs = args.runs or [("families", 801)]
    parent = resolve(args.parent)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {
            "parent": export(parent, Path(tmp) / "parent"),
            "change": copy_tree(Path(tmp) / "change"),
        }
        doc = compare(sides, runs, args.pairs, args.seconds, run_bench)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    out = {
        "label": args.label,
        "command": COMMAND,
        "python": platform.python_version(),
        "cpu": _cpu(),
        "nproc": os.cpu_count(),
        "parent_commit": parent[:7],
        "change_commit": None,
        "note": (
            f"{args.pairs} alternating pairs per W@S, the parent first in odd "
            "pairs; the parent from git archive, the change from a copy of "
            "the working tree that this file is committed with"
        ),
        "pairs": doc["pairs"],
        "outputs_sha256": doc["outputs_sha256"],
        "digest_mismatches": doc["digest_mismatches"],
        "known_defects": doc["known_defects"],
        "summary": summarize(doc["pairs"], better),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 1 if doc["digest_mismatches"] else 0


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


if __name__ == "__main__":
    # a terminated run still removes its copies and ends its current child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
