"""Command-line surface.

Subcommands: solve, verify, check, floor-search, scan.  Exit statuses:
0 success, 1 verification, structural or internal failure, 2 input error,
3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .batch import run_check, run_floor_search, run_scan
from .census import ENUMERATION_LIMIT, enumerate_connected
from .graphs import Graph
from .io import (
    FormatError,
    format_decomposition,
    parse_decomposition,
    parse_edgelist,
    parse_graph6,
    write_graph6,
)
from .paths import verify
from .reductions import ReductionError
from .search import BudgetExhaustedError
from .solver import InternalError, SolveError, solve

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

_GRAPH6_FILE_HEADER = ">>graph6<<"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _looks_like_edgelist(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        return len(tokens) == 2 and all(t.isdigit() for t in tokens)
    return False


def read_graphs(path: str, fmt: str) -> list[tuple[str, Graph]]:
    """Graphs from a file: an edge list is one graph, graph6 is one per
    line.  ``fmt`` is 'auto', 'graph6', or 'edgelist'."""
    text = _read_text(path)
    if text.startswith(_GRAPH6_FILE_HEADER):
        text = text[len(_GRAPH6_FILE_HEADER):]
        if fmt == "auto":
            fmt = "graph6"
    if fmt == "auto":
        fmt = "edgelist" if _looks_like_edgelist(text) else "graph6"
    if fmt == "edgelist":
        return [("edgelist", parse_edgelist(text))]
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            try:
                out.append((line, parse_graph6(line)))
            except FormatError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
    if not out:
        raise FormatError("no graphs in input")
    return out


def _enumerated(max_n: int) -> list[tuple[str, Graph]]:
    # refuse the order before enumerating anything
    if max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {max_n}")
    if max_n > ENUMERATION_LIMIT:
        raise ValueError(
            f"internal enumerator is capped at n={ENUMERATION_LIMIT}; "
            "pipe a graph6 stream instead"
        )
    out = []
    for n in range(1, max_n + 1):
        for g in enumerate_connected(n, 5):
            out.append((write_graph6(g), g))
    return out


def _cmd_solve(args) -> int:
    graphs = read_graphs(args.input, args.format)
    for graph_id, g in graphs:
        # solve verifies its result and raises InternalError if it is not good
        result = solve(g, args.budget)
        if len(graphs) > 1:
            sys.stdout.write(f"# {graph_id}\n")
        sys.stdout.write(format_decomposition(result.decomposition))
        if args.trace:
            for step in result.trace.steps:
                sys.stdout.write(
                    f"# reduce n={step.order} {step.tag}/{step.subcase}\n"
                )
            sys.stdout.write(f"# base: {', '.join(result.trace.base_cases)}\n")
        sys.stdout.write(
            f"# n={g.n} m={g.m} paths={len(result.decomposition)} "
            f"bound={(g.n + 1) // 2} good\n"
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    graphs = read_graphs(args.graph, args.format)
    if len(graphs) != 1:
        raise FormatError("verify expects exactly one graph")
    g = graphs[0][1]
    decomposition = parse_decomposition(_read_text(args.decomposition))
    report = verify(g, decomposition)
    sys.stdout.write(str(report) + "\n")
    return EXIT_OK if report.valid and report.good else EXIT_FAILURE


def _cmd_batch(args) -> int:
    """check, floor-search and scan: run over the input stream or the
    census, print the report, and write it as JSON with ``--report``.  Any
    ``budget`` finding exits 3; otherwise ``check`` exits 1 on any finding,
    and the others exit 0: their findings do not fail the run."""
    # open --report before anything is read or enumerated
    with (open(args.report, "w", encoding="ascii") if args.report
          else nullcontext()) as handle:
        if getattr(args, "input", None) is not None:
            graphs = read_graphs(args.input, args.format)
        else:
            graphs = _enumerated(args.max_n)
        report = args.run(graphs, *((args.budget,) if "budget" in args else ()))
        sys.stdout.write(report.to_text())
        if handle is not None:
            handle.write(report.to_json())
    if any(f.kind == "budget" for f in report.findings):
        return EXIT_BUDGET
    return EXIT_FAILURE if args.command == "check" and report.findings else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gallai",
        description=(
            "Decompose connected graphs of maximum degree at most five "
            "into at most ceil(n/2) paths, with verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *options):
        if "format" in options:
            p.add_argument(
                "--format",
                choices=("auto", "graph6", "edgelist"),
                default="auto",
                help="input format (default: auto-detect)",
            )
        if "budget" in options:
            p.add_argument("--budget", type=int, default=None,
                           help="search node budget (default: unlimited)")
        if "report" in options:
            p.add_argument("--report", metavar="PATH", default=None,
                           help="also write a JSON report document")

    p = sub.add_parser("solve", help="decompose each input graph")
    p.add_argument("input", nargs="?", default="-",
                   help="graph file or - for stdin")
    p.add_argument("--trace", action="store_true",
                   help="print the reduction steps")
    common(p, "format", "budget")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a decomposition against a graph")
    p.add_argument("graph", help="graph file")
    p.add_argument("decomposition", help="decomposition file")
    common(p, "format")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "check", help="solve and verify a census or a graph6 stream"
    )
    p.add_argument("input", nargs="?", default=None,
                   help="graph6 stream; omitted = internal enumeration")
    p.add_argument("--max-n", type=int, default=7,
                   help=f"internal enumeration cap (<= {ENUMERATION_LIMIT})")
    common(p, "format", "budget", "report")
    p.set_defaults(func=_cmd_batch, run=run_check)

    p = sub.add_parser(
        "floor-search",
        help="look for graphs needing more than floor(n/2) paths",
    )
    p.add_argument("--max-n", type=int, default=6,
                   help=f"internal enumeration cap (<= {ENUMERATION_LIMIT})")
    common(p, "budget", "report")
    p.set_defaults(func=_cmd_batch, run=run_floor_search)

    p = sub.add_parser("scan", help="configuration histogram only")
    p.add_argument("input", nargs="?", default=None,
                   help="graph6 stream; omitted = internal enumeration")
    p.add_argument("--max-n", type=int, default=7,
                   help=f"internal enumeration cap (<= {ENUMERATION_LIMIT})")
    common(p, "format", "report")
    p.set_defaults(func=_cmd_batch, run=run_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # refuse a negative budget before anything is read or enumerated
        budget = getattr(args, "budget", None)
        if budget is not None and budget < 0:
            raise ValueError(f"--budget must be at least 0, got {budget}")
        return args.func(args)
    except (InternalError, RecursionError) as exc:
        print(f"gallai: internal failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (FormatError, OSError, ValueError, SolveError) as exc:
        print(f"gallai: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExhaustedError as exc:
        print(f"gallai: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ReductionError as exc:
        print(f"gallai: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
