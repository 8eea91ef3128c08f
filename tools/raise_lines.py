"""Count the raise lines of the library's guards that the test suite
reaches: the ``raise ReductionError``, ``raise LiftError`` and ``raise
InternalError`` lines of ``src/gallai/reductions.py``, with the ``raise
_c4_first(...)`` and ``raise _lift_error(...)`` lines, whose helpers build
a ``ReductionError`` and a ``LiftError``; the ``raise InternalError(...)``
lines of ``src/gallai/solver.py``; and the ``ValueError``, ``KeyError``,
``AttributeError`` and ``FormatError`` raises of ``graphs.py``,
``paths.py``, ``io.py`` and ``cli.py``, as ``SOURCES`` lists them.

    python3 tools/raise_lines.py [pytest arguments; default: -q tests]

The raise lines are read from each module's syntax tree.  A
``sys.settrace`` hook (no ``coverage`` package needed) traces only the
frames of those modules while pytest runs the suite in this process;
the script then prints, for each module apart, the raise lines reached
out of the total, and each line missed with its text.  Tests that run the
library in a subprocess are not seen.

Standard library only, apart from pytest, which runs the suite;
``gallai`` is imported from ``src`` next to this directory, so the script
counts the checkout it sits in.  Exits with pytest's status.
"""

from __future__ import annotations

import ast
import importlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each traced module's source, with the names whose raise lines it counts.
SOURCES = {
    ROOT / "src" / "gallai" / "reductions.py": (
        "ReductionError", "LiftError", "InternalError", "_c4_first",
        "_lift_error",
    ),
    ROOT / "src" / "gallai" / "solver.py": ("InternalError",),
    ROOT / "src" / "gallai" / "graphs.py": ("ValueError", "KeyError", "AttributeError"),
    ROOT / "src" / "gallai" / "paths.py": ("ValueError",),
    ROOT / "src" / "gallai" / "io.py": ("FormatError", "ValueError"),
    ROOT / "src" / "gallai" / "cli.py": ("FormatError", "ValueError"),
}


def raise_lines(path: Path) -> dict[int, str]:
    """Each line of ``path`` that raises one of its ``SOURCES`` names,
    with its text."""
    errors = SOURCES[path]
    text = path.read_text()
    lines = text.splitlines()
    return {
        node.lineno: lines[node.lineno - 1].strip()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id in errors
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    targets = {}
    for source in SOURCES:
        target = importlib.import_module(f"gallai.{source.stem}").__file__
        if Path(target).resolve() != source:
            sys.exit(f"gallai.{source.stem} comes from {target}, not {source}")
        targets[target] = source
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in targets else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for target, source in targets.items():
        lines = raise_lines(source)
        missed = sorted(n for n in lines if (target, n) not in reached)
        print(
            f"{source.name}: raise lines reached: "
            f"{len(lines) - len(missed)} of {len(lines)}"
        )
        for lineno in missed:
            print(f"  missed {source.name}:{lineno}: {lines[lineno]}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
