"""Count the ``raise ReductionError`` and ``raise LiftError`` lines of
``src/gallai/reductions.py`` that the test suite reaches.

    python3 tools/raise_lines.py [pytest arguments; default: -q tests]

The raise lines are read from the module's syntax tree.  A ``sys.settrace``
hook (no ``coverage`` package needed) traces only the frames of
``reductions.py`` while pytest runs the suite in this process; the script
then prints the raise lines reached out of the total, and each line missed
with its text.  Tests that run the library in a subprocess are not seen.

Standard library only, apart from pytest, which runs the suite;
``gallai`` is imported from ``src`` next to this directory, so the script
counts the checkout it sits in.  Exits with pytest's status.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "gallai" / "reductions.py"
ERRORS = ("ReductionError", "LiftError")


def raise_lines(path: Path) -> dict[int, str]:
    """Each line that raises one of ``ERRORS``, with its text."""
    text = path.read_text()
    lines = text.splitlines()
    return {
        node.lineno: lines[node.lineno - 1].strip()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id in ERRORS
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    import gallai.reductions

    target = gallai.reductions.__file__
    if Path(target).resolve() != SOURCE:
        sys.exit(f"gallai.reductions comes from {target}, not {SOURCE}")
    reached: set[int] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == target else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = raise_lines(SOURCE)
    missed = sorted(lines.keys() - reached)
    print(f"raise lines reached: {len(lines) - len(missed)} of {len(lines)}")
    for lineno in missed:
        print(f"  missed {SOURCE.name}:{lineno}: {lines[lineno]}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
