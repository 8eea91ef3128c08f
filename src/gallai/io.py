"""Text formats: graph6, edge lists, and the decomposition format.

graph6 lines carry an order header followed by the upper triangle of the
adjacency matrix in column-major order, packed six bits per printable byte
(values 63..126, most significant bit first, zero padded).  Edge lists are
``u v`` lines with ``#`` comments, on the vertex ids 0..n-1, each of which
has an edge.  Decompositions are one path per line as space-separated
vertex ids.
"""

from __future__ import annotations

import math

from .graphs import Graph
from .paths import Path, PathDecomposition


class FormatError(ValueError):
    """Malformed input in any of the supported text formats."""


_EXTENDED_LIMIT = 258047  # largest order expressible as '~' + 3 bytes


def parse_graph6(line: str) -> Graph:
    data = line.strip()
    if not data:
        raise FormatError("empty graph6 line")
    values = []
    for ch in data:
        code = ord(ch)
        if not (63 <= code <= 126):
            raise FormatError(f"byte {code!r} outside the printable range 63..126")
        values.append(code - 63)
    if values[0] < 63:
        n = values[0]
        body = values[1:]
    else:
        if len(values) < 4 or values[0] != 63:
            raise FormatError("truncated extended order header")
        n = (values[1] << 12) | (values[2] << 6) | values[3]
        if n <= 62:
            raise FormatError("extended header used for a small order")
        if n > _EXTENDED_LIMIT:
            raise FormatError(f"order {n} exceeds the supported graph6 range")
        body = values[4:]
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(body) != need_bytes:
        kind = "truncated" if len(body) < need_bytes else "overlong"
        raise FormatError(
            f"{kind} graph6 body: {len(body)} bytes for order {n}"
        )
    pad = need_bytes * 6 - need_bits
    if body and body[-1] & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits")
    masks = [0] * n
    for i, value in enumerate(body):
        if not value:
            continue
        for bit in range(6):
            if value >> (5 - bit) & 1:
                row, col = _pair_at(6 * i + bit)
                masks[row] |= 1 << col
                masks[col] |= 1 << row
    return Graph(n, masks)


def write_graph6(g: Graph) -> str:
    n = g.n
    if n > _EXTENDED_LIMIT:
        raise FormatError(f"order {n} exceeds the supported graph6 range")
    if n and max(g.vertices()) != n - 1:
        raise ValueError("graph6 needs the vertex ids 0..n-1")
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + "".join(
            chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)
        )
    values = bytearray((n * (n - 1) // 2 + 5) // 6)
    for row, col in g.edges():
        position = col * (col - 1) // 2 + row
        values[position // 6] |= 32 >> position % 6
    return header + "".join(chr(63 + value) for value in values)


def _pair_at(position: int) -> tuple[int, int]:
    """The (row, col) pair, row < col, at a bit position of the body."""
    col = (1 + math.isqrt(8 * position + 1)) // 2
    return position - col * (col - 1) // 2, col


def parse_edgelist(text: str) -> Graph:
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric vertex id") from None
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: negative vertex id")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    if not edges:
        raise FormatError("edge list holds no edges")
    # the ids must be 0..n-1: refuse a gap in O(m), whatever the largest id
    ids = {x for e in edges for x in e}
    gap = next(x for x in range(len(ids) + 1) if x not in ids)
    if gap < len(ids):
        raise FormatError(
            f"vertex id {gap} has no edge, below the largest id {max(ids)}; "
            "an edge list numbers its vertices 0..n-1"
        )
    return Graph.from_edges(len(ids), edges)


def parse_decomposition(text: str) -> PathDecomposition:
    paths = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            vertices = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric vertex id") from None
        if any(v < 0 for v in vertices):
            raise FormatError(f"line {lineno}: negative vertex id")
        try:
            paths.append(Path(vertices))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return PathDecomposition(tuple(paths))


def format_decomposition(d: PathDecomposition) -> str:
    lines = [" ".join(map(str, p.canonical().vertices)) for p in d.paths]
    return "\n".join(lines) + ("\n" if lines else "")
