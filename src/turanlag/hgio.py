"""Text interchange format for hypergraphs (".hg").

First nonblank line: ``n r``.  Each following line: one edge as r ascending
space-separated vertex ids.  Blank lines and ``#`` comments are ignored.
Serialization is canonical: edges sorted, single spaces, trailing newline.
"""

from __future__ import annotations

from .hypergraph import Hypergraph

__all__ = ["ParseError", "parse_hypergraph", "serialize_hypergraph", "load", "dump"]


class ParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def parse_hypergraph(text: str) -> Hypergraph:
    header = None
    n = r = 0
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            vals = [int(tok) for tok in parts]
        except ValueError:
            raise ParseError(line_no, f"non-integer token in {line!r}")
        if header is None:
            if len(vals) != 2:
                raise ParseError(line_no, "header must be two integers: n r")
            n, r = vals
            if n < 0:
                raise ParseError(line_no, "vertex count must be nonnegative")
            if r < 1:
                raise ParseError(line_no, "uniformity must be at least 1")
            header = line_no
            continue
        if len(vals) != r:
            raise ParseError(line_no, f"expected {r} vertices, got {len(vals)}")
        if len(set(vals)) != r:
            raise ParseError(line_no, "repeated vertex in edge")
        if any(v < 0 or v >= n for v in vals):
            raise ParseError(line_no, f"vertex id outside 0..{n - 1}")
        e = tuple(sorted(vals))
        if e in seen:
            raise ParseError(line_no, f"duplicate edge {' '.join(map(str, e))}")
        seen.add(e)
        edges.append(e)
    if header is None:
        raise ParseError(1, "missing header line 'n r'")
    return Hypergraph._trusted(n, r, edges)  # every edge is checked above


def serialize_hypergraph(G: Hypergraph) -> str:
    lines = [f"{G.n} {G.r}"]
    lines += [" ".join(map(str, e)) for e in G.edge_list]
    return "\n".join(lines) + "\n"


def load(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def dump(G: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_hypergraph(G))
