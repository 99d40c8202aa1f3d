"""Line-oriented text format for diagrams.

Header line names the kind and the diagram; records follow one per line.

    splice-diagram <name>
    vertex <id>
    edge <id1> <id2> [<w1> <w2>]
    farrow <aid> at <vid> w=<d> N=<int>
    warrow <wid> at <vid> i=<int>
    warrow <wid> doubles <aid> i=<int>

    plumbing-graph <name>
    vertex <id> self=<int>
    edge <id1> <id2>
    farrow <aid> at <vid> N=<int>
    warrow <wid> at <vid> i=<int>
    warrow <wid> doubles <aid> i=<int>

``#`` starts a comment.  Unknown record kinds and duplicate ids are errors.
Ids starting with ``~`` are read like any other: splicing mints its ids with
that prefix, primed where the piece already holds one, and the ``stars``
output holding them parses back.  An id is a whitespace-separated token, so
it is nonempty and holds no whitespace by construction.
"""

from __future__ import annotations

import sys

from .diagrams import Edge, Farrow, PlumbingGraph, PVertex, SpliceDiagram, Warrow


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _split_kv(tokens: list[str], line_no: int, expected: set[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(line_no, f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k not in expected:
            raise ParseError(line_no, f"unknown field {k!r}")
        if k in out:
            raise ParseError(line_no, f"duplicate field {k!r}")
        out[k] = v
    return out


def _int(text: str, line_no: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    # a token past Python's limit for integer string conversion is not echoed
    digits = sum(c.isdigit() for c in text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < digits:
        raise ParseError(line_no, f"{what} has {digits} digits, past Python's limit of {limit}")
    raise ParseError(line_no, f"{what} must be an integer, got {text!r}")


def parse_diagram(text: str):
    """Parse a diagram file; returns SpliceDiagram or PlumbingGraph with name.

    Returns (kind, name, object) where kind is 'splice' or 'plumbing'."""
    lines = text.splitlines()
    header = None
    header_no = 0
    for no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            header = line
            header_no = no
            break
    if header is None:
        raise ParseError(0, "empty file")
    parts = header.split()
    if parts[0] not in ("splice-diagram", "plumbing-graph") or len(parts) != 2:
        raise ParseError(header_no, "header must be 'splice-diagram <name>' or 'plumbing-graph <name>'")
    kind = "splice" if parts[0] == "splice-diagram" else "plumbing"
    name = parts[1]
    vertices: list = []
    edges: list = []
    farrows: list[Farrow] = []
    warrows: list[Warrow] = []
    for no, raw in enumerate(lines, 1):
        if no <= header_no:
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        rec = toks[0]
        if rec == "vertex":
            if kind == "splice":
                if len(toks) != 2:
                    raise ParseError(no, "vertex <id>")
                vertices.append(toks[1])
            else:
                if len(toks) != 3:
                    raise ParseError(no, "vertex <id> self=<int>")
                kv = _split_kv(toks[2:], no, {"self"})
                if "self" not in kv:
                    raise ParseError(no, "missing self=<int>")
                vertices.append(PVertex(toks[1], _int(kv["self"], no, "self")))
        elif rec == "edge":
            if kind == "splice":
                if len(toks) not in (3, 5):
                    raise ParseError(no, "edge <id1> <id2> [<w1> <w2>]")
                w1 = _int(toks[3], no, "weight") if len(toks) == 5 else 1
                w2 = _int(toks[4], no, "weight") if len(toks) == 5 else 1
                edges.append(Edge(toks[1], toks[2], w1, w2))
            else:
                if len(toks) != 3:
                    raise ParseError(no, "edge <id1> <id2>")
                edges.append((toks[1], toks[2]))
        elif rec == "farrow":
            if len(toks) < 4 or toks[2] != "at":
                raise ParseError(no, "farrow <aid> at <vid> ...")
            fields = {"w", "N"} if kind == "splice" else {"N"}
            kv = _split_kv(toks[4:], no, fields)
            if "N" not in kv:
                raise ParseError(no, "missing N=<int>")
            weight = _int(kv.get("w", "1"), no, "w") if kind == "splice" else 1
            farrows.append(
                Farrow(
                    id=toks[1],
                    at=toks[3],
                    weight=weight,
                    mult=_int(kv["N"], no, "N"),
                )
            )
        elif rec == "warrow":
            if len(toks) != 5 or toks[2] not in ("at", "doubles"):
                raise ParseError(no, "warrow <wid> at|doubles <id> i=<int>")
            kv = _split_kv(toks[4:], no, {"i"})
            if "i" not in kv:
                raise ParseError(no, "missing i=<int>")
            value = _int(kv["i"], no, "i")
            if toks[2] == "at":
                warrows.append(Warrow(id=toks[1], value=value, at=toks[3]))
            else:
                warrows.append(Warrow(id=toks[1], value=value, doubles=toks[3]))
        else:
            raise ParseError(no, f"unknown record kind {rec!r}")
    try:
        if kind == "splice":
            obj = SpliceDiagram(vertices, edges, farrows, warrows)
        else:
            obj = PlumbingGraph(vertices, edges, farrows, warrows)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None
    return kind, name, obj


def print_splice(d: SpliceDiagram, name: str = "diagram") -> str:
    lines = [f"splice-diagram {name}"]
    for v in d.vertices:
        lines.append(f"vertex {v}")
    for e in d.edges:
        lines.append(f"edge {e.a} {e.b} {e.wa} {e.wb}")
    for a in d.farrows:
        lines.append(f"farrow {a.id} at {a.at} w={a.weight} N={a.mult}")
    for w in d.warrows:
        if w.at is not None:
            lines.append(f"warrow {w.id} at {w.at} i={w.value}")
        else:
            lines.append(f"warrow {w.id} doubles {w.doubles} i={w.value}")
    return "\n".join(lines) + "\n"


def print_plumbing(g: PlumbingGraph, name: str = "graph") -> str:
    lines = [f"plumbing-graph {name}"]
    for v in g.vertices:
        lines.append(f"vertex {v.id} self={v.self_int}")
    for a, b in g.edges:
        lines.append(f"edge {a} {b}")
    for a in g.farrows:
        lines.append(f"farrow {a.id} at {a.at} N={a.mult}")
    for w in g.warrows:
        if w.at is not None:
            lines.append(f"warrow {w.id} at {w.at} i={w.value}")
        else:
            lines.append(f"warrow {w.id} doubles {w.doubles} i={w.value}")
    return "\n".join(lines) + "\n"


def print_diagram(obj, name: str = "diagram") -> str:
    if isinstance(obj, SpliceDiagram):
        return print_splice(obj, name)
    if isinstance(obj, PlumbingGraph):
        return print_plumbing(obj, name)
    raise TypeError(f"cannot print {type(obj).__name__}")
