"""Linking products by one path search per (v, target) pair, read straight
off the definition: the product of the weights adjacent to, but not on, the
path from v to the target.  The tests check the program's rerooted linking
pass against it; it shares no code with that pass."""

from splicezeta.diagrams import DiagramError


def _anchor(d, target):
    """The vertex the target hangs at, and the arrowhead whose supporting
    edge leads to it (None for a vertex, or a dashed arrow at a vertex)."""
    for w in d.warrows:
        if w.id == target:
            if w.doubles is None:
                return w.at, None
            target = w.doubles
    if target in d.vertices:
        return target, None
    for a in d.farrows:
        if a.id == target:
            return a.at, a.id
    raise DiagramError(f"unknown linking target {target!r}")


def pairwise_linking_product(d, v, target, exclude_edge=None):
    """l(v, target); ``exclude_edge`` drops that edge's weight at v when the
    edge is not on the path."""
    anchor, via_farrow = _anchor(d, target)
    prev = {v: None}
    stack = [v]
    while stack and anchor != v:
        x = stack.pop()
        if x == anchor:
            break
        for e in d.edges_at(x):
            y = e.other(x)
            if y not in prev:
                prev[y] = x
                stack.append(y)
    if anchor not in prev:
        raise DiagramError(f"no path from {v!r} to {anchor!r}")
    path = [anchor]
    while path[-1] != v:
        path.append(prev[path[-1]])
    on_path = set()
    for x, y in zip(path, path[1:]):
        on_path |= {(x, y), (y, x)}
    prod = 1
    for x in path:
        for e in d.edges_at(x):
            if (x, e.other(x)) in on_path:
                continue
            if exclude_edge is not None and x == v and e.key == exclude_edge.key:
                continue
            prod *= e.weight_at(x)
        for a in d.farrows_at(x):
            if not (x == anchor and via_farrow == a.id):
                prod *= a.weight
    return prod


def linking_sum(d, v, c, exclude_edge=None, beyond=None):
    """sum of c_t l(v, t) over the targets t of the map c; with ``beyond``,
    a set of vertices, over the targets anchored there only."""
    return sum(
        ct * pairwise_linking_product(d, v, t, exclude_edge)
        for t, ct in c.items()
        if beyond is None or _anchor(d, t)[0] in beyond
    )
