"""The blowup generator one whole graph at a time: each step rebuilds and
re-checks a ``PlumbingGraph`` from the previous one, read straight off the
blowup rule.  The tests check ``generate.random_plumbing`` and
``diagrams.blowup`` against it; it shares no code with their blowup step."""

from splicezeta.diagrams import DiagramError, Farrow, PlumbingGraph, PVertex, Warrow


def blowup(g, locus):
    """Blow up a generic point of a vertex, an edge, or an arrow incidence:
    ``("vertex", v)``, ``("edge", (a, b))`` or ``("arrow", id)``."""
    kind, what = locus
    used = {v.id for v in g.vertices}
    i = 0
    while f"b{i}" in used:
        i += 1
    new = f"b{i}"
    verts = {v.id: v.self_int for v in g.vertices}
    edges = list(g.edges)
    farrows = list(g.farrows)
    warrows = list(g.warrows)
    if kind == "vertex":
        if what not in verts:
            raise DiagramError(f"unknown vertex {what!r}")
        met = [what]
    elif kind == "edge":
        a, b = sorted(what)
        if (a, b) not in edges:
            raise DiagramError(f"unknown edge ({a}, {b})")
        edges.remove((a, b))
        met = [a, b]
    elif kind == "arrow":
        fa = next((x for x in farrows if x.id == what), None)
        wa = next((x for x in warrows if x.id == what and x.at is not None), None)
        if fa is not None:
            met = [fa.at]
            farrows = [x for x in farrows if x.id != what]
            farrows.append(Farrow(id=fa.id, at=new, weight=1, mult=fa.mult))
        elif wa is not None:
            met = [wa.at]
            warrows = [x for x in warrows if x.id != what]
            warrows.append(Warrow(id=wa.id, value=wa.value, at=new))
        else:
            raise DiagramError(f"unknown arrow {what!r}")
    else:
        raise DiagramError(f"unknown blowup locus kind {kind!r}")
    for v in met:
        verts[v] -= 1
    edges.extend(tuple(sorted((v, new))) for v in met)
    vertices = [PVertex(i, s) for i, s in verts.items()] + [PVertex(new, -1)]
    return PlumbingGraph(vertices, edges, farrows, warrows)


def random_plumbing(rng, blowups=6, arrows=1, warrow_chance=0.5):
    """One ``blowup`` per step from a (-1)-curve with one arrowhead, then
    the arrowheads redrawn and, by chance, dashed arrows attached."""
    g = PlumbingGraph([PVertex("r0", -1)], [], [Farrow(id="q0", at="r0", weight=1, mult=1)])
    for _ in range(blowups):
        kind = rng.choice(["vertex", "vertex", "edge", "arrow"])
        if kind == "vertex":
            g = blowup(g, ("vertex", rng.choice(g.vertices).id))
        elif kind == "edge" and g.edges:
            g = blowup(g, ("edge", rng.choice(g.edges)))
        else:
            g = blowup(g, ("arrow", rng.choice(g.farrows).id))
    verts = [v.id for v in g.vertices]
    farrows = []
    for k in range(arrows):
        at = rng.choice(verts)
        farrows.append(Farrow(id=f"q{k}", at=at, weight=1, mult=rng.randint(1, 3)))
    g = PlumbingGraph(g.vertices, g.edges, farrows)
    if rng.random() < warrow_chance:
        g = attach_random_warrows(rng, g)
    return g


def attach_random_warrows(rng, g):
    """Dashed arrows at a few boundary components or doubling arrowheads."""
    warrows = []
    k = 0
    for v in g.vertices:
        if g.valency_f(v.id) == 1 and rng.random() < 0.5:
            value = rng.choice([-3, -2, -1, 2, 3, 4])
            warrows.append(Warrow(id=f"dw{k}", value=value, at=v.id))
            k += 1
    for a in g.farrows:
        if rng.random() < 0.3:
            warrows.append(Warrow(id=f"dw{k}", value=rng.choice([-2, 0, 2, 3]), doubles=a.id))
            k += 1
    return PlumbingGraph(g.vertices, g.edges, g.farrows, warrows)
