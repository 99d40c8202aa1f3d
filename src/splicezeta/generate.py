"""Random diagram and graph generators for the property suites.

Two complementary sources: random blowup sequences starting from a single
(-1)-curve (always unimodular and negative definite, converted to splice
diagrams on demand), and direct template-based splice trees with small
pairwise-coprime weights and positive edge determinants.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from math import gcd, prod

from .diagrams import (
    DiagramError,
    Edge,
    Farrow,
    PlumbingGraph,
    PVertex,
    SpliceDiagram,
    Warrow,
    blowup_step,
    plumbing_to_splice,
    validate,
)


def random_plumbing(
    rng: random.Random,
    blowups: int = 6,
    arrows: int = 1,
    warrow_chance: float = 0.5,
) -> PlumbingGraph:
    """Random unimodular negative-definite tree with arrowheads; built by
    blowing up generic points, edges, and arrow incidences of a (-1)-curve.

    A seed gives the same graph, and leaves ``rng`` in the same state, as
    one ``diagrams.blowup`` call per step would: each step draws its locus
    from the vertex, edge or arrowhead list in ``blowup``'s order.  The
    steps run on plain lists and one ``PlumbingGraph`` is built at the end,
    so a draw takes time linear in ``blowups``."""
    verts, edges, farrows = {"r0": -1}, [], [Farrow(id="q0", at="r0", weight=1, mult=1)]
    ids = ["r0"]
    for k in range(blowups):
        kind = rng.choice(["vertex", "vertex", "edge", "arrow"])
        if kind == "vertex":
            locus = ("vertex", rng.choice(ids))
        elif kind == "edge" and edges:
            locus = ("edge", rng.choice(range(len(edges))))
        else:
            locus = ("farrow", rng.choice(range(len(farrows))))
        ids.append(f"b{k}")
        blowup_step(verts, edges, farrows, [], *locus, ids[-1])
    # re-draw the arrow set
    farrows = [
        Farrow(id=f"q{k}", at=rng.choice(ids), weight=1, mult=rng.randint(1, 3)) for k in range(arrows)
    ]
    warrows = _random_warrows(rng, ids, edges, farrows) if rng.random() < warrow_chance else []
    return PlumbingGraph([PVertex(v, s) for v, s in verts.items()], edges, farrows, warrows)


def _random_warrows(rng: random.Random, ids, edges, farrows) -> list[Warrow]:
    """Dashed arrows at a few boundary components (valency 1, arrowheads
    counted) or doubling arrowheads of the graph with these lists."""
    valency = Counter(chain(*edges, (a.at for a in farrows)))
    warrows = []
    for v in ids:
        if valency[v] == 1 and rng.random() < 0.5:
            warrows.append(Warrow(id=f"dw{len(warrows)}", value=rng.choice([-3, -2, -1, 2, 3, 4]), at=v))
    for a in farrows:
        if rng.random() < 0.3:
            warrows.append(Warrow(id=f"dw{len(warrows)}", value=rng.choice([-2, 0, 2, 3]), doubles=a.id))
    return warrows


_LEG_POOLS = [
    (2, 3),
    (2, 5),
    (3, 4),
    (3, 5),
    (2, 7),
    (4, 5),
    (5, 6),
    (2, 9),
    (3, 7),
    (5,),
    (7,),
    (3,),
    (2,),
    (11,),
    (13,),
]


def random_splice_diagram(
    rng: random.Random,
    max_nodes: int = 4,
    max_weight: int = 13,
    arrows: int | None = None,
    with_warrows: bool = False,
) -> SpliceDiagram | None:
    """Random caterpillar splice diagram with weights <= max_weight.

    Interior edges carry weight 1 on the parent side and a larger coprime
    weight on the child side, which keeps all edge determinants positive the
    same way plane-curve staircases do.  Returns None when the draw fails
    validation (caller retries)."""
    n_nodes = rng.randint(1, max_nodes)
    vertices: list[str] = []
    edges: list[Edge] = []
    legs_of: dict[str, tuple[int, ...]] = {}
    prev = None
    prev_prod = 1
    for k in range(n_nodes):
        v = f"n{k}"
        vertices.append(v)
        legs = rng.choice(_LEG_POOLS) if (k == 0 or k == n_nodes - 1 or rng.random() < 0.6) else ()
        if prev is not None:
            lo = prev_prod * max(1, prod(legs))
            choices = [
                wgt
                for wgt in range(lo + 1, max_weight + 1)
                if all(gcd(wgt, x) == 1 for x in legs)
            ]
            if not choices:
                return None
            up = rng.choice(choices)
            edges.append(Edge(prev, v, 1, up))
            prev_prod = up * prod(legs)
        else:
            prev_prod = prod(legs)
        for j, w in enumerate(legs):
            b = f"b{k}_{j}"
            vertices.append(b)
            edges.append(Edge(v, b, w, 1))
        legs_of[v] = legs
        prev = v
    # arrowheads at nodes, weight 1 (coprime to everything)
    n_arr = arrows if arrows is not None else rng.randint(1, 2)
    farrows = []
    node_ids = [f"n{k}" for k in range(n_nodes)]
    for k in range(n_arr):
        at = rng.choice(node_ids)
        farrows.append(Farrow(id=f"a{k}", at=at, weight=1, mult=rng.randint(1, 3)))
    d = SpliceDiagram(vertices, edges, farrows)
    # every vertex must be a node or boundary vertex
    if d.chain_vertices():
        return None
    if not all(d.is_node(a.at) for a in d.farrows):
        return None
    if not validate(d).ok:
        return None
    if with_warrows:
        d = attach_random_splice_warrows(rng, d)
    return d


def attach_random_splice_warrows(rng: random.Random, d: SpliceDiagram) -> SpliceDiagram:
    warrows = []
    k = 0
    for v in d.boundary_vertices():
        if rng.random() < 0.5:
            warrows.append(Warrow(id=f"dw{k}", value=rng.choice([-3, -2, -1, 2, 3, 5]), at=v))
            k += 1
    for a in d.farrows:
        if rng.random() < 0.25:
            warrows.append(Warrow(id=f"dw{k}", value=rng.choice([-2, 0, 2, 4]), doubles=a.id))
            k += 1
    return SpliceDiagram(d.vertices, d.edges, d.farrows, warrows)


def random_valid_splice(rng: random.Random, **kw) -> SpliceDiagram:
    """Retry wrapper mixing template draws with converted random plumbings."""
    for _ in range(200):
        if rng.random() < 0.35:
            g = random_plumbing(
                rng,
                blowups=rng.randint(3, 7),
                arrows=rng.randint(1, 2),
                warrow_chance=0.5 if kw.get("with_warrows") else 0.0,
            )
            try:
                d = plumbing_to_splice(g)
            except DiagramError:
                continue
            if d.chain_vertices() or not validate(d).ok:
                continue
            if kw.get("max_weight"):
                mw = max(
                    [e.wa for e in d.edges] + [e.wb for e in d.edges] + [a.weight for a in d.farrows],
                    default=1,
                )
                if mw > kw["max_weight"]:
                    continue
            if kw.get("max_nodes") and len(d.nodes()) > kw["max_nodes"]:
                continue
            return d
        d = random_splice_diagram(rng, **kw)
        if d is not None:
            return d
    raise RuntimeError("generator failed to produce a valid diagram")


def random_allowed_w(rng: random.Random, d: SpliceDiagram, tries: int = 200) -> dict[str, int] | None:
    """Rejection-sample a nontrivial allowed W on boundary slots and doubles."""
    from .allowed import allowed_at

    slots = list(d.boundary_vertices()) + [a.id for a in d.farrows]
    for _ in range(tries):
        w = {}
        for s in slots:
            if rng.random() < 0.6:
                m = rng.choice([-3, -2, -1, 1, 2, 3, 4])
                w[s] = m
        try:
            if allowed_at(d, None, w):
                return w
        except DiagramError:
            continue
    return None
