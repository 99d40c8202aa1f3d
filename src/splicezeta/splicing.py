"""Splicing decorated diagrams along special edges.

Splitting a diagram at a node-node edge hands each half a replacement for the
lost side: an ordinary arrowhead of multiplicity M (doubled by a dashed arrow
of value i) when the far side carried arrowheads, otherwise a boundary leg
whose vertex carries a dashed arrow of value i.  M collects far-side arrow
multiplicities against linking products; i collects the canonical-class and
dashed data of the far side the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagrams import DiagramError, Edge, Farrow, SpliceDiagram, Warrow, edge_determinant
from .divisors import PDivisor, f_of, node_data, w_of
from .zeta import principal_parts, summands, zeta_splice


def induced_multiplicity(d: SpliceDiagram, e: Edge, keep: str, fm: dict[str, int]) -> int:
    """M for the half keeping ``keep``: far-side arrow multiplicities times
    their linking products measured from the cut."""
    far = e.other(keep)
    side = set(d.side_vertices(keep, e))
    acc = 0
    for a in d.farrows:
        if a.at in side:
            acc += fm.get(a.id, 0) * d.linking_product(far, a.id, exclude_edge=e)
    return acc


def induced_value(d: SpliceDiagram, e: Edge, keep: str, wm: dict[str, int]) -> int:
    """i for the half keeping ``keep``: canonical contribution of the far side
    plus its dashed-arrow terms."""
    far = e.other(keep)
    side = d.side_vertices(keep, e)
    side_set = set(side)
    acc = 0
    for x in side:
        acc += (2 - d.delta(x)) * d.linking_product(far, x, exclude_edge=e)
    for a in d.farrows:
        if a.at in side_set and a.weight >= 2:
            acc += d.linking_product(far, a.id, exclude_edge=e)
    for slot, mult in wm.items():
        if not mult:
            continue
        if d.anchor(slot)[0] in side_set:
            acc += mult * d.linking_product(far, slot, exclude_edge=e)
    return acc


def far_side_has_arrows(d: SpliceDiagram, e: Edge, keep: str) -> bool:
    side = set(d.side_vertices(keep, e))
    return any(a.at in side for a in d.farrows)


@dataclass
class SpliceHalf:
    diagram: SpliceDiagram
    kept_node: str
    m: int
    i: int
    new_farrow: str | None
    new_slot: str


def _half(d: SpliceDiagram, e: Edge, keep: str, fm, wm) -> SpliceHalf:
    far = e.other(keep)
    side = set(d.side_vertices(keep, e))
    keep_vertices = [v for v in d.vertices if v not in side]
    keep_edges = [x for x in d.edges if x.key != e.key and x.a not in side]
    keep_farrows = [a for a in d.farrows if a.at not in side]
    keep_warrows = []
    keep_fids = {a.id for a in keep_farrows}
    for wslot, mult in wm.items():
        if mult == 0:
            continue
        if wslot in keep_fids:
            keep_warrows.append(Warrow(id=f"~W.{wslot}", value=mult + 1, doubles=wslot))
        elif wslot in keep_vertices:
            keep_warrows.append(Warrow(id=f"~W.{wslot}", value=mult + 1, at=wslot))
    keep_farrows = [
        Farrow(id=a.id, at=a.at, weight=a.weight, mult=fm.get(a.id, 0))
        for a in keep_farrows
    ]
    m = induced_multiplicity(d, e, keep, fm)
    i = induced_value(d, e, keep, wm)
    used = set(keep_vertices) | {a.id for a in keep_farrows} | {x.id for x in keep_warrows}

    def fresh(stem: str) -> str:
        name = stem
        while name in used:
            name += "'"
        used.add(name)
        return name

    if far_side_has_arrows(d, e, keep):
        aid = fresh(f"~a{keep}|{far}")
        keep_farrows.append(Farrow(id=aid, at=keep, weight=e.weight_at(keep), mult=m))
        if i != 1:
            keep_warrows.append(Warrow(id=fresh(f"~w{keep}|{far}"), value=i, doubles=aid))
        half = SpliceDiagram(keep_vertices, keep_edges, keep_farrows, keep_warrows)
        return SpliceHalf(half, keep, m, i, aid, aid)
    vid = fresh(f"~{keep}|{far}")
    keep_vertices.append(vid)
    keep_edges.append(Edge(keep, vid, e.weight_at(keep), 1))
    if i != 1:
        keep_warrows.append(Warrow(id=fresh(f"~w{keep}|{far}"), value=i, at=vid))
    half = SpliceDiagram(keep_vertices, keep_edges, keep_farrows, keep_warrows)
    return SpliceHalf(half, keep, 0, i, None, vid)


def _resolve_edge(d: SpliceDiagram, e) -> Edge:
    if isinstance(e, Edge):
        return d.edge(e.a, e.b)
    return d.edge(*e)


def splice(
    d: SpliceDiagram, e, f: PDivisor | None = None, w: PDivisor | None = None
) -> tuple[SpliceHalf, SpliceHalf]:
    """Split at a special edge; returns the decorated halves (left keeps e.a)."""
    d.require_standard()
    e = _resolve_edge(d, e)
    if not (d.is_node(e.a) and d.is_node(e.b)):
        raise DiagramError(f"edge {e.key} is not special")
    fm = f_of(d, f)
    wm = w_of(d, w)
    left = _half(d, e, e.a, fm, wm)
    right = _half(d, e, e.b, fm, wm)
    return left, right


def star_decomposition(
    d: SpliceDiagram, f: PDivisor | None = None, w: PDivisor | None = None
) -> dict[str, SpliceDiagram]:
    """Fully splice every special edge; one decorated star per node.

    Splicing order is deterministic (sorted edge keys); the result is
    order-independent and the property suite asserts that.
    """
    d.require_standard()
    work = [d.with_decorations(f_of(d, f), w_of(d, w))]
    stars: dict[str, SpliceDiagram] = {}
    while work:
        cur = work.pop()
        specials = sorted(cur.special_edges(), key=lambda x: x.key)
        if not specials:
            node_list = cur.nodes()
            if len(node_list) != 1:
                raise DiagramError("piece without a unique node")
            stars[node_list[0]] = cur
            continue
        left, right = splice(cur, specials[0])
        work.append(left.diagram)
        work.append(right.diagram)
    return stars


@dataclass
class SpliceCheck:
    edge: tuple[str, str]
    m_left: int
    i_left: int
    m_right: int
    i_right: int
    q: int
    degenerate: str | None
    zeta_identity: bool | None
    edge_lemma: bool | None
    dependency_statement: bool | None

    @property
    def ok(self) -> bool:
        return self.degenerate is None and all(
            x for x in (self.zeta_identity, self.edge_lemma, self.dependency_statement)
        )


def _form(a, b) -> tuple[Fraction, Fraction]:
    """The linear form a + s b."""
    return Fraction(a), Fraction(b)


def verify_splice_zeta(
    d: SpliceDiagram, e, f: PDivisor | None = None, w: PDivisor | None = None
) -> SpliceCheck:
    """Exact check of the zeta splice identity and the edge lemma at e."""
    d.require_standard()
    e = _resolve_edge(d, e)
    fm = f_of(d, f)
    wm = w_of(d, w)
    left, right = splice(d, e, fm, wm)
    q = edge_determinant(d, e)
    # conventions: the pair (i, M) decorates the left half, (i', M') the right
    m_l, i_l = left.m, left.i
    m_r, i_r = right.m, right.i
    if m_l == 0 and i_l == 0:
        return SpliceCheck(e.key, m_l, i_l, m_r, i_r, q, "left factor identically zero", None, None, None)
    if m_r == 0 and i_r == 0:
        return SpliceCheck(e.key, m_l, i_l, m_r, i_r, q, "right factor identically zero", None, None, None)
    z = zeta_splice(d, fm, wm)
    zl = zeta_splice(left.diagram)
    zr = zeta_splice(right.diagram)
    # both sides compared as C + principal parts, which is canonical (see
    # the ``zeta`` module docstring); corr is 1 / ((i + s M)(i' + s M'))
    ind_l, ind_r = _form(i_l, m_l), _form(i_r, m_r)
    corr = (Fraction(-1), (ind_l, ind_r))
    terms = [*summands(zl.node_terms, zl.edge_terms), *summands(zr.node_terms, zr.edge_terms)]
    identity = principal_parts(terms + [corr]) == (z.const, z.parts)
    data = node_data(d, fm, wm)
    nu_l, n_l = data[e.a]
    nu_r, n_r = data[e.b]
    node_l, node_r = _form(nu_l, n_l), _form(nu_r, n_r)
    lemma = principal_parts([(Fraction(q), (node_l, node_r))]) == principal_parts(
        [
            (Fraction(e.weight_at(e.a)), (node_l, ind_l)),
            (Fraction(e.weight_at(e.b)), (node_r, ind_r)),
            corr,
        ]
    )
    pairs = [(nu_l, n_l), (nu_r, n_r), (i_l, m_l), (i_r, m_r)]
    dets = [
        pairs[i][0] * pairs[j][1] - pairs[i][1] * pairs[j][0]
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    dependency = (not any(x == 0 for x in dets)) or all(x == 0 for x in dets)
    return SpliceCheck(e.key, m_l, i_l, m_r, i_r, q, None, identity, lemma, dependency)
