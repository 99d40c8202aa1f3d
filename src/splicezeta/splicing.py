"""Splicing decorated diagrams along special edges.

Splitting a diagram at a node-node edge hands each half a replacement for the
lost side: an ordinary arrowhead of multiplicity M (doubled by a dashed arrow
of value i) when the far side carried arrowheads, otherwise a boundary leg
whose vertex carries a dashed arrow of value i.  M collects far-side arrow
multiplicities against linking products; i collects the canonical-class and
dashed data of the far side the same way.

Cut at the edge k-f keeping k, M = sum N_a l(f, a) and i = i0 +
sum mult_s l(f, s) over f's side, the edge excluded at f: M is
``side(k, f)`` of F's linking sums and i - i0 that of W's
(``divisors.f_sums``, ``w_sums``).  ``root_cut`` keeps on a diagram, per
directed edge, what does not depend on F and W: the far side and i0.

The two routes differ in the diagram they cut.  ``splice`` reads the cuts
of the diagram it is given: that is the local route, used by the
``splice`` command and by ``verify_splice_zeta``.
``star_decomposition`` cuts every special edge in turn, so after the first
cut it cuts pieces made of earlier halves; it reads the cuts of the root
diagram d instead, never those of a piece.

Why d gives a piece's values (localization).  Let a piece P contain the edge
e = (k, f), cut keeping k, and let an earlier cut at e' = (k', f'), with k'
on f's side of e, have replaced the region R beyond e' by a new leaf x (no
arrowheads in R) or a new arrowhead x (arrowheads in R), of weight
d' = d_{k'e'} at k' and carrying that cut's M' and i'.  For a target t in R
the path from f to t runs through k' and e', so the linking product
factors: l_d(f, t) = l_P(f, x) * l_d(f', t), with e excluded at f and e' at
f'.  Up to k' the adjacent weights are the same in P and in d (x hangs on k'
with the weight e' had there, and its own supporting weight is on the
path); past e' the factor is the one M' and i' were summed with.  So R's
arrowheads add M' l_P(f, x) to M in d, just what x adds in P; and R's
canonical and dashed terms add i' l_P(f, x) to i in d, which is what x adds
in P: (2 - 1) + (i' - 1) times l_P(f, x) for a leaf, [d' >= 2] + (i' - 1)
times it for an arrowhead; a weight-1 arrowhead does not count in delta_k',
which adds the missing l_P(f, k') = l_P(f, x).  Targets outside the
replaced regions have equal linking products in P and in d, and a far side
carries arrowheads in P exactly when it does in d.  By induction over the
cuts, every cut of every piece has M = sum N_a l_d(f, a) over the far-side
arrowheads of d and i = i0 + sum mult_s l_d(f, s) over the nonzero W slots
there, with i0 the value at W = 0.

The same argument gives ``star_legs`` without cutting anything: the star of
a node v gets one leaf or arrowhead per special edge e at v, from the cut at
e keeping v, so an induced leg's value is that cut's i at W, and it is an
arrowhead exactly when that cut carries arrowheads.  The allowedness check
and the filters of ``realize`` read their legs there.

Why the names agree.  ``star_decomposition`` splits its pieces in the order
repeated ``splice`` calls would: the smallest special edge by key, depth
first, the half keeping e.b first.  Both build a half with the same list
operation ``_cut`` from equal inputs, so the minted ids (``~a...``,
``~...|...``, ``~w...``, and the ``~W.<slot>`` renames at each later cut)
and the order of every list are those of that recursion, which the test
suite keeps as its reference.  ``star_legs`` names an induced leaf ``~v|u``
as well, unless some id of d could make ``fresh`` prime it; then it reads
the names off the same recursion, run on lists (``_minted_leaves``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .diagrams import (
    DiagramError, Edge, Farrow, SpliceDiagram, Warrow, carries_arrowheads, edge_determinant,
    require_valid, slot_warrows,
)
from .divisors import (
    PDivisor, canonical_sums, effective_f, f_of, f_sums, is_own, node_data, w_of, w_sums,
)
from .zeta import principal_parts, summands, zeta_core


class RootCut(NamedTuple):
    """What a cut at e, keeping ``keep``, sees of the far side of d, whatever
    F and W are: its vertices and i at W = 0 (``i0``).  Whether it carries
    arrowheads is ``carries_arrowheads``."""

    far_side: frozenset[str]
    i0: int


def root_cut(d: SpliceDiagram, keep: str, e: Edge) -> RootCut:
    """The cut of d at e keeping ``keep``, cached on d."""
    return d.memo(("cut", keep, e.key), _root_cut, d, keep, e)


def _root_cut(d: SpliceDiagram, keep: str, e: Edge) -> RootCut:
    far = e.other(keep)
    far_side = frozenset(d.component_vertices(keep, far))
    return RootCut(far_side, canonical_sums(d).side(keep, far))


class Leg(NamedTuple):
    """One leg of a node's star: its weight d_l at the node, its W slot, for
    an induced leg the far endpoint f of the cut it stands for, and i_l at
    W = 0.  A boundary leg's slot is its vertex, with i_l = W(slot) + 1; an
    induced leg's is the leaf id ``_cut`` mints, with i_l the i of the cut
    at the edge v-f keeping the node v, i0 plus the side lookup of W."""

    weight: int
    slot: str
    far: str | None
    base: int


def star_legs(d: SpliceDiagram) -> dict[str, tuple[int, tuple[Leg, ...]]]:
    """Node -> (r, legs) of its star in ``star_decomposition``, cached on d.

    r counts the arrowheads at the node and the special edges there whose
    cut carries arrowheads.  The legs come in the star's edge order: the
    boundary edges in d's order, then the arrow-free special edges in key
    order, the order of their cuts.  A dashed arrow drawn at the node is
    left to the reader, as it depends on W."""
    return d.memo(("star legs",), _leg_table, d)


def _leg_table(d: SpliceDiagram) -> dict[str, tuple[int, tuple[Leg, ...]]]:
    table = {}
    names = _minted_leaves(d)
    for v in d.nodes():
        r = len(d.farrows_at(v))
        edges = d.edges_at(v)
        legs = [Leg(e.weight_at(v), e.other(v), None, 1) for e in edges if not d.is_node(e.other(v))]
        for e in sorted((e for e in edges if d.is_node(e.other(v))), key=lambda x: x.key):
            far = e.other(v)
            if carries_arrowheads(d, v, far):
                r += 1
            else:
                slot = names.get((v, e.key), f"~{v}|{far}")
                legs.append(Leg(e.weight_at(v), slot, far, canonical_sums(d).side(v, far)))
        table[v] = r, tuple(legs)
    return table


def _minted_leaves(d: SpliceDiagram) -> dict[tuple[str, tuple[str, str]], str]:
    """The induced leaf ids ``_cut`` mints, keyed by (v, edge key), where
    one may differ from ``~v|u``; otherwise {}.  ``fresh`` primes a minted
    id (``~`` and the two ids it joins) only when the piece already holds
    it, which needs some vertex or arrowhead id of d that starts with ``~``
    or holds a ``|``.  Then the split recursion runs on lists, at W = 0, and
    the names are read off it.  (Its dashed arrows, renamed ``~W.<slot>``
    and minted ``~w...``, follow W, so on a diagram whose own ids mimic
    those a name could still depend on W.)"""
    ids = [*d.vertices, *(a.id for a in d.farrows)]
    if not any(x.startswith("~") or "|" in x for x in ids):
        return {}
    minted: dict[tuple[str, tuple[str, str]], str] = {}
    for _ in _split(d, d.f_divisor(), {}, minted):
        pass
    return minted


def induced_value(d: SpliceDiagram, e: Edge, keep: str, wm: dict[str, int]) -> int:
    """i for the half keeping ``keep``: canonical contribution of the far side
    plus its dashed-arrow terms."""
    require_valid(d)
    return root_cut(d, keep, e).i0 + w_sums(d, w_of(d, wm)).side(keep, e.other(keep))


@dataclass
class SpliceHalf:
    diagram: SpliceDiagram
    kept_node: str
    m: int
    i: int
    new_farrow: str | None
    new_slot: str


# A piece of a diagram being cut up: its vertex, edge, farrow and warrow lists.
_Piece = tuple[list[str], list[Edge], list[Farrow], list[Warrow]]


def _cut(piece: _Piece, e: Edge, keep: str, side: set[str], wslots, m: int, i: int, arrows: bool):
    """The half of ``piece`` that keeps ``keep`` when it is cut at e.

    ``side`` holds the piece's vertices beyond e, ``wslots`` its W as (slot,
    multiplicity) pairs, and (M, i, arrows) the induced data of the far side:
    with far-side arrowheads the half gets an arrowhead of multiplicity M at
    ``keep``, otherwise a boundary leg; either carries a dashed arrow of value
    i unless i = 1.  Kept dashed arrows are renamed ``~W.<slot>``.  Returns
    (half, new slot)."""
    vertices, edges, farrows, _ = piece
    far = e.other(keep)
    keep_vertices = [v for v in vertices if v not in side]
    keep_edges = [x for x in edges if x.a not in side and x.key != e.key]
    keep_farrows = [a for a in farrows if a.at not in side]
    keep_vset = set(keep_vertices)
    keep_fids = {a.id for a in keep_farrows}
    keep_warrows = slot_warrows(
        [(s, mult) for s, mult in wslots if s in keep_fids or s in keep_vset], keep_fids
    )
    used = keep_vset | keep_fids | {x.id for x in keep_warrows}

    def fresh(stem: str) -> str:
        name = stem
        while name in used:
            name += "'"
        used.add(name)
        return name

    if arrows:
        slot = fresh(f"~a{keep}|{far}")
        keep_farrows.append(Farrow(id=slot, at=keep, weight=e.weight_at(keep), mult=m))
        if i != 1:
            keep_warrows.append(Warrow(id=fresh(f"~w{keep}|{far}"), value=i, doubles=slot))
    else:
        slot = fresh(f"~{keep}|{far}")
        keep_vertices.append(slot)
        keep_edges.append(Edge(keep, slot, e.weight_at(keep), 1))
        if i != 1:
            keep_warrows.append(Warrow(id=fresh(f"~w{keep}|{far}"), value=i, at=slot))
    return (keep_vertices, keep_edges, keep_farrows, keep_warrows), slot


def _half(d: SpliceDiagram, e: Edge, keep: str, fm, wm, m_side, w_side) -> SpliceHalf:
    """One half of ``splice``, M and i read off the side lookups of F and W."""
    cut = root_cut(d, keep, e)
    far = e.other(keep)
    m, i = m_side(keep, far), cut.i0 + w_side(keep, far)
    farrows = [
        Farrow(id=a.id, at=a.at, weight=a.weight, mult=fm.get(a.id, 0)) for a in d.farrows
    ]
    piece = (d.vertices, d.edges, farrows, d.warrows)
    arrows = carries_arrowheads(d, keep, far)
    half, slot = _cut(piece, e, keep, cut.far_side, wm.items(), m, i, arrows)
    return SpliceHalf(SpliceDiagram(*half), keep, m, i, slot if arrows else None, slot)


def splice(
    d: SpliceDiagram, e, f: PDivisor | None = None, w: PDivisor | None = None
) -> tuple[SpliceHalf, SpliceHalf]:
    """Split at a special edge; returns the decorated halves (left keeps e.a).

    M and i are read off the cuts of d itself, so this is the local route
    that ``star_decomposition``'s whole-diagram route is checked against."""
    require_valid(d)
    return splice_core(d, e, f_of(d, f), w_of(d, w))


def splice_core(
    d: SpliceDiagram, e, fm: dict[str, int], wm: dict[str, int]
) -> tuple[SpliceHalf, SpliceHalf]:
    """``splice`` for a checked d, F and W: only the edge, (a, b) or an
    Edge, is checked.  The halves of a valid d are valid (the tests check it)."""
    e = d.edge(e.a, e.b) if isinstance(e, Edge) else d.edge(*e)
    if not (d.is_node(e.a) and d.is_node(e.b)):
        raise DiagramError(f"edge {e.key} is not special")
    sides = f_sums(d, fm).side, w_sums(d, wm).side
    return _half(d, e, e.a, fm, wm, *sides), _half(d, e, e.b, fm, wm, *sides)


def star_decomposition(
    d: SpliceDiagram, f: PDivisor | None = None, w: PDivisor | None = None
) -> dict[str, SpliceDiagram]:
    """Fully splice every special edge; one decorated star per node.

    The pieces are split at their smallest special edge (by key), depth
    first, right half first, exactly as repeated ``splice`` calls would, so
    the minted ids and the order of the stars are those of that recursion.
    Each cut reads M and i off d's cached ``root_cut`` (see the module
    docstring); a ``SpliceDiagram`` is built only for the stars, so a
    diagram with one node is rebuilt with F and W as its one star.  The
    stars at d's own F and W = 0, which ``realize`` reads, are kept on d;
    each call gets a dict of its own."""
    require_valid(d)
    return stars_core(d, f_of(d, f), w_of(d, w))


def stars_core(d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int]) -> dict[str, SpliceDiagram]:
    """``star_decomposition`` for a checked d, F and W."""
    if is_own(d, fm) and not any(wm.values()):
        return dict(d.memo(("stars at W = 0",), _stars, d, fm, {}))
    return _stars(d, fm, wm)


def _stars(d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int]) -> dict[str, SpliceDiagram]:
    stars: dict[str, SpliceDiagram] = {}
    for piece in _split(d, fm, wm):
        star = SpliceDiagram(*piece)
        node_list = star.nodes()
        if len(node_list) != 1:
            raise DiagramError("piece without a unique node")
        stars[node_list[0]] = star
    return stars


def _split(d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int], minted: dict | None = None):
    """The final pieces of ``star_decomposition``'s recursion, as lists, in
    its order.  ``minted``, when given, gets the leaf id minted at each cut
    whose far side has no arrowheads, keyed by (kept node, edge key)."""
    specials = sorted(d.special_edges(), key=lambda x: x.key)
    m_side, w_side = f_sums(d, fm).side, w_sums(d, wm).side
    # a work item is a piece and the kept node of every vertex minted in it
    work = [(d.decorated_lists(fm, wm), {})]
    while work:
        piece, home = work.pop()
        vertices = piece[0]
        own = {v for v in vertices if v not in home}
        e = next((x for x in specials if x.a in own and x.b in own), None)
        if e is None:
            yield piece
            continue
        wslots = [(x.slot, x.value - 1) for x in piece[3]]
        for keep in (e.a, e.b):
            cut = root_cut(d, keep, e)
            side = {v for v in vertices if home.get(v, v) in cut.far_side}
            far = e.other(keep)
            m, i = m_side(keep, far), cut.i0 + w_side(keep, far)
            arrows = carries_arrowheads(d, keep, far)
            half, slot = _cut(piece, e, keep, side, wslots, m, i, arrows)
            kept_home = {v: h for v, h in home.items() if v not in side}
            if not arrows:
                kept_home[slot] = keep
                if minted is not None:
                    minted[keep, e.key] = slot
            work.append((half, kept_home))


@dataclass
class SpliceCheck:
    """The verdicts at edge ``edge``, with the halves ``splice`` gives there."""

    edge: tuple[str, str]
    left: SpliceHalf
    right: SpliceHalf
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


def verify_splice_zeta(
    d: SpliceDiagram, e, f: PDivisor | None = None, w: PDivisor | None = None
) -> SpliceCheck:
    """Exact check of the zeta splice identity and the edge lemma at e;
    F must be nonzero, as the zeta functions need it."""
    require_valid(d)
    fm, wm = effective_f(d, f), w_of(d, w)
    left, right = splice_core(d, e, fm, wm)
    e = d.edge(left.kept_node, right.kept_node)
    q = edge_determinant(d, e)
    # conventions: the pair (i, M) decorates the left half, (i', M') the right
    m_l, i_l = left.m, left.i
    m_r, i_r = right.m, right.i
    if m_l == 0 and i_l == 0:
        return SpliceCheck(e.key, left, right, q, "left factor identically zero", None, None, None)
    if m_r == 0 and i_r == 0:
        return SpliceCheck(e.key, left, right, q, "right factor identically zero", None, None, None)
    ws = w_sums(d, wm)
    z = zeta_core(d, fm, wm, ws)
    # the halves at their own F and W, valid and with F nonzero as d's is
    zl, zr = (
        zeta_core(h, h.f_divisor(), h.w_divisor(), w_sums(h, h.w_divisor()))
        for h in (left.diagram, right.diagram)
    )
    # both sides compared as C + principal parts, which is canonical (see
    # the ``zeta`` module docstring); corr is 1 / ((i + s M)(i' + s M')),
    # each linear form a + s b as the int pair (a, b)
    ind_l, ind_r = (i_l, m_l), (i_r, m_r)
    corr = (-1, (ind_l, ind_r))
    terms = [*summands(zl.node_terms, zl.edge_terms), *summands(zr.node_terms, zr.edge_terms)]
    identity = principal_parts(terms + [corr]) == (z.const, z.parts)
    data = node_data(d, fm, ws)
    node_l, node_r = data[e.a], data[e.b]
    lemma = principal_parts([(q, (node_l, node_r))]) == principal_parts(
        [(e.weight_at(e.a), (node_l, ind_l)), (e.weight_at(e.b), (node_r, ind_r)), corr]
    )
    pairs = [node_l, node_r, ind_l, ind_r]
    dets = [
        pairs[i][0] * pairs[j][1] - pairs[i][1] * pairs[j][0]
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    dependency = (not any(x == 0 for x in dets)) or all(x == 0 for x in dets)
    return SpliceCheck(e.key, left, right, q, None, identity, lemma, dependency)
