"""Divisor data on diagrams: multiplicity systems N_v and nu_v.

Two independent computation routes are provided.  On splice diagrams the
values come from linking-number products; on plumbing graphs they come from
exact linear algebra against the intersection form.  The two routes must agree
on unimodular graphs, and the test suite enforces that.

On a splice diagram N_v, nu_v, a cut's M and i and every linking product
are sums S(v) = sum of c_t l(v, t) over targets t, all read off one
rerooted pass, ``diagrams.linking_sums``.  With P_x the product of every
weight at x (edge ends and arrowheads), d_x(y) the weight at x towards y
and A_x = c_x P_x + the sum of c_a P_x / d_a over the arrowheads a at x,
the sum over y's side of the edge x-y, the edge excluded at y, is

    side(x, y) = (A_y + sum over z != x of (P_y / d_y(z)) side(y, z)) / d_y(x),

an exact division, and S(v) = A_v + sum over the neighbours n of
(P_v / d_v(n)) side(v, n).  The traversal the pass sweeps is kept on d,
and so are the sums of d's own F and W and of the canonical terms, each
computed on first use, so the zeta function, the monodromy and every cut
there are lookups; any other F or W is one pass of that vector, whatever
it serves: nu and N at the nodes, the leg values of the allowedness
check, and M and i at every cut of a splice.

One contract holds here and in ``zeta``, ``monodromy``, ``splicing``,
``allowed`` and ``realize``: a public function that takes a diagram or graph
runs ``diagrams.require_valid`` on it once, at its entry, then reads F once
through ``f_of`` (``effective_f`` where F must be nonzero) and W once
through ``w_of``, on both routes.  An F key must be an arrowhead id with
multiplicity >= 0, a W key, whatever its multiplicity, a vertex or arrowhead
id; anything else is refused with one ``DiagramError`` per case, and None
stands for the object's own F or W.  The checked d, F and W go to the cores
(``f_sums``, ``w_sums``, ``canonical_sums``, ``node_data``,
``solve_pullback``, ``solve_canonical`` and the ``*_core`` functions
above), which check nothing again.
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import (
    DiagramError, PlumbingGraph, SpliceDiagram, Sums, checked_f, linking_sums, require_valid,
)

# A P-divisor is a plain mapping: arrowhead id -> multiplicity for F,
# slot id -> multiplicity (= value - 1) for W.  Slots are boundary-vertex ids,
# node ids (dashed arrow drawn at the node) or farrow ids (doubling arrows).
PDivisor = dict


def f_of(x, f: PDivisor | None) -> dict[str, int]:
    """F as a fresh dict: the given one, or the object's own arrowheads;
    refused unless every key is an arrowhead id with multiplicity >= 0."""
    return checked_f(x, x.f_divisor() if f is None else dict(f))


def w_of(x, w: PDivisor | None) -> dict[str, int]:
    """W as a fresh dict: the given one, or the object's own dashed arrows;
    refused unless every key is a vertex or arrowhead id (``require_valid``
    has refused a splice diagram with a valency-2 vertex)."""
    wm = x.w_divisor() if w is None else dict(w)
    for slot in wm:
        if slot not in x._nbrs and slot not in x._farrow_by_id:
            raise DiagramError(f"W slot {slot!r} is not a vertex or arrowhead")
    return wm


def is_own(x, f: PDivisor | None, w: PDivisor | None = None) -> bool:
    """Whether F and W, None standing for the stored one, are the object's
    stored decorations.  Values at those are the ones kept in the object's
    ``memo``: any other F or W is computed afresh.  The stored maps are
    built once per object; with two dashed arrows on one slot there is no
    stored W."""
    if x._own is None:
        try:
            own_w = x.w_divisor()
        except DiagramError:  # two dashed arrows on one slot
            own_w = None
        x._own = x.f_divisor(), own_w
    own_f, own_w = x._own
    return (f is None or f == own_f) and (w is None or w == own_w)


def effective_f(x, f: PDivisor | None) -> dict[str, int]:
    """``f_of``, refused when F is zero."""
    fm = f_of(x, f)
    if not any(fm.values()):
        raise DiagramError("F must be effective and nonzero")
    return fm


def canonical_sums(d: SpliceDiagram) -> Sums:
    """The ``Sums`` of the canonical terms (see ``nu_values``): nu_v at
    W = 0 at every vertex, and each cut's i at W = 0 as its side; one pass
    kept on d."""
    return d.memo(("canonical sums",), _canonical_sums, d)


def _canonical_sums(d: SpliceDiagram) -> Sums:
    # 2 - delta_x at each vertex x, 1 at each arrowhead of weight >= 2
    canonical = {x: 2 - len(es) for x, es in d._adj.items()}
    for a in d.farrows:
        if a.weight >= 2:
            canonical[a.at] -= 1
            canonical[a.id] = 1
    return linking_sums(d, canonical)


def f_sums(d: SpliceDiagram, fm: dict[str, int]) -> Sums:
    """The ``Sums`` of an F already read through ``f_of``: N_v at every
    vertex, and M of the cut keeping k at the edge k-f as ``side(k, f)``.
    At d's own F one pass kept on d, shared and so only to be read."""
    return d.memo(("F sums",), linking_sums, d, fm) if is_own(d, fm) else linking_sums(d, fm)


def w_sums(d: SpliceDiagram, wm: dict[str, int]) -> Sums:
    """The ``Sums`` of a W already read through ``w_of``: the W part of
    nu_v at every vertex, and that of i at every cut as its side.  At d's
    own W one pass kept on d."""
    return d.memo(("W sums",), linking_sums, d, wm) if is_own(d, None, wm) else linking_sums(d, wm)


def vertex_multiplicities(d: SpliceDiagram, f: PDivisor | None = None) -> dict[str, int]:
    """N_v = sum over arrowheads of N_a * l_{va} at every vertex, in a dict of its own."""
    require_valid(d)
    return dict(f_sums(d, f_of(d, f)).at)


def nu_values(d: SpliceDiagram, w: PDivisor | None = None) -> dict[str, int]:
    """nu_v at every node: canonical-class part plus the W part.

    The canonical part sums (2 - delta_x) l_{vx} over the vertices of the
    arrow-stripped diagram: ordinary arrowheads with supporting weight > 1
    turn into boundary vertices (contributing l_{va} each), weight-1
    arrowheads vanish, and the dashed data is ignored.  The canonical part
    does not depend on W: it is kept on d, and each call adds its own W
    part.
    """
    require_valid(d)
    k, wa = canonical_sums(d).at, w_sums(d, w_of(d, w)).at
    return {v: k[v] + wa[v] for v in d.nodes()}


def node_data(d: SpliceDiagram, fm: dict[str, int], ws: Sums) -> dict[str, tuple[int, int]]:
    """(nu_v, N_v) for every node, at an F already read through ``f_of``
    and a W given by its ``w_sums``: nothing is checked again."""
    k, wa, n = canonical_sums(d).at, ws.at, f_sums(d, fm).at
    return {v: (k[v] + wa[v], n[v]) for v in d.nodes()}


# ---------------------------------------------------------------------------
# plumbing-level linear algebra


def pullback_plumbing(g: PlumbingGraph, arrows: PDivisor | None = None) -> dict[str, int | Fraction]:
    """Coefficients of the exceptional part of pi^*F: solve (pi^*F, E_i) = 0."""
    require_valid(g)
    return solve_pullback(g, f_of(g, arrows))


def solve_pullback(g: PlumbingGraph, fm: dict[str, int]) -> dict[str, int | Fraction]:
    """``pullback_plumbing`` for an F already read through ``f_of``."""
    rhs = dict.fromkeys(g._index, 0)
    for aid, mult in fm.items():
        rhs[g.farrow(aid).at] += mult
    return g.solve_minus_I(rhs)


def canonical_plumbing(g: PlumbingGraph, w: PDivisor | None = None) -> dict[str, int | Fraction]:
    """Coefficients of K_pi + pi^*W on the exceptional curves (the nu_v - 1).

    K is pinned by adjunction (K + E, E_i) = delta_i - 2 with genus 0, i.e.
    (K, E_i) = -e_i - 2; the W part solves (pi^*W, E_i) = 0 from the dashed
    arrowhead multiplicities.
    """
    require_valid(g)
    return solve_canonical(g, w_of(g, w))


def solve_canonical(g: PlumbingGraph, wm: dict[str, int]) -> dict[str, int | Fraction]:
    """``canonical_plumbing`` for a W already read through ``w_of``."""
    rhs = {v.id: v.self_int + 2 for v in g.vertices}
    for slot, mult in wm.items():
        rhs[slot if slot in rhs else g.farrow(slot).at] += mult
    return g.solve_minus_I(rhs)
