"""Divisor data on diagrams: multiplicity systems N_v and nu_v.

Two independent computation routes are provided.  On splice diagrams the
values come from linking-number products; on plumbing graphs they come from
exact linear algebra against the intersection form.  The two routes must agree
on unimodular graphs, and the test suite enforces that.

On a splice diagram N_v, nu_v and a cut's i are sums S(v) = sum of
c_t l(v, t) over targets t, all read off one rerooted pass,
``linking_sums``.  With P_x the product of every weight at x (edge ends
and arrowheads), d_x(y) the weight at x towards y and A_x = c_x P_x + the
sum of c_a P_x / d_a over the arrowheads a at x, the sum over y's side of
the edge x-y, the edge excluded at y, is

    side(x, y) = (A_y + sum over z != x of (P_y / d_y(z)) side(y, z)) / d_y(x),

an exact division, and S(v) = A_v + sum over the neighbours n of
(P_v / d_v(n)) side(v, n).  At d's own F and W one pass is kept on d
(``own_sums``), so the zeta function and the monodromy there read no
linking row.  At a searched W, as in ``realize``, nu_v is its value at
W = 0 plus mult_s l(v, s) over the nonzero slots, from the nodes' cached
linking rows: a few terms per candidate, not a pass.

Every F and W that a function here or above takes is read through ``f_of``
and ``w_of``, on both routes: an F key must be an arrowhead id with
multiplicity >= 0; a W key, whatever its multiplicity, a vertex or arrowhead
id and not a valency-2 vertex of a splice diagram.  Anything else is refused
with one ``DiagramError`` per case; None stands for the object's own F or W.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from .diagrams import DiagramError, PlumbingGraph, SpliceDiagram, checked_f, weight_products

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
    refused unless every key is a vertex or arrowhead id, and not a
    valency-2 vertex of a splice diagram."""
    wm = x.w_divisor() if w is None else dict(w)
    chains = x.chain_vertices() if isinstance(x, SpliceDiagram) else ()
    for slot in wm:
        if slot not in x._nbrs and slot not in x._farrow_by_id:
            raise DiagramError(f"W slot {slot!r} is not a vertex or arrowhead")
        if slot in chains:
            raise DiagramError(f"W slot {slot!r} is a valency-2 vertex")
    return wm


def is_own(x, f: PDivisor | None, w: PDivisor | None = None) -> bool:
    """Whether F and W, None standing for the stored one, are the object's
    stored decorations.  Values at those are the ones kept in the object's
    ``memo``: any other F or W is computed afresh."""
    if f is not None and f != x.f_divisor():
        return False
    if w is None:
        return True
    try:
        return w == x.w_divisor()
    except DiagramError:  # two dashed arrows on one slot: no stored W
        return False


def effective_f(x, f: PDivisor | None) -> dict[str, int]:
    """``f_of``, refused when F is zero."""
    fm = f_of(x, f)
    if not any(fm.values()):
        raise DiagramError("F must be effective and nonzero")
    return fm


def linking_sums(d: SpliceDiagram, vectors) -> list[tuple[dict[str, int], Callable[[str, str], int]]]:
    """For each map c (vertex or arrowhead id -> int) the sums S(v) at every
    vertex and ``side(v, n)`` across every edge v-n (see the module
    docstring), from one leaf-first and one root-first traversal.  Refuses
    a d that is empty, not a tree or has a zero weight."""
    prods = weight_products(d)
    if not d.is_tree() or not all(prods.values()):
        raise DiagramError("linking sums need a tree with nonzero weights")
    # search order, parents first; a link is (i, its parent j, P_i / d_i(j),
    # d_i(j), P_j / d_j(i), d_j(i))
    order, links = [d.vertices[0]], []
    index = {order[0]: 0}
    for j, x in enumerate(order):
        for e in d._adj[x]:
            y, wx, wy = (e.b, e.wa, e.wb) if e.a == x else (e.a, e.wb, e.wa)
            if y not in index:
                index[y] = len(order)
                links.append((len(order), j, prods[y] // wy, wy, prods[x] // wx, wx))
                order.append(y)
    out = []
    for c in vectors:
        acc = [0] * len(order)
        for t, ct in c.items():
            a = d._farrow_by_id.get(t)
            if a is None:
                acc[index[t]] += ct * prods[t]
            else:
                acc[index[a.at]] += ct * (prods[a.at] // a.weight)
        down = acc[:]  # side(j, i), leaves first
        for i, j, _, wi, fj, _ in reversed(links):
            down[i] = s = acc[i] // wi
            acc[j] += fj * s
        up = acc[:]  # side(i, j), root first: S(j) less i's term
        for i, j, fi, _, fj, wj in links:
            up[i] = s = (acc[j] - fj * down[i]) // wj
            acc[i] += fi * s

        def side(v: str, n: str, down=down, up=up) -> int:
            i, j = index[n], index[v]  # in search order a child comes after its parent
            return down[i] if i > j else up[j]

        out.append(({v: acc[index[v]] for v in d.vertices}, side))  # in the order of d's vertices
    return out


class OwnSums(NamedTuple):
    """At d's own F and W: N_v at every vertex, nu_v at W = 0 and (nu_v,
    N_v) at every node, and i0(v, n), the i at W = 0 of n's side of the
    edge v-n.  Kept on d and shared: only to be read."""

    n: dict[str, int]
    nu0: dict[str, int]
    data: dict[str, tuple[int, int]]
    i0: Callable[[str, str], int]


def own_sums(d: SpliceDiagram) -> OwnSums:
    """``OwnSums`` of d, from one ``linking_sums`` call kept on d."""
    return d.memo(("own sums",), _own_sums, d)


def _own_sums(d: SpliceDiagram) -> OwnSums:
    # the canonical terms (see nu_values): 2 - delta_x at each vertex x, 1
    # at each arrowhead of weight >= 2; the stored W by slot, read only
    # where is_own finds one dashed arrow per slot
    canonical = {x: 2 - len(es) for x, es in d._adj.items()}
    for a in d.farrows:
        if a.weight >= 2:
            canonical[a.at] -= 1
            canonical[a.id] = 1
    stored = {w.slot: w.value - 1 for w in d.warrows}
    (n, _), (nu0, i0), (wpart, _) = linking_sums(d, (d.f_divisor(), canonical, stored))
    nodes = d.nodes()
    return OwnSums(n, {v: nu0[v] for v in nodes}, {v: (nu0[v] + wpart[v], n[v]) for v in nodes}, i0)


def vertex_multiplicities(d: SpliceDiagram, f: PDivisor | None = None) -> dict[str, int]:
    """N_v = sum over arrowheads of N_a * l_{va} at every vertex, in a dict of its own."""
    return dict(multiplicities_at(d, f_of(d, f)))


def multiplicities_at(d: SpliceDiagram, fm: dict[str, int]) -> dict[str, int]:
    """N_v at every vertex, for an F already read through ``f_of``: at d's
    own F the dict kept on d, shared and so only to be read."""
    return own_sums(d).n if is_own(d, fm) else linking_sums(d, (fm,))[0][0]


def nu_values(d: SpliceDiagram, w: PDivisor | None = None) -> dict[str, int]:
    """nu_v at every node: canonical-class part plus the W part.

    The canonical part sums (2 - delta_x) l_{vx} over the vertices of the
    arrow-stripped diagram: ordinary arrowheads with supporting weight > 1
    turn into boundary vertices (contributing l_{va} each), weight-1
    arrowheads vanish, and the dashed data is ignored.  The canonical part
    does not depend on W: it is kept on d, and each call adds its own W
    part to a copy.
    """
    return _nu_values(d, w_of(d, w))


def _nu_values(d: SpliceDiagram, wm: dict[str, int]) -> dict[str, int]:
    """``nu_values`` for a W already read through ``w_of``."""
    out = dict(own_sums(d).nu0)
    terms = [(slot, mult) for slot, mult in wm.items() if mult]
    if terms:
        for v in out:
            row = d.linking_row(v)
            out[v] += sum(c * row[t] for t, c in terms)
    return out


def node_data(d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int]) -> dict[str, tuple[int, int]]:
    """(nu_v, N_v) for every node, at an F and a W already read through
    ``f_of`` and ``w_of``: neither is checked again.  At d's own F and W
    the dict kept on d, shared and so only to be read."""
    if is_own(d, fm, wm):
        return own_sums(d).data
    nu, nv = _nu_values(d, wm), multiplicities_at(d, fm)
    return {v: (nu[v], nv[v]) for v in nu}


# ---------------------------------------------------------------------------
# plumbing-level linear algebra


def pullback_plumbing(g: PlumbingGraph, arrows: PDivisor | None = None) -> dict[str, int | Fraction]:
    """Coefficients of the exceptional part of pi^*F: solve (pi^*F, E_i) = 0."""
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
    return solve_canonical(g, w_of(g, w))


def solve_canonical(g: PlumbingGraph, wm: dict[str, int]) -> dict[str, int | Fraction]:
    """``canonical_plumbing`` for a W already read through ``w_of``."""
    rhs = {v.id: v.self_int + 2 for v in g.vertices}
    for slot, mult in wm.items():
        rhs[slot if slot in rhs else g.farrow(slot).at] += mult
    return g.solve_minus_I(rhs)
