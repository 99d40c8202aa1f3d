"""Divisor data on diagrams: multiplicity systems N_v and nu_v.

Two independent computation routes are provided.  On splice diagrams the
values come from linking-number products; on plumbing graphs they come from
exact linear algebra against the intersection form.  The two routes must agree
on unimodular graphs, and the test suite enforces that.

Every F and W that a function here or above takes is read through ``f_of``
and ``w_of``, on both routes: an F key must be an arrowhead id with
multiplicity >= 0; a W key, whatever its multiplicity, a vertex or arrowhead
id and not a valency-2 vertex of a splice diagram.  Anything else is refused
with one ``DiagramError`` per case; None stands for the object's own F or W.
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import DiagramError, PlumbingGraph, SpliceDiagram, checked_f

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


def vertex_multiplicities(d: SpliceDiagram, f: PDivisor | None = None) -> dict[str, int]:
    """N_v = sum over arrowheads of N_a * l_{va}, for every vertex.

    Linking products are symmetric on a tree, so the row of the vertex that
    carries a, divided by a's own supporting weight (which that row counts
    and l_{va} does not), gives l_{va} for every v at once.  At the stored
    F the values are kept on d; each call gets a dict of its own."""
    if is_own(d, f):
        return dict(d.memo(("N",), _vertex_multiplicities, d, None))
    return _vertex_multiplicities(d, f)


def _vertex_multiplicities(d: SpliceDiagram, f: PDivisor | None) -> dict[str, int]:
    return _multiplicities(d, f_of(d, f), d.vertices)


def _multiplicities(d: SpliceDiagram, fm: dict[str, int], targets) -> dict[str, int]:
    """N_v at the targets, for an F already read through ``f_of``."""
    out = dict.fromkeys(targets, 0)
    for aid, mult in fm.items():
        if mult:
            a = d.farrow(aid)
            row = d.linking_row(a.at)
            for v in out:
                out[v] += mult * (row[v] // a.weight)
    return out


def nu_values(d: SpliceDiagram, w: PDivisor | None = None) -> dict[str, int]:
    """nu_v at every node: canonical-class part plus the W part.

    The canonical part sums (2 - delta_x) l_{vx} over the vertices of the
    arrow-stripped diagram: ordinary arrowheads with supporting weight > 1
    turn into boundary vertices (contributing l_{va} each), weight-1
    arrowheads vanish, and the dashed data is ignored.  So nu_v is one
    integer combination of the linking row of v, the same at every node.
    The canonical part does not depend on W: it is kept on d, and each
    call adds its own W part to a copy.
    """
    return _nu_values(d, w_of(d, w))


def _nu_values(d: SpliceDiagram, wm: dict[str, int]) -> dict[str, int]:
    """``nu_values`` for a W already read through ``w_of``."""
    out = dict(d.memo(("nu at W = 0",), _canonical_nu, d))
    terms = [(slot, mult) for slot, mult in wm.items() if mult]
    if terms:
        for v in out:
            row = d.linking_row(v)
            out[v] += sum(c * row[t] for t, c in terms)
    return out


def _canonical_nu(d: SpliceDiagram) -> dict[str, int]:
    return {v: canonical_part(d, d.linking_row(v)) for v in d.nodes()}


def canonical_part(d: SpliceDiagram, row: dict[str, int]) -> int:
    """The canonical part of nu (see ``nu_values``) summed over the targets
    a linking row reaches; its nonzero coefficients are kept on d."""
    terms = d.memo(("canonical terms",), _canonical_terms, d)
    return sum(c * row[t] for t, c in terms if t in row)


def _canonical_terms(d: SpliceDiagram) -> tuple[tuple[str, int], ...]:
    terms = [(x, c) for x in d.vertices if (c := 2 - d.delta(x))]
    return tuple(terms + [(a.id, 1) for a in d.farrows if a.weight >= 2])


def node_data(
    d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int]
) -> dict[str, tuple[int, int]]:
    """(nu_v, N_v) for every node, at an F and a W already read through
    ``f_of`` and ``w_of``: neither is checked again."""
    nu = _nu_values(d, wm)
    nv = _multiplicities(d, fm, nu)
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
