"""Topological zeta functions, from splice diagrams and from plumbing graphs.

The splice route implements the node/edge sum over the decorated diagram; the
plumbing route implements the stratified Euler-characteristic sum over a
resolution, which also covers non-unimodular (rational-multiplicity) graphs.
Both keep their term list, so per-node contributions stay addressable for
residue queries, and both sum it with ``ZetaResult.from_terms``.  The term
entries are the ints the routes hold (kv + 1, N, i, multiplicities, chi,
edge determinants); a ``Fraction`` appears only where a value is not
integral, as on non-unimodular graphs or in the d/i constants.

Every denominator in the sum is a product of at most two linear forms
nu + s N, so every candidate pole -nu/N is known before anything is added.
``principal_parts`` writes each term as c / prod(s - r), where a form with
N = 0 is a nonzero scalar folded into c, and splits the terms with two
distinct roots into partial fractions: c / ((s - r1)(s - r2)) is
(c / (r1 - r2)) (1 / (s - r1) - 1 / (s - r2)).  Summing the coefficients
gives the whole function as

    Z(s) = C + sum over r of a1_r / (s - r) + a2_r / (s - r)^2,

and the roots whose a1_r and a2_r both vanish are dropped (that is where the
residues cancel).  ``ZetaResult`` keeps this form: the constant C and the
parts {r: (a1_r, a2_r)}.  The sums run in integers: each root is keyed by
its reduced numerator and denominator, each coefficient is an integer
numerator over an integer denominator, and each ``Fraction`` is built once
at the end, so the values are the ones a ``Fraction`` sum gives.

The form is unique.  If two such sums are equal as functions, their
difference C + sum b1_r / (s - r) + b2_r / (s - r)^2 is 0; multiplied by
(s - r)^2 and evaluated at s = r it gives b2_r = 0, then multiplied by
(s - r) it gives b1_r = 0, at every r in turn, and what is left is C = 0.
So two functions whose denominators split over Q into factors of order at
most 2 are equal exactly when their (C, parts) are, the same canonicity the
reduced num/den has.  This is the one form the package computes with:
``splicing.verify_splice_zeta`` and the ``selfcheck`` goldens compare
(C, parts), each side summed through ``principal_parts``.

Every kept root r is a pole of order o_r = 2 if a2_r != 0 and 1 otherwise.
The denominator D = prod (s - r)^o_r is monic.  ``reduced_coefficients``
builds the numerator C D + sum of a_k,r D / (s - r)^k over one integer
denominator: with r = p/q in lowest terms it forms the integer polynomial
D' = prod (q s - p)^o_r = lead(D') D, takes each cofactor D' / (q s - p)^k
by exact integer synthetic division (q s - p is primitive, so the quotient
is integral by Gauss's lemma), and sums L (C D' + sum of a_k,r q^k
D' / (q s - p)^k), where L is the lcm of the denominators of C and of every
a_k,r.  It returns these integer coefficients with their denominators,
L lead(D') and lead(D'); the CLI prints each ratio reduced.  At each pole
r the numerator takes the value a_o_r,r times the product of the
(r - r')^o_r' over the other poles r', which is not 0.  So the fraction is reduced.  A reduced rational function
with a monic denominator is unique, so the result is exactly the reduced
num/den that adding the terms one at a time, with a polynomial gcd after
every addition, gives; no polynomial gcd is computed.  That term-by-term
sum, in ``exact.RatFunc``s, is the tests' oracle: this equality and the
one below are what the tests check against it.

A diagram or graph keeps its zeta function at its own F and W in its
``memo``, so the commands on one object sum it once; other F and W, such as
the candidates ``realize`` certifies, are summed afresh.  What the splice
route's sum needs of the diagram alone is kept on it as a plan, whatever F
and W are: each node's boundary legs, arrowheads and 2 - valency_f, and
each special edge's ends and determinant.  A sum fills in only nu, N and
i (``divisors.node_data``: the linking sums kept on d, one pass of any
other W), and adds each node constant as one integer num/den.  So a
``ZetaResult`` is read-only: a NamedTuple, with tuples of terms and a
read-only view of the parts.

The poles are read off the parts, with no root search.  The oracle's
``RatFunc.poles`` returns, at a root r of order o of the reduced den,
num(r) / g(r) with g = den / (s - r)^o.  Near r, num / g = (s - r)^o Z(s),
which is (s - r)^o (C + sum over r' != r of the parts at r')
+ a1_r (s - r)^(o - 1) + a2_r (s - r)^(o - 2).  The other parts are regular
at r, so at s = r this is a2_r when o = 2 and a1_r when o = 1 (where
a2_r = 0).  The roots and orders are the same on both sides, as shown
above, so ``ZetaResult.poles`` gives exactly the list the oracle's
``poles()`` gives.

``pole_at`` answers the question ``realize`` certifies, the least pole r
with exp(2 pi i r) = lam, without summing the whole function.  Two facts
make that exact.  First, (a1_r, a2_r) depend only on the terms with a
factor that vanishes at r: the partial-fraction split above adds a
principal part at r only for a root r of one of the term's forms, and a
term regular at r adds nothing there.  A term with one vanishing factor
b (s - r) and a partner form a' + s b' (or none) adds c / (b (a' + r b'))
to a1_r, and one whose two factors both vanish adds c / (b b') to a2_r.
Second, which roots map to lam is an integer test on each form a + s N,
N != 0, whose root is r = -a/N.  Write lam = exp(2 pi i p/q) with p/q in
lowest terms.  exp(2 pi i r) = lam holds exactly when -a/N - p/q is an
integer m, that is when -a q - p N = m q N.  Modulo q that forces q | p N,
hence q | N since gcd(p, q) = 1; so when q does not divide N no a passes,
and ``target_residue`` returns None.  When q | N, dividing by q leaves
-a - p (N/q) = m N, that is a = -p (N/q) = u (mod N), u =
``target_residue(lam, N)``, and each such a gives back an integer m.  So
the test is ``UnityRoot.from_exponent(r) == lam`` read off the integers,
and every root that passes it is P/q with P = -a q / N an integer and
gcd(P, q) = 1 (as r - p/q is an integer), so the roots that pass are
ordered by P alone.  ``pole_at`` tests every node and arrowhead form
(an edge term's forms are node forms, and a dashed arrow's N is 0), so it
sees every root a pole can sit at; it returns None when none passes, and otherwise sums, root by root in
ascending order and in integers, the terms vanishing there (``_parts_at``),
returning at the first root whose part is nonzero: exactly the first pole
of ``poles()`` that maps to lam.  ``ZetaResult.residue_contribution`` sums
one node's terms at a root through the same ``_parts_at``.  ``realize``
compiles its lambda congruences from ``target_residue`` too.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from .diagrams import DiagramError, PlumbingGraph, SpliceDiagram, Sums, edge_determinants, require_valid
from .divisors import (
    PDivisor,
    effective_f,
    is_own,
    node_data,
    solve_canonical,
    solve_pullback,
    w_of,
    w_sums,
)
from .exact import Pole, UnityRoot


class ArrowPart(NamedTuple):
    """d / (i + s N) inside a node bracket."""

    weight: int
    i: int | Fraction
    n: int | Fraction


class NodeTerm(NamedTuple):
    """(1/(nu + s N)) * (const + sum of arrow parts)."""

    vertex: str
    nu: int | Fraction
    n: int | Fraction
    const: int | Fraction
    arrows: tuple[ArrowPart, ...]


class EdgeTerm(NamedTuple):
    """q / ((nu + s N)(nu' + s N'))."""

    vertices: tuple[str, str]
    q: int | Fraction
    nu1: int | Fraction
    n1: int | Fraction
    nu2: int | Fraction
    n2: int | Fraction


class ZetaResult(NamedTuple):
    """Z(s) as C + its principal parts {r: (a1_r, a2_r)} (see the module
    docstring), with the node and edge terms it was summed from."""

    const: Fraction
    parts: Mapping[Fraction, tuple[Fraction, Fraction]]
    node_terms: tuple[NodeTerm, ...]
    edge_terms: tuple[EdgeTerm, ...]

    @classmethod
    def from_terms(cls, node_terms, edge_terms) -> "ZetaResult":
        """Sum of the terms; a linear form with nu = N = 0 raises ZeroDivisionError."""
        const, parts = principal_parts(summands(node_terms, edge_terms))
        return cls(const, MappingProxyType(parts), tuple(node_terms), tuple(edge_terms))

    def poles(self) -> list[Pole]:
        """Every pole with its order and leading Laurent coefficient, sorted."""
        return [
            Pole(r, 2, a2) if a2 else Pole(r, 1, a1)
            for r, (a1, a2) in sorted(self.parts.items())
        ]

    def residue_contribution(self, vertex: str, s0: Fraction) -> Fraction:
        """Contribution of one node to the residue at a simple candidate s0.

        Sums the node term and the incident edge terms, each at its
        (nu + s N) factor, which must vanish at s0; a partner factor that
        vanishes there too raises DiagramError."""
        s0 = Fraction(s0)
        p, q = s0.numerator, s0.denominator
        node = [t for t in self.node_terms if t.vertex == vertex]
        if any(t.nu + s0 * t.n for t in node):
            return Fraction(0)
        edges = [e for e in self.edge_terms if vertex in e.vertices]
        terms = [_integral(c, forms) for c, forms in summands(node, edges)]
        if any(len(forms) == 2 and not any(a * q + b * p for a, b in forms) for *_, forms in terms):
            raise DiagramError(f"order-2 interaction at s0={s0}; no simple residue contribution")
        n1, d1, _, _ = _parts_at(terms, p, q)
        return Fraction(n1, d1)


def _integral(c, forms) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """The term c / prod(a + s b) as (n, d, forms) with integer forms: each
    form times the lcm m of its denominators, and c times every m."""
    n, d = c.numerator, c.denominator
    out = []
    for a, b in forms:
        m = lcm(a.denominator, b.denominator)
        out.append((a.numerator * (m // a.denominator), b.numerator * (m // b.denominator)))
        n *= m
    return n, d, tuple(out)


def summands(node_terms, edge_terms):
    """Every term as (c, forms): c / prod(a + s b) over the linear forms (a, b)."""
    for t in node_terms:
        lin = (t.nu, t.n)
        yield t.const, (lin,)
        for p in t.arrows:
            yield p.weight, (lin, (p.i, p.n))
    for e in edge_terms:
        yield e.q, ((e.nu1, e.n1), (e.nu2, e.n2))


def _times_root(poly: list[int], p: int, q: int) -> list[int]:
    """Ascending coefficients of poly(s) * (q s - p)."""
    out = [0] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] += q * c
        out[i] -= p * c
    return out


def _divide_root(poly: list[int], p: int, q: int) -> list[int]:
    """poly(s) / (q s - p) for a root p/q of the integer polynomial poly.
    With gcd(p, q) = 1 the factor is primitive, so the quotient is integral
    (Gauss's lemma) and every step divides exactly."""
    quo = [0] * (len(poly) - 1)
    acc = 0
    for i in range(len(poly) - 1, 0, -1):
        acc = (poly[i] + p * acc) // q
        quo[i - 1] = acc
    return quo


def principal_parts(terms) -> tuple[Fraction, dict[Fraction, tuple[Fraction, Fraction]]]:
    """C and {r: (a1_r, a2_r)} of the sum of the (c, forms) terms, each
    c / prod(a + s b) over at most two linear forms (a, b) with int or
    Fraction entries; roots whose parts both vanish are dropped.  A form
    with a = b = 0 raises ZeroDivisionError.  Summed in integers (see the
    module docstring), with the roots in the order they first occur."""
    const = [0, 1]
    # (p, q) -> [n1, d1, n2, d2]: the principal part (n1/d1) / (s - p/q)
    # + (n2/d2) / (s - p/q)^2
    parts: dict[tuple[int, int], list[int]] = {}
    for c, forms in terms:
        n, d = c.numerator, c.denominator
        roots = []
        for a, b in forms:
            if b:
                # c / b, and the root -a / b in lowest terms with q > 0
                n, d = n * b.denominator, d * b.numerator
                p, q = -a.numerator * b.denominator, a.denominator * b.numerator
                g = gcd(p, q) if q > 0 else -gcd(p, q)
                roots.append((p // g, q // g))
            elif a:
                n, d = n * a.denominator, d * a.numerator
            else:
                raise ZeroDivisionError("linear form with a = b = 0")
        if not roots:
            _add_to(const, 0, n, d)
        elif len(roots) == 1 or roots[0] == roots[1]:
            _add_to(parts.setdefault(roots[0], [0, 1, 0, 1]), 2 * len(roots) - 2, n, d)
        else:
            # c / (r1 - r2), with r1 - r2 = (p1 q2 - p2 q1) / (q1 q2)
            (p1, q1), (p2, q2) = roots
            n, d = n * q1 * q2, d * (p1 * q2 - p2 * q1)
            _add_to(parts.setdefault(roots[0], [0, 1, 0, 1]), 0, n, d)
            _add_to(parts.setdefault(roots[1], [0, 1, 0, 1]), 0, -n, d)
    return Fraction(*const), {
        Fraction(*r): (Fraction(n1, d1), Fraction(n2, d2))
        for r, (n1, d1, n2, d2) in parts.items()
        if n1 or n2
    }


def _add_to(acc: list[int], k: int, n: int, d: int):
    """acc[k] / acc[k + 1] += n / d, over the lcm of the two denominators."""
    if d < 0:
        n, d = -n, -d
    dk = acc[k + 1]
    if dk == d:
        acc[k] += n
    else:
        g = gcd(dk, d)
        acc[k] = acc[k] * (d // g) + n * (dk // g)
        acc[k + 1] = dk // g * d


def reduced_coefficients(
    const: Fraction, parts: Mapping[Fraction, tuple[Fraction, Fraction]]
) -> tuple[list[int], int, list[int], int]:
    """C + sum of the principal parts as (num, num_den, den, den_den): the
    reduced num/den's coefficients, ascending in s, are num[k] / num_den
    and den[k] / den_den, all integers with num_den, den_den > 0 (see the
    module docstring).  num is [] when the sum is 0, over den = [1]."""
    den = [1]
    for r, (_, a2) in parts.items():
        den = _times_root(den, r.numerator, r.denominator)
        if a2:
            den = _times_root(den, r.numerator, r.denominator)
    scale = lcm(const.denominator, *(a.denominator for pair in parts.values() for a in pair))
    c = const.numerator * (scale // const.denominator)
    num = [c * x for x in den]
    for r, (a1, a2) in parts.items():
        p, q = r.numerator, r.denominator
        cof = _divide_root(den, p, q)
        c = a1.numerator * (scale // a1.denominator) * q
        for i, x in enumerate(cof):
            num[i] += c * x
        if a2:
            c = a2.numerator * (scale // a2.denominator) * q * q
            for i, x in enumerate(_divide_root(cof, p, q)):
                num[i] += c * x
    while num and not num[-1]:
        num.pop()
    if not num:
        return [], 1, [1], 1
    lead = den[-1]
    return num, scale * lead, den, lead


def _require_nonzero_pair(nu, n, kind: str, name: str):
    if nu == 0 and n == 0:
        raise DiagramError(f"(nu, N) = (0, 0) at {kind} {name}")


def zeta_splice(
    d: SpliceDiagram, f: PDivisor | None = None, w: PDivisor | None = None
) -> ZetaResult:
    """Z(Gamma; s) of the decorated diagram, with the per-node term list;
    at d's own F and W, kept on d.  At any F and W it reads the plan kept
    on d (see the module docstring)."""
    require_valid(d)
    fm, wm = effective_f(d, f), w_of(d, w)
    return zeta_core(d, fm, wm, w_sums(d, wm))


def zeta_core(d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int], ws: Sums) -> ZetaResult:
    """``zeta_splice`` for a checked d, F and W, and W's ``w_sums``; at d's
    own F and W, kept on d."""
    if is_own(d, fm, wm):
        return d.memo(("zeta",), _zeta_splice, d, fm, wm, ws)
    return _zeta_splice(d, fm, wm, ws)


def _zeta_plan(d: SpliceDiagram) -> tuple[tuple, tuple]:
    """What the splice sum needs of d, whatever F and W are: each node as
    (v, its boundary legs as (d_vw, w), its arrowheads as (id, weight),
    2 - valency_f), and each special edge as (a, b, q_e)."""
    nodes = tuple(
        (
            v,
            tuple((e.weight_at(v), e.other(v)) for e in d.edges_at(v) if not d.is_node(e.other(v))),
            tuple((a.id, a.weight) for a in d.farrows_at(v)),
            2 - d.valency_f(v),
        )
        for v in d.nodes()
    )
    specials = zip(d.special_edges(), edge_determinants(d))
    return nodes, tuple((e.a, e.b, q) for e, q in specials)


def _rows_at(d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int], ws: Sums):
    """The splice sum's integers at checked F and W (as ``zeta_core``
    takes them): each node as (v, (nu_v, N_v), its legs as (d_vw, i_w), its
    arrow parts as (weight, (i, N)), chi), with a dashed arrow drawn at the
    node as the last arrow part, weight 1 and N = 0, counted out of chi; and
    each special edge as (a, b, q_e).  Also the (nu_v, N_v) of every node.
    Refuses (nu, N) = (0, 0) at an arrowhead, and i = 0 at a boundary vertex
    or a node's dashed arrow; N_v > 0 at every node, as F is nonzero and
    every linking product positive."""
    data = node_data(d, fm, ws)
    nodes, specials = d.memo(("zeta plan",), _zeta_plan, d)
    rows = []
    for v, legs, farrows, chi in nodes:
        form = data[v]
        leg_values = []
        for weight, u in legs:
            i_w = wm.get(u, 0) + 1
            if i_w == 0:
                raise DiagramError(f"boundary vertex {u!r} carries i = 0")
            leg_values.append((weight, i_w))
        arrows = []
        for aid, weight in farrows:
            arrow = (wm.get(aid, 0) + 1, fm.get(aid, 0))
            _require_nonzero_pair(*arrow, "arrowhead", aid)
            arrows.append((weight, arrow))
        if wm.get(v, 0):
            i_a = wm[v] + 1
            if i_a == 0:
                raise DiagramError(f"dashed arrow at node {v!r} with i = 0")
            arrows.append((1, (i_a, 0)))
            chi -= 1
        rows.append((v, form, leg_values, arrows, chi))
    return rows, specials, data


def _node_const(legs, chi: int) -> tuple[int, int]:
    """A node's constant chi + sum of d_vw / i_w as num / den."""
    num, den = 0, 1
    for weight, i_w in legs:
        num, den = num * i_w + weight * den, den * i_w
    return num + chi * den, den


def _zeta_splice(d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int], ws: Sums) -> ZetaResult:
    rows, specials, data = _rows_at(d, fm, wm, ws)
    node_terms: list[NodeTerm] = []
    for v, form, legs, arrows, chi in rows:
        num, den = _node_const(legs, chi)
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        const = num // g if den == g else Fraction(num // g, den // g)  # an int where integral
        parts = tuple(ArrowPart(weight, *arrow) for weight, arrow in arrows)
        node_terms.append(NodeTerm(v, *form, const, parts))
    edge_terms = [EdgeTerm((a, b), q, *data[a], *data[b]) for a, b, q in specials]
    return ZetaResult.from_terms(node_terms, edge_terms)


def target_residue(lam: UnityRoot, modulus: int) -> int | None:
    """u with exp(-2 pi i u/modulus) = lam, or None when ord(lam)∤modulus."""
    frac = lam.frac  # p/q, read once: UnityRoot's p and q are properties
    if modulus % frac.denominator:
        return None
    return (-frac.numerator * (modulus // frac.denominator)) % modulus


def _hit_numerator(a: int, n: int, lam: UnityRoot) -> int | None:
    """P with -a/n = P/q, q = ord(lam), when exp(-2 pi i a/n) = lam; else
    None, as at n = 0 (see the module docstring)."""
    if n:
        u = target_residue(lam, n)
        if u is not None and (a - u) % n == 0:
            return -a * lam.q // n
    return None


def _parts_at(terms, p: int, q: int) -> list[int]:
    """[n1, d1, n2, d2]: the principal part (n1/d1) / (s - r) + (n2/d2) /
    (s - r)^2 at r = p/q of the sum of the terms (n, d, forms), each
    (n/d) / prod(a + s b) over at most two integer forms (a, b).  A term
    contributes only when one of its forms vanishes at r (see the module
    docstring)."""
    acc = [0, 1, 0, 1]
    for n, d, forms in terms:
        k = 0
        for a, b in forms:
            v = a * q + b * p
            if v:
                # a + r b = v / q
                n, d = n * q, d * v
            else:
                d *= b
                k += 2
        if k:
            _add_to(acc, k - 2, n, d)
    return acc


def pole_at(
    d: SpliceDiagram, fm: PDivisor | None, w: PDivisor | None, lam: UnityRoot
) -> Pole | None:
    """The least pole r of Z(d, F, W; s) with exp(2 pi i r) = lam, with its
    order and leading coefficient, or None: the first pole of
    ``zeta_splice(d, fm, w).poles()`` that maps to lam, raising where
    ``zeta_splice`` raises.  Only the terms that vanish at a root mapping to
    lam are summed (see the module docstring)."""
    require_valid(d)
    fm, wm = effective_f(d, fm), w_of(d, w)
    return pole_core(d, fm, wm, w_sums(d, wm), lam)


def pole_core(
    d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int], ws: Sums, lam: UnityRoot
) -> Pole | None:
    """``pole_at`` for a checked d, F and W, and W's ``w_sums``."""
    rows, specials, data = _rows_at(d, fm, wm, ws)
    hits = set()
    for _, (nu_v, n_v), _, arrows, _ in rows:
        hits.add(_hit_numerator(nu_v, n_v, lam))
        for _, (i, n) in arrows:
            hits.add(_hit_numerator(i, n, lam))
    hits.discard(None)
    if not hits:
        return None
    q = lam.q
    terms = [
        (weight, 1, (form, arrow)) for _, form, _, arrows, _ in rows for weight, arrow in arrows
    ]
    terms += [(qe, 1, (data[a], data[b])) for a, b, qe in specials]
    for p in sorted(hits):
        consts = [
            (*_node_const(legs, chi), (form,))
            for _, form, legs, _, chi in rows
            if form[0] * q + form[1] * p == 0
        ]
        n1, d1, n2, d2 = _parts_at(consts + terms, p, q)
        if n2:
            return Pole(Fraction(p, q), 2, Fraction(n2, d2))
        if n1:
            return Pole(Fraction(p, q), 1, Fraction(n1, d1))
    return None


def zeta_plumbing(
    g: PlumbingGraph, f: PDivisor | None = None, w: PDivisor | None = None
) -> ZetaResult:
    """Z(F, W; s) from a resolution graph via the stratified Euler sum.

    Works in general (non-unimodular negative-definite) mode, where the
    nu_v and N_v may be rational.  At g's own F and W, kept on g.
    """
    require_valid(g)
    fm, wm = effective_f(g, f), w_of(g, w)
    if is_own(g, fm, wm):
        return g.memo(("zeta",), _zeta_plumbing, g, fm, wm)
    return _zeta_plumbing(g, fm, wm)


def _zeta_plumbing(g: PlumbingGraph, fm: dict[str, int], wm: dict[str, int]) -> ZetaResult:
    nv = solve_pullback(g, fm)
    kv = solve_canonical(g, wm)
    # strict transforms at each vertex: (weight-like count, i, N); N_v > 0,
    # as F is nonzero and -I(G) of a connected definite graph has a positive inverse
    node_terms: list[NodeTerm] = []
    edge_terms: list[EdgeTerm] = []
    for v in g.vertices:
        nu_v = kv[v.id] + 1
        n_v = nv[v.id]
        transforms: list[ArrowPart] = []
        for a in g.farrows_at(v.id):
            i_a = wm.get(a.id, 0) + 1
            n_a = fm.get(a.id, 0)
            _require_nonzero_pair(i_a, n_a, "arrowhead", a.id)
            transforms.append(ArrowPart(weight=1, i=i_a, n=n_a))
        if wm.get(v.id, 0):
            i_a = wm[v.id] + 1
            if i_a == 0:
                raise DiagramError(f"dashed arrow at {v.id!r} with i = 0")
            transforms.append(ArrowPart(weight=1, i=i_a, n=0))
        chi = 2 - g.degree(v.id) - len(transforms)
        node_terms.append(NodeTerm(v.id, nu_v, n_v, chi, tuple(transforms)))
    for a, b in g.edges:
        edge_terms.append(EdgeTerm((a, b), 1, kv[a] + 1, nv[a], kv[b] + 1, nv[b]))
    return ZetaResult.from_terms(node_terms, edge_terms)
