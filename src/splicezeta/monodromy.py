"""Monodromy zeta function, Alexander polynomial and the eigenvalue set.

The monodromy zeta of a decorated diagram is the product over vertices of
(t**N_v - 1)**(valency - 2), valency taken with ordinary arrowheads counted
and dashed ones ignored.  The one-variable Alexander polynomial folds in the
component count; its roots together with the arrowhead root groups form the
eigenvalue target set, queried lazily by divisibility.

The vertex product is computed on a splice diagram or on a plumbing graph
alike; only the source of N_v differs (``_multiplicities``).  On a graph
that is not unimodular, N_v may be rational, and the product needs it
integral wherever the exponent is nonzero.

At an object's own F the monodromy zeta, Delta_1 and the Alexander
polynomial are kept in its ``memo``: the commands on one diagram, the
poles ``check_goal1`` maps and the stars ``realize`` reads ask for them
again and again.  A ``CycloProduct`` is a value: its operations build new
ones.
"""

from __future__ import annotations

from math import gcd

from .diagrams import DiagramError, PlumbingGraph, SpliceDiagram, require_valid
from .divisors import PDivisor, effective_f, f_sums, is_own, solve_pullback
from .exact import CycloProduct, UnityRoot


def _multiplicities(x: SpliceDiagram | PlumbingGraph, fm: dict[str, int]) -> dict:
    """N_v at every vertex: linking products on a splice diagram, the
    pullback of F by the intersection form on a plumbing graph (where N_v may
    be rational)."""
    if isinstance(x, PlumbingGraph):
        return solve_pullback(x, fm)
    x.require_standard()
    return f_sums(x, fm).at


def monodromy_zeta(x: SpliceDiagram | PlumbingGraph, f: PDivisor | None = None) -> CycloProduct:
    """zeta(t) = prod over vertices of (t**N_v - 1)**(delta'_v - 2)."""
    if is_own(x, f):
        return x.memo(("monodromy zeta",), _monodromy_zeta, x, None)
    return _monodromy_zeta(x, f)


def _monodromy_zeta(x: SpliceDiagram | PlumbingGraph, f: PDivisor | None) -> CycloProduct:
    fm = effective_f(x, f)
    nv = _multiplicities(x, fm)
    factors = []
    for v, n in nv.items():
        e = x.valency_f(v) - 2
        if e:
            if not isinstance(n, int):
                raise DiagramError(
                    f"vertex {v!r} has non-integral multiplicity {n}; "
                    "monodromy zeta needs integral data"
                )
            if n <= 0:
                raise DiagramError(f"vertex {v!r} has N = {n} <= 0")
            factors.append((n, e))
    return CycloProduct(factors)


def delta0(x: SpliceDiagram | PlumbingGraph, f: PDivisor | None = None) -> CycloProduct:
    """t**c - 1 where c = gcd of the arrowhead multiplicities (component count)."""
    c = 0
    for m in effective_f(x, f).values():
        c = gcd(c, m)
    return CycloProduct([(c, 1)])


def delta1(x: SpliceDiagram | PlumbingGraph, f: PDivisor | None = None) -> CycloProduct:
    """Characteristic polynomial of the first monodromy: zeta * delta0."""
    if is_own(x, f):
        return x.memo(("delta1",), _delta1, x, None)
    return _delta1(x, f)


def _delta1(x: SpliceDiagram | PlumbingGraph, f: PDivisor | None) -> CycloProduct:
    return monodromy_zeta(x, f) * delta0(x, f)


def alexander(d: SpliceDiagram, f: PDivisor | None = None) -> CycloProduct:
    """One-variable Alexander polynomial: zeta itself with >= 2 arrowheads,
    zeta * (t**N_a - 1) with a single arrowhead."""
    if is_own(d, f):
        return d.memo(("alexander",), _alexander, d, None)
    return _alexander(d, f)


def _alexander(d: SpliceDiagram, f: PDivisor | None) -> CycloProduct:
    fm = effective_f(d, f)
    z = monodromy_zeta(d, fm)
    if sum(m > 0 for m in fm.values()) >= 2:
        return z
    return z * delta0(d, fm)


def eig_contains(
    x: SpliceDiagram | PlumbingGraph, lam: UnityRoot, f: PDivisor | None = None
) -> bool:
    """Membership in Eig: root of delta1, or lam**N_a = 1 for some arrowhead.
    A diagram or graph that ``require_valid`` refuses is refused."""
    require_valid(x)
    return eig_core(x, lam, effective_f(x, f))


def eig_core(x: SpliceDiagram | PlumbingGraph, lam: UnityRoot, fm: dict[str, int]) -> bool:
    """``eig_contains`` for an x that ``require_valid`` passed and an F
    already read through ``effective_f``: neither is checked again."""
    for m in fm.values():
        if m > 0 and m % lam.order == 0:
            return True
    return delta1(x, fm).root_multiplicity(lam) > 0
