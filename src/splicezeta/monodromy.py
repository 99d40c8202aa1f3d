"""Monodromy zeta function, Alexander polynomial and the eigenvalue set.

The monodromy zeta of a decorated diagram is the product over vertices of
(t**N_v - 1)**(valency - 2), valency taken with ordinary arrowheads counted
and dashed ones ignored.  The one-variable Alexander polynomial folds in the
component count; its roots together with the arrowhead root groups form the
eigenvalue target set, queried lazily by divisibility.

The vertex product is computed on a splice diagram or on a plumbing graph
alike; only the source of N_v differs: linking products on a splice
diagram, the pullback of F by the intersection form on a plumbing graph.
On a graph that is not unimodular, N_v may be rational, and the product
needs it integral wherever the exponent is nonzero.

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


def _kept(key: str, build, x: SpliceDiagram | PlumbingGraph, fm: dict[str, int]) -> CycloProduct:
    """build(x, fm), kept in x's memo under ``key`` at x's own F."""
    return x.memo((key,), build, x, fm) if is_own(x, fm) else build(x, fm)


def monodromy_zeta(x: SpliceDiagram | PlumbingGraph, f: PDivisor | None = None) -> CycloProduct:
    """zeta(t) = prod over vertices of (t**N_v - 1)**(delta'_v - 2)."""
    require_valid(x)
    return _kept("monodromy zeta", _monodromy_zeta, x, effective_f(x, f))


def _monodromy_zeta(x: SpliceDiagram | PlumbingGraph, fm: dict[str, int]) -> CycloProduct:
    nv = solve_pullback(x, fm) if isinstance(x, PlumbingGraph) else f_sums(x, fm).at
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
    require_valid(x)
    return _delta0(effective_f(x, f))


def _delta0(fm: dict[str, int]) -> CycloProduct:
    return CycloProduct([(gcd(*fm.values()), 1)])


def delta1(x: SpliceDiagram | PlumbingGraph, f: PDivisor | None = None) -> CycloProduct:
    """Characteristic polynomial of the first monodromy: zeta * delta0."""
    require_valid(x)
    return _kept("delta1", _delta1, x, effective_f(x, f))


def _delta1(x: SpliceDiagram | PlumbingGraph, fm: dict[str, int]) -> CycloProduct:
    return _kept("monodromy zeta", _monodromy_zeta, x, fm) * _delta0(fm)


def alexander(d: SpliceDiagram, f: PDivisor | None = None) -> CycloProduct:
    """One-variable Alexander polynomial: zeta itself with >= 2 arrowheads,
    zeta * (t**N_a - 1) with a single arrowhead."""
    require_valid(d)
    return alexander_core(d, effective_f(d, f))


def alexander_core(d: SpliceDiagram, fm: dict[str, int]) -> CycloProduct:
    """``alexander`` for a checked d and F; at d's own F, kept on d."""
    return _kept("alexander", _alexander, d, fm)


def _alexander(d: SpliceDiagram, fm: dict[str, int]) -> CycloProduct:
    z = _kept("monodromy zeta", _monodromy_zeta, d, fm)
    if sum(m > 0 for m in fm.values()) >= 2:
        return z
    return z * _delta0(fm)


def eig_contains(
    x: SpliceDiagram | PlumbingGraph, lam: UnityRoot, f: PDivisor | None = None
) -> bool:
    """Membership in Eig: root of delta1, or lam**N_a = 1 for some arrowhead."""
    require_valid(x)
    return eig_core(x, lam, effective_f(x, f))


def eig_core(x: SpliceDiagram | PlumbingGraph, lam: UnityRoot, fm: dict[str, int]) -> bool:
    """``eig_contains`` for a checked x and F."""
    for m in fm.values():
        if m > 0 and m % lam.order == 0:
            return True
    return _kept("delta1", _delta1, x, fm).root_multiplicity(lam) > 0
