"""Numerical semigroups, the semigroup condition, allowed divisors, and the
pole-to-eigenvalue checker.

A dashed-arrow decoration set W is allowed when, star by star after full
splice decomposition, the boundary-leg values obey the divisibility
implication: with r ordinary arrowheads at the star and n boundary legs, if
d_l | i_l for at least n+r-2 leg indexes then i_l = d_l for at least n+r-2 of
them (vacuous for r >= 3).  Dashed arrows drawn at the node participate with
d_l = 1.

No star is built to reach the verdict.  Each node's legs are read off the
leg table kept on the diagram itself (``splicing.star_legs``): a boundary
leg has i = W(leg) + 1, a leg induced by splicing has the i of the cut of
the diagram at its edge (i0, the side lookup of the canonical sums, plus
that of W's linking sums), and the module docstring
of ``splicing`` shows that this is the value the star of
``star_decomposition`` carries.  The semigroup condition reads each
generator as the side lookup of a boundary vertex's unit vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import NamedTuple

from .diagrams import DiagramError, SpliceDiagram, Sums, carries_arrowheads, linking_sums, require_valid
from .divisors import PDivisor, effective_f, f_of, w_of, w_sums
from .exact import UnityRoot, format_size
from .monodromy import eig_core
from .splicing import star_legs
from .zeta import zeta_core


# The smallest generator sizes the residue table of ``semigroup_member``: a
# list of that many ints, filled in O(k * smallest generator) steps.  Larger
# smallest generators are refused rather than allocated.
SEMIGROUP_MAX_MIN_GENERATOR = 1_000_000


class SemigroupLimitError(DiagramError):
    """The smallest semigroup generator exceeds SEMIGROUP_MAX_MIN_GENERATOR."""


def semigroup_member(target: int, generators) -> bool:
    """Is the target a nonnegative integer combination of the generators?

    Round-robin residue table (Böcker and Lipták, "A fast and simple
    algorithm for the money changing problem", Algorithmica 2007): with a
    the smallest generator, least[r] is the smallest representable number
    that is r mod a (the Apéry set of a), and the target is representable
    exactly when least[target mod a] <= target.  Time O(k a), memory O(a);
    a target below a is answered without the table, and a table larger than
    SEMIGROUP_MAX_MIN_GENERATOR raises SemigroupLimitError."""
    if target < 0:
        raise ValueError("target must be nonnegative")
    if target == 0:
        return True
    gens = sorted(set(g for g in generators if g > 0))
    if not gens or target < gens[0]:
        return False
    a = gens[0]
    if a > SEMIGROUP_MAX_MIN_GENERATOR:
        raise SemigroupLimitError(
            f"semigroup generator {format_size(a)} exceeds the limit {SEMIGROUP_MAX_MIN_GENERATOR}"
        )
    least: list[float] = [inf] * a
    least[0] = 0
    for g in gens[1:]:
        step = gcd(a, g)
        for r in range(step):
            # start each cycle of n -> n + g (mod a) at its least entry
            n = min(least[r::step])
            if n == inf:
                continue
            for _ in range(a // step - 1):
                n += g
                p = n % a
                if least[p] < n:
                    n = least[p]
                least[p] = n
    return least[target % a] <= target


class SemigroupFailure(NamedTuple):
    node: str
    edge: tuple[str, str]
    weight: int
    generators: tuple[int, ...]

    def __str__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return (
            f"node {self.node}, edge {self.edge}: {self.weight} not in <{gens}>"
        )


class SemigroupReport(NamedTuple):
    ok: bool
    failures: list[SemigroupFailure]
    checked: int = 0


def semigroup_condition(d: SpliceDiagram) -> SemigroupReport:
    """For every node/edge pair whose cut-off side carries no arrowheads:
    the edge weight at the node must lie in the semigroup generated by the
    linking products towards the boundary vertices of that side.  The
    condition depends only on the support of F, which the diagram's
    arrowheads carry.  Towards a leaf the far side is the bare leaf, whose
    linking product with e excluded is 1: the generators are (1,), so the
    pair is counted as checked and holds without a cut.  A generator
    l(far, w), e excluded at far, is ``side(v, far)`` of w's unit vector,
    0 exactly when w is not beyond far, as no weight is 0: one pass per
    boundary vertex, each read by every cut and then dropped."""
    require_valid(d)
    leaves = 0
    cuts = []  # (node, far endpoint, weight, generators)
    for v in d.nodes():
        for e in d.edges_at(v):
            far = e.other(v)
            if not d.is_node(far):
                leaves += 1
            elif not carries_arrowheads(d, v, far):
                cuts.append((v, far, e.weight_at(v), []))
    boundary = d.boundary_vertices() if cuts else ()
    for w in boundary:
        column = linking_sums(d, {w: 1})
        for v, far, _, gens in cuts:
            if g := column.side(v, far):
                gens.append(g)
    failures = []
    for v, far, weight, gens in cuts:
        gens = tuple(sorted(gens))
        if not semigroup_member(weight, gens):
            failures.append(SemigroupFailure(v, (v, far), weight, gens))
    return SemigroupReport(ok=not failures, failures=failures, checked=leaves + len(cuts))


# ---------------------------------------------------------------------------
# allowedness


class StarCheck(NamedTuple):
    node: str
    r: int
    legs: list[tuple[int, int]]  # (d_l, i_l) including induced and node-drawn ones
    divisible: list[int]
    matched: list[int]
    ok: bool
    reason: str | None

    def __str__(self):
        state = "ok" if self.ok else f"violated ({self.reason})"
        legs = ", ".join(f"d={a} i={b}" for a, b in self.legs)
        return f"star {self.node} (r={self.r}): [{legs}] {state}"


class AllowedVerdict(NamedTuple):
    allowed: bool
    stars: list[StarCheck]
    nonzero_ok: bool
    nonzero_detail: list[str]

    def __str__(self):
        head = "allowed" if self.allowed else "not allowed"
        lines = [head] + [str(s) for s in self.stars]
        lines += [f"nonzero condition: {d}" for d in self.nonzero_detail]
        return "\n".join(lines)


def star_allowed(r: int, legs) -> bool:
    """The divisibility implication on a star with r ordinary arrowheads and
    legs (d_l, i_l): if d_l | i_l at n + r - 2 or more of the n legs, then
    i_l = d_l at n + r - 2 or more of them."""
    n = len(legs)
    if r > 2 or n == 0:
        return True
    need = n + r - 2
    divisible = matched = 0
    for dl, il in legs:
        if il % dl == 0:
            divisible += 1
            # i = d is a case of d | i
            if il == dl:
                matched += 1
    return divisible < need or matched >= need


def _arrow_zeros(d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int]):
    """The nonzero condition's failures at the arrows, one message each,
    built only when asked for: a pure dashed arrow with i = 0, an
    arrowhead with (N, i) = (0, 0)."""
    fids = d._farrow_by_id
    for slot, mult in wm.items():
        if mult == -1 and slot not in fids:
            yield f"pure dashed arrow at {slot!r} has i = 0"
    for a in d.farrows:
        if not fm.get(a.id, 0) and wm.get(a.id, 0) == -1:
            yield f"arrowhead {a.id!r} has (N, i) = (0, 0)"


def _stars(d: SpliceDiagram, wm: dict[str, int], ws: Sums):
    """Each node of ``star_legs(d)`` in order, as (node, r, star, legs): its
    ``Leg``s and their (d_l, i_l) at W, with a dashed arrow drawn at the
    node last, as (1, node, None, 1); ws is W's ``w_sums``.  Refuses a
    diagram without a node at the first step."""
    table = star_legs(d)
    if not table:
        raise DiagramError("piece without a unique node")
    w_side = ws.side
    for node in sorted(table):
        r, star = table[node]
        legs = [
            (dl, base + (wm.get(slot, 0) if far is None else w_side(node, far)))
            for dl, slot, far, base in star
        ]
        if wm.get(node, 0):
            star = (*star, (1, node, None, 1))
            legs.append((1, wm[node] + 1))
        yield node, r, star, legs


def allowed_at(d: SpliceDiagram, f: PDivisor | None = None, w: PDivisor | None = None) -> bool:
    """``is_allowed(d, f, w).allowed``, with no report built: the same
    legs, the same nonzero condition and the same ``star_allowed``, up to
    the first failure."""
    require_valid(d)
    fm, wm = f_of(d, f), w_of(d, w)
    return allowed_core(d, fm, wm, w_sums(d, wm))


def allowed_core(d: SpliceDiagram, fm: dict[str, int], wm: dict[str, int], ws: Sums) -> bool:
    """``allowed_at`` for a checked d, F and W, and W's ``w_sums``."""
    for _, r, _, legs in _stars(d, wm, ws):
        if not star_allowed(r, legs) or any(il == 0 for _, il in legs):
            return False
    return next(_arrow_zeros(d, fm, wm), None) is None


def is_allowed(
    d: SpliceDiagram, f: PDivisor | None = None, w: PDivisor | None = None
) -> AllowedVerdict:
    """Full allowedness verdict: the nonzero condition on the given data plus
    the star-wise divisibility implications on the canonical decomposition,
    each star's legs evaluated at W from ``star_legs``."""
    require_valid(d)
    fm, wm = f_of(d, f), w_of(d, w)
    nonzero_detail = list(_arrow_zeros(d, fm, wm))
    checks = []
    for node, r, star, pairs in _stars(d, wm, w_sums(d, wm)):
        zeros = [(slot, far) for (_, slot, far, _), (_, il) in zip(star, pairs) if il == 0]
        # the star's dashed arrows list its own slots sorted, then its leaves
        zero = sorted(slot for slot, far in zeros if far is None)
        zero += [slot for slot, far in zeros if far is not None]
        nonzero_detail += [
            f"induced dashed arrow at {slot!r} (star {node}) has i = 0" for slot in zero
        ]
        divisible = [k for k, (dl, il) in enumerate(pairs) if il % dl == 0]
        matched = [k for k, (dl, il) in enumerate(pairs) if il == dl]
        ok = star_allowed(r, pairs)
        reason = None
        if not ok:
            slots = [star[k][1] for k in divisible if k not in matched]
            reason = (
                f"d | i at {len(divisible)} legs (need i = d at {len(pairs) + r - 2}, "
                f"have {len(matched)}); offending slots: {', '.join(slots)}"
            )
        checks.append(StarCheck(node, r, pairs, divisible, matched, ok, reason))
    nonzero_ok = not nonzero_detail
    allowed = nonzero_ok and all(c.ok for c in checks)
    return AllowedVerdict(allowed, checks, nonzero_ok, nonzero_detail)


# ---------------------------------------------------------------------------
# the pole -> eigenvalue property


class PoleReport(NamedTuple):
    s0: Fraction
    order: int
    leading: Fraction
    eigenvalue: UnityRoot
    in_eig: bool


class Goal1Report(NamedTuple):
    holds: bool
    allowed: bool
    poles: list[PoleReport]

    @property
    def counterexamples(self) -> list[PoleReport]:
        return [p for p in self.poles if not p.in_eig]

    def __str__(self):
        lines = [
            f"W allowed: {self.allowed}",
            f"every pole lands in Eig: {self.holds}",
        ]
        for p in self.poles:
            mark = "in Eig" if p.in_eig else "NOT in Eig"
            lines.append(
                f"  pole s0 = {p.s0} (order {p.order}) -> exp(2 pi i s0) = {p.eigenvalue}: {mark}"
            )
        return "\n".join(lines)


def check_goal1(
    d: SpliceDiagram, f: PDivisor | None = None, w: PDivisor | None = None
) -> Goal1Report:
    """Map every pole of the zeta function to a root of unity and test Eig
    membership.  Allowedness is reported, not required; F must be nonzero,
    as the zeta function needs it."""
    require_valid(d)
    fm, wm = effective_f(d, f), w_of(d, w)
    ws = w_sums(d, wm)
    allowed = allowed_core(d, fm, wm, ws)
    reports = []
    for p in zeta_core(d, fm, wm, ws).poles():
        lam = UnityRoot.from_exponent(p.location)
        reports.append(PoleReport(p.location, p.order, p.leading, lam, eig_core(d, lam, fm)))
    return Goal1Report(all(p.in_eig for p in reports), allowed, reports)
