"""Constructing allowed divisors whose zeta poles hit a prescribed eigenvalue.

One engine, ``realize_eigenvalue``, certifies candidates from three lazy
sources, chained in this order:

* arrowheads whose multiplicity the order of lambda divides: the arrowhead's
  double is set so that s0 = -i_a/N_a hits lambda, on top of a few small
  allowed boundary assignments;
* nodes whose star Alexander polynomial has lambda as a root: the linear
  congruence for nu_v in the slot multiplicities (explicitly solvable, as
  the weights at a node are pairwise coprime) is solved and its solution
  shifted along the kernel;
* a bounded exhaustive search over decoration windows, used as fallback and
  as an independent oracle at desk scale.

The search reads ``diagrams.blow_down(d)``, whose slots are slots of d: a W
on them is a W on d, lifted by zeros.  The searched slots, the congruences,
the star filters, the default bound and the explored window belong to it,
and ``certify`` judges every candidate on d itself.

The sources know nothing of how many results are wanted: one loop certifies
each divisor they yield once, and stops pulling at the requested count, so a
source is left only when it runs dry.

``realize_star`` is that engine on a standalone star, whose arrowhead
doubles it searches too.  ``extend_allowed`` carries an allowed divisor one
step across a special edge, with the obstructed cases detected and reported:
the far half keeps its W, so the restriction is fixed by the new slot's i,
which every candidate gives exactly, as it solves that linear equation; no
candidate is spliced.

The search walks the windows |mult| <= width of the k searched slots width
by width, and at each width only the new shell, the points with some
|mult| = width (width 1 is the whole 3^k box); with ``effective=True`` only
the non-negative points of each shell.  It stops at the requested bound or
when the next window would hold more than ``SEARCH_BUDGET`` points, counted
over the whole window, the negative points that ``effective`` skips
included.  The budget holds at width 1 too: when 3^k exceeds it, no window
is walked and the search ends at window 0.
A point is a tuple of slot multiplicities.  The lambda congruences at the
nodes and arrowheads are integer affine forms base + coefs . x = 0 (mod n),
compiled once per query from the slot tables kept on the diagram, and the
shell walk solves them one coordinate at a time: it fixes the slots in the
shell's product order and drops a congruence below a prefix as soon as the
partial sum is not 0 modulo the gcd of n and the coefficients still free.
A prefix that keeps no congruence is skipped whole, so the walk reaches
exactly the shell points that satisfy one, in the order of the full shell.
Each of them is then tested by the star divisibility implication on the
induced leg values, sparse affine forms that sum only a leg's nonzero slot
terms; only the points that pass become a divisor for ``certify``.

Before a source tests the points of a lattice coset x0 + span(B), an exact
certificate (``rejecting_star``) asks whether one star rejects all of them:
each leg's value runs over i(x0) + gZ, g the gcd of its slopes along B, so
whether d divides it everywhere and whether it can equal d anywhere are
read off i(x0) and g.  A star with n legs and r arrowheads rejects the
coset when some leg is 0 on all of it, or when n + r - 2 legs are divisible
everywhere and fewer can equal d anywhere.  When a node's reduced solution
fails the star filters, the node source asks it of the node's kernel coset
(x0 that solution, B the periods p_j e_j, which hold every kernel move and
its ``effective`` representative); the moves of a rejected coset are not
tested, but their random draws are taken and dropped, so the nodes after it
see the same stream.  The window asks it of each hit form's solution
lattice (``exact.congruence_lattice``) and walks only the forms left; with
none left it walks nothing and reports the width it would have reached.  A
rejected coset holds no point that passes the star filters, and the draws
do not change, so no found W, no certify call and no ``--json`` byte moves:
the certificate only skips work that proves nothing.  It is partial: a
coset that no single star rejects may still hold no allowed point.

Every candidate is certified from scratch: the divisor must pass the
allowedness check and the zeta function must have a pole whose exponential
equals the requested root of unity.  Nothing is trusted from the
construction itself.  Certifying reuses what does not depend on W: the
allowedness check builds no star, but reads each node's legs off the table
cached on the diagram (``splicing.star_legs``), the one the query's star
filters were compiled from, and ``zeta.pole_at`` reads the diagram's kept
zeta plan and fills in only nu, N and i (N_v at d's own F is the value kept
on d).  A query checks d and reads F once, and ``certify``'s core reads
only each candidate's W and judges it by the cores of ``allowed_at``
(``is_allowed``'s verdict, with no report built) and of ``pole_at``, the
least pole mapping to lambda, which sums only the terms that vanish at the
roots mapping to lambda and is exactly the first such pole of
``zeta_splice(...).poles()`` (see the ``zeta`` module docstring).

What a query needs that is free of F, W and lambda is kept on the
blown-down diagram, under one memo key per slot set, without and with the
arrowhead doubles: the searched slots, their star forms, each node's nu at
W = 0 and its linking products with them, all read off one unit-vector
``linking_sums`` pass per slot, the first arrowhead source's small
boundary assignments and the largest weight, which scales the default
bound.  The assignments depend on the slots and their star forms alone, as
every query draws them first from the same fixed seed: the table keeps the
state of the random stream after them, which the arrowhead source restores.
A query compiles from the table only what its lambda and F decide, N_v and
the target residues.  No memo key names a lambda or a searched W.  A
query's stream is built on its first draw, from the fixed seed, or from the
kept state once the first arrowhead has read its assignments: a query whose
sources never draw builds none.  The kernel moves and the
small boundary assignments draw their random values through ``_below7``,
which takes from the random stream what ``randint(-3, 3)`` and a seven-way
``choice`` take and gives what they give, in fewer calls.

By default the searched dashed arrows live at boundary vertices; the double
of an ordinary arrowhead is used only when that arrowhead itself is the
eigenvalue source.  Pass ``include_doubles=True`` to open every doubling slot
to the search (this strictly enlarges the reachable eigenvalue set on some
diagrams with arrowhead multiplicities > 1).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .allowed import allowed_core, star_allowed
from .diagrams import DiagramError, SpliceDiagram, Sums, blow_down, linking_sums, require_valid
from .divisors import PDivisor, canonical_sums, effective_f, f_of, f_sums, w_of, w_sums
from .divisors import nu_values  # noqa: F401  (perfbench's tracer test reads realize.nu_values)
from .exact import UnityRoot, congruence_lattice, solve_linear_congruence
from .monodromy import alexander_core, eig_core
from .splicing import splice_core, star_legs, stars_core
from .zeta import pole_core, target_residue


class NotAnEigenvalueError(ValueError):
    """The requested root of unity is not in Eig for this diagram."""


class StarRootError(ValueError):
    """The requested root of unity is not a root of this star's Alexander polynomial."""


class ExtensionObstructedError(ValueError):
    """No allowed extension exists for the requested flat divisor."""


class Realization(NamedTuple):
    w: dict[str, int]
    s0: Fraction
    order: int
    leading: Fraction
    eigenvalue: UnityRoot
    source: str

    def values(self) -> dict[str, int]:
        """Slot -> i values (multiplicity + 1)."""
        return {s: m + 1 for s, m in self.w.items()}


class NodeCongruence(NamedTuple):
    node: str
    modulus: int
    base: int
    target: int
    coefficients: dict[str, int]
    reductions: list[tuple[int, dict[str, int], int]]

    def describe(self) -> str:
        terms = " + ".join(f"{c}*x[{s}]" for s, c in self.coefficients.items())
        lines = [
            f"node {self.node}: need {self.base} + {terms} = {self.target} (mod {self.modulus})"
        ]
        for m, coefs, t in self.reductions:
            tt = " + ".join(f"{c}*x[{s}]" for s, c in coefs.items() if c)
            lines.append(f"  mod {m}: {tt or '0'} = {t}")
        return "\n".join(lines)


class RealizeOutcome(NamedTuple):
    status: str  # realized | unrealizable-within-bound
    found: list[Realization]
    diagnostics: list[str]
    congruences: list[NodeCongruence]
    explored: dict[str, int]

    @property
    def realized(self) -> bool:
        return self.status == "realized"


# ---------------------------------------------------------------------------
# linear structure of nu and of the induced star legs
#
# The cheap filters of a search see a candidate as a tuple x of slot
# multiplicities, in the order of the searched slots.  Every quantity they
# test is an integer affine form base + coefs . x, read off the slots'
# unit-vector linking sums (``slot_columns``) once per slot set.


# a star as (r, legs), each leg (d_l, base, terms) with
# i_l = base + sum(coef * x[index] for index, coef in terms)
_StarForm = tuple[int, tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]]


def slot_columns(d: SpliceDiagram, slots: Sequence[str]) -> dict[str, Sums]:
    """Each slot s and the ``Sums`` of its unit vector, one
    ``linking_sums`` pass each: l(v, s) at every vertex v, and as
    ``side(v, f)`` the slope in s of the i of the cut at the edge v-f
    keeping v, 0 unless s lies beyond the edge."""
    return {s: linking_sums(d, {s: 1}) for s in slots}


def star_forms(d: SpliceDiagram, columns: dict[str, Sums]) -> list[_StarForm]:
    """Symbolic star decomposition over the slots, boundary vertices and
    arrowhead doubles, given with their ``slot_columns``: each star's legs
    as affine forms in the slot multiplicities, kept sparse as (index,
    coef) terms with the zero coefficients dropped; arrow doubles carry no
    leg condition.  An induced leg's value is linear in W: i0 plus each
    slot's side lookup across the leg's edge times its multiplicity."""
    index = {s: j for j, s in enumerate(columns)}
    forms: list[_StarForm] = []
    for v, (r, legs) in star_legs(d).items():
        out = []
        for weight, slot, far, base in legs:
            if far is None:
                terms = ((index[slot], 1),) if slot in index else ()
            else:
                terms = tuple(
                    (j, c) for j, column in enumerate(columns.values()) if (c := column.side(v, far))
                )
            out.append((weight, base, terms))
        forms.append((r, tuple(out)))
    return forms


def _fast_allowed(forms: list[_StarForm], x: tuple[int, ...]) -> bool:
    """Every star passes the nonzero test and the divisibility implication."""
    for r, legs in forms:
        vals = []
        for dl, i, terms in legs:
            for j, c in terms:
                i += c * x[j]
            if i == 0:
                return False
            vals.append((dl, i))
        if not star_allowed(r, vals):
            return False
    return True


# a lattice basis B given by slot: at index j, the pairs (t, B_t[j]) with
# B_t[j] != 0
_Columns = list[list[tuple[int, int]]]


def lattice_columns(basis: Sequence[Sequence[int]], k: int) -> _Columns:
    """The basis vectors of length k, given by slot."""
    return [[(t, b[j]) for t, b in enumerate(basis) if b[j]] for j in range(k)]


def leg_ranges(legs, x0: Sequence[int], columns: _Columns) -> list[tuple[int, int, int]]:
    """Each leg's values on the coset x0 + span(B) as (d_l, i_l(x0), g): the
    leg runs over i_l(x0) + gZ, g the gcd of its slopes along the basis B,
    which ``columns`` gives by slot (0 when the leg is constant on the
    coset)."""
    out = []
    for dl, i, terms in legs:
        slopes = {}
        for j, c in terms:
            i += c * x0[j]
            for t, b in columns[j]:
                slopes[t] = slopes.get(t, 0) + c * b
        out.append((dl, i, gcd(*slopes.values())))
    return out


def rejecting_star(forms: list[_StarForm], x0: Sequence[int], columns: _Columns) -> int | None:
    """The index in ``forms`` of a star that rejects every point of the
    coset x0 + span(B), B given by ``columns``, or None when no star is
    seen to.  A star rejects the whole coset when some leg is 0 on all of
    it, or when ``star_allowed`` would fail everywhere: at least n + r - 2
    legs are divisible at every point (d | i(x0) and d | g) and fewer than
    n + r - 2 can equal d at any point.  None proves nothing: the test is
    exact for each leg alone, not for the legs together."""
    for index, (r, legs) in enumerate(forms):
        need = len(legs) + r - 2
        divisible = pinnable = 0
        for dl, i, g in leg_ranges(legs, x0, columns):
            if i == 0 and g == 0:
                return index
            if i % dl == 0 and g % dl == 0:
                divisible += 1
            if (dl - i) % g == 0 if g else i == dl:
                pinnable += 1
        # with r > 2, need exceeds n: such a star, which star_allowed always
        # passes, is rejected only by a zero leg
        if divisible >= need > pinnable:
            return index
    return None


# node -> (nu_v at W = 0, l(v, s) over the searched slots s)
_SlotRows = dict[str, tuple[int, tuple[int, ...]]]
# node -> (N_v, u_v, nu_v at W = 0, l(v, s) over the searched slots s)
_NodeHits = dict[str, tuple[int, int, int, tuple[int, ...]]]
# arrowhead -> (N_a, u_a)
_ArrowHits = dict[str, tuple[int, int]]


def _slot_tables(
    d: SpliceDiagram, include_doubles: bool
) -> tuple[tuple[str, ...], list[_StarForm], _SlotRows, tuple[dict[str, int], ...], tuple, int]:
    """The searched slots (the boundary vertices, then the arrowhead doubles
    on request), their star forms, ``_slot_rows`` over them, the first
    arrowhead's small boundary assignments, drawn from a fresh stream, with
    the stream's state after them, and the largest arrowhead or edge weight,
    which scales the default bound: free of F, W and lam, so
    ``realize_eigenvalue`` keeps them on d, under one key per value of
    ``include_doubles``."""
    slots = d.boundary_vertices()
    if include_doubles:
        slots += tuple(a.id for a in d.farrows)
    columns = slot_columns(d, slots)
    forms = star_forms(d, columns)
    rng = random.Random(_SEED)
    draws = tuple(_small_allowed_candidates(slots, forms, rng))
    weights = [a.weight for a in d.farrows] + [w for e in d.edges for w in (e.wa, e.wb)]
    return slots, forms, _slot_rows(d, columns), draws, rng.getstate(), max(weights, default=1)


def _slot_rows(d: SpliceDiagram, columns: dict[str, Sums]) -> _SlotRows:
    """Each node's nu at W = 0 and its linking products with the slots,
    read off their ``slot_columns``: nu_v at W = x is nu_v + row . x."""
    nu0 = canonical_sums(d).at
    return {v: (nu0[v], tuple(column.at[v] for column in columns.values())) for v in d.nodes()}


def _compile_hits(
    d: SpliceDiagram, fm: dict[str, int], lam: UnityRoot, rows: _SlotRows
) -> tuple[_NodeHits, _ArrowHits]:
    """Where exp(2 pi i s0) = lam can come from, compiled once per query:
    nu_v = u_v (mod N_v) at a node, and x_a + 1 = u_a (mod N_a) at an
    arrowhead, with u = target_residue(lam, N), each in the diagram's order
    and only where u exists.  ``rows`` is ``_slot_rows`` over the searched
    slots.  This is the test s0 = -nu/N = lam.frac (mod 1), the one
    ``zeta.pole_at`` applies (derived in the ``zeta`` module docstring);
    only nonzero N take part, as s0 = -nu/N needs N != 0."""
    nv = f_sums(d, fm).at
    nodes = {}
    for v, (nu0, coefs) in rows.items():
        u = target_residue(lam, nv[v]) if nv[v] else None
        if u is not None:
            nodes[v] = nv[v], u, nu0, coefs
    arrows = {}
    for a in d.farrows:
        n = fm.get(a.id, 0)
        u = target_residue(lam, n) if n else None
        if u is not None:
            arrows[a.id] = n, u
    return nodes, arrows


# base + coefs . x = 0 (mod modulus)
_Congruence = tuple[int, tuple[int, ...], int]


def _hit_forms(nodes: _NodeHits, arrows: _ArrowHits, slots: list[str]) -> list[_Congruence]:
    """The hits as congruences base + coefs . x = 0 (mod modulus).  When a
    congruence without slot terms already holds, every x hits: the one form
    returned is then 0 = 0 (mod 1)."""
    forms = [(nu0 - u, coefs, n) for n, u, nu0, coefs in nodes.values()]
    forms += [(1 - u, tuple(int(s == aid) for s in slots), n) for aid, (n, u) in arrows.items()]
    if any(not any(c) and b % n == 0 for b, c, n in forms):
        return [(0, (0,) * len(slots), 1)]
    return [(b, c, n) for b, c, n in forms if any(c)]


# ---------------------------------------------------------------------------
# certification


def certify(
    d: SpliceDiagram, fm: PDivisor, w: PDivisor, lam: UnityRoot, source: str, effective: bool
) -> Realization | None:
    """Full independent check: allowed, and a genuine pole maps to lam.
    d, F (nonzero) and W are read and checked once, and both verdicts are
    reached from that one read; a W they refuse is not certified: None."""
    require_valid(d)
    return _certify(d, effective_f(d, fm), w, lam, source, effective)


def _certify(
    d: SpliceDiagram, fm: dict[str, int], w: PDivisor, lam: UnityRoot, source: str, effective: bool
) -> Realization | None:
    """``certify`` for a checked d and F: only W is read."""
    w = {s: m for s, m in w_of(d, w).items() if m}
    if effective and any(m < 0 for m in w.values()):
        return None
    ws = w_sums(d, w)
    try:
        if not allowed_core(d, fm, w, ws):
            return None
        pole = pole_core(d, fm, w, ws, lam)
    except DiagramError:
        return None
    if pole is None:
        return None
    return Realization(
        w=dict(sorted(w.items())),
        s0=pole.location,
        order=pole.order,
        leading=pole.leading,
        eigenvalue=lam,
        source=source,
    )


# Trial division for the printed per-prime congruence reductions stops at
# this divisor; what is left of N_v is reported as one modulus.
FACTOR_TRIAL_LIMIT = 100_000

# The window search stops before a window of more than this many points.
SEARCH_BUDGET = 400_000


def _prime_power_factors(n: int) -> list[int]:
    """Pairwise coprime moduli whose product is n: the prime powers of the
    primes up to FACTOR_TRIAL_LIMIT, then the unfactored cofactor (prime
    when it is below the square of the limit)."""
    out = []
    m = n
    p = 2
    while p * p <= m and p <= FACTOR_TRIAL_LIMIT:
        if m % p == 0:
            pk = 1
            while m % p == 0:
                pk *= p
                m //= p
            out.append(pk)
        p += 1
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# star realization (standalone star diagrams)


def realize_star(
    star: SpliceDiagram, lam: UnityRoot, count: int = 1, effective: bool = False
) -> list[Realization]:
    """Allowed divisors on a one-node diagram with a certified pole hitting lam.

    A standalone star owns all its decorations, so ``realize_eigenvalue``
    searches its arrowhead doubles as well as its boundary vertices."""
    require_valid(star)
    if len(star.nodes()) != 1:
        raise DiagramError("realize_star needs a star-shaped diagram")
    fm = effective_f(star, None)
    if alexander_core(star, fm).root_multiplicity(lam) <= 0:
        raise StarRootError(f"{lam} is not an eigenvalue of this star")
    _check_request(count, None)
    # Eig holds every root of the Alexander polynomial, which divides Delta_1
    return _realize(star, fm, lam, count, effective, None, True).found


# ---------------------------------------------------------------------------
# extension across one special edge


def extend_allowed(
    d: SpliceDiagram, e, w_flat: PDivisor, f: PDivisor | None = None
) -> dict[str, int]:
    """Extend an allowed divisor from the far half across edge e.

    ``e`` is (vL, vR) or an Edge; the half containing vR is where ``w_flat``
    lives (keyed by that half's slots, including the slot minted by
    splicing).  Any other key is refused, whatever its multiplicity: one
    that is not a W slot of d as ``w_of`` refuses it, one on the half
    containing vL as touching it.  That half must be star-shaped.  Returns
    an allowed W on the whole diagram restricting to ``w_flat``; raises
    ExtensionObstructedError when the excluded configuration blocks every
    choice.
    """
    require_valid(d)
    fm = f_of(d, f)
    left0, right0 = splice_core(d, e, fm, {})
    v_l, v_r = left0.kept_node, right0.kept_node
    left_vertices = set(left0.diagram.vertices) - {left0.new_slot}
    if any(d.is_node(x) for x in left_vertices if x != v_l):
        raise DiagramError("left half is not star-shaped")
    w_flat = dict(w_flat)
    i_prime = w_flat.pop(right0.new_slot, 0) + 1
    # w_flat's remaining slots are slots of the original diagram, on the
    # right half, whatever their multiplicity
    for s in w_of(d, w_flat):
        if d.anchor(s)[0] in left_vertices:
            raise DiagramError(f"flat divisor touches the left half at {s!r}")
    partial = {s: m for s, m in w_flat.items() if m}
    # unknowns: the left star's own leg slots
    legs = {slot: weight for weight, slot, far, _ in star_legs(d)[v_l][1] if far is None}
    # i' = i0 + sum l(v_l, s) x_s, e excluded, over the left star's slots,
    # all beyond e from v_r; partial, on the right half, adds nothing
    i0 = canonical_sums(d).side
    coefs = {s: column.side(v_r, v_l) for s, column in slot_columns(d, legs).items()}
    sol_exact = solve_linear_congruence(list(coefs.values()), i_prime - i0(v_r, v_l), 0)
    if sol_exact is None:
        raise ExtensionObstructedError(
            f"no integer decorations on the left legs reach i' = {i_prime}"
        )
    for cand in _leg_fixups(legs, coefs, dict(zip(legs, sol_exact))):
        w_full = dict(partial)
        for s, m in cand.items():
            if m:
                w_full[s] = m
        # the restriction keeps partial on the right half, and every
        # candidate solves the equation above, so the new slot's i is i'
        if allowed_core(d, fm, w_full, w_sums(d, w_full)):
            return w_full
    # the fixed induced value onto the left star
    j = i0(v_l, v_r) + w_sums(d, partial).side(v_l, v_r)
    raise ExtensionObstructedError(
        "extension obstructed: the divisible pattern forces d = j "
        f"(d = {d.edge(v_l, v_r).weight_at(v_l)}, j = {j})"
    )


def _leg_fixups(legs, coefs, x0) -> list[dict[str, int]]:
    """Candidate assignments derived from one solution: the raw solution,
    kernel-shifted variants avoiding zero values, and the forced i = d branch.
    ``legs`` maps the star's boundary slots to their weights."""
    base_variants = [dict(x0)]
    # kernel pair moves: coef_a * legs[a] == coef_b * legs[b] on a star
    slots = list(legs)
    for t in (1, -1, 2, -2, 3, -3):
        for a, b in itertools.combinations(slots, 2):
            y = dict(x0)
            y[a] += legs[a] * t
            move = coefs[a] * legs[a]
            if coefs[b] and move % coefs[b] == 0:
                y[b] -= (move // coefs[b]) * t
                base_variants.append(y)
    # forced branch: all-but-one legs pinned to i = d (mult = d - 1)
    for free in slots:
        y = {}
        acc = 0
        for s in slots:
            if s == free:
                continue
            y[s] = legs[s] - 1
            acc += coefs[s] * y[s]
        target = sum(coefs[s] * x0[s] for s in slots) - acc
        if coefs[free] and target % coefs[free] == 0:
            y[free] = target // coefs[free]
            base_variants.append(y)
    out = []
    seen = set()
    for y in base_variants:
        key = tuple(sorted(y.items()))
        if key not in seen:
            seen.add(key)
            out.append(y)
    return out


# ---------------------------------------------------------------------------
# full-diagram realization


def _hit_walk(forms: list[_Congruence], k: int, width: int, effective: bool):
    """The points of the window |mult| <= width that have some |mult| = width
    (at width 1 the whole window, origin included) and satisfy one of the
    congruences ``forms``, in the order of the full product over the ladder
    0, 1, -1, ..., width, -width.  With ``effective`` only the non-negative
    points, over the ladder 0, 1, ..., width.

    The walk fixes the coordinates one at a time, each over the whole ladder
    except the last one when the others do not touch the rim: that one runs
    over the rim alone.  A form base + coefs . x = 0 (mod n) stays alive
    below a prefix x_0..x_{i-1} only when its partial sum base + coefs . prefix
    is 0 modulo g_i = gcd(c_i, ..., c_{k-1}, n): the coordinates still free
    add a multiple of g_i.  A prefix under which no form is alive is pruned
    whole, and as g_k = n, the points reached at the last coordinate are
    exactly those that satisfy some form."""
    if effective:
        ladder = tuple(range(width + 1))
        rim = (width,)
    else:
        ladder = (0,) + tuple(c for a in range(1, width + 1) for c in (a, -a))
        rim = (width, -width)
    # each form as its partial sum at the empty prefix and, per coordinate i,
    # the pair (c_i, g_{i+1})
    alive = []
    for base, coefs, n in forms:
        steps = []
        g = n
        for c in reversed(coefs):
            steps.append((c, g))
            g = gcd(c, g)
        if base % g == 0:
            alive.append((base, steps[::-1]))

    def walk(i, head, alive, touched):
        if i == k - 1:
            for x in ladder if touched else rim:
                for s, steps in alive:
                    c, g = steps[i]
                    if (s + c * x) % g == 0:
                        yield head + (x,)
                        break
            return
        for x in ladder:
            below = []
            for s, steps in alive:
                c, g = steps[i]
                s += c * x
                if s % g == 0:
                    below.append((s, steps))
            if below:
                yield from walk(i + 1, head + (x,), below, touched or x in rim)

    yield from walk(0, (), alive, width == 1)


# the seed of every query's random stream
_SEED = 20260810


class _Query:
    """One realize query: what is compiled for it once and shared by its
    candidate sources, and what the sources report back (the node
    congruences and diagnostics they reached, the window they explored).
    Every query draws its random candidates from the same fixed seed, so
    its output depends on its arguments alone.  The stream is built on the
    first draw (``stream``): a query whose sources never draw builds none."""

    def __init__(
        self,
        d: SpliceDiagram,  # the blown-down diagram the sources search
        fm: dict[str, int],
        lam: UnityRoot,
        slots: tuple[str, ...],
        effective: bool,
        forms: list[_StarForm],
        node_hits: _NodeHits,
        arrow_hits: _ArrowHits,
        first_draws: tuple[dict[str, int], ...],  # as in the slot tables
        drawn_state: tuple,  # the stream's state after the first draws
        explored: dict[str, int],
    ):
        self.d, self.fm, self.lam, self.slots, self.effective = d, fm, lam, slots, effective
        self.forms, self.node_hits, self.arrow_hits = forms, node_hits, arrow_hits
        self.first_draws, self.drawn_state, self.explored = first_draws, drawn_state, explored
        self.congruences: list[NodeCongruence] = []
        self.diagnostics: list[str] = []
        # the state the stream starts from when it is built, None for the fixed
        # seed's; the stream itself, once built
        self.start: tuple | None = None
        self._rng: random.Random | None = None

    def stream(self) -> random.Random:
        """The query's random stream, built on the first call."""
        if self._rng is None:
            self._rng = random.Random(_SEED)
            if self.start is not None:
                self._rng.setstate(self.start)
        return self._rng


def _arrow_candidates(q: _Query):
    """Arrowheads whose multiplicity the order of lam divides: the double of
    the arrowhead set so that s0 = -i_a/N_a hits lam, on top of a few small
    allowed boundary assignments.  The first arrowhead is the first to draw
    from the query's fresh stream, so it reads its assignments from the
    query's slot tables, and the stream, when a later draw builds it, starts
    from the state they leave it in."""
    for k, (aid, (na, ua)) in enumerate(q.arrow_hits.items()):
        if k:
            bases = _small_allowed_candidates(q.slots, q.forms, q.stream())
        else:
            bases = q.first_draws
            q.start = q.drawn_state
        # W = 0 comes first here when the star filters allow it; when they do
        # not, no W that is 0 off the double of a is allowed, as that double
        # changes no star leg
        for basew in bases:
            for t in range(1, 9) if q.effective else range(8):
                yield basew | {aid: (ua - 1) + na * t}, f"arrow:{aid}"


def _node_candidates(q: _Query):
    """Nodes whose star Alexander polynomial has lam as a root: the solution
    of the congruence nu_v = u (mod N_v) reduced slot by slot, then 80 random
    kernel moves of it, each yielded when it passes the star filters; when
    the solution fails them and a star rejects its whole kernel coset, the
    moves are not tested.  Every node reached leaves its
    congruence on the query, and the reason when it has no candidate."""
    stars = stars_core(q.d, q.fm, {})
    for v in sorted(q.node_hits):
        nv, u, base, coefs = q.node_hits[v]
        try:
            # a star whose F is 0 has N = 0 at its node, which the product refuses
            rootmult = alexander_core(stars[v], stars[v].f_divisor()).root_multiplicity(q.lam)
        except DiagramError:
            rootmult = 0
        q.congruences.append(
            NodeCongruence(
                node=v,
                modulus=nv,
                base=base % nv,
                target=u,
                coefficients={s: c % nv for s, c in zip(q.slots, coefs)},
                reductions=[
                    (m, {s: c % m for s, c in zip(q.slots, coefs)}, (u - base) % m)
                    for m in _prime_power_factors(nv)
                ],
            )
        )
        if rootmult <= 0:
            q.diagnostics.append(f"node {v}: lam is not a root of the star Alexander polynomial")
            continue
        sol = solve_linear_congruence(coefs, u - base, nv)
        if sol is None:
            q.diagnostics.append(f"node {v}: congruence for nu has no solution")
            continue
        # moving a slot by its period keeps nu_v mod N_v: a kernel move
        periods = [nv // gcd(c, nv) if c else 1 for c in coefs]
        # each slot at the residue of least absolute value in its period class
        residues = [x % p for x, p in zip(sol, periods)]
        reduced = [r - p if 2 * r > p else r for r, p in zip(residues, periods)]
        kernel = [[(j, p)] for j, p in enumerate(periods)]  # p_j e_j by slot
        for t in range(80):
            x = reduced
            if t:
                rng = q.stream()
                x = [xi + p * (_below7(rng) - 3) for xi, p in zip(x, periods)]
            if q.effective:
                # the least non-negative value in the period class
                x = [xi % p if xi < 0 else xi for xi, p in zip(x, periods)]
            if _fast_allowed(q.forms, tuple(x)):
                yield dict(zip(q.slots, x)), f"node:{v}"
            elif t == 0 and rejecting_star(q.forms, reduced, kernel) is not None:
                # every move, and its --effective representative, stays in
                # the coset reduced + span(p_j e_j), which a star rejects:
                # the moves are not tested, but their draws are taken all
                # the same, so the nodes after v see the same stream
                _drop7(q.stream(), 79 * len(periods))
                break


def _window_candidates(q: _Query, bound: int, budget: int):
    """The points of the windows |mult| <= width, width by width up to
    ``bound``, that pass the lambda congruences and the star filters;
    ``explored["window"]`` is the width being walked, or, when a star
    rejects every congruence's solutions, the width the walk would end at."""
    if not q.slots:
        return
    k = len(q.slots)
    # a form whose solutions a star rejects everywhere yields no candidate:
    # the walk leaves it out, and skips every shell when no form is left
    hit_forms = [
        (base, coefs, n)
        for base, coefs, n in _hit_forms(q.node_hits, q.arrow_hits, q.slots)
        if _hit_lattice_open(q.forms, coefs, -base, n)
    ]
    if not hit_forms:
        q.explored["window"] = _last_width(k, bound, budget)
        return
    for width in range(1, bound + 1):
        # The budget counts every point of the window, also the ones that
        # --effective never visits: the windows up to this width hold
        # (2 width + 1)^k points.  Width 1 is no exception: its 3^k points
        # are the whole box.
        if (2 * width + 1) ** k > budget:
            return
        q.explored["window"] = width
        for combo in _hit_walk(hit_forms, k, width, q.effective):
            if _fast_allowed(q.forms, combo):
                yield dict(zip(q.slots, combo)), "search"


def _hit_lattice_open(forms: list[_StarForm], coefs, target: int, modulus: int) -> bool:
    """Are the solutions of coefs . x = target (mod modulus) neither absent
    nor rejected everywhere by a star?"""
    lattice = congruence_lattice(coefs, target, modulus)
    if lattice is None:
        return False
    x0, basis = lattice
    return rejecting_star(forms, x0, lattice_columns(basis, len(x0))) is None


def _last_width(k: int, bound: int, budget: int) -> int:
    """The width the window walk ends at when it yields nothing: the
    largest w <= bound whose window of (2w + 1)^k points fits the budget,
    or 0."""
    lo, hi = 0, min(bound, budget)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (2 * mid + 1) ** k <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


def realize_eigenvalue(
    d: SpliceDiagram,
    lam: UnityRoot,
    f: PDivisor | None = None,
    count: int = 1,
    effective: bool = False,
    bound: int | None = None,
    include_doubles: bool = False,
) -> RealizeOutcome:
    """Find allowed W with a certified zeta pole mapping to lam.

    Raises ValueError when count < 1 or bound < 0, DiagramError when
    ``require_valid`` refuses d and NotAnEigenvalueError when lam is outside Eig.
    Otherwise returns
    either realized divisors or the honest bounded-search failure with the
    per-node congruence diagnostics.  The search reads ``blow_down(d)``,
    which keeps the slot tables (``_slot_tables``) of the first query on d
    for each value of ``include_doubles``; the queries after it, at any
    lambda, F, count and bound, read them.
    """
    _check_request(count, bound)
    require_valid(d)
    fm = effective_f(d, f)
    if not eig_core(d, lam, fm):
        raise NotAnEigenvalueError(f"{lam} is not in Eig of this diagram")
    return _realize(d, fm, lam, count, effective, bound, include_doubles)


def _check_request(count: int, bound: int | None):
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if bound is not None and bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")


def _realize(d: SpliceDiagram, fm, lam, count, effective, bound, include_doubles) -> RealizeOutcome:
    """``realize_eigenvalue`` for a checked d, a nonzero F and a lam in Eig."""
    small = blow_down(d)
    slots, forms, rows, draws, state, max_weight = small.memo(
        ("realize slots", include_doubles), _slot_tables, small, include_doubles
    )
    if bound is None:
        bound = 4 * lam.order * max_weight
    node_hits, arrow_hits = _compile_hits(small, fm, lam, rows)
    q = _Query(
        small, fm, lam, slots, effective, forms, node_hits, arrow_hits, draws, state,
        explored={"window": 0, "bound": bound},
    )
    # the sources are pulled in turn, each only while results are missing;
    # a W is certified once, keyed as certify keys its result
    found: list[Realization] = []
    tried: set[tuple] = set()
    for w, source in itertools.chain(
        _arrow_candidates(q), _node_candidates(q), _window_candidates(q, bound, SEARCH_BUDGET)
    ):
        key = tuple(sorted((s, m) for s, m in w.items() if m))
        if key in tried:
            continue
        tried.add(key)
        r = _certify(d, fm, w, lam, source, effective)
        if r is not None:
            found.append(r)
            if len(found) == count:
                break
    if not found:
        q.diagnostics.append(
            f"no allowed divisor within the explored window (|mult| <= {q.explored['window']}, "
            f"requested bound {bound}) produced a pole with exponential {lam}"
        )
    return RealizeOutcome(
        status="realized" if found else "unrealizable-within-bound",
        found=found,
        diagnostics=q.diagnostics,
        congruences=q.congruences,
        explored=q.explored,
    )


def _below7(rng: random.Random) -> int:
    """An int in 0..6 drawn as ``rng.randrange(7)`` draws it: three random
    bits, drawn again while they read 7.  So ``_below7(rng) - 3`` is
    ``rng.randint(-3, 3)`` and ``seq[_below7(rng)]`` is ``rng.choice(seq)``
    for a seq of length 7, on the same stream, in two calls instead of four."""
    r = rng.getrandbits(3)
    while r == 7:
        r = rng.getrandbits(3)
    return r


# the top bytes of the 32-bit words whose top three bits do not read 7
_NOT_SEVEN = bytes(range(0xE0))


def _drop7(rng: random.Random, count: int) -> None:
    """Take ``count`` draws of ``_below7`` from the stream and drop them.
    Each ``getrandbits(3)`` reads the top three bits of one 32-bit word of
    the generator, and ``getrandbits(32 * m)`` reads the next m words whole;
    so m words are drawn at a time, and as many again as they held sevens."""
    while count:
        words = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        count = len(words[3::4].translate(None, _NOT_SEVEN))


def _small_allowed_candidates(slots, forms, rng) -> list[dict[str, int]]:
    """A few small boundary assignments that make the divisor allowed, from
    at most 40 draws."""
    out = []
    if _fast_allowed(forms, (0,) * len(slots)):
        out.append({})
    for _ in range(40):
        x = {s: (0, 0, 1, -2, 2, -3, 3)[_below7(rng)] for s in slots}
        if _fast_allowed(forms, tuple(x.values())):
            out.append({s: m for s, m in x.items() if m})
        if len(out) >= 6:
            break
    return out
