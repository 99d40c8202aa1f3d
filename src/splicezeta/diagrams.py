"""Decorated splice diagrams and plumbing graphs.

A splice diagram is a finite tree whose edges carry a positive integer weight
near each endpoint.  Ordinary arrowheads (``Farrow``) encode components of an
effective divisor F and attach at nodes via a weighted supporting edge; dashed
arrowheads (``Warrow``) encode components of a second divisor W and either sit
at a vertex or double an ordinary arrowhead.  A plumbing graph is a resolution
dual graph: vertices carry self-intersection numbers, all genera are zero.

Plumbing determinants.  Converting a plumbing tree to a splice diagram puts
on the edge near a node v, towards v's neighbour u, the determinant of -I
restricted to the side of u: the component of G - v containing u
(Eisenbud-Neumann).  Root that side at u, and for each vertex x let D_x be
the determinant of x's subtree and E_x = prod D_c over x's children c, the
determinant of that subtree minus x.  Expanding along x's row,

    D_x = (-e_x) E_x - sum_c E_c prod_{c' != c} D_c',

with e_x the self-intersection of x.  One leaf-first pass over the side
gives D_u in integers, in O(|side|) steps, for a zero or negative D as well.

The same pass over a whole forest, each component rooted at its first
vertex, decides the rest in integers.  Eliminating -I leaves first, the
pivot at x is D_x / E_x.  A symmetric matrix is positive definite iff
elimination without pivoting meets only positive pivots.  If every D_x > 0,
every E_x > 0 and so is every pivot.  Otherwise, at the first x in leaf-first
order with D_x <= 0, all of x's children have D_c > 0, so E_x > 0 and the
pivot there is <= 0.  So -I(G) is definite iff every D_x > 0, and det(-I)
is the product of D_r over the roots r.  The solve of -I x = rhs follows the
elimination in integers: with beta_x = E_x times x's eliminated right-hand
side,

    beta_x = rhs_x E_x + sum_c beta_c (E_x / D_c),

leaves first, and then, root first, with x_parent = 0 at a root,

    x_v = (beta_v + x_parent E_v) / D_v.

E_x / D_c is the product of the other children's D, an integer.

Every side from one more pass.  With s_x = sum_c E_c prod_{c' != c} D_c'
kept from the leaf-first pass (D_x = (-e_x) E_x - s_x), the side of v's
child u is u's subtree, D_u, and the side of v's parent p is the tree
minus v's subtree, U_v.  Rooted at p, that side's branches are p's other
children and p's own parent side (determinant U_p; minus its root, V_p;
U = 1 and V = 0 at a root).  With P_p = E_p U_p and S_p = s_p U_p +
V_p E_p, the product of p's branch determinants and the sum of each
branch's E times the other branches' determinants,

    V_v = P_p / D_v,    U_v = (-e_p) V_v - (S_p - E_v V_v) / D_v,

root first.  Both divisions are exact when D_v != 0, as on a definite
tree, so the sides of all edge ends cost O(n) integer steps.  A graph
with a cycle is refused (``DiagramError``): a cycle in the resolution graph
gives the link b1 > 0, so the integral homology sphere links of the paper
have trees, and ``validate_plumbing`` refuses any other graph.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd, prod
from typing import NamedTuple


class DiagramError(ValueError):
    """Structural precondition violated (bad locus, non-tree input, ...)."""


class Edge(NamedTuple):
    a: str
    b: str
    wa: int = 1
    wb: int = 1

    def other(self, v: str) -> str:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise DiagramError(f"vertex {v!r} not on edge {self.key}")

    def weight_at(self, v: str) -> int:
        if v == self.a:
            return self.wa
        if v == self.b:
            return self.wb
        raise DiagramError(f"vertex {v!r} not on edge {self.key}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


class Farrow(NamedTuple):
    """Ordinary arrowhead: one component of F with multiplicity ``mult``."""

    id: str
    at: str
    weight: int = 1
    mult: int = 1


class _WarrowFields(NamedTuple):
    id: str
    value: int
    at: str | None
    doubles: str | None


class Warrow(_WarrowFields):
    """Dashed arrowhead: one component of W with value i (stored mult i-1).

    Exactly one of ``at`` (a vertex id) and ``doubles`` (a farrow id) is set.
    """

    __slots__ = ()

    def __new__(cls, id: str, value: int, at: str | None = None, doubles: str | None = None):
        if (at is None) == (doubles is None):
            raise DiagramError(f"warrow {id!r}: exactly one of at/doubles must be given")
        return super().__new__(cls, id, value, at, doubles)

    @classmethod
    def _make(cls, iterable):
        """As ``Warrow(*iterable)``: ``_replace`` builds through here, so it is checked too."""
        return cls(*iterable)

    @property
    def slot(self) -> str:
        """The W slot this arrow decorates: its vertex or the farrow it doubles."""
        return self.at if self.at is not None else self.doubles


def slot_warrows(wslots, farrow_ids) -> list[Warrow]:
    """One dashed arrow ``~W.<slot>`` of value mult + 1 per (slot, mult) pair
    with mult != 0, in the given order: doubling ``slot`` when it is one of
    ``farrow_ids``, else at the vertex ``slot``."""
    out = []
    for slot, mult in wslots:
        if mult == 0:
            continue
        if slot in farrow_ids:
            out.append(Warrow(id=f"~W.{slot}", value=mult + 1, doubles=slot))
        else:
            out.append(Warrow(id=f"~W.{slot}", value=mult + 1, at=slot))
    return out


class _Decorated:
    """What splice diagrams and plumbing graphs share: vertex ids, the
    adjacency of the underlying graph, ordinary arrowheads (F) and dashed
    arrowheads (W)."""

    def _decorate(self, vids, pairs, farrows, warrows):
        """Check ids and anchors, then index the adjacency and the arrowheads."""
        self.farrows: tuple[Farrow, ...] = tuple(farrows)
        self.warrows: tuple[Warrow, ...] = tuple(warrows)
        vset: set[str] = set()
        for v in vids:
            if v in vset:
                raise DiagramError(f"duplicate id {v!r}")
            vset.add(v)
        self._farrow_by_id = _index_arrowheads(vset, self.farrows, self.warrows)
        self._warrow_by_id = {w.id: w for w in self.warrows}
        self._nbrs: dict[str, list[str]] = {v: [] for v in vids}
        for a, b in pairs:
            if a not in vset or b not in vset:
                raise DiagramError(f"edge {tuple(sorted((a, b)))} touches an unknown vertex")
            if a == b:
                raise DiagramError(f"loop edge at {a!r}")
            self._nbrs[a].append(b)
            self._nbrs[b].append(a)
        self._farrows_at: dict[str, list[Farrow]] = {v: [] for v in vids}
        for a in self.farrows:
            self._farrows_at[a.at].append(a)
        # the dashed arrows by vertex, in order, and the first doubling each arrowhead
        self._warrows_at: dict[str, list[Warrow]] = {}
        self._doubling: dict[str, Warrow] = {}
        for w in self.warrows:
            if w.at is not None:
                self._warrows_at.setdefault(w.at, []).append(w)
            else:
                self._doubling.setdefault(w.doubles, w)
        self._connected: bool | None = None  # is_connected()'s verdict, on first use
        self._own: tuple | None = None  # the stored F and W maps of divisors.is_own, on first use
        self._memo: dict = {}

    def neighbours(self, v: str) -> tuple[str, ...]:
        return tuple(self._nbrs[v])

    def degree(self, v: str) -> int:
        return len(self._nbrs[v])

    def valency_f(self, v: str) -> int:
        """Valency counting ordinary arrowheads (a doubled arrowhead counts once)."""
        return len(self._nbrs[v]) + len(self._farrows_at[v])

    def farrows_at(self, v: str) -> tuple[Farrow, ...]:
        return tuple(self._farrows_at[v])

    def warrows_at(self, v: str) -> tuple[Warrow, ...]:
        return tuple(self._warrows_at.get(v, ()))

    def warrow_doubling(self, farrow_id: str) -> Warrow | None:
        return self._doubling.get(farrow_id)

    def farrow(self, farrow_id: str) -> Farrow:
        try:
            return self._farrow_by_id[farrow_id]
        except KeyError:
            raise DiagramError(f"unknown farrow {farrow_id!r}") from None

    def component_vertices(self, v: str, towards: str) -> list[str]:
        """Vertices of the component of the graph minus v containing
        ``towards``; with v == towards, the component of v itself."""
        return component(self._nbrs, v, towards)

    def is_connected(self) -> bool:
        """One search on first use; the object is immutable, so the verdict
        is kept (a plain attribute, for the reason ``_classes`` gives)."""
        if self._connected is None:
            first = next(iter(self._nbrs), None)
            self._connected = first is not None and len(
                self.component_vertices(first, first)
            ) == len(self._nbrs)
        return self._connected

    def is_tree(self) -> bool:
        return len(self.edges) == len(self._nbrs) - 1 and self.is_connected()

    def memo(self, key, build, *args):
        """``build(*args)``, computed once per key.  The object is immutable,
        so whatever is derived from it alone can be kept with it.  A key
        names a value that needs no F or W, or one at the object's own F and
        W or at W = 0, never at a searched W: the memo holds a fixed set of
        entries."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build(*args)
            return value

    def f_divisor(self) -> dict[str, int]:
        return {a.id: a.mult for a in self.farrows}

    def w_divisor(self) -> dict[str, int]:
        """Stored W as a slot map: slot id -> multiplicity (= value - 1)."""
        out: dict[str, int] = {}
        for w in self.warrows:
            if w.slot in out:
                raise DiagramError(f"two warrows on slot {w.slot!r}")
            out[w.slot] = w.value - 1
        return out


def component(nbrs: dict[str, list[str]], v: str, towards: str) -> list[str]:
    """``component_vertices`` of the graph with these neighbour lists."""
    seen = {v, towards}
    out = [towards]
    stack = [towards]
    while stack:
        for y in nbrs[stack.pop()]:
            if y not in seen:
                seen.add(y)
                out.append(y)
                stack.append(y)
    return out


def _index_arrowheads(vset: set[str], farrows, warrows) -> dict[str, Farrow]:
    """Check that arrowhead ids are new and their anchors known; farrows by id."""
    seen = set(vset)
    by_id: dict[str, Farrow] = {}
    for a in farrows:
        if a.id in seen:
            raise DiagramError(f"duplicate id {a.id!r}")
        seen.add(a.id)
        if a.at not in vset:
            raise DiagramError(f"farrow {a.id!r} at unknown vertex {a.at!r}")
        by_id[a.id] = a
    for w in warrows:
        if w.id in seen:
            raise DiagramError(f"duplicate id {w.id!r}")
        seen.add(w.id)
        if w.at is not None and w.at not in vset:
            raise DiagramError(f"warrow {w.id!r} at unknown vertex {w.at!r}")
        if w.doubles is not None and w.doubles not in by_id:
            raise DiagramError(f"warrow {w.id!r} doubles unknown farrow {w.doubles!r}")
    return by_id


def checked_f(x: _Decorated, fm: dict[str, int]) -> dict[str, int]:
    """fm, refused unless every key is an arrowhead id of x with
    multiplicity >= 0: the F contract, which ``divisors.f_of`` applies."""
    for aid, mult in fm.items():
        if aid not in x._farrow_by_id:
            raise DiagramError(f"F key {aid!r} is not an arrowhead")
        if mult < 0:
            raise DiagramError(f"F multiplicity {mult} at {aid!r} is negative")
    return fm


def _check_farrow_data(farrows):
    for a in farrows:
        if a.weight < 1 or a.mult < 0:
            raise DiagramError(f"farrow {a.id!r}: weight >= 1 and mult >= 0 required")


class SpliceDiagram(_Decorated):
    """Immutable decorated splice diagram."""

    def __init__(self, vertices, edges=(), farrows=(), warrows=()):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in edges
        )
        self._decorate(self.vertices, [(e.a, e.b) for e in self.edges], farrows, warrows)
        _check_farrow_data(self.farrows)
        self._adj: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            self._adj[e.a].append(e)
            self._adj[e.b].append(e)
        self._kinds: tuple | None = None  # _classes(), computed on first use

    # -- structure ---------------------------------------------------------

    def edges_at(self, v: str) -> tuple[Edge, ...]:
        return tuple(self._adj[v])

    def edge(self, a: str, b: str) -> Edge:
        for e in self._adj.get(a, ()):
            if e.other(a) == b:
                return e
        raise DiagramError(f"no edge between {a!r} and {b!r}")

    def is_node(self, v: str) -> bool:
        if len(self.vertices) == 1:
            return True
        return self.valency_f(v) >= 3

    def nodes(self) -> tuple[str, ...]:
        return self._classes()[0]

    def boundary_vertices(self) -> tuple[str, ...]:
        return self._classes()[1]

    def chain_vertices(self) -> tuple[str, ...]:
        """Valency-2 vertices: tolerated in the data model, refused by ``require_valid``."""
        return self._classes()[2]

    def special_edges(self) -> tuple[Edge, ...]:
        """Edges joining two nodes."""
        return self._classes()[3]

    def _classes(self) -> tuple[tuple, tuple, tuple, tuple]:
        """(nodes, boundary vertices, chain vertices, special edges), each in
        the order of the vertices or edges; computed on first use.  (A plain
        attribute: on Python 3.11 the first access of a ``cached_property``
        takes a lock, ~1 us, which shows on diagrams parsed for one command.)"""
        if self._kinds is None:
            nodes, boundary, chains = [], [], []
            for v in self.vertices:
                if self.is_node(v):
                    nodes.append(v)
                elif self.valency_f(v) == 1:
                    boundary.append(v)
                elif self.valency_f(v) == 2:
                    chains.append(v)
            node_set = set(nodes)
            specials = tuple(e for e in self.edges if e.a in node_set and e.b in node_set)
            self._kinds = tuple(nodes), tuple(boundary), tuple(chains), specials
        return self._kinds

    def delta(self, v: str) -> int:
        """Valency with every arrowhead stripped: weight>=2 arrowheads become
        boundary legs, weight-1 arrowheads vanish entirely."""
        return len(self._adj[v]) + sum(1 for a in self._farrows_at[v] if a.weight >= 2)

    # -- paths and linking products ----------------------------------------

    def anchor(self, target: str) -> tuple[str, str | None]:
        """Resolve a target (vertex / farrow / warrow id) to (vertex, arrow edge).

        The first component is the vertex the target hangs at; for a W slot
        (a vertex or a doubled farrow) it is where the dashed arrow sits.  The
        second names the farrow whose supporting edge leads to the target, or
        None when the target is the vertex itself (this includes dashed arrows
        attached at a vertex: their supporting weight is 1 and contributes
        nothing beyond the vertex)."""
        if target in self._nbrs:
            return target, None
        a = self._farrow_by_id.get(target)
        if a is None:
            w = self._warrow_by_id.get(target)
            if w is None:
                raise DiagramError(f"unknown linking target {target!r}")
            if w.doubles is None:
                return w.at, None
            a = self._farrow_by_id[w.doubles]
        return a.at, a.id

    def linking_product(self, v: str, target: str, exclude_edge: Edge | None = None) -> int:
        """Product of weights adjacent to, but not on, the path from v to target.

        All weighted incidences count: edge ends and arrow supporting edges.
        ``exclude_edge`` drops one edge at v from the adjacent set (the
        edge-endpoint variant of the splice formulas) unless it is on the
        path.  One ``linking_sums`` pass of the target's unit vector."""
        at, arrow = self.anchor(target)
        sums = linking_sums(self, {arrow or at: 1})
        if exclude_edge is not None and v in (exclude_edge.a, exclude_edge.b):
            # v's side of the edge, which is 0 exactly when the target lies
            # beyond it, as no weight is 0
            return sums.side(exclude_edge.other(v), v) or sums.at[v]
        return sums.at[v]

    # -- rebuilding ----------------------------------------------------------

    def with_decorations(self, f: dict[str, int] | None = None, w: dict[str, int] | None = None) -> "SpliceDiagram":
        """Copy with farrow multiplicities / warrow records replaced.

        ``f`` maps farrow id -> multiplicity, refused as ``checked_f``
        refuses it; an arrowhead it omits gets multiplicity 0.  ``w`` maps
        slot (vertex id or farrow id) -> multiplicity i-1; slots with
        multiplicity 0 are dropped.
        """
        farrows = self.farrows
        if f is not None:
            checked_f(self, f)
            farrows = [Farrow(a.id, a.at, a.weight, f.get(a.id, 0)) for a in farrows]
        warrows = self.warrows if w is None else slot_warrows(sorted(w.items()), self._farrow_by_id)
        return SpliceDiagram(self.vertices, self.edges, farrows, warrows)

    def __repr__(self):
        return (
            f"SpliceDiagram(vertices={len(self.vertices)}, edges={len(self.edges)}, "
            f"farrows={len(self.farrows)}, warrows={len(self.warrows)})"
        )


# ---------------------------------------------------------------------------
# validation


class Violation(NamedTuple):
    kind: str
    where: str
    detail: str

    def __str__(self):
        return f"[{self.kind}] {self.where}: {self.detail}"


class ValidationReport(NamedTuple):
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: str, detail: str):
        self.violations.append(Violation(kind, where, detail))

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


class Sums(NamedTuple):
    """The linking sums of one map c (vertex or arrowhead id -> int): ``at``
    holds S(v) = sum of c_t l(v, t) at every vertex, in the order of the
    diagram's vertices, and ``side(v, n)`` the same sum over n's side of the
    edge v-n, with the edge excluded at n."""

    at: dict[str, int]
    side: Callable[[str, str], int]


def linking_sums(d: SpliceDiagram, c: dict[str, int]) -> Sums:
    """The ``Sums`` of the map c, from one leaf-first and one root-first
    sweep over the traversal kept on d (the formulas are in the
    ``divisors`` module docstring).  Refuses a d that is empty, not a tree
    or has a zero weight."""
    index, links, leaves_first, parent, terms, _ = d.memo(("linking traversal",), _linking_traversal, d)
    acc = [0] * len(parent)
    for t, ct in c.items():
        i, p = terms[t]
        acc[i] += ct * p
    down = acc[:]  # side(j, i), leaves first
    for i, j, wi, fj in leaves_first:
        down[i] = s = acc[i] // wi
        acc[j] += fj * s
    up = acc[:]  # side(i, j), root first: S(j) less i's term
    for i, j, fi, fj, wj in links:
        up[i] = s = (acc[j] - fj * down[i]) // wj
        acc[i] += fi * s

    def side(v: str, n: str) -> int:
        i, j = index[n], index[v]
        return down[i] if parent[i] == j else up[j]

    return Sums(dict(zip(d.vertices, acc)), side)


def carries_arrowheads(d: SpliceDiagram, v: str, n: str) -> bool:
    """Whether n's side of the edge v-n carries arrowheads, read off the
    counts the linking traversal keeps (refused as ``linking_sums`` is)."""
    index, _, _, parent, _, below = d.memo(("linking traversal",), _linking_traversal, d)
    i, j = index[n], index[v]
    return bool(below[i] if parent[i] == j else below[0] - below[j])


def _linking_traversal(d: SpliceDiagram):
    """What ``linking_sums`` reads of d whatever the map, each vertex by its
    index in d's vertices: the index; the links in search order from the
    first vertex, parents first, as (i, its parent j, P_i / d_i(j),
    P_j / d_j(i), d_j(i)), and leaves first as (i, j, d_i(j), P_j / d_j(i));
    each vertex's parent (-1 at the root); each target's index and factor,
    P_x for a vertex x (the product of every weight at x) and P_x / d_a for
    an arrowhead a at x; and the number of arrowheads at or below each
    vertex."""
    prods = dict.fromkeys(d.vertices, 1)
    for a in d.farrows:
        prods[a.at] *= a.weight
    for e in d.edges:
        prods[e.a] *= e.wa
        prods[e.b] *= e.wb
    if not d.is_tree() or not all(prods.values()):
        raise DiagramError("linking sums need a tree with nonzero weights")
    index = {v: i for i, v in enumerate(d.vertices)}
    terms = {x: (index[x], p) for x, p in prods.items()}
    below = [0] * len(index)
    for a in d.farrows:
        terms[a.id] = index[a.at], prods[a.at] // a.weight
        below[index[a.at]] += 1
    parent = [-1] + [None] * (len(index) - 1)
    links, downs, order = [], [], [d.vertices[0]]
    for x in order:
        j = index[x]
        for e in d._adj[x]:
            y, wx, wy = (e.b, e.wa, e.wb) if e.a == x else (e.a, e.wb, e.wa)
            i = index[y]
            if parent[i] is None:
                parent[i], fj = j, prods[x] // wx
                links.append((i, j, prods[y] // wy, fj, wx))
                downs.append((i, j, wy, fj))
                order.append(y)
    downs.reverse()
    for i, j, _, _ in downs:
        below[j] += below[i]
    return index, links, downs, parent, terms, below


def edge_determinant(d: SpliceDiagram, e: Edge) -> int:
    """q_e = d_ve * d_we - (product of all other weights at both end nodes)."""
    if not (d.is_node(e.a) and d.is_node(e.b)):
        raise DiagramError(f"edge {e.key} is not special (must join two nodes)")
    rest = 1
    for x, y in ((e.a, e.b), (e.b, e.a)):
        for f in d._adj[x]:
            if f.a != y and f.b != y:
                rest *= f.wa if f.a == x else f.wb
        for a in d._farrows_at[x]:
            rest *= a.weight
    return e.wa * e.wb - rest


def edge_determinants(d: SpliceDiagram) -> tuple[int, ...]:
    """q_e of every special edge, in ``special_edges`` order; computed once
    per diagram and kept on it, for ``validate`` and the zeta plan alike."""
    return d.memo(("edge determinants",), _edge_determinants, d)


def _edge_determinants(d: SpliceDiagram) -> tuple[int, ...]:
    return tuple(edge_determinant(d, e) for e in d.special_edges())


def validate(d: SpliceDiagram) -> ValidationReport:
    """Check every diagram invariant; violations are data, not exceptions.
    The violations are found once per diagram and kept on it; each call
    gets a report of its own."""
    return ValidationReport(list(d.memo(("validate",), _validate, d).violations))


def require_valid(x: SpliceDiagram | PlumbingGraph):
    """Refuse a splice diagram that is not a tree or has a valency-2 vertex,
    or a diagram or graph with a violation that does not depend on W: every
    public math function calls this once, where input enters.  The
    W-dependent kinds (warrow, arrow-data) are left to the verdicts that
    judge a W: a star piece carries induced dashed arrows with i = 0, and
    its allowedness verdict is False, not a refusal."""
    if isinstance(x, PlumbingGraph):
        rep, what = x.memo(("invariants",), _plumbing_invariants, x), "plumbing graph"
    elif not x.is_tree():
        raise DiagramError("diagram is not a connected tree")
    elif chains := x.chain_vertices():
        raise DiagramError(f"valency-2 vertices present ({', '.join(chains)})")
    else:
        rep, what = x.memo(("invariants",), _invariants, x), "splice diagram"
    if not rep.ok:
        raise DiagramError(f"invalid {what}\n{rep}")


def _validate(d: SpliceDiagram) -> ValidationReport:
    rep = ValidationReport(list(d.memo(("invariants",), _invariants, d).violations))
    if not d.is_tree():
        return rep
    # at most one warrow per boundary vertex and per slot
    slot_seen: dict[str, str] = {}
    for w in d.warrows:
        slot = w.slot
        if slot in slot_seen:
            rep.add("warrow", w.id, f"slot {slot!r} already carries warrow {slot_seen[slot]!r}")
        slot_seen[slot] = w.id
        if w.at is not None and not d.is_node(w.at) and d.valency_f(w.at) != 1:
            rep.add("warrow", w.id, f"attached at valency-2 vertex {w.at!r}")
    _check_arrow_data(d, rep)
    return rep


def _invariants(d: SpliceDiagram) -> ValidationReport:
    """The violations that do not depend on W: structure, weight, farrow,
    coprimality and edge-determinant."""
    rep = ValidationReport([])
    if not d.vertices:
        rep.add("structure", "-", "empty diagram")
        return rep
    if not d.is_tree():
        rep.add("structure", "-", "underlying graph is not a connected tree")
        return rep
    for e in d.edges:
        if e.wa < 1 or e.wb < 1:
            rep.add("weight", f"edge {e.key}", f"weights ({e.wa},{e.wb}) must be >= 1")
    for a in d.farrows:
        if not d.is_node(a.at):
            rep.add("farrow", a.id, f"attached at non-node vertex {a.at!r}")
    # pairwise coprime weights at every node
    for v in d.nodes():
        weights = [e.weight_at(v) for e in d.edges_at(v)] + [
            a.weight for a in d.farrows_at(v)
        ]
        for i in range(len(weights)):
            for j in range(i + 1, len(weights)):
                if gcd(weights[i], weights[j]) != 1:
                    rep.add(
                        "coprimality",
                        f"node {v}",
                        f"weights {weights[i]} and {weights[j]} share a factor",
                    )
    # positive edge determinants
    for e, q in zip(d.special_edges(), edge_determinants(d)):
        if q <= 0:
            rep.add("edge-determinant", f"edge {e.key}", f"q_e = {q} <= 0")
    return rep


def _check_arrow_data(x: _Decorated, rep: ValidationReport):
    """(N_a, i_a) != (0, 0) at every arrowhead, i != 0 on every pure dashed arrow."""
    for a in x.farrows:
        dbl = x.warrow_doubling(a.id)
        i_a = dbl.value if dbl is not None else 1
        if a.mult == 0 and i_a == 0:
            rep.add("arrow-data", a.id, "(N, i) = (0, 0)")
    for w in x.warrows:
        if w.at is not None and w.value == 0:
            rep.add("arrow-data", w.id, "pure dashed arrow with i = 0")


# ---------------------------------------------------------------------------
# blow-down


def blow_down(d: SpliceDiagram) -> SpliceDiagram:
    """d with its generic-point blowups undone: again and again, a boundary
    vertex x with no arrowhead and no dashed arrow, whose edge has weight 1
    at a node n with no dashed arrow, is deleted.  Should n stop being a
    node, x stays, unless n is left with two edges and no arrowhead: then n
    and both edges become one edge joining its neighbours, with their own
    end weights.  Such an x is a (-1)-curve blown up at a generic point,
    which leaves Z and allowedness unchanged when W is 0 on it
    (Eisenbud-Neumann 1985).  Surviving vertices and arrowheads keep their
    ids, so a W on the result is a W on d, lifted by zeros.  Returns d
    itself when nothing applies; the result is kept on d."""
    return d.memo(("blow down",), _blow_down, d)


def _blow_down(d: SpliceDiagram) -> SpliceDiagram:
    # v -> {u: the weight at v of the edge vu}, as the deletions leave it
    nbrs: dict[str, dict[str, int]] = {v: {} for v in d.vertices}
    for e in d.edges:
        nbrs[e.a][e.b], nbrs[e.b][e.a] = e.wa, e.wb
    dashed = {w.at for w in d.warrows}
    arrows = {a.at for a in d.farrows}
    changed = True
    while changed:
        changed = False
        for x in d.vertices:
            if x not in nbrs or len(nbrs[x]) != 1 or x in arrows or x in dashed:
                continue
            (n,) = nbrs[x]
            valency = len(nbrs[n]) + len(d.farrows_at(n))
            if nbrs[n][x] != 1 or n in dashed or valency < 3:
                continue
            if valency == 3:
                if n in arrows:
                    continue
                a, b = (y for y in nbrs[n] if y != x)
                nbrs[a][b] = nbrs[a].pop(n)
                nbrs[b][a] = nbrs[b].pop(n)
                del nbrs[n]
            else:
                del nbrs[n][x]
            del nbrs[x]
            changed = True
    if len(nbrs) == len(d.vertices):
        return d
    edges = [e for e in d.edges if e.a in nbrs and e.b in nbrs]
    keys = {e.key for e in edges}
    edges += [
        Edge(a, b, nbrs[a][b], nbrs[b][a])
        for a in nbrs
        for b in nbrs[a]
        if a < b and (a, b) not in keys
    ]
    vertices = [v for v in d.vertices if v in nbrs]
    return SpliceDiagram(vertices, edges, d.farrows, d.warrows)


# ---------------------------------------------------------------------------
# plumbing graphs


class PVertex(NamedTuple):
    id: str
    self_int: int


class PlumbingGraph(_Decorated):
    """Resolution dual graph: genus-0 vertices with self-intersections."""

    def __init__(self, vertices, edges=(), farrows=(), warrows=()):
        self.vertices: tuple[PVertex, ...] = tuple(
            v if isinstance(v, PVertex) else PVertex(*v) for v in vertices
        )
        self.edges: tuple[tuple[str, str], ...] = tuple(
            tuple(sorted(e)) for e in edges
        )
        farrows = [a if isinstance(a, Farrow) else Farrow(*a) for a in farrows]
        self._decorate([v.id for v in self.vertices], self.edges, farrows, warrows)
        self._index = {v.id: i for i, v in enumerate(self.vertices)}

    def self_int(self, v: str) -> int:
        return self.vertices[self._index[v]].self_int

    def _bfs_tree(self, roots) -> list[tuple[str, str | None]]:
        """(vertex, parent) pairs, breadth first from each root not reached
        yet; a root's parent is None.  Every vertex comes after its parent,
        so the reverse order goes leaves first."""
        tree: list[tuple[str, str | None]] = []
        seen = set()
        for r in roots:
            if r in seen:
                continue
            seen.add(r)
            k = len(tree)
            tree.append((r, None))
            while k < len(tree):
                x = tree[k][0]
                for y in self._nbrs[x]:
                    if y not in seen:
                        seen.add(y)
                        tree.append((y, x))
                k += 1
        return tree

    def _tree_pass(self, tree: list[tuple[str, str | None]]) -> tuple[dict, dict, dict]:
        """D_x, E_x and s_x at every vertex of the forest spanned by a
        ``_bfs_tree``, which must have no other edges, by the leaf-first
        recurrence of the module docstring."""
        d: dict[str, int] = {}
        e: dict[str, int] = {}  # E_x: product of D_c over x's children so far
        s: dict[str, int] = {}  # sum over those c of E_c times the other D_c'
        for x, parent in reversed(tree):
            ex = e.setdefault(x, 1)
            dx = d[x] = -self.self_int(x) * ex - s.setdefault(x, 0)
            if parent is not None:
                ep = e.get(parent, 1)
                s[parent] = s.get(parent, 0) * dx + ex * ep
                e[parent] = ep * dx
        return d, e, s

    @cached_property
    def _forest(self) -> tuple[list, dict[str, int], dict[str, int], dict[str, int]]:
        """(tree, D, E, s) of the leaf-first pass over the whole graph,
        computed once per graph; a graph with a cycle is refused."""
        tree = self._bfs_tree([v.id for v in self.vertices])
        components = sum(1 for _, parent in tree if parent is None)
        if len(self.edges) != len(self.vertices) - components:
            raise DiagramError("plumbing graph has a cycle")
        return (tree, *self._tree_pass(tree))

    def _side_dets(self) -> dict[tuple[str, str], int]:
        """(v, u) -> det(-I) of the component of G - v containing u, for
        both ends of every edge of a negative definite forest: the forest
        pass and one root-first pass (see the module docstring)."""
        tree, d, e, s = self._forest
        whole: dict[str, tuple[int, int]] = {}  # x -> (P_x, S_x)
        sides: dict[tuple[str, str], int] = {}
        for x, p in tree:
            ex = e[x]
            if p is None:
                whole[x] = (ex, s[x])
                continue
            dx = d[x]
            pp, sp = whole[p]
            vx = pp // dx
            ux = -self.self_int(p) * vx - (sp - ex * vx) // dx
            sides[p, x] = dx
            sides[x, p] = ux
            whole[x] = (ex * ux, s[x] * ux + vx * ex)
        return sides

    def det_minus_I(self) -> int:
        """det(-I(G)): the product of D at the roots of the forest pass."""
        tree, d = self._forest[:2]
        return prod(d[x] for x, parent in tree if parent is None)

    def is_negative_definite(self) -> bool:
        """Every D_x of the forest pass is positive."""
        return all(dx > 0 for dx in self._forest[1].values())

    def solve_minus_I(self, rhs: dict[str, int]) -> dict[str, int | Fraction]:
        """x with -I(G) x = rhs (one entry per vertex), by the beta_x and x_v
        recurrences of the module docstring: an int where x_v is integral,
        a ``Fraction`` only where it is not."""
        if not self.is_negative_definite():
            raise DiagramError("plumbing graph is not negative definite")
        tree, d, e, _ = self._forest
        beta: dict[str, int] = {}  # sum over x's children c of beta_c E_x / D_c, then beta_x
        for x, parent in reversed(tree):
            bx = beta[x] = rhs[x] * e[x] + beta.get(x, 0)
            if parent is not None:
                beta[parent] = beta.get(parent, 0) + bx * (e[parent] // d[x])
        # x_v as a reduced (num, den); keyed in vertex order from the start
        sol: dict[str, tuple[int, int]] = dict.fromkeys(self._index)
        for x, parent in tree:
            pn, pq = (0, 1) if parent is None else sol[parent]
            n, q = beta[x] * pq + pn * e[x], pq * d[x]
            g = gcd(n, q)
            sol[x] = (n // g, q // g)
        return {x: n if q == 1 else Fraction(n, q) for x, (n, q) in sol.items()}

    def is_unimodular(self) -> bool:
        return self.is_negative_definite() and self.det_minus_I() == 1

    def __repr__(self):
        return (
            f"PlumbingGraph(vertices={len(self.vertices)}, edges={len(self.edges)}, "
            f"farrows={len(self.farrows)})"
        )


def validate_plumbing(g: PlumbingGraph, require_unimodular: bool = False) -> ValidationReport:
    """``validate`` for a plumbing graph, kept on the graph the same way."""
    rep = g.memo(("validate", require_unimodular), _validate_plumbing, g, require_unimodular)
    return ValidationReport(list(rep.violations))


def _validate_plumbing(g: PlumbingGraph, require_unimodular: bool) -> ValidationReport:
    rep = ValidationReport(list(g.memo(("invariants",), _plumbing_invariants, g).violations))
    if not rep.ok:
        return rep
    det = g.det_minus_I()
    if require_unimodular and det != 1:
        rep.add("determinant", "-", f"det(-I) = {det} != 1 (not an IHS link)")
    for w in g.warrows:
        if w.at is not None and g.valency_f(w.at) > 1:
            rep.add("warrow", w.id, f"attached at {w.at!r} which is not a boundary component")
    _check_arrow_data(g, rep)
    return rep


def _plumbing_invariants(g: PlumbingGraph) -> ValidationReport:
    """The violations that depend on neither W nor unimodularity: structure
    (the first found) and definiteness."""
    rep = ValidationReport([])
    if not g.vertices:
        rep.add("structure", "-", "empty graph")
    elif not g.is_connected():
        rep.add("structure", "-", "graph is not connected")
    elif not g.is_tree():
        rep.add("structure", "-", "graph has a cycle (genus-0 IHS links are trees)")
    elif not g.is_negative_definite():
        rep.add("definiteness", "-", "-I(G) is not positive definite")
    return rep


# ---------------------------------------------------------------------------
# plumbing -> splice conversion


def plumbing_to_splice(g: PlumbingGraph) -> SpliceDiagram:
    """Collapse strings to weighted edges; near-node weights are det(-I) of the
    subtree cut off in that direction; arrowheads on strings become
    node-supported arrowheads with the string determinant as weight.

    Every weight is read from one table of side determinants, the forest
    pass and one root-first pass over the whole graph (see the module
    docstring), so a conversion costs O(n) integer steps per graph and never
    forms a matrix.  Refuses graphs that are disconnected, not trees, or not
    unimodular and negative definite.  The diagram is built once per graph
    and kept on it, so every caller shares it (and its own memo)."""
    return g.memo(("splice diagram",), _plumbing_to_splice, g)


def _plumbing_to_splice(g: PlumbingGraph) -> SpliceDiagram:
    if not g.is_connected():
        raise DiagramError("disconnected plumbing graph")
    if not g.is_tree():
        raise DiagramError("plumbing graph is not a tree")
    if not g.is_unimodular():
        raise DiagramError(
            "splice calculus requires an unimodular negative-definite graph"
        )
    node_ids = [v.id for v in g.vertices if g.valency_f(v.id) >= 3]
    if not node_ids:
        return _degenerate_splice(g)
    vertices: list[str] = list(node_ids)
    edges: list[Edge] = []
    farrows: list[Farrow] = []
    warrow_out: list[Warrow] = []
    done_pairs: set[tuple[str, str]] = set()
    nodes = set(node_ids)
    side = g._side_dets()

    def walk(v: str, first: str) -> tuple[list[str], str | None]:
        """Follow the string from v through first; return (chain, end node or None)."""
        chain = []
        prev, cur = v, first
        while cur not in nodes:
            chain.append(cur)
            nxt = [x for x in g.neighbours(cur) if x != prev]
            if not nxt:
                return chain, None
            prev, cur = cur, nxt[0]
        return chain, cur

    def check_interior(interior: list[str]):
        for x in interior:
            if g.farrows_at(x) or g.warrows_at(x):
                raise DiagramError(f"decoration on string-interior vertex {x!r}")

    for v in node_ids:
        for u in g.neighbours(v):
            chain, end = walk(v, u)
            if end is not None:
                pair = tuple(sorted((v, end)))
                if pair in done_pairs:
                    continue
                done_pairs.add(pair)
                check_interior(chain)
                wb = side[end, chain[-1] if chain else v]
                edges.append(Edge(v, end, side[v, u], wb))
            else:
                check_interior(chain[:-1])
                det = side[v, u]
                tip = chain[-1]
                tip_arrows = g.farrows_at(tip)
                if tip_arrows:
                    # boundary vertex with an arrowhead becomes a node arrowhead
                    a = tip_arrows[0]
                    farrows.append(Farrow(id=a.id, at=v, weight=det, mult=a.mult))
                    if shared := g.warrows_at(tip):
                        raise DiagramError(
                            f"warrow {shared[0].id!r} shares boundary component with {a.id!r}"
                        )
                else:
                    vertices.append(tip)
                    edges.append(Edge(v, tip, det, 1))
                    warrow_out += (Warrow(w.id, w.value, at=tip) for w in g.warrows_at(tip))
    for v in node_ids:
        for a in g.farrows_at(v):
            farrows.append(Farrow(id=a.id, at=v, weight=1, mult=a.mult))
        if dashed := g.warrows_at(v):
            raise DiagramError(f"warrow {dashed[0].id!r} attached at a rupture vertex")
    for w in g.warrows:
        if w.doubles is not None:
            warrow_out.append(w)
    return SpliceDiagram(vertices, edges, farrows, warrow_out)


def _degenerate_splice(g: PlumbingGraph) -> SpliceDiagram:
    """No rupture vertex: the graph is a chain.  Supported when all arrows sit
    at one vertex (the link is S^3 and every arrow component is an unknot
    fiber); the result is a single-vertex diagram."""
    carriers = {a.at for a in g.farrows} | {w.at for w in g.warrows if w.at}
    if len(carriers) > 1:
        raise DiagramError(
            "degenerate chain with decorations at several vertices is unsupported"
        )
    v = next(iter(carriers)) if carriers else g.vertices[0].id
    farrows = [Farrow(id=a.id, at=v, weight=1, mult=a.mult) for a in g.farrows]
    warrows = []
    for w in g.warrows:
        if w.doubles is not None:
            warrows.append(w)
        elif w.at is not None:
            warrows.append(Warrow(id=w.id, value=w.value, at=v))
    return SpliceDiagram([v], [], farrows, warrows)


# ---------------------------------------------------------------------------
# blowup calculus


def blowup(g: PlumbingGraph, locus) -> PlumbingGraph:
    """Blow up a generic point of a vertex, an edge, or an arrow incidence.

    ``locus`` is ``("vertex", v)``, ``("edge", (a, b))`` or ``("arrow", id)``.
    """
    kind, what = locus
    verts = {v.id: v.self_int for v in g.vertices}
    edges, farrows, warrows = list(g.edges), list(g.farrows), list(g.warrows)
    if kind == "vertex":
        if what not in verts:
            raise DiagramError(f"unknown vertex {what!r}")
    elif kind == "edge":
        a, b = sorted(what)
        if (a, b) not in edges:
            raise DiagramError(f"unknown edge ({a}, {b})")
        what = edges.index((a, b))
    elif kind == "arrow":
        if what in g._farrow_by_id:
            kind, what = "farrow", [x.id for x in farrows].index(what)
        elif what in [x.id for x in warrows if x.at is not None]:
            kind, what = "warrow", [x.id for x in warrows].index(what)
        else:
            raise DiagramError(f"unknown arrow {what!r}")
    else:
        raise DiagramError(f"unknown blowup locus kind {kind!r}")
    new = next(f"b{i}" for i in count() if f"b{i}" not in verts)
    blowup_step(verts, edges, farrows, warrows, kind, what, new)
    return PlumbingGraph([PVertex(v, s) for v, s in verts.items()], edges, farrows, warrows)


def blowup_step(verts: dict[str, int], edges, farrows, warrows, kind: str, at, new: str) -> None:
    """The blowup rule, in place on a graph's lists: ``verts`` maps each
    vertex id to its self-intersection, in vertex order.  ``at`` is the
    vertex id (``kind`` "vertex") or the index of the edge, farrow or
    warrow at a vertex (``kind`` "edge", "farrow", "warrow") blown up.  The
    new (-1)-curve ``new`` goes last, its edges after the others, and a
    moved arrowhead after the others of its kind."""
    # the vertices the new -1 curve meets, each losing 1 of self-intersection
    if kind == "vertex":
        met = [at]
    elif kind == "edge":
        met = list(edges.pop(at))
    elif kind == "farrow":
        a = farrows.pop(at)
        met = [a.at]
        farrows.append(Farrow(id=a.id, at=new, weight=1, mult=a.mult))
    else:
        w = warrows.pop(at)
        met = [w.at]
        warrows.append(Warrow(id=w.id, value=w.value, at=new))
    for v in met:
        verts[v] -= 1
    verts[new] = -1
    edges.extend(tuple(sorted((v, new))) for v in met)
