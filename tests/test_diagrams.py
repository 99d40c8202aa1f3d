"""Diagram model: validation, determinants, linking products, conversion, blowup."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from splicezeta import cli
from splicezeta.corpus import (
    smooth_point_plumbing,
    two_cusp_diagram,
    two_cusp_plumbing,
    unimodular_counterexample_plumbing,
)
from splicezeta.diagrams import (
    DiagramError,
    Edge,
    Farrow,
    PlumbingGraph,
    PVertex,
    SpliceDiagram,
    Warrow,
    _degenerate_splice,
    blow_down,
    blowup,
    edge_determinant,
    plumbing_to_splice,
    require_valid,
    validate,
    validate_plumbing,
)
from splicezeta.divisors import vertex_multiplicities
from splicezeta.generate import random_plumbing
from splicezeta.io import parse_diagram, print_plumbing
from splicezeta.zeta import zeta_plumbing, zeta_splice
from linking_oracle import pairwise_linking_product
from zeta_oracle import func

CORPUS = Path(__file__).resolve().parent.parent / "src" / "splicezeta" / "corpus"


def test_validate_running_example():
    assert validate(two_cusp_diagram()).ok


def test_validate_coprimality():
    d = SpliceDiagram(
        ["v", "b1", "b2", "b3"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 4, 1), Edge("v", "b3", 3, 1)],
        [Farrow(id="a", at="v", weight=1, mult=1)],
    )
    rep = validate(d)
    assert not rep.ok
    assert any(v.kind == "coprimality" for v in rep.violations)


def test_validate_edge_determinant_negative():
    # two (2,3)-nodes joined by a (1,1)-edge: q = 1 - 36 < 0
    d = SpliceDiagram(
        ["v", "w", "b1", "b2", "c1", "c2"],
        [
            Edge("v", "w", 1, 1),
            Edge("v", "b1", 2, 1),
            Edge("v", "b2", 3, 1),
            Edge("w", "c1", 2, 1),
            Edge("w", "c2", 3, 1),
        ],
    )
    rep = validate(d)
    assert not rep.ok
    assert any(v.kind == "edge-determinant" for v in rep.violations)
    assert edge_determinant(d, d.edge("v", "w")) == 1 - 36


def test_validate_arrow_zero_pair():
    d = SpliceDiagram(
        ["v", "b1", "b2"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1)],
        [Farrow(id="a", at="v", weight=1, mult=0)],
        [Warrow(id="w", value=0, doubles="a")],
    )
    rep = validate(d)
    assert any(v.kind == "arrow-data" for v in rep.violations)


def test_edge_determinant_golden():
    d = two_cusp_diagram()
    assert edge_determinant(d, d.edge("v1", "v0")) == 7 * 1 - (2 * 3) * 1
    with pytest.raises(DiagramError):
        edge_determinant(d, d.edge("v1", "bL"))


def test_edge_determinant_minimal_cases():
    # bare (1,1)-edge between arrow-only nodes: q = 1 - 1 = 0 (flagged invalid)
    d = SpliceDiagram(["v", "w"], [Edge("v", "w", 1, 1)], [
        Farrow(id="a", at="v", weight=1, mult=1),
        Farrow(id="b", at="v", weight=1, mult=1),
        Farrow(id="c", at="w", weight=1, mult=1),
        Farrow(id="e", at="w", weight=1, mult=1),
    ])
    assert edge_determinant(d, d.edge("v", "w")) == 0
    assert not validate(d).ok
    # smallest positive case: one decorated side
    d2 = SpliceDiagram(
        ["v", "w", "b1", "b2"],
        [Edge("v", "w", 7, 1), Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1)],
        [
            Farrow(id="a", at="w", weight=1, mult=1),
            Farrow(id="b", at="w", weight=1, mult=1),
        ],
    )
    assert edge_determinant(d2, d2.edge("v", "w")) == 7 - 6


def test_edge_determinant_after_conversion():
    d = plumbing_to_splice(two_cusp_plumbing())
    for e in d.special_edges():
        assert edge_determinant(d, e) == 1


def test_linking_product_golden():
    d = two_cusp_diagram()
    assert d.linking_product("v1", "a0") == 6
    assert d.linking_product("v1", "v1p") == 36
    assert d.linking_product("v0", "a0") == 1
    # l_vv is the full weight product at the vertex
    star = SpliceDiagram(
        ["v", "b1", "b2", "b3"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("v", "b3", 7, 1)],
    )
    assert star.linking_product("v", "v") == 42


def test_plumbing_to_splice_golden():
    d = plumbing_to_splice(two_cusp_plumbing())
    assert validate(d).ok
    assert set(d.nodes()) == {"e2", "e3", "e4"}
    e = d.edge("e2", "e3")
    assert {e.weight_at("e2"), e.weight_at("e3")} == {7, 1}
    legs = sorted(
        x.weight_at(v)
        for v in ("e2", "e4")
        for x in d.edges_at(v)
        if not d.is_node(x.other(v))
    )
    assert legs == [2, 2, 3, 3]
    (a,) = d.farrows
    assert a.at == "e3" and a.weight == 1 and a.mult == 1


def test_plumbing_to_splice_single_vertex():
    d = plumbing_to_splice(smooth_point_plumbing())
    assert len(d.vertices) == 1 and len(d.farrows) == 1
    assert d.farrows[0].weight == 1


def test_plumbing_to_splice_string_determinant():
    # the (-2,-1,-3) string of the unimodular counterexample has determinant 1
    d = plumbing_to_splice(unimodular_counterexample_plumbing(1))
    e = d.edge("u2", "u3")
    assert e.weight_at("u3") == 1
    assert e.weight_at("u2") == 37
    # the right-end (-2) becomes the arrowhead support of weight 2
    (a,) = d.farrows
    assert a.at == "u3" and a.weight == 2


def test_plumbing_to_splice_requires_unimodular():
    from splicezeta.corpus import rodrigues_plumbing

    with pytest.raises(DiagramError):
        plumbing_to_splice(rodrigues_plumbing())


def test_blowup_generic_point():
    g = PlumbingGraph([PVertex("e", -1)], [], [])
    g2 = blowup(g, ("vertex", "e"))
    assert sorted(v.self_int for v in g2.vertices) == [-2, -1]
    assert len(g2.edges) == 1
    assert g2.is_unimodular()


def test_blowup_edge():
    g = PlumbingGraph([PVertex("a", -1), PVertex("b", -2)], [("a", "b")])
    g2 = blowup(g, ("edge", ("a", "b")))
    ints = {v.id: v.self_int for v in g2.vertices}
    assert ints["a"] == -2 and ints["b"] == -3
    assert any(v.self_int == -1 for v in g2.vertices if v.id not in ("a", "b"))
    assert len(g2.edges) == 2


def test_blowup_arrow_and_conversion_shape():
    g = two_cusp_plumbing()
    # boundary-curve blowup leaves the splice diagram shape unchanged
    g1 = blowup(g, ("vertex", "e1"))
    d1 = plumbing_to_splice(g1)
    assert validate(d1).ok and len(d1.nodes()) == 3
    # generic point of a valency-2 string vertex: its curve becomes a node
    # carrying a fresh weight-1 leg
    g2 = blowup(g, ("edge", ("e1", "e2")))  # creates a -1 string vertex first
    mid = [v.id for v in g2.vertices if v.id not in {x.id for x in g.vertices}][0]
    g2 = blowup(g2, ("vertex", mid))
    d2 = plumbing_to_splice(g2)
    assert validate(d2).ok
    assert mid in d2.nodes()
    legs = [e for e in d2.edges_at(mid) if not d2.is_node(e.other(mid))]
    assert any(e.weight_at(mid) == 1 for e in legs)
    # arrow incidence blowup keeps the link and moves the arrow
    g3 = blowup(g, ("arrow", "a0"))
    assert g3.is_unimodular()
    (a,) = [x for x in g3.farrows if x.id == "a0"]
    assert a.at != "e3"


def test_blowup_refusals():
    g = PlumbingGraph(
        [PVertex("a", -1), PVertex("b", -2)],
        [("a", "b")],
        [Farrow(id="q", at="a")],
        [Warrow(id="w", value=2, doubles="q")],
    )
    for locus, message in (
        (("vertex", "c"), "unknown vertex 'c'"),
        (("edge", ("b", "c")), "unknown edge (b, c)"),
        (("arrow", "z"), "unknown arrow 'z'"),
        (("arrow", "w"), "unknown arrow 'w'"),  # a doubling arrow has no incidence
        (("face", "a"), "unknown blowup locus kind 'face'"),
    ):
        with pytest.raises(DiagramError) as info:
            blowup(g, locus)
        assert str(info.value) == message


def test_blowup_moves_a_dashed_arrow_at_a_vertex():
    g = PlumbingGraph(
        [PVertex("a", -1), PVertex("b0", -2)],
        [("a", "b0")],
        [Farrow(id="q", at="a")],
        [Warrow(id="w", value=2, at="b0"), Warrow(id="v", value=3, doubles="q")],
    )
    g2 = blowup(g, ("arrow", "w"))
    assert [(v.id, v.self_int) for v in g2.vertices] == [("a", -1), ("b0", -3), ("b1", -1)]
    assert g2.edges == (("a", "b0"), ("b0", "b1"))
    assert g2.farrows == g.farrows
    assert g2.warrows == (Warrow(id="v", value=3, doubles="q"), Warrow(id="w", value=2, at="b1"))


def test_blowup_preserves_unimodularity_random():
    rng = random.Random(11)
    for _ in range(25):
        g = random_plumbing(rng, blowups=rng.randint(1, 6))
        assert g.is_unimodular()
        assert validate_plumbing(g, require_unimodular=True).ok


def test_blow_down_bare_leg():
    d = SpliceDiagram(
        ["v", "b1", "b2", "b3"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("v", "b3", 1, 1)],
        [Farrow(id="a", at="v", weight=1, mult=1)],
    )
    n = blow_down(d)
    assert n.vertices == ("v", "b1", "b2")
    assert n.edges == d.edges[:2]
    assert n.farrows == d.farrows


def test_blow_down_keeps_decorated_legs():
    # a weight-1 leg stays when it carries a dashed arrow, when its node
    # does, when its weight at the node is not 1, or when its node would
    # stop being a node while it carries an arrowhead
    edges = [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("v", "b3", 1, 1)]
    farrow = [Farrow(id="a", at="v", weight=1, mult=1)]
    kept = [
        SpliceDiagram(["v", "b1", "b2", "b3"], edges, farrow, [Warrow("w", 2, at="b3")]),
        SpliceDiagram(["v", "b1", "b2", "b3"], edges, farrow, [Warrow("w", 2, at="v")]),
        SpliceDiagram(["v", "b1", "b2", "b3"], edges[:2] + [Edge("v", "b3", 5, 1)], farrow),
        SpliceDiagram(["v", "b1", "b3"], [edges[0], edges[2]], farrow),
    ]
    for d in kept:
        assert blow_down(d) is d


def test_blow_down_joins_the_neighbours_of_an_absorbed_node():
    # u is a node only through its bare weight-1 leaf x: blowing x down
    # leaves u with two edges and no arrowhead, so u and both its edges
    # become one edge from v to c, with the weights at v and at c; the
    # leaf c is then a weight-1 leg of v, and goes too
    d = SpliceDiagram(
        ["v", "b1", "b2", "u", "x", "c"],
        [
            Edge("v", "b1", 2, 1),
            Edge("v", "b2", 3, 1),
            Edge("v", "u", 1, 43),
            Edge("u", "x", 1, 1),
            Edge("u", "c", 7, 1),
        ],
        [Farrow(id="a", at="v", weight=1, mult=2)],
    )
    assert validate(d).ok
    n = blow_down(d)
    assert n.vertices == ("v", "b1", "b2")
    assert (n.nodes(), n.boundary_vertices()) == (("v",), ("b1", "b2"))
    assert func(zeta_splice(n)) == func(zeta_splice(d))
    # with weight 5 at v, the joined edge is a leg of v, and it stays
    d2 = SpliceDiagram(d.vertices, d.edges[:2] + (Edge("v", "u", 5, 9),) + d.edges[3:], d.farrows)
    assert validate(d2).ok
    n2 = blow_down(d2)
    assert n2.vertices == ("v", "b1", "b2", "c")
    assert n2.edges == d2.edges[:2] + (Edge("c", "v", 1, 5),)
    assert func(zeta_splice(n2)) == func(zeta_splice(d2))


def test_blow_down_idempotent_and_invariant():
    d = SpliceDiagram(
        ["v", "b1", "b2", "b3"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("v", "b3", 1, 1)],
        [Farrow(id="a", at="v", weight=1, mult=1)],
        [Warrow(id="w", value=-2, at="b1")],
    )
    n = blow_down(d)
    assert n is not d and n.warrows == d.warrows
    assert blow_down(n) is n
    assert blow_down(d) is n  # kept on d
    assert func(zeta_splice(d)) == func(zeta_splice(n))
    # an already-minimal diagram comes back as itself
    m = two_cusp_diagram()
    assert blow_down(m) is m


def test_conversion_always_validates_random():
    rng = random.Random(5)
    for _ in range(30):
        g = random_plumbing(rng, blowups=rng.randint(2, 7), arrows=rng.randint(1, 2))
        try:
            d = plumbing_to_splice(g)
        except DiagramError:
            continue
        assert validate(d).ok
        for e in d.special_edges():
            assert edge_determinant(d, e) > 0


def test_duplicate_ids_rejected():
    with pytest.raises(DiagramError):
        SpliceDiagram(["v", "v"])
    with pytest.raises(DiagramError):
        PlumbingGraph([PVertex("v", -1), PVertex("v", -2)])


def _fresh_structure(d):
    """nodes, boundary vertices, chain vertices and special edges, recomputed."""
    node = {v: len(d.vertices) == 1 or d.valency_f(v) >= 3 for v in d.vertices}
    return (
        tuple(v for v in d.vertices if node[v]),
        tuple(v for v in d.vertices if not node[v] and d.valency_f(v) == 1),
        tuple(v for v in d.vertices if not node[v] and d.valency_f(v) == 2),
        tuple(e for e in d.edges if node[e.a] and node[e.b]),
    )


def test_cached_structure_matches_fresh_computation():
    from splicezeta.corpus import golden_splice_diagrams
    from splicezeta.generate import random_valid_splice

    rng = random.Random(8)
    diagrams = list(golden_splice_diagrams().values())
    diagrams += [random_valid_splice(rng, with_warrows=True) for _ in range(80)]
    # chains, a lone vertex, and a forest
    diagrams += [
        SpliceDiagram(["x"]),
        SpliceDiagram(["x", "y"], [("x", "y", 1, 1)]),
        SpliceDiagram(["a", "b", "c"], [("a", "b", 1, 1), ("b", "c", 2, 1)]),
        SpliceDiagram(["a", "b", "c"], [("a", "b", 1, 1)]),
    ]
    for d in diagrams:
        for _ in range(2):  # the second round reads the cache
            got = (d.nodes(), d.boundary_vertices(), d.chain_vertices(), d.special_edges())
            assert got == _fresh_structure(d)
        assert d.nodes() is d.nodes()


@pytest.mark.parametrize(
    "d, message",
    [
        (
            SpliceDiagram(
                ["a", "b", "c"], [("a", "b", 1, 1), ("b", "c", 1, 1), ("c", "a", 1, 1)]
            ),
            "diagram is not a connected tree",
        ),
        (
            SpliceDiagram(["a", "b", "c"], [("a", "b", 1, 1), ("b", "c", 2, 1)]),
            "valency-2 vertices present (b)",
        ),
    ],
)
def test_require_valid_raises_the_same_error_every_call(d, message):
    # a cyclic diagram and a chain: the verdict is raised anew each time
    errors = []
    for _ in range(3):
        with pytest.raises(DiagramError) as info:
            require_valid(d)
        errors.append(info.value)
    assert [str(e) for e in errors] == [message] * 3
    assert errors[0] is not errors[1]


def test_blow_down_preserves_downstream_invariants():
    # zeta, Alexander polynomial, and the allowedness verdict all survive
    # the blow-down, with W on the slots it keeps
    from splicezeta.allowed import is_allowed
    from splicezeta.monodromy import alexander

    noisy = SpliceDiagram(
        ["v", "b1", "b2", "b3"],
        [
            Edge("v", "b1", 2, 1),
            Edge("v", "b2", 3, 1),
            Edge("v", "b3", 1, 1),
        ],
        [Farrow(id="a", at="v", weight=1, mult=2)],
        [Warrow(id="w", value=-2, at="b2")],
    )
    slim = blow_down(noisy)
    assert len(slim.vertices) < len(noisy.vertices)
    assert func(zeta_splice(noisy)) == func(zeta_splice(slim))
    assert alexander(noisy) == alexander(slim)
    assert is_allowed(noisy).allowed == is_allowed(slim).allowed


def test_blow_down_is_the_identity_on_the_corpus():
    from splicezeta.corpus import golden_plumbing_graphs, golden_splice_diagrams

    diagrams = list(golden_splice_diagrams().values())
    for g in golden_plumbing_graphs().values():
        try:
            diagrams.append(plumbing_to_splice(g))
        except DiagramError:
            continue
    assert len(diagrams) == 12
    for d in diagrams:
        assert blow_down(d) is d


def test_blow_down_keeps_the_invariants_of_converted_curves():
    # converted curves of 5-40 blowups: the validate verdict, (C, parts),
    # the Alexander polynomial and the semigroup verdict at the curve's own
    # W, and allowed_at and (C, parts) at 20 random W on the slots the
    # blow-down keeps, lifted to the curve by zeros
    from splicezeta.allowed import allowed_at, semigroup_condition
    from splicezeta.monodromy import alexander

    def outcome(fn, *args):
        try:
            return fn(*args)
        except DiagramError:
            return "refused"

    def zeta(d, w=None):
        z = zeta_splice(d, None, w)
        return z.const, dict(z.parts)

    rng = random.Random(27)
    reduced = 0
    for _ in range(130):
        g = random_plumbing(rng, blowups=rng.randint(5, 40), arrows=rng.randint(1, 2))
        try:
            d = plumbing_to_splice(g)
        except DiagramError:
            continue
        r = blow_down(d)
        if r is d:
            continue
        reduced += 1
        assert set(r.boundary_vertices()) <= set(d.boundary_vertices())
        assert set(r.nodes()) <= set(d.nodes())
        assert validate(r).ok == validate(d).ok
        assert zeta(r) == zeta(d)
        assert alexander(r) == alexander(d)
        assert semigroup_condition(r).ok == semigroup_condition(d).ok
        fm = d.f_divisor()
        for _ in range(20):
            w = {s: rng.randint(-3, 3) for s in r.boundary_vertices()}
            assert outcome(allowed_at, r, fm, w) == outcome(allowed_at, d, fm, w), w
            assert outcome(zeta, r, w) == outcome(zeta, d, w), w
    assert reduced >= 100


def _fresh_connected(ids, neighbours) -> bool:
    if not ids:
        return False
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        for y in neighbours(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(ids)


def test_connectivity_verdict_is_kept_and_matches_a_fresh_search():
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    cases = [PlumbingGraph([]), SpliceDiagram([])]
    for _ in range(300):
        g = random_graph(rng)  # trees, cycles, forests and single vertices
        cases += [g, SpliceDiagram([v.id for v in g.vertices], g.edges)]
    for x in cases:
        ids = [getattr(v, "id", v) for v in x.vertices]
        want = _fresh_connected(ids, x.neighbours)
        assert x.is_connected() is want
        seen[want] += 1

        def searched(*_):
            raise AssertionError("searched again")

        x.component_vertices = searched
        assert x.is_connected() is want
        assert x.is_tree() is (want and len(x.edges) == len(ids) - 1)
    assert min(seen.values()) >= 100, seen


def test_linking_product_from_edge():
    d = two_cusp_diagram()
    e = d.edge("v1", "v0")
    # weights on the v0 side only, path measured from the cut
    assert d.linking_product("v0", "v0", exclude_edge=e) == 1
    assert d.linking_product("v0", "v1p", exclude_edge=e) == 6
    assert d.linking_product("v0", "a0", exclude_edge=e) == 1
    # and on the v1 side
    assert d.linking_product("v1", "bL", exclude_edge=e) == 3
    assert d.linking_product("v1", "v1", exclude_edge=e) == 6


def _assert_products_match_pairwise(d):
    targets = list(d.vertices) + [a.id for a in d.farrows] + [w.id for w in d.warrows]
    for v in d.vertices:
        for ex in [None, *d.edges_at(v), *d.edges[:1]]:
            for t in targets:
                want = pairwise_linking_product(d, v, t, ex)
                assert d.linking_product(v, t, exclude_edge=ex) == want, (v, t, ex)


def test_linking_products_match_pairwise_search():
    from splicezeta.generate import random_valid_splice

    rng = random.Random(41)
    for _ in range(120):
        d = random_valid_splice(rng, max_nodes=4, max_weight=13, with_warrows=True)
        # open every doubling slot too, so warrows of both kinds are targets
        w = d.w_divisor() | {a.id: rng.randint(1, 3) for a in d.farrows if rng.random() < 0.5}
        _assert_products_match_pairwise(d.with_decorations(w=w))
        # N_v from the arrowheads' products, by symmetry of linking on a tree
        f = {a.id: rng.randint(0, 3) for a in d.farrows}
        want = {v: sum(m * pairwise_linking_product(d, v, a) for a, m in f.items())
                for v in d.vertices}
        assert vertex_multiplicities(d, f) == want
    # a cycle and a second component: linking products are defined on trees
    # only, and refused elsewhere as the pass refuses them; an unknown
    # target is refused first
    cyclic = SpliceDiagram(
        ["a", "b", "c", "d", "x", "y"],
        [Edge("a", "b", 2, 3), Edge("b", "c", 5, 7), Edge("c", "a", 11, 13),
         Edge("c", "d", 17, 19), Edge("x", "y", 23, 29)],
        [Farrow(id="f", at="b", weight=31), Farrow(id="g", at="b", weight=37)],
        [Warrow(id="w", value=2, doubles="g"), Warrow(id="u", value=3, at="y")],
    )
    for v in cyclic.vertices:
        for t in ["a", "d", "y", "f", "w", "u"]:
            with pytest.raises(DiagramError, match="tree"):
                cyclic.linking_product(v, t)
    with pytest.raises(DiagramError, match="unknown linking target"):
        cyclic.linking_product("a", "nowhere")


# ---------------------------------------------------------------------------
# sparse elimination of -I(G) against dense references kept here


def dense_sylvester(m) -> bool:
    """Reference: positive definiteness of a symmetric matrix, dense, leading minors."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            r = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= r * m[k][j]
    return True


def dense_solve(m, rhs):
    """Reference: Gauss-Jordan over Q with row pivoting."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(m)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        for i in range(n):
            if i != k and a[i][k]:
                r = a[i][k] / a[k][k]
                for j in range(k, n + 1):
                    a[i][j] -= r * a[k][j]
    return [a[i][n] / a[i][i] for i in range(n)]


def minus_intersection_matrix(g, subset=None) -> list[list[int]]:
    """Reference: -I(G) as a dense matrix, on ``subset`` if given."""
    ids = [v.id for v in g.vertices] if subset is None else list(subset)
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    m = [[0] * n for _ in range(n)]
    for v in ids:
        m[pos[v]][pos[v]] = -g.self_int(v)
    for a, b in g.edges:
        if a in pos and b in pos:
            m[pos[a]][pos[b]] -= 1
            m[pos[b]][pos[a]] -= 1
    return m


def int_det(m: list[list[int]]) -> int:
    """Reference: Bareiss fraction-free determinant on an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def random_graph(rng):
    """Trees, graphs with cycles and disconnected graphs; definite or not."""
    n = rng.randint(1, 8)
    ids = [f"x{k}" for k in range(n)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    if rng.random() < 0.5:  # a tree
        edges = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)]
    else:
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
    verts = [PVertex(v, rng.choice([-1, -2, -2, -3, -3, -4, -5, 0, 1])) for v in ids]
    return PlumbingGraph(verts, edges)


def _assert_cycle_refused(g):
    # the linear algebra and the validator refuse a graph with a cycle
    rhs = {v.id: 1 for v in g.vertices}
    for op in (g.is_negative_definite, g.det_minus_I, lambda: g.solve_minus_I(rhs)):
        with pytest.raises(DiagramError, match="cycle"):
            op()
    if g.is_connected():
        (v,) = validate_plumbing(g).violations
        assert (v.kind, v.detail) == ("structure", "graph has a cycle (genus-0 IHS links are trees)")


def test_elimination_matches_dense_references():
    # forests against the dense references; a graph with a cycle is refused
    rng = random.Random(17)
    seen = {True: 0, False: 0, "cycle": 0}
    for _ in range(600):
        g = random_graph(rng)
        if not _is_forest(g):
            _assert_cycle_refused(g)
            seen["cycle"] += 1
            continue
        m = minus_intersection_matrix(g)
        pd = g.is_negative_definite()
        assert pd == dense_sylvester(m)
        assert g.det_minus_I() == int_det(m)
        seen[pd] += 1
        if not pd:
            with pytest.raises(DiagramError):
                g.solve_minus_I({v.id: 1 for v in g.vertices})
            continue
        rhs = {v.id: rng.randint(-5, 5) for v in g.vertices}
        sol = g.solve_minus_I(rhs)
        assert [sol[v.id] for v in g.vertices] == dense_solve(m, [rhs[v.id] for v in g.vertices])
    assert min(seen.values()) > 100, seen


def _is_forest(g) -> bool:
    comps, seen = 0, set()
    for v in g.vertices:
        if v.id not in seen:
            comps += 1
            seen.update(g.component_vertices(v.id, v.id))
    return len(g.edges) == len(g.vertices) - comps


def test_elimination_zero_pivots():
    # a 0-curve and two (-1)-curves meeting (det 0) are not definite
    for verts, edges in (
        ([("a", 0)], []),
        ([("a", -1), ("b", -1)], [("a", "b")]),
    ):
        g = PlumbingGraph(verts, edges)
        assert not g.is_negative_definite()
        assert not dense_sylvester(minus_intersection_matrix(g))
        assert validate_plumbing(g).violations[-1].kind == "definiteness"
    # a (-2)-cycle (det 0) is refused as a cycle
    g = PlumbingGraph([("a", -2), ("b", -2), ("c", -2)], [("a", "b"), ("b", "c"), ("a", "c")])
    _assert_cycle_refused(g)


# ---------------------------------------------------------------------------
# plumbing determinants from the tree recurrence, against dense references


def random_tree_graph(rng, forest=False):
    """A random tree (or forest) whose -I may be definite, indefinite or singular."""
    n = rng.randint(1, 12)
    ids = [f"x{k}" for k in range(n)]
    edges = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)]
    if forest:
        edges = [e for e in edges if rng.random() < 0.7]
    pool = rng.choice([[-2, -2, -3, -1, -5], [-1, -2, 0, 1, -3], [-1, -1, -2]])
    return PlumbingGraph([PVertex(v, rng.choice(pool)) for v in ids], edges)


def _side_det(g, v, u) -> int:
    """Oracle: det(-I) of the component of G - v containing u (of v's own
    component when u == v), from that component alone, as a graph of its
    own."""
    side = set(g.component_vertices(v, u))
    return PlumbingGraph(
        [x for x in g.vertices if x.id in side], [e for e in g.edges if side.issuperset(e)]
    ).det_minus_I()


def test_side_determinants_match_dense_reference():
    rng = random.Random(5)
    seen = dict.fromkeys(["definite", "indefinite", "zero side", "negative side", "single", "forest"], 0)
    for k in range(700):
        g = random_tree_graph(rng, forest=k % 4 == 3)
        seen["forest"] += not g.is_connected()
        seen["definite" if g.is_negative_definite() else "indefinite"] += 1
        for v in g.vertices:
            for u in (v.id, *g.neighbours(v.id)):
                side = g.component_vertices(v.id, u)
                got = _side_det(g, v.id, u)
                assert got == int_det(minus_intersection_matrix(g, side)), (v.id, u)
                seen["zero side"] += got == 0
                seen["negative side"] += got < 0
                seen["single"] += len(side) == 1
    assert min(seen.values()) >= 50, seen


def dense_pivots(m, order):
    """Reference: the pivots of dense elimination without pivoting of the
    symmetric matrix m, its rows and columns taken in ``order``, or None at
    the first pivot <= 0."""
    a = [[Fraction(m[i][j]) for j in order] for i in order]
    n = len(a)
    pivots = []
    for k in range(n):
        if a[k][k] <= 0:
            return None
        pivots.append(a[k][k])
        for i in range(k + 1, n):
            r = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= r * a[k][j]
    return pivots


def test_elimination_pivots_are_side_determinant_ratios():
    # on a definite tree eliminated leaves first, the pivot at x is D_x / E_x:
    # x's subtree below its parent over that subtree minus x
    rng = random.Random(8)
    checked = 0
    while checked < 300:
        g = random_tree_graph(rng, forest=rng.random() < 0.2)
        tree = g._forest[0]
        ids = [v.id for v in g.vertices]
        order = [x for x, _ in reversed(tree)]
        pivots = dense_pivots(minus_intersection_matrix(g), [ids.index(x) for x in order])
        assert (pivots is not None) == g.is_negative_definite()
        if pivots is None:
            continue
        checked += 1
        parents = dict(tree)
        for x, piv in zip(order, pivots):
            parent = parents[x]
            children = [c for c in g.neighbours(x) if c != parent]
            e_x = 1
            for c in children:
                e_x *= _side_det(g, x, c)
            assert piv == Fraction(_side_det(g, parent or x, x), e_x)
            assert piv == Fraction(g._forest[1][x], g._forest[2][x])


def test_side_table_matches_oracle_and_dense_minors():
    # the rerooted pass gives det(-I) of the side of every edge end: the
    # oracle everywhere, and the dense minor wherever it is cheap (every end
    # up to 25 blowups, the sides of at most 25 vertices above that)
    rng = random.Random(12)
    dense = 0
    for blowups in (*range(1, 26), *range(26, 81, 6), 80):
        g = random_plumbing(rng, blowups=blowups, arrows=rng.randint(1, 2))
        table = g._side_dets()
        ends = {(a, b) for a, b in g.edges} | {(b, a) for a, b in g.edges}
        assert set(table) == ends
        for v, u in sorted(ends):
            assert table[v, u] == _side_det(g, v, u), (blowups, v, u)
            side = g.component_vertices(v, u)
            if blowups <= 25 or len(side) <= 25:
                assert table[v, u] == int_det(minus_intersection_matrix(g, side))
                dense += 1
    assert dense > 1000


@pytest.mark.parametrize("blowups", [5, 40, 320])
def test_conversion_runs_one_forest_pass(blowups, monkeypatch):
    # O(n) guard: one plumbing_to_splice makes one breadth-first tree and
    # one leaf-first pass, however many string ends the graph has
    calls = {"_bfs_tree": 0, "_tree_pass": 0}
    for name in calls:
        method = getattr(PlumbingGraph, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(PlumbingGraph, name, counted)
    rng = random.Random(blowups)
    g = random_plumbing(rng, blowups=blowups, arrows=2)
    while not any(g.valency_f(v.id) >= 3 for v in g.vertices):
        g = random_plumbing(rng, blowups=blowups, arrows=2)
    d = plumbing_to_splice(g)
    assert len(d.nodes()) >= 1 and (blowups < 40 or len(d.edges) >= 10)
    assert calls == {"_bfs_tree": 1, "_tree_pass": 1}


def test_forest_pass_matches_elimination_and_dense_solve(monkeypatch):
    # definiteness, det(-I) and the solves on a forest come from the integer
    # pass, with no Fraction before the solve, and match the dense references
    import splicezeta.diagrams as diagrams

    rng = random.Random(41)
    seen = dict.fromkeys(
        ["definite", "indefinite", "forest", "zero D", "negative D", "det > 1",
         "integral entry", "fractional entry"], 0
    )
    for k in range(1500):
        g = random_tree_graph(rng, forest=k % 3 == 2)
        m = minus_intersection_matrix(g)
        with monkeypatch.context() as mp:  # no Fraction before the solve
            mp.setattr(diagrams, "Fraction", None)
            pd = g.is_negative_definite()
            det = g.det_minus_I()
        rhs = {v.id: rng.randint(-5, 5) for v in g.vertices}
        if pd:
            sol = g.solve_minus_I(rhs)
        else:
            with pytest.raises(DiagramError, match="not negative definite"):
                g.solve_minus_I(rhs)
        assert pd == dense_sylvester(m)
        assert det == int_det(m)
        if pd:
            assert [sol[v.id] for v in g.vertices] == dense_solve(m, [rhs[v.id] for v in g.vertices])
            # an int exactly where the value is integral, a Fraction otherwise
            assert all(type(x) is (Fraction if x.denominator > 1 else int) for x in sol.values())
            seen["integral entry"] += any(type(x) is int for x in sol.values())
            seen["fractional entry"] += any(type(x) is Fraction for x in sol.values())
        d = g._forest[1]
        seen["definite" if pd else "indefinite"] += 1
        seen["forest"] += not g.is_connected()
        seen["zero D"] += 0 in d.values()
        seen["negative D"] += any(x < 0 for x in d.values())
        seen["det > 1"] += pd and det > 1
    assert min(seen.values()) >= 100, seen
    # a definite graph with a cycle is refused all the same
    g = PlumbingGraph([PVertex(v, -3) for v in "abc"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert dense_sylvester(minus_intersection_matrix(g))
    _assert_cycle_refused(g)


def test_det_minus_I_on_graphs_with_cycles():
    # a graph with a cycle is refused whether or not -I is definite;
    # self-intersections near minus the degree give both kinds
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(3, 9)
        ids = [f"x{k}" for k in range(n)]
        pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pairs, rng.randint(n, len(pairs)))
        deg = {v: sum(v in e for e in edges) for v in ids}
        g = PlumbingGraph([PVertex(v, -deg[v] - rng.choice([-1, 0, 1, 1, 2, 2])) for v in ids], edges)
        seen[dense_sylvester(minus_intersection_matrix(g))] += 1
        _assert_cycle_refused(g)
    assert min(seen.values()) >= 20, seen


def dense_plumbing_to_splice(g):
    """Reference: the conversion with every weight a dense determinant."""
    if not g.is_connected():
        raise DiagramError("disconnected plumbing graph")
    if not g.is_tree():
        raise DiagramError("plumbing graph is not a tree")
    if not (g.is_negative_definite() and int_det(minus_intersection_matrix(g)) == 1):
        raise DiagramError(
            "splice calculus requires an unimodular negative-definite graph"
        )
    node_ids = [v.id for v in g.vertices if g.valency_f(v.id) >= 3]
    if not node_ids:
        return _degenerate_splice(g)
    vertices = list(node_ids)
    edges, farrows, warrow_out = [], [], []
    done_pairs = set()
    nodes = set(node_ids)

    def side_det(v, u):
        return int_det(minus_intersection_matrix(g, g.component_vertices(v, u)))

    def walk(v, first):
        chain = []
        prev, cur = v, first
        while cur not in nodes:
            chain.append(cur)
            nxt = [x for x in g.neighbours(cur) if x != prev]
            if not nxt:
                return chain, None
            prev, cur = cur, nxt[0]
        return chain, cur

    def check_interior(interior):
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
                wa = side_det(v, u)
                wb = side_det(end, chain[-1] if chain else v)
                edges.append(Edge(v, end, wa, wb))
            else:
                check_interior(chain[:-1])
                det = side_det(v, u)
                tip = chain[-1]
                tip_arrows = g.farrows_at(tip)
                if tip_arrows:
                    a = tip_arrows[0]
                    farrows.append(Farrow(id=a.id, at=v, weight=det, mult=a.mult))
                    for w in g.warrows:
                        if w.at == tip:
                            raise DiagramError(
                                f"warrow {w.id!r} shares boundary component with {a.id!r}"
                            )
                else:
                    vertices.append(tip)
                    edges.append(Edge(v, tip, det, 1))
                    for w in g.warrows:
                        if w.at == tip:
                            warrow_out.append(Warrow(id=w.id, value=w.value, at=tip))
    for v in node_ids:
        for a in g.farrows_at(v):
            farrows.append(Farrow(id=a.id, at=v, weight=1, mult=a.mult))
        for w in g.warrows:
            if w.at == v:
                raise DiagramError(f"warrow {w.id!r} attached at a rupture vertex")
    for w in g.warrows:
        if w.doubles is not None:
            warrow_out.append(w)
    return SpliceDiagram(vertices, edges, farrows, warrow_out)


def _random_chain(rng):
    """A unimodular chain (blowups of a point along its ends and edges) with
    two arrowheads, mostly at its ends."""
    g = PlumbingGraph([PVertex("r0", -1)], [])
    for _ in range(rng.randint(1, 8)):
        if g.edges and rng.random() < 0.5:
            g = blowup(g, ("edge", rng.choice(g.edges)))
        else:
            ends = [v.id for v in g.vertices if g.degree(v.id) <= 1]
            g = blowup(g, ("vertex", rng.choice(ends)))
    ids = [v.id for v in g.vertices]
    ends = [v for v in ids if g.degree(v) <= 1]
    farrows = [
        Farrow(f"q{k}", rng.choice(ends if rng.random() < 0.8 else ids), 1, rng.randint(1, 3))
        for k in range(2)
    ]
    return PlumbingGraph(g.vertices, g.edges, farrows)


def _conversion_cases(rng, count):
    """Random graphs of 5-81 vertices, mostly small (the reference is dense):
    a fifth kept as drawn or given a dashed arrow at a random vertex, the
    others made non-unimodular, cyclic, disconnected or a decorated chain."""
    for k in range(count):
        blowups = rng.randint(4, 29) if rng.random() < 0.85 else rng.randint(30, 80)
        g = random_plumbing(rng, blowups=blowups, arrows=rng.randint(1, 2))
        verts, edges = list(g.vertices), list(g.edges)
        ids = [v.id for v in verts]
        warrows = list(g.warrows)
        if k % 10 == 5:
            warrows.append(Warrow("wx", rng.choice([0, 2, 3]), at=rng.choice(ids)))
        elif k % 5 == 1:
            i = rng.randrange(len(verts))
            verts[i] = PVertex(ids[i], verts[i].self_int + rng.choice([-1, 1]))
        elif k % 5 == 2:
            a, b = rng.sample(ids, 2)
            if b not in g.neighbours(a):
                edges.append((a, b))
        elif k % 5 == 3:
            verts.append(PVertex("lone", rng.choice([-1, -2])))
        elif k % 5 == 4:
            yield _random_chain(rng)
            continue
        yield PlumbingGraph(verts, edges, g.farrows, warrows)


def _convert_json(path, capsys):
    rc = cli.main(["convert", str(path), "--json"])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_convert_matches_dense_reference(tmp_path, capsys, monkeypatch):
    # convert --json from the recurrence against the dense determinants:
    # stdout, stderr and exit code, on the corpus and on random graphs; a
    # graph that validate_plumbing rejects is refused before any conversion
    rng = random.Random(3)
    paths = sorted(CORPUS.glob("*.pg"))
    for k, g in enumerate(_conversion_cases(rng, 300)):
        paths.append(tmp_path / f"g{k}.pg")
        paths[-1].write_text(print_plumbing(g, f"g{k}"))
    messages = {}
    dense_calls = []

    def dense(g):
        dense_calls.append(g)
        return dense_plumbing_to_splice(g)

    for path in paths:
        got = _convert_json(path, capsys)
        calls = len(dense_calls)
        with monkeypatch.context() as m:
            # the graph of this text is kept by the CLI with its conversion;
            # the patched name is called all the same
            m.setattr(cli, "plumbing_to_splice", dense)
            assert _convert_json(path, capsys) == got, path.read_text()
        g = parse_diagram(path.read_text())[2]
        refused = not validate_plumbing(g).ok
        assert len(dense_calls) == calls + (not refused)
        if refused:
            # exit 2 with the report; the first violation is the key
            assert got[0] == 2 and "invalid plumbing graph" in got[2]
            key = got[2].splitlines()[1]
            if "definite" in key:
                assert not dense_sylvester(minus_intersection_matrix(g))
            if "cycle" in key:
                assert not _is_forest(g)
        else:
            # the refusal message up to its first quoted id
            key = got[2].split(":")[1].split("'")[0].strip() if got[0] else "converted"
        messages[key] = messages.get(key, 0) + 1
    for key in (
        "converted",
        "splice calculus requires an unimodular negative-definite graph",
        "[structure] -: graph has a cycle (genus-0 IHS links are trees)",
        "[structure] -: graph is not connected",
        "[definiteness] -: -I(G) is not positive definite",
        "degenerate chain with decorations at several vertices is unsupported",
    ):
        assert messages.get(key, 0) >= 5, sorted(messages.items())
    # a dashed arrow off the boundary or with i = 0 is a violation now
    assert sum(n for key, n in messages.items() if key.startswith(("[warrow]", "[arrow-data]"))) >= 5


def test_large_conversion_round_trip():
    # 321 vertices: dense determinants took ~78 s here, the rerooted pass ~2 ms
    g = random_plumbing(random.Random(0), blowups=320, arrows=2)
    assert len(g.vertices) == 321
    assert zeta_splice(plumbing_to_splice(g)).parts == zeta_plumbing(g).parts


def test_edge_determinant_with_zero_and_negative_weights():
    # validate reports the weights and still reads q_e: a zero weight
    # divides nothing out of the weight products
    from splicezeta.diagrams import Farrow

    legs = [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("w", "c1", 2, 1), Edge("w", "c2", 3, 1)]
    vertices = ["v", "w", "b1", "b2", "c1", "c2"]
    d = SpliceDiagram(vertices, [Edge("v", "w", 0, 5), *legs], [Farrow("a", "w", weight=7)])
    assert edge_determinant(d, d.edge("v", "w")) == 0 * 5 - (2 * 3) * (2 * 3 * 7)
    d = SpliceDiagram(vertices, [Edge("v", "w", -1, 5), *legs])
    assert edge_determinant(d, d.edge("v", "w")) == -1 * 5 - (2 * 3) * (2 * 3)
    kinds = [v.kind for v in validate(d).violations]
    assert kinds == ["weight", "edge-determinant"]
