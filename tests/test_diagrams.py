"""Diagram model: validation, determinants, linking products, conversion, blowup."""

import random
from fractions import Fraction

import pytest

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
    blowup,
    edge_determinant,
    normalize,
    plumbing_to_splice,
    validate,
    validate_plumbing,
)
from splicezeta.divisors import vertex_multiplicities
from splicezeta.generate import random_plumbing
from splicezeta.zeta import zeta_splice


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


def test_blowup_preserves_unimodularity_random():
    rng = random.Random(11)
    for _ in range(25):
        g = random_plumbing(rng, blowups=rng.randint(1, 6))
        assert g.is_unimodular()
        assert validate_plumbing(g, require_unimodular=True).ok


def test_normalize_bare_leg():
    d = SpliceDiagram(
        ["v", "b1", "b2", "b3"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("v", "b3", 1, 1)],
        [Farrow(id="a", at="v", weight=1, mult=1)],
    )
    n = normalize(d)
    assert "b3" not in n.vertices
    assert len(n.edges) == 2


def test_normalize_weight_one_leg_with_warrow():
    d = SpliceDiagram(
        ["v", "b1", "b2", "b3"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("v", "b3", 1, 1)],
        [Farrow(id="a", at="v", weight=1, mult=1)],
        [Warrow(id="w", value=4, at="b3")],
    )
    n = normalize(d)
    assert "b3" not in n.vertices
    (w,) = n.warrows
    assert w.at == "v" and w.value == 4


def test_normalize_idempotent_and_invariant():
    d = SpliceDiagram(
        ["v", "b1", "b2", "b3"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("v", "b3", 1, 1)],
        [Farrow(id="a", at="v", weight=1, mult=1)],
        [Warrow(id="w", value=-2, at="b3")],
    )
    n = normalize(d)
    assert normalize(n).vertices == n.vertices
    assert zeta_splice(d).func == zeta_splice(n).func
    # already-minimal diagram is unchanged
    m = two_cusp_diagram()
    n2 = normalize(m)
    assert n2.vertices == m.vertices and n2.edges == m.edges


def test_normalize_merges_arrow_carrier():
    # valency-2 vertex carrying a weight-1 arrowhead collapses onto the node
    d = SpliceDiagram(
        ["v", "b1", "b2", "u"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("v", "u", 7, 1)],
        [Farrow(id="a", at="u", weight=1, mult=1)],
    )
    n = normalize(d)
    assert "u" not in n.vertices
    (a,) = n.farrows
    assert a.at == "v" and a.weight == 7


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
            "valency-2 vertices present (b); normalize first",
        ),
    ],
)
def test_require_standard_raises_the_same_error_every_call(d, message):
    # a cyclic diagram and a chain: the cached verdict is raised anew each time
    errors = []
    for _ in range(3):
        with pytest.raises(DiagramError) as info:
            d.require_standard()
        errors.append(info.value)
    assert [str(e) for e in errors] == [message] * 3
    assert errors[0] is not errors[1]


def test_normalize_preserves_downstream_invariants():
    # zeta, Alexander polynomial, and the allowedness verdict all survive
    # normalization on decorated golden shapes
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
        [Warrow(id="w", value=-2, at="b3")],
    )
    slim = normalize(noisy)
    assert len(slim.vertices) < len(noisy.vertices)
    assert zeta_splice(noisy).func == zeta_splice(slim).func
    assert alexander(noisy) == alexander(slim)
    assert is_allowed(noisy).allowed == is_allowed(slim).allowed
    # a valency-2 arrowhead carrier is the other redundant representation:
    # zeta refuses it raw, and normalization recovers the node-supported form
    carrier = SpliceDiagram(
        ["v", "b1", "b2", "u"],
        [
            Edge("v", "b1", 2, 1),
            Edge("v", "b2", 3, 1),
            Edge("v", "u", 7, 1),
        ],
        [Farrow(id="a", at="u", weight=1, mult=2)],
    )
    direct = SpliceDiagram(
        ["v", "b1", "b2"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1)],
        [Farrow(id="a", at="v", weight=7, mult=2)],
    )
    import pytest as _pytest

    with _pytest.raises(DiagramError):
        zeta_splice(carrier)
    merged = normalize(carrier)
    assert zeta_splice(merged).func == zeta_splice(direct).func
    assert alexander(merged) == alexander(direct)


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


def _pairwise_linking_product(d, v, target, exclude_edge=None):
    """Reference: one search per (v, target) pair, the path walked on its own."""
    anchor, via_farrow = d.anchor(target)
    prev = {v: None}
    stack = [v]
    while stack and anchor != v:
        x = stack.pop()
        if x == anchor:
            break
        for e in d.edges_at(x):
            y = e.other(x)
            if y not in prev:
                prev[y] = x
                stack.append(y)
    if anchor not in prev:
        raise DiagramError(f"no path from {v!r} to {anchor!r}")
    path = [anchor]
    while path[-1] != v:
        path.append(prev[path[-1]])
    on_path = set()
    for x, y in zip(path, path[1:]):
        on_path |= {(x, y), (y, x)}
    prod = 1
    for x in path:
        for e in d.edges_at(x):
            if (x, e.other(x)) in on_path:
                continue
            if exclude_edge is not None and x == v and e.key == exclude_edge.key:
                continue
            prod *= e.weight_at(x)
        for a in d.farrows_at(x):
            if not (x == anchor and via_farrow == a.id):
                prod *= a.weight
    return prod


def _assert_rows_match_pairwise(d, exclusions=True):
    targets = list(d.vertices) + [a.id for a in d.farrows] + [w.id for w in d.warrows]
    for v in d.vertices:
        for ex in [None, *d.edges_at(v), *d.edges[:1]] if exclusions else [None]:
            row = d.linking_row(v, ex)
            for t in targets:
                try:
                    want = _pairwise_linking_product(d, v, t, ex)
                except DiagramError:
                    assert t not in row
                    with pytest.raises(DiagramError):
                        d.linking_product(v, t, exclude_edge=ex)
                    continue
                assert d.linking_product(v, t, exclude_edge=ex) == want, (v, t, ex)
                # an excluded row leaves out what lies beyond the excluded edge
                assert row[t] == want if t in row else ex is not None and v in ex.key


def test_linking_rows_match_pairwise_search():
    from splicezeta.generate import random_valid_splice

    rng = random.Random(41)
    for _ in range(120):
        d = random_valid_splice(rng, max_nodes=4, max_weight=13, with_warrows=True)
        # open every doubling slot too, so warrows of both kinds are targets
        w = d.w_divisor() | {a.id: rng.randint(1, 3) for a in d.farrows if rng.random() < 0.5}
        _assert_rows_match_pairwise(d.with_decorations(w=w))
        # N_v from the arrowheads' rows, by symmetry of linking on a tree
        f = {a.id: rng.randint(0, 3) for a in d.farrows}
        want = {v: sum(m * _pairwise_linking_product(d, v, a) for a, m in f.items())
                for v in d.vertices}
        assert vertex_multiplicities(d, f) == want
    # a cycle (the search picks one path) and a second component (no path);
    # the edge-excluded variant is defined on trees only
    cyclic = SpliceDiagram(
        ["a", "b", "c", "d", "x", "y"],
        [Edge("a", "b", 2, 3), Edge("b", "c", 5, 7), Edge("c", "a", 11, 13),
         Edge("c", "d", 17, 19), Edge("x", "y", 23, 29)],
        [Farrow(id="f", at="b", weight=31), Farrow(id="g", at="b", weight=37)],
        [Warrow(id="w", value=2, doubles="g"), Warrow(id="u", value=3, at="y")],
    )
    _assert_rows_match_pairwise(cyclic, exclusions=False)
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


def test_elimination_matches_dense_references():
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for _ in range(600):
        g = random_graph(rng)
        m = g.minus_intersection_matrix()
        pd = g.is_negative_definite()
        assert pd == dense_sylvester(m)
        seen[pd] += 1
        if not pd:
            with pytest.raises(DiagramError):
                g.solve_minus_I({v.id: 1 for v in g.vertices})
            continue
        rhs = {v.id: rng.randint(-5, 5) for v in g.vertices}
        sol = g.solve_minus_I(rhs)
        assert [sol[v.id] for v in g.vertices] == dense_solve(m, [rhs[v.id] for v in g.vertices])
    assert min(seen.values()) > 100


def test_elimination_zero_pivots():
    # a 0-curve; two (-1)-curves meeting (det 0); a (-2)-cycle (det 0, cyclic)
    for verts, edges in (
        ([("a", 0)], []),
        ([("a", -1), ("b", -1)], [("a", "b")]),
        ([("a", -2), ("b", -2), ("c", -2)], [("a", "b"), ("b", "c"), ("a", "c")]),
    ):
        g = PlumbingGraph(verts, edges)
        assert not g.is_negative_definite()
        assert not dense_sylvester(g.minus_intersection_matrix())
        assert validate_plumbing(g).violations[-1].kind == "definiteness"
