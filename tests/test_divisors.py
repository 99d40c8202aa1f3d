"""Multiplicity systems: linking-number route vs linear-algebra route."""

import random

import pytest

from splicezeta.corpus import (
    intro_star,
    rodrigues_plumbing,
    smooth_point_plumbing,
    two_cusp_diagram,
    two_cusp_plumbing,
    unimodular_counterexample_plumbing,
)
from splicezeta.diagrams import DiagramError, plumbing_to_splice
from splicezeta.divisors import (
    canonical_plumbing,
    nu_values,
    pullback_plumbing,
    vertex_multiplicities,
)
from splicezeta.generate import random_plumbing
from linking_oracle import linking_sum, pairwise_linking_product


def test_vertex_multiplicities_golden():
    d = two_cusp_diagram()
    n = vertex_multiplicities(d)
    assert n == {"bL": 3, "v1": 6, "leg1": 2, "v0": 1, "v1p": 6, "leg1p": 2, "bR": 3}


def test_vertex_multiplicities_zero_divisor():
    d = two_cusp_diagram()
    assert set(vertex_multiplicities(d, {"a0": 0}).values()) == {0}


def test_vertex_multiplicities_unimod_counterexample():
    d = plumbing_to_splice(unimodular_counterexample_plumbing(1))
    n = vertex_multiplicities(d)
    assert n["u2"] == 18 and n["u3"] == 3
    # splice level keeps four of the printed values; the (2) lives on the
    # string vertex that turned into the arrowhead support
    assert sorted(v for k, v in n.items() if k not in ("u2", "u3")) == [1, 6, 9]
    m = pullback_plumbing(unimodular_counterexample_plumbing(1))
    assert sorted(m.values()) == [1, 2, 3, 6, 9, 18]


def test_nu_values_golden():
    d = two_cusp_diagram()
    assert nu_values(d) == {"v1": -13, "v0": -2, "v1p": -13}


def test_nu_values_with_warrows():
    # decorations i1 = i2 = 1, I' = 7 realized by (i1', i2') = (1, 2)
    d = two_cusp_diagram()
    nu = nu_values(d, {"leg1p": 1})
    assert (nu["v1"], nu["v0"], nu["v1p"]) == (-1, 0, 1)


def test_nu_star_closed_formula():
    # one node, legs d1 d2, two arrowheads: nu = d1 d2 (k1 + k2 - 2) + d2 i1 + d1 i2
    rng = random.Random(3)
    for d1, d2 in ((2, 3), (3, 5), (4, 7)):
        st = intro_star(d1, d2)
        for _ in range(10):
            k1, k2 = rng.randint(-3, 4), rng.randint(-3, 4)
            i1, i2 = rng.randint(-3, 4), rng.randint(-3, 4)
            w = {"a1": k1 - 1, "a2": k2 - 1, "b1": i1 - 1, "b2": i2 - 1}
            nu = nu_values(st, w)["v"]
            assert nu == d1 * d2 * (k1 + k2 - 2) + d2 * i1 + d1 * i2


def test_nu_linear_in_warrow_values():
    # finite differences over integer inputs give exactly the linking products
    d = two_cusp_diagram()
    base = nu_values(d, {})
    for slot in ("bL", "leg1", "bR", "leg1p", "a0"):
        up = nu_values(d, {slot: 1})
        for v in base:
            assert up[v] - base[v] == pairwise_linking_product(d, v, slot)


def test_pullback_plumbing_golden():
    g = two_cusp_plumbing()
    m = pullback_plumbing(g)
    assert m == {"e1": 3, "e2": 6, "e3": 1, "e4": 6, "e5": 3, "e6": 2, "e7": 2}
    assert set(pullback_plumbing(g, {"a0": 0}).values()) == {0}


def test_pullback_rodrigues_golden():
    m = pullback_plumbing(rodrigues_plumbing())
    assert m == {"c1": 6, "c2": 12, "c3": 3, "c4": 5, "c5": 3, "c6": 1}


def test_canonical_plumbing_golden():
    g = two_cusp_plumbing()
    k = canonical_plumbing(g)
    assert (k["e2"], k["e3"], k["e4"]) == (-14, -3, -14)


def test_canonical_single_minus_one():
    # adjunction on a lone (-1)-curve: (K, E) = -e - 2 = -1, so K = E
    g = smooth_point_plumbing()
    assert canonical_plumbing(g) == {"e": 1}
    assert pullback_plumbing(g) == {"e": 1}


def test_canonical_rodrigues_rational_free():
    # numerically Gorenstein: the canonical coefficients are integers
    k = canonical_plumbing(rodrigues_plumbing())
    assert all(isinstance(x, int) for x in k.values())


def test_oracle_equality_random():
    rng = random.Random(99)
    done = 0
    while done < 40:
        g = random_plumbing(rng, blowups=rng.randint(2, 7), arrows=rng.randint(1, 2))
        try:
            d = plumbing_to_splice(g)
        except DiagramError:
            continue
        done += 1
        rupture = [v for v in d.nodes() if g.valency_f(v) >= 3]
        ns = vertex_multiplicities(d)
        np_ = pullback_plumbing(g)
        for v in rupture:
            assert ns[v] == np_[v]
        nus = nu_values(d)
        kp = canonical_plumbing(g)
        for v in rupture:
            assert nus[v] == kp[v] + 1


def test_oracle_equality_with_warrows():
    g = two_cusp_plumbing()
    from splicezeta.diagrams import PlumbingGraph, Warrow

    g = PlumbingGraph(
        g.vertices,
        g.edges,
        g.farrows,
        [Warrow(id="w1", value=3, at="e1"), Warrow(id="w2", value=-2, doubles="a0")],
    )
    d = plumbing_to_splice(g)
    nus = nu_values(d)
    kp = canonical_plumbing(g)
    for v in d.nodes():
        assert nus[v] == kp[v] + 1


def test_positive_multiplicities():
    rng = random.Random(4)
    done = 0
    while done < 20:
        g = random_plumbing(rng, blowups=rng.randint(1, 6), arrows=rng.randint(1, 3))
        try:
            d = plumbing_to_splice(g)
        except DiagramError:
            continue
        done += 1
        assert all(v > 0 for v in vertex_multiplicities(d).values())


def test_nu_rejects_chain_slots():
    d = two_cusp_diagram()
    with pytest.raises(DiagramError):
        nu_values(d, {"nonexistent": 1})


def test_every_f_and_w_entry_point_refuses_the_same_bad_input():
    # F and W enter through divisors.f_of and divisors.w_of on both routes
    # (and a copy's F through the check f_of applies), so each bad input
    # gets one message everywhere; "dw" is a dashed-arrow id, which is not a
    # W slot
    from splicezeta.allowed import check_goal1, is_allowed
    from splicezeta.diagrams import PlumbingGraph, SpliceDiagram, Warrow, validate_plumbing
    from splicezeta.exact import UnityRoot
    from splicezeta.monodromy import alexander, delta1, eig_contains
    from splicezeta.realize import extend_allowed, realize_eigenvalue
    from splicezeta.splicing import induced_value, splice, star_decomposition
    from splicezeta.zeta import zeta_plumbing, zeta_splice

    base = two_cusp_diagram()
    d = SpliceDiagram(base.vertices, base.edges, base.farrows, [Warrow("dw", 3, at="bL")])
    pbase = two_cusp_plumbing()
    g = PlumbingGraph(pbase.vertices, pbase.edges, pbase.farrows, [Warrow("dw", 3, at="e1")])
    assert validate_plumbing(g).ok
    e = d.edge("v1", "v0")
    lam = UnityRoot(1, 6)
    f_calls = [
        lambda f: zeta_splice(d, f),
        lambda f: vertex_multiplicities(d, f),
        lambda f: alexander(d, f),
        lambda f: delta1(d, f),
        lambda f: eig_contains(d, lam, f),
        lambda f: is_allowed(d, f),
        lambda f: check_goal1(d, f),
        lambda f: splice(d, e, f),
        lambda f: star_decomposition(d, f),
        lambda f: realize_eigenvalue(d, lam, f=f),
        lambda f: d.with_decorations(f=f),
    ]
    f_plumbing_calls = [
        lambda f: zeta_plumbing(g, f),
        lambda f: pullback_plumbing(g, f),
        lambda f: delta1(g, f),
        lambda f: eig_contains(g, lam, f),
    ]
    w_calls = [
        lambda w: zeta_splice(d, None, w),
        lambda w: nu_values(d, w),
        lambda w: is_allowed(d, None, w),
        lambda w: check_goal1(d, None, w),
        lambda w: splice(d, e, None, w),
        lambda w: star_decomposition(d, None, w),
        lambda w: induced_value(d, e, "v0", w),
        lambda w: extend_allowed(d, e, w),
    ]
    w_plumbing_calls = [
        lambda w: zeta_plumbing(g, None, w),
        lambda w: canonical_plumbing(g, w),
    ]
    f_cases = [
        ({"a0": 1, "{vertex}": 1}, "F key '{vertex}' is not an arrowhead"),
        ({"bogus": 1}, "F key 'bogus' is not an arrowhead"),
        ({"a0": -1}, "F multiplicity -1 at 'a0' is negative"),
    ]
    w_cases = [
        ({"bogus": 0}, "W slot 'bogus' is not a vertex or arrowhead"),
        ({"bogus": 1}, "W slot 'bogus' is not a vertex or arrowhead"),
        ({"dw": 4}, "W slot 'dw' is not a vertex or arrowhead"),
    ]
    checked = 0
    for calls, vertex in ((f_calls, "leg1"), (f_plumbing_calls, "e3")):
        for f, message in f_cases:
            f = {k.format(vertex=vertex): m for k, m in f.items()}
            for call in calls:
                with pytest.raises(DiagramError) as info:
                    call(f)
                assert str(info.value) == message.format(vertex=vertex)
                checked += 1
    for calls in (w_calls, w_plumbing_calls):
        for w, message in w_cases:
            for call in calls:
                with pytest.raises(DiagramError) as info:
                    call(w)
                assert str(info.value) == message
                checked += 1
    assert checked == 3 * 15 + 3 * 10
    # any multiplicity at a vertex or arrowhead slot is accepted, 0 included
    assert nu_values(d, {"bL": 0, "a0": 0}) == nu_values(d, {})
    assert canonical_plumbing(g, {"e1": 0, "a0": 0}) == canonical_plumbing(g, {})


# ---------------------------------------------------------------------------
# the rerooted pass against linking rows


def _canonical_vector(d):
    c = {x: 2 - d.delta(x) for x in d.vertices}
    c.update((a.id, 1) for a in d.farrows if a.weight >= 2)
    return c


def _assert_pass_matches_oracle(d, rng):
    from splicezeta.diagrams import linking_sums
    from splicezeta.divisors import canonical_sums, f_sums
    from splicezeta.splicing import root_cut

    slots = [*d.vertices, *(a.id for a in d.farrows)]
    vectors = (
        d.f_divisor(),
        _canonical_vector(d),
        {s: rng.randint(-5, 5) for s in slots},
        {s: rng.randint(-9, 9) for s in slots if rng.random() < 0.3},
    )
    sums = [linking_sums(d, c) for c in vectors]
    for v in d.vertices:
        assert [x.at[v] for x in sums] == [linking_sum(d, v, c) for c in vectors], v
    # every side(v, n): the sum over n's side of the edge, excluded at n
    for e in d.edges:
        for keep in e.key:
            far = e.other(keep)
            beyond = set(d.component_vertices(keep, far))
            want = [linking_sum(d, far, c, e, beyond) for c in vectors]
            assert [x.side(keep, far) for x in sums] == want, (keep, far)
            own_f = f_sums(d, d.f_divisor()).side(keep, far)
            assert (own_f, canonical_sums(d).side(keep, far)) == tuple(want[:2])
            assert root_cut(d, keep, e).i0 == want[1]
    assert all(list(x.at) == list(d.vertices) for x in sums)


def _coverage_diagram():
    # a weight-3 arrowhead doubled by a dashed arrow, a weight-1 arrowhead,
    # a dashed arrow drawn at a node and one at a boundary vertex
    from splicezeta.diagrams import Edge, Farrow, SpliceDiagram, Warrow

    return SpliceDiagram(
        ["v", "w", "b1", "b2", "c1"],
        [Edge("v", "w", 5, 7), Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("w", "c1", 2, 1)],
        [Farrow("a1", "w", weight=3, mult=2), Farrow("a2", "v", weight=1, mult=1)],
        [Warrow("d1", 4, doubles="a1"), Warrow("d2", -1, at="v"), Warrow("d3", 3, at="c1")],
    )


def _single_vertex_diagrams():
    from splicezeta.diagrams import Farrow, SpliceDiagram, Warrow

    yield SpliceDiagram(["v"])
    yield SpliceDiagram(
        ["v"],
        [],
        [Farrow("a", "v", weight=2, mult=3), Farrow("b", "v", weight=5, mult=1), Farrow("c", "v")],
        [Warrow("wa", 3, doubles="a"), Warrow("wv", -2, at="v")],
    )


def test_linking_sums_match_the_path_oracle():
    from splicezeta.corpus import golden_plumbing_graphs, golden_splice_diagrams
    from splicezeta.generate import random_valid_splice

    rng = random.Random(30)
    diagrams = [*golden_splice_diagrams().values(), _coverage_diagram(), *_single_vertex_diagrams()]
    for g in golden_plumbing_graphs().values():
        try:
            diagrams.append(plumbing_to_splice(g))
        except DiagramError:
            pass
    diagrams += [random_valid_splice(rng, with_warrows=True) for _ in range(200)]
    for blowups in (5, 10, 20, 40, 80, 160):
        for _ in range(3):
            try:
                diagrams.append(plumbing_to_splice(random_plumbing(rng, blowups=blowups, arrows=2)))
            except DiagramError:
                pass
    for d in diagrams:
        _assert_pass_matches_oracle(d, rng)
    # the cases the pass has to get right are all there
    assert any(w.doubles is not None for d in diagrams for w in d.warrows)
    assert any(w.at in d.nodes() for d in diagrams for w in d.warrows)
    assert any(a.weight >= 2 for d in diagrams for a in d.farrows)
    assert any(len(d.vertices) == 1 for d in diagrams)
    assert max(len(d.nodes()) for d in diagrams) >= 30


def test_linking_sums_refuse_an_empty_cyclic_or_zero_weight_diagram():
    from splicezeta.diagrams import Edge, SpliceDiagram, linking_sums
    from splicezeta.divisors import vertex_multiplicities

    edges = [Edge("v", "b1", 2, 1), Edge("v", "b2", 0, 1), Edge("v", "b3", 3, 1)]
    d = SpliceDiagram(["v", "b1", "b2", "b3"], edges)
    with pytest.raises(DiagramError, match="weight"):
        linking_sums(d, {"v": 1})
    with pytest.raises(DiagramError, match="weight"):
        d.linking_product("v", "b1")
    cycle = SpliceDiagram(["a", "b", "c"], [("a", "b", 2, 3), ("b", "c", 5, 7), ("c", "a", 11, 13)])
    for x in (SpliceDiagram([]), cycle):
        with pytest.raises(DiagramError, match="tree"):
            linking_sums(x, {})
        with pytest.raises(DiagramError, match="tree"):
            vertex_multiplicities(x)
    with pytest.raises(DiagramError, match="tree"):
        cycle.linking_product("a", "b")


def _count_linking(monkeypatch):
    """Count traversals built and passes made by ``linking_sums``,
    wherever a splicezeta module binds it."""
    import sys

    from splicezeta import diagrams

    counts = {"traversals": 0, "passes": 0}
    sweep, traverse = diagrams.linking_sums, diagrams._linking_traversal

    def counted_sums(d, c):
        counts["passes"] += 1
        return sweep(d, c)

    def counted_traversal(d):
        counts["traversals"] += 1
        return traverse(d)

    for name, module in list(sys.modules.items()):
        if name.startswith("splicezeta") and getattr(module, "linking_sums", None) is sweep:
            monkeypatch.setattr(module, "linking_sums", counted_sums)
    monkeypatch.setattr(diagrams, "_linking_traversal", counted_traversal)
    return counts


def test_linking_passes_are_counted(monkeypatch):
    # on a freshly parsed converted curve: one traversal, the own F and W
    # read off the memoized passes (F, canonical terms, stored W) with no
    # pass after it, and one W pass per verdict at a dense W, not one per node
    from splicezeta.allowed import allowed_at, is_allowed
    from splicezeta.io import parse_diagram, print_splice
    from splicezeta.splicing import splice, star_decomposition
    from splicezeta.zeta import zeta_splice

    counts = _count_linking(monkeypatch)
    rng = random.Random(0)
    texts = []
    while len(texts) < 2:
        g = random_plumbing(rng, blowups=80, arrows=2, warrow_chance=1.0 if texts else 0.0)
        try:
            texts.append(print_splice(plumbing_to_splice(g), "curve"))
        except DiagramError:
            continue
    for text in texts:
        d = parse_diagram(text)[2]
        counts.update(traversals=0, passes=0)
        zeta_splice(d).poles()
        assert counts == {"traversals": 1, "passes": 3}
        vertex_multiplicities(d)
        nu_values(d)
        allowed_at(d)
        is_allowed(d)
        star_decomposition(d)
        splice(d, d.special_edges()[0])
        assert counts == {"traversals": 1, "passes": 3}
        assert len(d.nodes()) > 10
        for _ in range(3):
            w = {s: rng.randint(0, 2) for s in d.boundary_vertices()}
            for verdict in (zeta_splice, allowed_at, star_decomposition):
                before = counts["passes"]
                verdict(d, None, w)
                assert counts["passes"] == before + 1, verdict
        assert counts["traversals"] == 1
    assert any(parse_diagram(text)[2].warrows for text in texts)
