"""Monodromy zeta, Alexander polynomial, eigenvalue set."""

import random

import pytest

from splicezeta.corpus import (
    intro_star,
    rodrigues_plumbing,
    two_cusp_diagram,
    two_cusp_diagram_mult,
    unimodular_counterexample_plumbing,
)
from splicezeta.diagrams import (
    DiagramError,
    Farrow,
    SpliceDiagram,
    plumbing_to_splice,
)
from splicezeta.divisors import vertex_multiplicities
from splicezeta.exact import CycloProduct, Poly, UnityRoot
from splicezeta.generate import random_plumbing, random_valid_splice
from splicezeta.monodromy import (
    alexander,
    delta0,
    delta1,
    eig_contains,
    monodromy_zeta,
)
from splicezeta.splicing import splice, star_decomposition

T2 = Poly([1, -1, 1])  # t^2 - t + 1


def test_monodromy_zeta_running_example():
    z = monodromy_zeta(two_cusp_diagram())
    assert z == CycloProduct({6: 2, 1: 1, 3: -2, 2: -2})
    assert delta1(two_cusp_diagram()).expand() == T2 * T2


def test_monodromy_zeta_single_node_one_arrow():
    d = SpliceDiagram(["v"], [], [Farrow(id="a", at="v", weight=1, mult=1)])
    assert monodromy_zeta(d) == CycloProduct({1: -1})
    assert alexander(d).expand() == Poly([1])


def test_alexander_mult_n():
    for n in (1, 2, 7):
        d = two_cusp_diagram_mult(n)
        expected = Poly([1] + [0] * (n - 1) + [-1] + [0] * (n - 1) + [1])
        assert alexander(d).expand() == expected * expected


def test_alexander_star_factors():
    d = two_cusp_diagram()
    stars = star_decomposition(d)
    assert alexander(stars["v1"]).expand() == T2
    assert alexander(stars["v1p"]).expand() == T2
    assert alexander(stars["v0"]).expand() == Poly([1])
    prod = alexander(stars["v1"]) * alexander(stars["v0"]) * alexander(stars["v1p"])
    assert prod.expand() == alexander(d).expand()


def test_alexander_intro_star():
    # (t^N-1)^2 / ((t^{N/d1}-1)(t^{N/d2}-1)) with N = 2 d1 d2
    for d1, d2 in ((2, 3), (3, 5)):
        n = 2 * d1 * d2
        st = intro_star(d1, d2)
        assert alexander(st) == CycloProduct({n: 2, n // d1: -1, n // d2: -1})


def test_alexander_multiplicative_under_splicing():
    rng = random.Random(14)
    done = 0
    while done < 50:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        specials = d.special_edges()
        if not specials:
            continue
        done += 1
        e = rng.choice(specials)
        left, right = splice(d, e)
        la = alexander(d)
        ll = alexander(left.diagram)
        lr = alexander(right.diagram)
        assert ll * lr == la
        assert (ll * lr).expand() == la.expand()


def test_alexander_is_polynomial():
    rng = random.Random(15)
    for _ in range(40):
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        lam = alexander(d)
        assert lam.is_polynomial()
        lam.expand()


def test_star_closed_form():
    # a star's Alexander polynomial: (t^{N_v}-1)^{r+n-2} / prod(t^{N_v/d_l}-1),
    # times (t^{N_1}-1) when r = 1
    rng = random.Random(16)
    done = 0
    while done < 30:
        d = random_valid_splice(rng, max_nodes=3, max_weight=13)
        for star in star_decomposition(d).values():
            (v,) = star.nodes()
            legs = [e for e in star.edges_at(v) if not star.is_node(e.other(v))]
            r = len(star.farrows)
            n = len(legs)
            nv = vertex_multiplicities(star)[v]
            expect = CycloProduct(
                [(nv, r + n - 2)] + [(nv // e.weight_at(v), -1) for e in legs]
            )
            if r == 1:
                (a,) = star.farrows
                expect = expect * CycloProduct({a.mult: 1})
            assert alexander(star) == expect
            done += 1


def test_eig_membership_golden():
    d = two_cusp_diagram()
    assert not eig_contains(d, UnityRoot(1, 2))
    assert eig_contains(d, UnityRoot(0, 1))
    assert eig_contains(d, UnityRoot(1, 6))
    assert eig_contains(d, UnityRoot(5, 6))
    assert not eig_contains(d, UnityRoot(1, 4))


def test_eig_arrow_roots():
    d = two_cusp_diagram_mult(7)
    # 7th roots of unity enter through the arrowhead multiplicity
    assert eig_contains(d, UnityRoot(1, 7))
    assert eig_contains(d, UnityRoot(37, 42))
    assert not eig_contains(d, UnityRoot(1, 5))


def test_delta1_plumbing_counterexamples():
    rod = rodrigues_plumbing()
    d1 = delta1(rod)
    assert d1 == CycloProduct({12: 1, 7: 1, 6: -1, 1: -1})
    assert d1.root_multiplicity(UnityRoot(1, 3)) == 0
    assert not eig_contains(rod, UnityRoot(1, 3))
    for n in (1, 2):
        g = unimodular_counterexample_plumbing(n)
        printed = (
            CycloProduct.plus_one(9 * n)
            * CycloProduct([(2 * n, n - 1), (1, 1)])
            / CycloProduct.plus_one(3 * n)
            / CycloProduct([(n, 1)])
        )
        assert delta1(g) == printed
        assert printed.root_multiplicity(UnityRoot(7 % (3 * n), 3 * n)) == 0


def test_delta0_component_count():
    d = two_cusp_diagram_mult(6)
    assert delta0(d) == CycloProduct({6: 1})
    st = intro_star(2, 3)
    assert delta0(st) == CycloProduct({1: 1})


def test_monodromy_requires_nonzero_f():
    d = two_cusp_diagram()
    with pytest.raises(DiagramError):
        monodromy_zeta(d, {"a0": 0})


def test_monodromy_plumbing_route_matches_splice_route():
    # the vertex product over the resolution graph equals the one over its
    # splice diagram whenever the graph converts
    rng = random.Random(5)
    checked = 0
    for k in range(300):
        g = random_plumbing(
            rng,
            blowups=rng.randint(2, 12),
            arrows=rng.randint(1, 2),
            warrow_chance=1.0 if k % 2 else 0.0,
        )
        try:
            d = plumbing_to_splice(g)
        except DiagramError:
            continue
        assert monodromy_zeta(g) == monodromy_zeta(d)
        assert delta1(g) == delta1(d)
        checked += 1
    assert checked >= 200
