"""Semigroup machinery, allowedness, the pole-to-eigenvalue property, and the
arithmetic lemmas behind them."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from splicezeta.allowed import (
    SEMIGROUP_MAX_MIN_GENERATOR,
    SemigroupLimitError,
    allowed_at,
    check_goal1,
    is_allowed,
    semigroup_condition,
    semigroup_member,
)
from splicezeta.corpus import (
    golden_splice_diagrams,
    plane_curve_staircase,
    two_cusp_diagram,
    unimodular_counterexample_plumbing,
)
from splicezeta.diagrams import DiagramError, SpliceDiagram, blowup, plumbing_to_splice, validate
from splicezeta.divisors import nu_values, vertex_multiplicities
from splicezeta.generate import random_allowed_w, random_plumbing, random_valid_splice
from splicezeta.splicing import induced_value, splice, star_decomposition
from splicezeta.zeta import zeta_splice
from linking_oracle import pairwise_linking_product


def test_semigroup_member_golden():
    assert not semigroup_member(1, (2, 3))
    assert semigroup_member(0, ())
    assert semigroup_member(12, (4, 5))
    assert not semigroup_member(11, (4, 6))


def test_semigroup_member_above_conductor():
    # coprime a, p: every integer above a*p is representable
    for a, p in ((2, 3), (3, 5), (4, 7), (5, 6)):
        assert gcd(a, p) == 1
        for t in range(a * p + 1, a * p + 2 * a + 2 * p):
            assert semigroup_member(t, (a, p))


def test_semigroup_member_equals_bruteforce():
    rng = random.Random(2)
    for _ in range(60):
        gens = tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 3)))
        target = rng.randint(0, 200)
        brute = False
        bounds = [target // g + 1 for g in gens]
        for combo in itertools.product(*(range(b + 1) for b in bounds)):
            if sum(c * g for c, g in zip(combo, gens)) == target:
                brute = True
                break
        assert semigroup_member(target, gens) == brute


def _semigroup_member_dp(target, gens):
    """Reference: boolean dynamic programming over 0..target."""
    if target == 0:
        return True
    gens = tuple(g for g in gens if g > 0)
    if not gens:
        return False
    reach = [False] * (target + 1)
    reach[0] = True
    for k in range(1, target + 1):
        reach[k] = any(g <= k and reach[k - g] for g in gens)
    return reach[target]


def test_semigroup_member_matches_dp():
    rng = random.Random(5)
    for _ in range(3000):
        gens = tuple(rng.randint(0, 40) for _ in range(rng.randint(0, 5)))
        target = rng.randint(0, 400)
        assert semigroup_member(target, gens) == _semigroup_member_dp(target, gens), (target, gens)


def test_semigroup_member_bounded_work():
    # below the smallest generator: False without building any table
    assert not semigroup_member(10**30 - 1, (10**30, 10**31))
    # the table has as many entries as the smallest generator, not the target
    big = SEMIGROUP_MAX_MIN_GENERATOR
    assert semigroup_member(10**40, (big - 1, big))
    assert not semigroup_member(1009 * 1013 - 1009 - 1013, (1009, 1013))  # Frobenius number
    with pytest.raises(SemigroupLimitError):
        semigroup_member(10**40, (big + 1, big + 2))


def test_semigroup_condition_golden():
    d = two_cusp_diagram()
    rep = semigroup_condition(d)
    assert not rep.ok
    assert {f.node for f in rep.failures} == {"v0"}
    st = plane_curve_staircase([(2, 3), (13, 2)])
    assert semigroup_condition(st).ok
    st2 = plane_curve_staircase([(3, 2), (25, 3), (530, 7)])
    assert semigroup_condition(st2).ok
    u = plumbing_to_splice(unimodular_counterexample_plumbing(1))
    repu = semigroup_condition(u)
    assert not repu.ok
    assert {f.node for f in repu.failures} == {"u3"}
    assert repu.failures[0].weight == 1
    assert tuple(repu.failures[0].generators) == (2, 3)


def test_semigroup_condition_matches_reference():
    # reference: the generators of every arrow-free side from linking products
    def reference(d):
        checked, failures = 0, []
        for v in d.nodes():
            for e in d.edges_at(v):
                side = d.side_vertices(v, e)
                if any(a.at in side for a in d.farrows):
                    continue
                checked += 1
                far = e.other(v)
                gens = tuple(sorted(
                    pairwise_linking_product(d, far, w, e) for w in side if d.valency_f(w) == 1
                ))
                if not semigroup_member(e.weight_at(v), gens):
                    failures.append((v, (v, far), e.weight_at(v), gens))
        return checked, failures

    rng = random.Random(31)
    diagrams = [two_cusp_diagram(), plane_curve_staircase([(3, 2), (25, 3), (530, 7)])]
    diagrams += [random_valid_splice(rng, with_warrows=True) for _ in range(150)]
    for d in diagrams:
        rep = semigroup_condition(d)
        got = [(f.node, f.edge, f.weight, f.generators) for f in rep.failures]
        assert (rep.checked, got) == reference(d)


def test_allowedness_builds_no_diagram(monkeypatch):
    # the verdicts read the leg table and the root cuts; no star is built
    rng = random.Random(5)
    d = random_valid_splice(rng, max_nodes=6, max_weight=13, with_warrows=True)
    while len(d.nodes()) < 4:
        d = random_valid_splice(rng, max_nodes=6, max_weight=13, with_warrows=True)
    cusps = two_cusp_diagram()
    built = []
    init = SpliceDiagram.__init__

    def counted(self, *args, **kw):
        built.append(1)
        init(self, *args, **kw)

    monkeypatch.setattr(SpliceDiagram, "__init__", counted)
    for w in (None, {}, {v: -1 for v in d.boundary_vertices()}):
        is_allowed(d, None, w)
    semigroup_condition(d)
    is_allowed(cusps, None, {"leg1": 2, "leg1p": 1})
    semigroup_condition(cusps)
    assert built == []


def test_is_allowed_goldens():
    d = two_cusp_diagram()
    assert not is_allowed(d).allowed
    st = plane_curve_staircase([(2, 3), (13, 2)])
    assert is_allowed(st).allowed
    # i1 = 1, i2 = 3 with I' = 7 is allowed
    assert is_allowed(d, w={"leg1": 2, "leg1p": 1}).allowed
    # I' = 7 with (i1', i2') = (1, 2); any I' != 7 with 3 | i1' etc. may fail
    assert not is_allowed(d, w={"leg1": 2, "bR": 1, "leg1p": 2}).allowed


def test_allowedness_unified_condition():
    from splicezeta.diagrams import Edge, Farrow, SpliceDiagram, Warrow

    def star(r, leg_data):
        vertices = ["v"] + [f"b{k}" for k in range(len(leg_data))]
        edges = [Edge("v", f"b{k}", d_, 1) for k, (d_, _) in enumerate(leg_data)]
        farrows = [Farrow(id=f"a{j}", at="v", weight=1, mult=1) for j in range(r)]
        warrows = [
            Warrow(id=f"w{k}", value=i, at=f"b{k}")
            for k, (_, i) in enumerate(leg_data)
            if i != 1
        ]
        return SpliceDiagram(vertices, edges, farrows, warrows)

    # r = 2: all divisible forces all equal
    assert not is_allowed(star(2, [(2, 4), (3, 3)])).stars[0].ok
    assert is_allowed(star(2, [(2, 2), (3, 3)])).stars[0].ok
    assert is_allowed(star(2, [(2, 5), (3, 3)])).stars[0].ok
    # r = 1: n-1 divisible forces n-1 equal
    assert not is_allowed(star(1, [(2, 4), (3, 5)])).stars[0].ok
    assert is_allowed(star(1, [(2, 2), (3, 5)])).stars[0].ok
    # r >= 3: no condition
    assert is_allowed(star(3, [(2, 4), (3, 6)])).stars[0].ok


def test_goal1_negative_control():
    d = two_cusp_diagram()
    rep = check_goal1(d, w={"leg1": 5})
    assert not rep.allowed
    assert not rep.holds
    bad = [p for p in rep.counterexamples]
    assert any(p.s0 == Fraction(-19, 2) for p in bad)
    from splicezeta.exact import UnityRoot

    assert any(p.eigenvalue == UnityRoot(1, 2) for p in bad)


def test_goal1_w_zero_running_example():
    rep = check_goal1(two_cusp_diagram())
    assert not rep.allowed and rep.holds


def test_goal1_randomized_allowed():
    rng = random.Random(41)
    done = 0
    while done < 60:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        w = random_allowed_w(rng, d)
        if w is None:
            continue
        done += 1
        rep = check_goal1(d, w=w)
        assert rep.allowed
        assert rep.holds, (d, w, str(rep))


def test_restriction_preserves_allowedness():
    # allowed divisors restrict to allowed halves, with nonzero induced values
    rng = random.Random(42)
    done = 0
    while done < 40:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        specials = d.special_edges()
        if not specials:
            continue
        w = random_allowed_w(rng, d)
        if w is None:
            continue
        done += 1
        e = rng.choice(specials)
        left, right = splice(d, e, None, w)
        for half in (left, right):
            assert is_allowed(half.diagram).allowed
        # a pure induced dashed arrow never carries value zero
        if left.new_farrow is None:
            assert left.i != 0
        if right.new_farrow is None:
            assert right.i != 0


def test_blowup_invariance_of_allowedness():
    rng = random.Random(43)
    done = 0
    while done < 25:
        g = random_plumbing(rng, blowups=rng.randint(1, 5), arrows=rng.randint(1, 2))
        try:
            d = plumbing_to_splice(g)
        except DiagramError:
            continue
        w = random_allowed_w(rng, d)
        if w is None:
            continue
        # move w onto the plumbing graph: same slot ids survive conversion
        from splicezeta.diagrams import PlumbingGraph, Warrow

        warrows = []
        ok = True
        for k, (slot, mult) in enumerate(sorted(w.items())):
            if mult == 0:
                continue
            if slot in {a.id for a in g.farrows}:
                warrows.append(Warrow(id=f"tw{k}", value=mult + 1, doubles=slot))
            elif slot in {v.id for v in g.vertices} and g.valency_f(slot) == 1:
                warrows.append(Warrow(id=f"tw{k}", value=mult + 1, at=slot))
            else:
                ok = False
        if not ok:
            continue
        g = PlumbingGraph(g.vertices, g.edges, g.farrows, warrows)
        try:
            base = is_allowed(plumbing_to_splice(g)).allowed
        except DiagramError:
            continue
        done += 1
        loci = []
        warrow_vertices = {x.at for x in g.warrows if x.at}
        for v in g.vertices:
            if v.id not in warrow_vertices:
                loci.append(("vertex", v.id))
        if g.edges:
            loci.append(("edge", rng.choice(g.edges)))
        for a in g.farrows:
            loci.append(("arrow", a.id))
        for locus in rng.sample(loci, min(3, len(loci))):
            g2 = blowup(g, locus)
            assert is_allowed(plumbing_to_splice(g2)).allowed == base, (locus,)


def _verdict(check, *args):
    try:
        return check(*args)
    except DiagramError as exc:
        return str(exc)


def test_allowed_at_is_the_verdict_without_its_report():
    # the boolean core gives is_allowed's .allowed, or the same refusal, on
    # the corpus and on random diagrams at random F and W, with i = 0 on
    # slots, slots that are no vertex and F without an arrowhead key
    rng = random.Random(23)
    diagrams = list(golden_splice_diagrams().values())
    diagrams += [random_valid_splice(rng, max_nodes=4, max_weight=9) for _ in range(60)]
    seen = dict.fromkeys([True, False, "refused"], 0)
    for d in diagrams:
        slots = [*d.vertices, *(a.id for a in d.farrows), "bogus"]
        for k in range(40):
            picked = rng.sample(slots, rng.randint(0, min(4, len(slots))))
            w = {s: rng.choice([-2, -1, -1, 0, 1, 2, 3, 5]) for s in picked}
            f = None if k % 3 else {a.id: rng.randint(0, 2) for a in d.farrows}
            if k % 20 == 7:
                f = {"bogus": 1}
            got = _verdict(allowed_at, d, f, w)
            want = _verdict(lambda *a: is_allowed(*a).allowed, d, f, w)
            assert got == want, (d, f, w)
            seen[got if isinstance(got, bool) else "refused"] += 1
    assert min(seen.values()) >= 100, seen


def test_w_zero_allowed_under_semigroup_condition():
    # minimal diagrams passing the semigroup condition always allow W = 0
    rng = random.Random(44)
    cases = [
        plane_curve_staircase([(2, 3)]),
        plane_curve_staircase([(2, 3), (13, 2)]),
        plane_curve_staircase([(3, 2), (25, 3)]),
        plane_curve_staircase([(2, 5), (21, 2)]),
        plane_curve_staircase([(3, 4), (61, 5)]),
    ]
    done = 0
    while done < 25:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        # minimality: no weight-1 legs at boundary
        minimal = all(
            e.weight_at(e.a if d.is_node(e.a) else e.b) > 1
            for e in d.edges
            if not (d.is_node(e.a) and d.is_node(e.b))
        )
        if not minimal:
            continue
        done += 1
        cases.append(d)
    for d in cases:
        if semigroup_condition(d).ok:
            assert is_allowed(d, None, {}).allowed


def test_induced_value_negative_on_minimal_arrowfree_sides():
    # cutting a minimal diagram along an edge with an arrow-free side gives
    # i' < 0; under the semigroup condition additionally d' does not divide i'
    rng = random.Random(45)
    checked_strict = 0
    cases = [
        plane_curve_staircase([(2, 3), (13, 2)]),
        plane_curve_staircase([(3, 2), (25, 3)]),
        plane_curve_staircase([(2, 3), (13, 2), (79, 3)]),
    ]
    done = 0
    while done < 25:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        done += 1
        cases.append(d)
    for d in cases:
        minimal = all(
            e.weight_at(e.a if d.is_node(e.a) else e.b) > 1
            for e in d.edges
            if not (d.is_node(e.a) and d.is_node(e.b))
        )
        if not minimal:
            continue
        sg = semigroup_condition(d).ok
        for e in d.special_edges():
            for keep, far in ((e.a, e.b), (e.b, e.a)):
                side = set(d.side_vertices(keep, e))
                if any(a.at in side for a in d.farrows):
                    continue
                iprime = induced_value(d, e, keep, {})
                assert iprime < 0, (e.key, keep)
                if sg:
                    checked_strict += 1
                    assert iprime % e.weight_at(keep) != 0
    assert checked_strict >= 3


def test_elementary_lemma_exhaustive():
    # pairwise-coprime d_j <= 11, n <= 4: no positive m_j solve
    # sum m_j D/d_j = (n-1) D; and membership of a divisor d | D in the
    # semigroup of the D/d_j forces D/d_j | d for some j
    tuples = []
    for n in (2, 3, 4):
        for combo in itertools.combinations(range(2, 12), n):
            if all(gcd(a, b) == 1 for a, b in itertools.combinations(combo, 2)):
                tuples.append(combo)
    assert tuples
    for ds in tuples:
        D = 1
        for x in ds:
            D *= x
        gens = [D // x for x in ds]
        n = len(ds)
        # (a): m_j range is bounded by (n-1) d_j
        for combo in itertools.product(*(range(1, (n - 1) * d + 1) for d in ds)):
            if sum(m * g for m, g in zip(combo, gens)) == (n - 1) * D:
                raise AssertionError((ds, combo))
        # (b)
        for d in range(1, D + 1):
            if D % d:
                continue
            if semigroup_member(d, tuple(gens)):
                assert any(d % g == 0 for g in gens), (ds, d)


def test_forced_equalities_kill_residue():
    # with i_l = d_l forced on a star, -nu/N contributes no residue
    rng = random.Random(46)
    done = 0
    while done < 30:
        d = random_valid_splice(rng, max_nodes=1, max_weight=13, arrows=rng.choice([1, 2]))
        (v,) = d.nodes()
        legs = [e for e in d.edges_at(v) if not d.is_node(e.other(v))]
        r = len(d.farrows)
        if r not in (1, 2) or not legs:
            continue
        w = {}
        free = legs[0]
        for k, e in enumerate(legs):
            if r == 2 or k > 0:
                w[e.other(v)] = e.weight_at(v) - 1  # i = d
        if r == 1 and legs:
            w[free.other(v)] = rng.choice([1, 2, 4])  # i != 0 on the free leg
        for j, a in enumerate(d.farrows):
            w[a.id] = rng.choice([0, 1, 2])
        nu = nu_values(d, w)[v]
        nv = vertex_multiplicities(d)[v]
        s0 = Fraction(-nu, nv)
        # skip stated order-2 coincidences
        wm = dict(w)
        coincide = False
        for a in d.farrows:
            ia = wm.get(a.id, 0) + 1
            if a.mult and Fraction(ia, a.mult) == Fraction(nu, nv):
                coincide = True
        if coincide:
            continue
        done += 1
        z = zeta_splice(d, w=w)
        assert all(p.location != s0 for p in z.poles()), (w, s0)


def test_star_piece_with_induced_zero_is_not_allowed_not_refused():
    # the W-dependent kinds stay with the verdict that judges the W: a star
    # piece whose induced dashed arrow has i = 0 is invalid, and not allowed
    d = two_cusp_diagram()
    w = {"bL": -2, "leg1": -2, "leg1p": -1, "bR": 1}
    star = star_decomposition(d, None, w)["v0"]
    assert [v.kind for v in validate(star).violations] == ["arrow-data"]
    verdict = is_allowed(star)
    assert verdict.allowed is False
    assert verdict.nonzero_detail[0] == "pure dashed arrow at '~v0|v1p' has i = 0"
