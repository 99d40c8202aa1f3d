"""Topological zeta functions: golden values, oracle equality, pole structure."""

import random
from math import gcd
from collections import defaultdict
from itertools import chain
from fractions import Fraction

import pytest

from splicezeta.cli import _json, _zeta_json
from splicezeta.corpus import (
    golden_plumbing_graphs,
    golden_splice_diagrams,
    intro_star,
    rodrigues_plumbing,
    smooth_point_plumbing,
    two_cusp_diagram,
    two_cusp_plumbing,
    unimodular_counterexample_plumbing,
)
from splicezeta.diagrams import DiagramError, blowup, plumbing_to_splice
from splicezeta.divisors import nu_values, vertex_multiplicities
from splicezeta.exact import Poly, RatFunc, UnityRoot
from splicezeta.generate import random_plumbing, random_valid_splice
from splicezeta.monodromy import delta1, eig_contains
from splicezeta.zeta import (
    ArrowPart,
    EdgeTerm,
    NodeTerm,
    ZetaResult,
    pole_at,
    principal_parts,
    summands,
    zeta_plumbing,
    zeta_splice,
)
from zeta_oracle import func, reduced_ratfunc, termwise_sum, zeta_payload


def lin(a, b):
    return Poly.linear(a, b)


def frac(num, den):
    return RatFunc(Poly.const(num), den)


def test_zeta_running_example_exact():
    z = zeta_splice(two_cusp_diagram())
    expected = (
        frac(8, lin(-13, 6))
        + RatFunc(Poly.const(1), lin(-2, 1)) * (frac(-1, Poly.const(1)) + frac(1, lin(1, 1)))
        + frac(2, lin(-2, 1) * lin(-13, 6))
    )
    assert func(z) == expected


def test_zeta_family_with_form_decorations():
    # i1 = 1, i2 = 3, I' = 3 i1' + 2 i2': printed three-node expression
    d = two_cusp_diagram()
    for i1p, i2p in ((1, 2), (3, -1), (1, 1), (5, -4)):
        ip = 3 * i1p + 2 * i2p
        w = {"leg1": 2, "bR": i1p - 1, "leg1p": i2p - 1}
        if i1p == 0 or i2p == 0:
            continue
        z = zeta_splice(d, w=w)
        expected = (
            frac(2, lin(6 * ip - 15, 6))
            + RatFunc(Poly.const(-1 + Fraction(ip, i1p * i2p)), lin(7 * ip - 24, 6))
            + RatFunc(Poly.const(1), lin(ip - 3, 1))
            * (
                frac(-1, Poly.const(1))
                + frac(1, lin(1, 1))
                + frac(1, lin(6 * ip - 15, 6))
                + frac(1, lin(7 * ip - 24, 6))
            )
        )
        assert func(z) == expected, (i1p, i2p)


def test_zeta_intro_star_formula():
    # (1/(nu + sN)) * (-2 + d1/i1 + d2/i2 + 1/(k1+s) + 1/(k2+s))
    rng = random.Random(8)
    for d1, d2 in ((2, 3), (3, 4)):
        st = intro_star(d1, d2)
        for _ in range(6):
            i1, i2 = rng.choice([1, 2, -1, 3]), rng.choice([1, -2, 2, 5])
            k1, k2 = rng.choice([1, 2, -3]), rng.choice([1, 3, -1])
            w = {"b1": i1 - 1, "b2": i2 - 1, "a1": k1 - 1, "a2": k2 - 1}
            nu = d1 * d2 * (k1 + k2 - 2) + d2 * i1 + d1 * i2
            n = 2 * d1 * d2
            if (nu, n) == (0, 0):
                continue
            z = zeta_splice(st, w=w)
            expected = RatFunc(Poly.const(1), lin(nu, n)) * (
                frac(-2, Poly.const(1))
                + frac(Fraction(d1, i1), Poly.const(1))
                + frac(Fraction(d2, i2), Poly.const(1))
                + frac(1, lin(k1, 1))
                + frac(1, lin(k2, 1))
            )
            assert func(z) == expected


def test_zeta_plumbing_equals_splice_route():
    assert func(zeta_plumbing(two_cusp_plumbing())) == func(zeta_splice(two_cusp_diagram()))


def test_zeta_single_stratum():
    # one (-1)-curve, one transversal arrow: Z = 1/(s+1)
    z = zeta_plumbing(smooth_point_plumbing())
    assert func(z) == RatFunc(Poly.const(1), lin(1, 1))


def test_zeta_rodrigues_pole_third():
    z = zeta_plumbing(rodrigues_plumbing())
    poles = z.poles()
    third = [p for p in poles if p.location == Fraction(1, 3)]
    assert len(third) == 1 and third[0].order == 1


def test_zeta_unimod_counterexample_pole():
    for n in (1, 2):
        z = zeta_plumbing(unimodular_counterexample_plumbing(n))
        target = Fraction(7, 3 * n)
        assert any(p.location == target and p.order == 1 for p in z.poles())


def test_pole_set_within_candidates():
    # valency-1/2 vertices never contribute: poles sit among node and arrow data
    rng = random.Random(21)
    done = 0
    while done < 30:
        g = random_plumbing(rng, blowups=rng.randint(2, 6), arrows=rng.randint(1, 2))
        try:
            d = plumbing_to_splice(g)
        except DiagramError:
            continue
        done += 1
        z = zeta_splice(d)
        nv = vertex_multiplicities(d)
        nu = nu_values(d)
        wm = d.w_divisor()
        cands = {Fraction(-nu[v], nv[v]) for v in d.nodes()}
        for a in d.farrows:
            if a.mult:
                cands.add(Fraction(-(wm.get(a.id, 0) + 1), a.mult))
        for p in z.poles():
            assert p.location in cands


def test_zeta_blowup_invariance():
    rng = random.Random(31)
    done = 0
    while done < 15:
        g = random_plumbing(rng, blowups=rng.randint(1, 5), arrows=rng.randint(1, 2))
        z0 = func(zeta_plumbing(g))
        loci = [("vertex", rng.choice(g.vertices).id)]
        if g.edges:
            loci.append(("edge", rng.choice(g.edges)))
        loci.append(("arrow", rng.choice(g.farrows).id))
        for locus in loci:
            g2 = blowup(g, locus)
            assert func(zeta_plumbing(g2)) == z0
        done += 1


def test_zeta_requires_nonzero_effective_divisor():
    d = two_cusp_diagram()
    with pytest.raises(DiagramError):
        zeta_splice(d, f={"a0": 0})
    with pytest.raises(DiagramError):
        zeta_splice(d, f={"a0": -1})


def test_zeta_boundary_zero_value_rejected():
    d = two_cusp_diagram()
    with pytest.raises(DiagramError):
        zeta_splice(d, w={"bL": -1})  # i = 0 at a boundary vertex


def test_residue_contribution_accessor():
    d = two_cusp_diagram()
    z = zeta_splice(d)
    # residue at -nu/N for v1 equals the total residue there (only v1 vanishes)
    s0 = Fraction(13, 6)
    both = z.residue_contribution("v1", s0) + z.residue_contribution("v1p", s0)
    (match,) = [p for p in z.poles() if p.location == s0]
    assert both == match.leading
    assert z.residue_contribution("v1", s0) == z.residue_contribution("v1p", s0)


def test_zeta_printed_family_second_form():
    # decorations i1 = i2 = 1, I' = 7: the printed compact expression
    # 4/(6s-1) - 1/(s+1) + (1/(6s+1))(-1 + 7/(i1' i2')) + 12/((6s-1)(6s+1))
    d = two_cusp_diagram()
    for i1p, i2p in ((1, 2), (3, -1)):
        assert 3 * i1p + 2 * i2p == 7
        w = {"bR": i1p - 1, "leg1p": i2p - 1}
        z = zeta_splice(d, w=w)
        expected = (
            frac(4, lin(-1, 6))
            + frac(-1, lin(1, 1))
            + RatFunc(Poly.const(-1 + Fraction(7, i1p * i2p)), lin(1, 6))
            + frac(12, lin(-1, 6) * lin(1, 6))
        )
        assert func(z) == expected
        # every candidate pole is a genuine pole here
        locs = {p.location for p in z.poles()}
        assert {Fraction(1, 6), Fraction(-1, 6), Fraction(-1)} <= locs


def test_zeta_general_mode_with_warrows():
    # non-unimodular graph, dashed arrow at a boundary component: rational
    # multiplicities flow through the stratified sum without integrality
    from splicezeta.diagrams import PlumbingGraph, PVertex, Farrow, Warrow

    g0 = rodrigues_plumbing()
    g = PlumbingGraph(
        g0.vertices,
        g0.edges,
        g0.farrows,
        [Warrow(id="w0", value=3, at="c1")],
    )
    z = zeta_plumbing(g)
    assert not func(z).is_zero()
    assert all(p.order in (1, 2) for p in z.poles())
    # a graph with genuinely fractional nu: det > 1 without Gorenstein data
    g2 = PlumbingGraph(
        [PVertex("a", -2), PVertex("b", -3)],
        [("a", "b")],
        [Farrow(id="f", at="a", weight=1, mult=1)],
    )
    assert g2.det_minus_I() == 5
    z2 = zeta_plumbing(g2)
    assert not func(z2).is_zero()


def test_zeta_is_proper_rational_function():
    # every term is proper, so the sum is: deg(num) < deg(den) after reduction
    rng = random.Random(61)
    for _ in range(25):
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        z = zeta_splice(d)
        f = func(z)
        if not f.is_zero():
            assert f.num.degree < f.den.degree


# ---------------------------------------------------------------------------
# assembly of the term list: oracles and the no-gcd guard


def random_terms(rng):
    """Term lists with shared and repeated roots, N = 0 factors and, now and
    then, sums that cancel to 0 or to a constant."""
    forms = []
    while len(forms) < 4:
        a, b = rng.randint(-4, 4), rng.choice([0, 1, 2, 3, -2])
        if (a, b) != (0, 0):
            forms.append((Fraction(a), Fraction(b)))
    node_terms, edge_terms = [], []
    for k in range(rng.randint(0, 4)):
        nu, n = rng.choice(forms)
        const = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        arrows = tuple(
            ArrowPart(weight=rng.choice([1, 2, -3]), i=i, n=m)
            for i, m in rng.sample(forms, rng.randint(0, 2))
        )
        node_terms.append(NodeTerm(f"v{k}", nu, n, const, arrows))
    for k in range(rng.randint(0, 3)):
        (nu1, n1), (nu2, n2) = rng.choice(forms), rng.choice(forms)
        q = Fraction(rng.randint(-5, 5))
        edge_terms.append(EdgeTerm((f"v{k}", f"v{k + 1}"), q, nu1, n1, nu2, n2))
    mode = rng.random()
    if mode < 0.3:  # add the negatives: the sum is 0, or a constant below
        node_terms += [
            t._replace(const=-t.const, arrows=tuple(p._replace(weight=-p.weight) for p in t.arrows))
            for t in node_terms
        ]
        edge_terms += [e._replace(q=-e.q) for e in edge_terms]
        if mode < 0.15:
            const = Fraction(rng.randint(-3, 3))
            node_terms.append(NodeTerm("c", Fraction(2), Fraction(0), const, ()))
    return node_terms, edge_terms


def test_assemble_equals_termwise_sum_random():
    rng = random.Random(5)
    for _ in range(400):
        node_terms, edge_terms = random_terms(rng)
        z = ZetaResult.from_terms(node_terms, edge_terms)
        got = reduced_ratfunc(z.const, z.parts)
        ref = termwise_sum(node_terms, edge_terms)
        assert (got.num, got.den) == (ref.num, ref.den)
        assert got.poles() == ref.poles()
        assert z.poles() == ref.poles()


def test_assemble_equals_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")

    def q(x):
        return sympy.Rational(x.numerator, x.denominator)

    def frac_of(x):
        return Fraction(int(x.p), int(x.q))

    rng = random.Random(6)
    for _ in range(60):
        node_terms, edge_terms = random_terms(rng)
        expr = sympy.Integer(0)
        for t in node_terms:
            bracket = q(t.const) + sum(p.weight / (q(p.i) + s * q(p.n)) for p in t.arrows)
            expr += bracket / (q(t.nu) + s * q(t.n))
        for e in edge_terms:
            expr += q(e.q) / ((q(e.nu1) + s * q(e.n1)) * (q(e.nu2) + s * q(e.n2)))
        num, den = (sympy.Poly(x, s) for x in sympy.fraction(sympy.cancel(expr)))
        lead = frac_of(den.LC())
        z = ZetaResult.from_terms(node_terms, edge_terms)
        got = func(z)
        assert reduced_ratfunc(z.const, z.parts) == got
        assert got.num == Poly([frac_of(c) / lead for c in reversed(num.all_coeffs())])
        assert got.den == Poly([frac_of(c) / lead for c in reversed(den.all_coeffs())])
        poles = got.poles()
        assert {p.location: p.order for p in poles} == {
            frac_of(r): m for r, m in sympy.roots(den).items()
        }
        for pole in poles:
            r = q(pole.location)
            assert sympy.cancel(expr * (s - r) ** pole.order).subs(s, r) == q(pole.leading)
        assert z.poles() == poles
        # C is the value at infinity; a2_r and a1_r are the Laurent
        # coefficients of (s - r)^-2 and (s - r)^-1 at r
        assert q(z.const) == sympy.limit(expr, s, sympy.oo)
        parts = {}
        for root in sympy.roots(den):
            lifted = sympy.cancel(expr * (s - root) ** 2)
            parts[frac_of(root)] = (
                frac_of(sympy.diff(lifted, s).subs(s, root)),
                frac_of(lifted.subs(s, root)),
            )
        assert z.parts == parts


GUARD_SEED = 4  # random_plumbing(Random(4), blowups=40): 41 vertices, 12 splice nodes


def test_zeta_routes_make_no_gcd_calls(monkeypatch):
    # nor does anything that reads the poles or checks a splice identity
    # search for roots with RatFunc.poles
    import splicezeta.exact as exact
    from splicezeta.allowed import check_goal1
    from splicezeta.splicing import verify_splice_zeta

    g = random_plumbing(random.Random(GUARD_SEED), blowups=40, arrows=2)
    d = plumbing_to_splice(g)
    calls = []
    original_gcd, original_poles = exact.poly_gcd, exact.RatFunc.poles
    monkeypatch.setattr(exact, "poly_gcd", lambda a, b: calls.append("gcd") or original_gcd(a, b))
    monkeypatch.setattr(
        exact.RatFunc, "poles", lambda self: calls.append("poles") or original_poles(self)
    )
    zeta_plumbing(g)
    zeta_splice(d)
    assert zeta_splice(d).poles()
    assert check_goal1(d).poles
    specials = sorted(d.special_edges(), key=lambda e: e.key)
    assert [verify_splice_zeta(d, e).ok for e in specials] == [True] * len(specials)
    assert len(g.vertices) == 41 and specials and calls == []


def test_zeta_routes_agree_on_41_vertices():
    g = random_plumbing(random.Random(GUARD_SEED), blowups=40, arrows=2)
    zp, zs = zeta_plumbing(g), zeta_splice(plumbing_to_splice(g))
    assert func(zp) == func(zs)
    assert zp.poles() == zs.poles()
    assert (zp.const, zp.parts) == (zs.const, zs.parts)
    assert zp.poles() == func(zp).poles() and zs.poles() == func(zs).poles()


def test_zeta_routes_agree_at_a_dense_w():
    # converted curves at a W on every boundary vertex and a random F, the
    # splice route's W pass against the plumbing route's solves: the
    # converted diagram keeps the graph's vertex and arrowhead ids
    rng = random.Random(31)
    done = 0
    while done < 12:
        g = random_plumbing(rng, blowups=rng.randint(20, 80), arrows=2, warrow_chance=0.0)
        try:
            d = plumbing_to_splice(g)
        except DiagramError:
            continue
        f = {a.id: rng.randint(1, 4) for a in d.farrows}
        w = {b: rng.choice((-3, -2, 0, 1, 2, 3)) for b in d.boundary_vertices()}
        assert all(g.valency_f(b) == 1 for b in w)
        zs, zp = zeta_splice(d, f, w), zeta_plumbing(g, f, w)
        assert (zs.const, zs.parts) == (zp.const, zp.parts)
        done += 1


def fraction_principal_parts(terms):
    """Reference: the principal parts summed one ``Fraction`` at a time."""
    const = Fraction(0)
    parts = defaultdict(lambda: [Fraction(0), Fraction(0)])
    for c, forms in terms:
        c = Fraction(c)
        roots = []
        for a, b in forms:
            if b:
                c = c / b
                roots.append(Fraction(-a) / b)
            else:
                c = c / a
        if not roots:
            const += c
        elif len(roots) == 2 and roots[0] != roots[1]:
            r1, r2 = roots
            x = c / (r1 - r2)
            parts[r1][0] += x
            parts[r2][0] -= x
        else:
            parts[roots[0]][len(roots) - 1] += c
    return const, {r: (a1, a2) for r, (a1, a2) in parts.items() if a1 or a2}


def _assert_same_parts(terms):
    want = fraction_principal_parts(terms)
    got = principal_parts(terms)
    assert got == want, terms
    assert list(got[1]) == list(want[1]), terms
    values = [got[0], *got[1], *(x for pair in got[1].values() for x in pair)]
    assert all(type(x) is Fraction for x in values)
    return got


def test_principal_parts_matches_fraction_reference(monkeypatch):
    import splicezeta.splicing as splicing
    from splicezeta.corpus import golden_splice_diagrams

    rng = random.Random(23)

    def entry():
        if rng.random() < 0.5:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-9, 9), rng.randint(2, 6))

    seen = dict.fromkeys(["int", "fraction", "negative b", "N = 0", "repeated", "cancels"], 0)
    for _ in range(3000):
        forms = []
        while len(forms) < 4:
            a, b = entry(), entry()
            if (a, b) != (0, 0):
                forms.append((a, b))
        a, b = forms[0]
        forms.append((-3 * a, -3 * b))  # the same root as forms[0]
        terms = [
            (rng.choice([entry(), Fraction(entry())]), tuple(rng.choices(forms, k=rng.randint(0, 2))))
            for _ in range(rng.randint(0, 7))
        ]
        if rng.random() < 0.25:  # add the negatives: the sum is 0
            terms += [(-c, fs) for c, fs in terms]
        const, parts = _assert_same_parts(terms)
        flat = [x for _, fs in terms for form in fs for x in form]
        seen["int"] += any(type(x) is int for x in flat)
        seen["fraction"] += any(type(x) is Fraction and x.denominator > 1 for x in flat)
        seen["negative b"] += any(b < 0 for _, fs in terms for _, b in fs)
        seen["N = 0"] += any(b == 0 for _, fs in terms for _, b in fs)
        seen["repeated"] += any(
            len(fs) == 2 and fs[0][1] and fs[1][1] and fs[0][0] * fs[1][1] == fs[0][1] * fs[1][0]
            for _, fs in terms
        )
        seen["cancels"] += bool(terms) and const == 0 and not parts
    assert min(seen.values()) >= 100, seen

    # the terms verify_splice_zeta builds at every special edge of the corpus
    calls = []
    original = splicing.principal_parts
    monkeypatch.setattr(
        splicing, "principal_parts", lambda terms: calls.append(list(terms)) or original(calls[-1])
    )
    for d in golden_splice_diagrams().values():
        for e in d.special_edges():
            assert splicing.verify_splice_zeta(d, e).ok
    assert len(calls) >= 9
    for terms in calls:
        _assert_same_parts(terms)

    for bad in ([(Fraction(1), ((0, 0),))], [(Fraction(2), ((1, 2), (Fraction(0), 0)))]):
        with pytest.raises(ZeroDivisionError):
            principal_parts(bad)


# ---------------------------------------------------------------------------
# the integer reduced_ratfunc against Fraction synthetic division


def _times_linear(p: list, r) -> list:
    """Ascending coefficients of p(s) * (s - r)."""
    out = [Fraction(0)] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i + 1] += c
        out[i] -= r * c
    return out


def _divide_linear(p: list, r) -> list:
    """Synthetic division of p(s) by (s - r), for a root r of p."""
    quo = [Fraction(0)] * (len(p) - 1)
    acc = Fraction(0)
    for i in range(len(p) - 1, 0, -1):
        acc = p[i] + r * acc
        quo[i - 1] = acc
    return quo


def fraction_reduced_ratfunc(const, parts) -> RatFunc:
    """Reference: the monic D and the numerator by Fraction synthetic division."""
    den = [Fraction(1)]
    for r, (_, a2) in parts.items():
        den = _times_linear(den, r)
        if a2:
            den = _times_linear(den, r)
    num = [const * x for x in den]
    for r, (a1, a2) in parts.items():
        cof = _divide_linear(den, r)
        for i, x in enumerate(cof):
            num[i] += a1 * x
        if a2:
            for i, x in enumerate(_divide_linear(cof, r)):
                num[i] += a2 * x
    while num and not num[-1]:
        num.pop()
    if not num:
        return RatFunc._reduced(Poly(), Poly.const(1))
    return RatFunc._reduced(Poly(num), Poly(den))


def _random_fraction(rng, zero_chance=0.0):
    if rng.random() < zero_chance:
        return Fraction(0)
    den = rng.choice([1, 1, 2, 3, 12, 10**15 + 37])
    return Fraction(rng.randint(-(10**6), 10**6) if den > 12 else rng.randint(-9, 9), den)


def random_principal_parts(rng):
    """(C, parts) with zero and negative roots, order-2 roots, C = 0 and
    large denominators; every kept root has a nonzero part."""
    const = _random_fraction(rng, zero_chance=0.3)
    parts = {}
    for _ in range(rng.randint(0, 6)):
        r = _random_fraction(rng, zero_chance=0.15)
        a1 = _random_fraction(rng, zero_chance=0.3)
        a2 = _random_fraction(rng, zero_chance=0.6)
        if a1 or a2:
            parts[r] = (a1, a2)
    return const, parts


def test_reduced_ratfunc_equals_fraction_reference_random():
    rng = random.Random(12)
    for _ in range(3000):
        const, parts = random_principal_parts(rng)
        got = reduced_ratfunc(const, parts)
        ref = fraction_reduced_ratfunc(const, parts)
        assert (got.num, got.den) == (ref.num, ref.den)
        assert all(type(c) is Fraction for c in got.num.coeffs + got.den.coeffs)


def test_reduced_ratfunc_when_every_part_cancels():
    rng = random.Random(13)
    node_terms, edge_terms = random_terms(rng)
    while not node_terms and not edge_terms:
        node_terms, edge_terms = random_terms(rng)
    node_terms += [
        t._replace(const=-t.const, arrows=tuple(p._replace(weight=-p.weight) for p in t.arrows))
        for t in node_terms
    ]
    edge_terms += [e._replace(q=-e.q) for e in edge_terms]
    const, parts = principal_parts(summands(node_terms, edge_terms))
    assert (const, parts) == (0, {})
    for f in (reduced_ratfunc(const, parts), fraction_reduced_ratfunc(const, parts)):
        assert (f.num, f.den) == (Poly(), Poly.const(1))


def _corpus_zetas():
    """Both routes on every corpus input that has a nonzero F."""
    return [zeta_splice(d) for d in golden_splice_diagrams().values() if d.farrows] + [
        zeta_plumbing(g) for g in golden_plumbing_graphs().values() if g.farrows
    ]


def test_reduced_ratfunc_equals_fraction_reference_on_corpus():
    for z in _corpus_zetas():
        ref = fraction_reduced_ratfunc(z.const, z.parts)
        got = reduced_ratfunc(z.const, z.parts)
        assert (got.num, got.den) == (ref.num, ref.den)


# ---------------------------------------------------------------------------
# term entries: ints where integral


def _entries(z: ZetaResult):
    for t in z.node_terms:
        yield t.nu, t.n, t.const
        for p in t.arrows:
            yield p.weight, p.i, p.n
    for e in z.edge_terms:
        yield e.q, e.nu1, e.n1, e.nu2, e.n2


def test_term_entries_are_ints_where_integral():
    rng = random.Random(14)
    graphs = [g for g in golden_plumbing_graphs().values() if g.farrows]
    graphs += [random_plumbing(rng, blowups=rng.randint(2, 10), arrows=2) for _ in range(20)]
    for g in graphs:
        entries = list(chain(*_entries(zeta_plumbing(g))))
        if g.is_unimodular():
            assert all(type(x) is int for x in entries)
        else:
            assert all(type(x) is int or x.denominator != 1 for x in entries)
    # without W every i is 1, so every splice-route entry is integral
    diagrams = [d for d in golden_splice_diagrams().values() if d.farrows and not d.warrows]
    diagrams += [random_valid_splice(rng, max_nodes=4, max_weight=9) for _ in range(20)]
    for d in diagrams:
        assert all(type(x) is int for x in chain(*_entries(zeta_splice(d))))
    # W at the boundary: the d/i constants are Fractions only when not integral
    z = zeta_splice(two_cusp_diagram(), w={"leg1": 2, "bR": 1, "leg1p": -3})
    entries = list(chain(*_entries(z)))
    assert any(type(x) is Fraction for x in entries)
    assert all(type(x) is int or x.denominator != 1 for x in entries)


def _as_fraction_terms(z: ZetaResult) -> ZetaResult:
    """z with every term entry but the arrow weights as a Fraction."""
    node_terms = [
        t._replace(
            nu=Fraction(t.nu),
            n=Fraction(t.n),
            const=Fraction(t.const),
            arrows=tuple(p._replace(i=Fraction(p.i), n=Fraction(p.n)) for p in t.arrows),
        )
        for t in z.node_terms
    ]
    edge_terms = [
        e._replace(**{k: Fraction(getattr(e, k)) for k in ("q", "nu1", "n1", "nu2", "n2")})
        for e in z.edge_terms
    ]
    return ZetaResult(z.const, z.parts, node_terms, edge_terms)


def test_zeta_payload_bytes_do_not_depend_on_entry_types():
    for z in _corpus_zetas():
        fz = _as_fraction_terms(z)
        assert ZetaResult.from_terms(fz.node_terms, fz.edge_terms).parts == z.parts
        assert _zeta_json("x", fz) == _zeta_json("x", z)
        assert _zeta_json("x", fz) == _json({"name": "x", "zeta": zeta_payload(fz)})


def test_zeta_reads_arrowhead_multiplicities_from_the_given_f():
    # both routes took N_a of the arrowhead terms from the stored arrowheads,
    # whatever F they were given
    from splicezeta.diagrams import PlumbingGraph, SpliceDiagram

    rng = random.Random(11)
    checked = 0
    for x in [*golden_splice_diagrams().values(), *golden_plumbing_graphs().values()]:
        f = {a.id: a.mult + rng.randint(1, 3) for a in x.farrows}
        if isinstance(x, SpliceDiagram):
            stored, zeta = x.with_decorations(f=f), zeta_splice
        else:
            farrows = [a._replace(mult=f[a.id]) for a in x.farrows]
            stored, zeta = PlumbingGraph(x.vertices, x.edges, farrows, x.warrows), zeta_plumbing
        if f:
            assert func(zeta(x, f)) == func(zeta(stored))
            checked += 1
    assert checked >= 10


def _ref_zeta_splice_terms(d, f, w):
    """The node and edge terms as the splice route assembled them before it
    read a per-diagram plan: every boundary leg, arrowhead and valency read
    off the diagram at each call, the constant summed as a Fraction."""
    from splicezeta.diagrams import edge_determinant, require_valid
    from splicezeta.divisors import effective_f, node_data, w_of, w_sums

    require_valid(d)
    fm = effective_f(d, f)
    wm = w_of(d, w)
    data = node_data(d, fm, w_sums(d, wm))
    node_terms = []
    for v in d.nodes():
        nu_v, n_v = data[v]
        if nu_v == 0 and n_v == 0:
            raise DiagramError(f"(nu, N) = (0, 0) at node {v}")
        arrows = []
        const = 0
        for e in d.edges_at(v):
            u = e.other(v)
            if d.is_node(u):
                continue
            i_w = wm.get(u, 0) + 1
            if i_w == 0:
                raise DiagramError(f"boundary vertex {u!r} carries i = 0")
            const += Fraction(e.weight_at(v), i_w)
        for a in d.farrows_at(v):
            i_a = wm.get(a.id, 0) + 1
            n_a = fm.get(a.id, 0)
            if i_a == 0 and n_a == 0:
                raise DiagramError(f"(nu, N) = (0, 0) at arrowhead {a.id}")
            arrows.append(ArrowPart(weight=a.weight, i=i_a, n=n_a))
        node_warrows = 0
        if wm.get(v, 0):
            i_a = wm[v] + 1
            if i_a == 0:
                raise DiagramError(f"dashed arrow at node {v!r} with i = 0")
            arrows.append(ArrowPart(weight=1, i=i_a, n=0))
            node_warrows = 1
        const += 2 - d.valency_f(v) - node_warrows
        if const.denominator == 1:
            const = const.numerator
        node_terms.append(NodeTerm(v, nu_v, n_v, const, tuple(arrows)))
    edge_terms = [
        EdgeTerm((e.a, e.b), edge_determinant(d, e), *data[e.a], *data[e.b])
        for e in d.special_edges()
    ]
    return node_terms, edge_terms


def test_planned_splice_terms_equal_the_per_call_assembly():
    # values and int/Fraction types of every term entry, and the refusals,
    # at random F and W on every slot kind: boundary vertices, nodes and
    # arrowhead doubles, i = 0 included
    rng = random.Random(20)
    compared = refused = fractions = 0
    for _ in range(200):
        d = random_valid_splice(rng, max_nodes=4, max_weight=9, with_warrows=True)
        slots = [*d.boundary_vertices(), *d.nodes(), *(a.id for a in d.farrows)]
        f = {a.id: rng.randint(0, 3) for a in d.farrows}
        for f, w in ((None, None), (f, {s: rng.randint(-3, 3) for s in slots if rng.random() < 0.6})):
            try:
                want = _ref_zeta_splice_terms(d, f, w)
            except (DiagramError, ZeroDivisionError) as exc:
                with pytest.raises(type(exc)) as info:
                    zeta_splice(d, f, w)
                assert str(info.value) == str(exc)
                refused += 1
                continue
            z, ref = zeta_splice(d, f, w), ZetaResult.from_terms(*want)
            assert (z.node_terms, z.edge_terms, z.const, z.parts) == (
                ref.node_terms, ref.edge_terms, ref.const, ref.parts
            )
            entries = list(chain(*_entries(z)))
            assert [type(x) for x in entries] == [type(x) for x in chain(*_entries(ref))]
            compared += 1
            fractions += any(type(x) is Fraction for x in entries)
    assert compared > 250 and refused > 40 and fractions > 80


def _first_hit(d, f, w, lam):
    """The first pole of the whole zeta function whose exponential is lam."""
    poles = zeta_splice(d, f, w).poles()
    return next((p for p in poles if UnityRoot.from_exponent(p.location) == lam), None)


def _same_pole_at(d, f, w, lam) -> str:
    """Whether ``pole_at`` gives ``_first_hit``, raising where it raises;
    the kind of the shared outcome."""
    try:
        want = _first_hit(d, f, w, lam)
    except DiagramError:
        with pytest.raises(DiagramError):
            pole_at(d, f, w, lam)
        return "refused"
    got = pole_at(d, f, w, lam)
    assert got == want, (f, w, lam)
    return "none" if want is None else f"order {want.order}"


def _eig_and_more(rng, d, f, w) -> list[UnityRoot]:
    """Every lam in Eig(d), the exponentials of the poles at F and W, and two
    random roots of unity of small order."""
    orders = set(delta1(d).root_orders())
    for m in d.f_divisor().values():
        orders.update(q for q in range(1, m + 1) if m % q == 0)
    lams = {UnityRoot(p, q) for q in orders for p in range(q) if eig_contains(d, UnityRoot(p, q))}
    try:
        lams.update(UnityRoot.from_exponent(p.location) for p in zeta_splice(d, f, w).poles())
    except DiagramError:
        pass
    for _ in range(2):
        q = rng.randint(1, 30)
        lams.add(UnityRoot(rng.randrange(q), q))
    return sorted(lams, key=lambda lam: lam.frac)


def pole_at_triples(rng, n) -> dict[str, int]:
    """n random (d, W, lam) triples through ``_same_pole_at``: diagrams with
    dashed arrows, W on the boundary, node and double slots (i = 0 and
    random F, zero F included, now and then), each lam of ``_eig_and_more``."""
    outcomes = defaultdict(int)
    done = 0
    while done < n:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13, with_warrows=True)
        slots = [*d.boundary_vertices(), *d.nodes(), *(a.id for a in d.farrows)]
        f = None
        if rng.random() < 0.2:
            f = {a.id: rng.randint(0, 3) for a in d.farrows}
        for _ in range(2):
            w = {s: rng.randint(-2, 4) for s in slots if rng.random() < 0.5}
            for lam in _eig_and_more(rng, d, f, w):
                outcomes[_same_pole_at(d, f, w, lam)] += 1
                done += 1
    return dict(outcomes)


def test_pole_at_matches_the_first_hit_of_poles():
    # the corpus at its own decorations, then random triples
    lams = [UnityRoot(p, q) for q in range(1, 43) for p in range(q) if gcd(p, q) == 1]
    outcomes = defaultdict(int)
    for d in golden_splice_diagrams().values():
        for lam in lams:
            outcomes[_same_pole_at(d, None, None, lam)] += 1
    assert outcomes["order 1"] > 0 and outcomes["none"] > 0
    random_outcomes = pole_at_triples(random.Random(31), 4000)
    assert sum(random_outcomes.values()) >= 4000
    assert all(random_outcomes.get(k) for k in ("order 1", "none", "refused")), random_outcomes
    # the W's of selfcheck criterion 6, where the residue at s0 cancels
    d = two_cusp_diagram()
    for i1p, i2p in ((1, 1), (4, -3), (1, 2), (2, 1), (2, 3)):
        w = {"leg1": 2, "bR": i1p - 1, "leg1p": i2p - 1}
        s0 = Fraction(15 - 6 * (3 * i1p + 2 * i2p), 6)
        lam = UnityRoot.from_exponent(s0)
        _same_pole_at(d, None, w, lam)
        got = pole_at(d, None, w, lam)
        assert got is None or got.location != s0


def test_pole_at_double_pole():
    # two roots of the splice sum meet at s0 = -4, where W makes a pole of
    # order 2 the first that maps to 1
    d = two_cusp_diagram()
    w = {"bL": 4, "leg1": 0, "bR": -3, "a0": 3}
    assert _same_pole_at(d, None, w, UnityRoot(0, 1)) == "order 2"
    pole = pole_at(d, None, w, UnityRoot(0, 1))
    assert (pole.location, pole.order, pole.leading) == (-4, 2, 1)
