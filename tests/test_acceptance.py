"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines as they complete.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from splicezeta.allowed import (
    check_goal1,
    is_allowed,
    semigroup_condition,
    semigroup_member,
)
from splicezeta.corpus import (
    plane_curve_staircase,
    rodrigues_plumbing,
    two_cusp_diagram,
    two_cusp_diagram_mult,
    two_cusp_plumbing,
    unimodular_counterexample_plumbing,
)
from splicezeta.diagrams import (
    DiagramError,
    blowup,
    plumbing_to_splice,
    validate,
)
from splicezeta.divisors import canonical_plumbing, nu_values, pullback_plumbing, vertex_multiplicities
from splicezeta.exact import CycloProduct, Poly, RatFunc, UnityRoot
from splicezeta.generate import random_allowed_w, random_plumbing, random_valid_splice
from splicezeta.monodromy import alexander, delta1
from splicezeta.realize import realize_eigenvalue
from splicezeta.splicing import induced_value, splice, star_decomposition, verify_splice_zeta
from splicezeta.zeta import zeta_plumbing, zeta_splice


def report(criterion: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {mark}{tail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def lin(a, b):
    return Poly.linear(a, b)


def test_criterion_1_running_example_golden():
    t0 = time.time()
    g = two_cusp_plumbing()
    d = plumbing_to_splice(g)
    ok = validate(d).ok
    nu = nu_values(d)
    nodes = sorted(d.nodes(), key=lambda v: vertex_multiplicities(d)[v])
    ok &= sorted(nu.values()) == [-13, -13, -2]
    hand = two_cusp_diagram()
    ok &= nu_values(hand) == {"v1": -13, "v0": -2, "v1p": -13}
    printed = (
        RatFunc(Poly.const(8), lin(-13, 6))
        + RatFunc(Poly.const(1), lin(-2, 1))
        * (RatFunc(Poly.const(-1)) + RatFunc(Poly.const(1), lin(1, 1)))
        + RatFunc(Poly.const(2), lin(-2, 1) * lin(-13, 6))
    )
    ok &= zeta_splice(hand).func == printed
    ok &= zeta_splice(d).func == printed
    ok &= zeta_plumbing(g).func == printed
    elapsed = time.time() - t0
    report("1 (running-example golden)", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_splice_identity():
    t0 = time.time()
    d = two_cusp_diagram()
    stars = star_decomposition(d)
    corr = RatFunc(Poly.const(2), lin(-1, 0) * lin(-1, 1))
    ok = zeta_splice(d).func == (
        zeta_splice(stars["v1"]).func
        + zeta_splice(stars["v0"]).func
        + zeta_splice(stars["v1p"]).func
        - corr
    )
    rng = random.Random(2026)
    count = 0
    failures = 0
    while count < 500:
        dd = random_valid_splice(rng, max_nodes=6, max_weight=13, with_warrows=True)
        specials = dd.special_edges()
        if not specials:
            continue
        chk = verify_splice_zeta(dd, rng.choice(specials))
        if chk.degenerate is not None:
            continue
        count += 1
        if not (chk.zeta_identity and chk.edge_lemma and chk.dependency_statement):
            failures += 1
    elapsed = time.time() - t0
    report(
        "2 (splice identity, 500 diagrams)",
        ok and failures == 0 and elapsed < 60.0,
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_3_alexander_multiplicativity():
    d = two_cusp_diagram()
    stars = star_decomposition(d)
    t2 = Poly([1, -1, 1])
    prod = CycloProduct.one()
    for s in stars.values():
        prod = prod * alexander(s)
    ok = prod.expand() == t2 * t2 == alexander(d).expand()
    rng = random.Random(3)
    count = failures = 0
    while count < 200:
        dd = random_valid_splice(rng, max_nodes=5, max_weight=13)
        specials = dd.special_edges()
        if not specials:
            continue
        count += 1
        left, right = splice(dd, rng.choice(specials))
        la = alexander(dd)
        ll, lr = alexander(left.diagram), alexander(right.diagram)
        if (ll * lr) != la or (ll * lr).expand() != la.expand():
            failures += 1
    report("3 (Alexander multiplicativity)", ok and failures == 0, f"{failures} failures")


def test_criterion_4_allowedness_goldens():
    ok = not is_allowed(two_cusp_diagram()).allowed
    staircases = [
        plane_curve_staircase([(2, 3)]),
        plane_curve_staircase([(2, 3), (13, 2)]),
        plane_curve_staircase([(3, 2), (25, 3)]),
        plane_curve_staircase([(2, 5), (21, 2)]),
    ]
    for st in staircases:
        ok &= is_allowed(st).allowed
    # every semigroup-passing minimal diagram in a generated pool allows W = 0
    rng = random.Random(4)
    checked = 0
    tried = 0
    while checked < 40 and tried < 4000:
        tried += 1
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        minimal = all(
            e.weight_at(e.a if d.is_node(e.a) else e.b) > 1
            for e in d.edges
            if not (d.is_node(e.a) and d.is_node(e.b))
        )
        if not minimal or not semigroup_condition(d).ok:
            continue
        checked += 1
        ok &= is_allowed(d, None, {}).allowed
    report("4 (allowedness goldens)", ok and checked >= 40, f"{checked} semigroup cases")


def test_criterion_5_goal1_property():
    t0 = time.time()
    rng = random.Random(5)
    count = violations = 0
    while count < 500:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        w = random_allowed_w(rng, d, tries=40)
        if w is None:
            continue
        count += 1
        if not check_goal1(d, w=w).holds:
            violations += 1
    # negative control: non-allowed decorations produce the flagged pole
    bad = check_goal1(two_cusp_diagram(), w={"leg1": 5})
    control = (not bad.holds) and any(
        p.s0 == Fraction(-57, 6) and p.eigenvalue == UnityRoot(1, 2)
        for p in bad.counterexamples
    )
    elapsed = time.time() - t0
    report(
        "5 (goal-1 over 500 allowed pairs)",
        violations == 0 and control,
        f"{violations} violations, control={control}, {elapsed:.1f}s",
    )


def test_criterion_6_residue_cancellation():
    d = two_cusp_diagram()
    ok = True
    pairs = {5: (1, 1), 6: (4, -3), 7: (1, 2), 8: (2, 1), 12: (2, 3)}
    for iprime, (i1p, i2p) in pairs.items():
        assert 3 * i1p + 2 * i2p == iprime
        w = {"leg1": 2, "bR": i1p - 1, "leg1p": i2p - 1}
        z = zeta_splice(d, w=w)
        s0 = Fraction(15 - 6 * iprime, 6)
        contribution = z.residue_contribution("v1", s0)
        ok &= contribution == 0
        ok &= all(p.location != s0 for p in z.poles())
    report("6 (residue cancellation, I' in {5,6,7,8,12})", ok)


def test_criterion_7_realization_goldens():
    d = two_cusp_diagram()
    ok = True
    details = []
    for lam in (UnityRoot(1, 6), UnityRoot(5, 6)):
        t0 = time.time()
        out = realize_eigenvalue(d, lam, count=1)
        out_eff = realize_eigenvalue(d, lam, count=1, effective=True)
        elapsed = time.time() - t0
        good = out.realized and out_eff.realized and elapsed < 10.0
        for r in list(out.found) + list(out_eff.found):
            good &= is_allowed(d, None, r.w).allowed
            good &= UnityRoot.from_exponent(r.s0) == lam
            good &= any(
                p.location == r.s0 for p in zeta_splice(d, w=r.w).poles()
            )
        good &= all(m >= 0 for r in out_eff.found for m in r.w.values())
        ok &= good
        details.append(f"{lam}: {elapsed:.1f}s")
    d7 = two_cusp_diagram_mult(7)
    t0 = time.time()
    out7 = realize_eigenvalue(d7, UnityRoot(37, 42), budget=120_000)
    elapsed = time.time() - t0
    unreal = out7.status == "unrealizable-within-bound" and not out7.found
    cong = [c for c in out7.congruences if c.node in ("v1", "v1p")]
    has_diag = (
        len(cong) == 2
        and all(c.modulus == 42 and c.target == 5 for c in cong)
        and all({m for m, _, _ in c.reductions} == {2, 3, 7} for c in cong)
    )
    ok &= unreal and has_diag and elapsed < 10.0
    details.append(f"37/42: {elapsed:.1f}s")
    report("7 (realization goldens)", ok, "; ".join(details))


def test_criterion_8_counterexample_graphs():
    rod = rodrigues_plumbing()
    z = zeta_plumbing(rod)
    third = [p for p in z.poles() if p.location == Fraction(1, 3)]
    ok = len(third) == 1 and third[0].order == 1
    ok &= delta1(rod).root_multiplicity(UnityRoot(1, 3)) == 0
    for n in (1, 2):
        g = unimodular_counterexample_plumbing(n)
        zn = zeta_plumbing(g)
        target = Fraction(7, 3 * n)
        ok &= any(p.location == target for p in zn.poles())
        printed = (
            CycloProduct.plus_one(9 * n)
            * CycloProduct([(2 * n, n - 1), (1, 1)])
            / CycloProduct.plus_one(3 * n)
            / CycloProduct([(n, 1)])
        )
        d1 = delta1(g)
        ok &= d1 == printed
        lam = UnityRoot(7, 3 * n)
        ok &= d1.root_multiplicity(lam) == 0
        rep = semigroup_condition(plumbing_to_splice(g))
        ok &= (not rep.ok) and {f.node for f in rep.failures} == {"u3"}
    report("8 (counterexample graphs)", ok)


def test_criterion_9_oracle_equivalences():
    t0 = time.time()
    rng = random.Random(9)
    count = failures = 0
    while count < 300:
        g = random_plumbing(rng, blowups=rng.randint(2, 7), arrows=rng.randint(1, 2))
        try:
            d = plumbing_to_splice(g)
        except DiagramError:
            continue
        count += 1
        okj = zeta_plumbing(g).func == zeta_splice(d).func
        rupture = [v for v in d.nodes() if g.valency_f(v) >= 3]
        ns, np_ = vertex_multiplicities(d), pullback_plumbing(g)
        nus, kp = nu_values(d), canonical_plumbing(g)
        okj &= all(ns[v] == np_[v] for v in rupture)
        okj &= all(nus[v] == kp[v] + 1 for v in rupture)
        # blowup invariance of zeta and of the allowedness verdict
        locus = ("vertex", rng.choice(g.vertices).id)
        g2 = blowup(g, locus)
        okj &= zeta_plumbing(g2).func == zeta_plumbing(g).func
        try:
            d2 = plumbing_to_splice(g2)
            okj &= is_allowed(d2).allowed == is_allowed(d).allowed
        except DiagramError:
            pass
        if not okj:
            failures += 1
    elapsed = time.time() - t0
    report(
        "9 (oracle equivalences, 300 graphs)",
        failures == 0,
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_10_arithmetic_lemmas():
    # exhaustive elementary lemma for pairwise-coprime tuples, d_j <= 11, n <= 4
    ok = True
    tuples = []
    for n in (2, 3, 4):
        for combo in itertools.combinations(range(2, 12), n):
            if all(gcd(a, b) == 1 for a, b in itertools.combinations(combo, 2)):
                tuples.append(combo)
    for ds in tuples:
        D = 1
        for x in ds:
            D *= x
        gens = [D // x for x in ds]
        n = len(ds)
        for combo in itertools.product(*(range(1, (n - 1) * x + 1) for x in ds)):
            if sum(m * g for m, g in zip(combo, gens)) == (n - 1) * D:
                ok = False
        for t in range(1, D + 1):
            if D % t == 0 and semigroup_member(t, tuple(gens)):
                ok &= any(t % g == 0 for g in gens)
    # induced values on arrow-free sides of minimal semigroup-passing diagrams
    rng = random.Random(10)
    cases = [
        plane_curve_staircase([(2, 3), (13, 2)]),
        plane_curve_staircase([(3, 2), (25, 3)]),
        plane_curve_staircase([(2, 3), (13, 2), (79, 3)]),
    ]
    tried = 0
    while len(cases) < 25 and tried < 4000:
        tried += 1
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        minimal = all(
            e.weight_at(e.a if d.is_node(e.a) else e.b) > 1
            for e in d.edges
            if not (d.is_node(e.a) and d.is_node(e.b))
        )
        if minimal and semigroup_condition(d).ok and d.special_edges():
            cases.append(d)
    checked = 0
    for d in cases:
        if not semigroup_condition(d).ok:
            continue
        for e in d.special_edges():
            for keep in (e.a, e.b):
                side = set(d.side_vertices(keep, e))
                if any(a.at in side for a in d.farrows):
                    continue
                iprime = induced_value(d, e, keep, {})
                checked += 1
                ok &= iprime < 0
                ok &= iprime % e.weight_at(keep) != 0
    report(
        "10 (arithmetic lemmas)",
        ok and checked >= 5,
        f"{len(tuples)} tuples, {checked} induced-value checks",
    )
