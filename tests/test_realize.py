"""Eigenvalue realization: constructive paths, extension, bounded search."""

import contextlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from splicezeta.allowed import check_goal1, is_allowed, semigroup_condition, star_allowed
from splicezeta.corpus import (
    intro_star,
    plane_curve_staircase,
    two_cusp_diagram,
    two_cusp_diagram_mult,
)
from splicezeta.diagrams import (
    DiagramError,
    Edge,
    Farrow,
    SpliceDiagram,
    blow_down,
    plumbing_to_splice,
    validate,
)
from splicezeta.divisors import f_of, nu_values, vertex_multiplicities
from splicezeta.exact import UnityRoot
from splicezeta.generate import random_plumbing, random_valid_splice
from splicezeta.io import parse_diagram, print_diagram
from splicezeta.monodromy import alexander, delta1, eig_contains
from splicezeta.realize import (
    FACTOR_TRIAL_LIMIT,
    ExtensionObstructedError,
    NotAnEigenvalueError,
    Realization,
    StarRootError,
    _below7,
    _compile_hits,
    _drop7,
    _fast_allowed,
    _hit_forms,
    _hit_walk,
    _prime_power_factors,
    _slot_rows,
    certify,
    extend_allowed,
    lattice_columns,
    leg_ranges,
    realize_eigenvalue,
    realize_star,
    rejecting_star,
    slot_columns,
    star_forms,
)
from splicezeta.splicing import induced_value, splice, verify_splice_zeta
from splicezeta.zeta import zeta_splice
from linking_oracle import pairwise_linking_product


_INTRO_STARS = [(2, 3), (2, 5), (3, 4)]


def _star_roots(st):
    """Every root of unity that is a root of the star's Alexander polynomial."""
    poly = alexander(st)
    for q in poly.root_orders():
        for p in range(q):
            lam = UnityRoot(p, q)
            if lam.order == q and poly.root_multiplicity(lam) > 0:
                yield lam


def _check_star_realizations(st, lam, sols, effective):
    assert sols, (lam, effective)
    for s in sols:
        assert UnityRoot.from_exponent(s.s0) == lam
        assert is_allowed(st, None, s.w).allowed
        poles = zeta_splice(st, w=s.w).poles()
        assert any(UnityRoot.from_exponent(p.location) == lam for p in poles)
        if effective:
            assert all(m >= 0 for m in s.w.values())


def test_realize_star_intro_golden():
    st = intro_star(2, 3)
    # the printed congruence solution nu = 13: decorations i1=3, i2=2, k=1,1
    # certifies the pole -13/12, whose exponential is the conjugate class 11/12
    r = certify(st, f_of(st, None), {"b1": 2, "b2": 1}, UnityRoot(11, 12), "manual", False)
    assert r is not None and r.s0 == Fraction(-13, 12)
    # the engine realizes every root of every intro star's polynomial
    for d1, d2 in _INTRO_STARS:
        st = intro_star(d1, d2)
        for lam in _star_roots(st):
            sols = realize_star(st, lam, count=2)
            _check_star_realizations(st, lam, sols, False)
            # the node source yields on after its first hit: the window
            # search is never needed for the second result
            assert all(s.source != "search" for s in sols), (d1, d2, lam)


def test_realize_star_requires_root():
    st = intro_star(2, 3)
    # both d1 | u and d2 | u: u = 6 is not a root of the star polynomial
    with pytest.raises(StarRootError):
        realize_star(st, UnityRoot(6, 12))
    with pytest.raises(StarRootError):
        realize_star(st, UnityRoot(1, 5))


def test_realize_star_automatic_pole_r1():
    # r = 1, p1 = 1, n = 2: every allowed W whose class is a root gives a pole
    st = SpliceDiagram(
        ["v", "b1", "b2"],
        [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1)],
        [Farrow(id="a", at="v", weight=1, mult=1)],
    )
    lam_poly = alexander(st)
    rng = random.Random(9)
    hits = 0
    for _ in range(80):
        i1, i2 = rng.randint(-4, 5), rng.randint(-4, 5)
        k = rng.randint(-2, 3)
        if 0 in (i1, i2):
            continue
        w = {"b1": i1 - 1, "b2": i2 - 1, "a": k - 1}
        if not is_allowed(st, None, w).allowed:
            continue
        nu = 6 * (k - 1) + 3 * i1 + 2 * i2
        nv = vertex_multiplicities(st)["v"]
        lam = UnityRoot.from_exponent(Fraction(-nu, nv))
        if lam_poly.root_multiplicity(lam) <= 0:
            continue
        hits += 1
        z = zeta_splice(st, w=w)
        assert any(p.location == Fraction(-nu, nv) for p in z.poles()), w
    assert hits >= 10


# a star with three arrowheads of multiplicity N: each arrowhead is a
# source at every root of order dividing N
THREE_ARROW_STAR = (
    "splice-diagram s3\nvertex v\nvertex b1\nvertex b2\nedge v b1 2 1\nedge v b2 3 1\n"
    "farrow a1 at v w=1 N={n}\nfarrow a2 at v w=1 N={n}\nfarrow a3 at v w=1 N={n}\n"
)


def test_realize_star_reads_the_kept_draws(monkeypatch):
    # realize_star on a star whose slot tables hold the first arrowhead's
    # draws, kept by the queries at the roots before it, gives what it gives
    # on a fresh star: the intro stars, and two three-arrowhead stars, whose
    # arrowheads are sources; the solutions demo 06 prints among them
    from splicezeta import realize

    builds = []
    slot_tables = realize._slot_tables
    monkeypatch.setattr(realize, "_slot_tables", lambda *a: builds.append(a) or slot_tables(*a))
    texts = [print_diagram(intro_star(d1, d2)) for d1, d2 in _INTRO_STARS]
    texts += [THREE_ARROW_STAR.format(n=n) for n in (2, 6)]
    arrow_sourced = 0
    for text in texts:
        warm = parse_diagram(text)[2]
        warm_builds = 0
        arrows = False
        for effective in (False, True):
            for lam in _star_roots(warm):
                want = realize_star(parse_diagram(text)[2], lam, count=2, effective=effective)
                builds.clear()
                assert realize_star(warm, lam, count=2, effective=effective) == want, (text, lam)
                warm_builds += len(builds)
                arrows |= any(r.source.startswith("arrow:") for r in want)
        # realize_star searches the doubles: one slot set, built once
        assert warm_builds == 1, text
        assert ("realize slots", True) in blow_down(warm)._memo
        arrow_sourced += arrows
    # the kept draws are read where an arrowhead is a source
    assert arrow_sourced == 2
    sols = realize_star(intro_star(2, 3), UnityRoot(1, 12), count=2)
    demo = [(s.values(), s.s0, s.source) for s in sols]
    assert demo == [
        ({"b1": 3}, Fraction(-11, 12), "node:v"),
        ({"a1": -1, "a2": -5, "b1": -1, "b2": -17}, Fraction(85, 12), "node:v"),
    ]


def test_realize_star_effective():
    for d1, d2 in _INTRO_STARS:
        st = intro_star(d1, d2)
        for lam in _star_roots(st):
            sols = realize_star(st, lam, count=2, effective=True)
            _check_star_realizations(st, lam, sols, True)
            assert all(s.source != "search" for s in sols), (d1, d2, lam)


def test_extend_allowed_running_example():
    d = two_cusp_diagram()
    left, right = splice(d, ("v1", "v0"))
    # flat divisor on the right with I' = 7 ((i1', i2') = (1, 2)); the induced
    # slot carries i' = -1 as in the allowedness discussion
    w_flat = {"leg1p": 1, right.new_slot: -2}
    w_full = extend_allowed(d, ("v1", "v0"), w_flat)
    assert is_allowed(d, None, w_full).allowed
    # restriction reproduces the flat data
    _, right2 = splice(d, ("v1", "v0"), None, w_full)
    assert right2.diagram.w_divisor() == {"leg1p": 1, right.new_slot: -2}
    # the left star got i1 = i2 = 1, the closing step of the solve
    assert w_full.get("bL", 0) == 0 and w_full.get("leg1", 0) == 0


def test_extend_allowed_n2_closing_step():
    # i' = D * c with forced equalities: i1 = d1, i2 = c * d2
    rng = random.Random(10)
    d = two_cusp_diagram()
    left, right = splice(d, ("v1", "v0"))
    for c in (1, -2, 3):
        i_prime = 6 * c  # D = d1 d2 = 6
        w_flat = {right.new_slot: i_prime - 1, "leg1p": 1}
        w_full = extend_allowed(d, ("v1", "v0"), w_flat)
        assert is_allowed(d, None, w_full).allowed
        _, right2 = splice(d, ("v1", "v0"), None, w_full)
        assert right2.diagram.w_divisor().get(right.new_slot, 0) == i_prime - 1
        i1 = w_full.get("bL", 0) + 1
        i2 = w_full.get("leg1", 0) + 1
        assert 3 * i1 + 2 * i2 - 6 == i_prime


def test_extend_allowed_randomized_restriction():
    rng = random.Random(12)
    done = 0
    while done < 25:
        d = random_valid_splice(rng, max_nodes=3, max_weight=13)
        specials = d.special_edges()
        target = None
        for e in specials:
            # left star-shaped: every other node on the right of e
            left_nodes = [
                v for v in d.side_vertices(e.b, e) if d.is_node(v)
            ]
            if left_nodes == [e.a]:
                side = set(d.side_vertices(e.a, e))
                if any(a.at in side for a in d.farrows):
                    target = e
                    break
        if target is None:
            continue
        left, right = splice(d, target)
        flat_slots = [
            v for v in right.diagram.boundary_vertices() if v != right.new_slot
        ]
        w_flat = {}
        for s in flat_slots:
            if rng.random() < 0.5:
                w_flat[s] = rng.choice([-2, 1, 2])
        w_flat[right.new_slot] = rng.choice([-3, -2, 1, 2])
        if not is_allowed(right.diagram, None, {
            s: m for s, m in w_flat.items() if s in set(right.diagram.vertices) | {a.id for a in right.diagram.farrows}
        }).allowed:
            continue
        try:
            w_full = extend_allowed(d, target, w_flat)
        except ExtensionObstructedError:
            continue
        done += 1
        assert is_allowed(d, None, w_full).allowed
        _, right2 = splice(d, target, None, w_full)
        expect = {s: m for s, m in w_flat.items() if m}
        assert right2.diagram.w_divisor() == expect


def test_realize_eigenvalue_running_example():
    d = two_cusp_diagram()
    for lam in (UnityRoot(1, 6), UnityRoot(5, 6)):
        out = realize_eigenvalue(d, lam, count=2)
        assert out.realized
        for r in out.found:
            assert UnityRoot.from_exponent(r.s0) == lam
            assert is_allowed(d, None, r.w).allowed
            z = zeta_splice(d, w=r.w)
            assert any(p.location == r.s0 and p.order == r.order for p in z.poles())


def test_realize_eigenvalue_effective():
    d = two_cusp_diagram()
    out = realize_eigenvalue(d, UnityRoot(5, 6), count=2, effective=True)
    assert out.realized
    for r in out.found:
        assert all(m >= 0 for m in r.w.values())


def test_realize_rejects_non_eigenvalue():
    d = two_cusp_diagram()
    with pytest.raises(NotAnEigenvalueError):
        realize_eigenvalue(d, UnityRoot(1, 5))


def test_realize_rejects_count_below_one():
    # 5/6 is realizable: a count below one must not yield an empty verdict
    d = two_cusp_diagram()
    for count in (0, -3):
        with pytest.raises(ValueError, match="count must be at least 1"):
            realize_eigenvalue(d, UnityRoot(5, 6), count=count)
    # nor may a negative bound yield an empty window
    for bound in (-1, -3):
        with pytest.raises(ValueError, match="bound must be nonnegative"):
            realize_eigenvalue(d, UnityRoot(5, 6), bound=bound)


def test_prime_power_factors_stop_at_the_trial_limit():
    # the reductions' moduli stay pairwise coprime with product N whatever
    # N is; primes above the limit are left together in one cofactor
    big, bigger = 100000007, 100000037
    assert big > FACTOR_TRIAL_LIMIT
    assert _prime_power_factors(2**3 * 3 * 7**2 * 101) == [8, 3, 49, 101]
    assert _prime_power_factors(12 * big) == [4, 3, big]
    assert _prime_power_factors(12 * big * bigger) == [4, 3, big * bigger]
    # realizing on the star with those legs answers at once, the
    # unfactored N_v of the node reported as one modulus
    st = SpliceDiagram(
        ["v", "b1", "b2"],
        [Edge("v", "b1", big, 1), Edge("v", "b2", bigger, 1)],
        [Farrow(id="a", at="v", weight=1, mult=1)],
    )
    out = realize_eigenvalue(st, UnityRoot(1, big * bigger))
    assert out.realized
    assert [m for m, _, _ in out.congruences[0].reductions] == [big * bigger]


def test_realize_unrealizable_counterexample(monkeypatch):
    from splicezeta import realize

    d = two_cusp_diagram_mult(7)
    lam = UnityRoot(37, 42)
    assert eig_contains(d, lam)
    monkeypatch.setattr(realize, "SEARCH_BUDGET", 120_000)
    out = realize_eigenvalue(d, lam)
    assert out.status == "unrealizable-within-bound"
    assert not out.found
    # diagnostics carry the nu congruence at the candidate nodes
    nodes = {c.node for c in out.congruences}
    assert {"v1", "v1p"} <= nodes
    c1 = next(c for c in out.congruences if c.node == "v1")
    assert c1.modulus == 42 and c1.target == 5
    mods = {m for m, _, _ in c1.reductions}
    assert {2, 3, 7} == mods


def test_realize_doubles_option_extends_reach():
    # opening the arrowhead double makes the same class reachable
    d = two_cusp_diagram_mult(7)
    out = realize_eigenvalue(d, UnityRoot(37, 42), include_doubles=True)
    assert out.realized
    r = out.found[0]
    assert is_allowed(d, None, r.w).allowed
    assert UnityRoot.from_exponent(r.s0) == UnityRoot(37, 42)


def test_realize_arrow_source():
    # 7th roots of unity on the multiplicity-7 arrow
    d = two_cusp_diagram_mult(7)
    out = realize_eigenvalue(d, UnityRoot(3, 7), count=1)
    assert out.realized
    assert any(r.source.startswith("arrow") or r.source == "search" for r in out.found)


def test_realize_completeness_semigroup_cases():
    # semigroup-passing minimal diagrams realize every eigenvalue class with
    # denominator dividing the relevant data
    for d in (
        plane_curve_staircase([(2, 3)]),
        plane_curve_staircase([(2, 3), (13, 2)]),
        plane_curve_staircase([(3, 2), (25, 3)]),
    ):
        assert semigroup_condition(d).ok
        lam_poly = alexander(d)
        seen = 0
        for q in lam_poly.root_orders():
            for p in range(q):
                from math import gcd

                if gcd(p, q) != 1:
                    continue
                lam = UnityRoot(p, q)
                if not eig_contains(d, lam):
                    continue
                seen += 1
                out = realize_eigenvalue(d, lam, count=1)
                assert out.realized, (d, lam)
                eff = realize_eigenvalue(d, lam, count=1, effective=True)
                assert eff.realized and all(
                    m >= 0 for r in eff.found for m in r.w.values()
                ), (d, lam)
        assert seen >= 3


def test_realize_oracle_small_star():
    # brute-force enumeration agrees with the constructive output set
    st = intro_star(2, 3)
    lam = UnityRoot(1, 12)
    brute = set()
    fm = f_of(st, None)
    for i1 in range(-4, 6):
        for i2 in range(-4, 6):
            w = {"b1": i1, "b2": i2}
            r = certify(st, fm, w, lam, "brute", False)
            if r is not None:
                brute.add(tuple(sorted({s: m for s, m in w.items() if m}.items())))
    assert brute
    sols = realize_star(st, lam, count=4)
    constructive = {tuple(sorted(s.w.items())) for s in sols if set(s.w) <= {"b1", "b2"}}
    assert constructive & brute


def test_star_forms_match_is_allowed():
    rng = random.Random(13)
    done = 0
    while done < 40:
        d = random_valid_splice(rng, max_nodes=3, max_weight=13)
        slots = list(d.boundary_vertices()) + [a.id for a in d.farrows]
        forms = star_forms(d, slot_columns(d, slots))
        for _ in range(6):
            x = {s: rng.randint(-3, 4) for s in slots if rng.random() < 0.7}
            fast = _fast_allowed(forms, tuple(x.get(s, 0) for s in slots))
            slow = is_allowed(d, None, x).allowed
            assert fast == slow, (x,)
            done += 1


def test_chain_extension_bound():
    # seeded star solutions extend along arrow-free staircase chains with the
    # induced values staying inside the determinant-growth bound |j| < a p
    rng = random.Random(19)
    for pairs in ([(2, 3), (13, 2)], [(3, 2), (25, 3)], [(2, 3), (13, 2), (79, 3)]):
        d = plane_curve_staircase(pairs)
        r = len(pairs)
        # extend from the arrow node trunk across each chain edge towards v1,
        # choosing the leg decoration in [1, p] at every step (the normalized
        # representative of the solution class)
        w: dict[str, int] = {}
        ok_bounds = []
        for k in range(r - 1, 0, -1):
            e = d.edge(f"v{k}", f"v{k + 1}")
            a_next, p_next = pairs[k]
            # current induced value on the v_k side
            j = induced_value(d, e, f"v{k + 1}", w)
            ak, pk = pairs[k - 1]
            ok_bounds.append(abs(j) < a_next * p_next or j == 0)
        assert all(ok_bounds)


def test_realize_spec_decorations_certify():
    # the decorations printed for the running example certify directly
    d = two_cusp_diagram()
    fm = f_of(d, None)
    r = certify(d, fm, {"leg1": 2, "leg1p": 1}, UnityRoot(5, 6), "manual", False)
    assert r is not None and r.s0 == Fraction(-25, 6)
    r2 = certify(d, fm, {"leg1p": 1}, UnityRoot(1, 6), "manual", False)
    assert r2 is not None and r2.s0 == Fraction(1, 6)


def test_realize_completeness_two_node_generated():
    # generated minimal two-node diagrams passing the semigroup condition
    # realize every eigenvalue class of bounded order
    import random as _random

    rng = _random.Random(2027)
    picked = []
    tried = 0
    while len(picked) < 3 and tried < 3000:
        tried += 1
        d = random_valid_splice(rng, max_nodes=3, max_weight=13)
        if len(d.nodes()) < 2 or not d.special_edges():
            continue
        minimal = all(
            e.weight_at(e.a if d.is_node(e.a) else e.b) > 1
            for e in d.edges
            if not (d.is_node(e.a) and d.is_node(e.b))
        )
        if minimal and semigroup_condition(d).ok:
            picked.append(d)
    assert picked
    from math import gcd as _gcd

    for d in picked:
        lam_poly = alexander(d)
        for q in lam_poly.root_orders():
            if q > 60:
                continue
            for p in range(1, q):
                if _gcd(p, q) != 1:
                    continue
                lam = UnityRoot(p, q)
                if not eig_contains(d, lam):
                    continue
                out = realize_eigenvalue(d, lam, count=1)
                assert out.realized, (lam,)


def test_extend_allowed_obstruction_is_genuine():
    # extension from an arrow-free right half (the excluded configuration):
    # every reported obstruction is confirmed by brute force over a window
    import itertools as _it

    from splicezeta.diagrams import DiagramError, Edge, Farrow, SpliceDiagram, validate

    d = SpliceDiagram(
        ["v", "b1", "b2", "w", "c1", "c2"],
        [
            Edge("v", "b1", 2, 1),
            Edge("v", "b2", 3, 1),
            Edge("v", "w", 7, 53),
            Edge("w", "c1", 5, 1),
            Edge("w", "c2", 11, 1),
        ],
        [Farrow(id="a", at="v", weight=1, mult=1)],
    )
    left, right = splice(d, ("v", "w"))
    rng = random.Random(0)
    ok_count = obstructed = 0
    for _ in range(60):
        w_flat = {}
        if rng.random() < 0.7:
            w_flat["c1"] = rng.choice([-2, 1, 2, 3])
        if rng.random() < 0.7:
            w_flat["c2"] = rng.choice([-2, 1, 2, 3])
        w_flat[right.new_slot] = rng.choice([-3, -2, -1, 1, 2, 4])
        sub = {s: m for s, m in w_flat.items() if m}
        if not is_allowed(right.diagram, None, sub).allowed:
            continue
        try:
            w_full = extend_allowed(d, ("v", "w"), w_flat)
            ok_count += 1
            assert is_allowed(d, None, w_full).allowed
            _, r2 = splice(d, ("v", "w"), None, w_full)
            assert r2.diagram.w_divisor() == sub
        except ExtensionObstructedError:
            obstructed += 1
            for i1m, i2m in _it.product(range(-15, 16), repeat=2):
                cand = {s: m for s, m in w_flat.items() if s != right.new_slot and m}
                if i1m:
                    cand["b1"] = i1m
                if i2m:
                    cand["b2"] = i2m
                if not is_allowed(d, None, cand).allowed:
                    continue
                _, r3 = splice(d, ("v", "w"), None, cand)
                assert r3.diagram.w_divisor() != sub, (w_flat, cand)
    assert ok_count >= 20 and obstructed >= 5


# ---------------------------------------------------------------------------
# references: the window search in its plain form (the whole box filtered
# down to its shell, dict-based leg forms, nu_values and Fraction arithmetic
# per candidate)


@dataclass
class _RefLeg:
    d: int
    base: int
    coefs: dict


@dataclass
class _RefStar:
    r: int
    legs: list

    def allowed(self, x):
        vals = [(leg.d, leg.base + sum(c * x.get(s, 0) for s, c in leg.coefs.items()))
                for leg in self.legs]
        if any(i == 0 for _, i in vals):
            return False
        return star_allowed(self.r, vals)


def _ref_star_forms(d, slots):
    forms = []
    for v in d.nodes():
        legs = []
        r = len(d.farrows_at(v))
        for e in d.edges_at(v):
            u = e.other(v)
            if d.is_node(u):
                side = set(d.side_vertices(v, e))
                if any(a.at in side for a in d.farrows):
                    r += 1
                    continue
                # i at W = 0 and its slopes, linking products cut at e
                base = sum((2 - d.delta(x)) * pairwise_linking_product(d, u, x, e) for x in side)
                base += sum(pairwise_linking_product(d, u, a.id, e) for a in d.farrows
                            if a.at in side and a.weight >= 2)
                coefs = {s: pairwise_linking_product(d, u, s, e)
                         for s in slots if d.anchor(s)[0] in side}
                legs.append(_RefLeg(e.weight_at(v), base, coefs))
            else:
                legs.append(_RefLeg(e.weight_at(v), 1, {u: 1} if u in slots else {}))
        if v in slots:
            legs.append(_RefLeg(1, 1, {v: 1}))
        forms.append(_RefStar(r, legs))
    return forms


def _ref_nu_matches_somewhere(d, fm, nv_all, x, lam):
    nu = nu_values(d, x)
    for v, n in nv_all.items():
        if v in nu and n and Fraction(-nu[v], n) % 1 == lam.frac % 1:
            return True
    for a in d.farrows:
        na = fm.get(a.id, 0)
        if na and Fraction(-(x.get(a.id, 0) + 1), na) % 1 == lam.frac % 1:
            return True
    return False


def _ref_window_iter(k, width):
    ladder = [0]
    for a in range(1, width + 1):
        ladder += [a, -a]
    yield from itertools.product(ladder, repeat=k)


def _ref_shell(k, width, effective):
    for combo in _ref_window_iter(k, width):
        if width > 1 and max(abs(c) for c in combo) != width:
            continue
        if effective and any(c < 0 for c in combo):
            continue
        yield combo


def _ref_window_reached(k, bound, budget):
    """The width the budget loop reaches when no candidate certifies: the
    last window whose points, counted one by one, fit the budget (at width 1
    as well, whose window is the whole 3^k box)."""
    width, reached = 1, 0
    while width <= bound:
        if sum(1 for _ in _ref_window_iter(k, width)) > budget:
            break
        reached = width
        width += 1
    return reached


def _ref_hits(forms, x):
    """Does x satisfy one of the congruences base + coefs . x = 0 (mod n)?"""
    return any((base + sum(map(mul, coefs, x))) % n == 0 for base, coefs, n in forms)


def _random_hit_forms(rng, k):
    """Congruences of every kind the walk meets: with and without slot
    terms, negative coefficients, and gcd(c_i, n) > 1 at every coordinate."""
    forms = []
    for _ in range(rng.randint(1, 3)):
        n = rng.choice([2, 3, 4, 6, 7, 12, 30, 42])
        kind = rng.randrange(4)
        if kind == 0:
            coefs = (0,) * k
        elif kind == 1:
            # every coefficient shares a factor with n
            p = min(q for q in (2, 3, 7) if n % q == 0)
            coefs = tuple(p * rng.randint(-6, 6) or p for _ in range(k))
        else:
            coefs = tuple(rng.choice([0, rng.randint(-20, 20), n * rng.randint(-2, 2)])
                          for _ in range(k))
        forms.append((rng.randint(-30, 30), coefs, n))
    if rng.random() < 0.1:
        forms = [(0, (0,) * k, 1)]
    return forms


def test_hit_walk_matches_filtered_box():
    rng = random.Random(29)
    pruned = 0
    for k in range(1, 6):
        for width in range(1, 6):
            for effective in (False, True):
                shell = list(_ref_shell(k, width, effective))
                assert list(_box_shell(k, width, effective)) == shell
                for _ in range(2 if k == 5 else 6):
                    forms = _random_hit_forms(rng, k)
                    got = list(_hit_walk(forms, k, width, effective))
                    want = [x for x in shell if _ref_hits(forms, x)]
                    assert got == want, (forms, k, width, effective)
                    pruned += len(want) < len(shell)
    # the every-point form gives back the whole shell
    for k in range(1, 5):
        for effective in (False, True):
            got = list(_hit_walk([(0, (0,) * k, 1)], k, 3, effective))
            assert got == list(_ref_shell(k, 3, effective))
    assert pruned


def _box_shell(k, width, effective):
    """The shell of ``_ref_shell`` without the filtered box: the first k - 1
    coordinates over the whole ladder, the last one over the rim alone when
    they do not touch it."""
    if effective:
        ladder = tuple(range(width + 1))
        rim = (width,)
    else:
        ladder = (0,) + tuple(c for a in range(1, width + 1) for c in (a, -a))
        rim = (width, -width)
    if width == 1:
        yield from itertools.product(ladder, repeat=k)
        return
    for head in itertools.product(ladder, repeat=k - 1):
        for c in ladder if width in head or -width in head else rim:
            yield head + (c,)


def _box_window_candidates(q, bound, budget):
    """The window search as a box walk: every point of each shell, tested by
    the congruences one by one, then by the star filters."""
    if not q.slots:
        return
    k = len(q.slots)
    hit_forms = _hit_forms(q.node_hits, q.arrow_hits, q.slots)
    for width in range(1, bound + 1):
        if (2 * width + 1) ** k > budget:
            return
        q.explored["window"] = width
        for combo in _box_shell(k, width, q.effective):
            if _ref_hits(hit_forms, combo) and _fast_allowed(q.forms, combo):
                yield dict(zip(q.slots, combo)), "search"


def _eig(d):
    """Every lam in Eig(d): roots of Delta_1 and the arrowhead root groups."""
    orders = set(delta1(d).root_orders())
    for m in f_of(d, None).values():
        orders.update(q for q in range(1, m + 1) if m % q == 0)
    lams = [UnityRoot(p, q) for q in sorted(orders) for p in range(q) if gcd(p, q) == 1]
    return [lam for lam in lams if eig_contains(d, lam)]


def test_realize_reaches_every_eigenvalue_of_a_large_curve():
    # the 320-blowup curve of the large CI steps: 87 of its 98 boundary
    # legs have weight 1 at their node, and the blow-down the search reads
    # keeps 4 of its 63 nodes and 4 slots.  Every lambda in Eig is
    # realized, 44 by default and the other 12 with the arrowhead doubles,
    # and every W found passes certify on the curve itself
    d = plumbing_to_splice(random_plumbing(random.Random(0), blowups=320, arrows=2))
    small = blow_down(d)
    assert (len(d.nodes()), len(d.boundary_vertices())) == (63, 98)
    assert (len(small.nodes()), len(small.boundary_vertices())) == (4, 4)
    fm = f_of(d, None)
    lams = _eig(d)
    with_doubles = 0
    for lam in lams:
        out = realize_eigenvalue(d, lam)
        if not out.realized:
            out = realize_eigenvalue(d, lam, include_doubles=True)
            with_doubles += 1
        assert out.realized, lam
        for r in out.found:
            assert certify(d, fm, r.w, lam, r.source, False) == r, (lam, r)
    assert (len(lams), with_doubles) == (56, 12)


def test_realize_json_matches_box_walk(monkeypatch, capsys):
    # every lambda in Eig of every corpus diagram, with and without
    # --effective and --include-doubles, the two_cusp_mult7 queries that
    # exhaust the budget among them: the pruned walk prints the bytes the
    # box walk prints
    from pathlib import Path

    from splicezeta import realize
    from splicezeta.cli import main
    from splicezeta.io import parse_diagram

    argvs = []
    for path in sorted((Path(realize.__file__).parent / "corpus").iterdir()):
        kind, _, obj = parse_diagram(path.read_text())
        try:
            lams = _eig(obj if kind == "splice" else plumbing_to_splice(obj))
        except DiagramError:
            continue
        for lam in lams:
            for eff, dbl in itertools.product(([], ["--effective"]), ([], ["--include-doubles"])):
                argvs.append(["realize", str(path), "--lambda", str(lam), "--json", *eff, *dbl])
    exhausted = 0
    for argv in argvs:
        code = main(argv)
        got = (code, *capsys.readouterr())
        with monkeypatch.context() as m:
            m.setattr(realize, "_window_candidates", _box_window_candidates)
            code = main(argv)
            want = (code, *capsys.readouterr())
        assert got == want, argv
        exhausted += '"window": 12' in got[1] and "unrealizable-within-bound" in got[1]
    assert exhausted >= 12


def test_explored_window_matches_old_budget_loop(monkeypatch):
    from splicezeta import realize

    d = two_cusp_diagram_mult(7)
    lam = UnityRoot(37, 42)
    k = len(d.boundary_vertices())
    assert k == 4
    budgets = [0, 1] + [(2 * w + 1) ** k + delta for w in (1, 2, 3) for delta in (-2, -1, 0, 1)]
    for budget in budgets:
        monkeypatch.setattr(realize, "SEARCH_BUDGET", budget)
        out = realize_eigenvalue(d, lam, effective=True)
        assert out.status == "unrealizable-within-bound"
        want = _ref_window_reached(k, out.explored["bound"], budget)
        assert out.explored["window"] == want, (budget, out.explored)


def test_compiled_filters_match_reference():
    rng = random.Random(23)
    checked = hits = 0
    while checked < 3000:
        d = random_valid_splice(rng, max_nodes=3, max_weight=13)
        slots = list(d.boundary_vertices())
        if rng.random() < 0.5:
            slots += [a.id for a in d.farrows]
        fm = f_of(d, None)
        nv_all = vertex_multiplicities(d, fm)
        forms = star_forms(d, slot_columns(d, slots))
        ref_forms = _ref_star_forms(d, slots + [a.id for a in d.farrows])
        # lambdas: the exponential of a node's -nu/N at some x, an arrowhead
        # class, and a random root of small order
        lams = [UnityRoot(rng.randint(0, 11), rng.randint(1, 12))]
        x0 = {s: rng.randint(-3, 3) for s in slots}
        nu0 = nu_values(d, x0)
        for v, nu in nu0.items():
            if nv_all[v]:
                lams.append(UnityRoot.from_exponent(Fraction(-nu, nv_all[v])))
        for a in d.farrows:
            if fm[a.id]:
                lams.append(UnityRoot(rng.randint(0, fm[a.id]), fm[a.id]))
        # the star forms are sparse: each leg keeps its nonzero slot terms
        for _, legs in forms:
            for _, _, terms in legs:
                assert all(c for _, c in terms)
                assert [j for j, _ in terms] == sorted({j for j, _ in terms})
        for lam in lams:
            compiled = _hit_forms(*_compile_hits(d, fm, lam, _slot_rows(d, slot_columns(d, slots))), slots)
            for _ in range(8):
                xt = tuple(rng.randint(-4, 5) for _ in slots)
                x = dict(zip(slots, xt))
                want = _ref_nu_matches_somewhere(d, fm, nv_all, x, lam)
                assert _ref_hits(compiled, xt) == want, (lam, x)
                ref_allowed = all(f.allowed(x) for f in ref_forms)
                assert _fast_allowed(forms, xt) == ref_allowed, x
                hits += want
                checked += 1
    assert 0 < hits < checked


def test_arrow_source_tries_zero_w_only_when_allowed(monkeypatch, capsys):
    # On two_cusp W = 0 is not allowed.  Trying W = 0 ahead of the arrow
    # source's base candidates anyway, unchecked, prints the same realize
    # --json bytes for every lambda in Eig, and only adds certify calls that
    # the allowedness check refuses.  No certify call follows the count-th
    # distinct certified W.  Each run parses the file afresh, so the first
    # arrowhead's draws are drawn again and not read from the memo.
    from math import gcd
    from pathlib import Path

    from splicezeta import cli, realize
    from splicezeta.cli import main
    from splicezeta.io import parse_diagram

    path = Path(realize.__file__).parent / "corpus" / "two_cusp.sd"
    _, _, d = parse_diagram(path.read_text())
    assert not is_allowed(d, None, {}).allowed
    orders = set(delta1(d).root_orders()) | {1}
    lams = [UnityRoot(p, q) for q in sorted(orders) for p in range(q) if gcd(p, q) == 1]
    lams = [lam for lam in lams if eig_contains(d, lam)]
    assert UnityRoot(0, 1) in lams  # the arrowhead's own root group
    certified = []
    certify_once = realize._certify

    def counted(*args, **kw):
        r = certify_once(*args, **kw)
        certified.append(r)
        return r

    monkeypatch.setattr(realize, "_certify", counted)
    candidates = realize._small_allowed_candidates

    def run(argv, zero_first, count):
        certified.clear()
        cli._parse.cache_clear()
        with monkeypatch.context() as m:
            if zero_first:
                m.setattr(realize, "_small_allowed_candidates", lambda *a: [{}] + candidates(*a))
            code = main(argv)
            out = capsys.readouterr()
        hits = set()
        for k, r in enumerate(certified):
            if r is not None:
                hits.add(tuple(r.w.items()))
            if len(hits) == count:
                assert k == len(certified) - 1, argv
        return (code, out.out, out.err), len(certified)

    saved = 0
    for lam in lams:
        for extra in ([], ["--effective"]):
            for count in (1, 2):
                argv = ["realize", str(path), "--lambda", str(lam), "--json", *extra,
                        "--count", str(count)]
                got, n_got = run(argv, False, count)
                want, n_want = run(argv, True, count)
                assert got == want, argv
                assert n_got <= n_want
                saved += n_want - n_got
    assert saved > 0


def test_realize_certifies_from_cached_cuts(monkeypatch):
    # certify splits the diagram into stars through the cuts cached on it:
    # no half diagram is spliced off, and each directed special edge is cut
    # from the root once however many candidates are certified
    from splicezeta import splicing

    def refuse(*args, **kw):
        raise AssertionError("splice called")

    monkeypatch.setattr(splicing, "splice", refuse)
    built = []
    make_cut = splicing._root_cut

    def counted(d, keep, e):
        built.append((keep, e.key))
        return make_cut(d, keep, e)

    monkeypatch.setattr(splicing, "_root_cut", counted)
    d = two_cusp_diagram_mult(7)
    certified = 0
    for lam in (UnityRoot(5, 6), UnityRoot(1, 7), UnityRoot(1, 42), UnityRoot(0, 1)):
        certified += len(realize_eigenvalue(d, lam).found)
    assert certified == 4
    assert sorted(built) == sorted({(k, e.key) for e in d.special_edges() for k in (e.a, e.b)})


def test_library_verdicts_refuse_an_invalid_diagram():
    # the leg weights 2 and 4 share a factor: validate rejects the star, so
    # realize_eigenvalue and check_goal1 refuse it where it enters, reading
    # the report kept on the diagram
    bad = SpliceDiagram(
        ["v", "b1", "b2", "b3"],
        [("v", "b1", 2, 1), ("v", "b2", 4, 1), ("v", "b3", 3, 1)],
        [Farrow("a", "v", 1, 1)],
    )
    assert [v.kind for v in validate(bad).violations] == ["coprimality"]
    for lam in (UnityRoot(0, 1), UnityRoot(1, 4), UnityRoot(1, 8)):
        with pytest.raises(DiagramError, match="invalid splice diagram"):
            realize_eigenvalue(bad, lam)
    with pytest.raises(DiagramError, match="weights 2 and 4 share a factor"):
        check_goal1(bad)
    # the other verdicts refuse it too (they answered True, True and False)
    for verdict in (is_allowed, semigroup_condition, lambda x: eig_contains(x, UnityRoot(1, 4))):
        with pytest.raises(DiagramError, match="weights 2 and 4 share a factor"):
            verdict(bad)
    # the leg of weight 3 led to a node u with legs 2 and 7 and weight 5 at
    # u: q_e = 15 - 8 * 14 = -97, and the splice identity answered True
    bad2 = SpliceDiagram(
        ["v", "b1", "b2", "u", "c1", "c2"],
        [("v", "b1", 2, 1), ("v", "b2", 4, 1), ("v", "u", 3, 5), ("u", "c1", 2, 1), ("u", "c2", 7, 1)],
        [Farrow("a", "v", 1, 1)],
    )
    assert {v.kind for v in validate(bad2).violations} == {"coprimality", "edge-determinant"}
    with pytest.raises(DiagramError, match="q_e = -97 <= 0"):
        verify_splice_zeta(bad2, ("v", "u"))


def test_draw_helper_reads_the_stream_of_randint_and_choice():
    # the kernel moves and the small boundary assignments draw through
    # _below7; the draws, and the stream left after them, are those of
    # randint(-3, 3) and of choice over seven entries (the index drawn)
    for seed in range(1000):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(12):
            assert _below7(ours) - 3 == ref.randint(-3, 3)
            assert _below7(ours) == ref.choice(range(7))
        assert ours.getstate() == ref.getstate()
        # _drop7 takes m such draws and leaves the stream m _below7 calls leave
        m = seed % 90
        for _ in range(m):
            _below7(ref)
        _drop7(ours, m)
        assert ours.getstate() == ref.getstate()


def test_rejecting_star_is_sound_on_random_stars():
    # random stars (r up to 3, constant legs, legs pinned at d) on random
    # cosets, degenerate bases included: a coset rejected by a star holds
    # no point passing _fast_allowed at |t_j| <= 2 over the basis
    rng = random.Random(53)
    rejected = {"zero": 0, "pins": 0}
    for _ in range(3000):
        k = rng.randint(1, 3)
        forms = []
        for _ in range(rng.randint(1, 2)):
            legs = []
            for _ in range(rng.randint(1, 3)):
                dl = rng.choice([1, 2, 3, 5])
                terms = tuple((j, c) for j in range(k) if (c := rng.choice([0, 0, 1, -2, 3, 6])))
                base = rng.choice([dl, 0, rng.randint(-6, 6)])
                legs.append((dl, base, terms))
            forms.append((rng.randint(0, 3), tuple(legs)))
        x0 = [rng.randint(-3, 3) for _ in range(k)]
        basis = [[rng.choice([0, 0, 1, -1, 2, 3, 6]) for _ in range(k)]
                 for _ in range(rng.randint(0, 2))]
        columns = lattice_columns(basis, k)
        index = rejecting_star(forms, x0, columns)
        if index is None:
            continue
        zero = any(i == 0 and g == 0 for _, i, g in leg_ranges(forms[index][1], x0, columns))
        rejected["zero" if zero else "pins"] += 1
        for t in itertools.product(range(-2, 3), repeat=len(basis)):
            x = list(x0)
            for tj, b in zip(t, basis):
                x = [xi + tj * bi for xi, bi in zip(x, b)]
            assert not _fast_allowed(forms, tuple(x)), (forms, x0, basis, t)
    assert all(n > 100 for n in rejected.values()), rejected


def test_extend_allowed_refuses_keys_off_the_right_half():
    d = two_cusp_diagram()
    _, right = splice(d, ("v1", "v0"))
    w_flat = {"leg1p": 1, right.new_slot: -2}
    for m in (0, 1):
        with pytest.raises(DiagramError, match=r"^W slot 'bogus' is not a vertex or arrowhead$"):
            extend_allowed(d, ("v1", "v0"), w_flat | {"bogus": m})
        with pytest.raises(DiagramError, match=r"^flat divisor touches the left half at 'bL'$"):
            extend_allowed(d, ("v1", "v0"), w_flat | {"bL": m})
    assert extend_allowed(d, ("v1", "v0"), w_flat | {"bR": 0}) == extend_allowed(
        d, ("v1", "v0"), w_flat
    )


def _certify_reference(d, fm, w, lam, source, effective):
    """certify as it was before ``zeta.pole_at``: the first pole of the whole
    zeta function whose exponential is lam."""
    w = {s: m for s, m in w.items() if m}
    if effective and any(m < 0 for m in w.values()):
        return None
    try:
        if not is_allowed(d, fm, w).allowed:
            return None
        z = zeta_splice(d, fm, w)
        for p in z.poles():
            if UnityRoot.from_exponent(p.location) == lam:
                return Realization(
                    w=dict(sorted(w.items())),
                    s0=p.location,
                    order=p.order,
                    leading=p.leading,
                    eigenvalue=lam,
                    source=source,
                )
    except DiagramError:
        return None
    return None


def test_certify_matches_the_whole_zeta_reference(monkeypatch):
    # every candidate of every corpus query, at every lambda in Eig, plain
    # and effective, without and with the arrowhead doubles: certify gives
    # what the reference gives
    from splicezeta import realize
    from splicezeta.corpus import golden_plumbing_graphs, golden_splice_diagrams

    compared = []
    certify_once = realize._certify

    def both(*args):
        got = certify_once(*args)
        assert got == _certify_reference(*args), args
        compared.append(got is not None)
        return got

    monkeypatch.setattr(realize, "_certify", both)
    diagrams = list(golden_splice_diagrams().values())
    for g in golden_plumbing_graphs().values():
        try:
            diagrams.append(plumbing_to_splice(g))
        except DiagramError:
            continue
    for d in diagrams:
        try:
            lams = _eig(d)
        except DiagramError:
            continue
        for lam in lams:
            for effective, doubles in itertools.product((False, True), (False, True)):
                realize_eigenvalue(d, lam, effective=effective, include_doubles=doubles)
    assert 0 < sum(compared) < len(compared)


def test_certify_reads_each_input_once(monkeypatch):
    # a query checks d and reads F once, and certifies each candidate by
    # certify's core, which calls w_of once and neither require_valid nor
    # f_of; a certify call calls require_valid, f_of and w_of exactly once
    # each, wherever a splicezeta module binds them.  certify judges i = 0
    # at a W slot as the reference does, and refuses an unknown W slot, a
    # diagram with a valency-2 vertex and an explicit all-zero F with the
    # messages of w_of, require_valid and effective_f
    import sys

    from splicezeta import diagrams, divisors, realize
    from splicezeta.corpus import golden_plumbing_graphs, golden_splice_diagrams

    calls = []
    for home, name in ((diagrams, "require_valid"), (divisors, "f_of"), (divisors, "w_of")):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("splicezeta") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    checked = []
    certify_once = realize._certify

    def once(d, fm, w, lam, source, effective):
        calls.clear()
        got = certify_once(d, fm, w, lam, source, effective)
        assert calls == ["w_of"], (calls, w)
        checked.append(got is not None)
        return got

    corpus = list(golden_splice_diagrams().values())
    for g in golden_plumbing_graphs().values():
        with contextlib.suppress(DiagramError):
            corpus.append(plumbing_to_splice(g))
    rng = random.Random(29)
    for d in corpus:
        if not any(d.f_divisor().values()):
            continue
        for lam in _eig(d):
            with monkeypatch.context() as m:
                m.setattr(realize, "_certify", once)
                for effective, doubles in itertools.product((False, True), (False, True)):
                    realize_eigenvalue(d, lam, count=2, effective=effective, include_doubles=doubles)
            # the queries' candidates all pass; these mostly fail
            for _ in range(5):
                w = {s: rng.randint(-2, 2) for s in d.boundary_vertices()}
                calls.clear()
                got = realize.certify(d, f_of(d, None), w, lam, "random", False)
                assert sorted(calls) == ["f_of", "require_valid", "w_of"], calls
                checked.append(got is not None)
    assert 0 < sum(checked) < len(checked)

    d = two_cusp_diagram()
    fm = f_of(d, None)
    lam = UnityRoot(1, 6)
    assert certify(d, fm, {"leg1p": 1}, lam, "manual", False) is not None
    assert _certify_reference(d, fm, {"leg1p": -1}, lam, "manual", False) is None
    assert certify(d, fm, {"leg1p": -1}, lam, "manual", False) is None
    # a chain vertex c on the edge v1 - leg1, carrying W
    edges = [(e.a, e.b, e.wa, e.wb) for e in d.edges if e.key != ("leg1", "v1")]
    chained = SpliceDiagram(
        [*d.vertices, "c"], edges + [("v1", "c", 3, 1), ("c", "leg1", 1, 1)], d.farrows
    )
    assert "c" in chained.chain_vertices()
    zero_f = {a: 0 for a in fm}
    for x, f, w, message in [
        (d, fm, {"bogus": 1}, r"^W slot 'bogus' is not a vertex or arrowhead$"),
        (chained, f_of(chained, None), {"c": 1}, r"^valency-2 vertices present \(c\)$"),
        (d, zero_f, {}, "^F must be effective and nonzero$"),
        (d, zero_f, {"leg1p": 1}, "^F must be effective and nonzero$"),
    ]:
        assert _certify_reference(x, f, w, lam, "manual", False) is None, w
        with pytest.raises(DiagramError, match=message):
            certify(x, f, w, lam, "manual", False)


def _oracle_diagrams(rng):
    """The corpus, 150 random decorated splice diagrams and 30 converted
    random plumbing curves."""
    from splicezeta.corpus import golden_plumbing_graphs, golden_splice_diagrams

    diagrams = list(golden_splice_diagrams().values())
    graphs = list(golden_plumbing_graphs().values())
    graphs += [random_plumbing(rng, blowups=rng.randint(2, 7), arrows=rng.randint(1, 2))
               for _ in range(30)]
    for g in graphs:
        try:
            diagrams.append(plumbing_to_splice(g))
        except DiagramError:
            continue
    diagrams += [random_valid_splice(rng, max_nodes=3, max_weight=9) for _ in range(150)]
    return diagrams


def _drained_node_source(d, lam, effective, doubles):
    """Everything the node source yields at lam when it is drained, with the
    state of the random stream it leaves and the congruences and
    diagnostics it reports; it reads the blown-down diagram, as a query
    does."""
    from splicezeta import realize

    small = blow_down(d)
    slots, forms, rows, draws, state, _ = realize._slot_tables(small, doubles)
    fm = f_of(d, None)
    node_hits, arrow_hits = _compile_hits(small, fm, lam, rows)
    q = realize._Query(
        small, fm, lam, slots, effective, forms, node_hits, arrow_hits, draws, state, explored={}
    )
    return list(realize._node_candidates(q)), q.stream().getstate(), q.congruences, q.diagnostics


def test_star_certificate_is_sound_and_moves_no_outcome(monkeypatch):
    # Every coset that a star rejects, a node's kernel coset or a hit
    # form's solution lattice, holds no point passing the star filters at
    # |t_j| <= 3 over its basis (300 random points of that box past four
    # basis vectors).  With the certificate off, every query
    # ends as it does with it on: the same found W, diagnostics,
    # congruences and explored window; and the node source, drained, yields
    # the same candidates and leaves the random stream where it was left.
    import sys

    from splicezeta import realize

    rng = random.Random(47)
    rejected = {}
    reject_once = realize.rejecting_star

    def recorded(forms, x0, columns):
        index = reject_once(forms, x0, columns)
        if index is not None:
            # the basis vectors back from their entries by slot
            basis = [[0] * len(x0) for _ in range(1 + max(t for col in columns for t, _ in col))]
            for j, col in enumerate(columns):
                for t, b in col:
                    basis[t][j] = b
            where = sys._getframe(1).f_code.co_name
            rejected.setdefault((id(forms), tuple(x0), tuple(map(tuple, basis))), (where, forms))
        return index

    monkeypatch.setattr(realize, "SEARCH_BUDGET", 3000)
    queries = 0
    for d in _oracle_diagrams(rng):
        try:
            lams = _eig(d)
        except DiagramError:
            continue
        for lam in rng.sample(lams, min(8, len(lams))):
            for effective, doubles in itertools.product((False, True), (False, True)):
                kw = dict(effective=effective, include_doubles=doubles)
                with monkeypatch.context() as m:
                    m.setattr(realize, "rejecting_star", recorded)
                    got = realize_eigenvalue(d, lam, **kw)
                    # every hit lattice of the query, also where the window
                    # is not reached
                    small = blow_down(d)
                    slots, forms, rows, *_ = realize._slot_tables(small, doubles)
                    hits = _compile_hits(small, f_of(d, None), lam, rows)
                    for base, coefs, n in _hit_forms(*hits, slots):
                        realize._hit_lattice_open(forms, coefs, -base, n)
                    node_stream = _drained_node_source(d, lam, effective, doubles)
                with monkeypatch.context() as m:
                    m.setattr(realize, "rejecting_star", lambda *a: None)
                    want = realize_eigenvalue(d, lam, **kw)
                    assert node_stream == _drained_node_source(d, lam, effective, doubles)
                assert got == want, (d.name, lam, kw)
                queries += 1
    kinds = {"_node_candidates": 0, "_hit_lattice_open": 0}
    for (_, x0, basis), (where, forms) in rejected.items():
        kinds[where] += 1
        box = itertools.product(range(-3, 4), repeat=len(basis))
        if len(basis) > 4:
            box = [[rng.randint(-3, 3) for _ in basis] for _ in range(300)]
        for t in box:
            x = list(x0)
            for tj, b in zip(t, basis):
                x = [xi + tj * bi for xi, bi in zip(x, b)]
            assert not _fast_allowed(forms, tuple(x)), (x0, basis, t)
    assert queries > 1000
    assert all(n >= 50 for n in kinds.values()), kinds
