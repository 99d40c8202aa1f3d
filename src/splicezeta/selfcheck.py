"""One ordered table of named checks: the golden corpus and the randomized
invariants behind the paper's properties.

``run_selfcheck`` (the ``selfcheck`` command) and the acceptance suite both
run ``CHECKS``.  Each entry draws its samples from ``random.Random(seed)``;
``samples`` is its acceptance count and the most ``selfcheck`` draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import corpus
from .allowed import check_goal1, is_allowed, semigroup_condition
from .diagrams import DiagramError, SpliceDiagram, blowup, plumbing_to_splice, validate, validate_plumbing
from .divisors import canonical_plumbing, nu_values, pullback_plumbing, vertex_multiplicities
from .exact import CycloProduct, UnityRoot
from .generate import random_allowed_w, random_plumbing, random_valid_splice
from .monodromy import alexander, delta1
from .realize import realize_eigenvalue
from .splicing import induced_value, splice, star_decomposition, verify_splice_zeta
from .zeta import pole_at, principal_parts, summands, zeta_plumbing, zeta_splice


@dataclass(frozen=True)
class Check:
    """``run(rng, n) -> (ok, detail)`` over ``n`` samples."""

    name: str
    seed: int
    run: Callable[[random.Random, int], tuple[bool, str]]
    samples: int = 1

    def __call__(self, n: int) -> tuple[bool, str]:
        return self.run(random.Random(self.seed), n)


def _star_product(d: SpliceDiagram) -> CycloProduct:
    prod = CycloProduct.one()
    for s in star_decomposition(d).values():
        prod = prod * alexander(s)
    return prod


def _zeta_form(z) -> tuple:
    """Z as its canonical (C, parts) (see the ``zeta`` module docstring)."""
    return z.const, z.parts


def _minimal(d: SpliceDiagram) -> bool:
    """No weight-1 end on a leaf edge."""
    return all(
        e.weight_at(e.a if d.is_node(e.a) else e.b) > 1
        for e in d.edges
        if not (d.is_node(e.a) and d.is_node(e.b))
    )


def _running_example_golden(rng, n):
    g = corpus.two_cusp_plumbing()
    d = plumbing_to_splice(g)
    hand = corpus.two_cusp_diagram()
    # the zeta function as the paper prints it, 8 / (-13 + 6s)
    # + (1 / (-2 + s)) (-1 + 1 / (1 + s)) + 2 / ((-2 + s)(-13 + 6s)), as
    # terms c / prod(a + s b)
    printed = principal_parts(
        [
            (8, ((-13, 6),)),
            (-1, ((-2, 1),)),
            (1, ((-2, 1), (1, 1))),
            (2, ((-2, 1), (-13, 6))),
        ]
    )
    ok = (
        validate(d).ok
        and sorted(nu_values(d).values()) == [-13, -13, -2]
        and nu_values(hand) == {"v1": -13, "v0": -2, "v1p": -13}
        and _zeta_form(zeta_splice(hand)) == printed
        and _zeta_form(zeta_splice(d)) == printed
        and _zeta_form(zeta_plumbing(g)) == printed
    )
    return ok, ""


def _splice_identity(rng, n):
    d = corpus.two_cusp_diagram()
    stars = star_decomposition(d)
    # the three stars' terms less the correction 2 / ((-1)(-1 + s))
    zs = [zeta_splice(stars[v]) for v in ("v1", "v0", "v1p")]
    terms = [t for z in zs for t in summands(z.node_terms, z.edge_terms)]
    ok = principal_parts(terms + [(-2, ((-1, 0), (-1, 1)))]) == _zeta_form(zeta_splice(d))
    count = failures = 0
    while count < n:
        dd = random_valid_splice(rng, max_nodes=6, max_weight=13, with_warrows=True)
        specials = dd.special_edges()
        if not specials:
            continue
        chk = verify_splice_zeta(dd, rng.choice(specials))
        if chk.degenerate is not None:
            continue
        count += 1
        failures += not chk.ok
    return ok and failures == 0, f"{failures} failures in {count} diagrams"


def _alexander_multiplicativity(rng, n):
    d = corpus.two_cusp_diagram()
    # (t^2 - t + 1)^2
    ok = _star_product(d).coefficients() == [1, -2, 3, -2, 1] == alexander(d).coefficients()
    count = failures = 0
    while count < n:
        dd = random_valid_splice(rng, max_nodes=5, max_weight=13)
        specials = dd.special_edges()
        if not specials:
            continue
        count += 1
        left, right = splice(dd, rng.choice(specials))
        la = alexander(dd)
        halves = alexander(left.diagram) * alexander(right.diagram)
        failures += halves != la or halves.coefficients() != la.coefficients()
    return ok and failures == 0, f"{failures} failures"


def _allowedness_goldens(rng, n):
    ok = not is_allowed(corpus.two_cusp_diagram()).allowed
    for pairs in ([(2, 3)], [(2, 3), (13, 2)], [(3, 2), (25, 3)], [(2, 5), (21, 2)]):
        ok &= is_allowed(corpus.plane_curve_staircase(pairs)).allowed
    # every semigroup-passing minimal diagram in a generated pool allows W = 0
    checked = tried = 0
    while checked < n and tried < 4000:
        tried += 1
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        if not _minimal(d) or not semigroup_condition(d).ok:
            continue
        checked += 1
        ok &= is_allowed(d, None, {}).allowed
    return ok and checked >= n, f"{checked} semigroup cases"


def _goal1_property(rng, n):
    count = violations = 0
    while count < n:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        w = random_allowed_w(rng, d, tries=40)
        if w is None:
            continue
        count += 1
        violations += not check_goal1(d, w=w).holds
    # negative control: a non-allowed decoration produces the flagged pole
    bad = check_goal1(corpus.two_cusp_diagram(), w={"leg1": 5})
    control = (not bad.holds) and any(
        p.s0 == Fraction(-57, 6) and p.eigenvalue == UnityRoot(1, 2)
        for p in bad.counterexamples
    )
    return violations == 0 and control, f"{violations} violations, control={control}"


def _residue_cancellation(rng, n):
    d = corpus.two_cusp_diagram()
    ok = True
    pairs = {5: (1, 1), 6: (4, -3), 7: (1, 2), 8: (2, 1), 12: (2, 3)}
    for iprime, (i1p, i2p) in pairs.items():
        ok &= 3 * i1p + 2 * i2p == iprime
        z = zeta_splice(d, w={"leg1": 2, "bR": i1p - 1, "leg1p": i2p - 1})
        s0 = Fraction(15 - 6 * iprime, 6)
        ok &= z.residue_contribution("v1", s0) == 0
        ok &= all(p.location != s0 for p in z.poles())
    return ok, "I' in {5, 6, 7, 8, 12}"


def _realization_goldens(rng, n):
    d = corpus.two_cusp_diagram()
    ok = True
    for lam in (UnityRoot(1, 6), UnityRoot(5, 6)):
        out = realize_eigenvalue(d, lam, count=1)
        out_eff = realize_eigenvalue(d, lam, count=1, effective=True)
        ok &= out.realized and out_eff.realized
        for r in list(out.found) + list(out_eff.found):
            ok &= is_allowed(d, None, r.w).allowed
            ok &= UnityRoot.from_exponent(r.s0) == lam
            ok &= any(p.location == r.s0 for p in zeta_splice(d, w=r.w).poles())
        ok &= all(m >= 0 for r in out_eff.found for m in r.w.values())
    # the honest unrealizable case, with the blocking congruences
    out7 = realize_eigenvalue(corpus.two_cusp_diagram_mult(7), UnityRoot(37, 42))
    cong = [c for c in out7.congruences if c.node in ("v1", "v1p")]
    ok &= (
        out7.status == "unrealizable-within-bound"
        and not out7.found
        and len(cong) == 2
        and all(c.modulus == 42 and c.target == 5 for c in cong)
        and all({m for m, _, _ in c.reductions} == {2, 3, 7} for c in cong)
    )
    return ok, "1/6, 5/6 realized; 37/42 unrealizable"


def _counterexample_graphs(rng, n):
    rod = corpus.rodrigues_plumbing()
    third = [p for p in zeta_plumbing(rod).poles() if p.location == Fraction(1, 3)]
    ok = len(third) == 1 and third[0].order == 1
    ok &= delta1(rod).root_multiplicity(UnityRoot(1, 3)) == 0
    for k in (1, 2):
        g = corpus.unimodular_counterexample_plumbing(k)
        ok &= any(p.location == Fraction(7, 3 * k) for p in zeta_plumbing(g).poles())
        printed = (
            CycloProduct.plus_one(9 * k)
            * CycloProduct([(2 * k, k - 1), (1, 1)])
            / CycloProduct.plus_one(3 * k)
            / CycloProduct([(k, 1)])
        )
        d1 = delta1(g)
        ok &= d1 == printed
        ok &= d1.root_multiplicity(UnityRoot(7, 3 * k)) == 0
        rep = semigroup_condition(plumbing_to_splice(g))
        ok &= (not rep.ok) and {f.node for f in rep.failures} == {"u3"}
    return ok, ""


def _oracle_equivalences(rng, n):
    count = skipped = failures = 0
    while count < n:
        g = random_plumbing(rng, blowups=rng.randint(2, 7), arrows=rng.randint(1, 2))
        try:
            d = plumbing_to_splice(g)
        except DiagramError:
            skipped += 1  # e.g. a chain with decorations at several vertices
            continue
        count += 1
        z = _zeta_form(zeta_plumbing(g))
        ok = z == _zeta_form(zeta_splice(d))
        rupture = [v for v in d.nodes() if g.valency_f(v) >= 3]
        ns, np_ = vertex_multiplicities(d), pullback_plumbing(g)
        nus, kp = nu_values(d), canonical_plumbing(g)
        ok &= all(ns[v] == np_[v] for v in rupture)
        ok &= all(nus[v] == kp[v] + 1 for v in rupture)
        # blowup invariance of zeta and of the allowedness verdict
        g2 = blowup(g, ("vertex", rng.choice(g.vertices).id))
        ok &= _zeta_form(zeta_plumbing(g2)) == z
        try:
            ok &= is_allowed(plumbing_to_splice(g2)).allowed == is_allowed(d).allowed
        except DiagramError:
            pass
        failures += not ok
    return failures == 0, f"{count} checked, {skipped} skipped"


def _arithmetic_lemmas(rng, n):
    # induced values on arrow-free sides of minimal semigroup-passing diagrams
    cases = [
        corpus.plane_curve_staircase([(2, 3), (13, 2)]),
        corpus.plane_curve_staircase([(3, 2), (25, 3)]),
        corpus.plane_curve_staircase([(2, 3), (13, 2), (79, 3)]),
    ]
    tried = 0
    while len(cases) < n and tried < 4000:
        tried += 1
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        if _minimal(d) and semigroup_condition(d).ok and d.special_edges():
            cases.append(d)
    ok = True
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
                ok &= iprime < 0 and iprime % e.weight_at(keep) != 0
    return ok and checked >= n // 5, f"{checked} induced-value checks"


def _running_example_structure(rng, n):
    d = corpus.two_cusp_diagram()
    conv = plumbing_to_splice(corpus.two_cusp_plumbing())
    staircase = corpus.plane_curve_staircase([(2, 3), (13, 2)])
    verdicts = {
        "validates": validate(d).ok,
        "conversion multiplicities": vertex_multiplicities(conv)["e3"] == 1
        and nu_values(conv)["e2"] == -13,
        "splice identity at (v1, v0)": verify_splice_zeta(d, ("v1", "v0")).ok,
        "semigroup fails at center": not semigroup_condition(d).ok,
        "staircase semigroup holds": semigroup_condition(staircase).ok,
    }
    failed = [label for label, ok in verdicts.items() if not ok]
    return not failed, "failed: " + ", ".join(failed) if failed else ""


def _generated_diagrams(rng, n):
    ok = True
    for _ in range(n):
        d = random_valid_splice(rng, max_nodes=4, max_weight=13)
        ok &= validate(d).ok and _star_product(d) == alexander(d)
    for _ in range((n + 1) // 2):
        g = random_plumbing(rng, blowups=rng.randint(3, 7), arrows=rng.randint(1, 2))
        ok &= validate_plumbing(g, require_unimodular=True).ok
        z = _zeta_form(zeta_plumbing(g))
        loci = [("vertex", rng.choice(g.vertices).id)]
        if g.edges:
            loci.append(("edge", rng.choice(g.edges)))
        for locus in loci:
            g2 = blowup(g, locus)
            ok &= g2.is_unimodular() and _zeta_form(zeta_plumbing(g2)) == z
    return ok, f"{n} diagrams, {(n + 1) // 2} graphs"


def _pole_at_oracle(rng, n):
    # pole_at against the first pole of the whole zeta function that maps to
    # lam, at random W on the boundary, node and double slots (i = 0 now and
    # then), for the exponential of each pole and a random root of unity
    count = failures = 0
    while count < n:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13, with_warrows=True)
        slots = [*d.boundary_vertices(), *d.nodes(), *(a.id for a in d.farrows)]
        w = {s: rng.randint(-2, 4) for s in slots if rng.random() < 0.5}
        try:
            poles = zeta_splice(d, None, w).poles()
        except DiagramError:
            poles = None
        q = rng.randint(1, 12)
        lams = {UnityRoot(rng.randrange(q), q)}
        lams.update(UnityRoot.from_exponent(p.location) for p in poles or ())
        for lam in lams:
            want = "refused"
            if poles is not None:
                want = next((p for p in poles if UnityRoot.from_exponent(p.location) == lam), None)
            try:
                got = pole_at(d, None, w, lam)
            except DiagramError:
                got = "refused"
            count += 1
            failures += got != want
    return failures == 0, f"{failures} failures in {count} triples"


CHECKS: tuple[Check, ...] = (
    Check("criterion_1_running_example_golden", 1, _running_example_golden),
    Check("criterion_2_splice_identity", 2026, _splice_identity, 500),
    Check("criterion_3_alexander_multiplicativity", 3, _alexander_multiplicativity, 200),
    Check("criterion_4_allowedness_goldens", 4, _allowedness_goldens, 40),
    Check("criterion_5_goal1_property", 5, _goal1_property, 500),
    Check("criterion_6_residue_cancellation", 6, _residue_cancellation),
    Check("criterion_7_realization_goldens", 7, _realization_goldens),
    Check("criterion_8_counterexample_graphs", 8, _counterexample_graphs),
    Check("criterion_9_oracle_equivalences", 9, _oracle_equivalences, 300),
    Check("criterion_10_arithmetic_lemmas", 10, _arithmetic_lemmas, 25),
    Check("running_example_structure", 11, _running_example_structure),
    Check("generated_diagrams", 20260810, _generated_diagrams, 200),
    Check("pole_at_oracle", 21, _pole_at_oracle, 500),
)


@dataclass
class CheckLine:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self):
        mark = "PASS" if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{mark} {self.name}{tail}"


def run_selfcheck(samples: int = 60) -> list[CheckLine]:
    """Run every check in ``CHECKS`` on at most ``samples`` samples each."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    lines = []
    for check in CHECKS:
        ok, detail = check(min(samples, check.samples))
        lines.append(CheckLine(check.name, bool(ok), detail))
    return lines
