"""Golden-corpus and randomized invariant runner behind the selfcheck command."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import corpus
from .allowed import check_goal1, is_allowed, semigroup_condition
from .diagrams import DiagramError, blowup, plumbing_to_splice, validate, validate_plumbing
from .divisors import canonical_plumbing, nu_values, pullback_plumbing, vertex_multiplicities
from .exact import Poly, RatFunc, UnityRoot
from .generate import random_allowed_w, random_plumbing, random_valid_splice
from .monodromy import alexander, delta1
from .realize import realize_eigenvalue
from .splicing import star_decomposition, verify_splice_zeta
from .zeta import zeta_plumbing, zeta_splice


@dataclass
class CheckLine:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self):
        mark = "PASS" if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{mark} {self.name}{tail}"


@dataclass
class SelfCheckReport:
    lines: list[CheckLine] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.lines.append(CheckLine(name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    def __str__(self):
        return "\n".join(str(line) for line in self.lines)


def run_selfcheck(samples: int = 60, seed: int = 20260810) -> SelfCheckReport:
    rng = random.Random(seed)
    rep = SelfCheckReport()

    # golden: running example
    d = corpus.two_cusp_diagram()
    g = corpus.two_cusp_plumbing()
    rep.add("golden: running example validates", validate(d).ok)
    nu = nu_values(d)
    rep.add(
        "golden: nu values (-13, -2, -13)",
        (nu["v1"], nu["v0"], nu["v1p"]) == (-13, -2, -13),
    )
    expected = (
        RatFunc(Poly.const(8), Poly.linear(-13, 6))
        + RatFunc(Poly.const(1), Poly.linear(-2, 1))
        * (RatFunc(Poly.const(-1)) + RatFunc(Poly.const(1), Poly.linear(1, 1)))
        + RatFunc(Poly.const(2), Poly.linear(-2, 1) * Poly.linear(-13, 6))
    )
    rep.add("golden: zeta equals printed sum", zeta_splice(d).func == expected)
    rep.add("golden: plumbing route agrees", zeta_plumbing(g).func == expected)
    conv = plumbing_to_splice(g)
    rep.add("golden: conversion validates", validate(conv).ok)
    rep.add(
        "golden: conversion multiplicities",
        vertex_multiplicities(conv)["e3"] == 1 and nu_values(conv)["e2"] == -13,
    )
    chk = verify_splice_zeta(d, ("v1", "v0"))
    rep.add("golden: splice identity at (v1, v0)", chk.ok)
    lam = alexander(d).expand()
    rep.add("golden: Alexander = (t^2-t+1)^2", lam == Poly([1, -1, 1]) * Poly([1, -1, 1]))
    rep.add("golden: W = 0 not allowed here", not is_allowed(d).allowed)
    rep.add("golden: semigroup fails at center", not semigroup_condition(d).ok)
    st = corpus.plane_curve_staircase([(2, 3), (13, 2)])
    rep.add("golden: staircase semigroup holds", semigroup_condition(st).ok)
    rep.add("golden: staircase W = 0 allowed", is_allowed(st).allowed)
    bad = check_goal1(d, w={"leg1": 5})
    rep.add(
        "golden: non-allowed counterexample flagged",
        (not bad.holds) and any(p.s0 == Fraction(-19, 2) for p in bad.counterexamples),
    )
    r = realize_eigenvalue(d, UnityRoot(5, 6), effective=True)
    rep.add("golden: eigenvalue 5/6 realized effectively", r.realized)
    rod = corpus.rodrigues_plumbing()
    zr = zeta_plumbing(rod)
    has_third = any(p.location == Fraction(1, 3) and p.order == 1 for p in zr.poles())
    not_root = delta1(rod).root_multiplicity(UnityRoot(1, 3)) == 0
    rep.add("golden: Rodrigues pole 1/3 misses eigenvalues", has_third and not_root)

    # randomized invariants
    ok_validate = ok_splice = ok_alex = ok_goal1 = ok_oracle = ok_blow = True
    n_splice = n_goal = n_oracle = n_skipped = 0
    for k in range(samples):
        dd = random_valid_splice(rng, max_nodes=4, max_weight=13)
        ok_validate &= validate(dd).ok
        specials = dd.special_edges()
        if specials:
            e = rng.choice(specials)
            c = verify_splice_zeta(dd, e)
            if c.degenerate is None:
                ok_splice &= c.ok
                stars = star_decomposition(dd)
                prod = None
                for s in stars.values():
                    a = alexander(s)
                    prod = a if prod is None else prod * a
                ok_alex &= prod == alexander(dd)
                n_splice += 1
        w = random_allowed_w(rng, dd)
        if w is not None:
            ok_goal1 &= check_goal1(dd, w=w).holds
            n_goal += 1
    for k in range(samples // 2):
        gg = random_plumbing(rng, blowups=rng.randint(3, 7), arrows=rng.randint(1, 2))
        ok_validate &= validate_plumbing(gg, require_unimodular=True).ok
        try:
            dd = plumbing_to_splice(gg)
        except DiagramError:
            n_skipped += 1  # e.g. a chain with decorations at several vertices
            continue
        n_oracle += 1
        rupture = [v for v in dd.nodes() if gg.valency_f(v) >= 3]
        nvs = vertex_multiplicities(dd)
        nvp = pullback_plumbing(gg)
        ok_oracle &= all(nvs[v] == nvp[v] for v in rupture)
        nus = nu_values(dd)
        nup = canonical_plumbing(gg)
        ok_oracle &= all(nus[v] == nup[v] + 1 for v in rupture)
        z0 = zeta_plumbing(gg)
        ok_oracle &= z0.func == zeta_splice(dd).func
        loci = [("vertex", rng.choice(gg.vertices).id)]
        if gg.edges:
            loci.append(("edge", rng.choice(gg.edges)))
        for locus in loci:
            g2 = blowup(gg, locus)
            ok_blow &= g2.is_unimodular()
            ok_blow &= zeta_plumbing(g2).func == z0.func
    rep.add("random: generated diagrams validate", ok_validate)
    rep.add(f"random: splice identities ({n_splice})", ok_splice)
    rep.add(f"random: Alexander multiplicativity ({n_splice})", ok_alex)
    rep.add(f"random: goal-(1) on allowed divisors ({n_goal})", ok_goal1)
    rep.add(
        "random: plumbing/splice oracle equalities",
        ok_oracle,
        f"{n_oracle} checked, {n_skipped} skipped",
    )
    rep.add("random: blowup invariance", ok_blow)
    return rep
