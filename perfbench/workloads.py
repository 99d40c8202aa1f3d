"""The benchmark's three workloads: inputs, the timed item, and the output checks.

Every workload turns a seed into input files under its work directory
(``build``), runs one item as a fixed list of CLI calls (``run_item``, the
timed part) and checks one item's captured outputs (``check``, untimed).
The program only ever sees the generated files, through ``cli.main(argv)``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

# plumbing_ladder: graphs per rung, keyed by the number of blowups (a graph
# with b blowups has b + 1 vertices).  The top rung is capped at 16 blowups:
# above ~20 one zeta_plumbing call varies by 10x between graphs of a rung, so
# a few graphs would decide every run (see README.md).  The counts put the
# p50 item mid-way into the 10-blowup group and the p90 item mid-way into
# the 16-blowup group, where many graphs surround them.
LADDER = {4: 20, 7: 20, 10: 64, 13: 12, 16: 40}
LADDER_TINY = {4: 2, 7: 1}

SPLICE_RANDOM = 200
SPLICE_RANDOM_TINY = 3

# realize_search: the two_cusp_mult7 queries that exhaust the 400k-candidate
# budget take 1.5-6.6 s each.  Only one is kept, 37/42 with --effective, so
# that a pass is short enough for several passes per run.
REALIZE_EXHAUSTING = {
    ("two_cusp_mult7", lam, effective)
    for lam in ("1/6", "13/42", "19/42", "25/42", "31/42", "37/42")
    for effective in (False, True)
}
REALIZE_KEPT_EXHAUSTING = {("two_cusp_mult7", "37/42", True)}
REALIZE_TINY = 4


@dataclass
class Item:
    key: str
    argvs: list[list[str]]
    meta: dict = field(default_factory=dict)


@dataclass
class Output:
    command: str
    rc: int
    stdout: str


def _payload(out: Output):
    if out.rc != 0:
        raise CheckFailed(f"{out.command} exited {out.rc}")
    try:
        return json.loads(out.stdout)
    except ValueError:
        raise CheckFailed(f"{out.command} printed no JSON") from None


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# plumbing_ladder


class PlumbingLadder:
    """Unimodular plumbing graphs by both zeta routes; the routes must agree."""

    name = "plumbing_ladder"

    def build(self, sz, seed: int, workdir: Path, tiny: bool = False) -> list[Item]:
        items = []
        for blowups, count in (LADDER_TINY if tiny else LADDER).items():
            for k in range(count):
                rng = random.Random(f"{self.name}:{seed}:{blowups}:{k}")
                g = None
                while g is None or not any(g.valency_f(v.id) >= 3 for v in g.vertices):
                    # a chain has no node, and the splice route only converts
                    # chains whose decorations sit at one vertex: draw again
                    g = sz.generate.random_plumbing(
                        rng, blowups=blowups, arrows=2, warrow_chance=1.0 if k % 2 else 0.0
                    )
                key = f"b{blowups:02d}-{k:03d}"
                pg = workdir / f"{key}.pg"
                pg.write_text(sz.io.print_plumbing(g, key))
                sd = workdir / f"{key}.sd"
                items.append(Item(
                    key,
                    [["zeta", str(pg), "--json"], ["convert", str(pg), "--json"],
                     ["zeta", str(sd), "--json"], ["poles", str(sd), "--json"]],
                    {"vertices": len(g.vertices), "sd": sd},
                ))
        return items

    def run_item(self, item: Item, call) -> list[Output]:
        outs = [call(item.argvs[0]), call(item.argvs[1])]
        if outs[1].rc != 0:
            return outs
        item.meta["sd"].write_text(json.loads(outs[1].stdout)["splice"])
        outs += [call(item.argvs[2]), call(item.argvs[3])]
        return outs

    def check(self, sz, item: Item, outs: list[Output]):
        plumb, _, spl, poles = [_payload(o) for o in outs]  # raises at a failed call
        for part in ("numerator", "denominator"):
            if plumb["zeta"][part] != spl["zeta"][part]:
                raise CheckFailed(f"zeta {part} differs between the plumbing and splice routes")
        den = [Fraction(c) for c in spl["zeta"]["denominator"]]
        for p in poles["poles"]:
            s0 = Fraction(p["s0"])
            if sum(c * s0**k for k, c in enumerate(den)) != 0:
                raise CheckFailed(f"pole {p['s0']} is not a root of the denominator")


# ---------------------------------------------------------------------------
# splice_batch

SPLICE_COMMANDS = ["validate", "zeta", "poles", "alexander", "semigroup", "allowed",
                   "goal1", "stars"]


class SpliceBatch:
    """Corpus splice diagrams plus random decorated ones, nine commands each."""

    name = "splice_batch"

    def build(self, sz, seed: int, workdir: Path, tiny: bool = False) -> list[Item]:
        diagrams = []
        for path in sorted(_corpus_dir(sz).glob("*.sd")):
            _, _, d = sz.io.parse_diagram(path.read_text())
            diagrams.append((f"corpus-{path.stem}", d))
        for k in range(SPLICE_RANDOM_TINY if tiny else SPLICE_RANDOM):
            rng = random.Random(f"{self.name}:{seed}:{k}")
            diagrams.append((f"r{k:04d}", sz.generate.random_valid_splice(rng, with_warrows=True)))
        items = []
        for key, d in diagrams:
            path = workdir / f"{key}.sd"
            path.write_text(sz.io.print_splice(d, key))
            argvs = [[cmd, str(path), "--json"] for cmd in SPLICE_COMMANDS]
            special = sorted(d.special_edges(), key=lambda e: e.key)
            if special:
                argvs.append(["splice", str(path), "--edge", f"{special[0].a}:{special[0].b}",
                              "--json"])
            items.append(Item(key, argvs))
        return items

    def run_item(self, item: Item, call) -> list[Output]:
        return [call(argv) for argv in item.argvs]

    def check(self, sz, item: Item, outs: list[Output]):
        payloads = {o.command: _payload(o) for o in outs}
        if not payloads["validate"]["valid"]:
            raise CheckFailed("generated diagram reported invalid")
        whole = sz.exact.CycloProduct(payloads["alexander"]["alexander"]["factors"])
        product = sz.exact.CycloProduct.one()
        for text in payloads["stars"]["stars"].values():
            _, _, star = sz.io.parse_diagram(text)
            product = product * sz.monodromy.alexander(star)
        if product != whole:
            raise CheckFailed("star Alexander polynomials do not multiply to the diagram's")
        if "splice" in payloads:
            spl = payloads["splice"]
            if spl["identity_holds"] is not True and not spl["degenerate"]:
                raise CheckFailed("splice identity does not hold")


# ---------------------------------------------------------------------------
# realize_search


def _corpus_dir(sz) -> Path:
    return Path(sz.corpus.__file__).with_suffix("")


def eigenvalues(sz, d) -> list:
    """Every lam in Eig(d): roots of Delta_1 and the arrowhead root groups."""
    orders = set(sz.monodromy.delta1(d).root_orders())
    for m in sz.divisors.f_of(d, None).values():
        orders.update(q for q in range(1, m + 1) if m % q == 0)
    lams = [sz.exact.UnityRoot(p, q) for q in sorted(orders) for p in range(q) if gcd(p, q) == 1]
    return [lam for lam in lams if sz.monodromy.eig_contains(d, lam)]


class RealizeSearch:
    """realize for every lam in Eig of every convertible corpus diagram."""

    name = "realize_search"

    def build(self, sz, seed: int, workdir: Path, tiny: bool = False) -> list[Item]:
        items = []
        skip = REALIZE_EXHAUSTING if tiny else REALIZE_EXHAUSTING - REALIZE_KEPT_EXHAUSTING
        for path in sorted(_corpus_dir(sz).iterdir()):
            kind, _, obj = sz.io.parse_diagram(path.read_text())
            try:
                d = obj if kind == "splice" else sz.diagrams.plumbing_to_splice(obj)
                lams = eigenvalues(sz, d)
            except sz.diagrams.DiagramError:
                continue  # not unimodular, or F = 0: realize does not apply
            local = workdir / path.name
            local.write_text(path.read_text())
            for lam in lams:
                for effective in (False, True):
                    if (path.stem, str(lam), effective) in skip:
                        continue
                    argv = ["realize", str(local), "--lambda", str(lam), "--json"]
                    if effective:
                        argv.append("--effective")
                    key = f"{path.name}:{lam}:{'effective' if effective else 'any'}"
                    items.append(Item(key, [argv], {"diagram": d, "lam": lam,
                                                    "effective": effective}))
        random.Random(f"{self.name}:{seed}").shuffle(items)
        return items[:REALIZE_TINY] if tiny else items

    def run_item(self, item: Item, call) -> list[Output]:
        return [call(item.argvs[0])]

    def check(self, sz, item: Item, outs: list[Output]):
        out = _payload(outs[0])
        d, lam = item.meta["diagram"], item.meta["lam"]
        if out["status"] == "unrealizable-within-bound":
            if out["found"] or out["explored"]["window"] > out["explored"]["bound"]:
                raise CheckFailed("inconsistent unrealizable verdict")
            return
        if out["status"] != "realized" or not out["found"]:
            raise CheckFailed(f"unexpected status {out['status']!r}")
        for r in out["found"]:
            w = {s: int(m) for s, m in r["w"].items()}
            if item.meta["effective"] and any(m < 0 for m in w.values()):
                raise CheckFailed("--effective returned a negative multiplicity")
            if not sz.allowed.is_allowed(d, None, w).allowed:
                raise CheckFailed(f"realized W {w} is not allowed")
            s0 = Fraction(r["s0"])
            poles = [p.location for p in sz.zeta.zeta_splice(d, None, w).poles()]
            if s0 not in poles or sz.exact.UnityRoot.from_exponent(s0) != lam:
                raise CheckFailed(f"s0 = {s0} is not a pole with exponential {lam}")


WORKLOADS = {w.name: w for w in (PlumbingLadder(), SpliceBatch(), RealizeSearch())}
