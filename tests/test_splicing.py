"""Splice operation, star decomposition, and the zeta splice identity."""

import itertools
import random
from fractions import Fraction

import pytest

from splicezeta import allowed
from splicezeta.corpus import golden_plumbing_graphs, golden_splice_diagrams, two_cusp_diagram
from splicezeta.diagrams import (
    DiagramError,
    Farrow,
    SpliceDiagram,
    Warrow,
    edge_determinant,
    plumbing_to_splice,
    require_valid,
    validate,
)
from splicezeta.divisors import f_of, node_data, nu_values, vertex_multiplicities, w_of, w_sums
from splicezeta.exact import Poly, RatFunc
from splicezeta.generate import random_valid_splice
from splicezeta.io import parse_diagram, print_splice
from splicezeta.splicing import (
    induced_value,
    root_cut,
    splice,
    star_decomposition,
    verify_splice_zeta,
)
from splicezeta.zeta import zeta_splice
from linking_oracle import pairwise_linking_product
from zeta_oracle import func


def test_splice_running_example_decorations():
    d = two_cusp_diagram()
    left, right = splice(d, ("v1", "v0"))
    assert (left.m, left.i) == (1, -1)
    assert (right.m, right.i) == (0, -1)
    # printed decoration on the spliced pieces is i - 1 = -2
    (w,) = left.diagram.warrows
    assert w.value == -1
    # the left piece keeps its nu and N values
    assert nu_values(left.diagram)["v1"] == -13
    assert vertex_multiplicities(left.diagram)["v1"] == 6


def test_splice_one_sided_arrows():
    # all arrowheads on one side: the far half keeps a leg, both pieces share M
    d = two_cusp_diagram()
    left, right = splice(d, ("v1", "v0"))
    assert left.new_farrow is not None  # arrows on the right of (v1, v0)
    assert right.new_farrow is None  # no arrows on the left side
    # right piece: new boundary vertex with a dashed arrow
    assert right.new_slot in right.diagram.vertices


def test_splice_induced_value_relation():
    # i0' - 1 = -2 + 3(i1' - 1) + 2(i2' - 1) on the running example
    d = two_cusp_diagram()
    rng = random.Random(6)
    e = d.edge("v0", "v1p")
    for _ in range(12):
        i1p, i2p = rng.randint(-4, 5), rng.randint(-4, 5)
        w = {"bR": i1p - 1, "leg1p": i2p - 1}
        got = induced_value(d, e, "v0", w)
        assert got - 1 == -2 + 3 * (i1p - 1) + 2 * (i2p - 1)


def test_star_decomposition_running_example():
    d = two_cusp_diagram()
    stars = star_decomposition(d)
    assert set(stars) == {"v1", "v0", "v1p"}
    s0 = stars["v0"]
    assert len(s0.farrows) == 1
    vals = sorted(w.value for w in s0.warrows)
    assert vals == [-1, -1]
    outer = stars["v1"]
    (a,) = [x for x in outer.farrows if x.id.startswith("~")]
    assert a.mult == 1 and a.weight == 7
    dbl = outer.warrow_doubling(a.id)
    assert dbl is not None and dbl.value == -1


def test_star_decomposition_star_input_identity():
    from splicezeta.corpus import intro_star

    st = intro_star(2, 3)
    stars = star_decomposition(st)
    assert set(stars) == {"v"}
    s = stars["v"]
    assert s.vertices == st.vertices and s.edges == st.edges


def test_star_decomposition_order_independent():
    # piece-local splicing in every order of the first splits against the
    # whole-diagram decomposition
    rng = random.Random(17)
    done = 0
    while done < 60:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13, with_warrows=True)
        specials = sorted(d.special_edges(), key=lambda e: e.key)
        if len(specials) < 2:
            continue
        done += 1
        base = star_decomposition(d)

        # re-run with every order of first splits: split manually then recurse
        def stars_via(order):
            work = [d]
            out = {}
            pending = list(order)
            while work:
                cur = work.pop()
                sp = sorted(cur.special_edges(), key=lambda e: e.key)
                if not sp:
                    out[cur.nodes()[0]] = cur
                    continue
                pick = None
                for want in pending:
                    for e in sp:
                        if e.key == want:
                            pick = e
                            break
                    if pick:
                        pending.remove(pick.key)
                        break
                left, right = splice(cur, pick or sp[0])
                work += [left.diagram, right.diagram]
            return out

        def signature(star):
            legs = sorted(
                (e.weight_at(star.nodes()[0]), star.w_divisor().get(e.other(star.nodes()[0]), 0))
                for e in star.edges_at(star.nodes()[0])
            )
            arrows = sorted(
                (a.weight, a.mult, star.w_divisor().get(a.id, 0)) for a in star.farrows
            )
            return legs, arrows

        for perm in itertools.permutations([e.key for e in specials]):
            alt = stars_via(perm)
            assert set(alt) == set(base)
            for v in base:
                assert signature(alt[v]) == signature(base[v])
                try:
                    zb = func(zeta_splice(base[v]))
                except DiagramError:
                    continue
                assert func(zeta_splice(alt[v])) == zb


def reference_star_decomposition(d, f=None, w=None):
    """Star decomposition by repeated ``splice`` calls, each half computing
    its M and i on itself."""
    require_valid(d)
    work = [d.with_decorations(f_of(d, f), w_of(d, w))]
    stars = {}
    while work:
        cur = work.pop()
        specials = sorted(cur.special_edges(), key=lambda x: x.key)
        if not specials:
            node_list = cur.nodes()
            if len(node_list) != 1:
                raise DiagramError("piece without a unique node")
            stars[node_list[0]] = cur
            continue
        left, right = splice(cur, specials[0])
        work.append(left.diagram)
        work.append(right.diagram)
    return stars


def _outcome(decompose, d, f, w):
    """Star ids in order with every star printed, or the exception."""
    try:
        stars = decompose(d, f, w)
    except Exception as exc:  # the type is compared too
        return type(exc).__name__, str(exc)
    return [(v, print_splice(s, v)) for v, s in stars.items()]


def _reference_star_check(star):
    """The divisibility implication on one star diagram, its legs read off
    the star's own edges and dashed arrows."""
    (v,) = star.nodes()
    wm = star.w_divisor()
    r = len(star.farrows)
    legs = [(e.weight_at(v), wm.get(e.other(v), 0) + 1, e.other(v)) for e in star.edges_at(v)]
    if v in wm:
        legs.append((1, wm[v] + 1, v))
    pairs = [(dl, il) for dl, il, _ in legs]
    divisible = [k for k, (dl, il) in enumerate(pairs) if il % dl == 0]
    matched = [k for k, (dl, il) in enumerate(pairs) if il == dl]
    ok = allowed.star_allowed(r, pairs)
    reason = None
    if not ok:
        slots = [legs[k][2] for k in divisible if k not in matched]
        reason = (
            f"d | i at {len(divisible)} legs (need i = d at {len(legs) + r - 2}, "
            f"have {len(matched)}); offending slots: {', '.join(slots)}"
        )
    return allowed.StarCheck(v, r, pairs, divisible, matched, ok, reason)


def reference_is_allowed(d, f=None, w=None):
    """The allowedness verdict built on the stars of
    ``reference_star_decomposition``, each judged as a diagram of its own."""
    require_valid(d)
    fm, wm = f_of(d, f), w_of(d, w)
    nonzero_detail = []
    fids = {a.id for a in d.farrows}
    for slot, mult in wm.items():
        if slot not in fids and mult + 1 == 0:
            nonzero_detail.append(f"pure dashed arrow at {slot!r} has i = 0")
    for a in d.farrows:
        if fm.get(a.id, 0) == 0 and wm.get(a.id, 0) + 1 == 0:
            nonzero_detail.append(f"arrowhead {a.id!r} has (N, i) = (0, 0)")
    stars = reference_star_decomposition(d, fm, wm)
    checks = []
    for node in sorted(stars):
        star = stars[node]
        for slot, mult in star.w_divisor().items():
            if slot not in {a.id for a in star.farrows} and mult + 1 == 0:
                nonzero_detail.append(f"induced dashed arrow at {slot!r} (star {node}) has i = 0")
        checks.append(_reference_star_check(star))
    return allowed.AllowedVerdict(
        allowed=not nonzero_detail and all(c.ok for c in checks),
        stars=checks,
        nonzero_ok=not nonzero_detail,
        nonzero_detail=nonzero_detail,
    )


def _verdict(judge, d, f, w):
    """The verdict, or the exception's type and message."""
    try:
        return judge(d, f, w)
    except Exception as exc:  # the type is compared too
        return type(exc).__name__, str(exc)


def _random_decorations(rng, d):
    """F with zero multiplicities and now and then a negative one; W on
    boundary, node and double slots, with zero and negative multiplicities
    and now and then an unknown slot."""
    f = {a.id: rng.choice([0, 1, 1, 2, 3, 5]) for a in d.farrows}
    if d.farrows and rng.random() < 0.05:
        f[rng.choice(d.farrows).id] = -1
    slots = list(d.vertices) + [a.id for a in d.farrows]
    w = {s: rng.randint(-3, 3) for s in rng.sample(slots, rng.randint(0, min(5, len(slots))))}
    if rng.random() < 0.05:
        w["zz"] = rng.choice([0, 2])
    return f, w


def _reparsed_halves(rng, d, f, w):
    """Both halves of d spliced at a random special edge, printed and parsed
    back: diagrams whose minted ids start with ``~``."""
    left, right = splice(d, rng.choice(d.special_edges()), f, w)
    return [parse_diagram(print_splice(h.diagram))[2] for h in (left, right)]


def test_star_decomposition_matches_recursive_reference():
    # the whole-diagram decomposition against repeated piece-local splices:
    # star ids and their order, every printed star, every exception; and the
    # allowedness verdict read off the leg table against the one built on
    # the reference stars, field by field
    rng = random.Random(2024)
    cases = []
    for d in golden_splice_diagrams().values():
        cases += [(d, None, None), (d, None, {})]
        cases += [(d, *_random_decorations(rng, d)) for _ in range(20)]
    corpus_cases = len(cases)
    diagrams = 0
    halves = []
    while len(cases) - corpus_cases < 2400:
        d = random_valid_splice(rng, max_nodes=rng.randint(1, 6), max_weight=13, with_warrows=True)
        diagrams += 1
        cases.append((d, None, None))
        draws = 4 if d.special_edges() else 1  # stars are the easy case
        cases += [(d, *_random_decorations(rng, d)) for _ in range(draws)]
        if d.special_edges() and len(halves) < 400:
            f, w = _random_decorations(rng, d)
            w.pop("zz", None)
            if all(m >= 0 for m in f.values()):
                halves += _reparsed_halves(rng, d, f, w)
    for h in halves:
        cases.append((h, None, None))
        cases += [(h, *_random_decorations(rng, h)) for _ in range(2)]
    seen = dict.fromkeys(
        ["stars", "multi", "error", "unknown slot", "negative", "node slot", "double slot",
         "minted ids", "failing star", "induced i = 0"],
        0,
    )
    for d, f, w in cases:
        got = _outcome(star_decomposition, d, f, w)
        want = _outcome(reference_star_decomposition, d, f, w)
        assert got == want, (print_splice(d), f, w)
        if isinstance(got, tuple):
            seen["error"] += 1
        else:
            seen["stars"] += len(got)
            seen["multi"] += len(got) > 1
        verdict = _verdict(allowed.is_allowed, d, f, w)
        assert verdict == _verdict(reference_is_allowed, d, f, w), (print_splice(d), f, w)
        if isinstance(verdict, allowed.AllowedVerdict):
            seen["failing star"] += any(c.reason for c in verdict.stars)
            seen["induced i = 0"] += any(
                x.startswith("induced") and x.split("'")[1] not in d.vertices
                for x in verdict.nonzero_detail
            )
        w = w or {}
        seen["unknown slot"] += bool(w.get("zz"))
        seen["negative"] += any(m < 0 for m in w.values())
        seen["node slot"] += any(m and s in d.nodes() for s, m in w.items())
        seen["double slot"] += any(m and s in {a.id for a in d.farrows} for s, m in w.items())
        seen["minted ids"] += any(x.startswith("~") for x in (*d.vertices, *d.f_divisor()))
    assert diagrams >= 500
    assert seen["multi"] >= 1000 and min(seen.values()) >= 20, seen


def test_induced_leaf_named_as_its_star_names_it():
    # node v0 carries a leaf literally named ~v0|v1, so the leaf that the
    # cut at v0-v1 induces at v0 is minted ~v0|v1'; the verdict's reasons
    # and nonzero details name it so, as the reference's stars do
    d = SpliceDiagram(
        ["v0", "v1", "~v0|v1", "b0", "c1", "c2"],
        [("v0", "~v0|v1", 2, 1), ("v0", "b0", 3, 1), ("v0", "v1", 5, 11),
         ("v1", "c1", 2, 1), ("v1", "c2", 3, 1)],
        [Farrow("a", "v0", 1, 1)],
    )
    assert validate(d).ok
    assert "~v0|v1'" in star_decomposition(d)["v0"].vertices
    named = 0
    for values in itertools.product(range(-1, 3), repeat=4):
        w = dict(zip(["~v0|v1", "b0", "c1", "c2"], values))
        verdict = allowed.is_allowed(d, None, w)
        assert verdict == reference_is_allowed(d, None, w), w
        named += any("~v0|v1'" in (c.reason or "") for c in verdict.stars)
        named += any("~v0|v1'" in x for x in verdict.nonzero_detail)
    assert named


def test_star_decomposition_keeps_its_error_messages():
    d = two_cusp_diagram()
    with pytest.raises(DiagramError, match=r"^W slot 'zz' is not a vertex or arrowhead$"):
        star_decomposition(d, None, {"zz": 1})
    with pytest.raises(DiagramError, match=r"^F multiplicity -1 at 'a0' is negative$"):
        star_decomposition(d, {a.id: -1 for a in d.farrows})
    # a two-vertex diagram has no node at all
    with pytest.raises(DiagramError, match="piece without a unique node"):
        star_decomposition(SpliceDiagram(["x", "y"], [("x", "y", 1, 1)]))


def test_w_keyed_by_a_dashed_arrow_id_is_refused_everywhere():
    # W is keyed by slots (vertices and arrowheads), never by a dashed arrow
    base = two_cusp_diagram()
    d = SpliceDiagram(base.vertices, base.edges, base.farrows, [Warrow("dw", 3, at="bL")])
    e = d.edge("v1", "v0")
    message = r"^W slot 'dw' is not a vertex or arrowhead$"
    for call in (
        lambda: splice(d, e, None, {"dw": 4}),
        lambda: induced_value(d, e, "v0", {"dw": 4}),
        lambda: star_decomposition(d, None, {"dw": 4}),
        lambda: allowed.is_allowed(d, None, {"dw": 4}),
    ):
        with pytest.raises(DiagramError, match=message):
            call()
    # the slot the arrow decorates is accepted
    left, _ = splice(d, e, None, {"bL": 4})
    assert left.diagram.w_divisor() == {"bL": 4, "~av1|v0": -2}


def test_root_cuts_are_cached_and_shared_across_decorations():
    d = two_cusp_diagram()
    first = star_decomposition(d, None, {})
    cuts = {(k, e.key): root_cut(d, k, e) for e in d.special_edges() for k in (e.a, e.b)}
    again = star_decomposition(d, None, {"bR": 2, "leg1p": -3})
    assert list(again) == list(first)
    for (k, key), cut in cuts.items():
        assert root_cut(d, k, d.edge(*key)) is cut
    # the W-independent part of each cut is i at W = 0, summed here over a
    # side walk of its own
    for (k, key), cut in cuts.items():
        e = d.edge(*key)
        far, side = e.other(k), d.side_vertices(k, e)
        want = sum((2 - d.delta(x)) * pairwise_linking_product(d, far, x, e) for x in side)
        want += sum(pairwise_linking_product(d, far, a.id, e) for a in d.farrows
                    if a.at in side and a.weight >= 2)
        assert cut.i0 == want


def test_verify_three_star_identity():
    # Z = Z1 + Z0 + Z1' - 2/((-1)(s-1)) exactly
    d = two_cusp_diagram()
    stars = star_decomposition(d)
    z = func(zeta_splice(d))
    parts = [func(zeta_splice(stars[v])) for v in ("v1", "v0", "v1p")]
    corr = RatFunc(Poly.const(2), Poly.linear(-1, 0) * Poly.linear(-1, 1))
    assert z == parts[0] + parts[1] + parts[2] - corr


def test_verify_splice_identity_golden():
    d = two_cusp_diagram()
    for e in (("v1", "v0"), ("v0", "v1p")):
        chk = verify_splice_zeta(d, e)
        assert chk.degenerate is None and chk.ok


def test_verify_splice_identity_randomized():
    rng = random.Random(123)
    done = 0
    while done < 60:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13, with_warrows=True)
        specials = d.special_edges()
        if not specials:
            continue
        e = rng.choice(specials)
        chk = verify_splice_zeta(d, e)
        if chk.degenerate is not None:
            continue
        done += 1
        assert chk.zeta_identity, (d, e.key)
        assert chk.edge_lemma
        assert chk.dependency_statement


def reference_splice_verdicts(d, e):
    """The zeta identity and the edge lemma at e as reduced RatFunc equalities."""
    left, right = splice(d, e)
    if (left.m, left.i) == (0, 0) or (right.m, right.i) == (0, 0):
        return None
    lin = Poly.linear
    corr = RatFunc(Poly.const(1), lin(left.i, left.m) * lin(right.i, right.m))
    identity = func(zeta_splice(d)) == (
        func(zeta_splice(left.diagram)) + func(zeta_splice(right.diagram)) - corr
    )
    data = node_data(d, d.f_divisor(), w_sums(d, d.w_divisor()))
    (nu_l, n_l), (nu_r, n_r) = data[e.a], data[e.b]
    lhs = RatFunc(Poly.const(edge_determinant(d, e)), lin(nu_l, n_l) * lin(nu_r, n_r))
    rhs = (
        RatFunc(Poly.const(e.weight_at(e.a)), lin(nu_l, n_l) * lin(left.i, left.m))
        + RatFunc(Poly.const(e.weight_at(e.b)), lin(nu_r, n_r) * lin(right.i, right.m))
        - corr
    )
    return identity, lhs == rhs


def test_verify_splice_zeta_matches_ratfunc_reference():
    diagrams = list(golden_splice_diagrams().values())
    for g in golden_plumbing_graphs().values():
        try:
            diagrams.append(plumbing_to_splice(g))
        except DiagramError:
            pass  # not unimodular: no splice diagram
    rng = random.Random(77)
    for _ in range(150):
        d = random_valid_splice(rng, with_warrows=True)
        slots = [v for v in d.vertices] + [a.id for a in d.farrows]
        # also a random W, which reaches i = 0 and degenerate halves
        diagrams += [d, d.with_decorations(w={x: rng.randint(-2, 2) for x in slots})]
    edges = [(d, e) for d in diagrams for e in sorted(d.special_edges(), key=lambda e: e.key)]

    def verdicts(d, e):
        try:
            chk = verify_splice_zeta(d, e)
        except DiagramError as exc:  # e.g. a boundary vertex with i = 0
            return str(exc)
        return None if chk.degenerate is not None else (chk.zeta_identity, chk.edge_lemma)

    def reference(d, e):
        try:
            return reference_splice_verdicts(d, e)
        except DiagramError as exc:
            return str(exc)

    for d, e in edges:
        assert verdicts(d, e) == reference(d, e), (d, e.key)
    assert len(edges) >= 100


def test_splice_preserves_node_data():
    rng = random.Random(55)
    done = 0
    while done < 25:
        d = random_valid_splice(rng, max_nodes=4, max_weight=13, with_warrows=True)
        specials = d.special_edges()
        if not specials:
            continue
        done += 1
        e = rng.choice(specials)
        nu0 = nu_values(d)
        nv0 = vertex_multiplicities(d)
        left, right = splice(d, e)
        for half in (left, right):
            for v in half.diagram.nodes():
                if v in nu0:
                    assert nu_values(half.diagram)[v] == nu0[v]
                    assert vertex_multiplicities(half.diagram)[v] == nv0[v]


def test_order_two_pole_equivalence():
    # -nu/N is an order-2 pole of Z iff it is one of Z_L (same linear algebra)
    rng = random.Random(77)
    done = 0
    while done < 40:
        d = random_valid_splice(rng, max_nodes=3, max_weight=13, with_warrows=True)
        specials = d.special_edges()
        if not specials:
            continue
        e = rng.choice(specials)
        chk = verify_splice_zeta(d, e)
        if chk.degenerate is not None:
            continue
        done += 1
        data = nu_values(d), vertex_multiplicities(d)
        nu_l, n_l = data[0][e.a], data[1][e.a]
        s0 = Fraction(-nu_l, n_l)
        left, right = splice(d, e)
        z = zeta_splice(d)
        zl = zeta_splice(left.diagram)
        in_full = any(p.location == s0 and p.order == 2 for p in z.poles())
        in_left = any(p.location == s0 and p.order == 2 for p in zl.poles())
        assert in_full == in_left


def test_residue_contribution_equality():
    # at a simple candidate pole, the contribution of v_L agrees before/after
    rng = random.Random(88)
    done = 0
    while done < 40:
        d = random_valid_splice(rng, max_nodes=3, max_weight=13, with_warrows=True)
        specials = d.special_edges()
        if not specials:
            continue
        e = rng.choice(specials)
        chk = verify_splice_zeta(d, e)
        if chk.degenerate is not None:
            continue
        nu = nu_values(d)
        nv = vertex_multiplicities(d)
        s0 = Fraction(-nu[e.a], nv[e.a])
        if nu[e.b] + s0 * nv[e.b] == 0:
            continue  # order-2 interaction
        left, _ = splice(d, e)
        z = zeta_splice(d)
        zl = zeta_splice(left.diagram)
        try:
            c_full = z.residue_contribution(e.a, s0)
            c_left = zl.residue_contribution(e.a, s0)
        except DiagramError:
            continue
        done += 1
        assert c_full == c_left


def test_splice_rejects_non_special_edge():
    d = two_cusp_diagram()
    with pytest.raises(DiagramError):
        splice(d, ("v1", "bL"))


def test_splice_rejects_unknown_w_slot():
    # a W slot must be a vertex or an arrowhead of the diagram
    with pytest.raises(DiagramError):
        splice(two_cusp_diagram(), ("v1", "v0"), None, {"bogus": 1})


def test_verify_reports_degenerate_factor():
    # engineered i = 0 with M = 0 on one side: warrow value 1 at the far leg
    # makes the induced pure dashed value vanish
    rng = random.Random(5)
    hit = False
    for _ in range(300):
        d = random_valid_splice(rng, max_nodes=3, max_weight=13, with_warrows=True)
        for e in d.special_edges():
            chk = verify_splice_zeta(d, e)
            if chk.degenerate is not None:
                hit = True
                assert "identically zero" in chk.degenerate
        if hit:
            break
    # degenerate draws are rare (at this seed the 295th of the 300 diagrams),
    # but the reporting path must stay exercised
    assert hit


def test_one_sided_splice_shares_multiplicity():
    # all arrowheads on one side: the arrow handed to the far half and the
    # multiplicity of the minted boundary vertex agree
    d = two_cusp_diagram()
    left, right = splice(d, ("v1", "v0"))
    assert left.new_farrow is not None and right.new_farrow is None
    assert vertex_multiplicities(right.diagram)[right.new_slot] == left.m


def test_splice_identity_with_node_attached_warrow():
    # a dashed arrow drawn at a node (the merged weight-1-leg form) flows
    # through splicing and the identity like any boundary slot
    from splicezeta.diagrams import Warrow, SpliceDiagram

    base = two_cusp_diagram()
    for value in (3, -2, 5):
        d = SpliceDiagram(
            base.vertices,
            base.edges,
            base.farrows,
            [Warrow(id="nw", value=value, at="v1")],
        )
        for e in d.special_edges():
            chk = verify_splice_zeta(d, e)
            assert chk.degenerate is None and chk.ok, (value, e.key)
        # equivalent representation: explicit weight-1 leg with the warrow
        leg = SpliceDiagram(
            list(base.vertices) + ["x"],
            list(base.edges) + [type(base.edges[0])("v1", "x", 1, 1)],
            base.farrows,
            [Warrow(id="nw", value=value, at="x")],
        )
        assert func(zeta_splice(d)) == func(zeta_splice(leg))
