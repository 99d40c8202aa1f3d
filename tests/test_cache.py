"""What a diagram keeps in its memo, and the CLI's per-process parse cache.

Every kept value must equal a fresh computation, reach no caller as a
shared mutable object, and never be keyed by a searched W.  The CLI keeps
parsed inputs by file text, so a rewritten file is read anew.
"""

import contextlib
import dataclasses
import io
import itertools
import random
from math import gcd
from pathlib import Path

import pytest

from splicezeta import cli
from splicezeta.corpus import golden_plumbing_graphs, golden_splice_diagrams
from splicezeta.diagrams import (
    DiagramError,
    _plumbing_to_splice,
    _validate,
    _validate_plumbing,
    blow_down,
    plumbing_to_splice,
    validate,
    validate_plumbing,
)
from splicezeta.divisors import _vertex_multiplicities, nu_values, vertex_multiplicities
from splicezeta.exact import UnityRoot
from splicezeta.generate import random_valid_splice
from splicezeta.io import parse_diagram, print_diagram, print_splice
from splicezeta.monodromy import (
    _alexander,
    _delta1,
    _monodromy_zeta,
    alexander,
    delta1,
    eig_contains,
    monodromy_zeta,
)
from splicezeta.realize import realize_eigenvalue
from splicezeta.splicing import _stars, star_decomposition
from splicezeta.zeta import _zeta_plumbing, _zeta_splice, zeta_plumbing, zeta_splice

CORPUS = Path(__file__).resolve().parent.parent / "src" / "splicezeta" / "corpus"
# the splice_batch commands, as the benchmark runs them on each diagram
COMMANDS = ["validate", "zeta", "poles", "alexander", "semigroup", "allowed", "goal1", "stars"]


def _outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except (DiagramError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def _fresh(x):
    """A copy of x with nothing in its memo."""
    return parse_diagram(print_diagram(x))[2]


def _zeta_key(z):
    if isinstance(z, tuple):
        return z
    return z.const, dict(z.parts), list(z.node_terms), list(z.edge_terms)


def _stars_key(stars):
    if isinstance(stars, tuple):
        return stars
    return [(v, print_splice(s, v), _outcome(alexander, s)) for v, s in stars.items()]


def _nu_reference(d, w):
    """nu_v from the linking products, the canonical and the W terms in one
    sum, as before the canonical part was kept."""
    terms = [(x, 2 - d.delta(x)) for x in d.vertices]
    terms += [(a.id, 1) for a in d.farrows if a.weight >= 2]
    terms += [(s, m) for s, m in w.items() if m]
    return {v: sum(c * d.linking_product(v, t) for t, c in terms) for v in d.nodes()}


def _splice_cases():
    rng = random.Random(15)
    diagrams = list(golden_splice_diagrams().values())
    diagrams += [random_valid_splice(rng, with_warrows=True) for _ in range(50)]
    return rng, diagrams


def test_kept_splice_invariants_equal_fresh_computations():
    rng, diagrams = _splice_cases()
    for d in diagrams:
        fresh = _fresh(d)
        for _ in range(2):  # the first call fills the memo, the second reads it
            assert validate(d) == _validate(fresh)
            assert _zeta_key(_outcome(zeta_splice, d)) == _zeta_key(
                _outcome(_zeta_splice, _fresh(d), None, None)
            )
            assert vertex_multiplicities(d) == _vertex_multiplicities(_fresh(d), None)
            assert nu_values(d, {}) == _nu_reference(d, {})
            assert nu_values(d) == _nu_reference(d, d.w_divisor())
            w = {s: rng.randint(-3, 3) for s in d.boundary_vertices()}
            assert nu_values(d, w) == _nu_reference(d, w)
            for own, compute in (
                (monodromy_zeta, _monodromy_zeta),
                (delta1, _delta1),
                (alexander, _alexander),
            ):
                assert _outcome(own, d) == _outcome(compute, _fresh(d), None)
            assert _stars_key(_outcome(star_decomposition, d, None, {})) == _stars_key(
                _outcome(_stars, _fresh(d), d.f_divisor(), {})
            )


def test_kept_plumbing_invariants_equal_fresh_computations():
    for g in golden_plumbing_graphs().values():
        fresh = _fresh(g)
        for _ in range(2):
            for flag in (False, True):
                assert validate_plumbing(g, flag) == _validate_plumbing(fresh, flag)
            converted = _outcome(plumbing_to_splice, g)
            reference = _outcome(_plumbing_to_splice, _fresh(g))
            if isinstance(converted, tuple):
                assert converted == reference
            else:
                assert print_splice(converted) == print_splice(reference)
            assert _zeta_key(_outcome(zeta_plumbing, g)) == _zeta_key(
                _outcome(_zeta_plumbing, _fresh(g), None, None)
            )
            for own, compute in ((monodromy_zeta, _monodromy_zeta), (delta1, _delta1)):
                assert _outcome(own, g) == _outcome(compute, _fresh(g), None)


def test_values_at_other_decorations_are_not_kept():
    # only the own F and W (and W = 0 for the stars and nu) have a key: a
    # searched W leaves the memo as it was
    d = golden_splice_diagrams()["two_cusp"]
    zeta_splice(d)
    star_decomposition(d, None, {})
    keys = set(d._memo)
    for m in range(-3, 4):
        w = {s: m for s in d.boundary_vertices()}
        _outcome(zeta_splice, d, None, w)  # i = 0 at m = -1
        nu_values(d, w)
        star_decomposition(d, None, w)
    f = {a.id: a.mult + 1 for a in d.farrows}
    vertex_multiplicities(d, f)
    delta1(d, f)
    assert set(d._memo) == keys
    assert zeta_splice(d, None, {"bL": 1}).parts != zeta_splice(d).parts


# every key realize may leave in a splice diagram's memo, or in that of
# its blow-down, whatever lambda and W it searches: besides these, a "cut"
# key per special edge and kept end; "realize slots", which holds the first
# arrowhead's draws too, is kept without and with the arrowhead doubles
_REALIZE_KEYS = {
    ("N",), ("blow down",), ("canonical terms",), ("delta1",), ("edge determinants",),
    ("invariants",),
    ("monodromy zeta",), ("nu at W = 0",), ("realize slots", False), ("realize slots", True),
    ("star legs",), ("stars at W = 0",), ("vertex set",), ("zeta",), ("zeta plan",),
}


def _eigenvalues(d):
    orders = set(delta1(d).root_orders())
    for m in d.f_divisor().values():
        orders.update(q for q in range(1, m + 1) if m % q == 0)
    lams = [UnityRoot(p, q) for q in sorted(orders) for p in range(q) if gcd(p, q) == 1]
    return [lam for lam in lams if eig_contains(d, lam)]


def test_realize_keeps_only_the_fixed_keys(monkeypatch):
    # realize at every lambda in Eig, with and without --effective and the
    # arrowhead doubles: no key names a lambda or a searched W, on the
    # diagram or on the blown-down diagram the search reads
    from splicezeta import realize

    monkeypatch.setattr(realize, "SEARCH_BUDGET", 5000)
    rng = random.Random(20)
    diagrams = [_fresh(d) for d in golden_splice_diagrams().values()]
    for g in golden_plumbing_graphs().values():
        with contextlib.suppress(DiagramError):
            diagrams.append(_fresh(plumbing_to_splice(g)))
    diagrams += [_fresh(random_valid_splice(rng, max_nodes=3, max_weight=7)) for _ in range(10)]
    queries = reduced = 0
    for d in diagrams:
        if not any(d.f_divisor().values()):
            continue
        small = blow_down(d)
        fixed = _REALIZE_KEYS | {
            ("cut", v, e.key) for x in (d, small) for e in x.special_edges() for v in e.key
        }
        for lam in _eigenvalues(d):
            for effective in (False, True):
                for doubles in (False, True):
                    realize_eigenvalue(d, lam, effective=effective, include_doubles=doubles)
                    queries += 1
                    for x in (d, small):
                        assert set(x._memo) <= fixed, set(x._memo) - fixed
        assert {("realize slots", False), ("realize slots", True)} <= set(small._memo)
        reduced += small is not d
    assert queries > 1000 and reduced >= 3


def _drawn_arrow_candidates(q):
    """The arrowhead source with every arrowhead's small boundary
    assignments drawn from the query's own stream, none read from the memo."""
    from splicezeta import realize

    for aid, (na, ua) in q.arrow_hits.items():
        for basew in realize._small_allowed_candidates(q.slots, q.forms, q.stream()):
            for t in range(1, 9) if q.effective else range(8):
                yield basew | {aid: (ua - 1) + na * t}, f"arrow:{aid}"


def test_kept_draws_give_the_outcome_of_fresh_draws(monkeypatch):
    # every lambda in Eig of every corpus diagram, with and without
    # --include-doubles and --effective, at count 2 and 30: a query on a
    # freshly parsed diagram and one on a diagram whose slot tables hold the
    # first arrowhead's draws, kept by the queries before it, end as the query
    # ends when the arrowhead source draws every list from a stream seeded
    # when the query starts (at count 30 some queries reach the draws after
    # the first list).  A query builds its stream only when a source draws,
    # and then once: the queries whose sources never draw build none.
    from splicezeta import realize

    @dataclasses.dataclass
    class EagerQuery(realize._Query):
        def __post_init__(self):
            self.stream()

    builds = []
    streams = []
    draws = []
    slot_tables = realize._slot_tables

    def tables(*args):
        # the first draws the tables keep count as neither a draw nor a stream
        builds.append(args)
        n_streams, n_draws = len(streams), len(draws)
        try:
            return slot_tables(*args)
        finally:
            del streams[n_streams:], draws[n_draws:]

    class CountedRandom(random.Random):
        def __init__(self, *args):
            streams.append(args)
            super().__init__(*args)

    below7, drop7 = realize._below7, realize._drop7
    monkeypatch.setattr(realize, "_slot_tables", tables)
    monkeypatch.setattr(realize.random, "Random", CountedRandom)
    monkeypatch.setattr(realize, "_below7", lambda *a: draws.append(a) or below7(*a))
    monkeypatch.setattr(realize, "_drop7", lambda *a: draws.append(a) or drop7(*a))
    diagrams = list(golden_splice_diagrams().values())
    for g in golden_plumbing_graphs().values():
        with contextlib.suppress(DiagramError):
            diagrams.append(plumbing_to_splice(g))
    fresh_builds = 0
    drawing = quiet = 0
    for d in diagrams:
        if not any(d.f_divisor().values()):
            continue
        warm = _fresh(d)
        warm_builds = 0
        for lam in _eigenvalues(d):
            for count, effective, doubles in itertools.product((2, 30), *[(False, True)] * 2):
                kw = {"count": count, "effective": effective, "include_doubles": doubles}
                with monkeypatch.context() as m:
                    m.setattr(realize, "_arrow_candidates", _drawn_arrow_candidates)
                    m.setattr(realize, "_Query", EagerQuery)
                    want = realize_eigenvalue(_fresh(d), lam, **kw)
                for x in (_fresh(d), warm):
                    builds.clear()
                    streams.clear()
                    draws.clear()
                    assert realize_eigenvalue(x, lam, **kw) == want, (lam, kw)
                    assert streams == ([(realize._SEED,)] if draws else []), (lam, kw)
                    drawing += bool(draws)
                    quiet += not draws
                    if x is warm:
                        warm_builds += len(builds)
                    else:
                        fresh_builds += len(builds)
        # the slot tables, draws included, are built once per value of
        # include_doubles
        small = blow_down(warm)
        assert warm_builds == sum(("realize slots", x) in small._memo for x in (False, True)) == 2
    assert fresh_builds > 100
    assert drawing > 100 and quiet > 100, (drawing, quiet)


def test_returned_values_are_not_shared():
    d = golden_splice_diagrams()["two_cusp"]
    bad = parse_diagram(
        "splice-diagram bad\nvertex v\nvertex b1\nvertex b2\nvertex b3\n"
        "edge v b1 2 1\nedge v b2 4 1\nedge v b3 3 1\nfarrow a at v w=1 N=1\n"
    )[2]
    for get in (
        lambda: vertex_multiplicities(d),
        lambda: nu_values(d, {}),
        lambda: star_decomposition(d, None, {}),
    ):
        want = dict(get())
        got = get()
        got[next(iter(got))] = None
        got["extra"] = 0
        assert get() == want
    report = validate(bad)
    report.add("extra", "-", "mutated")
    assert len(validate(bad).violations) == len(report.violations) - 1
    z = zeta_splice(d)
    with pytest.raises(TypeError):
        z.parts[next(iter(z.parts))] = (0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        z.const = 0
    assert isinstance(z.node_terms, tuple) and isinstance(z.edge_terms, tuple)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_rewritten_file_is_read_anew(tmp_path):
    path = tmp_path / "d.sd"
    first, second = (CORPUS / "two_cusp.sd").read_text(), (CORPUS / "two_cusp_mult7.sd").read_text()
    path.write_text(first)
    a = _main(["zeta", str(path), "--json"])
    path.write_text(second)
    b = _main(["zeta", str(path), "--json"])
    assert a != b
    assert b == _main(["zeta", str(CORPUS / "two_cusp_mult7.sd"), "--json"])
    cli._parse.cache_clear()
    assert b == _main(["zeta", str(path), "--json"])
    path.write_text(first)
    assert _main(["zeta", str(path), "--json"]) == a


def test_text_that_fails_to_parse_is_parsed_again(tmp_path, monkeypatch):
    path = tmp_path / "bad.sd"
    path.write_text("splice-diagram x\nvertex a\nvertex a\n")
    calls = []
    parse = cli.parse_diagram
    monkeypatch.setattr(cli, "parse_diagram", lambda text: calls.append(text) or parse(text))
    cli._parse.cache_clear()
    for _ in range(3):
        code, out, err = _main(["validate", str(path)])
        assert code == 1 and err
    assert len(calls) == 3
    assert cli._parse.cache_info().currsize == 0


def test_parse_cache_stays_at_its_maxsize(tmp_path):
    rng = random.Random(7)
    cli._parse.cache_clear()
    for k in range(cli.PARSE_CACHE_SIZE + 8):
        path = tmp_path / f"d{k}.sd"
        path.write_text(print_splice(random_valid_splice(rng), f"d{k}"))
        assert _main(["validate", str(path)])[0] == 0
        assert cli._parse.cache_info().currsize == min(k + 1, cli.PARSE_CACHE_SIZE)
    assert cli._parse.cache_info().maxsize == cli.PARSE_CACHE_SIZE


def test_repeated_commands_print_the_same_bytes():
    # every splice_batch command on every corpus file, three rounds in one
    # process: the first parses, the second reads the kept objects, the
    # third follows a cleared parse cache; realize at lambda = 1 and splice
    # at the first special edge as well
    argvs = []
    for path in sorted(CORPUS.iterdir()):
        argvs += [[c, str(path), "--json"] for c in COMMANDS]
        argvs.append(["realize", str(path), "--lambda", "0/1", "--json"])
        obj = parse_diagram(path.read_text())[2]
        try:
            d = obj if path.suffix == ".sd" else plumbing_to_splice(obj)
        except DiagramError:
            continue
        for e in sorted(d.special_edges(), key=lambda x: x.key)[:1]:
            argvs.append(["splice", str(path), "--edge", f"{e.a}:{e.b}", "--json"])
    cli._parse.cache_clear()
    rounds = [[_main(argv) for argv in argvs] for _ in range(2)]
    cli._parse.cache_clear()
    rounds.append([_main(argv) for argv in argvs])
    assert rounds[0] == rounds[1] == rounds[2]
    assert {code for code, _, _ in rounds[0]} == {0, 2}
