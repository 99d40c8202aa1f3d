"""The input contract of the math modules: every public function that takes
a diagram or graph checks it once where it enters.

It runs ``require_valid`` once and refuses exactly what that refuses, with
its message; it reads F once (``f_of`` or ``effective_f``) and W once
(``w_of``), refusing a bad key with their messages; and nothing below it
checks again.  README's refusal table lists the same functions.
"""

import random
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from splicezeta import allowed, divisors, monodromy, realize, splicing, zeta
from splicezeta.corpus import intro_star, two_cusp_diagram, two_cusp_plumbing
from splicezeta.diagrams import (
    DiagramError,
    Edge,
    Farrow,
    PlumbingGraph,
    SpliceDiagram,
    require_valid,
    validate,
)
from splicezeta.exact import UnityRoot
from splicezeta.generate import random_valid_splice

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = (divisors, zeta, monodromy, allowed, splicing, realize)

LAM = UnityRoot(1, 6)
D = two_cusp_diagram()
G = two_cusp_plumbing()
# the left half of two_cusp at v1 - v0 is a star: extend_allowed's input
W_FLAT = {"leg1p": 1, splicing.splice(D, ("v1", "v0"))[1].new_slot: -2}


class Entry(NamedTuple):
    """A public function: what it takes ("splice", "plumbing" or "either"),
    which of F and W it reads from its arguments, and a call of it on x at
    F = f and W = w (None: the default)."""

    takes: str
    reads: str
    call: Callable


ENTRIES = {
    "divisors.vertex_multiplicities": Entry(
        "splice", "F", lambda x, f, w: divisors.vertex_multiplicities(x, f)
    ),
    "divisors.nu_values": Entry("splice", "W", lambda x, f, w: divisors.nu_values(x, w)),
    "divisors.pullback_plumbing": Entry(
        "plumbing", "F", lambda x, f, w: divisors.pullback_plumbing(x, f)
    ),
    "divisors.canonical_plumbing": Entry(
        "plumbing", "W", lambda x, f, w: divisors.canonical_plumbing(x, w)
    ),
    "zeta.zeta_splice": Entry("splice", "FW", lambda x, f, w: zeta.zeta_splice(x, f, w)),
    "zeta.pole_at": Entry("splice", "FW", lambda x, f, w: zeta.pole_at(x, f, w, LAM)),
    "zeta.zeta_plumbing": Entry("plumbing", "FW", lambda x, f, w: zeta.zeta_plumbing(x, f, w)),
    "monodromy.monodromy_zeta": Entry("either", "F", lambda x, f, w: monodromy.monodromy_zeta(x, f)),
    "monodromy.delta0": Entry("either", "F", lambda x, f, w: monodromy.delta0(x, f)),
    "monodromy.delta1": Entry("either", "F", lambda x, f, w: monodromy.delta1(x, f)),
    "monodromy.alexander": Entry("splice", "F", lambda x, f, w: monodromy.alexander(x, f)),
    "monodromy.eig_contains": Entry(
        "either", "F", lambda x, f, w: monodromy.eig_contains(x, LAM, f)
    ),
    "allowed.semigroup_condition": Entry(
        "splice", "", lambda x, f, w: allowed.semigroup_condition(x)
    ),
    "allowed.allowed_at": Entry("splice", "FW", lambda x, f, w: allowed.allowed_at(x, f, w)),
    "allowed.is_allowed": Entry("splice", "FW", lambda x, f, w: allowed.is_allowed(x, f, w)),
    "allowed.check_goal1": Entry("splice", "FW", lambda x, f, w: allowed.check_goal1(x, f, w)),
    "splicing.splice": Entry(
        "splice", "FW", lambda x, f, w: splicing.splice(x, ("v1", "v0"), f, w)
    ),
    "splicing.star_decomposition": Entry(
        "splice", "FW", lambda x, f, w: splicing.star_decomposition(x, f, w)
    ),
    "splicing.induced_value": Entry(
        "splice", "W", lambda x, f, w: splicing.induced_value(x, D.edge("v1", "v0"), "v0", w)
    ),
    "splicing.verify_splice_zeta": Entry(
        "splice", "FW", lambda x, f, w: splicing.verify_splice_zeta(x, ("v1", "v0"), f, w)
    ),
    "realize.certify": Entry(
        "splice", "FW", lambda x, f, w: realize.certify(x, f, w or {}, LAM, "test", False)
    ),
    # the searched W of each candidate is read afresh: only F counts
    "realize.realize_eigenvalue": Entry(
        "splice", "F", lambda x, f, w: realize.realize_eigenvalue(x, UnityRoot(1, 2), f)
    ),
    # a star's own F; on two_cusp it refuses a diagram of three nodes
    "realize.realize_star": Entry("splice", "", lambda x, f, w: realize.realize_star(x, LAM)),
    "realize.extend_allowed": Entry(
        "splice", "FW", lambda x, f, w: realize.extend_allowed(x, ("v1", "v0"), w or W_FLAT, f)
    ),
}

# Public functions of the six modules that take a diagram or graph but are
# not entries: the F and W readers, and the cores, which take what an entry
# has checked and check nothing.
READERS = {"divisors.f_of", "divisors.w_of", "divisors.effective_f", "divisors.is_own"}
CORES = {
    "divisors.canonical_sums", "divisors.f_sums", "divisors.w_sums", "divisors.node_data",
    "divisors.solve_pullback", "divisors.solve_canonical", "zeta.zeta_core", "zeta.pole_core",
    "monodromy.alexander_core", "monodromy.eig_core", "allowed.allowed_core",
    "splicing.root_cut", "splicing.star_legs", "splicing.splice_core", "splicing.stars_core",
    "realize.slot_columns", "realize.star_forms",
}


def _bad_splice():
    cusp = D
    # two weights at v1 made even: 2 towards bL, and 2 (not 3) towards leg1
    even = [(e.a, e.b, 2 if e.key == ("leg1", "v1") else e.wa, e.wb) for e in cusp.edges]
    return {
        "empty diagram": SpliceDiagram([]),
        "cycle": SpliceDiagram(
            ["a", "b", "c"], [("a", "b", 2, 3), ("b", "c", 5, 7), ("c", "a", 11, 13)]
        ),
        "valency-2 vertex": SpliceDiagram(["a", "b", "c"], [("a", "b", 1, 1), ("b", "c", 2, 1)]),
        "zero weight": SpliceDiagram(
            ["v", "b1", "b2", "b3"],
            [Edge("v", "b1", 2, 1), Edge("v", "b2", 0, 1), Edge("v", "b3", 3, 1)],
            [Farrow("a", "v", 1, 1)],
        ),
        "non-coprime weights": SpliceDiagram(cusp.vertices, even, cusp.farrows),
        # q_e = 5 * 3 - (2 * 9) * (2 * 7) = -237 at v - u
        "edge determinant <= 0": SpliceDiagram(
            ["v", "b1", "b2", "u", "c1", "c2"],
            [("v", "b1", 2, 1), ("v", "b2", 9, 1), ("v", "u", 5, 3), ("u", "c1", 2, 1),
             ("u", "c2", 7, 1)],
            [Farrow("a", "v", 1, 1)],
        ),
    }


def _bad_plumbing():
    return {
        "empty graph": PlumbingGraph([]),
        "cyclic graph": PlumbingGraph(
            [("a", -3), ("b", -3), ("c", -3)], [("a", "b"), ("b", "c"), ("c", "a")],
            [Farrow("f", "a", 1, 1)],
        ),
        "indefinite graph": PlumbingGraph([("a", 1)], [], [Farrow("f", "a", 1, 1)]),
    }


def _refusal(x) -> str:
    with pytest.raises(DiagramError) as info:
        require_valid(x)
    return str(info.value)


BAD = {"splice": _bad_splice(), "plumbing": _bad_plumbing()}
KINDS = {"splice": ("splice",), "plumbing": ("plumbing",), "either": ("splice", "plumbing")}
CASES = [
    (name, kind, case)
    for name, entry in ENTRIES.items()
    for kind in KINDS[entry.takes]
    for case in BAD[kind]
]


def test_the_bad_inputs_are_refused_for_what_they_show():
    messages = {case: _refusal(x) for kind in BAD.values() for case, x in kind.items()}
    assert messages["empty diagram"] == messages["cycle"] == "diagram is not a connected tree"
    assert messages["valency-2 vertex"] == "valency-2 vertices present (b)"
    assert "[weight] edge ('b2', 'v'): weights (0,1) must be >= 1" in messages["zero weight"]
    assert messages["non-coprime weights"] == (
        "invalid splice diagram\n[coprimality] node v1: weights 2 and 2 share a factor"
    )
    assert messages["edge determinant <= 0"] == (
        "invalid splice diagram\n[edge-determinant] edge ('u', 'v'): q_e = -237 <= 0"
    )
    assert "empty graph" in messages["empty graph"]
    assert "graph has a cycle" in messages["cyclic graph"]
    assert "not positive definite" in messages["indefinite graph"]


@pytest.mark.parametrize("name, kind, case", CASES)
def test_every_public_function_refuses_what_require_valid_refuses(name, kind, case):
    x = BAD[kind][case]
    with pytest.raises(DiagramError) as info:
        ENTRIES[name].call(x, None, None)
    assert str(info.value) == _refusal(x)


def _bases(entry):
    return {"splice": [D], "plumbing": [G], "either": [D, G]}[entry.takes]


@pytest.mark.parametrize("name", [n for n, e in ENTRIES.items() if "F" in e.reads])
def test_a_bad_f_key_gets_the_message_of_f_of(name):
    for x in _bases(ENTRIES[name]):
        with pytest.raises(DiagramError, match=r"^F key 'nope' is not an arrowhead$"):
            ENTRIES[name].call(x, {"nope": 1}, None)
        with pytest.raises(DiagramError, match=r"^F multiplicity -1 at 'a0' is negative$"):
            ENTRIES[name].call(x, {"a0": -1}, None)


@pytest.mark.parametrize("name", [n for n, e in ENTRIES.items() if "W" in e.reads])
def test_a_bad_w_key_gets_the_message_of_w_of(name):
    for x in _bases(ENTRIES[name]):
        with pytest.raises(DiagramError, match=r"^W slot 'nope' is not a vertex or arrowhead$"):
            ENTRIES[name].call(x, None, {"nope": 1})


def _public_diagram_functions():
    """Every function defined in the six modules, without a leading
    underscore, whose first parameter is a diagram or graph."""
    found = set()
    for module in MODULES:
        for attr, fn in vars(module).items():
            code = getattr(fn, "__code__", None)
            if attr.startswith("_") or code is None or not code.co_argcount:
                continue
            if fn.__module__ != module.__name__:
                continue
            first = code.co_varnames[0]
            note = str(fn.__annotations__.get(first, ""))
            if first in ("d", "x", "g", "star") or "Diagram" in note or "Graph" in note:
                found.add(f"{module.__name__.rsplit('.', 1)[1]}.{attr}")
    return found


def test_every_public_function_is_an_entry_a_reader_or_a_core():
    assert _public_diagram_functions() == set(ENTRIES) | READERS | CORES


def test_readme_refusal_table_lists_the_entries():
    text = README.read_text(encoding="utf-8")
    start = text.index("| function | input | F | W | refuses besides the checks |")
    rows = []
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `([\w.]+)` \|", line).group(1))
    assert rows == list(ENTRIES)
    assert all(f"`{core.split('.')[1]}`" in text for core in CORES)


# ---------------------------------------------------------------------------
# each check at most once per call


F_SEARCHED = {"a0": 2}
W_SEARCHED = {"leg1": 2, "leg1p": 1}
W_GRAPH = {"e1": 1, "e7": 2}


def _count_checks(monkeypatch) -> dict[str, int]:
    """Count the calls of require_valid, f_of and w_of, wherever a
    splicezeta module binds them."""
    from splicezeta import diagrams

    counts = dict.fromkeys(("require_valid", "f_of", "w_of"), 0)
    for home, name in ((diagrams, "require_valid"), (divisors, "f_of"), (divisors, "w_of")):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("splicezeta") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("name", list(ENTRIES))
def test_one_call_runs_each_check_at_most_once(name, monkeypatch):
    entry = ENTRIES[name]
    counts = _count_checks(monkeypatch)
    for x in _bases(entry):
        if name == "realize.realize_star":
            x = intro_star(2, 3)
        w = W_GRAPH if isinstance(x, PlumbingGraph) else W_SEARCHED
        if name == "realize.extend_allowed":
            w = W_FLAT
        for k in counts:
            counts[k] = 0
        entry.call(x, F_SEARCHED if "F" in entry.reads else None, w if "W" in entry.reads else None)
        assert counts["require_valid"] == 1, counts
        # the F and W a call takes are read once; realize_star reads its
        # star's own F once, and realize reads each candidate's W afresh
        assert counts["f_of"] == ("F" in entry.reads or name == "realize.realize_star"), counts
        if name not in ("realize.realize_eigenvalue", "realize.realize_star"):
            assert counts["w_of"] == ("W" in entry.reads), counts


def test_splice_halves_of_valid_diagrams_are_valid():
    # what lets verify_splice_zeta sum the halves' zeta functions through
    # the core, with no second check: each half of a valid diagram passes
    # validate, but for a new leaf whose dashed arrow has i = 0 (a W-dependent
    # violation); that half has M = 0 too, so verify_splice_zeta reports it
    # degenerate before any zeta function is summed
    rng = random.Random(33)
    halves = zero_leaves = 0
    for _ in range(200):
        d = random_valid_splice(rng, max_nodes=6, max_weight=13, with_warrows=True)
        assert validate(d).ok
        for e in d.special_edges():
            for half in splicing.splice(d, e):
                require_valid(half.diagram)
                violations = validate(half.diagram).violations
                if half.i == 0 and half.new_farrow is None:
                    assert half.m == 0
                    assert [(v.kind, v.detail) for v in violations] == [
                        ("arrow-data", "pure dashed arrow with i = 0")
                    ]
                    zero_leaves += 1
                else:
                    assert not violations, (d, e, violations)
                halves += 1
    assert halves > 100 and zero_leaves
