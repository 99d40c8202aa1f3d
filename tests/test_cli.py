"""File format round-trips and the command surface."""

import contextlib
import io
import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicezeta import cli, corpus, exact
from splicezeta.cli import _json, build_parser, main
from splicezeta.corpus import golden_plumbing_graphs, golden_splice_diagrams
from splicezeta.diagrams import DiagramError, Farrow, PlumbingGraph, PVertex, plumbing_to_splice
from splicezeta.exact import CycloLimitError, CycloProduct, UnityRoot, format_fraction
from splicezeta.generate import random_plumbing
from splicezeta.io import ParseError, parse_diagram, print_diagram
from splicezeta.monodromy import delta1, eig_contains
from splicezeta.realize import realize_eigenvalue
from splicezeta.selfcheck import CHECKS, run_selfcheck
from splicezeta.zeta import ZetaResult, zeta_plumbing, zeta_splice
from realize_oracle import realize_payload
from zeta_oracle import func, zeta_payload

CORPUS = Path(__file__).resolve().parent.parent / "src" / "splicezeta" / "corpus"
# a star whose edge weights 2 and 4 are not coprime: ``validate`` rejects it
STAR_2_4 = (
    "splice-diagram bad\nvertex v\nvertex b1\nvertex b2\nvertex b3\n"
    "edge v b1 2 1\nedge v b2 4 1\nedge v b3 3 1\nfarrow a at v w=1 N=1\n"
)


def run_cli(*args, expect: int = 0):
    proc = subprocess.run(
        [sys.executable, "-m", "splicezeta.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr, proc.stdout)
    return proc.stdout


def test_roundtrip_splice():
    for name, d in golden_splice_diagrams().items():
        text = print_diagram(d, name)
        kind, got_name, obj = parse_diagram(text)
        assert kind == "splice" and got_name == name
        assert print_diagram(obj, name) == text


def test_roundtrip_plumbing():
    for name, g in golden_plumbing_graphs().items():
        text = print_diagram(g, name)
        kind, got_name, obj = parse_diagram(text)
        assert kind == "plumbing" and got_name == name
        assert print_diagram(obj, name) == text


def test_corpus_files_match_their_constructors():
    # the golden tables are the shipped files; each parametric family prints
    # its shipped file exactly at that file's parameters, and every file is
    # reached by a constructor
    goldens = {".sd": golden_splice_diagrams(), ".pg": golden_plumbing_graphs()}
    paths = sorted(CORPUS.iterdir())
    assert {(p.stem, p.suffix) for p in paths} == {
        (name, suffix) for suffix, objs in goldens.items() for name in objs
    }
    constructors = {
        "two_cusp.sd": corpus.two_cusp_diagram(),
        "two_cusp_mult7.sd": corpus.two_cusp_diagram_mult(7),
        "intro_star_2_3.sd": corpus.intro_star(2, 3),
        "staircase_2_3.sd": corpus.plane_curve_staircase([(2, 3)]),
        "staircase_2_3_13_2.sd": corpus.plane_curve_staircase([(2, 3), (13, 2)]),
        "staircase_3_2_25_3.sd": corpus.plane_curve_staircase([(3, 2), (25, 3)]),
        "two_cusp.pg": corpus.two_cusp_plumbing(),
        "rodrigues.pg": corpus.rodrigues_plumbing(),
        "unimod_counterexample_1.pg": corpus.unimodular_counterexample_plumbing(1),
        "unimod_counterexample_2.pg": corpus.unimodular_counterexample_plumbing(2),
        "staircase_235.pg": corpus.staircase_plumbing_235(),
        "smooth_point.pg": corpus.smooth_point_plumbing(),
        "e8.pg": corpus.e8_plumbing(),
    }
    assert sorted(constructors) == [p.name for p in paths]
    kinds = {".sd": "splice diagram", ".pg": "plumbing graph"}
    for path in paths:
        header = f"# {path.stem}: golden {kinds[path.suffix]}\n"
        text = path.read_text()
        assert text == header + print_diagram(constructors[path.name], path.stem), path
        assert text == header + print_diagram(goldens[path.suffix][path.stem], path.stem), path
    # a fixed constructor reads its file afresh: no memo is shared
    assert corpus.two_cusp_diagram() is not corpus.two_cusp_diagram()


def test_corpus_reads_no_file_at_import():
    # importing the module opens nothing under the corpus directory; the
    # constructors read it on call
    code = '''
import sys
from pathlib import Path
seen = []
def hook(event, args):
    if event in ("open", "os.listdir", "os.scandir") and args and args[0] is not None:
        seen.append(Path(str(args[0])).absolute())
sys.addaudithook(hook)
import splicezeta.corpus as corpus
def reads():
    return sum(p == corpus.CORPUS_DIR or p.parent == corpus.CORPUS_DIR for p in seen)
at_import = reads()
corpus.e8_plumbing()
corpus.golden_splice_diagrams()
print(at_import, reads() >= 7)
'''
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "0 True\n"  # e8.pg and the six .sd files, at least


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_diagram("")
    with pytest.raises(ParseError):
        parse_diagram("splice-diagram x\nunknownrec a b\n")
    with pytest.raises(ParseError):
        parse_diagram("splice-diagram x\nvertex a\nvertex a\n")
    with pytest.raises(ParseError):
        parse_diagram("splice-diagram x\nvertex a\nfarrow f at a w=oops N=1\n")
    with pytest.raises(ParseError):
        parse_diagram("plumbing-graph x\nvertex a\n")  # missing self=


def test_comments_and_defaults():
    kind, name, d = parse_diagram(
        "# leading comment\nsplice-diagram demo\nvertex a # trailing\nvertex b\nedge a b\n"
    )
    assert d.edges[0].wa == 1 and d.edges[0].wb == 1


def test_cli_validate_ok_and_violations(tmp_path):
    out = run_cli("validate", str(CORPUS / "two_cusp.sd"))
    assert "valid" in out
    bad = tmp_path / "bad.sd"
    bad.write_text(STAR_2_4)
    payload = json.loads(run_cli("validate", str(bad), "--json"))
    assert payload["valid"] is False
    assert any(v["kind"] == "coprimality" for v in payload["violations"])


def test_cli_zeta_json_golden():
    payload = json.loads(run_cli("zeta", str(CORPUS / "two_cusp.sd"), "--json"))
    z = payload["zeta"]
    assert z["numerator"] == ["-7/3", "7/6", "1/3"]
    assert z["denominator"] == ["13/3", "1/6", "-19/6", "1"]
    assert len(z["node_terms"]) == 3 and len(z["edge_terms"]) == 2


def test_cli_poles_and_eig():
    payload = json.loads(run_cli("poles", str(CORPUS / "two_cusp.sd"), "--json"))
    assert {p["s0"] for p in payload["poles"]} == {"-1", "2", "13/6"}
    out = json.loads(run_cli("eig", str(CORPUS / "two_cusp.sd"), "--lambda", "1/2", "--json"))
    assert out["in_eig"] is False


def test_cli_convert_and_reparse(tmp_path):
    out = run_cli("convert", str(CORPUS / "two_cusp.pg"))
    kind, name, d = parse_diagram(out)
    assert kind == "splice" and len(d.nodes()) == 3


def test_cli_splice_and_stars():
    payload = json.loads(
        run_cli("splice", str(CORPUS / "two_cusp.sd"), "--edge", "v1:v0", "--json")
    )
    assert payload["M"] == 1 and payload["i"] == -1
    assert payload["identity_holds"] is True
    stars = json.loads(run_cli("stars", str(CORPUS / "two_cusp.sd"), "--json"))
    assert set(stars["stars"]) == {"v1", "v0", "v1p"}


def test_cli_goal1_allowed_semigroup():
    payload = json.loads(run_cli("goal1", str(CORPUS / "two_cusp.sd"), "--json"))
    assert payload["holds"] is True and payload["allowed"] is False
    payload = json.loads(run_cli("allowed", str(CORPUS / "two_cusp.sd"), "--json"))
    assert payload["allowed"] is False
    payload = json.loads(run_cli("semigroup", str(CORPUS / "two_cusp.sd"), "--json"))
    assert payload["holds"] is False


def test_cli_realize_effective():
    payload = json.loads(
        run_cli(
            "realize", str(CORPUS / "two_cusp.sd"), "--lambda", "1/6", "--effective", "--json"
        )
    )
    assert payload["status"] == "realized"
    sol = payload["found"][0]
    assert all(v >= 1 for v in sol["values"].values())
    # warrow records appear in the text output
    text = run_cli("realize", str(CORPUS / "two_cusp.sd"), "--lambda", "1/6", "--effective")
    assert "warrow" in text


def test_cli_realize_unrealizable():
    payload = json.loads(
        run_cli("realize", str(CORPUS / "two_cusp_mult7.sd"), "--lambda", "37/42", "--json")
    )
    assert payload["status"] == "unrealizable-within-bound"
    assert payload["congruences"]


def test_cli_exit_codes(tmp_path):
    run_cli("validate", "/nonexistent.sd", expect=1)
    # precondition violation: convert on a splice diagram
    run_cli("convert", str(CORPUS / "two_cusp.sd"), expect=2)
    # non-unimodular conversion also refuses
    run_cli("stars", str(CORPUS / "rodrigues.pg"), expect=2)
    # realize with lambda outside Eig
    run_cli("realize", str(CORPUS / "two_cusp.sd"), "--lambda", "1/5", expect=2)
    bad = tmp_path / "broken.sd"
    bad.write_text("splice-diagram x\nmystery record\n")
    run_cli("validate", str(bad), expect=1)


def test_cli_deterministic_output():
    a = run_cli("zeta", str(CORPUS / "two_cusp.sd"), "--json")
    b = run_cli("zeta", str(CORPUS / "two_cusp.sd"), "--json")
    assert a == b


def test_cli_selfcheck_small():
    out = run_cli("selfcheck", "--samples", "6")
    assert "FAIL" not in out
    payload = json.loads(run_cli("selfcheck", "--samples", "6", "--json"))
    # selfcheck runs the whole table the acceptance suite runs, in order
    assert [c["name"] for c in payload["checks"]] == [c.name for c in CHECKS]
    (oracle,) = [c for c in payload["checks"] if c["name"] == "criterion_9_oracle_equivalences"]
    assert re.fullmatch(r"\d+ checked, \d+ skipped", oracle["detail"])


def test_cli_refuses_counts_below_one(capsys):
    # a count below one used to yield a vacuous verdict with exit 0
    sd = str(CORPUS / "two_cusp.sd")
    for count in ("0", "-3"):
        assert main(["realize", sd, "--lambda", "5/6", "--count", count, "--json"]) == 1
        assert capsys.readouterr() == ("", "error: --count must be at least 1\n")
    for bound in ("-1", "-3"):
        assert main(["realize", sd, "--lambda", "5/6", "--bound", bound, "--json"]) == 1
        assert capsys.readouterr() == ("", "error: --bound must be nonnegative\n")
    for samples in ("0", "-4"):
        assert main(["selfcheck", "--samples", samples]) == 1
        assert capsys.readouterr() == ("", "error: --samples must be at least 1\n")
    with pytest.raises(ValueError, match="samples must be at least 1"):
        run_selfcheck(0)


def test_no_src_path_reaches_the_polynomial_algebra(monkeypatch):
    # (C, parts) is the one zeta form: selfcheck, every splice_batch command
    # and convert, in process on every corpus file, give the same exit codes
    # and bytes with Poly, RatFunc and poly_gcd refusing as without, and
    # none is reached
    reached = []

    def refuse(*args, **kwargs):
        reached.append(args)
        raise AssertionError("reached the polynomial algebra")

    commands = (
        "validate", "zeta", "poles", "alexander", "semigroup", "allowed", "goal1", "stars",
        "convert",
    )
    argvs = []
    for path in sorted(CORPUS.iterdir()):
        argvs += [[command, str(path), "--json"] for command in commands]
        _, _, obj = parse_diagram(path.read_text())
        with contextlib.suppress(DiagramError):
            d = obj if path.suffix == ".sd" else plumbing_to_splice(obj)
            for e in sorted(d.special_edges(), key=lambda e: e.key)[:1]:
                argvs.append(["splice", str(path), "--edge", f"{e.a}:{e.b}", "--json"])

    def run_all():
        cli._parse.cache_clear()  # parse afresh, so no zeta is read from a memo
        lines = [str(line) for line in run_selfcheck(3)]
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            lines.append((argv, code, out.getvalue(), err.getvalue()))
        return lines

    monkeypatch.setattr(exact.Poly, "__init__", refuse)
    monkeypatch.setattr(exact.RatFunc, "__init__", refuse)
    monkeypatch.setattr(exact, "poly_gcd", refuse)
    refused = run_all()
    monkeypatch.undo()
    assert reached == []
    assert refused == run_all()
    assert all(line.startswith("PASS") for line in refused[: len(CHECKS)])
    ran = {argv[0] for argv, code, *_ in refused[len(CHECKS):] if code == 0}
    assert ran == {*commands, "splice"}


def test_cli_plumbing_inputs_full_surface():
    # unimodular plumbing files convert on the fly for diagram-level commands
    pg = str(CORPUS / "two_cusp.pg")
    payload = json.loads(run_cli("goal1", pg, "--json"))
    assert payload["holds"] is True
    payload = json.loads(run_cli("allowed", pg, "--json"))
    assert payload["allowed"] is False
    payload = json.loads(run_cli("semigroup", pg, "--json"))
    assert payload["holds"] is False
    payload = json.loads(run_cli("alexander", pg, "--json"))
    assert payload["alexander"]["polynomial"] == ["1", "-2", "3", "-2", "1"]
    # non-unimodular plumbing: alexander falls back to the graph-level Delta1
    payload = json.loads(run_cli("alexander", str(CORPUS / "rodrigues.pg"), "--json"))
    assert "delta1" in payload and "alexander" not in payload
    out = json.loads(
        run_cli("eig", str(CORPUS / "rodrigues.pg"), "--lambda", "1/3", "--json")
    )
    assert out["in_eig"] is False


def test_cli_splice_non_special_edge_exit2():
    run_cli("splice", str(CORPUS / "two_cusp.sd"), "--edge", "v1:bL", expect=2)


def test_cli_verdict_commands_refuse_invalid_diagram(tmp_path, capsys):
    # before validation at the boundary, goal1 printed a false counterexample
    # ("pole -3/4 -> 1/4: NOT in Eig") for this star and exited 0
    bad = tmp_path / "bad.sd"
    bad.write_text(STAR_2_4)
    for command, *flags in (
        ("zeta",),
        ("poles",),
        ("allowed",),
        ("goal1",),
        ("semigroup",),
        ("alexander",),
        ("eig", "--lambda", "1/4"),
        ("stars",),
        ("realize", "--lambda", "1/8"),
        ("splice", "--edge", "v:b1"),
    ):
        assert main([command, str(bad), *flags, "--json"]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "weights 2 and 4 share a factor" in captured.err, command


# argvs the command table reads, and argvs it leaves to the top-level
# parser: abbreviations, =-joined values, --json on either side of the
# command, repeated options, --, negative values, an empty argument,
# leftovers, a missing file, unknown commands and help; corpus file names
# stand for their paths, and -x.sd is a copy of two_cusp.sd in the working
# directory
_DISPATCH_ARGVS = [
    ["validate", "two_cusp.sd"],
    ["convert", "two_cusp.pg", "--json"],
    ["zeta", "two_cusp.sd"],
    ["zeta", "two_cusp.sd", "--json"],
    ["zeta", "two_cusp.sd", "--json", "--json"],
    ["--json", "zeta", "two_cusp.sd"],
    ["--json", "zeta", "two_cusp.sd", "--json"],
    ["zeta", "--js", "two_cusp.sd"],
    ["zeta", "--json=1", "two_cusp.sd"],
    ["poles", "two_cusp.sd", "--json"],
    ["alexander", "two_cusp.sd", "--json"],
    ["semigroup", "two_cusp.sd"],
    ["allowed", "two_cusp.sd", "--json"],
    ["goal1", "two_cusp.sd"],
    ["stars", "two_cusp.sd", "--json"],
    ["selfcheck", "--samples", "3"],
    ["selfcheck", "--samples=3", "--json"],
    ["selfcheck", "--sam", "3"],
    ["selfcheck", "--samples", "0"],
    ["selfcheck", "--samples", "x"],
    ["eig", "two_cusp.sd", "--lambda", "1/2"],
    ["eig", "two_cusp.sd", "--lam", "1/2"],
    ["eig", "two_cusp.sd", "--lambda=1/7", "--json"],
    ["eig", "two_cusp.sd"],
    ["eig", "two_cusp.sd", "--lambda", ""],
    ["eig", "two_cusp.sd", "--", "1/2"],
    ["splice", "two_cusp.sd", "--edge", "v1:v0", "--json"],
    ["splice", "two_cusp.sd", "--edge=v1:v0", "--json"],
    ["splice", "two_cusp.sd", "--ed", "v1:v0"],
    ["splice", "--edge", "v1:v0", "two_cusp.sd", "--edge", "v0:v1"],
    ["splice", "two_cusp.sd", "-", "v1:v0"],
    ["realize", "two_cusp.sd", "--lambda", "1/6", "--effective", "--count", "2", "--json"],
    ["realize", "two_cusp.sd", "--lam", "1/6", "--eff", "--count=2", "--json"],
    ["realize", "two_cusp.sd", "--lambda=1/6", "--cou", "2", "--bound=3", "--include-d"],
    ["realize", "two_cusp.sd", "--lambda", "1/6", "--bo", "3", "--include-doubles"],
    ["realize", "two_cusp.sd", "--lambda", "1/6", "--count", "2", "--count", "3", "--json"],
    ["realize", "two_cusp.sd", "--lambda", "1/6", "--count", "two"],
    ["realize", "two_cusp.sd", "--lambda", "1/6", "--bound", "-1"],
    ["realize", "two_cusp.sd", "--lambda", "1/6", "--count", "-2"],
    ["realize", "two_cusp.sd", "--lambda", "-1/2", "--json"],
    ["realize", "two_cusp.sd", "--lambda", "1/6", "--count"],
    ["realize", "two_cusp.sd", "--count", "2"],
    ["zeta"],
    ["zeta", ""],
    ["zeta", "--", "two_cusp.sd"],
    ["zeta", "two_cusp.sd", "--"],
    ["--", "zeta", "two_cusp.sd"],
    ["zeta", "-x.sd"],
    ["zeta", "--", "-x.sd", "--json"],
    ["zeta", "./-x.sd", "--json"],
    ["zeta", "two_cusp.sd", "--bogus"],
    ["zeta", "--bogus", "two_cusp.sd"],
    ["zeta", "two_cusp.sd", "two_cusp.sd"],
    ["zeta", "two_cusp.sd", "-"],
    ["bogus", "two_cusp.sd"],
    ["zet", "two_cusp.sd"],
    ["-h"],
    ["zeta", "-h"],
    ["realize", "--help"],
    ["--json"],
    [],
]


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _same_as_the_top_level_parser(argv):
    """main(argv) gives the exit code, stdout and stderr it gives with
    ``build_parser().parse_args`` as its argv parser, and ``_parse_args``
    the namespace that parser gives."""
    got = _main_output(argv)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_parse_args", build_parser().parse_args)
        assert got == _main_output(argv), argv
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            want = build_parser().parse_args(argv)
    except SystemExit:
        return
    assert vars(cli._parse_args(argv)) == vars(want), argv


@pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_cli_dispatch_matches_the_top_level_parser(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-x.sd").write_text((CORPUS / "two_cusp.sd").read_text())
    argv = [str(CORPUS / a) if a.startswith("two_cusp.") else a for a in argv]
    _same_as_the_top_level_parser(argv)


# the argv vocabulary: command names, every option string and each of its
# prefixes, bare and =-joined to a value, small ints, p/q values, an edge of
# two_cusp.sd and files of the corpus that every command answers quickly
_OPTION_STRINGS = sorted(
    {"-h", "--help", "--json"}
    | {flag for command in cli._COMMANDS.values() for flag in command.options}
)
_ARGV_INTS = st.integers(-3, 4).map(str)
_ARGV_FRACTIONS = st.tuples(st.integers(-2, 7), st.integers(0, 8)).map("{0[0]}/{0[1]}".format)
_ARGV_FILES = st.sampled_from(
    ["two_cusp.sd", "two_cusp.pg", "intro_star_2_3.sd", "rodrigues.pg"]
).map(lambda name: str(CORPUS / name))
_ARGV_VALUES = _ARGV_INTS | _ARGV_FRACTIONS | st.sampled_from(["", "x", "v1:v0"]) | _ARGV_FILES
_ARGV_OPTIONS = st.sampled_from(
    [flag[:k] for flag in _OPTION_STRINGS for k in range(1, len(flag) + 1)]
)
_ARGV_WORDS = (
    st.sampled_from(sorted(cli._COMMANDS) + ["bogus"])
    | _ARGV_OPTIONS
    | _ARGV_VALUES
    | st.tuples(_ARGV_OPTIONS, _ARGV_VALUES).map("=".join)
)


@st.composite
def _argvs(draw):
    """Mostly a command name and a shuffle of its file, options with values
    and another word or two: about half are well formed, and most others a
    word away from it."""
    def likely(strategy, p=3):
        # strategy in p of p + 1 draws, any vocabulary word otherwise
        return draw(strategy if draw(st.integers(0, p)) else _ARGV_WORDS)

    name = likely(st.sampled_from(sorted(cli._COMMANDS)))
    command = cli._COMMANDS.get(name)
    parts = [[draw(_ARGV_WORDS)] for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2])))]
    if command is not None:
        parts += [[likely(_ARGV_FILES, 7)] for _ in command.positionals]
        for flag, opt in [("--json", None), *command.options.items()]:
            if draw(st.integers(0, 3 if opt and opt.required else 1)) == 0:
                continue
            if opt is None or opt.convert is None:
                parts.append([flag])
            else:
                value = _ARGV_INTS if opt.convert is int else _ARGV_FRACTIONS | st.just("v1:v0")
                parts.append([flag, likely(value, 7)])
    return [name, *(word for part in draw(st.permutations(parts)) for word in part)]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(argv=_argvs())
def test_cli_argv_reader_matches_the_top_level_parser(argv):
    _same_as_the_top_level_parser(argv)


def test_cli_reads_sys_argv_without_an_argv(capsys, monkeypatch):
    sd = str(CORPUS / "two_cusp.sd")
    monkeypatch.setattr(sys, "argv", ["splicezeta", "--json", "poles", sd])
    assert main() == 0
    a = capsys.readouterr()
    assert main(["poles", sd, "--json"]) == 0
    assert capsys.readouterr() == a


def test_cli_parser_reused_without_leftover_state(capsys):
    sd = str(CORPUS / "two_cusp.sd")
    assert build_parser() is build_parser()
    assert main(["realize", sd, "--lambda", "1/5", "--effective", "--count", "3", "--json"]) == 2
    capsys.readouterr()
    assert main(["zeta", sd]) == 0
    assert capsys.readouterr().out.startswith("two_cusp: Z numerator")
    args = build_parser().parse_args(["realize", sd, "--lambda", "1/6"])
    assert (args.json, args.effective, args.count, args.bound) == (False, False, 1, None)


# a chain -2, -1, -3 with an arrowhead at each end: unimodular, but the splice
# route refuses chains with decorations at several vertices
CHAIN_TWO_ENDS = (
    "plumbing-graph chain\nvertex e1 self=-2\nvertex e2 self=-1\nvertex e3 self=-3\n"
    "edge e1 e2\nedge e2 e3\nfarrow a at e1 N=1\nfarrow b at e3 N=1\n"
)


def test_cli_monodromy_on_graph_the_splice_route_refuses(tmp_path, capsys):
    chain = tmp_path / "chain.pg"
    chain.write_text(CHAIN_TWO_ENDS)
    assert main(["alexander", str(chain), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"name": "chain", "delta1": {"factors": [[1, 1]], "polynomial": ["-1", "1"]}}
    assert main(["eig", str(chain), "--lambda", "1/2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["in_eig"] is False
    assert main(["eig", str(chain), "--lambda", "0/1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["in_eig"] is True


def test_cli_semigroup_refuses_huge_generators(tmp_path, capsys):
    # valid diagram whose semigroup check at v needs 10**28 + 1 in <10**7, 3*10**7 + 1>
    huge = tmp_path / "huge.sd"
    huge.write_text(
        "splice-diagram huge\nvertex v\nvertex a1\nvertex a2\nvertex w\nvertex c1\nvertex c2\n"
        "edge v a1 2 1\nedge v a2 3 1\nedge v w 10000000000000000000000000001 1\n"
        "edge w c1 10000000 1\nedge w c2 30000001 1\nfarrow a at v w=1 N=1\n"
    )
    assert main(["validate", str(huge)]) == 0
    capsys.readouterr()
    assert main(["semigroup", str(huge), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "semigroup generator 10000000 exceeds the limit" in captured.err


def test_cli_alexander_refuses_huge_expansion_promptly(tmp_path, capsys):
    # valid star whose Alexander polynomial has degree about 10**28
    huge = tmp_path / "huge.sd"
    huge.write_text(
        "splice-diagram huge\nvertex v\nvertex b1\nvertex b2\n"
        "edge v b1 10000000000000000000000000001 1\nedge v b2 2 1\nfarrow a at v w=1 N=1\n"
    )
    start = time.perf_counter()
    assert main(["alexander", str(huge), "--json"]) == 0
    assert time.perf_counter() - start < 2.0
    payload = json.loads(capsys.readouterr().out)
    lam = payload["alexander"]
    assert lam["polynomial"] is None
    assert "exceeds the limit" in lam["note"]
    assert [10000000000000000000000000001, -1] in lam["factors"]
    # Delta_0 = t - 1 is small enough to print
    assert payload["delta0"]["polynomial"] == ["-1", "1"]


# every command that reads a file, with the options it requires
_FILE_COMMANDS = [
    ("validate",),
    ("convert",),
    ("zeta",),
    ("poles",),
    ("alexander",),
    ("semigroup",),
    ("allowed",),
    ("goal1",),
    ("stars",),
    ("eig", "--lambda", "1/2"),
    ("splice", "--edge", "v:b1"),
    ("realize", "--lambda", "0/1"),
]


def test_cli_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    # an undecodable byte raised UnicodeDecodeError out of main
    path = tmp_path / "latin.sd"
    path.write_bytes(b"splice x\n\xff\xfe\n")
    for command, *flags in _FILE_COMMANDS:
        for extra in ([], ["--json"]):
            assert main([command, str(path), *flags, *extra]) == 1, command
            assert capsys.readouterr() == (
                "",
                f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff"
                " in position 9: invalid start byte\n",
            )


def test_cli_parses_what_text_mode_reads(tmp_path, monkeypatch):
    # the bytes reach parse_diagram as the text open(path, encoding="utf-8")
    # reads: CR LF and lone CR line ends become LF, a BOM stays
    text = (CORPUS / "two_cusp.sd").read_text()
    want = _main_output(["zeta", str(CORPUS / "two_cusp.sd"), "--json"])
    seen = []
    monkeypatch.setattr(cli, "parse_diagram", lambda t: seen.append(t) or parse_diagram(t))
    for name, data in (
        ("crlf", text.replace("\n", "\r\n")),
        ("cr", text.replace("\n", "\r")),
        ("mixed", text.replace("\n", "\r\n", 3).replace("\n", "\r", 2) + "\r"),
    ):
        path = tmp_path / f"{name}.sd"
        path.write_bytes(data.encode())
        assert _main_output(["zeta", str(path), "--json"]) == want
        with open(path, encoding="utf-8") as fh:
            assert seen.pop() == fh.read()
    path = tmp_path / "bom.sd"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    code, out, err = _main_output(["zeta", str(path)])
    assert (code, out) == (1, "") and err.startswith(f"error: {path}: line 1:")
    assert seen == ["\ufeff" + text]


# a valid star whose weights each have fewer digits than Python's default
# limit for integer string conversion (4300), while N at its node and the
# zeta function's coefficients have more
BIG_STAR = (
    "splice-diagram big\nvertex v\nvertex b1\nvertex b2\nvertex b3\n"
    f"edge v b1 {3**6000} 1\nedge v b2 {2**9000} 1\nedge v b3 {5**4000} 1\n"
    "farrow f at v w=1 N=1\n"
)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on integer string conversion",
)
def test_cli_results_past_the_integer_string_limit_exit_2(tmp_path, capsys):
    # zeta, poles, goal1 and alexander ended in a ValueError traceback, and
    # alexander's note raised it while spelling out its degree
    path = tmp_path / "big.sd"
    path.write_text(BIG_STAR)
    limit = (
        f"error: a result has an integer of more than {sys.get_int_max_str_digits()} decimal"
        " digits, Python's limit for integer string conversion\n"
    )
    other = {
        "convert": "error: convert expects a plumbing graph\n",
        "splice": "error: edge ('b1', 'v') is not special\n",
    }
    for command, *flags in _FILE_COMMANDS:
        for extra in ([], ["--json"]):
            code = main([command, str(path), *flags, *extra])
            out, err = capsys.readouterr()
            if command in ("validate", "semigroup", "allowed", "stars", "eig"):
                assert (code, err) == (0, ""), command
            else:
                assert (code, out, err) == (2, "", other.get(command, limit)), command
    with pytest.raises(CycloLimitError, match="^expansion of degree up to a 9510-bit integer"):
        CycloProduct({3**6000: 1}).coefficients()


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on integer string conversion",
)
def test_cli_integer_token_past_the_string_limit_exits_1(tmp_path, monkeypatch, capsys):
    # the token was echoed whole, in a 5074-byte message
    monkeypatch.chdir(tmp_path)
    Path("long.sd").write_text(f"splice-diagram long\nvertex v\nvertex b\nedge v b {'7' * 5000} 1\n")
    code = main(["validate", "long.sd"])
    out, err = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (1, "")
    assert err == f"error: long.sd: line 4: weight has 5000 digits, past Python's limit of {limit}\n"
    assert len(err.encode()) < 200


def test_cli_realize_budget_exhausting_golden(capsys):
    # the whole stdout of a query that spends the full 400k search budget
    sd = str(CORPUS / "two_cusp_mult7.sd")
    assert main(["realize", sd, "--lambda", "37/42", "--effective", "--json"]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "realize_two_cusp_mult7_37_42_effective.json"
    assert capsys.readouterr().out == golden.read_text()


# the text output of three realize calls, as whole stdout: two realized
# queries (one with a double, one with --count 2) and an unrealizable one
# that prints its congruences and their reductions
REALIZE_TEXT_GOLDENS = {
    "realize_two_cusp_1_6_effective_count2.txt":
        ["two_cusp.sd", "--lambda", "1/6", "--effective", "--count", "2"],
    "realize_two_cusp_5_6_include_doubles.txt":
        ["two_cusp.sd", "--lambda", "5/6", "--include-doubles"],
    "realize_two_cusp_mult7_37_42.txt": ["two_cusp_mult7.sd", "--lambda", "37/42"],
}


@pytest.mark.parametrize("golden", sorted(REALIZE_TEXT_GOLDENS))
def test_cli_realize_text_golden(golden, capsys):
    file, *options = REALIZE_TEXT_GOLDENS[golden]
    assert main(["realize", str(CORPUS / file), *options]) == 0
    want = (Path(__file__).resolve().parent / "golden" / golden).read_text()
    assert capsys.readouterr().out == want


def _eig(d):
    """Every lam in Eig(d): roots of Delta_1 and the arrowhead root groups."""
    orders = set(delta1(d).root_orders())
    for m in d.f_divisor().values():
        orders.update(q for q in range(1, m + 1) if m % q == 0)
    lams = [UnityRoot(p, q) for q in sorted(orders) for p in range(q) if gcd(p, q) == 1]
    return [lam for lam in lams if eig_contains(d, lam)]


# a star whose name and ids hold a non-ASCII letter, a quote and a
# backslash; its boundary vertices are the searched slots
ESCAPED_STAR = (
    'splice-diagram é"\\sd\nvertex é"\\\nvertex b\\\nvertex c"\n'
    'edge é"\\ b\\ 2 1\nedge é"\\ c" 3 1\nfarrow a" at é"\\ w=1 N=1\n'
)


def test_realize_json_is_json_of_the_payload():
    # _realize_json writes _json of the payload dict, byte for byte: every
    # lambda in Eig of every corpus diagram, plain, with --effective and
    # with --include-doubles, and with --count 3 (the 12 two_cusp_mult7
    # queries that end unrealizable at window 12 among them); an
    # arrowhead-only lambda, whose outcome holds no congruence; and ids with
    # a non-ASCII letter, a quote and a backslash as slot keys
    cases = []
    for path in sorted(CORPUS.iterdir()):
        kind, name, obj = parse_diagram(path.read_text())
        try:
            d = obj if kind == "splice" else plumbing_to_splice(obj)
            lams = _eig(d)
        except DiagramError:
            continue
        cases += [(name, d, lam) for lam in lams]
    _, name, star = parse_diagram(ESCAPED_STAR)
    assert name == 'é"\\sd' and {'b\\', 'c"'} <= set(star.boundary_vertices())
    cases += [(name, star, lam) for lam in _eig(star)]
    options = [
        {}, {"effective": True}, {"include_doubles": True}, {"count": 3},
        {"count": 3, "effective": True, "include_doubles": True},
    ]
    exhausted = arrow_only = escaped = 0
    for name, d, lam in cases:
        for kw in options:
            out = realize_eigenvalue(d, lam, **kw)
            text = cli._realize_json(name, lam, out)
            assert text == _json(realize_payload(name, lam, out)), (name, lam, kw)
            assert text.isascii()
            exhausted += out.explored["window"] == 12 and not out.realized
            arrow_only += out.realized and not out.congruences
            if d is star:
                keys = {k for c in out.congruences for k in c.coefficients}
                keys.update(k for r in out.found for k in r.w)
                escaped += {'b\\', 'c"'} <= keys
    assert exhausted >= 12
    assert arrow_only > 0
    assert escaped > 0


# ---------------------------------------------------------------------------
# fuzzed boundary: mutated corpus texts through the command surface

_FUZZ_VALUES = ["0", "-1", str(10**30 + 57), "x", "1.5"]
_FUZZ_COMMANDS = [
    [name]
    for name in (
        "validate", "convert", "zeta", "poles", "alexander", "semigroup", "allowed",
        "goal1", "stars",
    )
] + [["eig", "--lambda", "1/6"], ["realize", "--lambda", "1/6", "--bound", "3"]]


@st.composite
def _mutated_corpus_text(draw):
    """A corpus file with one to three of its lines deleted, duplicated or
    given a number that is 0, -1, huge or not an integer."""
    path = draw(st.sampled_from(sorted(CORPUS.iterdir())))
    lines = path.read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "token"]))
        tokens = lines[k].split()
        numbers = [j for j, t in enumerate(tokens) if t.rpartition("=")[2].lstrip("-").isdigit()]
        if op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif numbers:
            j = draw(st.sampled_from(numbers))
            key, eq, _ = tokens[j].rpartition("=")
            tokens[j] = key + eq + draw(st.sampled_from(_FUZZ_VALUES))
            lines[k] = " ".join(tokens)
    return path.suffix, "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_mutated_corpus_text())
def test_cli_fuzzed_corpus_exits_cleanly(tmp_path_factory, case):
    # every command ends in exit 0, 1 or 2, never a traceback, and a nonzero
    # exit says why on stderr
    suffix, text = case
    path = tmp_path_factory.mktemp("fuzz") / ("mutated" + suffix)
    path.write_text(text)
    for command in _FUZZ_COMMANDS:
        argv = [command[0], str(path), *command[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, text)
        assert code == 0 or err.getvalue(), (argv, text)


# ---------------------------------------------------------------------------
# the --json writer against json.dumps(indent=2, sort_keys=True)

_JSON_TEXT = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7f \té\u2028\ud800\U0001f600ab')
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**40)
    | st.integers(max_value=-(10**40))
    | _JSON_TEXT,
    lambda kids: st.lists(kids)
    | st.lists(kids).map(tuple)
    # keys from the writer's table of field-name prefixes, and any other
    | st.dictionaries(_JSON_TEXT | st.sampled_from(sorted(cli._KEY_PREFIXES)), kids),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(obj=_JSON_VALUES)
def test_json_writer_matches_json_dumps(obj):
    assert _json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj", [0.5, Fraction(1, 2), {1: "a"}, {"a": [1, {None: 2}]}, ["x", (Fraction(3),)]]
)
def test_json_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        _json(obj)


class _Str(str):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize(
    "obj",
    [
        [True, False, None, 0, -7, "x", _Str("s\u00e9"), _Int(5), _Int(-12)],
        {"a": True, "b": False, "c": None, "d": _Str("\x00"), "e": _Int(3), "f": 10**40, "g": ""},
        (None, [True, _Int(0)], {"k": (_Str(""), None)}),
    ],
)
def test_json_writer_scalar_children_match_json_dumps(obj):
    # plain str and int children are written in place; the rest recurse
    assert _json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_cli_json_output_is_json_dumps_of_the_payload():
    for path in sorted(CORPUS.iterdir()):
        for command in ("zeta", "poles", "allowed", "goal1", "alexander"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, str(path), "--json"])
            if code == 0:
                text = out.getvalue()
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_zeta_payload_prints_the_reduced_function(monkeypatch):
    # the payload's numerator and denominator, printed from integers without
    # building a RatFunc, are format_fraction over the coefficients of the
    # term-by-term RatFunc sum, and the text written from the terms is _json
    # of the payload's dict form:
    # the corpus, ladder-style graphs by both routes, a graph with
    # det(-I) = 5 (rational N) and Z = 0
    zs = []
    for path in sorted(CORPUS.iterdir()):
        kind, name, obj = parse_diagram(path.read_text())
        with contextlib.suppress(DiagramError):  # e8 carries no F
            zs.append((name, zeta_plumbing(obj) if kind == "plumbing" else zeta_splice(obj)))
    assert len(zs) == 12
    rng = random.Random(22)
    for k in range(200):
        g = random_plumbing(rng, blowups=rng.choice([4, 7, 10, 13, 16]), arrows=2,
                            warrow_chance=1.0 if k % 2 else 0.0)
        zs.append((f"ladder{k}", zeta_plumbing(g)))
        with contextlib.suppress(DiagramError):  # a chain decorated at two vertices
            zs.append((f"ladder{k}.sd", zeta_splice(plumbing_to_splice(g))))
    rational = PlumbingGraph(
        [PVertex("a", -2), PVertex("b", -3)], [("a", "b")], [Farrow(id="f", at="a", weight=1, mult=1)]
    )
    zs.append(("rational", zeta_plumbing(rational)))
    zs.append(("zero", ZetaResult.from_terms((), ())))
    fractional = 0
    arrow_counts = set()

    def refuse(*args):
        raise AssertionError("the zeta payload built a Poly or a RatFunc")

    monkeypatch.setattr(exact.Poly, "__init__", refuse)
    monkeypatch.setattr(exact.RatFunc, "__init__", refuse)
    texts = [cli._zeta_json(name, z) for name, z in zs]
    monkeypatch.undo()
    for (name, z), text in zip(zs, texts):
        assert text == _json({"name": name, "zeta": zeta_payload(z)})
        payload = json.loads(text)["zeta"]
        f = func(z)
        assert payload["numerator"] == [format_fraction(c) for c in f.num.coeffs]
        assert payload["denominator"] == [format_fraction(c) for c in f.den.coeffs]
        fractional += any("/" in c for c in payload["numerator"] + payload["denominator"])
        arrow_counts.update(len(t.arrows) for t in z.node_terms)
    assert fractional >= 100
    assert {0, 1, 2} <= arrow_counts
    assert json.loads(cli._zeta_json(*zs[-2]))["zeta"]["node_terms"][0]["N"] == "3/5"
    zero = json.loads(cli._zeta_json(*zs[-1]))["zeta"]
    assert (zero["numerator"], zero["denominator"]) == ([], ["1"])
    assert zero["node_terms"] == zero["edge_terms"] == []


def test_zeta_json_escapes_the_name_and_ids():
    # the name and the ids of the node and edge terms are JSON strings: a
    # non-ASCII letter, a quote and a backslash, by both routes
    graph = PlumbingGraph(
        [PVertex('é"\\', -1), PVertex("b", -2), PVertex("c", -3)],
        [('é"\\', "b"), ('é"\\', "c")],
        [Farrow(id="f", at='é"\\', weight=1, mult=1)],
    )
    for z in (zeta_plumbing(graph), zeta_splice(plumbing_to_splice(graph))):
        text = cli._zeta_json('ä"\\n', z)
        assert text == _json({"name": 'ä"\\n', "zeta": zeta_payload(z)})
        assert text.isascii()
        payload = json.loads(text)
        assert payload["name"] == 'ä"\\n'
        ids = {t["vertex"] for t in payload["zeta"]["node_terms"]}
        ids.update(*(t["vertices"] for t in payload["zeta"]["edge_terms"]))
        assert 'é"\\' in ids


TWO_CUSP_PG = (CORPUS / "two_cusp.pg").read_text()
# plumbing graphs that validate_plumbing rejects: a dashed arrow at a vertex
# that is no boundary component, an arrowhead with (N, i) = (0, 0), and a
# definite triangle of (-3)-curves (a cycle)
INVALID_PLUMBING = {
    "warrow": (TWO_CUSP_PG + "warrow w1 at e3 i=2\n", "[warrow] w1"),
    "arrow-data": (
        TWO_CUSP_PG.replace("farrow a0 at e3 N=1", "farrow a0 at e3 N=0")
        + "warrow wa doubles a0 i=0\n",
        "[arrow-data] a0: (N, i) = (0, 0)",
    ),
    "cycle": (
        "plumbing-graph triangle\nvertex a self=-3\nvertex b self=-3\nvertex c self=-3\n"
        "edge a b\nedge b c\nedge a c\n",
        "[structure] -: graph has a cycle",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_PLUMBING))
def test_cli_every_command_refuses_invalid_plumbing_graph(tmp_path, capsys, case):
    # zeta, poles, alexander and eig answered on the dashed-arrow case and
    # convert on the arrow-data case, with exit 0
    text, violation = INVALID_PLUMBING[case]
    path = tmp_path / f"{case}.pg"
    path.write_text(text)
    assert main(["validate", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert any(violation in f"[{v['kind']}] {v['where']}: {v['detail']}" for v in payload["violations"])
    for command, *flags in (
        ("convert",),
        ("zeta",),
        ("poles",),
        ("alexander",),
        ("eig", "--lambda", "1/4"),
        ("semigroup",),
        ("allowed",),
        ("goal1",),
        ("stars",),
        ("splice", "--edge", "e2:e4"),
        ("realize", "--lambda", "1/4"),
    ):
        assert main([command, str(path), *flags, "--json"]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert "invalid plumbing graph" in captured.err and violation in captured.err, command
