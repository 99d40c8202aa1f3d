"""Command-line interface.

Exit codes: 0 = computed (verdicts live in the payload), 1 = usage or parse
error, or a file that cannot be read (an OS error, or bytes that are not
UTF-8: the message names the offset), 2 = precondition violation (bad graph
kind, invalid decoration, ...) or a result holding an integer too long for
Python's integer string conversion limit (``sys.get_int_max_str_digits()``).

Argv dispatch: every command is declared once, in ``_COMMANDS``, and
``build_parser()`` builds argparse from that table.  A well-formed argv
(argv[0] a command, its options spelled in full, each value present, not
starting with '-' and of its type, the positionals and the required options
all given) is read straight from the table; any other argv (none, an option
before the command, an abbreviation, ``=``-joined values, ``--``, negative
values, a leftover argument, -h) goes through the top-level parser, so usage
and error text are those of ``build_parser()``.  ``--json`` may stand before
or after the command.

Input files are read as bytes.  Parsed inputs are kept per process, keyed by
those bytes (never by the path, as a file may be rewritten between
commands): a kept input is neither decoded nor parsed again, and the
commands on one file share one diagram object, and with it everything kept
in its memo.

``--json`` output is ``json.dumps(payload, indent=2, sort_keys=True)``, byte
for byte.  ``zeta`` and ``realize`` write their own payloads, ``zeta`` from
its terms (``_zeta_json``) and ``realize`` from its outcome
(``_realize_json``), with no payload dict built; every other command's
payload is written by ``_json``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import NamedTuple

from .allowed import check_goal1, is_allowed, semigroup_condition
from .diagrams import (
    DiagramError,
    SpliceDiagram,
    plumbing_to_splice,
    validate,
    validate_plumbing,
)
from .exact import (
    CycloLimitError,
    CycloProduct,
    NegativeMultiplicityError,
    UnityRoot,
    format_fraction,
)
from .io import ParseError, parse_diagram, print_splice
from .monodromy import alexander, delta0, delta1, eig_contains
from .realize import NotAnEigenvalueError, RealizeOutcome, realize_eigenvalue
from .splicing import star_decomposition, verify_splice_zeta
from .zeta import ZetaResult, reduced_coefficients, zeta_plumbing, zeta_splice


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# how many parsed inputs a process keeps, least recently used first out
PARSE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse(data: bytes):
    """``parse_diagram`` of a file's bytes, kept for the next command on the
    same bytes.  They are decoded here, so a kept input is not decoded
    again, into the text that ``open(path, encoding="utf-8")`` reads: strict
    UTF-8 and universal newlines.  Bytes that fail to decode or to parse
    raise, and are tried again next time."""
    return parse_diagram(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


def _load(path: str):
    try:
        # unbuffered: one read of the whole file, no buffer object
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError(1, f"cannot read {path}: {exc}") from None
    try:
        return _parse(data)
    except UnicodeDecodeError as exc:
        raise CliError(1, f"cannot read {path}: {exc}") from None
    except ParseError as exc:
        raise CliError(1, f"{path}: {exc}") from None


def _report(kind: str, obj):
    return validate(obj) if kind == "splice" else validate_plumbing(obj)


def _load_valid(path: str):
    """_load, then refuse an input that its validator rejects: ``validate``
    for a splice diagram, ``validate_plumbing`` for a plumbing graph, each
    with the W it stores.  Every command but ``validate`` loads through
    here, so none answers on an input that ``validate`` would list as
    invalid."""
    kind, name, obj = _load(path)
    rep = _report(kind, obj)
    if not rep.ok:
        what = "splice diagram" if kind == "splice" else "plumbing graph"
        raise CliError(2, f"{name}: invalid {what}\n{rep}")
    return kind, name, obj


def _load_splice(path: str) -> tuple[str, SpliceDiagram]:
    """_load_valid, converting a plumbing graph to its splice diagram."""
    kind, name, obj = _load_valid(path)
    if kind == "splice":
        return name, obj
    try:
        return name, plumbing_to_splice(obj)
    except DiagramError as exc:
        raise CliError(2, f"cannot convert plumbing graph: {exc}") from None


def _ratio(n: int, d: int) -> str:
    """``format_fraction(Fraction(n, d))`` for ints with d > 0."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _zeta_coefficients(z: ZetaResult) -> tuple[list[str], list[str]]:
    """The reduced num/den's coefficients, ascending in s, as ``format_fraction``
    strings, printed from ``reduced_coefficients``' integers: the reduced
    rational function C + sum of the principal parts, with a monic
    denominator (see the ``zeta`` module docstring)."""
    num, num_den, den, den_den = reduced_coefficients(z.const, z.parts)
    return [_ratio(x, num_den) for x in num], [_ratio(x, den_den) for x in den]


# The zeta payload's text, in the templates _json writes at each depth of
# {"name": ..., "zeta": {...}}: every key in sorted order, a node term or
# edge term at zeta[...][k], an arrow part at zeta["node_terms"][k]["arrows"][j].
# Entries are format_fraction strings (digits, '-' and '/', so they need no
# escaping) and ids are encoded with encode_basestring_ascii.
_ZETA = (
    '{\n  "name": %s,\n  "zeta": {\n    "denominator": %s,\n    "edge_terms": %s,'
    '\n    "node_terms": %s,\n    "numerator": %s\n  }\n}'
)
_NODE = (
    '{\n        "N": "%s",\n        "arrows": %s,\n        "const": "%s",'
    '\n        "nu": "%s",\n        "vertex": %s\n      }'
)
_ARROW = '{\n            "N": "%s",\n            "i": "%s",\n            "weight": %d\n          }'
_EDGE = (
    '{\n        "factors": [\n          [\n            "%s",\n            "%s"\n          ],'
    '\n          [\n            "%s",\n            "%s"\n          ]\n        ],'
    '\n        "q": "%s",\n        "vertices": [\n          %s,\n          %s\n        ]\n      }'
)


def _json_list(items: list[str], indent: str = "\n    ") -> str:
    """A list from its items' text, its closing bracket at ``indent`` (by
    default at zeta[...] of the zeta payload)."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _zeta_json(name: str, z: ZetaResult) -> str:
    """``_json({"name": name, "zeta": payload})`` of the zeta payload, byte
    for byte, written from the terms without building the payload: the
    numerator and denominator (``_zeta_coefficients``), each node term
    (vertex, nu, N, const and its arrow parts: weight, i, N) and each edge
    term (vertices, q and the factors [[nu1, N1], [nu2, N2]])."""
    ff = format_fraction
    enc = encode_basestring_ascii
    nodes = []
    for t in z.node_terms:
        arrows = "[]"
        if t.arrows:
            arrows = (
                "[\n          "
                + ",\n          ".join([_ARROW % (ff(a.n), ff(a.i), a.weight) for a in t.arrows])
                + "\n        ]"
            )
        nodes.append(_NODE % (ff(t.n), arrows, ff(t.const), ff(t.nu), enc(t.vertex)))
    edges = [
        _EDGE % (ff(t.nu1), ff(t.n1), ff(t.nu2), ff(t.n2), ff(t.q), *map(enc, t.vertices))
        for t in z.edge_terms
    ]
    num, den = _zeta_coefficients(z)
    return _ZETA % (
        enc(name),
        _json_list(['"' + x + '"' for x in den]),
        _json_list(edges),
        _json_list(nodes),
        _json_list(['"' + x + '"' for x in num]),
    )


# The realize payload's text, in the templates _json writes at each depth of
# {"name": ..., "lambda": ..., "status": ..., "found": [...], ...}: every key
# in sorted order, a found entry or a congruence at payload[...][k], a
# reduction at payload["congruences"][k]["reductions"][j].  s0 and leading
# are format_fraction strings; ids and messages are encoded with
# encode_basestring_ascii.
_REALIZE = (
    '{\n  "congruences": %s,\n  "diagnostics": %s,\n  "explored": %s,\n  "found": %s,'
    '\n  "lambda": %s,\n  "name": %s,\n  "status": %s\n}'
)
_FOUND = (
    '{\n      "leading": "%s",\n      "order": %d,\n      "s0": "%s",\n      "source": %s,'
    '\n      "values": %s,\n      "w": %s\n    }'
)
_CONGRUENCE = (
    '{\n      "base": %d,\n      "coefficients": %s,\n      "modulus": %d,\n      "node": %s,'
    '\n      "reductions": %s,\n      "target": %d\n    }'
)
_REDUCTION = (
    '{\n          "coefficients": %s,\n          "modulus": %d,\n          "target": %d\n        }'
)


def _int_map(m: dict[str, int], indent: str, prefixes: dict[str, str]) -> str:
    """A slot -> int map in sorted key order, its closing brace at ``indent``.
    ``prefixes`` maps each key to its encoded '"key": ', filled here with the
    keys it lacks, so the maps of one payload encode each key once."""
    if not m:
        return "{}"
    inner = indent + "  "
    items = []
    for k, v in sorted(m.items()):
        prefix = prefixes.get(k)
        if prefix is None:
            prefix = prefixes[k] = encode_basestring_ascii(k) + ": "
        items.append(prefix + "%d" % v)
    return "{" + inner + ("," + inner).join(items) + indent + "}"


def _realize_json(name: str, lam: UnityRoot, out: RealizeOutcome) -> str:
    """``_json`` of the realize payload, byte for byte, written from the
    outcome without building the payload: name, lambda, status, each found
    divisor (w, values, s0, order, leading, source), the diagnostics, each
    node congruence (node, modulus, base, target, coefficients and the
    reductions: modulus, coefficients, target) and the explored window."""
    ff = format_fraction
    enc = encode_basestring_ascii
    keys: dict[str, str] = {}  # every slot id of the payload, encoded once
    found = [
        _FOUND % (
            ff(r.leading), r.order, ff(r.s0), enc(r.source),
            _int_map(r.values(), "\n      ", keys), _int_map(r.w, "\n      ", keys),
        )
        for r in out.found
    ]
    congruences = [
        _CONGRUENCE % (
            c.base, _int_map(c.coefficients, "\n      ", keys), c.modulus, enc(c.node),
            _json_list(
                [
                    _REDUCTION % (_int_map(co, "\n          ", keys), m, t)
                    for m, co, t in c.reductions
                ],
                "\n      ",
            ),
            c.target,
        )
        for c in out.congruences
    ]
    return _REALIZE % (
        _json_list(congruences, "\n  "),
        _json_list([enc(x) for x in out.diagnostics], "\n  "),
        _int_map(out.explored, "\n  ", keys),
        _json_list(found, "\n  "),
        enc(str(lam)),
        enc(name),
        enc(out.status),
    )


def _cyclo_payload(c: CycloProduct) -> dict:
    out = {"factors": [[n, e] for n, e in c.factors.items()]}
    try:
        out["polynomial"] = [str(x) for x in c.coefficients()]
    except (NegativeMultiplicityError, CycloLimitError) as exc:
        out["polynomial"] = None
        out["note"] = str(exc)
    return out


# the '"name": ' prefix of every field name a payload writes, encoded once;
# any other key (a vertex or slot id) is encoded where it is written
_KEY_PREFIXES = {
    k: encode_basestring_ascii(k) + ": "
    for k in """M M_prime alexander allowed checked checks d degenerate delta0 delta1 detail edge
    eigenvalue factors failures generators holds i i_prime identity_holds in_eig kind lambda
    leading left legs name node nonzero note ok order poles polynomial r reason right s0 splice
    stars valid violations weight where""".split()
}


def _json(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for str,
    int, bool, None, lists, tuples and dicts with str keys; anything else
    (a float, a Fraction, a non-str key) raises TypeError."""
    # plain dicts, lists and tuples are told by their exact type, and their
    # plain str and int children are written in place, without a call per
    # scalar; bools, None and subclasses take the isinstance tests below
    t = type(obj)
    inner = newline + "  "
    if t is dict:
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            v = obj[k]
            tv = type(v)
            # encode_basestring_ascii raises TypeError on a non-str key
            items.append(
                (_KEY_PREFIXES.get(k) or encode_basestring_ascii(k) + ": ")
                + (
                    encode_basestring_ascii(v) if tv is str
                    else repr(v) if tv is int
                    else _json(v, inner)
                )
            )
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        items = [
            encode_basestring_ascii(v) if type(v) is str
            else repr(v) if type(v) is int
            else _json(v, inner)
            for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        return _json(dict(obj), newline)
    if isinstance(obj, (list, tuple)):
        return _json(list(obj), newline)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def _emit(args, payload: dict, text: str):
    if args.json:
        # json.dumps with indent runs only the pure-Python encoder; _json
        # gives the same bytes with the C string encoder
        sys.stdout.write(_json(payload) + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_lambda(text: str) -> UnityRoot:
    try:
        return UnityRoot.parse(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(1, f"bad --lambda value {text!r}; expected p/q") from None


def cmd_validate(args):
    kind, name, obj = _load(args.file)
    rep = _report(kind, obj)
    payload = {
        "name": name,
        "kind": kind,
        "valid": rep.ok,
        "violations": [
            {"kind": v.kind, "where": v.where, "detail": v.detail} for v in rep.violations
        ],
    }
    _emit(args, payload, f"{name}: " + ("valid" if rep.ok else str(rep)))


def cmd_convert(args):
    kind, name, obj = _load_valid(args.file)
    if kind != "plumbing":
        raise CliError(2, "convert expects a plumbing graph")
    text = print_splice(plumbing_to_splice(obj), name)
    payload = {"name": name, "splice": text}
    _emit(args, payload, text)


def _zeta_of(args) -> tuple[str, ZetaResult]:
    kind, name, obj = _load_valid(args.file)
    return name, zeta_plumbing(obj) if kind == "plumbing" else zeta_splice(obj)


def cmd_zeta(args):
    name, z = _zeta_of(args)
    if args.json:
        sys.stdout.write(_zeta_json(name, z) + "\n")
        return
    num, den = _zeta_coefficients(z)
    num_text = " ".join(num) or "0"
    den_text = " ".join(den)
    sys.stdout.write(f"{name}: Z numerator [{num_text}] denominator [{den_text}] (ascending in s)\n")


def cmd_poles(args):
    name, z = _zeta_of(args)
    poles = [
        {"s0": format_fraction(p.location), "order": p.order, "leading": format_fraction(p.leading)}
        for p in z.poles()
    ]
    payload = {"name": name, "poles": poles}
    lines = [f"{name}: {len(poles)} pole(s)"] + [
        f"  s0 = {p['s0']}  order {p['order']}  leading {p['leading']}" for p in poles
    ]
    _emit(args, payload, "\n".join(lines))


def _splice_or_graph(kind: str, obj):
    """The splice diagram of the input, or the plumbing graph itself when
    ``plumbing_to_splice`` refuses it (not unimodular, or a chain with
    decorations at several vertices): the monodromy product is computed on
    a graph as well."""
    if kind == "splice":
        return obj
    try:
        return plumbing_to_splice(obj)
    except DiagramError:
        return obj


def cmd_alexander(args):
    kind, name, obj = _load_valid(args.file)
    d = _splice_or_graph(kind, obj)
    if not isinstance(d, SpliceDiagram):
        d1 = delta1(d)
        payload = {"name": name, "delta1": _cyclo_payload(d1)}
        _emit(args, payload, f"{name}: Delta1 = {d1}")
        return
    lam = alexander(d)
    payload = {
        "name": name,
        "alexander": _cyclo_payload(lam),
        "delta0": _cyclo_payload(delta0(d)),
        "delta1": _cyclo_payload(delta1(d)),
    }
    _emit(args, payload, f"{name}: Lambda = {lam}")


def cmd_eig(args):
    kind, name, obj = _load_valid(args.file)
    lam = _parse_lambda(args.lam)
    member = eig_contains(_splice_or_graph(kind, obj), lam)
    payload = {"name": name, "lambda": str(lam), "in_eig": member}
    _emit(args, payload, f"{name}: exp(2 pi i {lam}) in Eig: {member}")


def cmd_semigroup(args):
    name, d = _load_splice(args.file)
    rep = semigroup_condition(d)
    payload = {
        "name": name,
        "holds": rep.ok,
        "checked": rep.checked,
        "failures": [
            {
                "node": x.node,
                "edge": list(x.edge),
                "weight": x.weight,
                "generators": list(x.generators),
            }
            for x in rep.failures
        ],
    }
    lines = [f"{name}: semigroup condition {'holds' if rep.ok else 'fails'}"]
    lines += [f"  {x}" for x in rep.failures]
    _emit(args, payload, "\n".join(lines))


def cmd_allowed(args):
    name, d = _load_splice(args.file)
    verdict = is_allowed(d)
    payload = {
        "name": name,
        "allowed": verdict.allowed,
        "stars": [
            {
                "node": s.node,
                "r": s.r,
                "legs": [{"d": a, "i": b} for a, b in s.legs],
                "ok": s.ok,
                "reason": s.reason,
            }
            for s in verdict.stars
        ],
        "nonzero": verdict.nonzero_detail,
    }
    _emit(args, payload, f"{name}: {verdict}")


def _parse_edge(text: str) -> tuple[str, str]:
    if ":" not in text:
        raise CliError(1, "--edge expects id1:id2")
    a, b = text.split(":", 1)
    return a, b


def cmd_splice(args):
    name, d = _load_splice(args.file)
    a, b = _parse_edge(args.edge)
    chk = verify_splice_zeta(d, (a, b))
    left, right = chk.left, chk.right
    lt = print_splice(left.diagram, f"{name}.left")
    rt = print_splice(right.diagram, f"{name}.right")
    payload = {
        "name": name,
        "edge": [a, b],
        "left": lt,
        "right": rt,
        "M": left.m,
        "i": left.i,
        "M_prime": right.m,
        "i_prime": right.i,
        "identity_holds": chk.ok if chk.degenerate is None else None,
        "degenerate": chk.degenerate,
    }
    text = lt + "\n" + rt + f"\n# M={left.m} i={left.i} M'={right.m} i'={right.i}\n"
    _emit(args, payload, text)


def cmd_stars(args):
    name, d = _load_splice(args.file)
    texts = {v: print_splice(s, f"{name}.{v}") for v, s in star_decomposition(d).items()}
    payload = {"name": name, "stars": texts}
    text = "\n".join(texts[v] for v in sorted(texts))
    _emit(args, payload, text)


def cmd_goal1(args):
    name, d = _load_splice(args.file)
    rep = check_goal1(d)
    payload = {
        "name": name,
        "holds": rep.holds,
        "allowed": rep.allowed,
        "poles": [
            {
                "s0": format_fraction(p.s0),
                "order": p.order,
                "leading": format_fraction(p.leading),
                "eigenvalue": str(p.eigenvalue),
                "in_eig": p.in_eig,
            }
            for p in rep.poles
        ],
    }
    _emit(args, payload, f"{name}:\n{rep}")


def cmd_realize(args):
    if args.count < 1:
        raise CliError(1, "--count must be at least 1")
    if args.bound is not None and args.bound < 0:
        raise CliError(1, "--bound must be nonnegative")
    name, d = _load_splice(args.file)
    lam = _parse_lambda(args.lam)
    try:
        out = realize_eigenvalue(
            d,
            lam,
            count=args.count,
            effective=args.effective,
            bound=args.bound,
            include_doubles=args.include_doubles,
        )
    except NotAnEigenvalueError as exc:
        raise CliError(2, str(exc)) from None
    if args.json:
        sys.stdout.write(_realize_json(name, lam, out) + "\n")
        return
    # the text leaves out what --json also prints: the explored window, W
    # (it prints W + 1) and the leading coefficients; a result holding one
    # past the integer string limit exits 2 all the same
    for x in (*out.explored.values(), *(y for r in out.found for y in (r.leading, *r.w.values()))):
        str(x)
    if out.realized:
        doubles = {x.id for x in d.farrows}
        lines = [f"{name}: realized {lam}"]
        for r in out.found:
            lines.append(f"  s0 = {format_fraction(r.s0)} (order {r.order}, from {r.source})")
            for slot, value in r.values().items():
                kind2 = "doubles" if slot in doubles else "at"
                lines.append(f"  warrow w_{slot} {kind2} {slot} i={value}")
    else:
        lines = [f"{name}: {out.status} for {lam}"]
        lines += [f"  {x}" for x in out.diagnostics]
        for c in out.congruences:
            lines.append("  " + c.describe().replace("\n", "\n  "))
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_selfcheck(args):
    from .selfcheck import run_selfcheck  # other commands never load the check table

    if args.samples < 1:
        raise CliError(1, "--samples must be at least 1")
    lines = run_selfcheck(args.samples)
    ok = all(line.ok for line in lines)
    payload = {"ok": ok, "checks": [line._asdict() for line in lines]}
    text = "\n".join(map(str, lines)) + ("\nall checks passed" if ok else "\nFAILURES PRESENT")
    _emit(args, payload, text)
    if not ok:
        raise CliError(2, "selfcheck failed")


class _Option(NamedTuple):
    """One option of a command: a flag (``store_true``) when ``convert`` is
    None, else an option taking one value, converted as argparse's ``type``."""

    dest: str
    convert: Callable[[str], object] | None = None
    default: object = None
    required: bool = False
    help: str | None = None


class _Command(NamedTuple):
    fn: Callable
    help: str
    positionals: tuple[str, ...] = ("file",)
    options: dict[str, _Option] = {}


_LAMBDA = _Option("lam", str, required=True, help="root of unity p/q")

# every command, in the order ``-h`` lists them; each also takes --json, which
# may stand before the command as well
_COMMANDS = {
    "validate": _Command(cmd_validate, "check every diagram invariant"),
    "convert": _Command(cmd_convert, "plumbing graph to splice diagram"),
    "zeta": _Command(cmd_zeta, "topological zeta function"),
    "poles": _Command(cmd_poles, "poles of the zeta function"),
    "alexander": _Command(cmd_alexander, "Alexander polynomial / Delta_1"),
    "semigroup": _Command(cmd_semigroup, "semigroup condition"),
    "allowed": _Command(cmd_allowed, "allowedness of the stored dashed arrows"),
    "goal1": _Command(cmd_goal1, "map every pole to the eigenvalue set"),
    "stars": _Command(cmd_stars, "star decomposition"),
    "selfcheck": _Command(
        cmd_selfcheck,
        "golden corpus + randomized invariants",
        (),
        {"--samples": _Option("samples", int, 60)},
    ),
    "eig": _Command(cmd_eig, "eigenvalue-set membership", options={"--lambda": _LAMBDA}),
    "splice": _Command(
        cmd_splice,
        "splice at a special edge",
        options={"--edge": _Option("edge", str, required=True, help="id1:id2")},
    ),
    "realize": _Command(
        cmd_realize,
        "construct allowed W hitting an eigenvalue",
        options={
            "--lambda": _LAMBDA,
            "--effective": _Option("effective", default=False),
            "--count": _Option("count", int, 1),
            "--bound": _Option("bound", int),
            "--include-doubles": _Option("include_doubles", default=False),
        },
    ),
}


# each command's namespace before its argv is read: --json off, the command
# and its function, and every option at its default
_DEFAULTS = {
    name: {
        "json": False,
        "command": name,
        "fn": command.fn,
        **{opt.dest: opt.default for opt in command.options.values()},
    }
    for name, command in _COMMANDS.items()
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser, built from the command table once per
    process (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="splicezeta",
        description="Exact invariants of splice diagrams and plumbing graphs",
    )
    ap.add_argument("--json", action="store_true", help="structured output")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        # a command's --json sets the flag only when given there, so one given
        # before the command is not reset by the command's default
        p.add_argument(
            "--json", action="store_true", default=argparse.SUPPRESS, help="structured output"
        )
        p.set_defaults(fn=command.fn, command=name)
        for dest in command.positionals:
            p.add_argument(dest)
        for flag, opt in command.options.items():
            how = {"action": "store_true"} if opt.convert is None else {"type": opt.convert}
            p.add_argument(
                flag, dest=opt.dest, default=opt.default, required=opt.required, help=opt.help, **how
            )
    return ap


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a well-formed argv, read from the command table, or
    None.  Well formed: argv[0] names a command; every other argument that
    starts with '-' is one of its options spelled in full; each option that
    takes a value is followed by an argument that does not start with '-'
    and converts; the command's positionals are all given, and no more; every
    required option is given.  argparse reads such an argv the same way."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    args = argparse.Namespace()
    values = vars(args)
    values.update(_DEFAULTS[argv[0]])
    positionals = []
    given = set()
    rest = iter(argv[1:])
    for arg in rest:
        if arg[:1] != "-":
            positionals.append(arg)
        elif arg == "--json":
            values["json"] = True
        else:
            opt = command.options.get(arg)
            if opt is None:
                return None
            if opt.convert is None:
                values[opt.dest] = True
                continue
            value = next(rest, "-")
            if value[:1] == "-":
                return None
            try:
                values[opt.dest] = opt.convert(value)
            except (TypeError, ValueError):
                return None
            given.add(opt.dest)
    if len(positionals) != len(command.positionals):
        return None
    if any(opt.required and opt.dest not in given for opt in command.options.values()):
        return None
    values.update(zip(command.positionals, positionals))
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` gives: a well-formed
    argv is read from the command table, and any other goes through the
    top-level parser, so usage text, errors, abbreviations and ``-h`` stay
    argparse's."""
    args = _read_argv(argv)
    return args if args is not None else build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # CPython refuses to convert an int of more than
        # sys.get_int_max_str_digits() digits to a string with a plain
        # ValueError; any other ValueError is a fault
        if "integer string conversion" not in str(exc):
            raise
        print(
            "error: a result has an integer of more than "
            f"{sys.get_int_max_str_digits()} decimal digits, Python's limit for "
            "integer string conversion",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
