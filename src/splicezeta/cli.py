"""Command-line interface.

Exit codes: 0 = computed (verdicts live in the payload), 1 = usage or parse
error, 2 = precondition violation (bad graph kind, invalid decoration, ...).

Argv dispatch: when argv[0] names a command, that command's own parser reads
the rest; an argv it leaves arguments over from, and any other argv (none,
an option before the command, an unknown command, -h), goes through the
top-level parser, so usage and error text are those of ``build_parser()``.
``--json`` may stand before or after the command.

Parsed inputs are kept per process, keyed by the whole file text (never by
its path, as a file may be rewritten between commands): the commands on one
text share one diagram object, and with it everything kept in its memo.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from json.encoder import encode_basestring_ascii
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
from .realize import NotAnEigenvalueError, realize_eigenvalue
from .splicing import splice, star_decomposition, verify_splice_zeta
from .zeta import ZetaResult, zeta_plumbing, zeta_splice


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# how many parsed inputs a process keeps, least recently used first out
PARSE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse(text: str):
    """``parse_diagram(text)``, kept for the next command on the same text;
    a text that fails to parse raises, and is parsed again next time."""
    return parse_diagram(text)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(1, f"cannot read {path}: {exc}") from None
    try:
        return _parse(text)
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


def _poly_coeffs(p) -> list[str]:
    return [format_fraction(c) for c in p.coeffs]


def _zeta_payload(z: ZetaResult) -> dict:
    return {
        "numerator": _poly_coeffs(z.func.num),
        "denominator": _poly_coeffs(z.func.den),
        "node_terms": [
            {
                "vertex": t.vertex,
                "nu": format_fraction(t.nu),
                "N": format_fraction(t.n),
                "const": format_fraction(t.const),
                "arrows": [
                    {"weight": a.weight, "i": format_fraction(a.i), "N": format_fraction(a.n)}
                    for a in t.arrows
                ],
            }
            for t in z.node_terms
        ],
        "edge_terms": [
            {
                "vertices": list(t.vertices),
                "q": format_fraction(t.q),
                "factors": [
                    [format_fraction(x) for x in f] for f in ((t.nu1, t.n1), (t.nu2, t.n2))
                ],
            }
            for t in z.edge_terms
        ],
    }


def _cyclo_payload(c: CycloProduct) -> dict:
    out = {"factors": [[n, e] for n, e in c.factors.items()]}
    try:
        out["polynomial"] = [str(x) for x in c.coefficients()]
    except (NegativeMultiplicityError, CycloLimitError) as exc:
        out["polynomial"] = None
        out["note"] = str(exc)
    return out


def _json(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for str,
    int, bool, None, lists, tuples and dicts with str keys; anything else
    (a float, a Fraction, a non-str key) raises TypeError."""
    # containers are tested first: a plain str or int child is written in
    # place, without a call per scalar, so most calls are for containers;
    # bools, None and subclasses recurse
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # encode_basestring_ascii raises TypeError on a non-str key
        items = [
            encode_basestring_ascii(k) + ": " + (
                encode_basestring_ascii(v) if type(v) is str
                else int.__repr__(v) if type(v) is int
                else _json(v, inner)
            )
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [
            encode_basestring_ascii(v) if type(v) is str
            else int.__repr__(v) if type(v) is int
            else _json(v, inner)
            for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
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
    payload = {"name": name, "zeta": _zeta_payload(z)}
    num = " ".join(_poly_coeffs(z.func.num)) or "0"
    den = " ".join(_poly_coeffs(z.func.den))
    _emit(args, payload, f"{name}: Z numerator [{num}] denominator [{den}] (ascending in s)")


def cmd_poles(args):
    name, z = _zeta_of(args)
    poles = z.poles()
    payload = {
        "name": name,
        "poles": [
            {
                "s0": format_fraction(p.location),
                "order": p.order,
                "leading": format_fraction(p.leading),
            }
            for p in poles
        ],
    }
    lines = [f"{name}: {len(poles)} pole(s)"] + [
        f"  s0 = {format_fraction(p.location)}  order {p.order}"
        f"  leading {format_fraction(p.leading)}"
        for p in poles
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
    left, right = splice(d, (a, b))
    chk = verify_splice_zeta(d, (a, b))
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
    stars = star_decomposition(d)
    payload = {"name": name, "stars": {v: print_splice(s, f"{name}.{v}") for v, s in stars.items()}}
    text = "\n".join(print_splice(stars[v], f"{name}.{v}") for v in sorted(stars))
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
    payload = {
        "name": name,
        "lambda": str(lam),
        "status": out.status,
        "found": [
            {
                "w": {s: m for s, m in r.w.items()},
                "values": r.values(),
                "s0": format_fraction(r.s0),
                "order": r.order,
                "leading": format_fraction(r.leading),
                "source": r.source,
            }
            for r in out.found
        ],
        "diagnostics": out.diagnostics,
        "congruences": [
            {
                "node": c.node,
                "modulus": c.modulus,
                "base": c.base,
                "target": c.target,
                "coefficients": c.coefficients,
                "reductions": [
                    {"modulus": m, "coefficients": co, "target": t}
                    for m, co, t in c.reductions
                ],
            }
            for c in out.congruences
        ],
        "explored": out.explored,
    }
    if out.realized:
        lines = [f"{name}: realized {lam}"]
        for r in out.found:
            lines.append(f"  s0 = {format_fraction(r.s0)} (order {r.order}, from {r.source})")
            for slot, value in r.values().items():
                kind2 = "doubles" if slot in {x.id for x in d.farrows} else "at"
                lines.append(f"  warrow w_{slot} {kind2} {slot} i={value}")
    else:
        lines = [f"{name}: {out.status} for {lam}"]
        lines += [f"  {x}" for x in out.diagnostics]
        for c in out.congruences:
            lines.append("  " + c.describe().replace("\n", "\n  "))
    _emit(args, payload, "\n".join(lines))


def cmd_selfcheck(args):
    from .selfcheck import run_selfcheck  # other commands never load the check table

    if args.samples < 1:
        raise CliError(1, "--samples must be at least 1")
    lines = run_selfcheck(args.samples)
    ok = all(line.ok for line in lines)
    payload = {"ok": ok, "checks": [dataclasses.asdict(line) for line in lines]}
    text = "\n".join(map(str, lines)) + ("\nall checks passed" if ok else "\nFAILURES PRESENT")
    _emit(args, payload, text)
    if not ok:
        raise CliError(2, "selfcheck failed")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built
    once per process (parsing leaves them unchanged)."""
    ap = argparse.ArgumentParser(
        prog="splicezeta",
        description="Exact invariants of splice diagrams and plumbing graphs",
    )
    ap.add_argument("--json", action="store_true", help="structured output")
    # a command's --json sets the flag only when given there, so one given
    # before the command is not reset by the command's default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="structured output"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(fn=fn, command=name)
        return p

    for name, fn, help_ in [
        ("validate", cmd_validate, "check every diagram invariant"),
        ("convert", cmd_convert, "plumbing graph to splice diagram"),
        ("zeta", cmd_zeta, "topological zeta function"),
        ("poles", cmd_poles, "poles of the zeta function"),
        ("alexander", cmd_alexander, "Alexander polynomial / Delta_1"),
        ("semigroup", cmd_semigroup, "semigroup condition"),
        ("allowed", cmd_allowed, "allowedness of the stored dashed arrows"),
        ("goal1", cmd_goal1, "map every pole to the eigenvalue set"),
        ("stars", cmd_stars, "star decomposition"),
        ("selfcheck", cmd_selfcheck, "golden corpus + randomized invariants"),
    ]:
        p = add(name, fn, help=help_)
        if name != "selfcheck":
            p.add_argument("file")
        else:
            p.add_argument("--samples", type=int, default=60)
    p = add("eig", cmd_eig, help="eigenvalue-set membership")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", required=True, help="root of unity p/q")
    p = add("splice", cmd_splice, help="splice at a special edge")
    p.add_argument("file")
    p.add_argument("--edge", required=True, help="id1:id2")
    p = add("realize", cmd_realize, help="construct allowed W hitting an eigenvalue")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", required=True, help="root of unity p/q")
    p.add_argument("--effective", action="store_true")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--include-doubles", action="store_true")
    return ap, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser, built once per process."""
    return _parsers()[0]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` gives.  When argv[0]
    names a command, that command's parser reads the rest of argv alone
    (about half the time of the top-level pass, which hands the same
    arguments to it); anything it leaves over, and any other argv, goes
    through the top-level parser, so its usage and errors are unchanged."""
    ap, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(json=False))
        if not rest:
            return args
    return ap.parse_args(argv)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
