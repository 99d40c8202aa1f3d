"""Test oracle for the realize payload: the dict ``_json`` writes, built
from a ``RealizeOutcome`` field by field, as ``cmd_realize`` built it before
``_realize_json`` wrote the payload from the outcome."""

from splicezeta.exact import UnityRoot, format_fraction
from splicezeta.realize import RealizeOutcome


def realize_payload(name: str, lam: UnityRoot, out: RealizeOutcome) -> dict:
    return {
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
