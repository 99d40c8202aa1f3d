"""The zeta payload as a dict, the form ``_json`` writes: the oracle for the
bytes ``cli._zeta_json`` writes straight from the terms."""

from splicezeta.exact import format_fraction
from splicezeta.zeta import ZetaResult


def zeta_payload(z: ZetaResult) -> dict:
    """The reduced num/den's coefficients, ascending in s (format_fraction
    over z.func's), and the node and edge terms."""
    return {
        "numerator": [format_fraction(c) for c in z.func.num.coeffs],
        "denominator": [format_fraction(c) for c in z.func.den.coeffs],
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
