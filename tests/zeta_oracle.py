"""Test oracles for the zeta function, outside the package's one form
(C, parts): the function as a reduced ``RatFunc`` summed term by term, the
integer ``reduced_coefficients`` read back as a ``RatFunc``, and the zeta
payload as the dict ``_json`` writes."""

from fractions import Fraction

from splicezeta.exact import Poly, RatFunc, format_fraction
from splicezeta.zeta import ZetaResult, reduced_coefficients


def termwise_sum(node_terms, edge_terms) -> RatFunc:
    """Add the terms one RatFunc at a time (a gcd per addition); shares no
    code with ``principal_parts`` or ``reduced_coefficients``."""
    total = RatFunc.zero()
    for t in node_terms:
        bracket = RatFunc(Poly.const(t.const))
        for p in t.arrows:
            bracket = bracket + RatFunc(Poly.const(p.weight), Poly.linear(p.i, p.n))
        total = total + RatFunc(Poly.const(1), Poly.linear(t.nu, t.n)) * bracket
    for e in edge_terms:
        total = total + RatFunc(
            Poly.const(e.q), Poly.linear(e.nu1, e.n1) * Poly.linear(e.nu2, e.n2)
        )
    return total


def func(z: ZetaResult) -> RatFunc:
    """Z as the reduced RatFunc of its terms, summed term by term."""
    return termwise_sum(z.node_terms, z.edge_terms)


def reduced_ratfunc(const: Fraction, parts) -> RatFunc:
    """C + sum of the principal parts as a reduced RatFunc, from
    ``reduced_coefficients``."""
    num, num_den, den, den_den = reduced_coefficients(const, parts)
    return RatFunc._reduced(
        Poly([Fraction(x, num_den) for x in num]), Poly([Fraction(x, den_den) for x in den])
    )


def zeta_payload(z: ZetaResult) -> dict:
    """The reduced num/den's coefficients, ascending in s (format_fraction
    over those of ``reduced_ratfunc``), and the node and edge terms: the
    oracle for the bytes ``cli._zeta_json`` writes straight from the terms."""
    f = reduced_ratfunc(z.const, z.parts)
    return {
        "numerator": [format_fraction(c) for c in f.num.coeffs],
        "denominator": [format_fraction(c) for c in f.den.coeffs],
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
                    [format_fraction(x) for x in form] for form in ((t.nu1, t.n1), (t.nu2, t.n2))
                ],
            }
            for t in z.edge_terms
        ],
    }
