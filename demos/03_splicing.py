#!/usr/bin/env python3
"""Splice decomposition and the zeta splice identity.

Splitting a diagram at a node-node edge hands each half an induced arrowhead
(multiplicity M, dashed value i) or a boundary leg with a dashed arrow; the
zeta functions then satisfy, exactly,

    Z(whole) = Z(left) + Z(right) - 1/((i + s M)(i' + s M')).
"""

from splicezeta.corpus import two_cusp_diagram
from splicezeta.io import print_splice
from splicezeta.splicing import splice, star_decomposition, verify_splice_zeta
from splicezeta.zeta import principal_parts, summands, zeta_splice

d = two_cusp_diagram()

# ---------------------------------------------------------------------------
# 1. one splice

left, right = splice(d, ("v1", "v0"))
print("induced data: M =", left.m, " i =", left.i, " M' =", right.m, " i' =", right.i)
print(print_splice(left.diagram, "left-half"))
print(print_splice(right.diagram, "right-half"))

chk = verify_splice_zeta(d, ("v1", "v0"))
print("zeta identity holds exactly:", chk.zeta_identity)
print("edge lemma holds exactly:   ", chk.edge_lemma)

# ---------------------------------------------------------------------------
# 2. the full star decomposition

stars = star_decomposition(d)
for v in sorted(stars):
    print(print_splice(stars[v], f"star-{v}"))

# and the printed three-piece identity with correction term 2/((-1)(s-1)),
# compared as C + principal parts: the three stars' terms less the
# correction, each a term c / prod(a + s b)
zs = [zeta_splice(stars[v]) for v in ("v1", "v0", "v1p")]
terms = [t for z in zs for t in summands(z.node_terms, z.edge_terms)]
total = principal_parts(terms + [(-2, ((-1, 0), (-1, 1)))])
z = zeta_splice(d)
print("three-star identity:", total == (z.const, z.parts))
