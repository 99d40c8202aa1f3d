#!/usr/bin/env python3
"""Walk through the diagram data model: build, validate, convert, blow up.

The running example of the whole suite is a three-node splice diagram whose
resolution graph is the chain (-2, -1, -13, -1, -2) with (-3)-legs at the two
(-1)-curves and a single arrowhead at the central (-13)-curve.
"""

from splicezeta import (
    Edge,
    Farrow,
    SpliceDiagram,
    blow_down,
    blowup,
    edge_determinant,
    plumbing_to_splice,
    validate,
)
from splicezeta.corpus import two_cusp_diagram, two_cusp_plumbing
from splicezeta.io import print_plumbing, print_splice

# ---------------------------------------------------------------------------
# 1. a decorated splice diagram, drawn by hand

d = two_cusp_diagram()
print(print_splice(d, "running-example"))
print("valid:", validate(d).ok)
print("nodes:", d.nodes())
print("boundary vertices:", d.boundary_vertices())

# the edge determinant of a node-node edge must be positive
for e in d.special_edges():
    print("edge", e.key, "determinant:", edge_determinant(d, e))

# linking products drive every multiplicity formula
print("l(v1, arrow) =", d.linking_product("v1", "a0"))
print("l(v1, v1p)   =", d.linking_product("v1", "v1p"))

# ---------------------------------------------------------------------------
# 2. an invalid diagram is reported, not rejected

bad = SpliceDiagram(
    ["v", "b1", "b2", "b3"],
    [Edge("v", "b1", 2, 1), Edge("v", "b2", 4, 1), Edge("v", "b3", 3, 1)],
    [Farrow(id="a", at="v", weight=1, mult=1)],
)
print("\nnon-coprime weights at a node:")
print(validate(bad))

# ---------------------------------------------------------------------------
# 3. the same object from the resolution side

g = two_cusp_plumbing()
print("\n" + print_plumbing(g, "running-example-resolution"))
print("negative definite:", g.is_negative_definite())
print("det(-I) =", g.det_minus_I(), "(integral homology sphere link)")

conv = plumbing_to_splice(g)
print("\nconverted splice diagram (strings collapsed, weights are subtree determinants):")
print(print_splice(conv, "converted"))

# ---------------------------------------------------------------------------
# 4. blowups change the resolution but not the collapsed diagram shape

g2 = blowup(g, ("edge", ("e1", "e2")))
print("after blowing up an intersection point: det(-I) =", g2.det_minus_I())
print("still three nodes after conversion:", len(plumbing_to_splice(g2).nodes()))

# a bare leg of weight 1 at its node is a generic-point blowup, and
# blow_down undoes it
noisy = SpliceDiagram(
    ["v", "b1", "b2", "b3"],
    [Edge("v", "b1", 2, 1), Edge("v", "b2", 3, 1), Edge("v", "b3", 1, 1)],
    [Farrow(id="a", at="v", weight=1, mult=1)],
)
print("\nblow_down drops the bare weight-1 leg:", blow_down(noisy).vertices)
# blowing up a generic point of the arrowhead's curve adds such a leg to
# the converted diagram, and the blow-down takes it off again
g3 = blowup(g, ("vertex", "e3"))
conv3 = plumbing_to_splice(g3)
print("after blowing up a point of e3:", conv3.boundary_vertices())
print("blown down:", blow_down(conv3).boundary_vertices(), "as in", conv.boundary_vertices())
print("the converted running example is its own blow-down:", blow_down(conv) is conv)
